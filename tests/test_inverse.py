import itertools
import random

import pytest

from dctk.conjugate import SeparableConvex, VShape
from dctk.errors import NoFeasibleWeight, NotFeasible
from dctk.extint import MINUS_INF, PLUS_INF
from dctk.fixtures import p2_system, random_supermodular
from dctk.inverse import (
    InverseInstance,
    box_deviation,
    default_z_window,
    dilate_targets,
    inverse_dual_search,
    inverse_minimize,
    is_minimizer,
    l1_deviation,
    reduce_targets,
    tangent_cone,
    weighted_l1_deviation,
)
from dctk.mconvex import enumerate_bases, to_system
from dctk.polyhedron import EQ, GEQ, Window, lp_min

from helpers import random_search_objective

P2SYS = p2_system()
DEV = l1_deviation((3, 1), P2SYS.elements)


class TestTangentCone:
    def test_at_corner(self):
        cone = tangent_cone(P2SYS, (2, 0))
        kinds = [(r.coeffs, r.rhs, r.kind) for r in cone.cone_system.rows]
        assert kinds == [((0, 1), 0, GEQ), ((1, 1), 0, EQ)]

    def test_interior_of_segment(self):
        cone = tangent_cone(P2SYS, (1, 1))
        kinds = [(r.coeffs, r.rhs, r.kind) for r in cone.cone_system.rows]
        assert kinds == [((1, 1), 0, EQ)]

    def test_other_corner(self):
        cone = tangent_cone(P2SYS, (0, 2))
        kinds = [(r.coeffs, r.rhs, r.kind) for r in cone.cone_system.rows]
        assert kinds == [((1, 0), 0, GEQ), ((1, 1), 0, EQ)]

    def test_infeasible_point(self):
        with pytest.raises(NotFeasible):
            tangent_cone(P2SYS, (0, 1))


class TestIsMinimizer:
    def test_true(self):
        assert is_minimizer(P2SYS, (2, 0), (1, 2))

    def test_false(self):
        assert not is_minimizer(P2SYS, (2, 0), (2, 1))

    def test_constant(self):
        assert is_minimizer(P2SYS, (1, 1), (1, 1))

    def test_matches_dual_cone_membership(self):
        # w makes z0 optimal iff w is a nonnegative combination of the
        # tight rows (with free multipliers on equality rows).
        rng = random.Random(13)
        for _ in range(10):
            p = random_supermodular(rng, 2)
            sys = to_system(p)
            for z0 in enumerate_bases(p):
                cone = tangent_cone(sys, z0).cone_system
                for w in itertools.product(range(-3, 4), repeat=2):
                    in_cone = False
                    for mult in itertools.product(
                        *(
                            range(0, 7) if r.kind == GEQ else range(-6, 7)
                            for r in cone.rows
                        )
                    ):
                        combo = tuple(
                            sum(m * r.coeffs[j] for m, r in zip(mult, cone.rows))
                            for j in range(2)
                        )
                        if combo == w:
                            in_cone = True
                            break
                    assert is_minimizer(sys, z0, w) == in_cone


class TestInverseMinimize:
    def test_worked_example(self):
        inst = InverseInstance(P2SYS, ((2, 0),), DEV)
        w, v = inverse_minimize(inst, Window.uniform(2, -1, 5))
        assert v == 2
        assert is_minimizer(P2SYS, (2, 0), w)

    def test_already_optimal(self):
        inst = InverseInstance(P2SYS, ((0, 2),), DEV)
        w, v = inverse_minimize(inst, Window.uniform(2, -1, 5))
        assert v == 0 and w == (3, 1)

    def test_segment_point(self):
        inst = InverseInstance(P2SYS, ((1, 1),), DEV)
        w, v = inverse_minimize(inst, Window.uniform(2, -1, 5))
        assert v == 2 and w[0] == w[1]

    def test_no_weight_in_window(self):
        inst = InverseInstance(P2SYS, ((2, 0),), DEV)
        with pytest.raises(NoFeasibleWeight):
            # w1 <= w2 is impossible inside this window slice.
            inverse_minimize(inst, Window(lo=(5, 0), hi=(5, 0)))


class TestInverseDual:
    def test_worked_example(self):
        cone = tangent_cone(P2SYS, (2, 0))
        rep = inverse_dual_search(cone, DEV, default_z_window(DEV), (2, 2))
        assert rep.dual_value == 2
        assert rep.dual_witness == (-1, 1)
        assert rep.bounds_used["orthogonal"]
        assert rep.bounds_used["fitting"]

    def test_optimal_reference(self):
        cone = tangent_cone(P2SYS, (0, 2))
        rep = inverse_dual_search(cone, DEV, default_z_window(DEV))
        assert rep.dual_value == 0 and rep.dual_witness == (0, 0)

    def test_weak_duality(self):
        cone = tangent_cone(P2SYS, (2, 0))
        zwin = default_z_window(DEV)
        for z in zwin.points():
            if not cone.cone_system.contains(z):
                continue
            conj = DEV.conjugate(z)
            for w in itertools.product(range(-1, 6), repeat=2):
                if is_minimizer(P2SYS, (2, 0), w):
                    assert -conj <= DEV.value(w)

    def test_matches_plain_scan(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_supermodular(rng, rng.randint(2, 3), 3)
            cone = tangent_cone(to_system(p), rng.choice(enumerate_bases(p)))
            dev = random_search_objective(rng, p.elements)
            zwin = Window.uniform(p.n, -3, 3)
            best, arg = MINUS_INF, None
            for z in zwin.points():
                if not cone.cone_system.contains(z):
                    continue
                conj = dev.conjugate(z)
                if conj is not PLUS_INF and -conj > best:
                    best, arg = -conj, z
            rep = inverse_dual_search(cone, dev, zwin)
            assert (rep.dual_value, rep.dual_witness) == (best, arg)


class TestTargets:
    def test_dilate_pair(self):
        sys2, z0 = dilate_targets(P2SYS, [(1, 1), (2, 0)])
        assert sys2.rows[2].rhs == 4 and z0 == (3, 1)

    def test_reduce_single_is_identity(self):
        sys1, z0 = reduce_targets(P2SYS, [(1, 1)])
        assert sys1 == P2SYS and z0 == (1, 1)

    def test_dilate_same_target(self):
        sys2, z0 = dilate_targets(P2SYS, [(0, 2), (0, 2)])
        assert sys2.rows[2].rhs == 4 and z0 == (0, 4)

    def test_bad_target(self):
        with pytest.raises(NotFeasible):
            dilate_targets(P2SYS, [(1, 0)])

    def test_multi_target_consistency(self):
        targets = [(1, 1), (2, 0)]
        sys2, z0 = dilate_targets(P2SYS, targets)
        for w in itertools.product(range(-3, 4), repeat=2):
            each = all(is_minimizer(P2SYS, t, w) for t in targets)
            assert is_minimizer(sys2, z0, w) == each


class TestDeviationBuilders:
    def test_weighted_l1_slopes(self):
        dev = weighted_l1_deviation((0, 0), (2, 3), (1, 2), ("a", "b"))
        assert dev.value((1, -1)) == 1 + 3
        win = default_z_window(dev)
        assert win.lo == (-2, -3) and win.hi == (1, 2)

    def test_box_deviation(self):
        dev = box_deviation((0, 0), (2, 2), (1, 1), (1, 1), ("a", "b"))
        assert dev.value((1, 3)) == 1
        assert dev.value((-2, 0)) == 2

    def test_fallback_window(self):
        from dctk.conjugate import square_sum

        win = default_z_window(square_sum(("a", "b")))
        assert win.lo == (-6, -6) and win.hi == (6, 6)
