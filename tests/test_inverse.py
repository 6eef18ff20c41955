import collections
import itertools
import random

import pytest

from dctk import ratlin
from dctk.conjugate import SeparableConvex, VShape
from dctk.errors import NoFeasibleWeight, NotFeasible
from dctk.extint import MINUS_INF, PLUS_INF
from dctk.fixtures import p2_system, random_supermodular, s3_system
from dctk.inverse import (
    box_deviation,
    default_z_window,
    inverse_dual_search,
    inverse_minimize,
    l1_deviation,
    weighted_l1_deviation,
)
from dctk.mconvex import enumerate_bases, to_system
from dctk.polyhedron import (
    EQ,
    GEQ,
    LinearSystem,
    Row,
    Window,
    dilation,
    enumerate_integer_points,
    mu_form_dual_search,
    normal_cone,
    tangent_cone,
)

from helpers import (
    find_weight_in_box,
    is_minimizer,
    naive_integer_points,
    naive_find_weight_in_box,
    naive_basic_data,
    naive_inverse_minimize,
    random_flow_embedding,
    random_integer_system,
    random_search_objective,
    run_under_memory_limit,
    window_points,
)

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
        w, v = inverse_minimize(tangent_cone(P2SYS, (2, 0)), DEV, Window.uniform(2, -1, 5))
        assert v == 2
        assert is_minimizer(P2SYS, (2, 0), w)

    def test_already_optimal(self):
        w, v = inverse_minimize(tangent_cone(P2SYS, (0, 2)), DEV, Window.uniform(2, -1, 5))
        assert v == 0 and w == (3, 1)

    def test_segment_point(self):
        w, v = inverse_minimize(tangent_cone(P2SYS, (1, 1)), DEV, Window.uniform(2, -1, 5))
        assert v == 2 and w[0] == w[1]

    def test_no_weight_in_window(self):
        with pytest.raises(NoFeasibleWeight):
            # w1 <= w2 is impossible inside this window slice.
            inverse_minimize(tangent_cone(P2SYS, (2, 0)), DEV, Window(lo=(5, 0), hi=(5, 0)))

    def test_deviation_filled_on_demand_under_a_memory_limit(self):
        # No row is tight at the target, so the normal cone is {0}: one
        # weight in a window of 2 * 10**9 + 1 values per coordinate.
        p = run_under_memory_limit(
            "from dctk.inverse import inverse_minimize, l1_deviation\n"
            "from dctk.polyhedron import GEQ, LinearSystem, Row, Window, tangent_cone\n"
            "rows = tuple(Row(c, -5, GEQ) for c in ((1, 0), (-1, 0), (0, 1), (0, -1)))\n"
            "box = LinearSystem(('a', 'b'), rows)\n"
            "dev = l1_deviation((1, -1), box.elements)\n"
            "print(inverse_minimize(tangent_cone(box, (0, 0)), dev, Window.uniform(2, -10**9, 10**9)))"
        )
        assert (p.returncode, p.stdout) == (0, "((0, 0), 2)\n"), p.stderr


class TestInverseDual:
    def test_worked_example(self):
        cone = tangent_cone(P2SYS, (2, 0))
        rep = inverse_dual_search(cone, DEV, default_z_window(DEV))
        assert rep.dual_value == 2
        assert rep.dual_witness == (-1, 1)
        # The pair with w* = (2, 2) is orthogonal and fits.
        assert ratlin.dot((2, 2), rep.dual_witness) == 0
        assert DEV.first_unfit((2, 2), rep.dual_witness) is None

    def test_optimal_reference(self):
        cone = tangent_cone(P2SYS, (0, 2))
        rep = inverse_dual_search(cone, DEV, default_z_window(DEV))
        assert rep.dual_value == 0 and rep.dual_witness == (0, 0)

    def test_weak_duality(self):
        cone = tangent_cone(P2SYS, (2, 0))
        zwin = default_z_window(DEV)
        for z in window_points(zwin):
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
            for z in window_points(zwin):
                if not cone.cone_system.contains(z):
                    continue
                conj = dev.conjugate(z)
                if conj is not PLUS_INF and -conj > best:
                    best, arg = -conj, z
            rep = inverse_dual_search(cone, dev, zwin)
            assert (rep.dual_value, rep.dual_witness) == (best, arg)


class TestTargets:
    def test_each_target_checked_once(self, monkeypatch):
        seen = []
        slack = Row.slack
        monkeypatch.setattr(Row, "slack", lambda self, x: seen.append((self, tuple(x))) or slack(self, x))
        tangent_cone(P2SYS, (2, 0), (1, 1))
        # Each row's slack once per target, target by target; no sum and
        # no dilation is read.
        assert seen == [(r, z) for z in [(2, 0), (1, 1)] for r in P2SYS.rows]

    def test_dilate_pair(self):
        cone = tangent_cone(P2SYS, (1, 1), (2, 0))
        assert cone == tangent_cone(dilation(P2SYS, 2), (3, 1))
        assert [(r.coeffs, r.kind) for r in cone.cone_system.rows] == [((1, 1), EQ)]

    def test_reduce_single_is_identity(self):
        assert tangent_cone(P2SYS, (1, 1)) == tangent_cone(dilation(P2SYS, 1), (1, 1))

    def test_dilate_same_target(self):
        cone = tangent_cone(P2SYS, (0, 2), (0, 2))
        assert cone == tangent_cone(dilation(P2SYS, 2), (0, 4)) == tangent_cone(P2SYS, (0, 2))

    def test_bad_target(self):
        with pytest.raises(NotFeasible, match=r"target \(1, 0\) violates the system"):
            tangent_cone(P2SYS, (1, 1), (1, 0))
        # The checks run target by target: a short target before a bad one.
        with pytest.raises(ValueError, match=r"target \(1,\) needs 2 entries"):
            tangent_cone(P2SYS, (1,), (1, 0))
        with pytest.raises(ValueError, match="need at least one target"):
            tangent_cone(P2SYS)

    def test_multi_target_consistency(self):
        targets = [(1, 1), (2, 0)]
        cone = normal_cone(tangent_cone(P2SYS, *targets))
        for w in itertools.product(range(-3, 4), repeat=2):
            each = all(is_minimizer(P2SYS, t, w) for t in targets)
            assert cone.contains(w) == each

    def test_matches_dilated_sum(self):
        """The cone at k targets has the rows, rays and lineality of the
        cone at their sum on the k-dilation, on base systems with n = 2-4
        and flow embeddings, 1-3 targets drawn with repetition."""
        rng = random.Random(71)
        seen = collections.Counter()
        while seen[1] + seen[2] + seen[3] < 520:
            if rng.random() < 0.7:
                p = random_supermodular(rng, rng.randint(2, 4), value_bound=2)
                sys, points = to_system(p), enumerate_bases(p)
            else:
                sys = random_flow_embedding(rng)
                points = list(enumerate_integer_points(sys, Window.uniform(sys.n, -2, 2)))
            if not points:
                continue
            targets = tuple(rng.choice(points) for _ in range(rng.randint(1, 3)))
            summed = tuple(map(sum, zip(*targets)))
            assert tangent_cone(sys, *targets) == tangent_cone(dilation(sys, len(targets)), summed), targets
            seen[len(targets)] += 1
            seen["repeated"] += len(set(targets)) < len(targets)
        assert min(seen.values()) >= 100, seen


def _deviation_case(rng, elements):
    """An l1, weighted-l1 or box deviation around small random costs."""
    n = len(elements)
    w0 = tuple(rng.randint(-2, 2) for _ in range(n))
    kind = rng.randrange(3)
    if kind == 0:
        return l1_deviation(w0, elements)
    c1, c2 = (tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(2))
    if kind == 1:
        return weighted_l1_deviation(w0, c1, c2, elements)
    return box_deviation(w0, tuple(v + rng.randint(0, 2) for v in w0), c1, c2, elements)


class TestMuFormIdentity:
    def test_inverse_dual_is_the_mu_form_of_the_normal_cone(self):
        """max -conj(Phi)(z) over the tangent cone is max mu_N(z) -
        conj(Phi)(z) with N the normal-cone system, since mu_N is 0 on
        the tangent cone and -inf off it: the same value and witness."""
        rng = random.Random(43)
        positive = 0
        for _ in range(280):
            p = random_supermodular(rng, rng.randint(2, 4), value_bound=2)
            bases = enumerate_bases(p)
            cone = tangent_cone(to_system(p), *(rng.choice(bases) for _ in range(rng.randint(1, 3))))
            dev = _deviation_case(rng, p.elements)
            zwin = default_z_window(dev)
            rep = inverse_dual_search(cone, dev, zwin)
            mu = mu_form_dual_search(normal_cone(cone), dev, zwin)
            assert (rep.dual_value, rep.dual_witness) == (mu.dual_value, mu.dual_witness)
            positive += rep.dual_value > 0
        assert positive >= 100, positive


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


def _cone_cases():
    """(system, targets) pairs whose tangent cones the scans are checked
    on: base systems with n = 2-4 and k = 1, 2 and 3 targets, flow
    embeddings and random integer systems, s3 at a vertex and its
    2-dilation at a sum of two vertices, p2 at (1, 1), whose cone has
    lineality, and the centre of a box, whose cone is the zero row."""
    rng = random.Random(17)
    cases = []
    for n, count in ((2, 4), (3, 3), (4, 1)):
        for _ in range(count):
            p = random_supermodular(rng, n, value_bound=2)
            bases = enumerate_bases(p)
            for k in (1, 2, 3):
                cases.append((to_system(p), tuple(rng.choice(bases) for _ in range(k))))
    for build in (random_flow_embedding, random_integer_system):
        for _ in range(8):
            sys = build(rng)
            points = list(enumerate_integer_points(sys, Window.uniform(sys.n, -3, 3)))
            if points:
                cases.append((sys, (rng.choice(points),)))
    s3 = s3_system()
    cases.append((s3, ((1, 1, 1, 0, 0, 0),)))
    cases.append((s3, ((1, 1, 1, 0, 0, 0), (0, 1, 0, 0, 1, 0))))
    cases.append((P2SYS, ((1, 1),)))
    box = LinearSystem(("a", "b"), tuple(
        Row(c, r, GEQ) for c, r in (((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2))))
    cases.append((box, ((1, 1),)))
    return cases


def _window(n):
    return Window.uniform(n, -2, 2) if n <= 4 else Window.uniform(n, -1, 1)


def _reduced(sys, targets):
    return dilation(sys, len(targets)), tuple(map(sum, zip(*targets)))


class TestTangentConeMatchesNaive:
    """tangent_cone's rays are the extreme rays of its own cone system,
    made pointed, found with no homogenizing column: the same rays and
    lineality as the two-loop oracle naive_basic_data, in one null space
    for the lineality and one for the equality and lineality rows."""

    @staticmethod
    def cases():
        rng = random.Random(29)
        cases = [_reduced(sys, targets) for sys, targets in _cone_cases()]
        for _ in range(40):
            sys = random_integer_system(rng)
            points = list(enumerate_integer_points(sys, Window.uniform(sys.n, -4, 4)))
            if points:
                cases.append((sys, rng.choice(points)))
        line = LinearSystem(("x",), (Row((1,), 0, GEQ), Row((-1,), -3, GEQ)))
        cases += [(line, (0,)), (line, (3,)), (line, (1,)),
                  (LinearSystem(("x",), (Row((2,), 4, EQ),)), (2,))]
        return cases

    def test_matches_naive_basic_data(self, monkeypatch):
        calls = []
        null_space = ratlin.null_space
        monkeypatch.setattr(ratlin, "null_space", lambda rows, n: calls.append(n) or null_space(rows, n))
        seen = collections.Counter()
        for sys, z0 in self.cases():
            calls.clear()
            cone = tangent_cone(sys, z0)
            count = len(calls)
            _, rays, lineality, _ = naive_basic_data(cone.cone_system)
            assert (list(cone.rays), list(cone.lineality)) == (rays, lineality), (sys, z0)
            assert count <= 2
            seen["n = 1"] += sys.n == 1
            seen["whole space"] += len(lineality) == sys.n
            seen["rays and lineality"] += bool(rays and lineality)
            seen["pointed"] += bool(rays and not lineality)
        assert min(seen.values()) >= 2, seen


class TestNormalConeMatchesOracle:
    """The normal-cone scan, find_weight_in_box and inverse_minimize give
    what one exact Fraction LP per weight gives (tests/helpers.py)."""

    def test_scan_is_the_set_of_lp_minimizing_weights(self):
        sizes = set()
        for sys, targets in _cone_cases():
            big, z0 = _reduced(sys, targets)
            win = _window(sys.n)
            got = list(enumerate_integer_points(normal_cone(tangent_cone(sys, *targets)), win))
            assert got == [w for w in window_points(win) if is_minimizer(big, z0, w)]
            sizes.add(len(got))
        assert 1 in sizes and len(sizes) >= 8

    def test_lineality_and_zero_row_cones(self):
        cone = tangent_cone(P2SYS, (1, 1))
        assert cone.rays == () and cone.lineality != ()
        win = Window.uniform(2, -2, 2)
        expected = [(v, v) for v in range(-2, 3)]
        assert list(enumerate_integer_points(normal_cone(cone), win)) == expected
        *_, (box, targets) = _cone_cases()
        cone = tangent_cone(box, targets[0])
        assert [r.coeffs for r in cone.cone_system.rows] == [(0, 0)]
        assert list(enumerate_integer_points(normal_cone(cone), win)) == [(0, 0)]

    def test_kernel_on_cone_systems_matches_naive_oracle(self):
        """On each tangent cone and its normal cone the integer-point
        kernel lists what the naive window scan lists.  A single point's
        normal cone is the zero row: every weight of the window."""
        point = LinearSystem(("a", "b"), (Row((1, 0), 1, EQ), Row((0, 1), 2, EQ)))
        for sys, targets in _cone_cases() + [(point, ((1, 2),))]:
            big, z0 = _reduced(sys, targets)
            cone = tangent_cone(big, z0)
            win = _window(sys.n)
            for system in (normal_cone(cone), cone.cone_system):
                got = list(enumerate_integer_points(system, win))
                assert got == naive_integer_points(system, win)
        zero_row = normal_cone(tangent_cone(point, (1, 2)))
        assert [(r.coeffs, r.kind) for r in zero_row.rows] == [((0, 0), GEQ)]
        win = Window.uniform(2, -2, 2)
        assert list(enumerate_integer_points(zero_row, win)) == list(window_points(win))

    def test_find_weight_in_box(self):
        rng = random.Random(19)
        found = 0
        for sys, targets in _cone_cases():
            big, z0 = _reduced(sys, targets)
            win = _window(sys.n)
            for _ in range(3):
                ell = tuple(rng.choice((MINUS_INF, rng.randint(-3, 2))) for _ in range(sys.n))
                u = tuple(rng.choice((PLUS_INF, rng.randint(-2, 3))) for _ in range(sys.n))
                got = find_weight_in_box(big, z0, ell, u, win)
                assert got == naive_find_weight_in_box(big, z0, ell, u, win)
                found += got is not None
        assert found >= 40

    def test_inverse_minimize(self):
        rng = random.Random(23)
        outcomes = []
        for sys, targets in _cone_cases():
            for _ in range(2):
                if rng.random() < 0.5:
                    dev = random_search_objective(rng, sys.elements)
                else:
                    w0 = tuple(rng.randint(-2, 2) for _ in range(sys.n))
                    dev = l1_deviation(w0, sys.elements)
                win = _window(sys.n)
                got, expected = [], []
                for scan, out in ((lambda: inverse_minimize(tangent_cone(sys, *targets), dev, win), got),
                                  (lambda: naive_inverse_minimize(sys, targets, dev, win), expected)):
                    try:
                        out.append(scan())
                    except NoFeasibleWeight:
                        out.append(None)
                assert got == expected
                outcomes.append(got[0])
        assert None in outcomes
        assert sum(o is not None and o[1] is not PLUS_INF for o in outcomes) >= 60
