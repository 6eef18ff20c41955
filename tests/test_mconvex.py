import itertools
import random
import warnings

import pytest

from dctk.conjugate import Quadratic, Restricted, SeparableConvex, Shifted, linear_cost, square_sum
from dctk.errors import CriteriaViolated, EmptyIntersection
from dctk.extint import MINUS_INF, PLUS_INF
from dctk.fixtures import (
    base_window,
    p2,
    p2b,
    random_supermodular,
    random_weight,
)
from dctk.mconvex import (
    SupermodularFn,
    complement,
    dual_certificate,
    enumerate_bases,
    greedy_min,
    lovasz_extension,
    m2_minimize_and_split,
    member,
    minimize_separable,
    smallest_tight_set,
    square_sum_dual_value,
    strict_top_sets,
    to_system,
    tight_sets,
    verify_mconvex_optimality,
)
from dctk.polyhedron import EQ, GEQ

from helpers import naive_m2_split, random_search_objective

P2 = p2()
P2B = p2b()
SQ = square_sum(P2.elements)


class TestConstruction:
    def test_rejects_nonsupermodular(self):
        with pytest.raises(ValueError):
            SupermodularFn(2, (0, 2, 2, 2))  # 2+2 > 0+2

    def test_rejects_nonzero_empty(self):
        with pytest.raises(ValueError):
            SupermodularFn(1, (1, 0))

    def test_rejects_infinite_total(self):
        with pytest.raises(ValueError):
            SupermodularFn(1, (0, MINUS_INF))

    def test_json_round_trip(self):
        p = SupermodularFn(2, (0, MINUS_INF, 0, 2))
        assert SupermodularFn.from_json(p.to_json()) == p


class TestComplement:
    def test_p2(self):
        assert complement(P2) == (0, 2, 2, 2)

    def test_zero(self):
        z = SupermodularFn(2, (0, 0, 0, 0))
        assert complement(z) == (0, 0, 0, 0)

    def test_involution(self):
        pb = complement(P2)
        again = tuple(
            pb[P2.full] - pb[P2.full ^ m] for m in range(1 << P2.n)
        )
        assert again == P2.table


class TestSystem:
    def test_p2_rows(self):
        sys = to_system(P2)
        kinds = [(r.coeffs, r.rhs, r.kind) for r in sys.rows]
        assert kinds == [
            ((1, 0), 0, GEQ),
            ((0, 1), 0, GEQ),
            ((1, 1), 2, EQ),
        ]

    def test_minus_inf_row_omitted(self):
        p = SupermodularFn(2, (0, MINUS_INF, 0, 2))
        sys = to_system(p)
        assert len(sys.rows) == 2

    def test_singleton(self):
        p = SupermodularFn(1, (0, 3))
        sys = to_system(p)
        assert len(sys.rows) == 1 and sys.rows[0].kind == EQ


class TestMember:
    def test_inside(self):
        assert member(P2, (1, 1))

    def test_wrong_total(self):
        assert not member(P2, (2, 1))

    def test_violates_singleton(self):
        assert not member(P2, (-1, 3))


class TestLovaszGreedy:
    def test_extension_values(self):
        assert lovasz_extension(P2, (3, 1)) == 2
        assert lovasz_extension(P2, (1, 1)) == 2
        assert lovasz_extension(P2, (0, 0)) == 0

    def test_greedy_values(self):
        assert greedy_min(P2, (3, 1)) == (0, 2)
        assert greedy_min(P2, (1, 3)) == (2, 0)
        assert greedy_min(P2, (1, 1)) == (0, 2)

    def test_greedy_equals_extension_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 5)
            p = random_supermodular(rng, n)
            w = random_weight(rng, n)
            z = greedy_min(p, w)
            val = sum(wi * zi for wi, zi in zip(w, z))
            assert val == lovasz_extension(p, w)
            assert member(p, z)
            brute = min(
                sum(wi * zi for wi, zi in zip(w, b)) for b in enumerate_bases(p)
            )
            assert val == brute
            for mask in strict_top_sets(p, w):
                assert sum(z[i] for i in range(n) if mask >> i & 1) == p.table[mask]


class TestMinimize:
    def test_p2_square(self):
        assert minimize_separable(P2, SQ) == (1, 1)

    def test_p2_linear(self):
        assert minimize_separable(P2, linear_cost(P2.elements, (3, 1))) == (0, 2)

    def test_p2_target(self):
        Phi = SeparableConvex(
            (("e1", Shifted(2, Quadratic(1))), ("e2", Quadratic(1)))
        )
        z = minimize_separable(P2, Phi)
        assert z == (2, 0) and Phi.value(z) == 0

    def test_local_equals_global_random(self):
        rng = random.Random(5)
        from dctk.fixtures import random_separable

        for _ in range(40):
            n = rng.randint(2, 4)
            p = random_supermodular(rng, n)
            Phi = random_separable(rng, p.elements)
            z = minimize_separable(p, Phi)
            brute = min(Phi.value(b) for b in enumerate_bases(p))
            assert Phi.value(z) == brute


class TestTightSets:
    def test_smallest(self):
        assert smallest_tight_set(P2, (1, 1), 0) == 0b11
        assert smallest_tight_set(P2, (0, 2), 0) == 0b01
        assert smallest_tight_set(P2, (2, 0), 1) == 0b10

    def test_ring_family(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 4)
            p = random_supermodular(rng, n)
            z = greedy_min(p, random_weight(rng, n))
            masks = tight_sets(p, z)
            for a in masks:
                for b in masks:
                    inter, union = a & b, a | b
                    if inter:
                        assert inter in masks
                    assert union in masks

    def test_exchange_feasibility(self):
        # z - chi_s + chi_t stays a base iff no z-tight set holds s but not t.
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 4)
            p = random_supermodular(rng, n)
            z = greedy_min(p, random_weight(rng, n))
            masks = tight_sets(p, z)
            for s in range(n):
                for t in range(n):
                    if s == t:
                        continue
                    z2 = list(z)
                    z2[s] -= 1
                    z2[t] += 1
                    blocked = any(
                        m >> s & 1 and not m >> t & 1 for m in masks
                    )
                    assert member(p, z2) == (not blocked)


class TestDualCertificate:
    def test_p2_square(self):
        w, notes = dual_certificate(P2, SQ, (1, 1))
        assert w == (3, 3) and not notes
        rep = verify_mconvex_optimality(P2, SQ, (1, 1), w)
        assert rep.equality and rep.primal_value == 2 and rep.dual_value == 2

    def test_p2_linear(self):
        lin = linear_cost(P2.elements, (3, 1))
        w, _ = dual_certificate(P2, lin, (0, 2))
        assert w == (3, 1)

    def test_p2_shifted(self):
        Phi = SeparableConvex(
            (("e1", Shifted(2, Quadratic(1))), ("e2", Quadratic(1)))
        )
        w, _ = dual_certificate(P2, Phi, (2, 0))
        assert w == (1, 1)

    def test_wrong_point_fails_fitting(self):
        with pytest.raises(CriteriaViolated):
            verify_mconvex_optimality(P2, SQ, (0, 2), (3, 3))

    def test_top_set_not_tight(self):
        with pytest.raises(CriteriaViolated):
            verify_mconvex_optimality(P2, SQ, (1, 1), (3, 2))

    def test_square_sum_expression(self):
        w, _ = dual_certificate(P2, SQ, (1, 1))
        assert square_sum_dual_value(P2, w) == 2

    def test_infinite_slopes_are_notes_not_warnings(self):
        Phi = SeparableConvex(
            (("e1", Restricted(0, 2, Quadratic(1))), ("e2", Restricted(0, 0, Quadratic(1))))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, notes = dual_certificate(P2, Phi, (2, 0))
        assert w == (3, 0)
        assert notes == (
            "element e1: all right slopes infinite, substituted 3",
            "element e2: all right slopes infinite, substituted 0",
        )


class TestM2:
    def test_p2_p2b_square(self):
        rep = m2_minimize_and_split(P2, P2B, SQ, 3)
        assert rep.primal_value == 2 and rep.primal_witness == (1, 1)
        assert rep.equality

    def test_same_function(self):
        rep = m2_minimize_and_split(P2, P2, SQ, 3)
        assert rep.primal_value == 2 and rep.equality

    def test_linear(self):
        lin = linear_cost(P2.elements, (0, 1))
        rep = m2_minimize_and_split(P2, P2B, lin, 3)
        assert rep.primal_value == 0 and rep.primal_witness == (2, 0)
        assert rep.equality

    def test_empty_intersection(self):
        a = SupermodularFn(1, (0, 0))
        b = SupermodularFn(1, (0, 5))
        with pytest.raises(EmptyIntersection):
            m2_minimize_and_split(a, b, square_sum(("e1",)), 2)

    def test_weak_duality(self):
        common = [z for z in enumerate_bases(P2) if member(P2B, z)]
        primal = min(SQ.value(z) for z in common)
        for w1 in itertools.product(range(-2, 3), repeat=2):
            for w2 in itertools.product(range(-2, 3), repeat=2):
                conj = SQ.conjugate(tuple(a + b for a, b in zip(w1, w2)))
                if conj is PLUS_INF:
                    continue
                dual = (
                    lovasz_extension(P2, w1)
                    + lovasz_extension(P2B, w2)
                    - conj
                )
                assert dual <= primal


class TestM2MatchesNaiveOracle:
    """The split search gives the value and the first best (w1, w2) of the
    full grid scan in tests/helpers.py."""

    def test_random_pairs(self):
        rng = random.Random(21)
        checked = 0
        while checked < 24:
            n = rng.randint(2, 3)
            p1, p2_ = random_supermodular(rng, n, 3), random_supermodular(rng, n, 3)
            if not any(member(p2_, z) for z in enumerate_bases(p1)):
                continue
            Phi = random_search_objective(rng, p1.elements)
            w_bound = 3 if checked % 6 == 0 else 2
            rep = m2_minimize_and_split(p1, p2_, Phi, w_bound)
            assert (rep.dual_value, rep.dual_witness) == naive_m2_split(p1, p2_, Phi, w_bound)
            checked += 1


class TestWindows:
    def test_base_window_contains_bases(self):
        rng = random.Random(2)
        for _ in range(20):
            p = random_supermodular(rng, rng.randint(2, 4))
            win = base_window(p)
            for b in enumerate_bases(p):
                assert b in win
