import collections
import itertools
import random
import warnings

import pytest

from dctk.conjugate import Quadratic, Restricted, SeparableConvex, Shifted, linear_cost, square_sum
from dctk.errors import CriteriaViolated, DctkError, EmptyIntersection, Inconclusive
from dctk.extint import MINUS_INF, PLUS_INF, is_finite
from dctk.fixtures import (
    base_window,
    p2,
    p2b,
    random_separable,
    random_supermodular,
    random_weight,
)
from dctk.mconvex import (
    SupermodularFn,
    base_bounds,
    complement,
    dependence,
    dual_certificate,
    enumerate_bases,
    greedy_min,
    lovasz_extension,
    m2_minimize_and_split,
    member,
    minimize_separable,
    square_sum_dual_value,
    strict_top_sets,
    to_system,
    tight_sets,
    verify_mconvex_optimality,
)
from dctk.polyhedron import EQ, GEQ, Window

from helpers import (
    naive_dual_certificate,
    naive_m2_split,
    naive_minimize_separable,
    random_search_objective,
)

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
        for _ in range(40):
            n = rng.randint(2, 4)
            p = random_supermodular(rng, n)
            Phi = random_separable(rng, p.elements)
            z = minimize_separable(p, Phi)
            brute = min(Phi.value(b) for b in enumerate_bases(p))
            assert Phi.value(z) == brute


class TestTightSets:
    def test_smallest(self):
        assert dependence(P2, (1, 1)) == [0b11, 0b11]
        assert dependence(P2, (0, 2)) == [0b01, 0b11]
        assert dependence(P2, (2, 0)) == [0b11, 0b10]

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
        # z - chi_s + chi_t stays a base iff t lies in dep[s], the smallest
        # z-tight set holding s.
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 4)
            p = random_supermodular(rng, n)
            z = greedy_min(p, random_weight(rng, n))
            dep = dependence(p, z)
            for s in range(n):
                for t in range(n):
                    if s == t:
                        continue
                    z2 = list(z)
                    z2[s] -= 1
                    z2[t] += 1
                    assert member(p, z2) == bool(dep[s] >> t & 1)


def order_ideal_supermodular(rng, n):
    """random_supermodular with MINUS_INF off the ideals of a random
    relation: X keeps its value iff it holds i whenever it holds j, for
    each drawn pair (i, j).  Ideals form a lattice, so p stays
    supermodular; a pair with i > j puts MINUS_INF on a greedy prefix."""
    p = random_supermodular(rng, n)
    pairs = [(i, j) for i, j in itertools.permutations(range(n), 2)
             if rng.random() < (0.25 if i < j else 0.02)]
    return SupermodularFn(n, tuple(
        v if all(m >> i & 1 or not m >> j & 1 for i, j in pairs) else MINUS_INF
        for m, v in enumerate(p.table)))


def outcome(f, *args):
    """f(*args), or the class and message of the library error it raises."""
    try:
        return f(*args)
    except DctkError as e:
        return type(e), str(e)


class TestEnumerateBases:
    def test_matches_naive_oracle(self):
        """p with MINUS_INF entries, n = 1-4: the bases are the members of
        the base_bounds box, or the bounds are infinite and the
        enumeration is inconclusive."""
        rng = random.Random(47)
        outcomes = collections.Counter()
        for _ in range(120):
            p = order_ideal_supermodular(rng, rng.randint(1, 4))
            los, his = base_bounds(p)
            if not all(map(is_finite, los + his)):
                with pytest.raises(Inconclusive, match="unbounded component"):
                    enumerate_bases(p)
                outcomes["unbounded"] += 1
                continue
            expected = [z for z in Window(los, his).points() if member(p, z)]
            assert enumerate_bases(p) == expected
            outcomes[min(len(expected), 2)] += 1
        assert min(outcomes.values()) >= 10 and len(outcomes) == 3, outcomes


class TestDescentMatchesNaiveOracle:
    """The dependence-based descent and certificate give the point, the
    error and the (w, notes) of the move-and-test oracles in helpers.py."""

    @staticmethod
    def restrict_near(rng, p, Phi):
        """Clip some parts of Phi to a few points around the greedy start,
        so that slopes there are infinite."""
        try:
            z0 = greedy_min(p, (0,) * p.n)
        except DctkError:
            return Phi
        return SeparableConvex(tuple(
            (e, Restricted(k - rng.randint(0, 2), k + rng.randint(0, 2), phi))
            if rng.random() < 0.4 else (e, phi)
            for (e, phi), k in zip(Phi.parts, z0)))

    def check(self, rng, p, Phi):
        z = outcome(minimize_separable, p, Phi)
        assert z == outcome(naive_minimize_separable, p, Phi)
        points = [z] if isinstance(z[0], int) else []
        w = outcome(greedy_min, p, random_weight(rng, p.n))
        if isinstance(w[0], int):
            points.append(w)
        for x in points:
            assert dual_certificate(p, Phi, x) == naive_dual_certificate(p, Phi, x)
        return len(points)

    def test_random_instances(self):
        rng = random.Random(47)
        certified = 0
        for i in range(180):
            n = 2 + i % 6
            if i % 3 == 0:
                p = order_ideal_supermodular(rng, n)
                Phi = random_separable(rng, p.elements)
            else:
                p = random_supermodular(rng, n)
                Phi = (random_search_objective if i % 3 == 1 else random_separable)(rng, p.elements)
            if rng.random() < 0.6:
                Phi = self.restrict_near(rng, p, Phi)
            certified += self.check(rng, p, Phi)
        assert certified > 200

    def test_lines(self):
        # z1 + z2 = 0, unbounded both ways, with z >= -5, z >= -1 and
        # z >= -30000 (beyond the budget of 21000 unit steps).
        rng = random.Random(3)
        sq = square_sum(("e1", "e2"))
        clipped = SeparableConvex((("e1", Restricted(0, 0, Quadratic(1))), ("e2", Quadratic(1))))
        for low in (MINUS_INF, -5, -1, -30000):
            p = SupermodularFn(2, (0, low, low, 0))
            for Phi in (sq, clipped):
                self.check(rng, p, Phi)


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
