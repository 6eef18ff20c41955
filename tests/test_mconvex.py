import collections
import heapq
import itertools
import random
import re
import types
import warnings

import pytest

from dctk import mconvex
from dctk.conjugate import (
    Quadratic,
    Restricted,
    SeparableConvex,
    Shifted,
    VShape,
    linear_cost,
    square_sum,
)
from dctk.errors import CriteriaViolated, DctkError, EmptyIntersection, Inconclusive
from dctk.extint import MINUS_INF, PLUS_INF, is_finite
from dctk.fixtures import p2, p2b, random_separable, random_supermodular
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
    strict_top_sets,
    to_system,
    tight_sets,
    verify_mconvex_optimality,
)
from dctk.polyhedron import EQ, GEQ, Window

from helpers import (
    base_window,
    large_slope_objective,
    naive_dual_certificate,
    naive_m2_split,
    naive_dependence,
    naive_member,
    naive_minimize_separable,
    naive_tight_sets,
    pair_scan_violation,
    random_search_objective,
    random_weight,
    square_sum_dual_value,
)

P2 = p2()
P2B = p2b()
SQ = square_sum(P2.elements)


class TestConstruction:
    def test_rejects_nonsupermodular(self):
        with pytest.raises(ValueError):
            SupermodularFn(2, (0, 2, 2, 2))  # 2+2 > 0+2

    @pytest.mark.parametrize("value", [PLUS_INF, 0.5, True])
    def test_rejects_non_integer_values(self, value):
        with pytest.raises(ValueError, match="integers and MINUS_INF only"):
            SupermodularFn(2, (0, value, 0, 2))

    def test_rejects_nonzero_empty(self):
        with pytest.raises(ValueError):
            SupermodularFn(1, (1, 0))

    def test_rejects_infinite_total(self):
        with pytest.raises(ValueError):
            SupermodularFn(1, (0, MINUS_INF))

    def test_json_round_trip(self):
        p = SupermodularFn(2, (0, MINUS_INF, 0, 2))
        assert SupermodularFn.from_json(p.to_json()) == p


# Finite on the ring family 0, {1}, {2,3}, S, where p{1} + p{2,3} >
# p(empty) + p(S); every square X, X+s, X+t, X+s+t of single elements
# meets a MINUS_INF mask, so the plain square test misses it.
COUNTEREXAMPLE = (0, 10, MINUS_INF, MINUS_INF, MINUS_INF, MINUS_INF, 10, 0)


def supermodular_table(rng, n):
    """A modular part plus nonnegative interactions on random pairs and
    triples: each term is supermodular, so the sum is."""
    m = [rng.randint(-4, 4) for _ in range(n)]
    groups = [(rng.sample(range(n), k), rng.randint(1, 3))
              for k in (2, 2, 2, 3) if k <= n and rng.random() < 0.7]
    return [sum(m[i] for i in range(n) if x >> i & 1)
            + sum(c for g, c in groups if all(x >> i & 1 for i in g))
            for x in range(1 << n)]


def ring_knockout(rng, n, table):
    """MINUS_INF off the ring family of random arcs i => j (X holds j
    whenever it holds i)."""
    arcs = [(i, j) for i, j in itertools.permutations(range(n), 2) if rng.random() < 0.2]
    return [v if all(not x >> i & 1 or x >> j & 1 for i, j in arcs) else MINUS_INF
            for x, v in enumerate(table)]


def random_table(rng, n, kind):
    table = supermodular_table(rng, n)
    if kind in (1, 4):
        table = ring_knockout(rng, n, table)
    elif kind == 2:
        # MINUS_INF on random proper masks: mostly not a ring family.
        table = [v if x in (0, len(table) - 1) or rng.random() > 0.2 else MINUS_INF
                 for x, v in enumerate(table)]
    if kind in (3, 4):
        finite = [x for x in range(1, len(table) - 1) if is_finite(table[x])]
        if finite:
            table[rng.choice(finite)] += rng.choice((-2, -1, 1, 2))
    return tuple(table)


def check_outcome(n, table):
    """The verdict of the constructor, which must be the pair scan's; a
    rejection must name two finite, non-nested masks whose meet or join
    is MINUS_INF or whose values break the inequality."""
    try:
        p = SupermodularFn(n, table)
    except ValueError as e:
        assert pair_scan_violation(table) is not None, table
        a, b = map(int, re.fullmatch(r"supermodularity fails at masks (\d+), (\d+)", str(e)).groups())
        assert a < b and a & b not in (a, b)
        assert is_finite(table[a]) and is_finite(table[b])
        closed = is_finite(table[a & b]) and is_finite(table[a | b])
        assert not closed or table[a] + table[b] > table[a & b] + table[a | b]
        return "lattice" if not closed else "inequality"
    assert pair_scan_violation(table) is None, table
    return p


class TestSupermodularCheck:
    """The local-square check on Birkhoff's ring family against the
    all-pairs definition."""

    def test_counterexample(self):
        with pytest.raises(ValueError, match="fails at masks 1, 6$"):
            SupermodularFn(3, COUNTEREXAMPLE)
        assert pair_scan_violation(COUNTEREXAMPLE) == (1, 6)

    def test_agrees_with_pair_scan(self):
        rng = random.Random(11)
        seen = collections.Counter()
        for i in range(900):
            n = 1 + i % 7
            out = check_outcome(n, random_table(rng, n, i % 5))
            seen[out if isinstance(out, str) else ("accept", i % 5)] += 1
        assert seen["lattice"] >= 50 and seen["inequality"] >= 50, seen
        assert all(seen["accept", kind] >= 30 for kind in range(5)), seen

    def test_checks_up_to_fourteen(self):
        n = mconvex.CHECKED_GROUND
        assert n == 14
        table = [0] * (1 << n)
        table[0b11] = -1  # p{1} + p{2} > p(empty) + p{1,2}
        with pytest.raises(ValueError, match="fails at masks 1, 2$"):
            SupermodularFn(n, tuple(table))

    def test_fifteen_is_unchecked_and_says_so(self):
        n = 15
        table = [0] * (1 << n)
        table[0b11] = -1
        p = SupermodularFn(n, tuple(table))  # no check above the limit
        Phi = square_sum(p.elements)
        z = minimize_separable(p, Phi)
        rep = verify_mconvex_optimality(p, Phi, z, dual_certificate(p, Phi, z)[0])
        assert rep.notes == ("supermodularity of p unchecked (n > 14)",)
        small = verify_mconvex_optimality(P2, SQ, (1, 1), (3, 3))
        assert small.notes == ()


class TestMaskScansMatchOracles:
    """tight_sets, member and dependence read one subset-sum table; the
    oracles sum each mask on its own."""

    def test_random_points(self):
        rng = random.Random(13)
        kinds = collections.Counter()
        for i in range(400):
            n = 1 + i % 7
            table = random_table(rng, n, i % 3 if i % 2 else 1)
            if pair_scan_violation(table) is not None:
                continue
            p = SupermodularFn(n, table)
            points = [tuple(rng.randint(-6, 6) for _ in range(n))]
            try:
                z = greedy_min(p, random_weight(rng, n))
            except DctkError:
                pass
            else:
                points.append(z)
                s, t = rng.randrange(n), rng.randrange(n)
                points.append(tuple(v - (j == s) + (j == t) for j, v in enumerate(z)))
            for z in points:
                is_base = naive_member(p, z)
                kinds[is_base] += 1
                assert member(p, z) == is_base
                assert tight_sets(p, z) == naive_tight_sets(p, z)
                assert dependence(p, z) == naive_dependence(p, z)
        assert kinds[True] >= 150 and kinds[False] >= 150, kinds


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


def common_pairs(seed, count):
    """rng and count random pairs (n = 2-3) whose base sets meet."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        p1, p2_ = random_supermodular(rng, n, 3), random_supermodular(rng, n, 3)
        if any(member(p2_, z) for z in enumerate_bases(p1)):
            out.append((p1, p2_))
    return rng, out


def check_split(p1, p2_, Phi, w_bound):
    rep = m2_minimize_and_split(p1, p2_, Phi, w_bound)
    assert (rep.dual_value, rep.dual_witness) == naive_m2_split(p1, p2_, Phi, w_bound)
    return rep


class TestM2MatchesNaiveOracle:
    """The split search gives the value and the first best (w1, w2) of the
    full grid scan in tests/helpers.py, also on the cases its gap pruning
    could get wrong."""

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

    def test_objective_infinite_at_every_common_base(self):
        # Phi is finite only where its first coordinate is 50, beyond every
        # base: the primal is +inf, the dual finite.
        _, pairs = common_pairs(22, 8)
        for p1, p2_ in pairs:
            parts = ((p1.elements[0], Restricted(50, 50, Quadratic(1))),)
            Phi = SeparableConvex(parts + tuple((e, Quadratic(1)) for e in p1.elements[1:]))
            rep = check_split(p1, p2_, Phi, 2)
            assert rep.primal_value is PLUS_INF and is_finite(rep.dual_value)

    def test_gap_inside_the_bound(self):
        # Weight bounds 0 and 1 cut the best split off.
        _, pairs = common_pairs(23, 8)
        gaps = 0
        for p1, p2_ in pairs:
            for w_bound in (0, 1):
                rep = check_split(p1, p2_, square_sum(p1.elements, (3,) * p1.n), w_bound)
                gaps += rep.dual_value < rep.primal_value
        assert gaps >= 4

    def test_ties(self):
        # A linear Phi has a finite conjugate only at its cost vector c, so
        # every split summing to c competes, and several attain the best.
        rng, pairs = common_pairs(24, 8)
        for p1, p2_ in pairs:
            c = tuple(rng.randint(-2, 2) for _ in range(p1.n))
            rep = check_split(p1, p2_, linear_cost(p1.elements, c), 2)
            assert is_finite(rep.dual_value)
            grid = itertools.product(range(-2, 3), repeat=p1.n)
            best = [w1 for w1 in grid if all(abs(a - b) <= 2 for a, b in zip(c, w1))
                    and lovasz_extension(p1, w1) + lovasz_extension(p2_, tuple(a - b for a, b in zip(c, w1)))
                    == rep.dual_value]
            assert len(best) >= 2

    def test_slopes_up_to_a_million(self):
        rng, pairs = common_pairs(25, 10)
        for p1, p2_ in pairs:
            check_split(p1, p2_, large_slope_objective(rng, p1.elements), 2)


class TestSplitCertificateMatchesNaiveOracle:
    """Where a split reaches Phi at the primal witness it is read off the
    exchange and fitting rows, elsewhere the grid is scanned; either way
    value and witness are the full grid scan's, and the corpus reaches
    both branches (one that evaluates no Lovasz extension is the
    certificate's)."""

    def test_random_pairs(self, monkeypatch):
        scans = []
        monkeypatch.setattr(mconvex, "lovasz_extension",
                            lambda p, w: scans.append(p) or lovasz_extension(p, w))
        rng, pairs = common_pairs(26, 12)
        branches = collections.Counter()
        for i, (p1, p2_) in enumerate(pairs):
            objectives = (square_sum(p1.elements, [rng.randint(1, 3) for _ in range(p1.n)]),
                          random_search_objective(rng, p1.elements), large_slope_objective(rng, p1.elements))
            for Phi in objectives:
                for w_bound in (0, 1, 2) if p1.n == 2 or i % 3 == 0 else (0, 1):
                    before = len(scans)
                    rep = m2_minimize_and_split(p1, p2_, Phi, w_bound)
                    branches["scan" if len(scans) > before else "certificate"] += 1
                    assert (rep.dual_value, rep.dual_witness) == naive_m2_split(p1, p2_, Phi, w_bound)
        assert branches["certificate"] >= 10 and branches["scan"] >= 10, branches


@pytest.fixture
def split_work(monkeypatch):
    """Counts of the split scan's heap pops, Lovasz extensions and
    conjugate evaluations."""
    work = collections.Counter()

    def counting(name, fn):
        def count(*args):
            work[name] += 1
            return fn(*args)

        return count

    monkeypatch.setattr(mconvex, "heapq", types.SimpleNamespace(
        heappush=heapq.heappush, heappop=counting("pops", heapq.heappop)))
    monkeypatch.setattr(mconvex, "lovasz_extension", counting("lovasz", mconvex.lovasz_extension))
    monkeypatch.setattr(mconvex, "conjugate_eval", counting("conj", mconvex.conjugate_eval))
    return work


# Two base sets on three elements with four common bases.
P1_N3, P2_N3 = (SupermodularFn(3, t) for t in ((0, -1, 1, 1, -1, -1, 0, 1), (0, -1, 1, 1, -2, -2, 0, 1)))


def test_split_search_evaluates_few_sums(split_work):
    # n = 3, weight bound 3, and an objective whose slopes at the optimum
    # no split within the bound fits: of the 13**3 sums w1 + w2 the scan
    # takes few off its heap before every run is cut off.
    Phi = SeparableConvex((("e1", Shifted(4, Quadratic(2))), ("e2", VShape(1, -4, 2)), ("e3", Quadratic(4))))
    rep = check_split(P1_N3, P2_N3, Phi, 3)
    assert (rep.dual_value, rep.primal_value) == (18, 22)
    assert 0 < split_work["pops"] * 20 <= 13**3


def test_split_certificate_evaluates_nothing(split_work):
    # A split worth Phi at the primal witness is read off the exchange
    # and fitting rows: no heap, no Lovasz extension, no conjugate.
    Phi = SeparableConvex((("e1", Quadratic(1)), ("e2", VShape(1, -2, 1)), ("e3", Quadratic(2))))
    rep = m2_minimize_and_split(P1_N3, P2_N3, Phi, 3)
    assert split_work == {}
    assert rep.dual_value == rep.primal_value == 0
    assert (rep.dual_value, rep.dual_witness) == naive_m2_split(P1_N3, P2_N3, Phi, 3)
    # p2, p2b and 5 times the square sum: the best split within bound 1
    # is worth 4, below the primal 10, so the scan runs.
    rep = m2_minimize_and_split(P2, P2B, square_sum(P2.elements, (5, 5)), 1)
    assert (rep.dual_value, rep.primal_value) == (4, 10)
    assert split_work["pops"] > 0


def test_split_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="w_bound must be >= 0"):
        m2_minimize_and_split(P2, P2B, SQ, -1)


class TestWindows:
    def test_base_window_contains_bases(self):
        rng = random.Random(2)
        for _ in range(20):
            p = random_supermodular(rng, rng.randint(2, 4))
            win = base_window(p)
            for b in enumerate_bases(p):
                assert b in win
