import collections
import itertools
import random

import pytest
from fractions import Fraction

from dctk import polyhedron, ratlin
from dctk.conjugate import Quadratic, Restricted, SeparableConvex, linear_cost, square_sum
from dctk.errors import CriteriaViolated, NotPrimalFeasible, NotSignFeasible
from dctk.extint import MINUS_INF, PLUS_INF
from dctk.fixtures import (
    p2_system,
    random_supermodular,
    s3_system,
)
from dctk.mconvex import base_bounds, enumerate_bases, to_system
from dctk.netflow import Digraph, square_sum_instance
from dctk.polyhedron import (
    EQ,
    GEQ,
    DualVector,
    LinearSystem,
    Row,
    Window,
    check_compatibility,
    dilation,
    dual_search_bruteforce,
    enumerate_integer_points,
    feasibility_condition,
    find_weight_in_box,
    lp_min,
    minimize_bruteforce,
    _basic_data,
    _bound_point,
    mu_form_dual_search,
    probe_box_integer,
    verify_certificate,
    vertex_hull_window,
)

from helpers import (
    embedding_system,
    frac_basic_data,
    frac_det,
    frac_lp_min,
    large_coefficient_system,
    large_slope_objective,
    naive_dual_search,
    naive_integer_points,
    naive_mu_form,
    naive_probe_box_integer,
    random_flow_embedding,
    random_integer_system,
    random_search_objective,
    run_under_memory_limit,
)


P2SYS = p2_system()
SQ = square_sum(P2SYS.elements)


class TestRow:
    @pytest.mark.parametrize("coeffs, rhs", [
        ((1.5, 0), 0),
        ((1, 0), 2.0),
        ((True, 0), 0),
        ((1, 0), False),
        ((Fraction(1), 0), 0),
        ((1, "1"), 0),
    ])
    def test_rejects_non_integers(self, coeffs, rhs):
        with pytest.raises(ValueError, match="integers"):
            Row(coeffs, rhs, GEQ)

    def test_accepts_integers(self):
        assert Row((10**12, -1), -(10**12), EQ).rhs == -(10**12)


class TestEnumerate:
    def test_p2(self):
        pts = list(enumerate_integer_points(P2SYS, Window.uniform(2, 0, 2)))
        assert pts == [(0, 2), (1, 1), (2, 0)]

    def test_empty(self):
        sys = LinearSystem(("x",), (Row((1,), 1, GEQ), Row((-1,), 0, GEQ)))
        assert list(enumerate_integer_points(sys, Window.uniform(1, -3, 3))) == []

    def test_single_equality(self):
        sys = LinearSystem(("x",), (Row((1,), 0, EQ),))
        assert list(enumerate_integer_points(sys, Window.uniform(1, -3, 3))) == [(0,)]

    def test_is_lazy(self):
        # The first of the points of x1 + x2 + x3 = 2 comes before the
        # scan meets the other four million heads of the window.
        sys = LinearSystem(("a", "b", "c"), (Row((1, 1, 1), 2, EQ),))
        assert next(enumerate_integer_points(sys, Window.uniform(3, 0, 2000))) == (0, 0, 2)

    def test_drops_prefixes_no_completion_meets(self):
        # Each coordinate is pinned as soon as it is fixed: the scan never
        # steps through the 10**9 values of a coordinate.
        sys = LinearSystem(("a", "b", "c"), (Row((1, 1, 1), 3 * 10**9, EQ),))
        got = list(enumerate_integer_points(sys, Window.uniform(3, 0, 10**9)))
        assert got == [(10**9,) * 3]

    @pytest.mark.parametrize("c, rhs, kind, expected", [
        (2, 3, GEQ, [2, 3]),            # t >= ceil(3/2)
        (-2, -3, GEQ, [-3, -2, -1, 0, 1]),  # t <= floor(3/2)
        (-2, 3, GEQ, [-3, -2]),         # t <= floor(-3/2)
        (2, 4, EQ, [2]),
        (2, 3, EQ, []),                 # 2 does not divide 3
        (-3, 6, EQ, [-2]),
        (-3, 5, EQ, []),
        (0, 1, GEQ, []),
        (0, -1, GEQ, [-3, -2, -1, 0, 1, 2, 3]),
        (0, 0, EQ, [-3, -2, -1, 0, 1, 2, 3]),
        (0, -1, EQ, []),
        (0, 1, EQ, []),
    ])
    def test_clip_of_the_last_coordinate(self, c, rhs, kind, expected):
        sys = LinearSystem(("x",), (Row((c,), rhs, kind),))
        got = list(enumerate_integer_points(sys, Window.uniform(1, -3, 3)))
        assert got == [(t,) for t in expected]

    def test_matches_naive_oracle(self):
        """Random systems, n = 1-4, coefficients -3..3, in small windows
        that often miss the system."""
        rng = random.Random(41)
        seen = collections.Counter()
        for _ in range(400):
            n = rng.randint(1, 4)
            rows = tuple(
                Row(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-5, 5),
                    rng.choice((GEQ, GEQ, EQ)))
                for _ in range(rng.randint(1, n + 2)))
            sys = LinearSystem(tuple(f"x{i}" for i in range(n)), rows)
            lo = tuple(rng.randint(-4, 2) for _ in range(n))
            win = Window(lo, tuple(v + rng.randint(0, 3) for v in lo))
            got = list(enumerate_integer_points(sys, win))
            assert got == naive_integer_points(sys, win)
            seen["empty" if not got else "points"] += 1
            for r in rows:
                c = r.coeffs[-1]
                seen["zero" if c == 0 else "negative" if c < 0 else "positive"] += 1
                seen["equality, |c| >= 2"] += r.kind == EQ and abs(c) >= 2
        assert min(seen.values()) >= 50, seen

    def test_base_and_embedding_systems_match_naive_oracle(self):
        rng = random.Random(43)
        for _ in range(40):
            p = random_supermodular(rng, rng.randint(1, 4), value_bound=3)
            sys, box = to_system(p), Window(*base_bounds(p))
            expected = naive_integer_points(sys, box)
            assert list(enumerate_integer_points(sys, box)) == expected == enumerate_bases(p)
        for _ in range(40):
            sys = random_flow_embedding(rng)
            win = Window.uniform(sys.n, -1, 3)
            assert list(enumerate_integer_points(sys, win)) == naive_integer_points(sys, win)


class TestLpMin:
    def test_p2_weighted(self):
        val, arg = lp_min(P2SYS, (3, 1))
        assert val == 2 and arg == (0, 2)

    def test_p2_constant(self):
        val, _ = lp_min(P2SYS, (1, 1))
        assert val == 2

    def test_unbounded(self):
        sys = LinearSystem(("x",), (Row((1,), 0, GEQ),))
        val, _ = lp_min(sys, (-1,))
        assert val is MINUS_INF

    def test_infeasible(self):
        sys = LinearSystem(("x",), (Row((1,), 1, GEQ), Row((-1,), 0, GEQ)))
        val, _ = lp_min(sys, (1,))
        assert val is PLUS_INF

    def test_lineality(self):
        # x1 - x2 free along (1,1): any weight not orthogonal is unbounded.
        sys = LinearSystem(("a", "b"), (Row((1, -1), 0, EQ),))
        assert lp_min(sys, (1, 0))[0] is MINUS_INF
        assert lp_min(sys, (1, -1))[0] == 0

    def test_simplex_in_20_dimensions(self):
        # 21 rows in 20 variables: 21 vertex bases and 210 edge bases, each
        # eliminated once.  A table of every minor of the rows would hold
        # some 8e7 entries here and die of MemoryError under the cap.
        p = run_under_memory_limit(
            "from dctk.polyhedron import EQ, GEQ, LinearSystem, Row, lp_min, tangent_cone\n"
            "n = 20\n"
            "rows = [Row(tuple(int(i == j) for j in range(n)), 0, GEQ) for i in range(n)]\n"
            "sys = LinearSystem([f'x{i}' for i in range(n)], rows + [Row((1,) * n, 3, EQ)])\n"
            "val, arg = lp_min(sys, range(1, n + 1))\n"
            "cone = tangent_cone(sys, (3,) + (0,) * (n - 1))\n"
            "print(val, *arg, len(cone.rays))"
        )
        assert (p.returncode, p.stdout) == (0, "3 3" + " 0" * 19 + " 19\n"), p.stderr

    def test_below_integer_points(self):
        for w in itertools.product(range(-3, 4), repeat=2):
            val, _ = lp_min(P2SYS, w)
            for z in enumerate_integer_points(P2SYS, Window.uniform(2, 0, 2)):
                assert val <= w[0] * z[0] + w[1] * z[1]


class TestCompatibility:
    def test_accepts(self):
        assert check_compatibility(P2SYS, (1, 1), DualVector((0, 0, 3)), SQ)

    def test_rejects_high(self):
        assert not check_compatibility(P2SYS, (1, 1), DualVector((0, 0, 4)), SQ)

    def test_rejects_zero(self):
        assert not check_compatibility(P2SYS, (0, 2), DualVector((0, 0, 0)), SQ)


class TestVerifyCertificate:
    def test_success(self):
        rep = verify_certificate(P2SYS, (1, 1), DualVector((0, 0, 3)), SQ)
        assert rep.equality
        assert rep.primal_value == rep.dual_value == 2
        assert rep.support_size == 1

    def test_compat_violation(self):
        with pytest.raises(CriteriaViolated):
            verify_certificate(P2SYS, (1, 1), DualVector((1, 0, 3)), SQ)

    def test_wrong_point(self):
        with pytest.raises(CriteriaViolated):
            verify_certificate(P2SYS, (0, 2), DualVector((0, 0, 3)), SQ)

    def test_primal_infeasible(self):
        with pytest.raises(NotPrimalFeasible):
            verify_certificate(P2SYS, (0, 1), DualVector((0, 0, 0)), SQ)

    def test_sign_infeasible(self):
        with pytest.raises(NotSignFeasible):
            verify_certificate(P2SYS, (1, 1), DualVector((-1, 0, 3)), SQ)


class TestMinMaxSearches:
    def test_primal(self):
        rep = minimize_bruteforce(P2SYS, SQ, Window.uniform(2, 0, 2))
        assert rep.primal_value == 2 and rep.primal_witness == (1, 1)

    def test_primal_linear(self):
        rep = minimize_bruteforce(
            P2SYS, linear_cost(P2SYS.elements, (3, 1)), Window.uniform(2, 0, 2)
        )
        assert rep.primal_value == 2 and rep.primal_witness == (0, 2)

    def test_primal_empty(self):
        sys = LinearSystem(("x",), (Row((1,), 1, GEQ), Row((-1,), 0, GEQ)))
        rep = minimize_bruteforce(sys, square_sum(("x",)), Window.uniform(1, -2, 2))
        assert rep.primal_value is PLUS_INF

    def test_dual(self):
        rep = dual_search_bruteforce(P2SYS, SQ, 4)
        assert rep.dual_value == 2
        assert rep.bounds_used["support_within_2n"]

    def test_dual_linear(self):
        lin = linear_cost(P2SYS.elements, (3, 1))
        rep = dual_search_bruteforce(P2SYS, lin, 4)
        assert rep.dual_value == 2
        assert rep.dual_witness.times_q(P2SYS) == (3, 1)

    def test_dual_zero_bound(self):
        rep = dual_search_bruteforce(P2SYS, SQ, 0)
        assert rep.dual_value == 0  # only y = 0: -conj(Phi)(0) = 0

    def test_dual_rejects_a_negative_bound(self):
        with pytest.raises(ValueError, match="y_bound must be >= 0"):
            dual_search_bruteforce(P2SYS, SQ, -1)

    def test_dual_support_from_a_later_tie(self):
        # Three copies of x = 1: y.p - conj(yQ) = s - floor(s^2/4) for
        # s = y1 + y2 + y3 is 1 at s = 1, 2, 3.  The lex-first best y has
        # support 3 > 2n; a later tie, (0, 0, 1), has support 1.
        sys = LinearSystem(("x",), (Row((1,), 1, EQ),) * 3)
        rep = dual_search_bruteforce(sys, square_sum(("x",)), 1)
        assert rep.dual_value == 1 and rep.dual_witness.y == (-1, 1, 1)
        assert rep.support_size == 3
        assert rep.bounds_used["support_within_2n"] is True

    def test_mu_form(self):
        rep = mu_form_dual_search(P2SYS, SQ, Window.uniform(2, 0, 4))
        assert rep.dual_value == 2 and rep.dual_witness == (1, 1)

    def test_mu_form_pinned(self):
        rep = mu_form_dual_search(P2SYS, SQ, Window(lo=(3, 3), hi=(3, 3)))
        assert rep.dual_value == 2

    def test_mu_form_weak(self):
        rep = mu_form_dual_search(P2SYS, SQ, Window(lo=(0, 0), hi=(0, 0)))
        assert rep.dual_value == 0

    def test_weak_duality_exhaustive(self):
        pts = list(enumerate_integer_points(P2SYS, Window.uniform(2, 0, 3)))
        for yv in itertools.product(range(0, 4), range(0, 4), range(-3, 4)):
            y = DualVector(yv)
            conj = SQ.conjugate(y.times_q(P2SYS))
            if conj is PLUS_INF:
                continue
            dual = y.times_p(P2SYS) - conj
            for z in pts:
                assert SQ.value(z) >= dual


class TestFeasibility:
    def test_infinite_u(self):
        ok, _ = feasibility_condition(
            P2SYS, (1, 1), (0, 0), (PLUS_INF, PLUS_INF)
        )
        assert ok

    def test_violating_pair(self):
        ok, pair = feasibility_condition(P2SYS, (1, 1), (2, 0), (3, 1))
        assert not ok
        assert pair == ((0,), (1,))

    def test_one_sided(self):
        ok, _ = feasibility_condition(P2SYS, (2, 0), (0, 5), (1, 9))
        assert ok

    def test_find_weight(self):
        w = find_weight_in_box(
            P2SYS, (1, 1), (0, 0), (5, 5), Window.uniform(2, 0, 5)
        )
        assert w == (0, 0)

    def test_find_weight_none(self):
        w = find_weight_in_box(
            P2SYS, (1, 1), (2, 0), (3, 1), Window.uniform(2, -6, 6)
        )
        assert w is None

    def test_find_weight_pinned(self):
        w = find_weight_in_box(
            P2SYS, (2, 0), (0, 0), (0, 0), Window.uniform(2, -2, 2)
        )
        assert w == (0, 0)


class TestDilation:
    def test_doubles_rhs(self):
        d = dilation(P2SYS, 2)
        assert [r.rhs for r in d.rows] == [0, 0, 4]

    def test_identity(self):
        assert dilation(P2SYS, 1) == P2SYS

    def test_triple(self):
        assert dilation(P2SYS, 3).rows[2].rhs == 6


class TestProbe:
    def test_p2_box_integer(self):
        ok, _ = probe_box_integer(P2SYS, Window.uniform(2, 0, 2))
        assert ok

    def test_p2_dilated(self):
        ok, _ = probe_box_integer(dilation(P2SYS, 2), Window.uniform(2, 0, 4))
        assert ok

    def test_s3_dilation_has_fractional_vertex(self):
        # Doubling the right-hand sides and cutting with the unit cube
        # exposes the fractional vertex (1,1,1,1/2,1/2,1/2).
        ok, witness = probe_box_integer(
            dilation(s3_system(), 2), Window.uniform(6, 0, 1)
        )
        assert not ok
        assert any(Fraction(v).denominator != 1 for v in witness)

    def test_s3_itself_is_integral(self):
        ok, _ = probe_box_integer(s3_system(), Window.uniform(6, 0, 1))
        assert ok

    def test_witness_from_fixed_coordinate(self):
        # 2*x1 + x2 = 0 with x2 fixed: the right-hand side alone gives an
        # integral x1, the fixed coordinate's column does not.
        sys = LinearSystem(("a", "b"), (Row((2, 1), 0, EQ),))
        ok, witness = probe_box_integer(sys, Window.uniform(2, -2, 2))
        assert not ok
        assert witness == (Fraction(1, 2), Fraction(-1))

    def test_large_window_scans_values_not_ranges(self):
        # The fixed coordinates' values come from the integer-point scan,
        # which never copies the 10**9 + 1 values of a window range.
        p = run_under_memory_limit(
            "from dctk.fixtures import s3_system\n"
            "from dctk.polyhedron import Window, dilation, probe_box_integer\n"
            "ok, x = probe_box_integer(dilation(s3_system(), 2), Window.uniform(6, 0, 10**9))\n"
            "print(ok, *x)"
        )
        assert (p.returncode, p.stdout) == (0, "False 1 1 1 1/2 1/2 1/2\n"), p.stderr


def _bases_with_large_minors(sys):
    """The probe's bases (fixed coordinates, rows) whose minor has
    |det| >= 2, by Fraction determinants."""
    n, rows = sys.n, sys.rows
    count = 0
    for k in range(n + 1):
        for coords in itertools.combinations(range(n), k):
            free = [j for j in range(n) if j not in coords]
            for ridxs in itertools.combinations(range(len(rows)), n - k):
                count += abs(frac_det([[rows[i].coeffs[j] for j in free] for i in ridxs])) >= 2
    return count


class TestProbeWork:
    """Only a basis whose minor has |det| >= 2 is eliminated."""

    @staticmethod
    def solves(monkeypatch, sys, win):
        calls = []
        solve = ratlin.solve_int
        monkeypatch.setattr(ratlin, "solve_int", lambda a, b: calls.append(a) or solve(a, b))
        assert probe_box_integer(sys, win) == (True, None)
        monkeypatch.undo()
        return len(calls)

    def test_once_per_basis_with_a_large_minor(self, monkeypatch):
        rng = random.Random(17)
        total = 0
        for _ in range(6):
            base = to_system(random_supermodular(rng, 3, value_bound=2))
            expected = _bases_with_large_minors(base)
            for k in (1, 2, 3):
                d = dilation(base, k)
                assert self.solves(monkeypatch, d, Window.uniform(3, -3 * k, 3 * k)) == expected
            total += expected
        assert total >= 6

    def test_none_on_a_totally_unimodular_system(self, monkeypatch):
        # Incidence rows and the identity: every minor is 0 or +-1.
        rng = random.Random(18)
        for _ in range(10):
            emb = random_flow_embedding(rng)
            assert _bases_with_large_minors(emb) == 0
            for k in (1, 2, 3):
                assert self.solves(monkeypatch, dilation(emb, k), Window.uniform(emb.n, -1, 3 * k)) == 0


class TestProbeMatchesNaiveOracle:
    """(ok, witness) equals that of the per-tuple Fraction probe in
    tests/helpers.py, which scans in the same order."""

    @staticmethod
    def check(sys, win):
        assert probe_box_integer(sys, win) == naive_probe_box_integer(sys, win)

    def test_base_systems_and_dilations(self):
        rng = random.Random(5)
        for _ in range(12):
            base = to_system(random_supermodular(rng, rng.randint(2, 3), value_bound=2))
            for k in (1, 2, 3):
                d = dilation(base, k)
                self.check(d, vertex_hull_window(d))

    def test_flow_embeddings_and_dilations(self):
        rng = random.Random(6)
        for _ in range(10):
            emb = random_flow_embedding(rng)
            for k in (1, 2, 3):
                d = dilation(emb, k)
                self.check(d, vertex_hull_window(d, pad=1))

    def test_integer_systems_with_witnesses(self):
        rng = random.Random(7)
        witnesses = 0
        for _ in range(30):
            sys = random_integer_system(rng)
            for k in (1, 2, 3):
                d = dilation(sys, k)
                win = Window.uniform(sys.n, -2, 2)
                witnesses += not probe_box_integer(d, win)[0]
                self.check(d, win)
        assert witnesses >= 20

    def test_large_coefficients(self):
        rng = random.Random(8)
        verdicts = collections.Counter()
        for _ in range(30):
            sys = large_coefficient_system(rng)
            for k in (1, 2, 3):
                d = dilation(sys, k)
                win = Window.uniform(sys.n, -2, 2)
                verdicts[probe_box_integer(d, win)[0]] += 1
                self.check(d, win)
        assert min(verdicts.values()) >= 15, verdicts

    def test_s3_and_its_dilation(self):
        self.check(s3_system(), Window.uniform(6, 0, 1))
        self.check(dilation(s3_system(), 2), Window.uniform(6, 0, 1))


def _oracle_systems(seed):
    """Random base systems (n = 2-3), flow embeddings and 30 random
    integer systems."""
    rng = random.Random(seed)
    out = [to_system(random_supermodular(rng, rng.randint(2, 3), value_bound=3)) for _ in range(10)]
    out += [random_flow_embedding(rng) for _ in range(10)]
    out += [random_integer_system(rng) for _ in range(30)]
    return rng, out


class TestSearchesMatchNaiveOracles:
    """The integer dual search, the mu-form search, _basic_data and lp_min
    give what the plain scans of tests/helpers.py give: the same values
    of the same types, the same witnesses, support sizes and bounds; also
    on the cases the gap pruning of the two searches could get wrong."""

    def test_dual_search(self):
        rng, systems = _oracle_systems(11)
        found = 0
        for sys in systems:
            # the largest bound whose y box has at most 1500 vectors
            for y_bound in (3, 2, 1):
                if (y_bound + 1) ** len(sys.rows) <= 1500:
                    break
            for _ in range(2):
                Phi = random_search_objective(rng, sys.elements)
                rep = dual_search_bruteforce(sys, Phi, y_bound)
                got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
                assert got == naive_dual_search(sys, Phi, y_bound)
                found += rep.dual_witness is not None
        assert found >= 60

    def test_mu_form(self):
        rng, systems = _oracle_systems(12)
        for sys in systems:
            Phi = random_search_objective(rng, sys.elements)
            win = Window.uniform(sys.n, -2, 2)
            rep = mu_form_dual_search(sys, Phi, win)
            value, w = naive_mu_form(sys, Phi, win)
            assert (rep.dual_value, rep.dual_witness) == (value, w)
            assert type(rep.dual_value) is type(value)

    def test_basic_data_and_lp_min(self):
        _, systems = _oracle_systems(13)
        types = set()
        for sys in systems + [s3_system(), dilation(s3_system(), 2)]:
            basic = frac_basic_data(sys)
            assert _basic_data(sys) == basic
            r = 2 if sys.n <= 3 else 1
            for w in Window.uniform(sys.n, -r, r).points():
                got, expected = lp_min(sys, w), frac_lp_min(basic, w)
                assert got == expected
                assert type(got[0]) is type(expected[0])
                types.add(type(got[0]))
        assert {int, Fraction} <= types

    def test_lp_min_value_types(self):
        half = LinearSystem(("x",), (Row((2,), 1, GEQ),))
        assert lp_min(half, (1,)) == (Fraction(1, 2), (Fraction(1, 2),))
        value, _ = lp_min(half, (2,))
        assert value == 1 and type(value) is int
        assert lp_min(half, (-1,)) == (MINUS_INF, None)

    @staticmethod
    def check(sys, Phi, y_bound, r=2):
        rep = dual_search_bruteforce(sys, Phi, y_bound)
        got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
        assert got == naive_dual_search(sys, Phi, y_bound)
        win = Window.uniform(sys.n, -r, r)
        mu = mu_form_dual_search(sys, Phi, win)
        assert (mu.dual_value, mu.dual_witness) == naive_mu_form(sys, Phi, win)
        return rep

    def test_no_bound_point(self):
        # No integral vertex (the first two), or Phi = +inf at every
        # integral vertex (P2 pinned to (1, 1)): nothing is pruned by slack.
        half = LinearSystem(("x",), (Row((2,), 1, GEQ), Row((-2,), -3, GEQ)))
        frac = LinearSystem(("a", "b"), (Row((2, 0), 1, GEQ), Row((0, 2), 1, GEQ),
                                         Row((-2, -2), -5, GEQ)))
        pinned = SeparableConvex(tuple((e, Restricted(1, 1, Quadratic(1))) for e in P2SYS.elements))
        for sys, Phi in ((half, square_sum(half.elements)), (frac, square_sum(frac.elements)),
                         (P2SYS, pinned)):
            assert _bound_point(sys, Phi) is None
            for y_bound in (0, 1, 3):
                self.check(sys, Phi, y_bound)

    def test_gap_inside_the_bound(self):
        # The best dual value stays below Phi at the bound point: with y
        # bound 1 on s3 (3 is its primal minimum), and on P2 (whose bound
        # point (0, 2) has Phi = 4, above the minimum 2).
        s3 = s3_system()
        Phi = square_sum(s3.elements, (1, 2, 1, 3, 1, 2))
        rep = self.check(s3, Phi, 1, r=1)
        assert rep.dual_value == 2 < Phi.value(_bound_point(s3, Phi)) == 3
        assert SQ.value(_bound_point(P2SYS, SQ)) == 4
        assert [self.check(P2SYS, SQ, y_bound).dual_value for y_bound in (0, 1, 3)] == [0, 2, 2]

    def test_ties_with_different_supports(self):
        # Repeated rows: several y attain the best value, with different
        # supports; the first must be kept and every tie seen.
        four = LinearSystem(("x",), (Row((1,), 1, EQ),) * 4)
        twice = LinearSystem(P2SYS.elements, P2SYS.rows * 2)
        for sys, Phi, y_bound in ((four, square_sum(("x",)), 1), (twice, SQ, 2),
                                  (twice, linear_cost(P2SYS.elements, (3, 1)), 2)):
            rep = self.check(sys, Phi, y_bound)
            ranges = [range(0 if r.kind == GEQ else -y_bound, y_bound + 1) for r in sys.rows]
            best = [DualVector(y) for y in itertools.product(*ranges)
                    if y_dual_value(sys, Phi, DualVector(y)) == rep.dual_value]
            assert len({y.support() for y in best}) >= 2

    def test_slopes_up_to_a_million(self):
        rng = random.Random(14)
        systems = [P2SYS, s3_system()] + [random_flow_embedding(rng) for _ in range(4)]
        systems += [random_integer_system(rng) for _ in range(4)]
        for sys in systems:
            small = len(sys.rows) > 5 or sys.n > 3
            self.check(sys, large_slope_objective(rng, sys.elements), 1 if small else 2, r=1 if small else 2)


def _small_embedding(rng, rows):
    """A 4-row (two parallel arcs) or 5-row (a two-arc path or star) flow
    embedding, with the demand of a random flow of 0-3 per arc."""
    if rows == 4:
        g = Digraph(("s", "t"), (("s", "t"), ("s", "t")))
    else:
        g = Digraph(("u", "v", "w"), rng.choice(((("u", "v"), ("v", "w")), (("u", "v"), ("u", "w")))))
    m = dict.fromkeys(g.nodes, 0)
    for t, h in g.arcs:
        f = rng.randint(0, 3)
        m[t], m[h] = m[t] - f, m[h] + f
    return embedding_system(square_sum_instance(g, [m[v] for v in g.nodes]))


def _certificate_corpus(seed):
    """rng and systems: base systems (n = 2-3), 4- and 5-row flow
    embeddings, P2 and s3."""
    rng = random.Random(seed)
    systems = [to_system(random_supermodular(rng, rng.randint(2, 3), value_bound=2)) for _ in range(5)]
    systems += [_small_embedding(rng, rows) for rows in (4, 4, 4, 5, 5, 5)]
    return rng, systems + [P2SYS, s3_system()]


class TestCertificatesMatchNaiveOracles:
    """Where a dual reaches Phi at the primal point, the integer dual and
    the mu-form read it off their optimality systems; elsewhere they scan.
    Either way they give what the plain scans give, at the bound point,
    at the windowed minimum and at a feasible point that is not optimal,
    and the corpus reaches both branches (a branch that builds no
    conjugate table is the certificate's)."""

    @pytest.fixture
    def tables(self, monkeypatch):
        tables = []
        table = polyhedron.conjugate_table
        monkeypatch.setattr(polyhedron, "conjugate_table", lambda Phi: tables.append(Phi) or table(Phi))
        return tables

    @staticmethod
    def objectives(rng, elements):
        return (square_sum(elements), random_search_objective(rng, elements),
                large_slope_objective(rng, elements))

    def test_integer_dual(self, tables):
        rng, systems = _certificate_corpus(31)
        branches = collections.Counter()
        for sys in systems:
            win = vertex_hull_window(sys, 1)
            big = max(y for y in (1, 2, 3) if (2 * y + 1) ** len(sys.rows) <= 4000)
            for Phi in self.objectives(rng, sys.elements):
                finite = [z for z in enumerate_integer_points(sys, win) if Phi.value(z) is not PLUS_INF]
                best = minimize_bruteforce(sys, Phi, win).primal_witness
                worse = [z for z in finite if Phi.value(z) > Phi.value(best)] if finite else []
                points = [None] + ([best] if finite else []) + worse[:1]
                for y_bound in sorted({0, 1, big}):
                    expected = naive_dual_search(sys, Phi, y_bound)
                    for z in points:
                        before = len(tables)
                        rep = dual_search_bruteforce(sys, Phi, y_bound, z)
                        branches["scan" if len(tables) > before else "certificate"] += 1
                        got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
                        assert got == expected, (sys, Phi, y_bound, z)
        assert branches["certificate"] >= 20 and branches["scan"] >= 20, branches

    def test_mu_form(self, tables):
        rng, systems = _certificate_corpus(32)
        branches = collections.Counter()
        for sys in systems:
            for Phi in self.objectives(rng, sys.elements):
                for r in (1, 2) if sys.n <= 3 else (1,):
                    win = Window.uniform(sys.n, -r, r)
                    before = len(tables)
                    rep = mu_form_dual_search(sys, Phi, win)
                    branches["scan" if len(tables) > before else "certificate"] += 1
                    value, w = naive_mu_form(sys, Phi, win)
                    assert (rep.dual_value, rep.dual_witness) == (value, w), (sys, Phi, r)
                    assert type(rep.dual_value) is type(value)
        assert branches["certificate"] >= 10 and branches["scan"] >= 10, branches

    def test_a_point_outside_the_system_is_refused(self):
        with pytest.raises(ValueError, match="not a point of the system"):
            dual_search_bruteforce(P2SYS, SQ, 2, (3, 3))
        pinned = SeparableConvex(tuple((e, Restricted(1, 1, Quadratic(1))) for e in P2SYS.elements))
        with pytest.raises(ValueError, match="finite Phi"):
            dual_search_bruteforce(P2SYS, pinned, 2, (0, 2))


def y_dual_value(sys, Phi, y):
    conj = Phi.conjugate(y.times_q(sys))
    return MINUS_INF if conj is PLUS_INF else y.times_p(sys) - conj


# The two-arc path u -> v -> w carrying 2 units: five rows, three of them
# equalities, and the one point (2, 2).
PATH = LinearSystem(("uv", "vw"), (
    Row((1, 0), 0, GEQ), Row((0, 1), 0, GEQ),
    Row((-1, 0), -2, EQ), Row((1, -1), 0, EQ), Row((0, 1), 2, EQ),
))


class TestSearchWork:
    """Where a dual reaches Phi at the primal point, the searches read it
    off its optimality system and evaluate nothing.  Where none does, the
    pruned scans evaluate a share of their boxes: conjugates for the
    integer dual, exact LPs for the mu-form.  (A counter of the box from
    the arguments cannot show this.)"""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        table, lp = polyhedron.conjugate_table, polyhedron.lp_min

        def counting_table(Phi):
            calls["table"] += 1
            conj = table(Phi)

            def count(w):
                calls["conj"] += 1
                return conj(w)

            return count

        def counting_lp(sys, w):
            calls["lp"] += 1
            return lp(sys, w)

        monkeypatch.setattr(polyhedron, "conjugate_table", counting_table)
        monkeypatch.setattr(polyhedron, "lp_min", counting_lp)
        return calls

    @pytest.mark.parametrize("y_bound, share", [(6, 5), (12, 10)])
    def test_integer_dual(self, calls, y_bound, share):
        # The bound point (0, 2) is not optimal, so no y reaches Phi there.
        rep = dual_search_bruteforce(P2SYS, SQ, y_bound)
        assert rep.dual_value == 2 and rep.dual_witness.y == (0, 0, 1)
        box = (y_bound + 1) ** 2 * (2 * y_bound + 1)
        assert 0 < calls["conj"] * share <= box

    def test_integer_dual_on_a_path_embedding(self, calls):
        # With Phi three times the square sum, a y with yQ in the fitting
        # box [9, 15]^2 of (2, 2) needs a multiplier above 6: the scan
        # runs and stops short of Phi = 24.  Three equality rows leave its
        # gap pruning little to cut.
        rep = dual_search_bruteforce(PATH, square_sum(PATH.elements, (3, 3)), 6)
        assert rep.dual_value == 18
        assert 0 < calls["conj"] * 4 <= 7 ** 2 * 13 ** 3

    def test_mu_form(self, calls):
        rep = mu_form_dual_search(P2SYS, SQ, Window.uniform(2, -6, 6))
        assert rep.dual_value == 2 and rep.dual_witness == (1, 1)
        assert 0 < calls["lp"] * 3 <= 2 * 13 ** 2

    def test_certificates_evaluate_nothing(self, calls):
        rep = dual_search_bruteforce(PATH, square_sum(PATH.elements), 6)
        assert (rep.dual_value, rep.dual_witness.y) == (8, (0, 0, -6, -3, 0))
        # At the windowed minimum (1, 1) of P2, not at the bound point.
        rep = dual_search_bruteforce(P2SYS, SQ, 6, (1, 1))
        assert (rep.dual_value, rep.dual_witness.y) == (2, (0, 0, 1))
        mu = mu_form_dual_search(PATH, square_sum(PATH.elements), Window.uniform(2, -6, 6))
        assert (mu.dual_value, mu.dual_witness) == (8, (3, 3))
        assert calls == {}


class TestWindowHelpers:
    def test_vertex_hull(self):
        win = vertex_hull_window(P2SYS)
        assert win.lo == (0, 0) and win.hi == (2, 2)

    def test_points_are_lazy_under_a_memory_limit(self):
        # The first point of a 10**9-wide box, before any range is copied.
        p = run_under_memory_limit(
            "from dctk.polyhedron import Window\n"
            "print(next(Window.uniform(3, 0, 10**9).points()))"
        )
        assert (p.returncode, p.stdout) == (0, "(0, 0, 0)\n"), p.stderr

    def test_points_in_lex_order(self):
        win = Window((-2, 0, 1), (1, 2, 1))
        assert list(win.points()) == list(itertools.product(range(-2, 2), range(0, 3), range(1, 2)))
