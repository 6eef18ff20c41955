import collections
import itertools
import random

import pytest
from fractions import Fraction

from dctk.conjugate import linear_cost, square_sum
from dctk.errors import CriteriaViolated, NotPrimalFeasible, NotSignFeasible
from dctk.extint import MINUS_INF, PLUS_INF
from dctk.fixtures import (
    p2_system,
    random_supermodular,
    s3_system,
)
from dctk.mconvex import base_bounds, enumerate_bases, to_system
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
    mu_form_dual_search,
    probe_box_integer,
    verify_certificate,
    vertex_hull_window,
)

from helpers import (
    frac_basic_data,
    frac_lp_min,
    naive_dual_search,
    naive_integer_points,
    naive_mu_form,
    naive_probe_box_integer,
    random_flow_embedding,
    random_integer_system,
    random_search_objective,
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
    of the same types, the same witnesses, support sizes and bounds."""

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


class TestWindowHelpers:
    def test_vertex_hull(self):
        win = vertex_hull_window(P2SYS)
        assert win.lo == (0, 0) and win.hi == (2, 2)
