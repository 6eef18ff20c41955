import collections
import contextlib
import itertools
import pathlib
import random

import pytest
from fractions import Fraction

from dctk import conjugate, polyhedron, ratlin
from dctk.conjugate import (
    FlatBottom,
    LinearPlus,
    Quadratic,
    Restricted,
    SeparableConvex,
    Shifted,
    SumOf,
    Table,
    VShape,
    conjugate_eval,
    linear_cost,
    square_sum,
)
from dctk.errors import CriteriaViolated, DomainError, NotFeasible
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
    dilation,
    dual_search_bruteforce,
    enumerate_integer_points,
    feasibility_condition,
    is_empty,
    minimize_bruteforce,
    _basic_data,
    _extreme_rays,
    mu_form_dual_search,
    probe_box_integer,
    separable_first_minimum,
    verify_certificate,
    vertex_hull_window,
)

from helpers import (
    box_rows,
    cube_system,
    embedding_system,
    find_weight_in_box,
    first_minimum,
    frac_basic_data,
    frac_det,
    frac_lp_min,
    interval_system,
    large_coefficient_system,
    large_slope_objective,
    lp_min,
    naive_basic_data,
    naive_dual_search,
    naive_extreme_rays,
    naive_hull_minimizer,
    naive_integer_points,
    naive_mu_form,
    naive_mu_form_at,
    naive_probe_box_integer,
    padded_hull_window,
    random_flow_embedding,
    random_closed_form,
    random_convex_table,
    random_integer_system,
    random_large_slope_form,
    random_search_objective,
    run_under_memory_limit,
    window_points,
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
        assert val is PLUS_INF and is_empty(sys) and not is_empty(P2SYS)

    def test_lineality(self):
        # x1 - x2 free along (1,1): any weight not orthogonal is unbounded.
        sys = LinearSystem(("a", "b"), (Row((1, -1), 0, EQ),))
        assert lp_min(sys, (1, 0))[0] is MINUS_INF
        assert lp_min(sys, (1, -1))[0] == 0

    def test_simplex_in_20_dimensions(self):
        # 21 rows in 20 variables: double description adds the
        # homogenized cone's 21 inequality rows one at a time, after one
        # elimination of its equality rows.  A table of every minor of the
        # rows would hold some 8e7 entries here and die of MemoryError
        # under the cap.
        p = run_under_memory_limit(
            f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
            "from dctk.polyhedron import EQ, GEQ, LinearSystem, Row, tangent_cone\n"
            "from helpers import lp_min\n"
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


def _basic_corpus(seed):
    """Random systems, n = 1-4, 1-5 rows, with equality rows; every fifth
    with entries up to 10**6, some with a zero column (a lineality
    space), a repeated row, a row and its negation shifted by one (an
    empty system), or the box -3..3 (a polytope, unless the zero column
    leaves a line)."""
    rng = random.Random(seed)
    out = []
    for k in range(240):
        n = rng.randint(1, 4)
        bound = 10**6 if k % 5 == 0 else 3
        rows = [Row(tuple(rng.randint(-bound, bound) if rng.random() < 0.7 else 0 for _ in range(n)),
                    rng.randint(-bound, bound), EQ if rng.random() < 0.2 else GEQ)
                for _ in range(rng.randint(1, 5))]
        if k % 4 == 1 and n > 1:
            rows = [Row(r.coeffs[:-1] + (0,), r.rhs, r.kind) for r in rows]
        if k % 7 == 2:
            rows.append(rows[0])
        if k % 6 == 3:
            rows.append(Row(tuple(-v for v in rows[0].coeffs), 1 - rows[0].rhs, GEQ))
        if k % 6 == 4:
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            rows += [Row(u, -3, GEQ) for u in units] + [Row(tuple(-v for v in u), -3, GEQ) for u in units]
        out.append(LinearSystem(tuple(f"x{i}" for i in range(n)), tuple(rows)))
    return rng, out


def fraction_basic_data(sys):
    """(vertices, rays, lineality) from _basic_data, each vertex as the
    Fraction tuple its scaled ints stand for."""
    big_d, ints, rays, lineality = _basic_data(sys)
    return [tuple(Fraction(e, big_d) for e in v) for v in ints], rays, lineality


def least_vertex_value(sys, Phi):
    """The least Phi over the integral vertices of the system (by the
    Fraction oracle), +inf when none has a finite Phi."""
    ints = [tuple(map(int, v)) for v in frac_basic_data(sys)[0] if all(x.denominator == 1 for x in v)]
    return first_minimum(ints, Phi.value)[0]


class TestBasicDataMatchesTwoLoopEnumeration:
    """_basic_data reads vertices and rays off the extreme rays of one
    homogenized cone, by double description; the two enumerations it
    replaced (vertex bases, then edge bases) stay in tests/helpers.py as
    naive_basic_data."""

    def test_all_four_outputs_and_lp_min(self):
        rng, systems = _basic_corpus(31)
        seen = collections.Counter()
        for sys in systems:
            vertices, rays, lineality, (big_d, ints) = naive_basic_data(sys)
            assert _basic_data(sys) == (big_d, ints, rays, lineality)
            assert fraction_basic_data(sys) == (vertices, rays, lineality)
            for _ in range(4):
                w = tuple(rng.randint(-3, 3) for _ in range(sys.n))
                assert lp_min(sys, w) == frac_lp_min((vertices, rays, lineality), w)
            seen["empty" if not vertices else "rays" if rays else "bounded"] += 1
            seen["lineality"] += bool(lineality)
            seen["equality rows"] += any(r.kind == EQ for r in sys.rows)
            seen["large"] += any(abs(v) > 3 for r in sys.rows for v in r.coeffs)
        assert min(seen.values()) >= 20, seen

    def test_cone_bases_each_eliminated_once(self, monkeypatch):
        # The cone's one basis of equality and lineality rows is
        # eliminated once, and so is the system for its lineality space:
        # two null_space calls.  Double description adds the inequality
        # rows without eliminating.
        calls = []
        null_space = ratlin.null_space
        monkeypatch.setattr(ratlin, "null_space", lambda rows, n: calls.append(n) or null_space(rows, n))
        _, systems = _basic_corpus(32)
        for sys in systems[:40]:
            calls.clear()
            _basic_data(sys)
            assert len(calls) <= 2


def _ray_cones(seed):
    """(rows, d, tags): cones with right-hand sides 0, d = 1-5, rows with
    entries in -1..1 (so several rows are often tight on one edge), -3..3
    or up to 10**6; some with a repeated row, the zero row, or only
    equality rows (pure lineality).  Then the tangent cones of the
    interval rungs n = 2-4 and of the 3-cube cut by a + b <= 8 through
    its edge a = b = 4 (three tight rows there), at every vertex."""
    rng = random.Random(seed)
    out = []
    for k in range(300):
        d = 1 + k % 5
        bound = 10**6 if k % 9 == 0 else 3 if k % 3 == 0 else 1
        rows = [Row(tuple(rng.randint(-bound, bound) for _ in range(d)), 0, EQ if rng.random() < 0.1 else GEQ)
                for _ in range(rng.randint(1, 2 * d + 2))]
        tags = {"large"} if bound > 3 else set()
        if k % 7 == 0:
            rows.append(rows[-1])
            tags.add("repeated row")
        if k % 11 == 0:
            rows.insert(rng.randrange(len(rows) + 1), Row((0,) * d, 0, GEQ))
            tags.add("zero row")
        if k % 13 == 0:
            rows = [Row(r.coeffs, 0, EQ) for r in rows]
            tags.add("pure lineality")
        out.append((rows, d, tags))
    corner = LinearSystem(("a", "b", "c"), tuple(box_rows(3, 4)) + (Row((-1, -1, 0), -8, GEQ),))
    for sys in [interval_system(n) for n in range(2, 5)] + [corner]:
        big_d, vertices, _, _ = _basic_data(sys)
        for u in vertices:
            tight = [Row(r.coeffs, 0, r.kind) for r in sys.rows if ratlin.dot(r.coeffs, u) == r.rhs * big_d]
            out.append((tight, sys.n, {"tangent cone"}))
    return out


class TestExtremeRaysMatchSubsetEnumeration:
    """_extreme_rays adds the inequality rows one at a time (double
    description) and lists the same rays as the subset enumeration it
    replaced, kept in tests/helpers.py as naive_extreme_rays, whatever
    the order of the rows."""

    def test_matches_oracle_in_two_orders(self):
        rng = random.Random(43)
        seen = collections.Counter()
        for rows, d, tags in _ray_cones(42):
            lineality = ratlin.null_space([r.coeffs for r in rows], d)
            expected = naive_extreme_rays(rows + [Row(l, 0, EQ) for l in lineality], d)
            eqs = [r.coeffs for r in rows if r.kind == EQ] + lineality
            ineqs = [r.coeffs for r in rows if r.kind == GEQ]
            assert _extreme_rays(eqs, ineqs, d) == expected, rows
            rng.shuffle(ineqs)
            assert _extreme_rays(eqs[::-1], ineqs, d) == expected, rows
            seen.update(tags)
            seen["n = 1"] += d == 1
            seen["rays"] += bool(expected)
            seen["lineality"] += bool(lineality)
            # An edge with more than d - 1 tight rows: a degenerate cone.
            seen["degenerate edge"] += any(sum(ratlin.dot(r.coeffs, v) == 0 for r in rows) >= d for v in expected)
        assert seen["tangent cone"] >= 20 and min(seen.values()) >= 10, seen


class TestBasicDataGrowth:
    """The growth ladders of ROADMAP item 1: the cube 0 <= x <= 4 and the
    TU interval rungs (the cube plus n interval rows)."""

    def test_ladders_match_oracle(self):
        # The two-loop oracle finishes up to n = 5 (15 rows, 3,003 bases).
        for sys in [interval_system(n) for n in range(3, 6)] + [cube_system(n) for n in range(2, 6)]:
            vertices, rays, lineality, (big_d, ints) = naive_basic_data(sys)
            assert _basic_data(sys) == (big_d, ints, rays, lineality), sys
        corners = sorted(itertools.product((0, 4), repeat=6))
        assert _basic_data(cube_system(6)) == (1, corners, [], [])

    def test_interval_rungs_6_to_8_finish(self):
        # At n = 8, 24 rows in 8 variables, a subset enumeration eliminates
        # C(25, 8) = 1,081,575 cone bases, minutes of work; double
        # description takes well under a second.  Each vertex listed lies
        # in the system on n independent tight rows.
        code = (f"import sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
                "from dctk import ratlin\n"
                "from dctk.polyhedron import _basic_data\n"
                "from helpers import interval_system\n"
                "for n in (6, 7, 8):\n"
                "    s = interval_system(n)\n"
                "    big_d, vertices, rays, lineality = _basic_data(s)\n"
                "    for u in vertices:\n"
                "        slacks = [ratlin.dot(r.coeffs, u) - r.rhs * big_d for r in s.rows]\n"
                "        assert min(slacks) >= 0\n"
                "        assert not ratlin.null_space([r.coeffs for r, v in zip(s.rows, slacks) if not v], n)\n"
                "    print(big_d, len(vertices), len(rays), len(lineality))")
        p = run_under_memory_limit(code, timeout=30)
        assert (p.returncode, p.stdout) == (0, "1 96 0 0\n1 160 0 0\n1 266 0 0\n"), p.stderr


class TestFirstMinimum:
    def test_first_of_ties(self):
        points = [(0, 2), (1, 1), (2, 0), (1, 1)]
        assert first_minimum(points, lambda z: abs(z[0] - z[1])) == (0, (1, 1))
        assert first_minimum(points, lambda z: z[0] + z[1])[1] is points[0]

    def test_infinite_everywhere(self):
        assert first_minimum([(0,), (1,)], lambda z: PLUS_INF) == (PLUS_INF, None)
        assert first_minimum([], lambda z: 0) == (PLUS_INF, None)

    def test_infinity_then_finite(self):
        values = {0: PLUS_INF, 1: 5, 2: 3, 3: 3}
        assert first_minimum(range(4), values.__getitem__) == (3, 2)


def _kernel_form(rng):
    """A part of every shape: finite domains inside [-8, 8], slopes up to
    10**6 on domains inside [-400, 400], unbounded ones, and plateaus (a
    flat bottom, a flat V, a table with equal neighbours)."""
    big = rng.randint(1, 10**6)
    k = rng.randint(-3, 3)
    pick = rng.randrange(14)
    if pick == 0:
        return random_convex_table(rng)
    if pick == 1:
        return random_closed_form(rng)
    if pick == 2:
        return random_large_slope_form(rng)
    if pick == 3:
        return Shifted(k, Quadratic(rng.randint(1, 3)))
    if pick == 4:
        return VShape(k, -rng.choice((1, big)), rng.choice((1, big)))
    if pick == 5:
        return FlatBottom(k, k + rng.randint(0, 3), -rng.randint(0, 3), rng.randint(0, 3))
    if pick == 6 and rng.random() < 0.5:
        return FlatBottom(MINUS_INF, k, 0, rng.randint(1, 3))
    if pick == 6:
        return FlatBottom(k, PLUS_INF, -rng.randint(1, 3), 0)
    if pick == 7:
        return LinearPlus(rng.randint(-3, 3), VShape(k, -2, 2))
    if pick == 8:
        return SumOf((VShape(k, -1, 1), FlatBottom(k - 2, k + 1, -big, big)))
    if pick == 9:
        return VShape(k, 0, 0, k - rng.randint(0, 5), k + rng.randint(0, 5))
    if pick == 10:
        return Table(k - 2, (3, 1, 1, 1, 4))
    if pick == 11:
        return Quadratic(rng.randint(1, 3))
    if pick == 12:
        return VShape(k, -big, big, k - rng.randint(0, 4), k + rng.randint(0, 4))
    return Restricted(k - 3, k + 3, Shifted(k, Quadratic(1)))


def _kernel_cases(seed):
    """(system, window, Phi): random integer systems (with equality
    rows, some dilated), flow embeddings, base systems, a box and a
    0 >= 1 row; in small and wide windows, mostly around a point of the
    system, some far from most domains."""
    rng = random.Random(seed)
    cases = []
    for k in range(360):
        kind = k % 5
        if kind == 0:
            system = random_integer_system(rng)
        elif kind == 1:
            system = random_flow_embedding(rng)
        elif kind == 2:
            system = to_system(random_supermodular(rng, rng.randint(1, 3), value_bound=2))
        elif kind == 3:
            n = rng.randint(1, 3)
            system = LinearSystem(tuple(f"x{i}" for i in range(n)), (Row((0,) * n, int(k % 4 == 3), GEQ),))
        else:
            system = dilation(random_integer_system(rng), rng.randint(1, 3))
        n = system.n
        width = 30 if n <= 2 and rng.random() < 0.3 else 4
        points = list(enumerate_integer_points(system, Window.uniform(n, -6, 6)))
        # Mostly a window around a point of the system, else anywhere.
        z = rng.choice(points) if points and rng.random() < 0.8 else (rng.choice((0, 0, 50, -300)),) * n
        lo = tuple(v - rng.randint(0, width) for v in z)
        hi = tuple(v + rng.randint(0, width) for v in z)
        Phi = SeparableConvex(tuple((e, _kernel_form(rng)) for e in system.elements))
        cases.append((system, Window(lo, hi), Phi))
    return cases


def _value_parts(Phi):
    return [(p.value, *p.dom()) for _, p in Phi.parts]


def _conjugate_parts(Phi):
    return [(lambda ell, p=p: conjugate_eval(p, ell), *p.slope_range()) for _, p in Phi.parts]


def _random_forms(rng, n):
    """One or two (a, g, lo, hi) with a in {-2..2}^n: a shape's values on
    its domain, or its conjugate less c.v on its slope range."""
    forms = []
    for _ in range(rng.randint(1, 2)):
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        p = _kernel_form(rng)
        if rng.random() < 0.5:
            forms.append((a, p.value, *p.dom()))
        else:
            c = rng.randint(-3, 3)
            forms.append((a, lambda v, p=p, c=c: conjugate_eval(p, v) - c * v, *p.slope_range()))
    return forms


class TestSeparableFirstMinimum:
    """The bound-pruned kernel against the full scan it replaces:
    first_minimum over enumerate_integer_points, value for value and
    point for point."""

    @staticmethod
    def matches_full_scan(seed, make_parts, make_forms=lambda rng, n: ()):
        """Kernel and full scan agree on every case; the counts of cases
        with a finite answer, a value beyond 10**6, tied minimizers and a
        form below 0 at the minimizer."""
        rng = random.Random(seed)
        seen = collections.Counter()
        for system, win, Phi in _kernel_cases(seed):
            parts, forms = make_parts(Phi), make_forms(rng, system.n)

            def total(x):
                return (sum(f(v) for (f, _, _), v in zip(parts, x))
                        + sum(g(ratlin.dot(a, x)) for a, g, _, _ in forms))

            values = {x: total(x) for x in enumerate_integer_points(system, win)}
            want = first_minimum(values, values.__getitem__)
            assert separable_first_minimum(system, win, parts, forms) == want, (system, win, Phi, forms)
            if want[1] is not None:
                seen["finite"] += 1
                seen["large"] += abs(want[0]) > 10**6
                seen["ties"] += list(values.values()).count(want[0]) > 1
                seen["negative form"] += any(g(ratlin.dot(a, want[1])) < 0 for a, g, _, _ in forms)
        return seen

    def test_value_parts_match_full_scan(self):
        seen = self.matches_full_scan(41, _value_parts)
        assert seen["finite"] >= 100 and seen["large"] >= 5 and seen["ties"] >= 15, seen

    def test_conjugate_parts_match_full_scan(self):
        seen = self.matches_full_scan(42, _conjugate_parts)
        assert seen["finite"] >= 100 and seen["large"] >= 5 and seen["ties"] >= 15, seen

    def test_forms_match_full_scan(self):
        # One or two convex terms of linear forms on top of the parts.
        seen = self.matches_full_scan(44, _value_parts, _random_forms)
        assert seen["finite"] >= 100 and seen["ties"] >= 5 and seen["negative form"] >= 20, seen

    def test_every_shape_on_both_sides(self):
        shapes = {type(p) for _, _, Phi in _kernel_cases(41) for _, p in Phi.parts}
        assert shapes == set(conjugate.SHAPES)

    def test_plateau_gives_lex_first_point(self):
        # x + y = 2 over a flat bottom: every point is worth 0.
        system = LinearSystem(("x", "y"), (Row((1, 1), 2, EQ),))
        flat = FlatBottom(-5, 5, -1, 1)
        parts = [(flat.value, *flat.dom())] * 2
        assert separable_first_minimum(system, Window.uniform(2, -3, 5), parts) == (0, (-3, 5))

    def test_no_point(self):
        parts = [(Quadratic(1).value, MINUS_INF, PLUS_INF)] * 2
        never = LinearSystem(("x", "y"), (Row((0, 0), 1, GEQ),))
        assert separable_first_minimum(never, Window.uniform(2, -2, 2), parts) == (PLUS_INF, None)
        odd = LinearSystem(("x", "y"), (Row((2, 2), 1, EQ),))
        assert separable_first_minimum(odd, Window.uniform(2, -2, 2), parts) == (PLUS_INF, None)
        far = Restricted(10, 12, Quadratic(1))
        parts = [(far.value, *far.dom())] * 2
        assert separable_first_minimum(P2SYS, Window.uniform(2, 0, 2), parts) == (PLUS_INF, None)

    def test_domain_error_only_with_a_point(self):
        # A part or form finite nowhere raises on its first read when the
        # system has a point in the window, as the full scan does, and not
        # when it has none.
        nowhere = Restricted(5, 6, VShape(0, -1, 1, -1, 1))
        Phi = SeparableConvex((("a", VShape(0, 1, 1)), ("b", nowhere)))
        parts = _conjugate_parts(Phi)
        odd = LinearSystem(("x", "y"), (Row((2, 2), 1, EQ),))
        with pytest.raises(DomainError):
            separable_first_minimum(P2SYS, Window.uniform(2, -2, 2), parts)
        assert separable_first_minimum(odd, Window.uniform(2, -2, 2), parts) == (PLUS_INF, None)
        parts = _value_parts(square_sum(("x", "y")))
        forms = [((1, -1), lambda v: conjugate_eval(nowhere, v), *nowhere.slope_range())]
        with pytest.raises(DomainError):
            separable_first_minimum(P2SYS, Window.uniform(2, -2, 2), parts, forms)
        assert separable_first_minimum(odd, Window.uniform(2, -2, 2), parts, forms) == (PLUS_INF, None)

    def test_one_last_coordinate_read_per_prefix(self, monkeypatch):
        # Past the bisections, the last part is read at most once per
        # prefix of the scan; the full scan reads it once per point.
        made = []

        class Counting(conjugate._Memo):
            def __init__(self, f):
                super().__init__(f)
                self.reads = 0
                made.append(self)

            def __getitem__(self, k):
                self.reads += 1
                return super().__getitem__(k)

        monkeypatch.setattr(polyhedron, "_Memo", Counting)
        wide = (LinearSystem(("x", "y"), (Row((1, 1), -40, GEQ),)), Window.uniform(2, -20, 20),
                SeparableConvex((("x", Shifted(3, Quadratic(1))), ("y", Shifted(-7, Quadratic(2))))))
        for system, win, Phi in [wide] + _kernel_cases(43):
            for parts in (_value_parts(Phi), _conjugate_parts(Phi)):
                made.clear()
                with contextlib.suppress(DomainError):
                    separable_first_minimum(system, win, parts)
                points = list(enumerate_integer_points(system, win))
                allowed = len({x[:-1] for x in points}) + 2 * (win.hi[-1] - win.lo[-1]).bit_length() + 1
                assert made[-1].reads <= allowed, (system, win, Phi)
        # The full scan reads the last part once per point: 1,681 here.
        points = list(enumerate_integer_points(*wide[:2]))
        assert len({x[:-1] for x in points}) + 2 * (40).bit_length() + 1 < len(points)

    def test_each_value_read_once(self, monkeypatch):
        Phi = SeparableConvex(
            (("a", VShape(0, -1, 1)), ("b", Quadratic(2)), ("c", Restricted(-3, 2, Quadratic(1))))
        )
        calls = collections.Counter()
        for cls in (VShape, Quadratic, Restricted):
            value = cls.value
            monkeypatch.setattr(cls, "value", lambda self, k, value=value: calls.update([(self, k)]) or value(self, k))
        system = LinearSystem(("a", "b", "c"), (Row((1, 1, 1), 1, GEQ),))
        rep = minimize_bruteforce(system, Phi, Window.uniform(3, -4, 4))
        assert (rep.primal_value, rep.primal_witness) == (1, (0, 0, 1))
        assert calls and set(calls.values()) == {1}


class TestCompatibility:
    """The sandwich Phi'(z-1) <= yQ <= Phi'(z), by first_unfit."""

    def test_accepts(self):
        assert SQ.first_unfit((1, 1), DualVector((0, 0, 3)).times_q(P2SYS)) is None

    def test_rejects_high(self):
        assert SQ.first_unfit((1, 1), DualVector((0, 0, 4)).times_q(P2SYS)) == 0

    def test_rejects_zero(self):
        assert SQ.first_unfit((0, 2), DualVector((0, 0, 0)).times_q(P2SYS)) == 1


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
        with pytest.raises(NotFeasible, match=r"z=\(0, 1\) violates the system"):
            verify_certificate(P2SYS, (0, 1), DualVector((0, 0, 0)), SQ)

    def test_sign_infeasible(self):
        with pytest.raises(NotFeasible, match="negative multiplier on an inequality row"):
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

    def test_primal_refuses_phi_of_wrong_length(self):
        # x >= 5 has no point in 0..2, and Phi has two parts for one
        # coordinate: refused before the scan, not after an empty one.
        sys = LinearSystem(("x",), (Row((1,), 5, GEQ),))
        with pytest.raises(ValueError, match="expected 2 components, got 1"):
            minimize_bruteforce(sys, square_sum(("x", "y")), Window.uniform(1, 0, 2))
        assert minimize_bruteforce(sys, square_sum(("x",)), Window.uniform(1, 0, 2)).primal_witness is None

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

    def test_dual_support_off_the_certificate(self):
        # Empty systems, so no certificate: the kernel's witness has
        # support 3 > 2n.  No best y has a smaller one in the first; in
        # the second, (0, 0, 2, 2) with y_2 pinned to 0 is a later tie.
        cases = (
            (LinearSystem(("x",), (Row((2,), 2, EQ), Row((-1,), 2, GEQ), Row((-1,), 2, GEQ))),
             SeparableConvex((("x", LinearPlus(-1, Quadratic(1))),)), 1, (6, (1, 1, 1), False)),
            (LinearSystem(("x",), (Row((2,), 2, EQ), Row((2,), 1, GEQ), Row((1,), 2, GEQ), Row((2,), 2, GEQ))),
             square_sum(("x",), (3,)), 2, (5, (-1, 0, 2, 2), True)),
        )
        for sys, Phi, y_bound, want in cases:
            assert is_empty(sys)
            rep = dual_search_bruteforce(sys, Phi, y_bound)
            assert (rep.dual_value, rep.dual_witness.y, rep.bounds_used["support_within_2n"]) == want
            got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
            assert got == naive_dual_search(sys, Phi, y_bound)

    def test_mu_form(self):
        rep = mu_form_dual_search(P2SYS, SQ, Window.uniform(2, 0, 4))
        assert rep.dual_value == 2 and rep.dual_witness == (1, 1)

    def test_mu_form_pinned(self):
        rep = mu_form_dual_search(P2SYS, SQ, Window(lo=(3, 3), hi=(3, 3)))
        assert rep.dual_value == 2

    def test_mu_form_weak(self):
        rep = mu_form_dual_search(P2SYS, SQ, Window(lo=(0, 0), hi=(0, 0)))
        assert rep.dual_value == 0

    def test_mu_form_fraction_in_json(self):
        # 2a >= 1, -2a >= -1 has the one vertex a = 1/2 and no integer
        # point, so no primal point to read at: -inf and no witness, where
        # the windowed maximum is 1/2 at w = 1.
        half = LinearSystem(("a",), (Row((2,), 1, GEQ), Row((-2,), -1, GEQ)))
        Phi, win = square_sum(("a",)), Window.uniform(1, -6, 6)
        out = mu_form_dual_search(half, Phi, win).to_json()
        assert (out["dual_value"], out["dual_witness"]) == ("-inf", None)
        assert naive_mu_form_at(half, Phi, win, naive_hull_minimizer(half, Phi)) == (MINUS_INF, None)
        assert naive_mu_form(half, Phi, win) == (Fraction(1, 2), (1,))

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

    def test_window_width_must_match(self):
        with pytest.raises(ValueError, match="window length 1 does not match the system's 2 elements"):
            probe_box_integer(LinearSystem(("a", "b"), (Row((1, 1), 1, GEQ),)), Window.uniform(1, 0, 1))
        with pytest.raises(ValueError, match="window length 5 does not match the system's 6 elements"):
            probe_box_integer(dilation(s3_system(), 2), Window.uniform(5, 0, 1))

    def test_minors_held_two_levels_at_a_time(self):
        # The n = 7 interval rung has 21 rows: holding every smaller level
        # of its minors while reading a size grew max RSS by over 50 MB.
        code = (f"import resource, sys; sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
                "from dctk.polyhedron import Window, probe_box_integer\n"
                "from helpers import interval_system\n"
                "s, win = interval_system(7), Window.uniform(7, 0, 1)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "ok, _ = probe_box_integer(s, win)\n"
                "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "print(ok, after - before)")
        p = run_under_memory_limit(code, timeout=60)
        assert p.returncode == 0, p.stderr
        ok, growth_kb = p.stdout.split()
        assert ok == "True" and int(growth_kb) < 40 * 1024, p.stdout

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
                self.check(d, padded_hull_window(d))

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

    def test_four_columns_witnesses_at_several_levels(self, monkeypatch):
        # n = 4 with coefficients in -2..2: witnesses from 0, 1 and 2 fixed
        # coordinates, some after other large bases of the same level were
        # eliminated, so the scan order among them decides the witness.
        rng = random.Random(9)
        levels, not_first = collections.Counter(), 0
        for _ in range(40):
            rows = tuple(
                Row(tuple(rng.randint(-2, 2) for _ in range(4)), rng.randint(-2, 2), rng.choice((GEQ, GEQ, EQ)))
                for _ in range(rng.randint(2, 6))
            )
            sys, win = LinearSystem(("a", "b", "c", "d"), rows), Window.uniform(4, -1, 1)
            sizes = []
            solve = ratlin.solve_int
            monkeypatch.setattr(ratlin, "solve_int", lambda a, b: sizes.append(len(a)) or solve(a, b))
            ok, witness = probe_box_integer(sys, win)
            monkeypatch.undo()
            assert (ok, witness) == naive_probe_box_integer(sys, win)
            if not ok:
                levels[4 - sizes[-1]] += 1  # the witness's basis is the last one eliminated
                not_first += sizes.count(sizes[-1]) > 1
        assert min(levels[k] for k in (0, 1, 2)) >= 3 and not_first >= 3, (levels, not_first)

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


def check_mu_form(sys, Phi, win, z=None) -> str:
    """The mu-form at z, or given none at the hull minimizer, gives what
    naive_mu_form_at gives there: the same int or -inf value and the same
    witness.  Where the windowed maximum naive_mu_form reaches Phi at that
    point (the min-max theorem's case), it gives that maximum too.
    Returns "reached" there, else "-inf" or "gap"."""
    rep = mu_form_dual_search(sys, Phi, win, z)
    at = naive_hull_minimizer(sys, Phi) if z is None else z
    want = naive_mu_form_at(sys, Phi, win, at)
    assert (rep.dual_value, rep.dual_witness) == want, (sys, Phi, win, z)
    assert type(rep.dual_value) is type(want[0])
    windowed = naive_mu_form(sys, Phi, win)
    if at is not None and windowed[0] == Phi.value(at):
        assert want == windowed, (sys, Phi, win, z)
        return "reached"
    return "-inf" if want[0] is MINUS_INF else "gap"


class TestSearchesMatchNaiveOracles:
    """The integer dual search, the mu-form search, _basic_data and lp_min
    give what the plain scans of tests/helpers.py give: the same values
    of the same types, the same witnesses, support sizes and bounds; also
    on the cases the gap pruning of the two searches could get wrong.  The
    mu-form's scan is the one at its primal point (check_mu_form)."""

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
        kinds = collections.Counter()
        for sys in systems:
            Phi = random_search_objective(rng, sys.elements)
            kinds[check_mu_form(sys, Phi, Window.uniform(sys.n, -2, 2))] += 1
        assert kinds["reached"] >= 5, kinds

    def test_basic_data_and_lp_min(self):
        _, systems = _oracle_systems(13)
        types = set()
        for sys in systems + [s3_system(), dilation(s3_system(), 2)]:
            basic = frac_basic_data(sys)
            assert fraction_basic_data(sys) == basic
            r = 2 if sys.n <= 3 else 1
            for w in window_points(Window.uniform(sys.n, -r, r)):
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
        check_mu_form(sys, Phi, Window.uniform(sys.n, -r, r))
        return rep

    def test_no_bound_point(self):
        # No integral vertex (the first two), or Phi = +inf at every
        # integral vertex (P2 pinned to (1, 1)): z is the hull minimizer,
        # not a vertex.
        half = LinearSystem(("x",), (Row((2,), 1, GEQ), Row((-2,), -3, GEQ)))
        frac = LinearSystem(("a", "b"), (Row((2, 0), 1, GEQ), Row((0, 2), 1, GEQ),
                                         Row((-2, -2), -5, GEQ)))
        pinned = SeparableConvex(tuple((e, Restricted(1, 1, Quadratic(1))) for e in P2SYS.elements))
        for sys, Phi in ((half, square_sum(half.elements)), (frac, square_sum(frac.elements)),
                         (P2SYS, pinned)):
            assert least_vertex_value(sys, Phi) is PLUS_INF
            for y_bound in (0, 1, 3):
                self.check(sys, Phi, y_bound)

    def test_gap_inside_the_bound(self):
        # The best dual value stays below the least Phi at an integral
        # vertex: with y bound 1 on s3 (3 is its primal minimum), and on
        # P2 (whose integral vertices have Phi >= 4, above the minimum 2).
        s3 = s3_system()
        Phi = square_sum(s3.elements, (1, 2, 1, 3, 1, 2))
        rep = self.check(s3, Phi, 1, r=1)
        assert rep.dual_value == 2 < least_vertex_value(s3, Phi) == 3
        assert least_vertex_value(P2SYS, SQ) == 4
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
    """Where a dual reaches Phi at the primal point, the integer dual reads
    it off its optimality system; elsewhere it runs the separable kernel
    with forms.  Either way it gives what the plain scan gives, at the
    hull minimizer (given no point), at the windowed minimum and at a
    feasible point that is not optimal, and the corpus reaches both
    branches (the certificate's makes no kernel call with forms).  The
    mu-form, on its one path, gives what naive_mu_form_at gives at the
    same points, and the windowed maximum wherever that reaches Phi
    there."""

    @pytest.fixture
    def form_calls(self, monkeypatch):
        """The kernel calls made with forms."""
        calls = []
        kernel = polyhedron.separable_first_minimum

        def counting(sys, win, parts, forms=()):
            if forms:
                calls.append(sys)
            return kernel(sys, win, parts, forms)

        monkeypatch.setattr(polyhedron, "separable_first_minimum", counting)
        return calls

    @staticmethod
    def objectives(rng, elements):
        return (square_sum(elements), random_search_objective(rng, elements),
                large_slope_objective(rng, elements))

    def test_integer_dual(self, form_calls):
        rng, systems = _certificate_corpus(31)
        branches = collections.Counter()
        for sys in systems:
            win = padded_hull_window(sys)
            big = max(y for y in (1, 2, 3) if (2 * y + 1) ** len(sys.rows) <= 4000)
            for Phi in self.objectives(rng, sys.elements):
                finite = [z for z in enumerate_integer_points(sys, win) if Phi.value(z) is not PLUS_INF]
                best = minimize_bruteforce(sys, Phi, win).primal_witness
                worse = [z for z in finite if Phi.value(z) > Phi.value(best)] if finite else []
                points = [None] + ([best] if finite else []) + worse[:1]
                for y_bound in sorted({0, 1, big}):
                    expected = naive_dual_search(sys, Phi, y_bound)
                    for z in points:
                        before = len(form_calls)
                        rep = dual_search_bruteforce(sys, Phi, y_bound, z)
                        branches["kernel" if len(form_calls) > before else "certificate"] += 1
                        got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
                        assert got == expected, (sys, Phi, y_bound, z)
        assert branches["certificate"] >= 20 and branches["kernel"] >= 20, branches

    def test_mu_form(self):
        rng, systems = _certificate_corpus(32)
        # Add fractional vertices 1/2 and 3/2 with the integer point 1,
        # and an empty system, for -inf values.
        half = LinearSystem(("x",), (Row((2,), 1, GEQ), Row((-2,), -3, GEQ)))
        empty = LinearSystem(("x",), (Row((1,), 1, GEQ), Row((-1,), 0, GEQ)))
        kinds = collections.Counter()
        for sys in systems + [half, empty]:
            for Phi in self.objectives(rng, sys.elements):
                # Given no point, at the windowed minimum, and at a feasible
                # point that is not optimal.
                points = [None]
                box = padded_hull_window(sys) if not is_empty(sys) else None
                finite = [z for z in enumerate_integer_points(sys, box) if Phi.value(z) is not PLUS_INF] if box else []
                if finite:
                    best = minimize_bruteforce(sys, Phi, box).primal_witness
                    points += [best] + [z for z in finite if Phi.value(z) > Phi.value(best)][:1]
                for z in points:
                    for r in (1, 2) if sys.n <= 3 else (1,):
                        kinds[check_mu_form(sys, Phi, Window.uniform(sys.n, -r, r), z)] += 1
        assert kinds["reached"] >= 20 and kinds["gap"] >= 20 and kinds["-inf"] > 0, kinds

    def test_a_point_outside_the_system_is_refused(self):
        with pytest.raises(ValueError, match="not a point of the system"):
            dual_search_bruteforce(P2SYS, SQ, 2, (3, 3))
        pinned = SeparableConvex(tuple((e, Restricted(1, 1, Quadratic(1))) for e in P2SYS.elements))
        with pytest.raises(ValueError, match="finite Phi"):
            dual_search_bruteforce(P2SYS, pinned, 2, (0, 2))

    def test_bad_input_is_refused_before_the_vertex_table(self):
        # A Phi of the wrong length, then a point outside the system.
        for sys, Phi in ((p2_system(), square_sum(("a",))), (p2_system(), SQ)):
            with pytest.raises(ValueError):
                mu_form_dual_search(sys, Phi, Window.uniform(2, -1, 1), (3, 3))
            assert sys._basic is None


def y_dual_value(sys, Phi, y):
    conj = Phi.conjugate(y.times_q(sys))
    return MINUS_INF if conj is PLUS_INF else y.times_p(sys) - conj


# The two-arc path u -> v -> w carrying 2 units: five rows, three of them
# equalities, and the one point (2, 2).
PATH = LinearSystem(("uv", "vw"), (
    Row((1, 0), 0, GEQ), Row((0, 1), 0, GEQ),
    Row((-1, 0), -2, EQ), Row((1, -1), 0, EQ), Row((0, 1), 2, EQ),
))

# The square -1 <= 2a <= 1, -1 <= 2b <= 1: four fractional vertices and
# one integer point, (0, 0).
SQUARE = LinearSystem(("a", "b"), tuple(Row(c, -1, GEQ) for c in ((2, 0), (-2, 0), (0, 2), (0, -2))))


class TestSearchWork:
    """Where a dual reaches Phi at the primal point, the integer dual reads
    it off its optimality system and evaluates no conjugate.  Where none
    does, one kernel call with forms evaluates a few dozen through
    polyhedron's conjugate_eval ("eval"), each once, and none by another
    path ("other", the conjugate module's own binding).  The mu-form
    always runs one pruned minimum, on the normal cone at its point: a
    few dozen conjugate_evals.  (A counter of the box from the arguments
    cannot show this.)"""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = collections.Counter()
        evaluate = conjugate.conjugate_eval

        def counting(key):
            return lambda p, t: calls.update([key]) or evaluate(p, t)

        monkeypatch.setattr(polyhedron, "conjugate_eval", counting("eval"))
        monkeypatch.setattr(conjugate, "conjugate_eval", counting("other"))
        return calls

    @pytest.mark.parametrize("y_bound, share", [(6, 5), (12, 10)])
    def test_integer_dual(self, calls, y_bound, share):
        # Given no point, the search reads its certificate at the hull
        # minimizer (1, 1); the integral vertex (0, 2) is not optimal.
        rep = dual_search_bruteforce(P2SYS, SQ, y_bound)
        assert rep.dual_value == 2 and rep.dual_witness.y == (0, 0, 1)
        assert calls == {}
        # Given (0, 2), the kernel runs: 24 and 41 conjugates, under a
        # 25th and a 50th of the 637 and 4,225 vectors of the y box.
        rep = dual_search_bruteforce(P2SYS, SQ, y_bound, (0, 2))
        assert rep.dual_value == 2 and rep.dual_witness.y == (0, 0, 1)
        box = (y_bound + 1) ** 2 * (2 * y_bound + 1)
        assert calls.keys() == {"eval"} and calls["eval"] * 5 * share <= box, calls

    def test_integer_dual_on_a_path_embedding(self, calls):
        # With Phi three times the square sum, a y with yQ in the fitting
        # box [9, 15]^2 of (2, 2) needs a multiplier above 6: the kernel
        # runs and stops short of Phi = 24.  Three equality rows have no
        # slack to prune by, but the gap of the forms yQ does: 37
        # conjugates for 7^2 * 13^3 vectors.
        rep = dual_search_bruteforce(PATH, square_sum(PATH.elements, (3, 3)), 6)
        assert rep.dual_value == 18
        assert calls.keys() == {"eval"} and calls["eval"] <= 40, calls

    def test_integer_dual_on_s3(self, calls):
        # s3 is not box-TDI: the best y in the box is worth 2 < 3; 29
        # conjugates for 2^4 * 3^3 vectors.
        s3 = s3_system()
        rep = dual_search_bruteforce(s3, square_sum(s3.elements, (1, 2, 1, 3, 1, 2)), 1)
        assert (rep.dual_value, rep.dual_witness.y) == (2, (0, 1, 1, 0, 0, 0, 0))
        assert calls.keys() == {"eval"} and calls["eval"] <= 30, calls

    def test_mu_form(self, calls):
        # 22 conjugates, where a scan of the window reads 2 * 13^2.
        rep = mu_form_dual_search(P2SYS, SQ, Window.uniform(2, -6, 6))
        assert rep.dual_value == 2 and rep.dual_witness == (1, 1)
        assert calls.keys() == {"eval"} and calls["eval"] <= 50, calls

    def test_mu_form_fallback(self, calls):
        # a = 1/2 and 0 <= b, c <= 1: no integer point, so no point to read
        # at and no conjugate read.  With a in 0..1 instead, at the point
        # (1, 0, 1), which is not optimal, no weight reaches Phi = 4: the
        # cone w_a <= 0 <= w_b, w_c <= 0 holds the bound 0 at w = 0, read
        # with 13, 25 and 51 conjugates on the weights of +-2, +-6, +-20.
        rows = (((2, 0, 0), 1), ((-2, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1), ((0, 0, 1), 0), ((0, 0, -1), -1))
        half = LinearSystem(("a", "b", "c"), tuple(Row(c, b, GEQ) for c, b in rows))
        cube = LinearSystem(half.elements, (Row((1, 0, 0), 0, GEQ), Row((-1, 0, 0), -1, GEQ)) + half.rows[2:])
        Phi = square_sum(half.elements, (1, 2, 3))
        for r in (2, 6, 20):
            calls.clear()
            win = Window.uniform(3, -r, r)
            mu = mu_form_dual_search(half, Phi, win)
            assert (mu.dual_value, mu.dual_witness) == (MINUS_INF, None)
            assert calls == {}
            mu = mu_form_dual_search(cube, Phi, win, (1, 0, 1))
            assert (mu.dual_value, mu.dual_witness) == (0, (0, 0, 0))
            assert calls.keys() == {"eval"} and calls["eval"] <= 3 * r + 12, calls
            if r < 20:
                assert check_mu_form(half, Phi, win) == "-inf"
                assert check_mu_form(cube, Phi, win, (1, 0, 1)) == "gap"

    def test_minimizers_inside_a_face(self, calls):
        # x(E) = k, x >= 0 and Phi = sum a_j x_j^2, where the vertices
        # k e_j are not optimal: the integer dual reads the certificate at
        # the hull minimizer, evaluating no conjugate, the mu-form's one
        # pruned minimum there at most 42, and both return what the
        # plain scans return.
        rng = random.Random(43)
        seen = 0
        for n, a_max, ks, y_bound, win in ((2, 3, (2, 5), 10, Window.uniform(2, -10, 10)),
                                           (3, 2, (3, 5), 8, Window.uniform(3, -2, 10))):
            elements = tuple(f"x{j}" for j in range(n))
            units = tuple(Row(tuple(int(i == j) for i in range(n)), 0, GEQ) for j in range(n))
            for _ in range(6):
                sys = LinearSystem(elements, (Row((1,) * n, rng.randint(*ks), EQ),) + units)
                Phi = square_sum(elements, [rng.randint(1, a_max) for _ in range(n)])
                best = minimize_bruteforce(sys, Phi, vertex_hull_window(sys)).primal_value
                if best == least_vertex_value(sys, Phi):
                    continue
                seen += 1
                calls.clear()
                rep = dual_search_bruteforce(sys, Phi, y_bound)
                assert calls == {}
                mu = mu_form_dual_search(sys, Phi, win)
                assert calls.keys() == {"eval"} and calls["eval"] <= 120, calls
                assert rep.dual_value == mu.dual_value == best
                got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
                assert got == naive_dual_search(sys, Phi, y_bound)
                assert (mu.dual_value, mu.dual_witness) == naive_mu_form(sys, Phi, win)
        assert seen >= 8

    def test_no_integral_vertex(self, calls):
        # The integer dual certifies at (0, 0), evaluating no conjugate;
        # the mu-form's one pruned minimum there evaluates 13.
        Phi = square_sum(SQUARE.elements)
        win = Window.uniform(2, -6, 6)
        rep = dual_search_bruteforce(SQUARE, Phi)
        assert calls == {}
        mu = mu_form_dual_search(SQUARE, Phi, win)
        assert calls.keys() == {"eval"} and calls["eval"] <= 60, calls
        assert (rep.dual_value, rep.dual_witness.y, mu.dual_value, mu.dual_witness) == (0, (0,) * 4, 0, (0, 0))
        got = (rep.dual_value, rep.dual_witness, rep.support_size, rep.bounds_used)
        assert got == naive_dual_search(SQUARE, Phi, 6)
        assert (mu.dual_value, mu.dual_witness) == naive_mu_form(SQUARE, Phi, win)

    def test_certificates_evaluate_nothing(self, calls):
        rep = dual_search_bruteforce(PATH, square_sum(PATH.elements), 6)
        assert (rep.dual_value, rep.dual_witness.y) == (8, (0, 0, -6, -3, 0))
        # Given the windowed minimum (1, 1) of P2.
        rep = dual_search_bruteforce(P2SYS, SQ, 6, (1, 1))
        assert (rep.dual_value, rep.dual_witness.y) == (2, (0, 0, 1))
        assert calls == {}
        # The mu-form reads at the one point (2, 2), whose normal cone is
        # all of R^2: one pruned minimum reads 16 conjugates.
        mu = mu_form_dual_search(PATH, square_sum(PATH.elements), Window.uniform(2, -6, 6))
        assert (mu.dual_value, mu.dual_witness) == (8, (3, 3))
        assert calls.keys() == {"eval"} and calls["eval"] <= 20, calls

    def test_mu_form_needs_no_tangent_cone(self, monkeypatch):
        # The normal cone at the point comes off the vertex table, so the
        # search runs with no dilation, tangent cone or normal-cone system.
        s3 = dilation(s3_system(), 2)
        cases = [(P2SYS, SQ, 6), (PATH, square_sum(PATH.elements), 6), (SQUARE, square_sum(SQUARE.elements), 6),
                 (s3, square_sum(s3.elements, (1, 2, 1, 3, 1, 2)), 1)]
        expected = [naive_mu_form_at(sys, Phi, Window.uniform(sys.n, -r, r), naive_hull_minimizer(sys, Phi))
                    for sys, Phi, r in cases]

        def refuse(*args):
            raise AssertionError("called")

        for name in ("tangent_cone", "normal_cone", "dilation"):
            monkeypatch.setattr(polyhedron, name, refuse)
        for (sys, Phi, r), want in zip(cases, expected):
            mu = mu_form_dual_search(sys, Phi, Window.uniform(sys.n, -r, r))
            assert (mu.dual_value, mu.dual_witness) == want

    def test_mu_form_is_one_kernel_call(self, monkeypatch):
        # The cube 0 <= x <= 4 in R^6 has 64 vertices; given z = 0, the
        # search reads the one normal cone there (w >= 0) with one call
        # of the separable kernel: w = 0, worth Phi(0) = 0.
        n = 6
        cube = cube_system(n)
        elements = cube.elements
        assert len(_basic_data(cube)[1]) == 2 ** n
        kernel, calls = polyhedron.separable_first_minimum, []
        monkeypatch.setattr(polyhedron, "separable_first_minimum",
                            lambda *args: calls.append(args) or kernel(*args))
        mu = mu_form_dual_search(cube, square_sum(elements, range(1, n + 1)), Window.uniform(n, -6, 6), (0,) * n)
        assert (mu.dual_value, mu.dual_witness) == (0, (0,) * n)
        assert len(calls) == 1


class TestWindowHelpers:
    def test_vertex_hull(self):
        win = vertex_hull_window(P2SYS)
        assert win.lo == (0, 0) and win.hi == (2, 2)

    def test_points_in_lex_order(self):
        # The tests' window scan, against the standard library's product.
        win = Window((-2, 0, 1), (1, 2, 1))
        assert list(window_points(win)) == list(itertools.product(range(-2, 2), range(0, 3), range(1, 2)))
