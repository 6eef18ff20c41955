"""The fraction-free elimination against a plain Fraction RREF oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from dctk import ratlin
from dctk.ratlin import Minors, null_space, solve_int

from helpers import frac_det, frac_null_space, frac_solve_unique


def _matrix(rng, m, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def _low_rank(rng, m, n, r, bound):
    """An m x n product of m x r and r x n factors: rank <= r."""
    left, right = _matrix(rng, m, r, bound), _matrix(rng, r, n, bound)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def _systems(seed, bound):
    """(rows, rhs) of every kind: square and non-square, full rank,
    singular and rank-deficient, consistent and inconsistent."""
    rng = random.Random(seed)
    out = []
    for m, n in itertools.product(range(1, 6), range(1, 6)):
        for _ in range(3):
            a = _matrix(rng, m, n, bound)
            out.append((a, [rng.randint(-bound, bound) for _ in range(m)]))
            x0 = [rng.randint(-bound, bound) for _ in range(n)]
            out.append((a, [sum(c * x for c, x in zip(r, x0)) for r in a]))
            if min(m, n) > 1:
                low = _low_rank(rng, m, n, rng.randint(1, min(m, n) - 1), bound)
                out.append((low, [rng.randint(-bound, bound) for _ in range(m)]))
                out.append((low, [sum(c * x for c, x in zip(r, x0)) for r in low]))
    return out


SMALL = _systems(1, 3)
LARGE = _systems(2, 10**9)
KINDS = [pytest.param(SMALL, id="small"), pytest.param(LARGE, id="large")]


@pytest.mark.parametrize("systems", KINDS)
def test_solve_unique_matches_oracle(systems):
    """One right-hand side: solve_int gives the unique solution, as d and
    d*x, exactly when the Fraction oracle finds one."""
    unique = 0
    for rows, rhs in systems:
        sol = solve_int(rows, [[v] for v in rhs])
        expected = frac_solve_unique(rows, rhs)
        if sol is None:
            assert expected is None, (rows, rhs)
            continue
        unique += 1
        d, x = sol
        assert type(d) is int and d > 0 and all(type(xr[0]) is int for xr in x)
        assert tuple(Fraction(xr[0], d) for xr in x) == expected, (rows, rhs)
    # The corpus holds both outcomes in quantity.
    assert 50 <= unique <= len(systems) - 50


@pytest.mark.parametrize("systems", KINDS)
def test_null_space_matches_oracle(systems):
    for rows, _ in systems:
        n = len(rows[0])
        got = null_space(rows, n)
        assert got == frac_null_space(rows, n), rows
        assert type(got) is list
        for v in got:
            assert type(v) is tuple and all(type(e) is int for e in v)
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


@pytest.mark.parametrize("systems", KINDS)
def test_solve_int_scales_every_column(systems):
    """A·X = d·B with d > 0, for several right-hand sides at once; None
    exactly when some column has no unique solution."""
    rng = random.Random(3)
    for rows, rhs in systems:
        cols = [rhs, [rng.randint(-9, 9) for _ in rhs], [0] * len(rhs)]
        b = [list(r) for r in zip(*cols)]
        got = solve_int(rows, b)
        singly = [frac_solve_unique(rows, c) for c in cols]
        if got is None:
            assert None in singly
            continue
        d, x = got
        assert type(d) is int and d > 0
        for row, brow in zip(rows, b):
            for j, bv in enumerate(brow):
                assert sum(a * xr[j] for a, xr in zip(row, x)) == d * bv
        assert singly == [tuple(Fraction(xr[j], d) for xr in x) for j in range(3)]


def test_no_rows():
    assert null_space([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert solve_int([], []) == (1, [])


def test_null_space_is_primitive_with_positive_free_entry():
    # x + 2y + 4z = 0: free columns y and z; lcm scaling gives (-2, 1, 0)
    # and (-4, 0, 1); 6x + 4y = 0 gives (-2, 3).
    assert null_space([[1, 2, 4]], 3) == [(-2, 1, 0), (-4, 0, 1)]
    assert null_space([[6, 4]], 2) == [(-2, 3)]
    assert null_space([[0, 0], [0, 0]], 2) == [(1, 0), (0, 1)]


def _edge_matrices(seed):
    """Empty row lists, singular square matrices (a repeated or zero row),
    wide matrices (more columns than rows) and matrices with entries up
    to 10**6: (rows, column count, right-hand side)."""
    rng = random.Random(seed)
    out = [([], n) for n in range(1, 5)]
    for n in range(1, 6):
        for bound in (3, 10**6):
            a = _matrix(rng, n, n, bound)
            if n > 1:
                out.append((a[:-1] + [list(a[0])], n))
                out.append((a[:-1] + [[0] * n], n))
            out.append((_matrix(rng, rng.randint(1, n), n + rng.randint(1, 2), bound), n))
            out.append((a, n))
    return [(a, n if not a else len(a[0]), [rng.randint(-9, 9) for _ in a]) for a, n in out]


def test_edge_matrices_match_oracles():
    for rows, n, rhs in _edge_matrices(8):
        assert null_space(rows, n) == frac_null_space(rows, n), rows
        if rows:
            sol = solve_int(rows, [[v] for v in rhs])
            expected = frac_solve_unique(rows, rhs)
            assert (sol is None) == (expected is None), rows
            if sol is not None:
                assert tuple(Fraction(xr[0], sol[0]) for xr in sol[1]) == expected


def test_one_elimination_per_call(monkeypatch):
    # null_space reads every free column off one pass: n eliminations
    # became one.
    calls = []
    eliminate = ratlin._eliminate
    monkeypatch.setattr(ratlin, "_eliminate", lambda m, ncols: calls.append(ncols) or eliminate(m, ncols))
    edge = _edge_matrices(9)
    for rows, n, _ in edge:
        null_space(rows, n)
    assert len(calls) == len(edge)
    calls.clear()
    for rows, rhs in SMALL:
        solve_int(rows, [[v] for v in rhs])
    assert len(calls) == len(SMALL)


def _minor_matrices(seed):
    """Random m x n matrices, m, n = 1-5, with entries up to 3 or up to
    10**6, some with a zero row or a repeated row."""
    rng = random.Random(seed)
    out = []
    for m, n in itertools.product(range(1, 6), range(1, 6)):
        for bound in (3, 10**6):
            a = _matrix(rng, m, n, bound)
            out.append(a)
            if m > 1:
                out.append([[0] * n] + a[1:])
                out.append(a[:-1] + [list(a[0])])
    return out


def test_minors_match_fraction_determinants():
    zero = 0
    for a in _minor_matrices(5):
        n = len(a[0])
        table = Minors(a, n)
        for size in range(min(len(a), n) + 1):
            for rows in itertools.combinations(range(len(a)), size):
                for cols in itertools.combinations(range(n), size):
                    det = table[rows][cols]
                    assert det == frac_det([[a[i][j] for j in cols] for i in rows]), (a, rows, cols)
                    zero += det == 0
    assert zero >= 1000


def test_minors_of_a_permutation():
    # The odd permutation matrix of (1 0 2): det -1, and its first two
    # rows have minor -1 on columns 0, 1 and 0 on columns 0, 2.
    table = Minors([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 3)
    assert table[0, 1, 2][0, 1, 2] == -1
    assert table[0, 1][0, 1] == -1 and table[0, 1][0, 2] == 0
    assert table[()][()] == 1


def test_minors_drop_forgets_one_size():
    a = _matrix(random.Random(7), 4, 3, 5)
    table = Minors(a, 3)
    full = {rows: dict(table[rows]) for rows in itertools.combinations(range(4), 3)}
    table.drop(3)
    assert all(len(rows) < 3 for rows in table)
    assert any(len(rows) == 2 for rows in table)
    # A later read of the dropped size computes the same minors again.
    assert {rows: table[rows] for rows in full} == full
