"""Shared oracles and corpus builders for the test suite.

Oracles here are deliberately naive (exhaustive scans) and independent
of the library's search logic, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from dctk.conjugate import (
    FlatBottom,
    LinearPlus,
    Quadratic,
    Restricted,
    Shifted,
    SumOf,
    Table,
    UnivariateConvex,
    VShape,
)
from dctk.extint import MINUS_INF, ExtInt, is_finite
from dctk.polyhedron import LinearSystem, Window


def brute_conjugate(phi: UnivariateConvex, ell: int, lo: int = -30, hi: int = 30) -> ExtInt:
    """max k*ell - phi(k) by scanning [lo, hi]; callers must pick a scan
    range covering the effective domain."""
    best: ExtInt = MINUS_INF
    for k in range(lo, hi + 1):
        v = phi.value(k)
        if not is_finite(v):
            continue
        cand = k * ell - v
        if cand > best:
            best = cand
    return best


def random_convex_table(rng: random.Random) -> Table:
    k0 = rng.randint(-8, 4)
    length = rng.randint(1, min(12, 9 - k0))
    slopes = sorted(rng.randint(-4, 4) for _ in range(length - 1))
    v = rng.randint(-10, 10)
    values = [v]
    for s in slopes:
        v += s
        values.append(v)
    return Table(k0, tuple(values))


def random_closed_form(rng: random.Random) -> UnivariateConvex:
    """A closed-form shape with effective domain inside [-8, 8]."""
    A = rng.randint(-8, 2)
    B = rng.randint(A, 8)
    kind = rng.randrange(5)
    if kind == 0:
        inner: UnivariateConvex = Quadratic(rng.randint(1, 2))
        if rng.random() < 0.5:
            inner = Shifted(rng.randint(-3, 3), inner)
        if rng.random() < 0.5:
            inner = LinearPlus(rng.randint(-3, 3), inner)
        return Restricted(A, B, inner)
    if kind == 1:
        k0 = rng.randint(A, B)
        c1 = rng.randint(-4, 2)
        c2 = rng.randint(c1, 4)
        return VShape(k0, c1, c2, A, B)
    if kind == 2:
        a = rng.randint(A, B)
        b = rng.randint(a, B)
        return FlatBottom(a, b, rng.randint(-4, 0), rng.randint(0, 4), A, B)
    if kind == 3:
        k0 = rng.randint(A, B)
        c1 = rng.randint(-3, 1)
        c2 = rng.randint(max(c1, 0), 3)
        base = VShape(k0, c1, c2, A, B)
        return Shifted(0, LinearPlus(rng.randint(-2, 2), base))
    parts = []
    for _ in range(2):
        k0 = rng.randint(A, B)
        c1 = rng.randint(-2, 0)
        c2 = rng.randint(0, 2)
        parts.append(VShape(k0, c1, c2, A, B))
    return SumOf(tuple(parts))


def univariate_corpus(count: int = 220, seed: int = 7) -> List[UnivariateConvex]:
    """Mixed corpus with effective domains inside [-8, 8]."""
    rng = random.Random(seed)
    out: List[UnivariateConvex] = []
    while len(out) < count:
        if len(out) % 3 == 0:
            out.append(random_convex_table(rng))
        else:
            out.append(random_closed_form(rng))
    return out


def dom_range(phi: UnivariateConvex) -> Tuple[int, int]:
    lo, hi = phi.dom()
    assert is_finite(lo) and is_finite(hi)
    return lo, hi


# ---------------------------------------------------------------------------
# Exact linear algebra and the box probe, by plain Fraction arithmetic


def frac_rref(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Fractions: (matrix, pivot columns)."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def frac_solve_unique(rows, rhs) -> Optional[Tuple[Fraction, ...]]:
    """The unique solution of rows @ x = rhs, or None (no rows, singular
    or inconsistent)."""
    if not rows:
        return None
    n = len(rows[0])
    red, pivots = frac_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots or len(pivots) < n:
        return None
    return tuple(red[i][n] for i in range(n))


def frac_null_space(rows, ncols: int) -> List[Tuple[int, ...]]:
    """Null-space basis from the RREF, one vector per free column, each
    scaled by the lcm of its denominators."""
    red, pivots = frac_rref(rows) if rows else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        denom = lcm(*(x.denominator for x in v))
        basis.append(tuple(int(x * denom) for x in v))
    return basis


def naive_probe_box_integer(sys: LinearSystem, win: Window):
    """The box probe by one Fraction solve per basis and value tuple.

    Same scan order as the library (k fixed coordinates, which ones,
    which rows, which values), so the first fractional witness is the
    same."""
    n = sys.n
    rows = list(sys.rows)
    coord_values = [range(l, h + 1) for l, h in zip(win.lo, win.hi)]
    for k in range(0, n + 1):
        for coords in itertools.combinations(range(n), k):
            for ridxs in itertools.combinations(range(len(rows)), n - k):
                for vals in itertools.product(*(coord_values[c] for c in coords)):
                    mat = [list(rows[i].coeffs) for i in ridxs]
                    rhs = [rows[i].rhs for i in ridxs]
                    for c, v in zip(coords, vals):
                        mat.append([1 if j == c else 0 for j in range(n)])
                        rhs.append(v)
                    x = frac_solve_unique(mat, rhs)
                    if x is None or x not in win or not sys.contains(x):
                        continue
                    if any(v.denominator != 1 for v in x):
                        return (False, x)
    return (True, None)
