"""Small exact linear algebra over the integers.

One fraction-free Gauss–Jordan elimination (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination") serves
every solve: it keeps the matrix in ``int`` throughout, because each
division by the previous pivot is exact, and reports a common
denominator instead of building :class:`fractions.Fraction` entries.
Callers build Fractions only for the results they return.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

Vec = Tuple[Fraction, ...]


def solve_int(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> Optional[Tuple[int, List[List[int]]]]:
    """Solve A·X = B over the rationals with integer arithmetic only.

    ``a`` is m rows of n ints and ``b`` is m rows of p ints (the
    right-hand-side columns side by side).  Returns ``(d, X)`` with
    ``d > 0`` and X an n-by-p list of int rows such that A·X = d·B, or
    None when A has rank < n or the system is inconsistent.  After the
    step on column k every entry is, up to sign, a (k+1)-minor of the
    row-permuted [A | B], so the division by the previous pivot leaves
    no remainder.
    """
    m = [list(r) + list(s) for r, s in zip(a, b)]
    n = len(a[0]) if a else 0
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        rk = m[k]
        p = rk[k]
        for i, ri in enumerate(m):
            if i != k:
                f = ri[k]
                m[i] = [(p * v - f * w) // prev for v, w in zip(ri, rk)]
        prev = p
    if any(v for r in m[n:] for v in r[n:]):
        return None
    sign = 1 if prev > 0 else -1
    return prev * sign, [[sign * v for v in r[n:]] for r in m[:n]]


def null_space(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, ...]]:
    """Integer basis of {x: rows @ x = 0}: one primitive vector per free
    column (a column in the span of the columns before it), with a
    positive entry there and zeros at the other free columns."""
    basis = []
    pivots: List[int] = []
    for c in range(ncols):
        sol = solve_int([[r[j] for j in pivots] for r in rows], [[r[c]] for r in rows])
        if sol is None:
            pivots.append(c)
            continue
        d, x = sol
        v = [0] * ncols
        v[c] = d
        for j, xr in zip(pivots, x):
            v[j] = -xr[0]
        g = gcd(*v)
        basis.append(tuple(e // g for e in v))
    return basis


def solve_unique(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[Vec]:
    """Solve a square (or overdetermined-consistent) system with a unique
    solution; None if singular or inconsistent."""
    if not rows:
        return None
    sol = solve_int(rows, [[v] for v in rhs])
    if sol is None:
        return None
    d, x = sol
    return tuple(Fraction(xr[0], d) for xr in x)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))
