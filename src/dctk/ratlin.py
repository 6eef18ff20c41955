"""Small exact linear algebra over Fractions.

Everything here works on lists of rows of :class:`fractions.Fraction`
(ints are accepted and coerced).  Sizes are desk scale; clarity over
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

Vec = Tuple[Fraction, ...]


def _as_fracs(row: Sequence) -> List[Fraction]:
    return [Fraction(v) for v in row]


def rref(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [_as_fracs(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def null_space(rows: Sequence[Sequence], ncols: int) -> List[Tuple[int, ...]]:
    """Integer basis of {x: rows @ x = 0}."""
    if not rows:
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(integerize(v))
    return basis


def integerize(v: Sequence[Fraction]) -> Tuple[int, ...]:
    """Scale a rational vector by the lcm of denominators."""
    denom = lcm(*[Fraction(x).denominator for x in v]) if v else 1
    out = [int(Fraction(x) * denom) for x in v]
    return tuple(out)


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vec]:
    """Solve a square (or overdetermined-consistent) system with a unique
    solution; None if singular or inconsistent."""
    m = [_as_fracs(r) + [Fraction(b)] for r, b in zip(rows, rhs)]
    if not m:
        return None
    ncols = len(m[0]) - 1
    red, pivots = rref(m)
    # Inconsistent: pivot in the rhs column.
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))
