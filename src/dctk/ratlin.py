"""Small exact linear algebra over the integers.

One fraction-free Gauss–Jordan elimination (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination),
:func:`_eliminate`, serves every solve and null space: it keeps the matrix in ``int`` throughout, because each
division by the previous pivot is exact, and reports a common
denominator instead of building :class:`fractions.Fraction` entries.
Callers build Fractions only for the results they return.
:func:`large_minors` finds the square submatrices with |det| >= 2, each
minor computed once from the minors one size smaller.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple


def _eliminate(m: List[List[int]], ncols: int) -> Tuple[List[int], int]:
    """Fraction-free Gauss–Jordan on the int rows m, in place, over their
    first ncols columns, taken in order; a column with no pivot left in
    the rows below the pivots so far is skipped.  Returns the pivot
    columns and the last pivot (1 if none): pivot row i then holds that
    pivot at its column pivots[i] and 0 at the other pivot columns, and
    the rows past the pivots are 0 on the first ncols columns.  After
    each step every entry is, up to sign, a minor of the row-permuted
    matrix, so the division by the previous pivot leaves no remainder.
    """
    pivots: List[int] = []
    prev = 1
    for c in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        rk = m[k]
        p = rk[c]
        for i, ri in enumerate(m):
            if i != k:
                f = ri[c]
                m[i] = [(p * v - f * w) // prev for v, w in zip(ri, rk)]
        prev = p
        pivots.append(c)
    return pivots, prev


def solve_int(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> Optional[Tuple[int, List[List[int]]]]:
    """Solve A·X = B over the rationals with integer arithmetic only.

    ``a`` is m rows of n ints and ``b`` is m rows of p ints (the
    right-hand-side columns side by side).  Returns ``(d, X)`` with
    ``d > 0`` and X an n-by-p list of int rows such that A·X = d·B, or
    None when A has rank < n (a column of A has no pivot) or the system
    is inconsistent, from one :func:`_eliminate` pass over [A | B].
    """
    m = [list(r) + list(s) for r, s in zip(a, b)]
    n = len(a[0]) if a else 0
    pivots, prev = _eliminate(m, n)
    if len(pivots) < n or any(v for r in m[n:] for v in r[n:]):
        return None
    sign = 1 if prev > 0 else -1
    return prev * sign, [[sign * v for v in r[n:]] for r in m[:n]]


def large_minors(a: Sequence[Sequence[int]], ncols: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Every (F, R) with |det A[R, F]| >= 2, for a column tuple F and a
    row tuple R of one size, each in increasing order, size by size.

    Each minor of size s is the Laplace expansion of A[R, F] along its
    first row, sum_j (-1)^j a[R_0, F_j] det A[R - R_0, F - F_j], read from
    the level of size s - 1.  So each minor is computed once, at most two
    levels are held, and the top one is not kept.  Nor is a row tuple
    whose minors are all 0: every minor it is the tail of is 0 too.  An
    m-row matrix has C(m + ncols, ncols) minors in all.
    """
    found: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    top = min(len(a), ncols)
    below: Dict[Tuple[int, ...], List[int]] = {(): [1]}
    index = {(): 0}  # the column tuples of the level below, by position
    for s in range(1, top + 1):
        colsets = list(combinations(range(ncols), s))
        # Per column tuple F and position j: F_j and where det A[., F - F_j]
        # sits in the level below's minors followed by their negatives.
        half = len(index)
        terms = [[(c, index[cols[:j] + cols[j + 1:]] + (half if j & 1 else 0)) for j, c in enumerate(cols)]
                 for cols in colsets]
        level: Dict[Tuple[int, ...], List[int]] = {}
        for rest, dets in below.items():
            signed = dets + [-v for v in dets]
            for r in range(rest[0] if rest else len(a)):
                row = a[r]
                new = []
                large = False
                for t in terms:
                    det = 0
                    for c, i in t:
                        v = row[c]
                        if v:
                            det += v * signed[i]
                    if det > 1 or det < -1:
                        large = True
                    new.append(det)
                rows = (r,) + rest
                if large:
                    found += [(cols, rows) for cols, det in zip(colsets, new) if abs(det) > 1]
                if s < top and any(new):
                    level[rows] = new
        below = level
        index = {cols: i for i, cols in enumerate(colsets)}
    return found


def null_space(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, ...]]:
    """Integer basis of {x: rows @ x = 0}: one primitive vector per free
    column (a column in the span of the columns before it), with a
    positive entry there and zeros at the other free columns, read off
    one :func:`_eliminate` pass.  With last pivot d, pivot row i gives
    d*x[pivots[i]] + m[i][c]*x[c] = 0 at the free column c."""
    m = [list(r) for r in rows]
    pivots, d = _eliminate(m, ncols)
    basis = []
    for c in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[c] = d
        for j, r in zip(pivots, m):
            v[j] = -r[c]
        g = gcd(*v) if d > 0 else -gcd(*v)  # so the entry at c is positive
        basis.append(tuple(e // g for e in v))
    return basis


def dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))
