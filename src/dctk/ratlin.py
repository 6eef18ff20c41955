"""Small exact linear algebra over the integers.

One fraction-free Gauss–Jordan elimination (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination),
:func:`_eliminate`, serves every solve and null space: it keeps the matrix in ``int`` throughout, because each
division by the previous pivot is exact, and reports a common
denominator instead of building :class:`fractions.Fraction` entries.
Callers build Fractions only for the results they return.  Where many
square submatrices of one matrix are wanted, :class:`Minors` gives their
determinants, each from the minors one size smaller, computed once.
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


class Minors(dict):
    """det A[R, F] as ``minors[R][F]``, for a row tuple R and a column
    tuple F of one size, each in increasing order; ``minors[()][()]`` is 1.

    The minors on the rows R, over every F, are computed together on the
    first read of ``minors[R]``: each is the Laplace expansion of A[R, F]
    along its first row, sum_j (-1)^j a[R_0, F_j] det A[R - R_0, F - F_j],
    read from ``minors[R - R_0]``, one size smaller.  So each minor is
    computed once, and a scan that stops early has computed only the row
    tuples it read and those below them.  Read in full, an m-row matrix
    has C(m + ncols, ncols) minors.
    """

    def __init__(self, a: Sequence[Sequence[int]], ncols: int):
        super().__init__({(): {(): 1}})
        self.a = a
        self.ncols = ncols
        # Per size: every column tuple with, per column, the tuple
        # without it and whether the column's position is odd.
        self.expand: Dict[int, list] = {}

    def __missing__(self, rows: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
        size = len(rows)
        if size not in self.expand:
            self.expand[size] = [
                (cols, [(c, cols[:j] + cols[j + 1:], j & 1) for j, c in enumerate(cols)])
                for cols in combinations(range(self.ncols), size)
            ]
        first, below = self.a[rows[0]], self[rows[1:]]
        dets = self[rows] = {}
        for cols, terms in self.expand[size]:
            det = 0
            for c, rest, odd in terms:
                v = first[c]
                if v:
                    det += -v * below[rest] if odd else v * below[rest]
            dets[cols] = det
        return dets

    def drop(self, size: int) -> None:
        """Forget the minors on row tuples of this size, for a scan that
        reads no more of them; those of smaller tuples stay."""
        for rows in [r for r in self if len(r) == size]:
            del self[rows]
        self.expand.pop(size, None)


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
