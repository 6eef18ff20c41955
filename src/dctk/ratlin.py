"""Small exact linear algebra over the integers.

One fraction-free Gauss–Jordan elimination (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination") serves
every solve: it keeps the matrix in ``int`` throughout, because each
division by the previous pivot is exact, and reports a common
denominator instead of building :class:`fractions.Fraction` entries.
Callers build Fractions only for the results they return.  Where many
square submatrices of one matrix are wanted, :class:`Minors` gives their
determinants, each from the minors one size smaller, computed once.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple


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


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))
