"""Shared oracles and corpus builders for the test suite.

Oracles here are deliberately naive (exhaustive scans) and independent
of the library's search logic, so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
import random
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from dctk.conjugate import (
    FlatBottom,
    LinearPlus,
    Quadratic,
    Restricted,
    SeparableConvex,
    Shifted,
    SumOf,
    Table,
    UnivariateConvex,
    VShape,
    square_sum,
)
from dctk.errors import Inconclusive, IterationLimit, NoFeasibleWeight
from dctk.extint import MINUS_INF, PLUS_INF, ExtInt, is_finite
from dctk.fixtures import random_digraph
from dctk.mconvex import SupermodularFn, greedy_min, lovasz_extension, member
from dctk.netflow import embedding_system, square_sum_instance
from dctk.polyhedron import EQ, GEQ, DualVector, LinearSystem, Row, Window, dilation


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def child_env(**extra: str) -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH, so that a
    child process imports the dctk under test without an install."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


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


def random_large_slope_form(rng: random.Random) -> UnivariateConvex:
    """A closed-form shape with slopes up to 10**6 in size and an effective
    domain of at most 121 points inside [-400, 400]."""
    A = rng.randint(-400, 280)
    B = A + rng.randint(0, 120)

    def big():
        return rng.randint(0, 10**6)

    kind = rng.randrange(5)
    if kind == 0:
        inner: UnivariateConvex = Shifted(rng.randint(-500, 500), Quadratic(rng.randint(1, 50)))
        return Restricted(A, B, LinearPlus(rng.randint(-10**6, 10**6), inner))
    if kind == 1:
        c1 = -big()
        return VShape(rng.randint(A, B), c1, c1 + big(), A, B)
    if kind == 2:
        a = rng.randint(A, B)
        return FlatBottom(a, rng.randint(a, B), -big(), big(), A, B)
    if kind == 3:
        c1 = -big()
        return Restricted(A, B, VShape(rng.randint(-500, 500), c1, c1 + big()))
    inner = FlatBottom(MINUS_INF, rng.randint(-500, 500), -big(), big())
    return Shifted(rng.randint(-20, 20), Restricted(A, B, LinearPlus(rng.randint(-10**6, 10**6), inner)))


def dom_range(phi: UnivariateConvex) -> Tuple[int, int]:
    lo, hi = phi.dom()
    assert is_finite(lo) and is_finite(hi)
    return lo, hi


def random_flow_embedding(rng: random.Random) -> LinearSystem:
    """Embedding of a random digraph (<= 3 nodes, <= 3 arcs) whose demand
    comes from a random flow, so the system is feasible."""
    d = random_digraph(rng, max_nodes=3, max_arcs=3)
    m = [0] * len(d.nodes)
    for t, h in d.arcs:
        f = rng.randint(0, 2)
        m[d.nodes.index(h)] += f
        m[d.nodes.index(t)] -= f
    return embedding_system(square_sum_instance(d, m))


def random_integer_system(rng: random.Random) -> LinearSystem:
    """Small rows with coefficients in [-3, 3]: many have fractional
    vertices, so the probe's witness path is exercised."""
    n = rng.randint(2, 3)
    rows = tuple(
        Row(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4),
            rng.choice((GEQ, GEQ, EQ)))
        for _ in range(rng.randint(n, n + 3))
    )
    return LinearSystem(tuple(f"x{i}" for i in range(n)), rows)


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


# ---------------------------------------------------------------------------
# The dual searches and the exact LP, by plain scans


def naive_dual_search(sys: LinearSystem, Phi: SeparableConvex, y_bound: int):
    """(value, y, support_size, bounds_used) of the integer dual search by
    one DualVector and one full conjugate per y, in lex order."""
    n = sys.n
    best: ExtInt = MINUS_INF
    arg = None
    support_ok = False
    ranges = [
        range(0, y_bound + 1) if r.kind == GEQ else range(-y_bound, y_bound + 1)
        for r in sys.rows
    ]
    for yv in itertools.product(*ranges):
        y = DualVector(yv)
        conj = Phi.conjugate(y.times_q(sys))
        if not is_finite(conj):
            continue
        val = y.times_p(sys) - conj
        if val > best:
            best, arg = val, y
            support_ok = y.support() <= 2 * n
        elif val == best:
            support_ok = support_ok or y.support() <= 2 * n
    return (
        best,
        arg,
        arg.support() if arg else 0,
        {"y_bound": y_bound, "support_within_2n": support_ok},
    )


def naive_integer_points(sys: LinearSystem, win: Window) -> List[Tuple[int, ...]]:
    """Every point of the window that satisfies every row, lex order."""
    return [z for z in win.points() if sys.contains(z)]


def naive_mu_form(sys: LinearSystem, Phi: SeparableConvex, win: Window):
    """(value, w) of max mu_R(w) - conj(Phi)(w) over the window, with
    mu_R from :func:`frac_lp_min`."""
    basic = frac_basic_data(sys)
    best = arg = None
    for w in win.points():
        mv, _ = frac_lp_min(basic, w)
        if mv is MINUS_INF or mv is PLUS_INF:
            continue
        c = Phi.conjugate(w)
        if not is_finite(c):
            continue
        if best is None or mv - c > best:
            best, arg = mv - c, w
    if isinstance(best, Fraction) and best.denominator == 1:
        best = best.numerator
    return (MINUS_INF if best is None else best), arg


def naive_m2_split(p1: SupermodularFn, p2: SupermodularFn, Phi: SeparableConvex, w_bound: int):
    """(value, (w1, w2)) of the best weight splitting, by the full grid of
    pairs with the sum built as a tuple (and its conjugate kept by that
    tuple)."""
    grid = list(itertools.product(range(-w_bound, w_bound + 1), repeat=p1.n))
    ext1 = {w: lovasz_extension(p1, w) for w in grid}
    ext2 = {w: lovasz_extension(p2, w) for w in grid}
    conj = {}
    best: ExtInt = MINUS_INF
    arg = None
    for w1 in grid:
        a = ext1[w1]
        if a is MINUS_INF:
            continue
        for w2 in grid:
            b = ext2[w2]
            if b is MINUS_INF:
                continue
            wsum = tuple(x + y for x, y in zip(w1, w2))
            if wsum not in conj:
                conj[wsum] = Phi.conjugate(wsum)
            c = conj[wsum]
            if not is_finite(c):
                continue
            if a + b - c > best:
                best, arg = a + b - c, (w1, w2)
    return best, arg


def frac_basic_data(sys: LinearSystem):
    """(vertices, rays, lineality) by one Fraction solve per basis."""
    n = sys.n
    lineality = frac_null_space([list(r.coeffs) for r in sys.rows], n)
    work = [(r.coeffs, r.rhs, r.kind) for r in sys.rows] + [(d, 0, EQ) for d in lineality]
    vertices = set()
    for idxs in itertools.combinations(range(len(work)), n):
        x = frac_solve_unique([work[i][0] for i in idxs], [work[i][1] for i in idxs])
        if x is not None and sys.contains(x):
            vertices.add(x)
    rays = set()
    for idxs in itertools.combinations(range(len(work)), n - 1):
        basis = frac_null_space([work[i][0] for i in idxs], n)
        if len(basis) != 1:
            continue
        for d in (basis[0], tuple(-v for v in basis[0])):
            dots = [(sum(c * v for c, v in zip(coeffs, d)), kind) for coeffs, _, kind in work]
            if all(v == 0 if kind == EQ else v >= 0 for v, kind in dots):
                rays.add(d)
    return sorted(vertices), sorted(rays), lineality


def frac_lp_min(basic, w: Sequence[int]):
    """(value, argmin) of min w.x by a Fraction scan of the vertices in
    basic = frac_basic_data(sys); the value is an int when integral."""
    vertices, rays, lineality = basic
    if not vertices:
        return (PLUS_INF, None)
    if any(sum(a * b for a, b in zip(w, d)) != 0 for d in lineality):
        return (MINUS_INF, None)
    if any(sum(a * b for a, b in zip(w, d)) < 0 for d in rays):
        return (MINUS_INF, None)
    best, arg = min((sum(a * b for a, b in zip(w, v)), v) for v in vertices)
    return (best.numerator if best.denominator == 1 else best, arg)


# ---------------------------------------------------------------------------
# Inverse optimization, by one exact LP per weight


@functools.lru_cache(maxsize=None)
def _cached_basic_data(elements, rows):
    return frac_basic_data(LinearSystem(elements, rows))


def is_minimizer(sys: LinearSystem, z0: Sequence[int], w: Sequence[int]) -> bool:
    """z0 minimizes w over the system: the Fraction LP minimum equals w.z0."""
    val, _ = frac_lp_min(_cached_basic_data(sys.elements, sys.rows), w)
    return val == sum(a * b for a, b in zip(w, z0))


def naive_inverse_minimize(inst, w_window: Window):
    """(w, value) of the cheapest w in the window that makes the targets
    optimal, by one exact LP per w in lex order (the first least value
    wins); the k targets become their sum on the k-dilation."""
    targets = inst.targets
    z0 = tuple(sum(t[i] for t in targets) for i in range(inst.parent.n))
    sys = dilation(inst.parent, len(targets))
    best: ExtInt = PLUS_INF
    arg = None
    for w in w_window.points():
        if is_minimizer(sys, z0, w):
            v = inst.deviation.value(w)
            if v < best:
                best, arg = v, w
    if arg is None:
        raise NoFeasibleWeight("no integral cost in the window makes the target optimal")
    return arg, best


def naive_find_weight_in_box(sys: LinearSystem, z_star, ell, u, w_window: Window):
    """First w in lex order in the window and in [ell, u] that z* minimizes
    by one exact LP per w; None if there is none."""
    for w in w_window.points():
        if all((not is_finite(l) or l <= wi) and (not is_finite(v) or wi <= v)
               for l, wi, v in zip(ell, w, u)) and is_minimizer(sys, z_star, w):
            return w
    return None


def random_search_objective(rng: random.Random, elements: Sequence[str]) -> SeparableConvex:
    """An objective for the dual searches: the square sum, or per element
    one of large slopes (|c| up to 10**6), a bounded domain, or slopes
    -1/+1 on all of Z (whose conjugate is infinite off [-1, 1], so most
    sums stop at an infinite component)."""
    if rng.random() < 0.25:
        return square_sum(elements)
    parts = []
    for e in elements:
        kind = rng.randrange(4)
        if kind == 0:
            c1 = -rng.randint(0, 10**6)
            phi: UnivariateConvex = VShape(rng.randint(-2, 2), c1, c1 + rng.randint(0, 2 * 10**6))
        elif kind == 1:
            A = rng.randint(-3, 1)
            phi = Restricted(A, A + rng.randint(0, 3), Quadratic(rng.randint(1, 3)))
        elif kind == 2:
            a = rng.randint(-2, 1)
            phi = FlatBottom(a, a + rng.randint(0, 1), -rng.randint(1, 10**6),
                             rng.randint(1, 10**6), a - 2, a + 3)
        else:
            phi = VShape(rng.randint(-1, 1), -1, 1)
        parts.append((e, phi))
    return SeparableConvex(tuple(parts))


# ---------------------------------------------------------------------------
# M-convex descent and its certificate, by membership tests and rescans


def naive_minimize_separable(p: SupermodularFn, Phi: SeparableConvex) -> Tuple[int, ...]:
    """The unit-exchange descent with every candidate move tried: move,
    test membership by the 2^n scan, evaluate Phi afresh, undo.  Same
    start, budget, errors and tie-breaking (largest strict decrease,
    then (s, t) lexicographic) as the library."""
    z = list(greedy_min(p, (0,) * p.n))
    cur = Phi.value(z)
    if not is_finite(cur):
        raise Inconclusive("objective infinite at the starting base")
    for _ in range(10 * p.n * 1000 + 1000):
        best_drop = 0
        best_move = None
        for s in range(p.n):
            for t in range(p.n):
                if s == t:
                    continue
                z[s] -= 1
                z[t] += 1
                if member(p, z):
                    v = Phi.value(z)
                    if is_finite(v) and cur - v > best_drop:
                        best_drop, best_move = cur - v, (s, t)
                z[s] += 1
                z[t] -= 1
        if best_move is None:
            return tuple(z)
        s, t = best_move
        z[s] -= 1
        z[t] += 1
        cur -= best_drop
    raise IterationLimit("descent budget exhausted")


def naive_dual_certificate(p: SupermodularFn, Phi: SeparableConvex, z: Sequence[int]):
    """(w, notes) with w(s) the least right slope over the smallest z-tight
    set holding s, found by its own 2^n rescan for each s."""
    right, left = Phi.prime(z), Phi.prime_minus(z)
    w, notes = [], []
    for s in range(p.n):
        smallest = p.full
        for mask in range(1, p.full + 1):
            v = p.table[mask]
            tight = is_finite(v) and sum(z[i] for i in range(p.n) if mask >> i & 1) == v
            if tight and mask >> s & 1:
                smallest &= mask
        m = min((right[t] for t in range(p.n) if smallest >> t & 1), default=PLUS_INF)
        if not is_finite(m):
            m = left[s] if is_finite(left[s]) else 0
            notes.append(f"element {p.elements[s]}: all right slopes infinite, substituted {m}")
        w.append(m)
    return tuple(w), tuple(notes)
