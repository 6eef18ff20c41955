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
import resource
import subprocess
import sys
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from dctk import ratlin
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
from dctk.errors import DomainError, Infeasible, IterationLimit, NoFeasibleWeight
from dctk.extint import MINUS_INF, PLUS_INF, ExtInt, is_finite
from dctk.mconvex import SupermodularFn, base_bounds, greedy_min, lovasz_extension
from dctk.netflow import Digraph, FlowInstance, square_sum_instance
from dctk.polyhedron import (
    EQ,
    GEQ,
    DualVector,
    LinearSystem,
    Row,
    Window,
    _basic_data,
    dilation,
    enumerate_integer_points,
    fitting_points,
    normal_cone,
    tangent_cone,
    vertex_hull_window,
)


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
T = TypeVar("T")


def child_env(**extra: str) -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH, so that a
    child process imports the dctk under test without an install."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_under_memory_limit(code: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """`python -c code` in a child whose address space is capped at 2 GB:
    a scan that builds a huge window before its first point dies there of
    MemoryError instead of filling the machine.  A child still running
    after timeout seconds is killed and raises TimeoutExpired."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), preexec_fn=cap, timeout=timeout)


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


def brute_conjugate_unbounded(phi: UnivariateConvex, ell: int, radius: int) -> ExtInt:
    """brute_conjugate over [-radius, radius], or PLUS_INF when a scan of
    twice that range finds more.  k*ell - phi(k) is concave, so a range
    that holds its maximizer gives the same value however wide; callers
    must pick a radius covering the maximizer whenever there is one."""
    near = brute_conjugate(phi, ell, -radius, radius)
    return near if near == brute_conjugate(phi, ell, -2 * radius, 2 * radius) else PLUS_INF


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


def random_weight(rng: random.Random, n: int, bound: int = 4) -> Tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def random_digraph(rng: random.Random, max_nodes: int = 4, max_arcs: int = 6) -> Digraph:
    nv = rng.randint(2, max_nodes)
    nodes = tuple(f"v{i}" for i in range(nv))
    arcs = []
    for _ in range(rng.randint(1, max_arcs)):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        while v == u:
            v = rng.randrange(nv)
        arcs.append((nodes[u], nodes[v]))
    return Digraph(nodes, tuple(arcs))


def random_flow_instance(rng: random.Random, cap: int = 3) -> FlowInstance:
    """Square-sum instance whose demand vector comes from a random
    feasible flow, so feasibility is guaranteed by construction."""
    d = random_digraph(rng)
    x0 = [rng.randint(0, cap) for _ in d.arcs]
    idx = {v: i for i, v in enumerate(d.nodes)}
    m = [0] * len(d.nodes)
    for ai, (t, h) in enumerate(d.arcs):
        m[idx[h]] += x0[ai]
        m[idx[t]] -= x0[ai]
    upper = tuple(cap for _ in d.arcs)
    return square_sum_instance(d, m, lower=(0,) * len(d.arcs), upper=upper)


def window_points(win: Window) -> Iterator[Tuple[int, ...]]:
    """Every integer point of the window, lazily, in lex order, by a plain
    recursive scan."""

    def scan(head: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if len(head) == len(win.lo):
            yield head
            return
        for t in range(win.lo[len(head)], win.hi[len(head)] + 1):
            yield from scan(head + (t,))

    return scan(())


def incidence_matrix(d: Digraph) -> List[Tuple[int, ...]]:
    """One row per node: +1 entering, -1 leaving, 0 otherwise (loops 0)."""
    rows = []
    for v in d.nodes:
        rows.append(tuple((head == v) - (tail == v) for tail, head in d.arcs))
    return rows


def naive_is_feasible_flow(inst: FlowInstance, x: Sequence[int]) -> bool:
    """One entry per arc, within its bounds, and each node's incidence row
    times x equal to its m: the oracle for FlowInstance.is_feasible_flow."""
    d = inst.digraph
    if len(x) != len(d.arcs):
        return False
    for lo, v, hi in zip(inst.lower, x, inst.upper):
        if not (lo <= v <= hi):
            return False
    for vi, row in enumerate(incidence_matrix(d)):
        if sum(c * xv for c, xv in zip(row, x)) != inst.m[vi]:
            return False
    return True


def embedding_system(inst: FlowInstance) -> LinearSystem:
    """The [incidence; identity] >= (m; 0) encoding of nonnegative
    m-flows as a linear system over the arcs.

    Because m sums to zero, the incidence inequalities are forced to
    equality at every feasible point, so the relaxation is exact while
    keeping every dual multiplier sign-constrained.
    """
    na = len(inst.digraph.arcs)
    rows = [Row(tuple(r), inst.m[i], GEQ) for i, r in enumerate(incidence_matrix(inst.digraph))]
    for j in range(na):
        rows.append(Row(tuple(1 if k == j else 0 for k in range(na)), 0, GEQ))
    return LinearSystem(tuple(f"a{i}" for i in range(na)), tuple(rows))


def enumerate_flows(inst: FlowInstance, cap: int = 10) -> List[Tuple[int, ...]]:
    """All integral flows, lex order, bounds clipped to [-cap, cap]."""
    lo = tuple(v if is_finite(v) else -cap for v in inst.lower)
    hi = tuple(v if is_finite(v) else cap for v in inst.upper)
    if any(a > b for a, b in zip(lo, hi)):
        return []  # a finite bound lies beyond the cap
    d = inst.digraph
    if not d.arcs:
        return [] if any(inst.m) else [()]
    rows = tuple(Row(r, m, EQ) for r, m in zip(incidence_matrix(d), inst.m))
    system = LinearSystem(tuple(f"a{i}" for i in range(len(d.arcs))), rows)
    return list(enumerate_integer_points(system, Window(lo, hi)))


def base_window(p: SupermodularFn, pad: int = 0) -> Window:
    """Componentwise bounds containing every integral base."""
    los, his = base_bounds(p)
    if any(not is_finite(v) for v in los + his):
        raise ValueError("unbounded base polyhedron")
    return Window(tuple(v - pad for v in los), tuple(v + pad for v in his))


def padded_hull_window(sys: LinearSystem, pad: int = 1) -> Window:
    """The vertex hull box of the system, widened by pad on each side."""
    win = vertex_hull_window(sys)
    return Window(tuple(v - pad for v in win.lo), tuple(v + pad for v in win.hi))


def materialize_table(phi: UnivariateConvex, lo: int, hi: int) -> Table:
    """Snapshot phi on [lo, hi] intersected with its domain as a Table."""
    dlo, dhi = phi.dom()
    lo = max(lo, dlo) if is_finite(dlo) else lo
    hi = min(hi, dhi) if is_finite(dhi) else hi
    if lo > hi:
        raise DomainError("window misses the effective domain")
    vals = tuple(phi.value(k) for k in range(lo, hi + 1))
    if any(not is_finite(v) for v in vals):
        raise DomainError("window contains infinite values")
    return Table(lo, vals)


def square_sum_dual_value(p: SupermodularFn, w: Sequence[int]) -> ExtInt:
    """phat(w) - sum floor(w/2)*ceil(w/2); the square-sum dual expression."""
    return lovasz_extension(p, w) - sum((v // 2) * ((v + 1) // 2) for v in w)


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


def large_coefficient_system(rng: random.Random) -> LinearSystem:
    """Rows with coefficients up to 10**6 in absolute value through a
    point of -2..2 (n = 2-3): some are a small row times a large factor,
    the rest large in every entry.  The minors run to about 10**18 and
    both probe verdicts occur."""
    n = rng.randint(2, 3)
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(n, n + 2)):
        if rng.random() < 0.5:
            scale = rng.choice((1, 7, 10**3, 10**6))
            coeffs = [scale * rng.randint(-1, 1) for _ in range(n)]
        else:
            coeffs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        kind = rng.choice((GEQ, GEQ, EQ))
        slack = 0 if kind == EQ else rng.choice((0, 0, 1, rng.randint(0, 10**6)))
        rows.append(Row(tuple(coeffs), sum(a * x for a, x in zip(coeffs, x0)) - slack, kind))
    return LinearSystem(tuple(f"x{i}" for i in range(n)), tuple(rows))


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


def frac_det(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of a square matrix by Gaussian elimination over
    Fractions, one sign flip per row swap; 1 for the empty matrix."""
    m = [[Fraction(v) for v in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    assert det.denominator == 1
    return int(det)


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
    return [z for z in window_points(win) if sys.contains(z)]


def naive_mu_form(sys: LinearSystem, Phi: SeparableConvex, win: Window):
    """(value, w) of max mu_R(w) - conj(Phi)(w) over the window, with
    mu_R from :func:`frac_lp_min`."""
    basic = frac_basic_data(sys)
    best = arg = None
    for w in window_points(win):
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


def naive_hull_minimizer(sys: LinearSystem, Phi: SeparableConvex) -> Optional[Tuple[int, ...]]:
    """The first minimizer of Phi over the integer points of the vertex
    hull box (vertices by :func:`frac_basic_data`), or None when there is
    no vertex or Phi is +inf at each point there."""
    vertices, _, _ = frac_basic_data(sys)
    if not vertices:
        return None
    cols = list(zip(*vertices))
    win = Window(tuple(floor(min(c)) for c in cols), tuple(ceil(max(c)) for c in cols))
    return first_minimum(naive_integer_points(sys, win), Phi.value)[1]


def naive_mu_form_at(sys: LinearSystem, Phi: SeparableConvex, win: Window, z):
    """(value, w) of max w.z - conj(Phi)(w) over the w in the window that
    z minimizes over the system (:func:`is_minimizer`), and the first
    maximizer in lex order; (MINUS_INF, None) when z is None or no such w
    has a finite conjugate."""
    best: ExtInt = MINUS_INF
    arg = None
    if z is None:
        return best, arg
    for w in window_points(win):
        if is_minimizer(sys, z, w):
            c = Phi.conjugate(w)
            if is_finite(c) and ratlin.dot(w, z) - c > best:
                best, arg = ratlin.dot(w, z) - c, w
    return best, arg


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


def first_minimum(points: Iterable[T], f: Callable[[T], ExtInt]) -> Tuple[ExtInt, Optional[T]]:
    """The least f over the points and the first point that attains it,
    or (PLUS_INF, None) when no point has a finite f: the full scan that
    polyhedron.separable_first_minimum prunes."""
    best: ExtInt = PLUS_INF
    arg = None
    for x in points:
        v = f(x)
        if v < best:
            best, arg = v, x
    return best, arg


def lp_min(sys: LinearSystem, w: Sequence[int]):
    """Exact min{w.x : x in R}: (value, argmin), read off the vertices,
    rays and lineality of polyhedron._basic_data.

    value is a Fraction/int, MINUS_INF if unbounded, PLUS_INF if
    infeasible; argmin is a rational vector or None.
    """
    big_d, vertices, rays, lineality = _basic_data(sys)
    if not vertices:
        return (PLUS_INF, None)
    if any(ratlin.dot(w, d) != 0 for d in lineality) or any(ratlin.dot(w, d) < 0 for d in rays):
        return (MINUS_INF, None)
    # The scaled vertices are in lex order, so the first least value is
    # at the lexicographically least argmin.
    best, v = first_minimum(vertices, functools.partial(ratlin.dot, w))
    best = Fraction(best, big_d)
    return (best.numerator if best.denominator == 1 else best, tuple(Fraction(e, big_d) for e in v))


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


def naive_basic_data(sys: LinearSystem):
    """(vertices, rays, lineality, vertex ints) by two enumerations: the
    vertices from one solve per n-subset of the rows (plus the lineality
    rows), the rays from one null space per (n-1)-subset, kept when they
    lie in the recession cone.  The vertex ints are the vertices scaled by
    the lcm big_d of their denominators, as (big_d, ints)."""
    n = sys.n
    lineality = ratlin.null_space([list(r.coeffs) for r in sys.rows], n)
    work = [(r.coeffs, r.rhs, r.kind) for r in sys.rows] + [(d, 0, EQ) for d in lineality]
    scaled = set()
    for idxs in itertools.combinations(range(len(work)), n):
        sol = ratlin.solve_int([work[i][0] for i in idxs], [[work[i][1]] for i in idxs])
        if sol is None:
            continue
        d, x = sol
        g = gcd(d, *(xr[0] for xr in x))
        d, xd = d // g, tuple(xr[0] // g for xr in x)
        if all(s == 0 if kind == EQ else s >= 0
               for s, kind in ((sum(a * v for a, v in zip(r.coeffs, xd)) - r.rhs * d, r.kind) for r in sys.rows)):
            scaled.add((d, xd))
    vertices = sorted(tuple(Fraction(v, d) for v in xd) for d, xd in scaled)
    recession = LinearSystem(sys.elements, tuple(Row(c, 0, kind) for c, _, kind in work))
    edges = set()
    for idxs in itertools.combinations(range(len(work)), n - 1):
        basis = ratlin.null_space([work[i][0] for i in idxs], n)
        if len(basis) == 1:
            edges.update((basis[0], tuple(-v for v in basis[0])))
    rays = sorted(d for d in edges if recession.contains(d))
    big_d = lcm(*(d for d, _ in scaled))
    ints = [tuple(x.numerator * (big_d // x.denominator) for x in v) for v in vertices]
    return vertices, rays, lineality, (big_d, ints)


def naive_extreme_rays(rows: Sequence[Row], d: int) -> set:
    """The extreme rays of the pointed cone that the rows (right-hand sides
    0) cut out of R^d, by subset enumeration: each (d-1)-subset of the
    rows whose kernel is a line gives its primitive vectors +-v, kept if
    they lie in the cone."""
    seen, rays = set(), set()
    for subset in itertools.combinations(rows, d - 1):
        kernel = ratlin.null_space([r.coeffs for r in subset], d)
        if len(kernel) != 1 or kernel[0] in seen:
            continue
        pair = (kernel[0], tuple(-e for e in kernel[0]))
        seen.update(pair)
        rays.update(v for v in pair if all(r.satisfied_by(v) for r in rows))
    return rays


def box_rows(n: int, hi: int) -> List[Row]:
    """0 <= x_j <= hi for each j."""
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return [row for e in units for row in (Row(e, 0, GEQ), Row(tuple(-v for v in e), -hi, GEQ))]


def cube_system(n: int) -> LinearSystem:
    """The cube 0 <= x <= 4 in n variables."""
    return LinearSystem(tuple(f"x{j}" for j in range(n)), tuple(box_rows(n, 4)))


def interval_system(n: int) -> LinearSystem:
    """The TU interval rung of the growth ladder: the cube 0 <= x <= 4 plus
    n seeded rows x_a + ... + x_b <= c, with c below 4 (b - a + 1) so that
    each can be tight at a vertex: 3n rows in n variables."""
    rng = random.Random(n)
    rows = box_rows(n, 4)
    for _ in range(n):
        a = rng.randrange(n)
        b = rng.randrange(a, n)
        c = rng.randint(2, 4 * (b - a + 1) - 1)
        rows.append(Row(tuple(-int(a <= j <= b) for j in range(n)), -c, GEQ))
    return LinearSystem(tuple(f"x{j}" for j in range(n)), tuple(rows))


# ---------------------------------------------------------------------------
# Inverse optimization, by one exact LP per weight


@functools.lru_cache(maxsize=None)
def _cached_basic_data(elements, rows):
    return frac_basic_data(LinearSystem(elements, rows))


def is_minimizer(sys: LinearSystem, z0: Sequence[int], w: Sequence[int]) -> bool:
    """z0 minimizes w over the system: the Fraction LP minimum equals w.z0."""
    val, _ = frac_lp_min(_cached_basic_data(sys.elements, sys.rows), w)
    return val == sum(a * b for a, b in zip(w, z0))


def naive_inverse_minimize(parent: LinearSystem, targets, deviation: SeparableConvex, w_window: Window):
    """(w, value) of the cheapest w in the window that makes the targets
    optimal, by one exact LP per w in lex order (the first least value
    wins); the k targets become their sum on the k-dilation."""
    z0 = tuple(sum(t[i] for t in targets) for i in range(parent.n))
    sys = dilation(parent, len(targets))
    best: ExtInt = PLUS_INF
    arg = None
    for w in window_points(w_window):
        if is_minimizer(sys, z0, w):
            v = deviation.value(w)
            if v < best:
                best, arg = v, w
    if arg is None:
        raise NoFeasibleWeight("no integral cost in the window makes the target optimal")
    return arg, best


def naive_find_weight_in_box(sys: LinearSystem, z_star, ell, u, w_window: Window):
    """First w in lex order in the window and in [ell, u] that z* minimizes
    by one exact LP per w; None if there is none."""
    for w in window_points(w_window):
        if all((not is_finite(l) or l <= wi) and (not is_finite(v) or wi <= v)
               for l, wi, v in zip(ell, w, u)) and is_minimizer(sys, z_star, w):
            return w
    return None


def find_weight_in_box(
    sys: LinearSystem,
    z_star: Sequence[int],
    ell: Sequence[ExtInt],
    u: Sequence[ExtInt],
    w_window: Window,
) -> Optional[Tuple[int, ...]]:
    """First integral w in lex order in the window and in [ell, u] with
    mu_R(w) = w.z*: the first of polyhedron.fitting_points on the normal
    cone at z*; None if there is none.  The weight certificate at a given
    point, which naive_find_weight_in_box checks by one exact LP per w."""
    cone = normal_cone(tangent_cone(sys, z_star))
    units = [tuple(int(i == j) for i in range(sys.n)) for j in range(sys.n)]
    return next(fitting_points(ell, u, units, w_window, cone.rows), None)


def rooted_squares(n: int, root: int) -> SupermodularFn:
    """p(X) = |X|^2, finite on the empty set and the sets holding `root`.
    Rooted at two elements, two such sides meet in a bounded set although
    the meet of their base boxes is unbounded below off the roots."""
    return SupermodularFn(n, tuple(bin(x).count("1") ** 2 if x == 0 or x >> root & 1 else MINUS_INF
                                   for x in range(1 << n)))


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


def large_slope_objective(rng: random.Random, elements: Sequence[str]) -> SeparableConvex:
    """Per element a V or a flat bottom with both slopes up to 10**6 in
    size, so the conjugate is finite almost everywhere and large."""
    parts = []
    for e in elements:
        c1, c2, k = rng.randint(1, 10**6), rng.randint(1, 10**6), rng.randint(-2, 2)
        parts.append((e, rng.choice((VShape(k, -c1, c2), FlatBottom(k, k + 1, -c1, c2, k - 3, k + 3)))))
    return SeparableConvex(tuple(parts))


# ---------------------------------------------------------------------------
# Mask tables, by one sum or one pair at a time


def pair_scan_violation(table: Sequence[ExtInt]) -> Optional[Tuple[int, int]]:
    """The lex-first pair of non-nested finite masks x < y with
    p(x) + p(y) > p(x & y) + p(x | y) (a MINUS_INF meet or join counts),
    or None: the all-pairs definition of supermodularity."""
    for x, y in itertools.combinations(range(len(table)), 2):
        if x & y in (x, y) or not is_finite(table[x]) or not is_finite(table[y]):
            continue
        if table[x] + table[y] > table[x & y] + table[x | y]:
            return x, y
    return None


def subset_sum(z: Sequence[int], mask: int) -> int:
    return sum(v for i, v in enumerate(z) if mask >> i & 1)


def naive_tight_sets(p: SupermodularFn, z: Sequence[int]) -> List[int]:
    return [x for x in range(1, p.full + 1)
            if is_finite(p.table[x]) and subset_sum(z, x) == p.table[x]]


def naive_member(p: SupermodularFn, z: Sequence[int]) -> bool:
    return subset_sum(z, p.full) == p.table[p.full] and all(
        subset_sum(z, x) >= p.table[x] for x in range(p.full) if is_finite(p.table[x]))


def naive_dependence(p: SupermodularFn, z: Sequence[int]) -> List[int]:
    """dep[s]: the AND of the z-tight masks holding s (S when none do)."""
    return [functools.reduce(int.__and__, (x for x in naive_tight_sets(p, z) if x >> s & 1), p.full)
            for s in range(p.n)]


# ---------------------------------------------------------------------------
# M-convex descent and its certificate, by membership tests and rescans


def naive_minimize_separable(p: SupermodularFn, Phi: SeparableConvex) -> Tuple[int, ...]:
    """The unit-exchange descent with every candidate move tried: move,
    test membership by the 2^n scan, evaluate afresh, undo.  Same start,
    budget, errors and tie-breaking (largest strict decrease, then (s, t)
    lexicographic) as the library.  Where Phi is infinite at the greedy
    base, the descent first runs on the summed distance of each
    coordinate to its part's domain."""
    z = list(greedy_min(p, (0,) * p.n))
    if not is_finite(Phi.value(z)):
        doms = [phi.dom() for _, phi in Phi.parts]
        if all(lo <= hi for lo, hi in doms):
            z = naive_descend(p, lambda x: sum(max(lo - v, 0, v - hi) for v, (lo, hi) in zip(x, doms)), z)
        if not is_finite(Phi.value(z)):
            raise Infeasible("no base where the objective is finite")
    return tuple(naive_descend(p, Phi.value, z))


def naive_descend(p: SupermodularFn, f, z: List[int]) -> List[int]:
    """z after steepest unit exchanges, each found by trying every move,
    until none strictly lowers f."""
    cur = f(z)
    for _ in range(10 * p.n * 1000 + 1000):
        best_drop = 0
        best_move = None
        for s in range(p.n):
            for t in range(p.n):
                if s == t:
                    continue
                z[s] -= 1
                z[t] += 1
                if naive_member(p, z):
                    v = f(z)
                    if is_finite(v) and cur - v > best_drop:
                        best_drop, best_move = cur - v, (s, t)
                z[s] += 1
                z[t] -= 1
        if best_move is None:
            return z
        s, t = best_move
        z[s] -= 1
        z[t] += 1
        cur -= best_drop
    raise IterationLimit("descent budget exhausted")


def naive_dual_certificate(p: SupermodularFn, Phi: SeparableConvex, z: Sequence[int]) -> Tuple[int, ...]:
    """w with w(s) the least right slope over the smallest z-tight set
    holding s, found by its own 2^n rescan for each s.  An infinite slope
    counts as the greatest finite slope at z (the least, for MINUS_INF),
    or 0 when z has none."""
    right = Phi.prime(z)
    finite = sorted(v for v in right + Phi.prime_minus(z) if is_finite(v)) or [0]
    clipped = [v if is_finite(v) else finite[-1] if v is PLUS_INF else finite[0] for v in right]
    return tuple(min(clipped[t] for t in range(p.n) if smallest >> t & 1)
                 for smallest in naive_dependence(p, z))
