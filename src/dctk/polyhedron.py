"""Integral linear systems [Q'x >= p', Q=x = p=] at desk scale.

One lazy lex-order kernel lists a system's integer points in a box
(:func:`enumerate_integer_points`), and one bound-pruned kernel finds
their first least separable convex sum, plus convex terms of linear
forms, without listing them (:func:`separable_first_minimum`).  Also
vertices, rays and emptiness from the extreme rays of one homogenized
cone, found by double description (:func:`_extreme_rays`), tangent
cones (from the same function) and their normal cones as systems,
dual searches for the separable-convex min-max formulas, the
disjoint-pair feasibility test, dilations, and a box-integrality probe.
Arithmetic is exact; witnesses are lex-least.

Both duals read their answer at one primal point z: the one passed,
else the first minimizer of Phi in the vertex hull box.  The integer
dual's y worth Phi(z), the most weak duality allows, are the integer
points of one small system (complementary slackness at z and the
fitting box of z), whose lex-first point is the first maximizer.  Only
when that system is empty does it run the separable kernel, once, over
its y box: the slack terms y_i slack_i are its parts and the conjugate
terms of w = yQ its forms.  The mu-form runs the separable kernel once,
on the normal cone at z read off the vertex table, with no exact LP.

The box probe takes the bases worth eliminating from
:func:`ratlin.large_minors`: a basis with minor 0 is singular and one
with minor +-1 gives only integral points, so only those with |minor|
>= 2 are eliminated.  The fixed coordinates' values of each are scanned
with the integer-point kernel, on the window and system rows written
over those values.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, List, Optional, Sequence, Tuple

from . import ratlin
from .conjugate import SeparableConvex, _Memo, conjugate_eval
from .errors import CriteriaViolated, DomainError, NotFeasible, require
from .extint import MINUS_INF, PLUS_INF, ExtInt, is_finite
from .extint import to_json as ext_to_json

GEQ = "geq"
EQ = "eq"


@dataclass(frozen=True)
class Row:
    coeffs: Tuple[int, ...]
    rhs: int
    kind: str

    def __post_init__(self):
        if self.kind not in (GEQ, EQ):
            raise ValueError(f"row kind must be {GEQ!r} or {EQ!r}")
        # Elimination is exact only over int; bool is not a number here.
        if not all(type(v) is int for v in (*self.coeffs, self.rhs)):
            raise ValueError("row coefficients and rhs must be integers")

    def satisfied_by(self, x: Sequence) -> bool:
        lhs = ratlin.dot(self.coeffs, x)
        return lhs == self.rhs if self.kind == EQ else lhs >= self.rhs

    def slack(self, x: Sequence):
        return ratlin.dot(self.coeffs, x) - self.rhs


def check_elements(elements) -> Tuple[str, ...]:
    """The element names as a tuple, if they are a list (or tuple) of
    distinct strings; a string would be split into its characters."""
    if not isinstance(elements, (list, tuple)) or not all(isinstance(e, str) for e in elements):
        raise ValueError("elements must be a list of strings")
    if len(set(elements)) < len(elements):
        raise ValueError("elements must be distinct")
    return tuple(elements)


@dataclass
class LinearSystem:
    elements: Tuple[str, ...]
    rows: Tuple[Row, ...]
    _basic: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.elements = check_elements(self.elements)
        self.rows = tuple(self.rows)
        if not self.elements:
            raise ValueError("need at least one element")
        if not self.rows:
            raise ValueError("need at least one row")
        n = len(self.elements)
        for r in self.rows:
            if len(r.coeffs) != n:
                raise ValueError("row length does not match ground set")

    @property
    def n(self) -> int:
        return len(self.elements)

    def contains(self, x: Sequence) -> bool:
        _check_width(self, x, "point")
        return all(r.satisfied_by(x) for r in self.rows)

    def to_json(self):
        return {
            "elements": list(self.elements),
            "rows": [
                {"coeffs": list(r.coeffs), "rhs": r.rhs, "kind": r.kind}
                for r in self.rows
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "LinearSystem":
        rows = []
        elements, rows_obj = (require(obj, k, "system: missing") for k in ("elements", "rows"))
        for i, r in enumerate(rows_obj):
            coeffs, rhs, kind = (require(r, k, f"row {i}: missing") for k in ("coeffs", "rhs", "kind"))
            rows.append(Row(tuple(coeffs), rhs, kind))
        return cls(elements, tuple(rows))


@dataclass(frozen=True)
class Window:
    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi length mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("need lo <= hi componentwise")

    @classmethod
    def uniform(cls, n: int, lo: int, hi: int) -> "Window":
        return cls((lo,) * n, (hi,) * n)

    def __contains__(self, x) -> bool:
        return all(l <= v <= h for l, v, h in zip(self.lo, x, self.hi))

    def to_json(self):
        return {"lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class DualVector:
    y: Tuple[int, ...]

    def support(self) -> int:
        return sum(1 for v in self.y if v != 0)

    def is_sign_feasible(self, sys: LinearSystem) -> bool:
        return all(
            v >= 0 for v, r in zip(self.y, sys.rows) if r.kind == GEQ
        )

    def times_q(self, sys: LinearSystem) -> Tuple[int, ...]:
        return tuple(
            sum(v * r.coeffs[j] for v, r in zip(self.y, sys.rows))
            for j in range(sys.n)
        )

    def times_p(self, sys: LinearSystem) -> int:
        return sum(v * r.rhs for v, r in zip(self.y, sys.rows))


@dataclass
class MinMaxReport:
    primal_value: object = None
    dual_value: object = None
    primal_witness: Optional[Tuple[int, ...]] = None
    dual_witness: object = None
    equality: bool = False
    support_size: int = 0
    bounds_used: dict = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    def to_json(self):
        def enc(v):
            if v is None:
                return None
            if isinstance(v, int):
                return v
            if isinstance(v, DualVector):
                return list(v.y)
            if isinstance(v, (tuple, list)):
                return [enc(x) for x in v]
            return ext_to_json(v)

        return {
            "primal_value": enc(self.primal_value),
            "dual_value": enc(self.dual_value),
            "primal_witness": enc(self.primal_witness),
            "dual_witness": enc(self.dual_witness),
            "equality": self.equality,
            "support_size": self.support_size,
            "bounds_used": self.bounds_used,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Enumeration and exact LP


def _check_width(sys: LinearSystem, x: Sequence, what: str) -> None:
    if len(x) != sys.n:
        raise ValueError(f"{what} length {len(x)} does not match the system's {sys.n} elements")


def _rooms(sys: LinearSystem, lo: Sequence[int], hi: Sequence[int]):
    """For a depth-first scan of the box lo..hi: each row a.x >= b (and the
    negation of an equality row) has a room, its largest value over the
    box given the coordinates fixed so far, minus b.  Returns the rooms;
    clip(i, room), the x_i that keep every room >= 0 (x_i >= hi_i - room //
    a_i if a_i > 0, x_i <= lo_i + room // -a_i if a_i < 0); and fix(i,
    room, t), the rooms once x_i = t."""
    _check_width(sys, lo, "window")
    rows = [(r.coeffs, r.rhs) for r in sys.rows]
    rows += [(tuple(-a for a in r.coeffs), -r.rhs) for r in sys.rows if r.kind == EQ]
    room = [sum(a * (h if a > 0 else l) for a, l, h in zip(c, lo, hi)) - b for c, b in rows]
    # Per coordinate i: (row, a_i, the row's largest term a_i * x_i) where a_i != 0.
    cols = [
        [(k, c[i], c[i] * (hi[i] if c[i] > 0 else lo[i])) for k, (c, _) in enumerate(rows) if c[i]]
        for i in range(sys.n)
    ]

    def clip(i: int, room: List[int]) -> Tuple[int, int]:
        a, b = lo[i], hi[i]
        for k, c, _ in cols[i]:
            if c > 0:
                a = max(a, hi[i] - room[k] // c)
            else:
                b = min(b, lo[i] + room[k] // -c)
        return a, b

    def fix(i: int, room: List[int], t: int) -> List[int]:
        fixed = room.copy()
        for k, c, top in cols[i]:
            fixed[k] += c * t - top
        return fixed

    return room, clip, fix


def enumerate_integer_points(sys: LinearSystem, win: Window) -> Iterator[Tuple[int, ...]]:
    """The integer points of the system in the window, lazily, in lex
    order: a depth-first scan that tries only the values :func:`_rooms`
    clips to.  A row with no room at the start, such as 0 >= 1, admits no
    point; else a prefix that no completion meets is dropped, and a full
    point meets every row."""
    room, clip, fix = _rooms(sys, win.lo, win.hi)
    last = sys.n - 1

    def scan(i: int, head: Tuple[int, ...], room: List[int]) -> Iterator[Tuple[int, ...]]:
        a, b = clip(i, room)
        for t in range(a, b + 1):
            if i == last:
                yield head + (t,)
            else:
                yield from scan(i + 1, head + (t,), fix(i, room, t))

    return scan(0, (), room) if min(room) >= 0 else iter(())


def _first_argmin(f: _Memo, a: int, b: int) -> Optional[int]:
    """The first argmin of a convex f on a..b, by bisection on its slope,
    or None when a > b."""
    return a + bisect_left(range(a, b), True, key=lambda t: f[t + 1] >= f[t]) if a <= b else None


def separable_first_minimum(sys: LinearSystem, win: Window, parts: Sequence[tuple],
                            forms: Sequence[tuple] = ()) -> Tuple[ExtInt, Optional[tuple]]:
    """The least sum_j f_j(x_j) + sum_k g_k(a_k.x) over the system's integer
    points in the window, and the first point in lex order that attains
    it, or (PLUS_INF, None) when no point has a finite sum; without
    listing every point.

    Per coordinate, parts holds (f_j, lo_j, hi_j): a convex function, read
    once per value through a memo, finite exactly on [lo_j, hi_j], which
    cut the window.  forms holds convex terms of linear forms
    (a_k, g_k, lo_k, hi_k), g_k finite exactly on [lo_k, hi_k]; that
    interval, cut to the values a_k.x takes over the window, becomes two
    rows, so the rooms of the scan carry the interval a_k.x can still
    reach.  Each function's least value and first argmin (m_j, mu_k), by
    bisection on the slope, come first; the parts' suffix sums plus the
    forms' least values bound every completion.  A prefix not below the
    best by that bound is dropped, and the loop over x_i then stops if
    x_i >= m_i, past which the part does not fall.  A prefix is also
    skipped when its gap, what the forms at mu_k clamped to their
    reachable intervals add to that bound, lifts it to the best; as the
    least of a convex function over a sliding interval, the gap is convex
    in x_i, so the loop stops there if the lifted bound is not below the
    last one computed.  Every value the clip leaves the last coordinate
    completes a point, so with no forms m clamped to them is its
    lex-first minimizer, one read per prefix (Murota, Discrete Convex
    Analysis, 2003); with forms the value there is convex in x_last and
    is walked up from the low end while it falls.  A part or form finite
    nowhere raises DomainError when the system has a point in the
    window, as the full scan does."""
    _check_width(sys, win.lo, "window")  # zip below would drop extra coordinates
    fs = [_Memo(f) for f, _, _ in parts]
    span = [(max(a, l), min(b, h)) for (_, a, b), l, h in zip(parts, win.lo, win.hi)]
    try:
        # Each part's first argmin m_j, then each form's mu_k.
        m = [_first_argmin(f, a, b) for f, (a, b) in zip(fs, span)]
        if forms and None not in m:
            gs = [_Memo(g) for _, g, _, _ in forms]
            cuts = [(max(lo, sum(min(c * a, c * b) for c, (a, b) in zip(coeffs, span))),
                     min(hi, sum(max(c * a, c * b) for c, (a, b) in zip(coeffs, span))))
                    for coeffs, _, lo, hi in forms]
            m += [_first_argmin(g, a, b) for g, (a, b) in zip(gs, cuts)]
    except DomainError:
        if next(enumerate_integer_points(sys, win), None) is not None:
            raise
        return PLUS_INF, None
    if None in m:
        return PLUS_INF, None
    last = sys.n - 1
    floor = 0
    if forms:
        # Per form: its memo, mu_k, its cut interval lo..hi, the index r of
        # its lower row, whose room is max a.x - lo (the upper row's, r + 1,
        # is hi - min a.x), and c = a_last with lo - c * top, top the end of
        # the last span that room was taken at: once x_last = t, a.x =
        # room[r] + lo - c * top + c * t.
        reach, rows = [], list(sys.rows)
        for (coeffs, *_), g, k, (lo, hi) in zip(forms, gs, m[sys.n:], cuts):
            c = coeffs[last]
            reach.append((g, k, lo, hi, len(rows), c, lo - c * span[last][c > 0]))
            rows += [Row(tuple(coeffs), lo, GEQ), Row(tuple(-v for v in coeffs), -hi, GEQ)]
        sys = LinearSystem(sys.elements, tuple(rows))
        floor = sum(g[k] for g, k, *_ in reach)

        def gap(room: List[int]) -> int:
            return sum(g[min(max(k, hi - room[r + 1]), lo + room[r])] for g, k, lo, hi, r, _, _ in reach) - floor

        def at_last(room: List[int], t: int) -> int:
            return fs[last][t] + sum(g[room[r] + base + c * t] for g, _, _, _, r, c, base in reach)

    room, clip, fix = _rooms(sys, *zip(*span))
    bound = list(itertools.accumulate(reversed([f[mj] for f, mj in zip(fs, m)]), initial=floor))[::-1]
    best, arg = PLUS_INF, None

    def scan(i: int, head: Tuple[int, ...], room: List[int], value: int) -> None:
        nonlocal best, arg
        a, b = clip(i, room)
        if i == last:
            if a > b:
                return
            if forms:
                t, v = a, at_last(room, a)
                while t < b and (w := at_last(room, t + 1)) < v:
                    t, v = t + 1, w
            else:
                t = min(max(m[i], a), b)
                v = fs[i][t]
            if value + v < best:
                best, arg = value + v, head + (t,)
            return
        prev = PLUS_INF  # the last bound lifted by the gap
        for t in range(a, b + 1):
            v = value + fs[i][t]
            if v + bound[i + 1] < best:
                fixed = fix(i, room, t)
                if forms:
                    lift = v + bound[i + 1] + gap(fixed)
                    if lift >= best:
                        if lift >= prev:
                            break
                        prev = lift
                        continue
                    prev = lift
                scan(i + 1, head + (t,), fixed, v)
            elif t >= m[i]:
                break

    if min(room) >= 0:
        scan(0, (), room, 0)
    return best, arg


def _primitive(v) -> Tuple[int, ...]:
    g = gcd(*v)
    return tuple(e // g for e in v)


def _extreme_rays(eqs: Sequence[Sequence[int]], ineqs: Sequence[Sequence[int]], d: int) -> set:
    """The primitive extreme rays of the pointed cone {x in R^d: e.x = 0
    per e in eqs, a.x >= 0 per a in ineqs}, by double description
    (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon,
    1996): the cone is kept as lin(L) + cone(R), starting from L the null
    space of eqs and no R, and the inequality rows are added in order.
    A row a with a.l != 0 for some l in L turns the first such l, signed
    so that a.l > 0, into a ray, and projects the other vectors of L and
    R onto a.x = 0 along it.  Otherwise R keeps its rays with a.r >= 0
    and gains the primitive positive combination on a.x = 0 of each
    adjacent pair with a.p > 0 > a.q.  Each ray carries the set of added
    rows it is tight on, as a bit mask: p and q are adjacent when no
    other ray is tight on every row both are, after a count prefilter (a
    2-face is tight on at least dim - |L| - 2 rows, dim = |L| at the
    start).  The cone is pointed, so L ends empty."""
    lin = ratlin.null_space(eqs, d)
    dim = len(lin)
    rays: List[Tuple[Tuple[int, ...], int]] = []  # (ray, mask of its tight rows)
    for i, a in enumerate(ineqs):
        bit = 1 << i
        vals = [ratlin.dot(a, l) for l in lin]
        k = next((j for j, v in enumerate(vals) if v), None)
        if k is not None:
            s, l0 = vals.pop(k), lin.pop(k)
            if s < 0:
                s, l0 = -s, tuple(-e for e in l0)

            def project(v, av):
                return _primitive([s * e - av * f for e, f in zip(v, l0)]) if av else v

            lin = [project(l, v) for l, v in zip(lin, vals)]
            rays = [(project(r, ratlin.dot(a, r)), z | bit) for r, z in rays]
            rays.append((l0, bit - 1))
            continue
        need = dim - len(lin) - 2
        pos, neg, kept = [], [], []
        for r, z in rays:
            v = ratlin.dot(a, r)
            if v > 0:
                pos.append((r, z, v))
                kept.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | bit))
        masks = [z for _, z in rays]
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                if common.bit_count() >= need and sum(z & common == common for z in masks) == 2:
                    kept.append((_primitive([vp * e - vq * f for e, f in zip(q, p)]), common | bit))
        rays = kept
    return {r for r, _ in rays}


def _basic_data(sys: LinearSystem):
    """(big_d, vertices, rays, lineality) of the system, cached on the
    instance: the vertices scaled by big_d, the least common denominator
    of their entries, as int tuples in lex order.

    The lineality space, one null space of the rows, is factored out by
    the rows l.x = 0; the pointed remainder then has a vertex whenever
    the system is feasible, so "no vertices" is a reliable infeasibility
    certificate.  Its vertices and rays are read off the extreme rays
    (x, t) of one homogenized cone (Schrijver, Theory of Linear and
    Integer Programming, 1986), by :func:`_extreme_rays`: t >= 0 and
    a.x >= b*t per row (= for equality and lineality rows).  A ray with
    t > 0 gives the vertex x/t, and one with t = 0 a ray x.
    """
    if sys._basic is None:
        n = sys.n
        lineality = ratlin.null_space([r.coeffs for r in sys.rows], n)
        eqs = [r.coeffs + (-r.rhs,) for r in sys.rows if r.kind == EQ] + [l + (0,) for l in lineality]
        ineqs = [(0,) * n + (1,)] + [r.coeffs + (-r.rhs,) for r in sys.rows if r.kind == GEQ]
        # An extreme ray is primitive, so a vertex x/t is kept as the canonical (t, t*x).
        gens = _extreme_rays(eqs, ineqs, n + 1)
        big_d = lcm(*(t for *_, t in gens if t))
        vertices = sorted(tuple(e * (big_d // t) for e in x) for *x, t in gens if t)
        sys._basic = (big_d, vertices, sorted(tuple(x) for *x, t in gens if not t), lineality)
    return sys._basic


def is_empty(sys: LinearSystem) -> bool:
    """Whether the system has no real point: its pointed remainder has no
    vertex (:func:`_basic_data`)."""
    return not _basic_data(sys)[1]


# ---------------------------------------------------------------------------
# Tangent and normal cones


@dataclass(frozen=True)
class TangentCone:
    """The rows tight at the targets, right-hand sides zeroed, and generators:
    the cone is span(lineality) + the nonnegative combinations of rays."""

    cone_system: LinearSystem
    rays: Tuple[Tuple[int, ...], ...]
    lineality: Tuple[Tuple[int, ...], ...]


def tangent_cone(sys: LinearSystem, *targets: Sequence[int]) -> TangentCone:
    """The tangent cone at the targets: the equality rows and the rows
    tight at every target, from one read of each row's slack per target,
    which also checks the target.  Each target meets each row, so these
    are the rows tight at the targets' sum on the k-dilation.  Its
    lineality is the null space of those rows, and its rays are the
    extreme rays (:func:`_extreme_rays`) of the rows plus l.x = 0 per
    lineality vector l, with no t column."""
    if not targets:
        raise ValueError("need at least one target")
    tight = [True] * len(sys.rows)
    for z in targets:
        if len(z) != sys.n:
            raise ValueError(f"target {tuple(z)} needs {sys.n} entries")
        slacks = [r.slack(z) for r in sys.rows]
        if any(s < 0 or s and r.kind == EQ for r, s in zip(sys.rows, slacks)):
            raise NotFeasible(f"target {tuple(z)} violates the system")
        tight = [t and not s for t, s in zip(tight, slacks)]
    rows = [Row(r.coeffs, 0, r.kind) for r, t in zip(sys.rows, tight) if t] or [Row((0,) * sys.n, 0, GEQ)]
    lineality = ratlin.null_space([r.coeffs for r in rows], sys.n)
    eqs = [r.coeffs for r in rows if r.kind == EQ] + lineality
    rays = sorted(_extreme_rays(eqs, [r.coeffs for r in rows if r.kind == GEQ], sys.n))
    return TangentCone(LinearSystem(sys.elements, tuple(rows)), tuple(rays), tuple(lineality))


def normal_cone(cone: TangentCone) -> LinearSystem:
    """The weights w that the cone's point minimizes, as a system: w.d >= 0
    per ray and w.l = 0 per lineality vector, or the zero row when the
    cone has neither (it is then all of R^n)."""
    rows = [Row(d, 0, GEQ) for d in cone.rays] + [Row(d, 0, EQ) for d in cone.lineality]
    n = cone.cone_system.n
    return LinearSystem(cone.cone_system.elements, tuple(rows) or (Row((0,) * n, 0, GEQ),))


# ---------------------------------------------------------------------------
# Certificates and min-max searches


def verify_certificate(
    sys: LinearSystem, z: Sequence[int], y: DualVector, Phi: SeparableConvex
) -> MinMaxReport:
    """Full optimality check for a primal/dual pair.

    Requires primal feasibility, dual sign-feasibility, complementary
    slackness on every row, and the compatibility sandwich; on success
    reports the matching values Phi(z) and y.p - conj(Phi)(yQ).
    """
    z = tuple(z)
    if not sys.contains(z):
        raise NotFeasible(f"z={z} violates the system")
    if not y.is_sign_feasible(sys):
        raise NotFeasible("negative multiplier on an inequality row")
    for i, (yi, r) in enumerate(zip(y.y, sys.rows)):
        if r.kind == GEQ and yi * r.slack(z) != 0:
            raise CriteriaViolated("slackness", i)
    j = Phi.first_unfit(z, y.times_q(sys))
    if j is not None:
        raise CriteriaViolated("compatibility", sys.elements[j])
    primal = Phi.value(z)
    dual = y.times_p(sys) - Phi.conjugate(y.times_q(sys))
    return MinMaxReport(
        primal_value=primal,
        dual_value=dual,
        primal_witness=z,
        dual_witness=y,
        equality=(primal == dual),
        support_size=y.support(),
    )


def minimize_bruteforce(
    sys: LinearSystem, Phi: SeparableConvex, win: Window
) -> MinMaxReport:
    """Windowed exact minimum of Phi over the integer points: the first
    least value in lex order, by :func:`separable_first_minimum` with each
    part finite on its domain."""
    Phi._check_len(sys.elements)  # even when the window has no point
    best, arg = separable_first_minimum(sys, win, [(p.value, *p.dom()) for _, p in Phi.parts])
    return MinMaxReport(
        primal_value=best,
        primal_witness=arg,
        bounds_used={"window": win.to_json()},
    )


def vertex_hull_window(sys: LinearSystem) -> Window:
    """Smallest integer box containing every vertex of the system."""
    big_d, vertices, _, _ = _basic_data(sys)
    if not vertices:
        raise ValueError("system has no vertices")
    cols = list(zip(*vertices))
    return Window(tuple(min(c) // big_d for c in cols), tuple(-(-max(c) // big_d) for c in cols))


def _hull_minimizer(sys: LinearSystem, Phi: SeparableConvex) -> Optional[Tuple[int, ...]]:
    """The first minimizer of Phi in the vertex hull box, by
    :func:`minimize_bruteforce`, or None when the system has no vertex or
    Phi is +inf at each of its points there: the point z that both duals
    given none read their answer at.  On a bounded system it is the
    integer minimizer, where the min-max formula puts a dual worth Phi(z)
    on a box-TDI system; any dual worth Phi(z) proves z optimal, and the
    duals worth the optimum are the same at every minimizer."""
    if is_empty(sys):
        return None
    return minimize_bruteforce(sys, Phi, vertex_hull_window(sys)).primal_witness


def _primal_point(sys: LinearSystem, Phi: SeparableConvex, z: Optional[Sequence[int]]):
    """Where a dual reads its answer: z, checked to be a point of the
    system with Phi(z) finite, else :func:`_hull_minimizer`'s point.
    Phi's length is checked first, before any vertex table is built."""
    Phi._check_len(sys.elements)
    if z is None:
        return _hull_minimizer(sys, Phi)
    if not (sys.contains(z) and is_finite(Phi.value(z))):
        raise ValueError(f"z={tuple(z)} is not a point of the system with finite Phi")
    return tuple(z)


def fitting_points(
    lo: Sequence[ExtInt],
    hi: Sequence[ExtInt],
    cols: Sequence[Tuple[int, ...]],
    win: Window,
    rows: Sequence[Row] = (),
) -> Iterator[Tuple[int, ...]]:
    """The integral u in the window that meet the rows and put w in the
    box lo <= w <= hi, where w_j = cols[j].u: lazily, in lex order, by
    :func:`enumerate_integer_points`.  An infinite bound gives no row.
    The box Phi'(z-1) <= w <= Phi'(z) holds the w that fit z."""
    rows = list(rows)
    for c, a, b in zip(cols, lo, hi):
        if is_finite(a):
            rows.append(Row(c, a, GEQ))
        if is_finite(b):
            rows.append(Row(tuple(-v for v in c), -b, GEQ))
    k = len(win.lo)
    unknowns = LinearSystem(tuple(f"u{i}" for i in range(k)), tuple(rows) or (Row((0,) * k, 0, GEQ),))
    return enumerate_integer_points(unknowns, win)


def dual_search_bruteforce(
    sys: LinearSystem,
    Phi: SeparableConvex,
    y_bound: int = 6,
    z: Optional[Sequence[int]] = None,
) -> MinMaxReport:
    """max y.p - conj(Phi)(yQ) over sign-feasible integer y, |y| <= bound.

    z is a point of the system with Phi(z) finite (a primal witness), by
    default the minimizer :func:`_hull_minimizer` finds.  Every y is
    worth at most Phi(z), and those worth Phi(z) are the y with y_i = 0
    where slack_i(z) > 0 and yQ in the fitting box of z
    (:func:`fitting_points`).  The first of them in lex order is the
    first maximizer, so when there is one it is the answer, and
    support_within_2n reads on along the same points for one with
    support <= 2n.

    Otherwise (no z, or no y reaches Phi(z)) one call of
    :func:`separable_first_minimum` over the y box finds the answer.  For
    any integral z0, with w = yQ, y.p - conj(Phi)(w) is minus
    sum_i y_i slack_i(z0) + sum_j (conj(phi_j)(w_j) - w_j z0_j): parts
    t slack_i(z0), and per column q_j of Q a form (q_j, conj(phi_j)(v) -
    v z0_j, the slope range of phi_j).  z0 is z, or 0 when there is
    none; a feasible z makes every slack term >= 0, so the loops stop
    early.  The value is minus the least sum, the witness its lex-first
    y.  support_within_2n holds when that y has support <= 2n, else
    exactly when a call with some m - 2n multipliers pinned to 0 reaches
    the same least.
    """
    if y_bound < 0:
        raise ValueError(f"y_bound must be >= 0, got {y_bound}")
    rows = sys.rows
    ranges = [(0 if r.kind == GEQ else -y_bound, y_bound) for r in rows]
    cols = [tuple(r.coeffs[j] for r in rows) for j in range(sys.n)]

    def box(zero) -> Window:
        """The y box with y_i = 0 for each i in zero."""
        return Window(*zip(*((0, 0) if i in zero else t for i, t in enumerate(ranges))))

    def certificates(z):
        """(the first, the rest) of the y worth Phi(z) in lex order, or None."""
        zero = {i for i, r in enumerate(rows) if r.slack(z)}
        points = fitting_points(Phi.prime_minus(z), Phi.prime(z), cols, box(zero))
        first = next(points, None)
        return None if first is None else (first, points)

    z = _primal_point(sys, Phi, z)
    found = None if z is None else certificates(z)
    if found is not None:
        first, rest = found
        y = DualVector(first)
        small = any(sum(1 for v in u if v) <= 2 * sys.n for u in itertools.chain((first,), rest))
        return MinMaxReport(
            dual_value=Phi.value(z),
            dual_witness=y,
            support_size=y.support(),
            bounds_used={"y_bound": y_bound, "support_within_2n": small},
        )
    z0 = (0,) * sys.n if z is None else z
    m = len(rows)
    ys = LinearSystem(tuple(f"y{i}" for i in range(m)), (Row((0,) * m, 0, GEQ),))
    parts = [(lambda t, s=r.slack(z0): t * s, MINUS_INF, PLUS_INF) for r in rows]
    forms = [(c, lambda v, p=p, zj=zj: conjugate_eval(p, v) - v * zj, *p.slope_range())
             for c, (_, p), zj in zip(cols, Phi.parts, z0)]

    least, arg = separable_first_minimum(ys, box(()), parts, forms)
    y = None if arg is None else DualVector(arg)
    small = y is not None and (y.support() <= 2 * sys.n or any(
        separable_first_minimum(ys, box(zero), parts, forms)[0] == least
        for zero in itertools.combinations(range(m), m - 2 * sys.n)))
    return MinMaxReport(
        dual_value=-least,
        dual_witness=y,
        support_size=y.support() if y else 0,
        bounds_used={"y_bound": y_bound, "support_within_2n": small},
    )


def mu_form_dual_search(sys: LinearSystem, Phi: SeparableConvex, w_window: Window,
                        z: Optional[Sequence[int]] = None) -> MinMaxReport:
    """max w.z - conj(Phi)(w) over the integral w in the window that z
    minimizes over the system, where mu_R(w) = w.z: an int and its first
    maximizer in lex order, or MINUS_INF and no w when there is no z or no
    such w has a finite conjugate.  z is as for :func:`dual_search_bruteforce`.

    No w is worth more than Phi(z), and those worth Phi(z) are the w of
    this cone that fit z (Fenchel-Young): where one exists, this is the
    windowed maximum of mu_R(w) - conj(Phi)(w) (Ahuja and Orlin, Oper.
    Res. 49, 2001), else a lower bound its witness is worth.  The cone
    comes off the vertex table of :func:`_basic_data`, D its denominator:
    w.(u - D z) >= 0 per vertex u (0 >= 0 at D z), w.r >= 0 per ray r and
    w.l = 0 per lineality vector l.  One :func:`separable_first_minimum`
    of the parts conj(phi_j)(t) - t z_j, finite on phi_j's slope range,
    gives minus the value."""
    z = _primal_point(sys, Phi, z)
    bounds = {"w_window": w_window.to_json()}
    if z is None:
        return MinMaxReport(dual_value=MINUS_INF, bounds_used=bounds)
    big_d, vertices, rays, lineality = _basic_data(sys)
    rows = [Row(tuple(a - big_d * b for a, b in zip(u, z)), 0, GEQ) for u in vertices]
    rows += [Row(r, 0, GEQ) for r in rays] + [Row(l, 0, EQ) for l in lineality]
    parts = [(lambda t, p=p, zj=zj: conjugate_eval(p, t) - t * zj, *p.slope_range())
             for (_, p), zj in zip(Phi.parts, z)]
    least, w = separable_first_minimum(LinearSystem(sys.elements, tuple(rows)), w_window, parts)
    return MinMaxReport(dual_value=-least, dual_witness=w, bounds_used=bounds)


# ---------------------------------------------------------------------------
# Feasibility of weight boxes


def feasibility_condition(
    sys: LinearSystem,
    z_star: Sequence[int],
    ell: Sequence[ExtInt],
    u: Sequence[ExtInt],
):
    """Disjoint-pair test: for every disjoint S-, S+ with
    z* + chi(S+) - chi(S-) still in R, require sum ell(S-) <= sum u(S+).

    Returns (True, None) or (False, (S_minus, S_plus)) with the first
    violating pair in the lex order of z* + chi(S+) - chi(S-).
    """
    z_star = tuple(z_star)
    box = Window(tuple(v - 1 for v in z_star), tuple(v + 1 for v in z_star))
    for z2 in enumerate_integer_points(sys, box):
        s_minus = tuple(i for i, (a, b) in enumerate(zip(z_star, z2)) if b < a)
        s_plus = tuple(i for i, (a, b) in enumerate(zip(z_star, z2)) if b > a)
        if sum(ell[i] for i in s_minus) > sum(u[i] for i in s_plus):
            return (False, (s_minus, s_plus))
    return (True, None)


def dilation(sys: LinearSystem, k: int) -> LinearSystem:
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    return LinearSystem(
        sys.elements,
        tuple(Row(r.coeffs, r.rhs * k, r.kind) for r in sys.rows),
    )


def probe_box_integer(sys: LinearSystem, win: Window):
    """Look for a fractional vertex of the system intersected with some
    integral box inside the window.

    A vertex of sys /\\ box is cut out by n independent tight constraints
    drawn from the system rows and coordinate fixings x_i = v with
    integral v in the window, so it suffices to enumerate those bases
    directly instead of looping over boxes.  A basis of rows R that
    leaves the columns F free is nonsingular iff det A[R, F] != 0, and by
    Cramer's rule every point it gives is integral when that minor is
    +-1 (Chervet, Grappe and Robert, Math. Programming 188, 2021).  So
    the bases with |det| >= 2 are found first, every minor computed once
    by :func:`ratlin.large_minors`, and only they are eliminated, each
    once, in scan order, with the fixed coordinates' columns as extra
    right-hand sides.  A basis's values are then scanned by
    :func:`enumerate_integer_points` on rows in value space
    (:func:`_value_rows`), so no tuple outside the window or the system
    is built.  Returns (True, None) when every such basic feasible point
    is integral, else (False, witness) for the first fractional one in
    scan order: k fixed coordinates, which ones, which rows, then the
    values in lex order.  Raises ValueError when the window's width is
    not the system's.
    """
    _check_width(sys, win.lo, "window")
    n = sys.n
    rows = sys.rows
    bases = [(n - len(free), tuple(j for j in range(n) if j not in free), free, ridxs)
             for free, ridxs in ratlin.large_minors([r.coeffs for r in rows], n)]
    for _, coords, free, ridxs in sorted(bases):  # by k, which coordinates, which rows
        basis = [rows[i] for i in ridxs]
        d, sol_rows = ratlin.solve_int(
            [[r.coeffs[j] for j in free] for r in basis],
            [[r.rhs] + [-r.coeffs[c] for c in coords] for r in basis],
        )
        if all(v % d == 0 for xr in sol_rows for v in xr):
            continue  # every value tuple gives an integral point
        vrows = _value_rows(sys, win, coords, free, d, sol_rows)
        if coords:
            vsys = LinearSystem(tuple(sys.elements[c] for c in coords), vrows)
            vwin = Window(tuple(win.lo[c] for c in coords), tuple(win.hi[c] for c in coords))
            points = enumerate_integer_points(vsys, vwin)
        else:
            points = [()] if all(r.satisfied_by(()) for r in vrows) else []
        for vals in points:
            xd = [0] * n
            for c, v in zip(coords, vals):
                xd[c] = v * d
            for j, xr in zip(free, sol_rows):
                xd[j] = xr[0] + ratlin.dot(xr[1:], vals)
            if any(xd[j] % d for j in free):
                return (False, tuple(Fraction(v, d) for v in xd))
    return (True, None)


def _value_rows(
    sys: LinearSystem,
    win: Window,
    coords: Tuple[int, ...],
    free: Tuple[int, ...],
    d: int,
    sol_rows: List[List[int]],
) -> Tuple[Row, ...]:
    """The rows, over the values v of the fixed coordinates, that say the
    basis's point x lies in the window and the system.  The basis gives
    d*x_c = d*v_c and d*x_j = x0_j + c_j.v for free j (the row of
    sol_rows for x_j is (x0_j, *c_j)), so each window bound on a free x_j
    and each system row, scaled by d, is one integer row in v."""
    rows = []
    for j, (x0, *c) in zip(free, sol_rows):
        rows.append(Row(tuple(c), win.lo[j] * d - x0, GEQ))
        rows.append(Row(tuple(-v for v in c), x0 - win.hi[j] * d, GEQ))
    for r in sys.rows:
        terms = [(r.coeffs[j], xr) for j, xr in zip(free, sol_rows) if r.coeffs[j]]
        coeffs = tuple(
            r.coeffs[c] * d + sum(a * xr[1 + i] for a, xr in terms)
            for i, c in enumerate(coords)
        )
        rows.append(Row(coeffs, r.rhs * d - sum(a * xr[0] for a, xr in terms), r.kind))
    return tuple(rows)
