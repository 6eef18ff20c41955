"""Integral linear systems [Q'x >= p', Q=x = p=] at desk scale.

One lazy lex-order kernel lists a system's integer points in a box
(:func:`enumerate_integer_points`) for every such scan in dctk.  Also
exact rational LP by basic-solution enumeration, tangent cones and
their normal cones as systems, dual searches for the separable-convex
min-max formulas, the disjoint-pair feasibility test, dilations, and a
box-integrality probe.  Arithmetic is exact; witnesses are lex-least.

The dual searches first read their answer at a primal point z: the
duals worth Phi(z), the most weak duality allows, are the integer
points of one small system (complementary slackness or the normal cone
at z, and the fitting box of z), whose lex-first point is the scan's
first maximizer.  The windowed scans run only when that system is empty.

The box probe reads each basis's minor from one :class:`ratlin.Minors`
table before it eliminates: a basis with minor 0 is singular and one
with minor +-1 gives only integral points, so neither is eliminated.
The fixed coordinates' values of the rest are scanned with the
integer-point kernel, on the window and system rows written over those
values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterator, List, Optional, Sequence, Tuple

from . import ratlin
from .conjugate import SeparableConvex, conjugate_table
from .errors import (
    CriteriaViolated,
    NotFeasible,
    NotPrimalFeasible,
    NotSignFeasible,
)
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
    _vertex_ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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
        return cls(
            obj["elements"],
            tuple(
                Row(tuple(r["coeffs"]), r["rhs"], r["kind"]) for r in obj["rows"]
            ),
        )


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

    def points(self) -> Iterator[Tuple[int, ...]]:
        """Every integer point, lazily, in lex order (no range is copied)."""

        def scan(head: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
            if len(head) == len(self.lo):
                yield head
                return
            for t in range(self.lo[len(head)], self.hi[len(head)] + 1):
                yield from scan(head + (t,))

        return scan(())

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
            if isinstance(v, bool):
                return v
            if isinstance(v, Fraction):
                return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
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


def enumerate_integer_points(sys: LinearSystem, win: Window) -> Iterator[Tuple[int, ...]]:
    """The integer points of the system in the window, lazily, in lex order.

    A depth-first scan fixes one coordinate at a time.  Each row a.x >= b
    (an equality row adds its negation) has a room: its largest value
    over the window, given the coordinates fixed so far, minus b.  Only
    values of x_i that keep the room >= 0 are tried: x_i >= hi_i -
    room // a_i if a_i > 0, x_i <= lo_i + room // -a_i if a_i < 0, any
    x_i if a_i = 0.  A row with no room at the start, such as 0 >= 1,
    admits no point; else a prefix that no completion meets is dropped,
    and a full point meets every row.
    """
    lo, hi = win.lo, win.hi
    rows = [(r.coeffs, r.rhs) for r in sys.rows]
    rows += [(tuple(-a for a in r.coeffs), -r.rhs) for r in sys.rows if r.kind == EQ]
    room = [sum(a * (h if a > 0 else l) for a, l, h in zip(c, lo, hi)) - b for c, b in rows]
    # Per coordinate i: (row, a_i, the row's largest term a_i * x_i) where a_i != 0.
    cols = [
        [(k, c[i], c[i] * (hi[i] if c[i] > 0 else lo[i])) for k, (c, _) in enumerate(rows) if c[i]]
        for i in range(sys.n)
    ]
    last = sys.n - 1

    def scan(i: int, head: Tuple[int, ...], room: List[int]) -> Iterator[Tuple[int, ...]]:
        a, b = lo[i], hi[i]
        for k, c, _ in cols[i]:
            if c > 0:
                a = max(a, hi[i] - room[k] // c)
            else:
                b = min(b, lo[i] + room[k] // -c)
        for t in range(a, b + 1):
            if i == last:
                yield head + (t,)
                continue
            fixed = room.copy()
            for k, c, top in cols[i]:
                fixed[k] += c * t - top
            yield from scan(i + 1, head + (t,), fixed)

    return scan(0, (), room) if min(room) >= 0 else iter(())


def _basic_data(sys: LinearSystem):
    """(vertices, rays, lineality) of the system, cached on the instance.

    The lineality space is factored out by adding artificial homogeneous
    equality rows; the pointed remainder then has a vertex whenever the
    system is feasible, so "no vertices" is a reliable infeasibility
    certificate at this scale.
    """
    if sys._basic is not None:
        return sys._basic
    n = sys.n
    coeff_rows = [list(r.coeffs) for r in sys.rows]
    lineality = ratlin.null_space(coeff_rows, n)
    work: List[Tuple[Tuple[int, ...], int, str]] = [
        (r.coeffs, r.rhs, r.kind) for r in sys.rows
    ]
    work += [(d, 0, EQ) for d in lineality]

    # A basic solution x is kept as the gcd-reduced (d, d*x), which is
    # canonical, and x lies in the system iff d*x satisfies its rows
    # scaled by d, in int.
    scaled = []
    seen = set()
    for idxs in itertools.combinations(range(len(work)), n):
        sol = ratlin.solve_int([work[i][0] for i in idxs], [[work[i][1]] for i in idxs])
        if sol is None:
            continue
        d, x = sol
        g = gcd(d, *(xr[0] for xr in x))
        key = (d // g, tuple(xr[0] // g for xr in x))
        if key in seen:
            continue
        seen.add(key)
        d, xd = key
        slacks = ((ratlin.dot(r.coeffs, xd) - r.rhs * d, r.kind) for r in sys.rows)
        if all(s == 0 if kind == EQ else s >= 0 for s, kind in slacks):
            scaled.append(key)
    vertices = sorted(tuple(Fraction(v, d) for v in xd) for d, xd in scaled)

    # The rays are the edge directions that lie in the recession cone.
    recession = LinearSystem(sys.elements, tuple(Row(c, 0, kind) for c, _, kind in work))
    edges = set()
    for idxs in itertools.combinations(range(len(work)), n - 1):
        basis = ratlin.null_space([work[i][0] for i in idxs], n)
        if len(basis) == 1:
            edges.update((basis[0], tuple(-v for v in basis[0])))
    rays = sorted(d for d in edges if recession.contains(d))

    sys._basic = (vertices, rays, lineality)
    big_d = lcm(*(d for d, _ in scaled))
    sys._vertex_ints = (
        big_d,
        [tuple(x.numerator * (big_d // x.denominator) for x in v) for v in vertices],
    )
    return sys._basic


def lp_min(sys: LinearSystem, w: Sequence[int]):
    """Exact min{w.x : x in R}: (value, argmin).

    value is a Fraction/int, MINUS_INF if unbounded, PLUS_INF if
    infeasible; argmin is a rational vector or None.
    """
    vertices, rays, lineality = _basic_data(sys)
    if not vertices:
        return (PLUS_INF, None)
    for d in lineality:
        if ratlin.dot(w, d) != 0:
            return (MINUS_INF, None)
    for d in rays:
        if ratlin.dot(w, d) < 0:
            return (MINUS_INF, None)
    # The vertices scaled by one common denominator, in sorted order, so
    # the first least value is the lexicographically least argmin.
    big_d, ints = sys._vertex_ints
    best = arg = None
    for v, vi in zip(vertices, ints):
        val = ratlin.dot(w, vi)
        if best is None or val < best:
            best, arg = val, v
    best = Fraction(best, big_d)
    return (best.numerator if best.denominator == 1 else best, arg)


def vertex_hull_window(sys: LinearSystem, pad: int = 0) -> Window:
    """Smallest integer box containing every vertex of the system,
    widened by pad on each side."""
    vertices, _, _ = _basic_data(sys)
    if not vertices:
        raise ValueError("system has no vertices")
    return Window(
        tuple(floor(min(v[j] for v in vertices)) - pad for j in range(sys.n)),
        tuple(ceil(max(v[j] for v in vertices)) + pad for j in range(sys.n)),
    )


# ---------------------------------------------------------------------------
# Tangent and normal cones


@dataclass(frozen=True)
class TangentCone:
    """The rows tight at a point, right-hand sides zeroed, and generators:
    the cone is span(lineality) + the nonnegative combinations of rays."""

    cone_system: LinearSystem
    rays: Tuple[Tuple[int, ...], ...]
    lineality: Tuple[Tuple[int, ...], ...]


def tangent_cone(sys: LinearSystem, z0: Sequence[int]) -> TangentCone:
    """The tangent cone at z0; equality rows are always included.  Its
    generators come from :func:`_basic_data` on the cone system, which has
    only the few rows tight at z0."""
    z0 = tuple(z0)
    if not sys.contains(z0):
        raise NotFeasible(f"z0={z0} violates the system")
    rows: List[Row] = []
    for r in sys.rows:
        if r.kind == EQ:
            rows.append(Row(r.coeffs, 0, EQ))
        elif r.slack(z0) == 0:
            rows.append(Row(r.coeffs, 0, GEQ))
    if not rows:
        rows.append(Row((0,) * sys.n, 0, GEQ))
    cone_sys = LinearSystem(sys.elements, tuple(rows))
    _, rays, lineality = _basic_data(cone_sys)
    return TangentCone(cone_sys, tuple(rays), tuple(lineality))


def normal_cone(cone: TangentCone) -> LinearSystem:
    """The weights w that the cone's point minimizes, as a system: w.d >= 0
    per ray and w.l = 0 per lineality vector, or the zero row when the
    cone has neither (it is then all of R^n)."""
    rows = [Row(d, 0, GEQ) for d in cone.rays] + [Row(d, 0, EQ) for d in cone.lineality]
    n = cone.cone_system.n
    return LinearSystem(cone.cone_system.elements, tuple(rows) or (Row((0,) * n, 0, GEQ),))


# ---------------------------------------------------------------------------
# Certificates and min-max searches


def check_compatibility(
    sys: LinearSystem, z: Sequence[int], y: DualVector, Phi: SeparableConvex
) -> bool:
    """Componentwise sandwich Phi'(z-1) <= yQ <= Phi'(z)."""
    return Phi.first_unfit(z, y.times_q(sys)) is None


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
        raise NotPrimalFeasible(f"z={z} violates the system")
    if not y.is_sign_feasible(sys):
        raise NotSignFeasible("negative multiplier on an inequality row")
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
    """Windowed exact minimum of Phi over the integer points."""
    best: ExtInt = PLUS_INF
    arg = None
    for z in enumerate_integer_points(sys, win):
        v = Phi.value(z)
        if v < best:
            best, arg = v, z
    return MinMaxReport(
        primal_value=best,
        primal_witness=arg,
        bounds_used={"window": win.to_json()},
    )


def _bound_point(sys: LinearSystem, Phi: SeparableConvex) -> Optional[Tuple[int, ...]]:
    """The first integral vertex of the system with the least Phi, or None
    if none has a finite Phi.  Weak duality at it bounds the dual searches."""
    ints = [tuple(map(int, v)) for v in _basic_data(sys)[0] if all(x.denominator == 1 for x in v)]
    z = min(ints, key=Phi.value, default=None)
    return z if z is not None and is_finite(Phi.value(z)) else None


def fitting_points(
    Phi: SeparableConvex,
    z: Sequence[int],
    cols: Sequence[Tuple[int, ...]],
    win: Window,
    rows: Sequence[Row] = (),
) -> Iterator[Tuple[int, ...]]:
    """The integral u in the window that meet the rows and make w fit z,
    Phi'(z-1) <= w <= Phi'(z), where w_j = cols[j].u: lazily, in lex
    order, by :func:`enumerate_integer_points`.  An infinite slope gives
    no row."""
    rows = list(rows)
    for c, lo, hi in zip(cols, Phi.prime_minus(z), Phi.prime(z)):
        if is_finite(lo):
            rows.append(Row(c, lo, GEQ))
        if is_finite(hi):
            rows.append(Row(tuple(-v for v in c), -hi, GEQ))
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
    default the bound point.  Every y is worth at most Phi(z), and those
    worth Phi(z) are the y with y_i = 0 where slack_i(z) > 0 and yQ in
    the fitting box of z (:func:`fitting_points`).  The first of them in
    lex order is the first maximizer of the scan below, so when there is
    one it is the answer, and support_within_2n reads on along the same
    points for one with support <= 2n.

    Otherwise (no z, or no y reaches Phi(z)) y runs depth-first in lex
    order.  y is worth Phi(z) - sum_i y_i slack_i(z) - h(yQ), with h(w) =
    conj(Phi)(w) - w.z + Phi(z) >= 0 (Fenchel-Young) and y_i slack_i(z) >=
    0: Phi(z) less the prefix's slack terms bounds each completion and
    falls as a multiplier rises, so a row's loop stops once it is below
    the best value.  The last row's value is concave in its multiplier;
    that loop also stops once the value is below the best and falling,
    or +inf after finite.  Pruning is strict: value, first witness and
    support_within_2n are those of the full scan.
    """
    if y_bound < 0:
        raise ValueError(f"y_bound must be >= 0, got {y_bound}")
    rows = sys.rows
    if z is None:
        z = _bound_point(sys, Phi)
    elif not (sys.contains(z) and is_finite(Phi.value(z))):
        raise ValueError(f"z={tuple(z)} is not a point of the system with finite Phi")
    slack = [0 if z is None else r.slack(z) for r in rows]
    if z is not None:
        lo = tuple(0 if s or r.kind == GEQ else -y_bound for r, s in zip(rows, slack))
        hi = tuple(0 if s else y_bound for s in slack)
        cols = [tuple(r.coeffs[j] for r in rows) for j in range(sys.n)]
        certificates = fitting_points(Phi, z, cols, Window(lo, hi))
        first = next(certificates, None)
        if first is not None:
            y = DualVector(first)
            small = any(sum(1 for v in u if v) <= 2 * sys.n for u in itertools.chain((first,), certificates))
            return MinMaxReport(
                dual_value=Phi.value(z),
                dual_witness=y,
                support_size=y.support(),
                bounds_used={"y_bound": y_bound, "support_within_2n": small},
            )
    conj = conjugate_table(Phi)
    best: ExtInt = MINUS_INF
    arg: Optional[Tuple[int, ...]] = None
    support_ok = False

    def scan(head: Tuple[int, ...], w: List[int], pv: int, room: ExtInt) -> None:
        nonlocal best, arg, support_ok
        i = len(head)
        r = rows[i]
        prev = None  # the last finite value, in the last row
        for t in range(0 if r.kind == GEQ else -y_bound, y_bound + 1):
            bound = room - t * slack[i]
            if bound < best:
                break
            wt = [a + t * q for a, q in zip(w, r.coeffs)]
            if i + 1 < len(rows):
                scan(head + (t,), wt, pv + t * r.rhs, bound)
                continue
            c = conj(wt)
            if c is PLUS_INF:
                if prev is not None:
                    break
                continue
            val = pv + t * r.rhs - c
            if val >= best:
                small = sum(1 for v in head if v) + (t != 0) <= 2 * sys.n
                if val > best:
                    best, arg, support_ok = val, head + (t,), small
                else:
                    support_ok = support_ok or small
            elif prev is not None and val < prev:
                break
            prev = val

    scan((), [0] * sys.n, 0, PLUS_INF if z is None else Phi.value(z))
    y = None if arg is None else DualVector(arg)
    return MinMaxReport(
        dual_value=best,
        dual_witness=y,
        support_size=y.support() if y else 0,
        bounds_used={"y_bound": y_bound, "support_within_2n": support_ok},
    )


def mu_form_dual_search(
    sys: LinearSystem, Phi: SeparableConvex, w_window: Window
) -> MinMaxReport:
    """max mu_R(w) - conj(Phi)(w) over integral w in the window.

    For z the bound point, every w is worth at most Phi(z), and those
    worth Phi(z) are the w in the normal cone at z (mu_R(w) = w.z) and in
    its fitting box: :func:`find_weight_in_box` with the box
    Phi'(z-1) <= w <= Phi'(z).  Its first w in lex order is the scan's
    first maximizer, found with no exact LP.  Otherwise every w is
    scanned, and one whose bound w.z - conj(Phi)(w) is below the best
    value is skipped without its exact LP."""
    z = _bound_point(sys, Phi)
    if z is not None:
        w = find_weight_in_box(sys, z, Phi.prime_minus(z), Phi.prime(z), w_window)
        if w is not None:
            return MinMaxReport(dual_value=Phi.value(z), dual_witness=w,
                                bounds_used={"w_window": w_window.to_json()})
    conj = conjugate_table(Phi)
    best = None
    arg = None
    for w in w_window.points():
        c = conj(w)
        if c is PLUS_INF or (best is not None and z is not None and ratlin.dot(w, z) - c < best):
            continue
        mv, _ = lp_min(sys, w)
        if mv is MINUS_INF or mv is PLUS_INF:
            continue
        val = mv - c
        if best is None or val > best:
            best, arg = val, w
    if best is None:
        best = MINUS_INF
    elif isinstance(best, Fraction) and best.denominator == 1:
        best = best.numerator
    return MinMaxReport(
        dual_value=best,
        dual_witness=arg,
        bounds_used={"w_window": w_window.to_json()},
    )


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


def find_weight_in_box(
    sys: LinearSystem,
    z_star: Sequence[int],
    ell: Sequence[ExtInt],
    u: Sequence[ExtInt],
    w_window: Window,
) -> Optional[Tuple[int, ...]]:
    """First integral w in lex order in the window, clipped to [ell, u],
    with mu_R(w) = w.z*; None if the scan is exhausted."""
    lo = tuple(max(a, l) if is_finite(l) else a for a, l in zip(w_window.lo, ell))
    hi = tuple(min(b, v) if is_finite(v) else b for b, v in zip(w_window.hi, u))
    if any(a > b for a, b in zip(lo, hi)):
        return None
    cone = normal_cone(tangent_cone(sys, z_star))
    return next(enumerate_integer_points(cone, Window(lo, hi)), None)


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
    the minors are read first, each computed once by :class:`ratlin.Minors`,
    and only a basis with |det| >= 2 is eliminated, once, with the fixed
    coordinates' columns as extra right-hand sides.  Its values are then
    scanned by :func:`enumerate_integer_points` on rows in value space
    (:func:`_value_rows`), so no tuple outside the window or the system
    is built.  Returns (True, None) when every such basic feasible point
    is integral, else (False, witness) for the first fractional one in
    scan order: k fixed coordinates, which ones, which rows, then the
    values in lex order.
    """
    n = sys.n
    rows = sys.rows
    minors = ratlin.Minors([r.coeffs for r in rows], n)
    for k in range(0, n + 1):
        for coords in itertools.combinations(range(n), k):
            free = tuple(j for j in range(n) if j not in coords)
            for ridxs in itertools.combinations(range(len(rows)), n - k):
                if abs(minors[ridxs][free]) < 2:
                    continue  # singular, or every point it gives is integral
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
        minors.drop(n - k)  # later levels read only smaller row tuples
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
