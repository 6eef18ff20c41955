"""Integral linear systems [Q'x >= p', Q=x = p=] at desk scale.

One lazy lex-order kernel lists a system's integer points in a box
(:func:`enumerate_integer_points`) for every such scan in dctk.  Also
exact rational LP by basic-solution enumeration, tangent cones and
their normal cones as systems, dual searches for the separable-convex
min-max formulas, the disjoint-pair feasibility test, dilations, and a
box-integrality probe.  Arithmetic is exact; witnesses are lex-least.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import ratlin
from .conjugate import SeparableConvex, conjugate_table
from .errors import (
    CriteriaViolated,
    NotFeasible,
    NotPrimalFeasible,
    NotSignFeasible,
)
from .extint import MINUS_INF, PLUS_INF, ExtInt, ext_sum, is_finite
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


@dataclass
class LinearSystem:
    elements: Tuple[str, ...]
    rows: Tuple[Row, ...]
    _basic: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _vertex_ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.elements = tuple(self.elements)
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
            tuple(obj["elements"]),
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

    def points(self) -> Iterable[Tuple[int, ...]]:
        return itertools.product(
            *(range(l, h + 1) for l, h in zip(self.lo, self.hi))
        )

    def __contains__(self, x) -> bool:
        return all(l <= v <= h for l, v, h in zip(self.lo, x, self.hi))

    def to_json(self):
        return {"lo": list(self.lo), "hi": list(self.hi)}

    @classmethod
    def from_json(cls, obj) -> "Window":
        return cls(tuple(obj["lo"]), tuple(obj["hi"]))


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


def dual_search_bruteforce(
    sys: LinearSystem, Phi: SeparableConvex, y_bound: int = 6
) -> MinMaxReport:
    """max y.p - conj(Phi)(yQ) over sign-feasible integer y, |y| <= bound.

    y runs in lex order.  yQ, y.p and the support are summed once per
    head (the multipliers of all rows but the last); the inner loop runs
    the last multiplier t and adds t times the last row.
    """
    n = sys.n
    conj = conjugate_table(Phi)
    *head_rows, last = sys.rows
    ranges = [range(0 if r.kind == GEQ else -y_bound, y_bound + 1) for r in sys.rows]
    best: ExtInt = MINUS_INF
    arg: Optional[Tuple[int, ...]] = None
    support_ok = False
    for head in itertools.product(*ranges[:-1]):
        w0 = [sum(v * r.coeffs[j] for v, r in zip(head, head_rows)) for j in range(n)]
        p0 = sum(v * r.rhs for v, r in zip(head, head_rows))
        s0 = sum(1 for v in head if v)
        for t in ranges[-1]:
            c = conj([a + t * q for a, q in zip(w0, last.coeffs)])
            if c is PLUS_INF:
                continue
            val = p0 + t * last.rhs - c
            if val > best:
                best, arg = val, head + (t,)
                support_ok = s0 + (t != 0) <= 2 * n
            elif val == best:
                support_ok = support_ok or s0 + (t != 0) <= 2 * n
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
    """max mu_R(w) - conj(Phi)(w) over integral w in the window."""
    conj = conjugate_table(Phi)
    best = None
    arg = None
    for w in w_window.points():
        mv, _ = lp_min(sys, w)
        if mv is MINUS_INF or mv is PLUS_INF:
            continue
        c = conj(w)
        if not is_finite(c):
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
        if ext_sum(ell[i] for i in s_minus) > ext_sum(u[i] for i in s_plus):
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
    directly instead of looping over boxes.  Each basis is eliminated
    once, with the fixed coordinates' columns as extra right-hand sides;
    each tuple of values then costs integer dot products on d*x.  Returns
    (True, None) when every such basic feasible point is integral, else
    (False, witness) for the first fractional one in scan order.
    """
    n = sys.n
    rows = sys.rows
    coord_values = [range(l, h + 1) for l, h in zip(win.lo, win.hi)]
    for k in range(0, n + 1):
        for coords in itertools.combinations(range(n), k):
            free = [j for j in range(n) if j not in coords]
            for ridxs in itertools.combinations(range(len(rows)), n - k):
                basis = [rows[i] for i in ridxs]
                sol = ratlin.solve_int(
                    [[r.coeffs[j] for j in free] for r in basis],
                    [[r.rhs] + [-r.coeffs[c] for c in coords] for r in basis],
                )
                if sol is None:
                    continue
                d, sol_rows = sol
                if all(v % d == 0 for xr in sol_rows for v in xr):
                    continue  # every value tuple gives an integral point
                # x lies in sys and win iff d*x lies in both scaled by d.
                sys_d = dilation(sys, d)
                win_d = Window(tuple(l * d for l in win.lo), tuple(h * d for h in win.hi))
                for vals in itertools.product(*(coord_values[c] for c in coords)):
                    xd = [0] * n
                    for c, v in zip(coords, vals):
                        xd[c] = v * d
                    for j, xr in zip(free, sol_rows):
                        xd[j] = xr[0] + ratlin.dot(xr[1:], vals)
                    if xd in win_d and sys_d.contains(xd) and any(v % d for v in xd):
                        return (False, tuple(Fraction(v, d) for v in xd))
    return (True, None)
