"""Base polyhedra of supermodular set functions and M-convex minimization.

A supermodular p on 2^S (p(empty)=0, p(S) finite, MINUS_INF allowed
elsewhere) induces the base polyhedron {x: x(Z) >= p(Z) for all Z,
x(S) = p(S)}.  This module provides the linear extension, Edmonds
greedy, exchange descent for separable convex objectives, tight-set
machinery, and the slope-based dual certificate with its verifier.

The descent and the certificate both read the dependence function
(:func:`dependence`): one scan of the z-tight sets decides every
exchange of a step, so neither calls :func:`member`, which serves
verification and the M2 intersection.  Subset scans are plain 2^n
enumeration with a hard cap; that replaces any clever submodular
minimization on purpose, since everything here is meant to be
independently checkable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .conjugate import SeparableConvex, conjugate_table
from .errors import CriteriaViolated, EmptyIntersection, Inconclusive, IterationLimit, Unbounded
from .extint import MINUS_INF, PLUS_INF, ExtInt, is_finite
from .polyhedron import EQ, GEQ, LinearSystem, MinMaxReport, Row, Window, enumerate_integer_points

MAX_GROUND = 20


@dataclass(frozen=True)
class SupermodularFn:
    """Dense table over bitmasks; bit i of a mask is element i."""

    n: int
    table: Tuple[ExtInt, ...]
    elements: Tuple[str, ...] = ()

    def __post_init__(self):
        if not (1 <= self.n <= MAX_GROUND):
            raise ValueError(f"ground set size must be in 1..{MAX_GROUND}")
        if len(self.table) != 1 << self.n:
            raise ValueError("table must have 2^n entries")
        if self.table[0] != 0:
            raise ValueError("p(empty) must be 0")
        full = (1 << self.n) - 1
        if not is_finite(self.table[full]):
            raise ValueError("p(S) must be finite")
        for v in self.table:
            if v is PLUS_INF:
                raise ValueError("p may take MINUS_INF but not PLUS_INF")
        if not self.elements:
            object.__setattr__(
                self, "elements", tuple(f"e{i + 1}" for i in range(self.n))
            )
        if len(self.elements) != self.n:
            raise ValueError("element names must match n")
        if self.n <= 10:
            self._check_supermodular()

    def _check_supermodular(self):
        size = 1 << self.n
        t = self.table
        for x in range(size):
            for y in range(x + 1, size):
                if x & y == x or x & y == y:
                    continue  # nested pairs hold trivially
                if not is_finite(t[x]) or not is_finite(t[y]):
                    continue
                rhs_lo = t[x & y]
                rhs_hi = t[x | y]
                if t[x] + t[y] > rhs_lo + rhs_hi:
                    raise ValueError(
                        f"supermodularity fails at masks {x}, {y}"
                    )

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def p(self, mask: int) -> ExtInt:
        return self.table[mask]

    def to_json(self):
        return {
            "n": self.n,
            "elements": list(self.elements),
            "p": {
                str(mask): (v if is_finite(v) else None)
                for mask, v in enumerate(self.table)
            },
        }

    @classmethod
    def from_json(cls, obj) -> "SupermodularFn":
        n = obj["n"]
        table = []
        for mask in range(1 << n):
            v = obj["p"][str(mask)]
            table.append(MINUS_INF if v is None else v)
        elems = tuple(obj.get("elements", ()))
        return cls(n, tuple(table), elems)


def _mask_sum(z: Sequence[int], mask: int) -> int:
    return sum(v for i, v in enumerate(z) if mask >> i & 1)


def complement(p: SupermodularFn) -> Tuple[ExtInt, ...]:
    """Submodular complement pbar(X) = p(S) - p(S-X)."""
    full = p.full
    out = []
    for mask in range(1 << p.n):
        v = p.table[full ^ mask]
        out.append(PLUS_INF if not is_finite(v) else p.table[full] - v)
    return tuple(out)


def to_system(p: SupermodularFn) -> LinearSystem:
    """Row x(Z) >= p(Z) per proper nonempty Z with finite p(Z), plus the
    equality row for S; MINUS_INF entries contribute no row."""
    rows: List[Row] = []
    for mask in range(1, p.full):
        v = p.table[mask]
        if not is_finite(v):
            continue
        coeffs = tuple(1 if mask >> i & 1 else 0 for i in range(p.n))
        rows.append(Row(coeffs, v, GEQ))
    rows.append(Row((1,) * p.n, p.table[p.full], EQ))
    return LinearSystem(p.elements, tuple(rows))


def member(p: SupermodularFn, z: Sequence[int]) -> bool:
    if _mask_sum(z, p.full) != p.table[p.full]:
        return False
    for mask in range(1, p.full):
        v = p.table[mask]
        if is_finite(v) and _mask_sum(z, mask) < v:
            return False
    return True


def _sorted_order(p: SupermodularFn, w: Sequence[int]) -> List[int]:
    """Element indices by decreasing w, stable in the original order."""
    return sorted(range(p.n), key=lambda i: (-w[i], i))


def lovasz_extension(p: SupermodularFn, w: Sequence[int]) -> ExtInt:
    """Telescoping sum over the prefix sets of the sorted order.

    A zero weight difference kills an infinite term (0 * inf = 0); a
    positive difference on a MINUS_INF prefix value makes the whole
    extension MINUS_INF, i.e. w is unbounded on the base polyhedron.
    """
    order = _sorted_order(p, w)
    total: ExtInt = 0
    prefix = 0
    for j, i in enumerate(order):
        prefix |= 1 << i
        diff = w[i] - (w[order[j + 1]] if j + 1 < p.n else 0)
        term = p.table[prefix] * diff
        if term is MINUS_INF:
            return MINUS_INF
        total = total + term
    return total


def greedy_min(p: SupermodularFn, w: Sequence[int]) -> Tuple[int, ...]:
    """Greedy base along the sorted order; w.z equals the extension."""
    if lovasz_extension(p, w) is MINUS_INF:
        raise Unbounded("linear extension is MINUS_INF")
    order = _sorted_order(p, w)
    z = [0] * p.n
    prefix = 0
    prev: ExtInt = 0
    for i in order:
        prefix |= 1 << i
        cur = p.table[prefix]
        if not is_finite(cur) or not is_finite(prev):
            raise Inconclusive(
                "greedy prefix hits a MINUS_INF value; base components undefined"
            )
        z[i] = cur - prev
        prev = cur
    return tuple(z)


def base_bounds(p: SupermodularFn) -> Tuple[Tuple[ExtInt, ...], Tuple[ExtInt, ...]]:
    """Componentwise bounds on integral bases: p({s}) <= z(s) <= pbar({s})."""
    los = []
    his = []
    full = p.full
    for i in range(p.n):
        los.append(p.table[1 << i])
        rest = p.table[full ^ (1 << i)]
        his.append(PLUS_INF if not is_finite(rest) else p.table[full] - rest)
    return tuple(los), tuple(his)


def enumerate_bases(p: SupermodularFn) -> List[Tuple[int, ...]]:
    """All integral bases in lex order: the integer points of
    :func:`to_system` in the box of :func:`base_bounds`."""
    los, his = base_bounds(p)
    if not all(map(is_finite, los + his)):
        raise Inconclusive("base polyhedron has an unbounded component")
    return list(enumerate_integer_points(to_system(p), Window(los, his)))


def minimize_separable(p: SupermodularFn, Phi: SeparableConvex) -> Tuple[int, ...]:
    """Steepest single-exchange descent from the w=0 greedy base.

    Each step moves a unit from s to t when z - chi_s + chi_t stays a
    base (t in dep[s]) and strictly decreases Phi, by left[s] - right[t]
    for Phi separable; ties broken by largest decrease, then (s, t)
    lexicographic.  Both slopes finite means Phi stays finite.
    """
    z = list(greedy_min(p, (0,) * p.n))
    if not is_finite(Phi.value(z)):
        raise Inconclusive("objective infinite at the starting base")
    budget = 10 * p.n * 1000 + 1000
    for _ in range(budget):
        dep = dependence(p, z)
        left = Phi.prime_minus(z)
        right = Phi.prime(z)
        best_drop = 0
        best_move = None
        for s in range(p.n):
            if not is_finite(left[s]):
                continue
            for t in range(p.n):
                if t != s and dep[s] >> t & 1 and is_finite(right[t]):
                    drop = left[s] - right[t]
                    if drop > best_drop:
                        best_drop = drop
                        best_move = (s, t)
        if best_move is None:
            return tuple(z)
        s, t = best_move
        z[s] -= 1
        z[t] += 1
    raise IterationLimit("descent budget exhausted")


def tight_sets(p: SupermodularFn, z: Sequence[int]) -> List[int]:
    """Masks X with z(X) = p(X) (finite); S always qualifies."""
    out = []
    for mask in range(1, p.full + 1):
        v = p.table[mask]
        if is_finite(v) and _mask_sum(z, mask) == v:
            out.append(mask)
    return out


def dependence(p: SupermodularFn, z: Sequence[int]) -> List[int]:
    """dep[s]: mask of the smallest z-tight set containing element s,
    from one scan of the tight sets.  For a base z, z - chi_s + chi_t
    is a base exactly when t is in dep[s] (an integral z leaves a set
    holding s but not t only when it is tight)."""
    dep = [p.full] * p.n
    for mask in tight_sets(p, z):
        for s in range(p.n):
            if mask >> s & 1:
                dep[s] &= mask
    return dep


def dual_certificate(
    p: SupermodularFn, Phi: SeparableConvex, z_star: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
    """w*(s) = min right slope of Phi over dep[s], the smallest z*-tight
    set containing s.  Returns (w*, notes); a note records every element
    where all candidate slopes were infinite and the left slope (or 0)
    was substituted instead."""
    slopes = Phi.prime(z_star)
    left = Phi.prime_minus(z_star)
    w: List[int] = []
    notes: List[str] = []
    for s, t_mask in enumerate(dependence(p, z_star)):
        m: ExtInt = PLUS_INF
        for t in range(p.n):
            if t_mask >> t & 1 and slopes[t] < m:
                m = slopes[t]
        if not is_finite(m):
            fallback = left[s] if is_finite(left[s]) else 0
            notes.append(
                f"element {p.elements[s]}: all right slopes infinite, "
                f"substituted {fallback}"
            )
            m = fallback
        w.append(m)
    return tuple(w), tuple(notes)


def strict_top_sets(p: SupermodularFn, w: Sequence[int]) -> List[int]:
    """Masks of the nonempty level sets {s: w(s) >= beta}, a chain."""
    out = []
    for beta in sorted(set(w), reverse=True):
        mask = 0
        for i, v in enumerate(w):
            if v >= beta:
                mask |= 1 << i
        out.append(mask)
    return out


def verify_mconvex_optimality(
    p: SupermodularFn,
    Phi: SeparableConvex,
    z_star: Sequence[int],
    w_star: Sequence[int],
) -> MinMaxReport:
    """Check the two optimality criteria and report the min-max equality
    Phi(z*) = phat(w*) - conj(Phi)(w*)."""
    if len(z_star) != p.n or len(w_star) != p.n:
        raise ValueError(f"point and weights need {p.n} entries each")
    if not member(p, z_star):
        raise CriteriaViolated("membership", tuple(z_star))
    for mask in strict_top_sets(p, w_star):
        v = p.table[mask]
        if not is_finite(v) or _mask_sum(z_star, mask) != v:
            raise CriteriaViolated("top-set-not-tight", mask)
    i = Phi.first_unfit(z_star, w_star)
    if i is not None:
        raise CriteriaViolated("fitting", p.elements[i])
    primal = Phi.value(z_star)
    dual = lovasz_extension(p, w_star) - Phi.conjugate(w_star)
    return MinMaxReport(
        primal_value=primal,
        dual_value=dual,
        primal_witness=tuple(z_star),
        dual_witness=tuple(w_star),
        equality=(primal == dual),
        support_size=sum(1 for v in w_star if v != 0),
    )


def square_sum_dual_value(p: SupermodularFn, w: Sequence[int]) -> ExtInt:
    """phat(w) - sum floor(w/2)*ceil(w/2); the square-sum dual expression."""
    return lovasz_extension(p, w) - sum((v // 2) * ((v + 1) // 2) for v in w)


def m2_minimize_and_split(
    p1: SupermodularFn,
    p2: SupermodularFn,
    Phi: SeparableConvex,
    w_bound: int = 3,
) -> MinMaxReport:
    """Primal minimum over the intersection of the two integral base
    sets, and the best weight splitting (w1, w2) with each |w_i| <= bound:
    phat1(w1) + phat2(w2) - conj(Phi)(w1 + w2)."""
    if p1.n != p2.n:
        raise ValueError("ground sets differ")
    n = p1.n
    # Enumerate a side whose bases are bounded: the common set, and its
    # lex order, are the same from either side.
    bounded = all(map(is_finite, itertools.chain(*base_bounds(p1))))
    a, b = (p1, p2) if bounded else (p2, p1)
    common = [z for z in enumerate_bases(a) if member(b, z)]
    if not common:
        raise EmptyIntersection("no integral point in both base sets")
    best_p: ExtInt = PLUS_INF
    arg_p = None
    for z in common:
        v = Phi.value(z)
        if v < best_p:
            best_p, arg_p = v, z

    # w is coded as sum_j w_j * base**j; every entry of a sum w1 + w2 lies
    # in [-2*bound, 2*bound], a balanced digit for base 4*bound + 1, so
    # code(w1) + code(w2) = code(w1 + w2) is a key for the sum.
    base = 4 * w_bound + 1
    grid = list(itertools.product(range(-w_bound, w_bound + 1), repeat=n))
    codes = [sum(v * base**j for j, v in enumerate(w)) for w in grid]
    ext1, ext2 = (
        [(w, e, k) for w, k in zip(grid, codes) if (e := lovasz_extension(p, w)) is not MINUS_INF]
        for p in (p1, p2)
    )
    conj = conjugate_table(Phi)
    conj_of_sum: Dict[int, ExtInt] = {}
    best_d: ExtInt = MINUS_INF
    arg_d = None
    for w1, a, k1 in ext1:
        for w2, b, k2 in ext2:
            c = conj_of_sum.get(k1 + k2)
            if c is None:
                c = conj_of_sum[k1 + k2] = conj([x + y for x, y in zip(w1, w2)])
            if c is PLUS_INF:
                continue
            val = a + b - c
            if val > best_d:
                best_d, arg_d = val, (w1, w2)
    return MinMaxReport(
        primal_value=best_p,
        dual_value=best_d,
        primal_witness=arg_p,
        dual_witness=arg_d,
        equality=(best_p == best_d),
        support_size=0 if arg_d is None else sum(
            1 for v in arg_d[0] + arg_d[1] if v != 0
        ),
        bounds_used={"w_bound": w_bound},
    )
