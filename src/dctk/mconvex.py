"""Base polyhedra of supermodular set functions and M-convex minimization.

A supermodular p on 2^S (p(empty)=0, p(S) finite, MINUS_INF allowed
elsewhere) induces the base polyhedron {x: x(Z) >= p(Z) for all Z,
x(S) = p(S)}.  This module provides the linear extension, Edmonds
greedy, exchange descent for separable convex objectives, tight-set
machinery, and the slope-based dual certificate with its verifier.

The descent and the certificate both read the dependence function
(:func:`dependence`): one scan of the z-tight sets decides every
exchange of a step, so neither calls :func:`member`, which serves
verification and the M2 intersection.  The M2 weight splitting reads it
too: a split worth Phi at the common base z* asks w_k[t] >= w_k[s] for t
in dep_k[s], so it is the first point of one small system, and the grid
of splits is scanned only when that system is empty.

Two kernels serve every 2^n scan of a mask table.  The input check
(:meth:`SupermodularFn._check_supermodular`, run for n <= CHECKED_GROUND)
reads the finite masks as the ideals of a preorder (Birkhoff): M_s is
the least finite mask holding s, a mask is finite exactly when it is
the union of the M_s of its elements, and supermodularity on that ring
family follows from the exchange squares X + M_s, X + M_t over finite
X (Topkis 1978; Fujishige 2005, section 3), in n * 2^n plus
C(n, 2) * 2^(n-2) steps instead of the ~4^n / 2 pairs of masks.  The
scans at a point z (:func:`tight_sets`, :func:`member`, the top sets of
:func:`verify_mconvex_optimality`) read all z(X) from one subset-sum
table (:func:`_subset_sums`).  Everything stays plain enumeration, with
no submodular minimization, so each answer is independently checkable.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .conjugate import SeparableConvex, conjugate_eval
from .errors import CriteriaViolated, EmptyIntersection, Inconclusive, IterationLimit, Unbounded
from .extint import MINUS_INF, PLUS_INF, ExtInt, is_finite
from .polyhedron import (
    EQ,
    GEQ,
    LinearSystem,
    MinMaxReport,
    Row,
    Window,
    check_elements,
    enumerate_integer_points,
    fitting_points,
)

MAX_GROUND = 20
CHECKED_GROUND = 14  # larger tables are taken as supermodular unchecked
UNCHECKED_NOTE = f"supermodularity of p unchecked (n > {CHECKED_GROUND})"


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
            # The type, not isinstance: a bool is an int.  A float would
            # read as MINUS_INF wherever is_finite decides.
            if v is not MINUS_INF and type(v) is not int:
                raise ValueError(f"p takes integers and MINUS_INF only, got {v!r}")
        object.__setattr__(
            self,
            "elements",
            check_elements(self.elements) or tuple(f"e{i + 1}" for i in range(self.n)),
        )
        if len(self.elements) != self.n:
            raise ValueError("element names must match n")
        if self.n <= CHECKED_GROUND:
            self._check_supermodular()

    def _check_supermodular(self):
        """Reject p unless its finite masks form a ring family (closed
        under union and intersection) on which p is supermodular; the
        error names two finite masks whose meet or join is MINUS_INF, or
        whose values break p(X) + p(Y) <= p(X & Y) + p(X | Y)."""
        t = self.table
        full = self.full

        def fail(x, y):
            raise ValueError(f"supermodularity fails at masks {min(x, y)}, {max(x, y)}")

        # low[s] = M_s, the AND of the finite masks holding s; each running
        # AND is finite while intersections stay in the family.
        low = []
        for s in range(self.n):
            acc = full
            for x in range(1 << s, full + 1):
                if x >> s & 1 and t[x] is not MINUS_INF:
                    if t[acc & x] is MINUS_INF:
                        fail(acc, x)
                    acc &= x
            low.append(acc)
        # A finite mask holds M_s for each of its s; an infinite one that
        # is the union of its M_s breaks union closure along the way.
        union = [0] * (full + 1)
        for x in range(1, full + 1):
            union[x] = union[x & (x - 1)] | low[(x & -x).bit_length() - 1]
            if union[x] == x and t[x] is MINUS_INF:
                acc = 0
                for s in range(self.n):
                    if x >> s & 1:
                        if t[acc | low[s]] is MINUS_INF:
                            fail(acc, low[s])
                        acc |= low[s]
        # The squares X, X + M_s, X + M_t, X + M_s + M_t of the family.
        for x in range(full + 1):
            if t[x] is MINUS_INF:
                continue
            ups = [x | low[s] for s in range(self.n) if not x >> s & 1]
            for i, a in enumerate(ups):
                for b in ups[i + 1:]:
                    u = a | b
                    if u != a and u != b and t[a] + t[b] > t[a & b] + t[u]:
                        fail(a, b)

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
        return cls(n, tuple(table), obj.get("elements", ()))


def _subset_sums(z: Sequence[int]) -> List[int]:
    """z(X) for every mask X over the entries of z, by doubling: each
    entry adds itself to the sums of the masks below its bit."""
    out = [0]
    for v in z:
        out += [u + v for u in out]
    return out


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
    """z(S) = p(S) and z(X) >= p(X) for every X; an int is >= MINUS_INF."""
    sums = _subset_sums(z)
    return sums[p.full] == p.table[p.full] and all(map(operator.ge, sums, p.table))


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
    sums = _subset_sums(z)
    return [mask for mask in range(1, p.full + 1) if sums[mask] == p.table[mask]]


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
    sums = _subset_sums(z_star)
    for mask in strict_top_sets(p, w_star):
        if sums[mask] != p.table[mask]:
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
        notes=() if p.n <= CHECKED_GROUND else (UNCHECKED_NOTE,),
    )


def m2_minimize_and_split(
    p1: SupermodularFn,
    p2: SupermodularFn,
    Phi: SeparableConvex,
    w_bound: int = 3,
) -> MinMaxReport:
    """Primal minimum over the intersection of the two integral base
    sets, and the best weight splitting (w1, w2) with each |w_i| <= bound:
    phat1(w1) + phat2(w2) - conj(Phi)(w1 + w2).

    For z* a common base (the primal witness, if any), a split is worth
    -g1(w1) - g2(w2) - h(w1 + w2), with g_i(w) = w.z* - phat_i(w) >= 0 and
    h(s) = conj(Phi)(s) - s.z* (h + Phi(z*) >= 0 is the Fenchel-Young
    gap).  So a split is worth at most Phi(z*), and reaches it exactly
    when z* minimizes w1 over the bases of p1 and w2 over those of p2
    (w_k[t] >= w_k[s] for t in dep_k[s], :func:`dependence`) and w1 + w2
    fits z* (Murota's weight splitting, Discrete Convex Analysis, ch. 8).
    The first such (w1, w2) in lex order (:func:`_split_certificate`)
    is the answer, when there is one.

    Otherwise the sums s run by increasing h, each with w1 by increasing
    g1, until -h - g1 is below the best value; ties go to the lowest grid
    indices, so value and witness are those of the lex-order grid scan.
    """
    if p1.n != p2.n:
        raise ValueError("ground sets differ")
    if w_bound < 0:
        raise ValueError(f"w_bound must be >= 0, got {w_bound}")
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
    arg_d = None if arg_p is None else _split_certificate(p1, p2, Phi, arg_p, w_bound)
    if arg_d is not None:
        best_d = best_p
    else:
        best_d, arg_d = _split_search(p1, p2, Phi, common[0] if arg_p is None else arg_p, w_bound)
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


def _split_certificate(
    p1: SupermodularFn, p2: SupermodularFn, Phi: SeparableConvex, z_star: Tuple[int, ...], w_bound: int
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The lex-first split (w1, w2) in the window worth Phi(z*), or None:
    an exchange row w_k[t] - w_k[s] >= 0 per side k and t != s in dep_k[s],
    and the fitting rows on w1 + w2, over the unknowns (w1, w2)."""
    n = p1.n
    rows = []
    for k, p in enumerate((p1, p2)):
        for s, dep in enumerate(dependence(p, z_star)):
            for t in range(n):
                if t != s and dep >> t & 1:
                    c = [0] * (2 * n)
                    c[k * n + t], c[k * n + s] = 1, -1
                    rows.append(Row(tuple(c), 0, GEQ))
    cols = [tuple(int(i % n == j) for i in range(2 * n)) for j in range(n)]
    win = Window.uniform(2 * n, -w_bound, w_bound)
    first = next(fitting_points(Phi, z_star, cols, win, rows), None)
    return None if first is None else (first[:n], first[n:])


def _split_search(
    p1: SupermodularFn, p2: SupermodularFn, Phi: SeparableConvex, z_star: Tuple[int, ...], w_bound: int
) -> Tuple[ExtInt, Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]]:
    """(value, (w1, w2)) of the best split in the window, by the pruned
    grid scan described in :func:`m2_minimize_and_split`."""
    n = p1.n
    # w is coded as sum_j w_j * base**j; every entry of s - w1 lies in
    # [-3*bound, 3*bound], a balanced digit for base 6*bound + 1, so the
    # code of s less the code of w1 is the code of w2 = s - w1.
    base = 6 * w_bound + 1
    grid = [(w, sum(v * base**j for j, v in enumerate(w)))
            for w in itertools.product(range(-w_bound, w_bound + 1), repeat=n)]
    side1 = sorted(
        (sum(x * y for x, y in zip(w, z_star)) - e, i, w, e, k)
        for i, (w, k) in enumerate(grid) if (e := lovasz_extension(p1, w)) is not MINUS_INF
    )
    side2 = {k: (i, w, e) for i, (w, k) in enumerate(grid) if (e := lovasz_extension(p2, w)) is not MINUS_INF}
    # h is separable: per coordinate, its finite (h_j, s_j, conj_j), sorted.
    cols = [
        sorted(
            (c - v * zj, v, c)
            for v in range(-2 * w_bound, 2 * w_bound + 1)
            if (c := conjugate_eval(phi, v)) is not PLUS_INF
        )
        for (_, phi), zj in zip(Phi.parts, z_star)
    ]

    def sums():
        """(h(s), the entries of cols that make s) by increasing h: index
        vectors come off a heap, each reached once by raising coordinates
        in order."""
        heap = [(sum(col[0][0] for col in cols), (0,) * n, 0)] if all(cols) else []
        while heap:
            h, idx, k = heapq.heappop(heap)
            picked = [col[i] for col, i in zip(cols, idx)]
            yield h, picked
            for j in range(k, n):
                if idx[j] + 1 < len(cols[j]):
                    up = h - cols[j][idx[j]][0] + cols[j][idx[j] + 1][0]
                    heapq.heappush(heap, (up, idx[:j] + (idx[j] + 1,) + idx[j + 1:], j))

    best_d: ExtInt = MINUS_INF
    arg_d = first = None  # the best split and its grid indices
    for h, picked in sums():
        if -h < best_d:
            break
        ks = sum(e[1] * base**j for j, e in enumerate(picked))
        c = sum(e[2] for e in picked)
        for g1, i1, w1, e1, k1 in side1:
            if -h - g1 < best_d:
                break
            hit = side2.get(ks - k1)
            if hit is not None:
                i2, w2, e2 = hit
                val = e1 + e2 - c
                if val > best_d or (val == best_d and (i1, i2) < first):
                    best_d, arg_d, first = val, (w1, w2), (i1, i2)
    return best_d, arg_d
