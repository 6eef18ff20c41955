"""Base polyhedra of supermodular set functions and M-convex minimization.

A supermodular p on 2^S (p(empty)=0, p(S) finite, MINUS_INF allowed
elsewhere) induces the base polyhedron {x: x(Z) >= p(Z) for all Z,
x(S) = p(S)}.  This module provides the linear extension, Edmonds
greedy, exchange descent for separable convex objectives, tight-set
machinery, and the slope-based dual certificate with its verifier.

The descent step, its stop test and the certificate are one routine
(:func:`_exchange`) on the dependence function (:func:`dependence`):
one scan of the z-tight sets decides every exchange of a step, with no
call to :func:`member`, which serves verification; the descent returns
the w of its last scan.  The M2 weight splitting reads it too: a split
worth Phi at the common base z* asks w_k[t] >= w_k[s] for t in
dep_k[s], so it is the first point of one small system, and the grid of
splits is scanned only when that system is empty.  The M2 primal is
:func:`minimize_bruteforce` on both sides' rows, in the box that
Edmonds' intersection theorem reads off the two tables, with no LP.

Two kernels serve every 2^n scan of a mask table.  The input check
(:meth:`SupermodularFn._check_supermodular`, run for n <= CHECKED_GROUND)
makes a few whole-row passes of slices, ``map`` and ``itertools``: with
cl(X) the union over s in X of M_s, the AND of the finite masks holding
s, it extends p to q(X) = p(cl X) - K * (|cl X| - |X|), K the spread of
the finite values, and runs one local-square test on q over all of 2^S
(Topkis 1978; Fujishige 2005, section 3); a table with no MINUS_INF is
its own q.  A failed square (X, s, t) names cl(X + s) and cl(X + t).
At n = 14 the check takes 0.02-0.04 s on a 2-vCPU Xeon VM.
The scans at a point z (:func:`tight_sets`, :func:`member`, the top sets
of :func:`verify_mconvex_optimality`) read all z(X) from one subset-sum
table (:func:`_subset_sums`).  Everything stays plain enumeration, with
no submodular minimization, so each answer is independently checkable.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .conjugate import FlatBottom, SeparableConvex, conjugate_eval
from .errors import (
    CriteriaViolated, EmptyIntersection, Inconclusive, Infeasible, IterationLimit, Unbounded, require)
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
    minimize_bruteforce,
)

MAX_GROUND = 20
CHECKED_GROUND = 14  # larger tables are taken as supermodular unchecked
UNCHECKED_NOTE = f"supermodularity of p unchecked (n > {CHECKED_GROUND})"


def _ground_size(n) -> int:
    """n, when it is an int (not a bool) in 1..MAX_GROUND."""
    if type(n) is not int or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size must be an integer in 1..{MAX_GROUND}, got {n!r}")
    return n


def _fail(x: int, y: int):
    raise ValueError(f"supermodularity fails at masks {min(x, y)}, {max(x, y)}")


def _marginals(q: Sequence[int], s: int) -> List[int]:
    """q(X + s) - q(X) for the masks X without s, in mask order with bit s
    deleted: 2^s strided slices or len(q) / 2^(s+1) blocks, whichever are
    fewer."""
    half, step = 1 << s, 2 << s
    if 1 << 2 * s + 1 <= len(q):
        d = [0] * (len(q) >> 1)
        for j in range(half):
            d[j::half] = map(operator.sub, q[j + half::step], q[j::step])
        return d
    d = []
    for i in range(0, len(q), step):
        d += map(operator.sub, q[i + half:i + step], q[i:i + half])
    return d


def _rising(d: Sequence[int], b: int) -> bool:
    """d(i) <= d(i + 2^b) for every index i without bit b, over the same
    choice of strided or block slices."""
    half, step = 1 << b, 2 << b
    if 1 << 2 * b + 1 <= len(d):
        return all(all(map(operator.le, d[j::step], d[j + half::step])) for j in range(half))
    return all(all(map(operator.le, d[i:i + half], d[i + half:i + step])) for i in range(0, len(d), step))


@dataclass(frozen=True)
class SupermodularFn:
    """Dense table over bitmasks; bit i of a mask is element i."""

    n: int
    table: Tuple[ExtInt, ...]
    elements: Tuple[str, ...] = ()

    def __post_init__(self):
        _ground_size(self.n)
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
        """Reject p unless its finite masks form a ring family on which p
        is supermodular, by one local-square test on all of 2^S.

        M_s is the AND of the finite masks holding s, and cl(X) the union
        of M_s over s in X.  The finite masks form a ring family exactly
        when every cl(X) is finite: a finite X holds each of its M_s, so
        cl X = X, and X & Y, X | Y are their own closures.  Then q(X) =
        p(cl X) - K * (|cl X| - |X|), K the spread of the finite values,
        equals p on the family, and p is supermodular there exactly when
        q is on 2^S (cl(X & Y) lies in cl X & cl Y, and p(A) - p(B) <=
        K * (|A| - |B|) for B in A in the family), that is, when every
        marginal row d_s(X) = q(X + s) - q(X) is nondecreasing along
        each bit t.  A table with no MINUS_INF is its own q.

        The error names two finite, non-nested masks: a running AND of
        the masks holding some s that is MINUS_INF, or cl(X - s) and M_s
        for the first X with cl(X) MINUS_INF; else cl(X + s) and cl(X + t)
        for the first failed square (X, s, t) of q, which break
        p(A) + p(B) <= p(A & B) + p(A | B) by the same K argument."""
        t, n, masks = self.table, self.n, range(self.full + 1)
        fin = list(map(operator.is_not, t, itertools.repeat(MINUS_INF)))
        if all(fin):
            q, cl = t, masks
        else:
            own = list(itertools.compress(masks, fin))
            low, cl = [], [0]
            for s in range(n):
                holding = itertools.compress(own, map(operator.and_, own, itertools.repeat(1 << s)))
                low.append(functools.reduce(operator.and_, holding))
                cl += list(map(operator.or_, cl, itertools.repeat(low[s])))
            if not all(map(fin.__getitem__, cl)):
                self._name_family_failure(low, cl)
            values = list(itertools.compress(t, fin))
            grown = map(operator.sub, map(int.bit_count, cl), map(int.bit_count, masks))
            q = list(map(operator.sub, map(t.__getitem__, cl),
                         map(operator.mul, grown, itertools.repeat(max(values) - min(values)))))
        for s in range(n - 1):
            d = _marginals(q, s)
            for u in range(s + 1, n):
                if not _rising(d, u - 1):
                    a, b = 1 << s, 1 << u
                    x = next(x for x in masks
                             if not x & (a | b) and q[x | a] - q[x] > q[x | a | b] - q[x | b])
                    _fail(cl[x | a], cl[x | b])

    def _name_family_failure(self, low, cl):
        """Name two finite masks that the family test found not closed:
        the first running AND that is MINUS_INF, else cl(X - s) and M_s
        for the first X with cl(X) MINUS_INF, s its highest element (each
        earlier closure, and so cl(X - s), is finite; M_s is the last
        running AND)."""
        t = self.table
        for s in range(self.n):
            acc = self.full
            for x in range(1 << s, self.full + 1):
                if x >> s & 1 and t[x] is not MINUS_INF:
                    if t[acc & x] is MINUS_INF:
                        _fail(acc, x)
                    acc &= x
        x = next(x for x, c in enumerate(cl) if t[c] is MINUS_INF)
        s = x.bit_length() - 1
        _fail(cl[x ^ 1 << s], low[s])

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

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
        n = _ground_size(require(obj, "n", "set function: missing"))
        p = require(obj, "p", "set function: missing")
        table = (require(p, str(mask), "p: missing mask") for mask in range(1 << n))
        return cls(n, tuple(MINUS_INF if v is None else v for v in table), obj.get("elements", ()))


def _subset_sums(z: Sequence[int]) -> List[int]:
    """z(X) for every mask X over the entries of z, by doubling: each
    entry adds itself to the sums of the masks below its bit."""
    out = [0]
    for v in z:
        out += [u + v for u in out]
    return out


def complement(p: SupermodularFn) -> Tuple[ExtInt, ...]:
    """Submodular complement pbar(X) = p(S) - p(S-X), PLUS_INF where p(S-X) is MINUS_INF."""
    return tuple(p.table[p.full] - p.table[p.full ^ mask] for mask in range(p.full + 1))


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
    bar = complement(p)
    return tuple(p.table[1 << i] for i in range(p.n)), tuple(bar[1 << i] for i in range(p.n))


def enumerate_bases(p: SupermodularFn) -> List[Tuple[int, ...]]:
    """All integral bases in lex order: the integer points of
    :func:`to_system` in the box of :func:`base_bounds`."""
    los, his = base_bounds(p)
    if not all(map(is_finite, los + his)):
        raise Inconclusive("base polyhedron has an unbounded component")
    return list(enumerate_integer_points(to_system(p), Window(los, his)))


def _exchange(p: SupermodularFn, Phi: SeparableConvex, z: Sequence[int]):
    """(w, move) at the base z from one :func:`dependence` scan: w(s) is
    the least right slope over dep[s], an infinite slope read as the
    greatest finite slope at z (the least, for MINUS_INF) or 0, and move
    the first (s, t), t in dep[s], of largest drop left[s] - right[t] > 0,
    or None.  With no move, w fits z and w(t) >= w(s) for t in dep[s], so
    (z, w) passes every check of :func:`verify_mconvex_optimality`."""
    dep = dependence(p, z)
    left, right = Phi.prime_minus(z), Phi.prime(z)
    finite = [v for v in left + right if is_finite(v)]
    if len(finite) < 2 * p.n:
        clip = {PLUS_INF: max(finite, default=0), MINUS_INF: min(finite, default=0)}
        left, right = ([clip.get(v, v) for v in side] for side in (left, right))
    w, drop, move = [], 0, None
    for s in range(p.n):
        ds, ls, m = dep[s], left[s], right[s]
        for t in range(p.n):
            if ds >> t & 1:
                r = right[t]
                if r < m:
                    m = r
                if ls - r > drop:
                    drop, move = ls - r, (s, t)
        w.append(m)
    return tuple(w), move


def _descend(p: SupermodularFn, Phi: SeparableConvex, z: List[int]) -> Tuple[int, ...]:
    """Steepest exchange steps on z until none improves Phi; the w of the last scan."""
    for _ in range(10 * p.n * 1000 + 1000):
        w, move = _exchange(p, Phi, z)
        if move is None:
            return w
        z[move[0]] -= 1
        z[move[1]] += 1
    raise IterationLimit("descent budget exhausted")


def minimize_separable(p: SupermodularFn, Phi: SeparableConvex) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(z, w): steepest exchange descent from the w=0 greedy base, and the
    w of its stop test, a certificate of z.  Where Phi is infinite at the
    start, it first descends on the distance to dom Phi, finite on every
    base, so it reaches dom Phi exactly when some base lies in it; else
    :class:`Infeasible`."""
    z = list(greedy_min(p, (0,) * p.n))
    if not is_finite(Phi.value(z)):
        doms = [(e, *phi.dom()) for e, phi in Phi.parts]
        if all(lo <= hi for _, lo, hi in doms):
            _descend(p, SeparableConvex(tuple((e, FlatBottom(lo, hi, -1, 1)) for e, lo, hi in doms)), z)
        if not is_finite(Phi.value(z)):
            raise Infeasible("no base where the objective is finite")
    w = _descend(p, Phi, z)
    return tuple(z), w


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


def dual_certificate(p: SupermodularFn, Phi: SeparableConvex, z_star: Sequence[int]) -> Tuple[int, ...]:
    """The w of :func:`_exchange` at z*, a certificate whenever z* minimizes Phi."""
    return _exchange(p, Phi, z_star)[0]


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
    Phi(z*) = phat(w*) - conj(Phi)(w*).  An equality is a proof for any
    table: phat(w) is y.p for the chain dual y (y >= 0 on the proper top
    sets, free on S, yQ = w), feasible whether or not p is supermodular,
    which above CHECKED_GROUND only the completeness of the descent and
    of the INFEASIBLE of :func:`m2_minimize_and_split` assume."""
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
    if p1.elements != p2.elements:
        raise ValueError(f"ground sets differ: {list(p1.elements)} and {list(p2.elements)}")
    if w_bound < 0:
        raise ValueError(f"w_bound must be >= 0, got {w_bound}")
    # The common bases lie in the box that Edmonds' intersection theorem
    # gives (Fujishige 2005): they exist exactly when p1(S) = p2(S) and
    # p1 <= pbar2, and then z_j runs over [max p1(X+j) - pbar2(X),
    # min pbar2(X+j) - p1(X)], X ranging over the sets without j.  The
    # primal is the bound-pruned minimum on both sides' rows in that box;
    # where Phi is infinite on every common base, the lex-first one is z*.
    t1, bar2, masks = p1.table, complement(p2), range(p1.full + 1)
    los = [max(t1[x | 1 << j] - bar2[x] for x in masks if not x >> j & 1) for j in range(p1.n)]
    his = [min(bar2[x | 1 << j] - t1[x] for x in masks if not x >> j & 1) for j in range(p1.n)]
    z_star = None
    if t1[p1.full] == p2.table[p2.full] and all(map(operator.le, t1, bar2)):
        if not all(map(is_finite, los + his)):
            raise Inconclusive("the common bases are unbounded")
        both = LinearSystem(p1.elements, to_system(p1).rows + to_system(p2).rows)
        box = Window(tuple(los), tuple(his))
        primal = minimize_bruteforce(both, Phi, box)
        z_star = primal.primal_witness or next(enumerate_integer_points(both, box), None)
    if z_star is None:  # empty by the theorem, or a side is not supermodular (n > CHECKED_GROUND)
        raise EmptyIntersection("no integral point in both base sets")
    best_p, arg_p = primal.primal_value, primal.primal_witness
    arg_d = None if arg_p is None else _split_certificate(p1, p2, Phi, arg_p, w_bound)
    best_d, arg_d = (best_p, arg_d) if arg_d is not None else _split_search(p1, p2, Phi, z_star, w_bound)
    return MinMaxReport(
        primal_value=best_p,
        dual_value=best_d,
        primal_witness=arg_p,
        dual_witness=arg_d,
        equality=(best_p == best_d),
        support_size=0 if arg_d is None else sum(v != 0 for v in arg_d[0] + arg_d[1]),
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
    first = next(fitting_points(Phi.prime_minus(z_star), Phi.prime(z_star), cols, win, rows), None)
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
