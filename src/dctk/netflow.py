"""Integral m-flows with separable convex arc costs.

An m-flow x assigns an integer to every arc so that inflow minus
outflow at node v equals m(v), with f <= x <= g.  The solver finds a
feasible flow by unit augmentations along breadth-first paths, then
cancels negative residual cycles found by Bellman-Ford (a forward step
costs phi(x+1) - phi(x), a backward one phi(x-1) - phi(x)); with unit
pushes this is exact for convex costs.  Lengths are lexicographic (see
optimal_potential): a step's cost times 2^(m+2), plus or minus 2^(m-1-a)
on an arc a of finite lower bound, m arcs.  So canceling stops at the
optimum that is lexicographically least on the arcs with f_a finite (an
arc with f_a = -inf takes no part in the order), and the final
distances, rounded, are an optimal node potential pi (Ahuja, Magnanti
and Orlin, *Network Flows*, 1993, ch. 9 and 14).

A potential pi certifies a lower bound through the conjugate min-max
formula for flows,

    min sum_a phi_a(x_a) = max_pi m.pi - sum_a psi_a*(pi(head) - pi(tail)),

where psi_a is phi_a restricted to [f_a, g_a].  An infeasible instance
is certified by the node set its last breadth-first search reached.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from .conjugate import Quadratic, Restricted, SeparableConvex, conjugate_eval, separable_to_json
from .conjugate import from_json as phi_from_json
from .errors import Infeasible, IterationLimit, NotFeasible, Unbounded, ValueMismatch, require
from .extint import MINUS_INF, PLUS_INF, ExtInt, bound_from_json, bound_to_json, is_finite
from .polyhedron import MinMaxReport


@dataclass(frozen=True)
class Digraph:
    nodes: Tuple[str, ...]
    arcs: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        known = set()
        for v in self.nodes:
            if v in known:
                raise ValueError(f"node {v!r} is declared twice")
            known.add(v)
        for u, v in self.arcs:
            if u not in known or v not in known:
                raise ValueError(f"arc ({u},{v}) uses an undeclared node")


@dataclass(frozen=True)
class FlowInstance:
    digraph: Digraph
    m: Tuple[int, ...]  # per node, ordered as digraph.nodes
    lower: Tuple[ExtInt, ...]
    upper: Tuple[ExtInt, ...]
    cost: SeparableConvex

    def __post_init__(self):
        d = self.digraph
        if len(self.m) != len(d.nodes):
            raise ValueError("m must have one entry per node")
        if len(self.lower) != len(d.arcs) or len(self.upper) != len(d.arcs):
            raise ValueError("bounds must have one entry per arc")
        # Flows move whole units: a fractional demand would never be met.
        for v in self.m:
            if type(v) is not int:
                raise ValueError(f"m entries must be integers, got {v!r}")
        for v in (*self.lower, *self.upper):
            if type(v) is not int and v is not MINUS_INF and v is not PLUS_INF:
                raise ValueError(f"arc bounds must be integers or infinities, got {v!r}")
        if sum(self.m) != 0:
            raise ValueError("m must sum to zero")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError("need lower <= upper per arc")
        if len(self.cost.parts) != len(d.arcs):
            raise ValueError("cost must have one part per arc")

    def is_feasible_flow(self, x: Sequence[int]) -> bool:
        """One entry per arc, each within its bounds, and no node excess."""
        if len(x) != len(self.digraph.arcs):
            return False
        for lo, v, hi in zip(self.lower, x, self.upper):
            if not (lo <= v <= hi):
                return False
        return not any(_excess(self, _ends(self), x))

    def to_json(self):
        cost_json = separable_to_json(self.cost)
        return {
            "nodes": list(self.digraph.nodes),
            "arcs": [list(a) for a in self.digraph.arcs],
            "m": {v: self.m[i] for i, v in enumerate(self.digraph.nodes)},
            "lower": [bound_to_json(v) for v in self.lower],
            "upper": [bound_to_json(v) for v in self.upper],
            "cost": {name: cost_json[name] for name, _ in self.cost.parts},
        }

    @classmethod
    def from_json(cls, obj) -> "FlowInstance":
        nodes, arcs, m_obj, lower, upper = (
            require(obj, k, "flow instance: missing") for k in ("nodes", "arcs", "m", "lower", "upper"))
        d = Digraph(tuple(nodes), tuple(tuple(a) for a in arcs))
        m = tuple(require(m_obj, v, "m: missing node") for v in d.nodes)
        lower = tuple(bound_from_json(v, -1) for v in lower)
        upper = tuple(bound_from_json(v, +1) for v in upper)
        names = [f"a{i}" for i in range(len(d.arcs))]
        cost_obj = obj.get("cost")
        if cost_obj is None:
            parts = tuple((n, Quadratic(1)) for n in names)
        else:
            parts = tuple((n, phi_from_json(require(cost_obj, n, "cost: missing arc"))) for n in names)
        return cls(d, m, lower, upper, SeparableConvex(parts))


def square_sum_instance(
    d: Digraph,
    m: Sequence[int],
    lower: Optional[Sequence[ExtInt]] = None,
    upper: Optional[Sequence[ExtInt]] = None,
) -> FlowInstance:
    na = len(d.arcs)
    if lower is None:
        lower = (0,) * na
    if upper is None:
        upper = (PLUS_INF,) * na
    cost = SeparableConvex(tuple((f"a{i}", Quadratic(1)) for i in range(na)))
    return FlowInstance(d, tuple(m), tuple(lower), tuple(upper), cost)


# Residual graph: arcs are (tail, head, arc index, +1 forward / -1 backward)
# on node indices, in arc order with the forward arc first.


def _ends(inst: FlowInstance) -> List[Tuple[int, int]]:
    idx = {v: i for i, v in enumerate(inst.digraph.nodes)}
    return [(idx[t], idx[h]) for t, h in inst.digraph.arcs]


def _residual_arcs(inst: FlowInstance, ends, x: Sequence[int]):
    out = []
    for ai, (t, h) in enumerate(ends):
        if x[ai] < inst.upper[ai]:
            out.append((t, h, ai, +1))
        if x[ai] > inst.lower[ai]:
            out.append((h, t, ai, -1))
    return out


def _priced_arcs(inst: FlowInstance, ends, x: Sequence[int], big: int, weight: Sequence[int]):
    """(tail, head, length, arc index, direction) for the residual arcs,
    where a step's length is big * (its cost) + direction * weight[arc]."""
    out = []
    for u, v, ai, sgn in _residual_arcs(inst, ends, x):
        phi = inst.cost.parts[ai][1]
        out.append((u, v, big * (phi.value(x[ai] + sgn) - phi.value(x[ai])) + sgn * weight[ai], ai, sgn))
    return out


def _finite_cost_bounds(inst: FlowInstance) -> FlowInstance:
    """inst with each arc's bounds narrowed to the domain of its cost, so
    that every flow within them, and every residual step, has finite
    cost."""
    lower, upper = [], []
    for ai, ((_, phi), lo, hi) in enumerate(zip(inst.cost.parts, inst.lower, inst.upper)):
        dom_lo, dom_hi = phi.dom()
        lo, hi = max(lo, dom_lo), min(hi, dom_hi)
        if lo > hi:
            raise ValueError(f"the cost of arc {ai} is finite nowhere within its bounds")
        lower.append(lo)
        upper.append(hi)
    return FlowInstance(inst.digraph, inst.m, tuple(lower), tuple(upper), inst.cost)


def _bfs(n: int, arcs, sources: Set[int], targets: Set[int]):
    """Breadth-first search along residual arcs from the sources.

    Returns (path, reached): path lists the (arc index, direction) steps
    from a source to the first target dequeued, or is None when no
    target is reachable; reached is the set of nodes seen."""
    adj: List[list] = [[] for _ in range(n)]
    for u, v, ai, sgn in arcs:
        adj[u].append((v, ai, sgn))
    prev = {}
    reached = set(sources)
    queue = deque(sorted(sources))
    while queue:
        u = queue.popleft()
        if u in targets:
            path = []
            while u in prev:
                u, ai, sgn = prev[u]
                path.append((ai, sgn))
            return path, reached
        for v, ai, sgn in adj[u]:
            if v not in reached:
                reached.add(v)
                prev[v] = (u, ai, sgn)
                queue.append(v)
    return None, reached


def _bellman_ford(n: int, arcs):
    """Bellman-Ford over priced residual arcs from a virtual source joined
    to every node by a 0-cost arc (so every distance starts at 0).

    Returns (cycle, None) with a negative cycle as (arc index, direction)
    steps, or (None, dist) with the shortest distances."""
    dist = [0] * n
    pred: List[Optional[Tuple[int, int, int]]] = [None] * n
    for _ in range(n + 1):
        last = None
        for u, v, c, ai, sgn in arcs:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                pred[v] = (u, ai, sgn)
                last = v
        if last is None:
            return None, dist
    # A node relaxed in round n + 1 reaches a predecessor cycle within n
    # steps back, and every cycle of predecessors is negative.
    for _ in range(n):
        last = pred[last][0]
    cycle = []
    v = last
    while True:
        v, ai, sgn = pred[v]
        cycle.append((ai, sgn))
        if v == last:
            return cycle, None


def _excess(inst: FlowInstance, ends, x: Sequence[int]) -> List[int]:
    """inflow - outflow - m per node; all zero means conservation."""
    exc = [-mv for mv in inst.m]
    for (t, h), xv in zip(ends, x):
        exc[h] += xv
        exc[t] -= xv
    return exc


def _initial_flow(inst: FlowInstance, ends) -> List[int]:
    """Any integral flow within bounds meeting conservation, by unit
    augmentations from surplus to deficit nodes; each one lowers the
    total surplus by one.

    When no deficit node is reachable, the reached set S holds surplus
    and no deficit, its leaving arcs sit at their upper bounds and its
    entering arcs at their lower bounds.  So m(S) < f(entering) -
    g(leaving), which no feasible flow allows, and S is raised with
    :class:`Infeasible`."""
    x = [min(max(0, lo), hi) for lo, hi in zip(inst.lower, inst.upper)]
    n = len(inst.digraph.nodes)
    while True:
        exc = _excess(inst, ends, x)
        sources = {v for v in range(n) if exc[v] > 0}
        if not sources:
            return x
        sinks = {v for v in range(n) if exc[v] < 0}
        path, reached = _bfs(n, _residual_arcs(inst, ends, x), sources, sinks)
        if path is None:
            nodes = inst.digraph.nodes
            raise Infeasible(
                "no augmenting path between surplus and deficit",
                tuple(nodes[v] for v in sorted(reached)),
            )
        for ai, sgn in path:
            x[ai] += sgn


def _unbounded_cycle(inst: FlowInstance, x: Sequence[int], cycle) -> bool:
    """Whether the negative cycle can take any number of further units at
    the same cost: every step has infinite room and its arc's marginal
    cost that way already equals the limit slope on that side, where
    convexity keeps it."""
    for ai, sgn in cycle:
        phi = inst.cost.parts[ai][1]
        smin, smax = phi.slope_range()
        bound, limit = (inst.upper[ai], smax) if sgn > 0 else (inst.lower[ai], smin)
        # The step costs phi'(x) forward and -phi'(x - 1) backward.
        if is_finite(bound) or sgn * (phi.value(x[ai] + sgn) - phi.value(x[ai])) != limit:
            return False
    return True


def _cancel_to_optimal(inst: FlowInstance, ends):
    """(x, pi): where canceling negative cycles one unit at a time under
    the lexicographic lengths of :func:`optimal_potential` stops, and the
    distances of the last, cycle-free Bellman-Ford run, rounded to
    multiples of big (they are off by less than big / 4)."""
    n, m = len(inst.digraph.nodes), len(ends)
    big = 1 << (m + 2)
    weight = [1 << (m - 1 - a) if is_finite(lo) else 0 for a, lo in enumerate(inst.lower)]
    x = _initial_flow(inst, ends)
    for _ in range(100000):
        cycle, dist = _bellman_ford(n, _priced_arcs(inst, ends, x, big, weight))
        if cycle is None:
            return x, [(d + big // 2) // big for d in dist]
        # A negative cycle of zero cost lowers an arc of finite lower
        # bound, so it is never taken for an unbounded one.
        if _unbounded_cycle(inst, x, cycle):
            raise Unbounded("negative cycle of unbounded room and constant cost")
        for ai, sgn in cycle:
            x[ai] += sgn
    raise IterationLimit("cycle canceling budget of 100000 units exhausted")


def optimal_potential(inst: FlowInstance) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Solve the instance and return (x, pi): x of least cost, and among
    those lexicographically least on the arcs of finite lower bound; pi
    the residual shortest distances at x from a virtual source, shifted
    so min pi = 0.

    One canceling loop finds both.  With m arcs, arc a weighs 2^(m-1-a)
    if its lower bound is finite, else 0, and a residual step's length is
    big * (its cost) + direction * weight, big = 2^(m+2).  A simple
    cycle's weights sum to less than 2^m in absolute value, so a cycle
    of negative cost stays negative, and one of zero cost is negative
    exactly when it lowers the first weighted arc it touches.  An arc
    with an infinite lower bound takes no part in the order, since its
    optimal values need not be bounded below.  The last Bellman-Ford
    run finds no negative cycle, and its distances, rounded to multiples
    of big, are the cost distances, so pi is an optimal potential.

    The shift leaves m.pi unchanged because m sums to zero, and the
    resulting pi is componentwise nonnegative.  Bounds are first
    narrowed to the cost domains, so :class:`Infeasible` means that no
    flow of finite cost exists.
    """
    inst = _finite_cost_bounds(inst)
    x, pi = _cancel_to_optimal(inst, _ends(inst))
    shift = -min(pi, default=0)
    return tuple(x), tuple(p + shift for p in pi)


def flow_dual_value(inst: FlowInstance, pi: Sequence[int]) -> ExtInt:
    """m.pi - sum_a (phi_a on [f_a, g_a])^*(pi(head) - pi(tail)): the lower
    bound on the minimum cost that the node potential pi certifies."""
    if len(pi) != len(inst.digraph.nodes):
        raise ValueError("pi must have one entry per node")
    total: ExtInt = sum(mv * pv for mv, pv in zip(inst.m, pi))
    for (t, h), (_, phi), lo, hi in zip(_ends(inst), inst.cost.parts, inst.lower, inst.upper):
        total -= conjugate_eval(Restricted(lo, hi, phi), pi[h] - pi[t])
    return total


def certify_flow(inst: FlowInstance, x: Sequence[int], pi: Sequence[int]) -> MinMaxReport:
    """Exact equality check cost(x) = flow_dual_value(pi); equality
    certifies optimality of both sides."""
    if not inst.is_feasible_flow(x):
        raise NotFeasible(f"x={tuple(x)} is not a feasible flow")
    primal = inst.cost.value(x)
    dual = flow_dual_value(inst, pi)
    if primal != dual:
        raise ValueMismatch(primal, dual)
    return MinMaxReport(
        primal_value=primal,
        dual_value=dual,
        primal_witness=tuple(x),
        dual_witness=tuple(pi),
        equality=True,
        support_size=sum(1 for v in pi if v != 0),
    )
