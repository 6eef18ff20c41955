import collections
import random

import pytest

from dctk.conjugate import (
    FlatBottom,
    LinearPlus,
    Quadratic,
    SeparableConvex,
    Shifted,
    SumOf,
    VShape,
    linear_fn,
)
from dctk import netflow
from dctk.errors import Infeasible, IterationLimit, NotFeasible, Unbounded, ValueMismatch
from dctk.extint import MINUS_INF, PLUS_INF, is_finite
from dctk.fixtures import d2, d2_instance
from dctk.netflow import (
    Digraph,
    FlowInstance,
    certify_flow,
    flow_dual_value,
    optimal_potential,
    square_sum_instance,
)
from dctk.polyhedron import Window, dual_search_bruteforce, minimize_bruteforce

from helpers import (
    embedding_system,
    enumerate_flows,
    incidence_matrix,
    naive_is_feasible_flow,
    random_digraph,
    random_flow_instance,
    window_points,
)

D2 = d2()
FREE2 = square_sum_instance(D2, (-2, 2), lower=(MINUS_INF,) * 2, upper=(PLUS_INF,) * 2)


def with_cost(inst, parts):
    """inst with arc costs parts (one per arc, in arc order)."""
    cost = SeparableConvex(tuple((f"a{i}", p) for i, p in enumerate(parts)))
    return FlowInstance(inst.digraph, inst.m, inst.lower, inst.upper, cost)


def cut_certifies(inst, S):
    """m(S) < f(arcs entering S) - g(arcs leaving S), which no feasible
    flow allows (Hoffman's circulation condition)."""
    arcs = inst.digraph.arcs
    entering = [lo for (t, h), lo in zip(arcs, inst.lower) if h in S and t not in S]
    leaving = [hi for (t, h), hi in zip(arcs, inst.upper) if t in S and h not in S]
    if not all(is_finite(v) for v in entering + leaving):
        return False
    m_S = sum(mv for v, mv in zip(inst.digraph.nodes, inst.m) if v in S)
    return m_S < sum(entering) - sum(leaving)


class TestIncidence:
    def test_d2_rows(self):
        rows = incidence_matrix(D2)
        assert rows[0] == (-1, -1)  # s
        assert rows[1] == (1, 1)  # t

    def test_loop_is_zero(self):
        d = Digraph(("v",), (("v", "v"),))
        assert incidence_matrix(d) == [(0,)]


class TestIsFeasibleFlow:
    def test_matches_incidence_oracle(self):
        """is_feasible_flow, which reads conservation off the solver's
        node excess, against the incidence-matrix test, on flows that are
        feasible, of the wrong length, out of bounds or not conserving."""
        rng = random.Random(67)
        verdicts = collections.Counter()
        for _ in range(400):
            inst = random_flow_instance(rng)
            x = list(rng.choice(enumerate_flows(inst, 3)))
            lower, upper = list(inst.lower), list(inst.upper)
            a = rng.randrange(len(x))
            kind = rng.choice(("feasible", "length", "bounds", "conservation"))
            if kind == "feasible":
                lower[a], upper[a] = rng.choice(((MINUS_INF, upper[a]), (lower[a], PLUS_INF)))
            elif kind == "length":
                x = x + [0] if rng.random() < 0.5 else x[:-1]
            elif kind == "bounds":  # x still conserves
                if rng.random() < 0.5:
                    lower[a] = upper[a] = x[a] + 1
                else:
                    lower[a] = upper[a] = x[a] - 1
            else:
                x[a] += 1 if x[a] < upper[a] else -1
            inst = FlowInstance(inst.digraph, inst.m, tuple(lower), tuple(upper), inst.cost)
            got = inst.is_feasible_flow(x)
            assert got == naive_is_feasible_flow(inst, x)
            verdicts[kind, got] += 1
        assert set(verdicts) == {("feasible", True), ("length", False), ("bounds", False),
                                 ("conservation", False)}, verdicts
        assert min(verdicts.values()) >= 60, verdicts


class TestFlowInstance:
    @pytest.mark.parametrize("m, lower, message", [
        ((-1.5, 1.5), (0, 0), "m entries must be integers, got -1.5"),
        ((-2, True), (0, 0), "m entries must be integers, got True"),
        ((-2, 2), (0, 0.5), "arc bounds must be integers or infinities, got 0.5"),
    ], ids=["float-demand", "bool-demand", "float-bound"])
    def test_non_integers_refused(self, m, lower, message):
        with pytest.raises(ValueError, match=message):
            FlowInstance(D2, m, lower, (PLUS_INF,) * 2, d2_instance().cost)

    def test_infinite_bounds_accepted(self):
        assert FREE2.lower == (MINUS_INF,) * 2 and FREE2.upper == (PLUS_INF,) * 2


class TestHoffman:
    """An infeasible instance raises the node set its search reached,
    and that set violates Hoffman's condition for the instance's bounds."""

    def test_d2_feasible(self):
        assert optimal_potential(square_sum_instance(D2, (-2, 2)))[0] == (1, 1)

    def test_reversed_demand(self):
        d = Digraph(("s", "t"), (("s", "t"),))
        inst = square_sum_instance(d, (1, -1))
        with pytest.raises(Infeasible) as err:
            optimal_potential(inst)
        assert err.value.violating_set == ("t",)
        assert cut_certifies(inst, {"t"})

    def test_zero_demand(self):
        assert optimal_potential(square_sum_instance(D2, (0, 0)))[0] == (0, 0)

    def test_finite_bounds_cut(self):
        # s can send 10 to a but only 2 + 2 onward to t, against a demand of 5.
        d = Digraph(("s", "a", "t"), (("s", "a"), ("a", "t"), ("s", "t")))
        inst = square_sum_instance(d, (-5, 0, 5), lower=(0, 0, 1), upper=(10, 2, 2))
        with pytest.raises(Infeasible) as err:
            optimal_potential(inst)
        assert err.value.violating_set == ("s", "a")
        assert cut_certifies(inst, {"s", "a"})
        assert not cut_certifies(inst, {"s"})

    def test_cost_domain_cut(self):
        # Both arcs cost +inf below 1, and t takes in only 1.
        inst = with_cost(square_sum_instance(D2, (-1, 1)), [VShape(1, 0, 1, 1, 3)] * 2)
        with pytest.raises(Infeasible) as err:
            optimal_potential(inst)
        assert err.value.violating_set == ("t",)
        assert cut_certifies(square_sum_instance(D2, (-1, 1), lower=(1, 1)), {"t"})

    def test_random_bounds_match_enumeration(self):
        rng = random.Random(31)
        infeasible = 0
        for _ in range(60):
            d = random_digraph(rng)
            lower = tuple(rng.randint(-1, 1) for _ in d.arcs)
            upper = tuple(lo + rng.randint(0, 2) for lo in lower)
            m = [rng.randint(-2, 2) for _ in d.nodes[1:]]
            inst = square_sum_instance(d, [-sum(m)] + m, lower, upper)
            flows = enumerate_flows(inst)
            try:
                x = optimal_potential(inst)[0]
            except Infeasible as err:
                infeasible += 1
                assert not flows
                assert cut_certifies(inst, set(err.violating_set))
            else:
                assert x in flows
        assert 10 <= infeasible <= 50


class TestSolver:
    def test_d2_square(self):
        inst = d2_instance()
        assert optimal_potential(inst)[0] == (1, 1)

    def test_d2_weighted(self):
        inst = with_cost(d2_instance(), [Quadratic(1), Quadratic(3)])
        x = optimal_potential(inst)[0]
        assert x == (1, 1) and inst.cost.value(x) == 4

    def test_d2_linear_tie(self):
        inst = with_cost(d2_instance(), [linear_fn(1), linear_fn(1)])
        x = optimal_potential(inst)[0]
        assert x == (0, 2)  # lexicographically least among cost-2 flows
        assert inst.cost.value(x) == 2

    def test_no_nodes(self):
        inst = square_sum_instance(Digraph((), ()), ())
        assert optimal_potential(inst) == ((), ())

    def test_infeasible(self):
        d = Digraph(("s", "t"), (("s", "t"),))
        inst = square_sum_instance(d, (1, -1))  # needs flow t -> s
        with pytest.raises(Infeasible):
            optimal_potential(inst)

    # Two routes from s to t, all costs 0: a1 directly, or a2 and then a0,
    # whose lower bound is infinite.  The least flow on the arcs of finite
    # lower bound, (a1, a2) = (0, 1), sends the unit through the earlier arc a0.
    ROUTES = FlowInstance(
        Digraph(("s", "u", "t"), (("u", "t"), ("s", "t"), ("s", "u"))), (-1, 0, 1),
        (MINUS_INF, 0, 0), (PLUS_INF, 2, 2), SeparableConvex(tuple((f"a{i}", linear_fn(0)) for i in range(3))))

    def test_route_through_an_earlier_free_arc(self):
        assert optimal_potential(self.ROUTES) == ((1, 0, 1), (0, 0, 0))

    def test_lex_least_on_finite_lower_arcs_random(self):
        """With some lower bounds infinite, the flow is optimal (its
        potential certifies it) and, among the optimal flows of an
        enumerated box that contains it, least on the arcs of finite
        lower bound in lex order."""
        shapes = (
            lambda rng: Quadratic(rng.randint(1, 3)),
            lambda rng: VShape(rng.randint(-1, 2), rng.randint(-3, 1), rng.randint(1, 4)),
            lambda rng: FlatBottom(rng.randint(-1, 1), rng.randint(1, 3), -rng.randint(0, 2), rng.randint(0, 2)),
            lambda rng: linear_fn(rng.randint(-1, 1)),
        )
        rng = random.Random(71)
        checked = 0
        for _ in range(150):
            d = random_digraph(rng, max_nodes=3, max_arcs=4)
            x0 = [rng.randint(-2, 2) for _ in d.arcs]
            m = [0] * len(d.nodes)
            for (t, h), v in zip(d.arcs, x0):
                m[d.nodes.index(h)] += v
                m[d.nodes.index(t)] -= v
            lower = [MINUS_INF if rng.random() < 0.4 else v - rng.randint(0, 2) for v in x0]
            lower[rng.randrange(len(lower))] = MINUS_INF
            upper = [PLUS_INF if rng.random() < 0.25 else v + rng.randint(0, 2) for v in x0]
            shape = rng.choice(shapes)
            cost = SeparableConvex(tuple((f"a{i}", shape(rng)) for i in range(len(d.arcs))))
            inst = FlowInstance(d, tuple(m), tuple(lower), tuple(upper), cost)
            try:
                x, pi = optimal_potential(inst)
            except Unbounded:  # a cycle of linear costs and infinite room
                continue
            assert certify_flow(inst, x, pi).equality
            finite = [a for a, lo in enumerate(lower) if is_finite(lo)]
            best = inst.cost.value(x)
            flows = enumerate_flows(inst, max(3, *map(abs, x)))
            assert x in flows
            assert min([f[a] for a in finite] for f in flows if inst.cost.value(f) == best) == [x[a] for a in finite]
            checked += 1
        assert checked >= 100

    def test_conservation_and_bounds_random(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_flow_instance(rng)
            x = optimal_potential(inst)[0]
            assert inst.is_feasible_flow(x)

    def test_matches_enumeration_random(self):
        # Square costs, then weighted quadratic, two-slope, flat-bottom and
        # linear costs (the linear ones tie often), and two-slope costs
        # finite only on [0, 2], under which some instances have no flow
        # of finite cost.
        shapes = (
            lambda rng: Quadratic(1),
            lambda rng: Quadratic(rng.randint(2, 4)),
            lambda rng: VShape(rng.randint(0, 3), rng.randint(-3, 1), rng.randint(1, 4)),
            lambda rng: FlatBottom(rng.randint(0, 1), rng.randint(1, 3), -rng.randint(0, 2), rng.randint(0, 2)),
            lambda rng: linear_fn(rng.randint(-1, 1)),
            lambda rng: VShape(rng.randint(0, 2), -1, rng.randint(0, 2), 0, 2),
        )
        rng = random.Random(17)
        no_finite = 0
        for _ in range(20):
            base = random_flow_instance(rng)
            flows = enumerate_flows(base)
            assert flows
            for shape in shapes:
                inst = with_cost(base, [shape(rng) for _ in base.digraph.arcs])
                best = min(inst.cost.value(f) for f in flows)
                if not is_finite(best):
                    no_finite += 1
                    with pytest.raises(Infeasible):
                        optimal_potential(inst)
                    continue
                x = optimal_potential(inst)[0]
                assert inst.cost.value(x) == best
                assert x == min(f for f in flows if inst.cost.value(f) == best)
        assert 0 < no_finite < 10

    @staticmethod
    def two_way(upper):
        """s and t joined both ways, bounds [0, upper], costs -k and 0, no
        demand."""
        d = Digraph(("s", "t"), (("s", "t"), ("t", "s")))
        inst = square_sum_instance(d, (0, 0), upper=(upper, upper))
        return with_cost(inst, [linear_fn(-1), linear_fn(0)])

    @pytest.fixture
    def bellman_ford_runs(self, monkeypatch):
        """A list that grows by one entry per Bellman-Ford run."""
        runs = []
        bellman_ford = netflow._bellman_ford
        monkeypatch.setattr(netflow, "_bellman_ford", lambda *a: runs.append(1) or bellman_ford(*a))
        return runs

    def test_one_canceling_loop(self, monkeypatch):
        """After the initial flow, a solve runs Bellman-Ford once per
        canceled cycle and once more, whose distances give pi, and
        searches no path."""
        calls = []

        def logged(name, f):
            def call(*args):
                result = f(*args)
                calls.append(name)
                return result
            return call

        # _unbounded_cycle is asked once about every cycle before it is canceled.
        for name in ("_bellman_ford", "_bfs", "_initial_flow", "_unbounded_cycle"):
            monkeypatch.setattr(netflow, name, logged(name, getattr(netflow, name)))
        rng = random.Random(43)
        cases = [self.ROUTES, with_cost(d2_instance(), [linear_fn(1)] * 2)]
        cases += [random_flow_instance(rng) for _ in range(10)]
        canceled = 0
        for inst in cases:
            calls.clear()
            optimal_potential(inst)
            after = calls[calls.index("_initial_flow") + 1:]
            assert "_bfs" not in after
            assert after.count("_bellman_ford") == after.count("_unbounded_cycle") + 1
            canceled += after.count("_unbounded_cycle")
        assert canceled >= 5

    def test_unbounded_cycle_is_recognized_at_once(self, bellman_ford_runs):
        with pytest.raises(Unbounded):
            optimal_potential(self.two_way(PLUS_INF))
        assert len(bellman_ford_runs) == 1

    def test_linear_cost_with_a_far_kink_is_recognized_at_once(self, bellman_ford_runs):
        # a0 costs -k on all of Z (its "kink" at 10**6 joins two equal
        # slopes), so the cycle earns 1 per unit from the first one on.
        inst = with_cost(self.two_way(PLUS_INF), [VShape(10**6, -1, -1), linear_fn(0)])
        with pytest.raises(Unbounded):
            optimal_potential(inst)
        assert len(bellman_ford_runs) == 1

    def test_cycle_reaching_its_constant_slope_late(self, bellman_ford_runs):
        # The cycle's marginal cost is -3, -2, -1, -1, ...: unbounded once
        # two units have moved and the first arc's cost is in its tail.
        ramp = SumOf((FlatBottom(1, PLUS_INF, -1, 0), FlatBottom(2, PLUS_INF, -1, 0)))
        inst = self.two_way(PLUS_INF)
        with pytest.raises(Unbounded):
            optimal_potential(with_cost(inst, [LinearPlus(-1, ramp), linear_fn(0)]))
        assert len(bellman_ford_runs) == 3

    def test_backward_cycle_reaching_its_constant_slope_late(self, bellman_ford_runs):
        # Lowering the free arc a0 earns 3, 2, 1, 1, ... per unit: its
        # cost has slopes 1 up to k = -3, 2 at -2 and 3 from -1 on.
        ramp = SumOf((FlatBottom(MINUS_INF, 0, -1, 1), FlatBottom(MINUS_INF, 1, -1, 1)))
        d = Digraph(("s", "t"), (("s", "t"), ("s", "t")))
        inst = square_sum_instance(d, (0, 0), lower=(MINUS_INF, 0))
        with pytest.raises(Unbounded):
            optimal_potential(with_cost(inst, [Shifted(-2, LinearPlus(1, ramp)), linear_fn(0)]))
        assert len(bellman_ford_runs) == 3

    def test_budget_exhausted_is_not_unbounded(self):
        # The optimum is -150000, beyond the budget of unit cancellations.
        with pytest.raises(IterationLimit):
            optimal_potential(self.two_way(150000))

    def test_cost_domain_narrows_bounds(self):
        # Each arc costs +inf outside [1, 3]: a start at 0 must not read as
        # an infinitely negative residual step (it was reported unbounded).
        inst = with_cost(d2_instance(), [VShape(1, 0, 1, 1, 3)] * 2)
        x, pi = optimal_potential(inst)
        assert x == (1, 1)
        assert certify_flow(inst, x, pi).primal_value == 0


class TestDualValue:
    def test_d2_examples(self):
        inst = d2_instance()
        assert flow_dual_value(inst, (0, 2)) == 2
        assert flow_dual_value(inst, (0, 0)) == 0
        assert flow_dual_value(inst, (0, 3)) == 2

    def test_free_variant_counts_negative_tension(self):
        # Free bounds: each arc pays max_k (-2k - k^2) = 1 at tension -2.
        assert flow_dual_value(FREE2, (2, 0)) == -4 - 2
        assert flow_dual_value(d2_instance(), (2, 0)) == -4

    def test_free_arc_equals_primal(self):
        # The nonnegative-flow dual gave 6 against a cost of 4.
        d = Digraph(("s", "t"), (("s", "t"),))
        inst = square_sum_instance(d, (2, -2), lower=(MINUS_INF,), upper=(PLUS_INF,))
        x, pi = optimal_potential(inst)
        assert x == (-2,)
        assert inst.cost.value(x) == flow_dual_value(inst, pi) == 4

    def test_upper_bounds_count(self):
        # The uncapacitated dual gave 8 against a cost of 10.
        inst = square_sum_instance(D2, (-4, 4), upper=(1, 5))
        x, pi = optimal_potential(inst)
        assert x == (1, 3)
        assert inst.cost.value(x) == flow_dual_value(inst, pi) == 10

    def test_weighted_cost_counts(self):
        # The square-sum dual gave 2 against a cost of 6.
        inst = with_cost(d2_instance(), [Quadratic(3), Quadratic(3)])
        x, pi = optimal_potential(inst)
        assert x == (1, 1)
        assert inst.cost.value(x) == flow_dual_value(inst, pi) == 6


class TestCertify:
    def test_d2_equality(self):
        rep = certify_flow(d2_instance(), (1, 1), (0, 2))
        assert rep.equality and rep.primal_value == 2

    def test_d2_gap(self):
        with pytest.raises(ValueMismatch):
            certify_flow(d2_instance(), (2, 0), (0, 2))

    def test_d2_weak_potential(self):
        with pytest.raises(ValueMismatch):
            certify_flow(d2_instance(), (1, 1), (0, 0))

    def test_not_feasible(self):
        with pytest.raises(NotFeasible):
            certify_flow(d2_instance(), (2, 1), (0, 2))

    def test_potential_length(self):
        with pytest.raises(ValueError):
            certify_flow(d2_instance(), (1, 1), (0,))

    def test_weighted_cost_pair(self):
        # The square-sum check reported a primal value of 2 here.
        inst = with_cost(d2_instance(), [Quadratic(3), Quadratic(3)])
        rep = certify_flow(inst, (1, 1), (0, 3))
        assert rep.equality and rep.primal_value == rep.dual_value == 6

    def test_extracted_potential_certifies_random(self):
        rng = random.Random(29)
        for _ in range(15):
            inst = random_flow_instance(rng)
            uncapped = square_sum_instance(
                inst.digraph, inst.m, lower=inst.lower
            )
            weighted = with_cost(inst, [Quadratic(rng.randint(1, 3)) for _ in inst.digraph.arcs])
            for case in (inst, uncapped, weighted):
                x, pi = optimal_potential(case)
                rep = certify_flow(case, x, pi)
                assert rep.equality
                assert all(v >= 0 for v in pi) and min(pi) == 0

    def test_weak_duality_over_potential_box(self):
        inst = d2_instance()
        x, _ = optimal_potential(inst)
        primal = inst.cost.value(x)
        bound = 2 * max(x) + 2
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                assert flow_dual_value(inst, (a, b)) <= primal


def unit_expansion_min(nx, inst):
    """The least cost of a flow by networkx's network simplex, on a
    multigraph where an arc with bounds [lo, hi] sends lo units up front
    (phi(lo), and lo off each end's demand) and becomes hi - lo parallel
    unit arcs of cost phi(k + 1) - phi(k), k = lo..hi - 1; by convexity
    the cheaper units fill first.  Bounds must be finite."""
    g = nx.MultiDiGraph()
    demand = dict(zip(inst.digraph.nodes, inst.m))
    const = 0
    for (t, h), lo, hi, (_, phi) in zip(inst.digraph.arcs, inst.lower, inst.upper, inst.cost.parts):
        const += phi.value(lo)
        demand[t] += lo
        demand[h] -= lo
        for k in range(lo, hi):
            g.add_edge(t, h, capacity=1, weight=phi.value(k + 1) - phi.value(k))
    g.add_nodes_from((v, {"demand": d}) for v, d in demand.items())
    cost, _ = nx.network_simplex(g)
    return const + cost


class TestNetworkxOracle:
    def test_value_and_certificate(self):
        """5-8 arcs with bounds up to 6 wide and demands up to 6, beyond the
        boxes enumerate_flows scans: optimal_potential reaches the
        networkx minimum, and its optimal potential certifies it."""
        nx = pytest.importorskip("networkx")
        shapes = (
            lambda rng: Quadratic(rng.randint(1, 4)),
            lambda rng: VShape(rng.randint(-1, 3), rng.randint(-4, 1), rng.randint(1, 5)),
            lambda rng: FlatBottom(rng.randint(-1, 1), rng.randint(1, 3), -rng.randint(0, 3), rng.randint(0, 3)),
            lambda rng: linear_fn(rng.randint(-3, 3)),
        )
        rng = random.Random(61)
        checked = 0
        while checked < 30:
            nv = rng.randint(3, 5)
            nodes = tuple(f"v{i}" for i in range(nv))
            arcs = tuple(tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(5, 8)))
            lower = [rng.randint(-2, 1) for _ in arcs]
            upper = [lo + rng.randint(1, 6) for lo in lower]
            x0 = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
            m = [sum(x for (t, h), x in zip(arcs, x0) if h == v) - sum(x for (t, h), x in zip(arcs, x0) if t == v)
                 for v in nodes]
            if max(map(abs, m)) > 6 or not any(m):
                continue
            cost = SeparableConvex(tuple((f"a{i}", rng.choice(shapes)(rng)) for i in range(len(arcs))))
            inst = FlowInstance(Digraph(nodes, arcs), tuple(m), tuple(lower), tuple(upper), cost)
            expected = unit_expansion_min(nx, inst)
            x, pi = optimal_potential(inst)
            assert cost.value(x) == expected
            rep = certify_flow(inst, x, pi)
            assert rep.equality and rep.primal_value == expected
            checked += 1


class TestEnumerateFlows:
    def test_matches_naive_scan(self):
        """The flows of the bound box clipped to [-cap, cap], against a scan
        of that box with the incidence-matrix test.  A finite bound beyond the cap
        on the open side leaves an empty box, hence no flow."""
        rng = random.Random(53)
        outcomes = collections.Counter()
        for _ in range(200):
            d = random_digraph(rng, max_nodes=3, max_arcs=3)
            x0 = [rng.randint(-2, 2) for _ in d.arcs]
            m = [0] * len(d.nodes)
            for (t, h), x in zip(d.arcs, x0):
                m[d.nodes.index(h)] += x
                m[d.nodes.index(t)] -= x
            lower, upper = [], []
            for _ in d.arcs:
                a = rng.choice((MINUS_INF, rng.randint(-3, 2), 4))
                b = rng.choice((PLUS_INF, rng.randint(-2, 3), -4))
                lower.append(min(a, b))
                upper.append(max(a, b))
            inst = square_sum_instance(d, m, lower, upper)
            cap = rng.choice((1, 3))
            lo = [v if is_finite(v) else -cap for v in lower]
            hi = [v if is_finite(v) else cap for v in upper]
            if any(a > b for a, b in zip(lo, hi)):
                expected, kind = [], "beyond the cap"
            else:
                box = Window(tuple(lo), tuple(hi))
                expected = [x for x in window_points(box) if naive_is_feasible_flow(inst, x)]
                kind = "flows" if expected else "none"
            assert enumerate_flows(inst, cap) == expected
            outcomes[kind] += 1
        assert min(outcomes.values()) >= 20 and len(outcomes) == 3, outcomes


class TestEmbedding:
    def test_d2_reproduces_optimum(self):
        inst = d2_instance()
        sys = embedding_system(inst)
        primal = minimize_bruteforce(sys, inst.cost, Window.uniform(2, 0, 3))
        dual = dual_search_bruteforce(sys, inst.cost, 6)
        assert primal.primal_value == 2
        assert dual.dual_value == 2
        # y = (pi, h) with h(a) = max(-tension, 0).
        y = dual.dual_witness.y
        pi = y[: len(D2.nodes)]
        assert flow_dual_value(inst, pi) <= 2


class TestJson:
    def test_round_trip(self):
        inst = d2_instance()
        again = FlowInstance.from_json(inst.to_json())
        assert again == inst
