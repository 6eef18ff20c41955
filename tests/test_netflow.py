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
    incidence_matrix,
    min_convex_cost_flow,
    optimal_potential,
    square_sum_instance,
)
from dctk.polyhedron import Window, dual_search_bruteforce, minimize_bruteforce

from helpers import embedding_system, enumerate_flows, random_digraph, random_flow_instance

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
        assert min_convex_cost_flow(square_sum_instance(D2, (-2, 2))) == (1, 1)

    def test_reversed_demand(self):
        d = Digraph(("s", "t"), (("s", "t"),))
        inst = square_sum_instance(d, (1, -1))
        with pytest.raises(Infeasible) as err:
            min_convex_cost_flow(inst)
        assert err.value.violating_set == ("t",)
        assert cut_certifies(inst, {"t"})

    def test_zero_demand(self):
        assert min_convex_cost_flow(square_sum_instance(D2, (0, 0))) == (0, 0)

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
            min_convex_cost_flow(inst)
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
                x = min_convex_cost_flow(inst)
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
        assert min_convex_cost_flow(inst) == (1, 1)

    def test_d2_weighted(self):
        inst = with_cost(d2_instance(), [Quadratic(1), Quadratic(3)])
        x = min_convex_cost_flow(inst)
        assert x == (1, 1) and inst.cost.value(x) == 4

    def test_d2_linear_tie(self):
        inst = with_cost(d2_instance(), [linear_fn(1), linear_fn(1)])
        x = min_convex_cost_flow(inst)
        assert x == (0, 2)  # lexicographically least among cost-2 flows
        assert inst.cost.value(x) == 2

    def test_infeasible(self):
        d = Digraph(("s", "t"), (("s", "t"),))
        inst = square_sum_instance(d, (1, -1))  # needs flow t -> s
        with pytest.raises(Infeasible):
            min_convex_cost_flow(inst)

    def test_conservation_and_bounds_random(self):
        rng = random.Random(9)
        for _ in range(20):
            inst = random_flow_instance(rng)
            x = min_convex_cost_flow(inst)
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
                        min_convex_cost_flow(inst)
                    continue
                x = min_convex_cost_flow(inst)
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

    def test_unbounded_cycle_is_recognized_at_once(self, bellman_ford_runs):
        with pytest.raises(Unbounded):
            min_convex_cost_flow(self.two_way(PLUS_INF))
        assert len(bellman_ford_runs) == 1

    def test_linear_cost_with_a_far_kink_is_recognized_at_once(self, bellman_ford_runs):
        # a0 costs -k on all of Z (its "kink" at 10**6 joins two equal
        # slopes), so the cycle earns 1 per unit from the first one on.
        inst = with_cost(self.two_way(PLUS_INF), [VShape(10**6, -1, -1), linear_fn(0)])
        with pytest.raises(Unbounded):
            min_convex_cost_flow(inst)
        assert len(bellman_ford_runs) == 1

    def test_cycle_reaching_its_constant_slope_late(self, bellman_ford_runs):
        # The cycle's marginal cost is -3, -2, -1, -1, ...: unbounded once
        # two units have moved and the first arc's cost is in its tail.
        ramp = SumOf((FlatBottom(1, PLUS_INF, -1, 0), FlatBottom(2, PLUS_INF, -1, 0)))
        inst = self.two_way(PLUS_INF)
        with pytest.raises(Unbounded):
            min_convex_cost_flow(with_cost(inst, [LinearPlus(-1, ramp), linear_fn(0)]))
        assert len(bellman_ford_runs) == 3

    def test_backward_cycle_reaching_its_constant_slope_late(self, bellman_ford_runs):
        # Lowering the free arc a0 earns 3, 2, 1, 1, ... per unit: its
        # cost has slopes 1 up to k = -3, 2 at -2 and 3 from -1 on.
        ramp = SumOf((FlatBottom(MINUS_INF, 0, -1, 1), FlatBottom(MINUS_INF, 1, -1, 1)))
        d = Digraph(("s", "t"), (("s", "t"), ("s", "t")))
        inst = square_sum_instance(d, (0, 0), lower=(MINUS_INF, 0))
        with pytest.raises(Unbounded):
            min_convex_cost_flow(with_cost(inst, [Shifted(-2, LinearPlus(1, ramp)), linear_fn(0)]))
        assert len(bellman_ford_runs) == 3

    def test_budget_exhausted_is_not_unbounded(self):
        # The optimum is -150000, beyond the budget of unit cancellations.
        with pytest.raises(IterationLimit):
            min_convex_cost_flow(self.two_way(150000))

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


class TestEnumerateFlows:
    def test_matches_naive_scan(self):
        """The flows of the bound box clipped to [-cap, cap], against a scan
        of that box with is_feasible_flow.  A finite bound beyond the cap
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
                expected = [x for x in box.points() if inst.is_feasible_flow(x)]
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
