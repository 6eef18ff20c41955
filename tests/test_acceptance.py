"""Acceptance gate: one test per criterion, exact integer equality, with
an explicit wall-clock budget asserted per criterion.

Every criterion checks the library against an independent exhaustive
oracle (brute-force scans over explicit windows), so a pass means value
agreement, not self-consistency.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

import pytest

from dctk import ratlin
from dctk.conjugate import (
    SeparableConvex,
    conjugate_closed,
    conjugate_eval,
    square_sum,
    subdifferential_interval,
)
from dctk.errors import EmptyIntersection, UnsupportedForm
from dctk.extint import MINUS_INF, PLUS_INF, is_finite
from dctk.fixtures import (
    d2_instance,
    p2_system,
    random_separable,
    random_supermodular,
    s3_system,
)
from dctk.inverse import (
    default_z_window,
    inverse_dual_search,
    inverse_minimize,
    l1_deviation,
)
from dctk.mconvex import (
    enumerate_bases,
    greedy_min,
    lovasz_extension,
    m2_minimize_and_split,
    member,
    minimize_separable,
    strict_top_sets,
    to_system,
    verify_mconvex_optimality,
)
from dctk.netflow import (
    Digraph,
    certify_flow,
    optimal_potential,
    square_sum_instance,
)
from dctk.polyhedron import (
    Window,
    dilation,
    dual_search_bruteforce,
    feasibility_condition,
    minimize_bruteforce,
    mu_form_dual_search,
    probe_box_integer,
    tangent_cone,
    verify_certificate,
    vertex_hull_window,
)

from helpers import (
    brute_conjugate,
    dom_range,
    embedding_system,
    enumerate_flows,
    find_weight_in_box,
    is_minimizer,
    padded_hull_window,
    random_digraph,
    random_flow_instance,
    random_weight,
    univariate_corpus,
    window_points,
)

ELL_RANGE = range(-12, 13)


class Budget:
    """Context manager asserting the block finished within a limit."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
            )
        return False


# ---------------------------------------------------------------------------
# Cached corpora


@functools.lru_cache(maxsize=None)
def phi_corpus():
    return tuple(univariate_corpus(count=220, seed=7))


@functools.lru_cache(maxsize=None)
def supermodular_corpus():
    rng = random.Random(41)
    out = []
    while len(out) < 100:
        n = rng.randint(2, 5)
        p = random_supermodular(rng, n)
        Phi = random_separable(rng, p.elements)
        out.append((p, Phi))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def system_corpus():
    """Box-integral systems: the named one, base-polytope systems for
    random n=2 supermodular functions, and two small flow embeddings."""
    rng = random.Random(43)
    systems = [p2_system()]
    seen = set()
    while len(systems) < 7:
        sys = to_system(random_supermodular(rng, 2, value_bound=2))
        key = tuple(sys.rows)
        if key not in seen and len(sys.rows) == 3:
            seen.add(key)
            systems.append(sys)
    systems.append(embedding_system(d2_instance()))
    path = Digraph(("u", "v", "w"), (("u", "v"), ("v", "w")))
    systems.append(embedding_system(square_sum_instance(path, (-1, 0, 1))))
    return tuple(systems)


@functools.lru_cache(maxsize=None)
def flow_corpus():
    """Feasible square-sum instances, |V| <= 4, |A| <= 6, caps <= 3,
    total demand <= 4 so the enumeration window stays exact."""
    rng = random.Random(47)
    out = []
    while len(out) < 50:
        inst = random_flow_instance(rng, cap=3)
        demand = sum(v for v in inst.m if v > 0)
        if demand <= 4:
            out.append(inst)
    return tuple(out)


def _primal_window(sys):
    """Integer box certainly containing a minimizer of a convex function
    over the system's integer points (the vertex hull, padded)."""
    return padded_hull_window(sys)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_conjugate_oracle():
    """Conjugate evaluation matches the brute-force scan on >= 200 mixed
    instances, closed forms agree where defined, and the biconjugate
    recovers the function on its domain."""
    with Budget(10):
        corpus = phi_corpus()
        assert len(corpus) >= 200
        for phi in corpus:
            lo, hi = dom_range(phi)
            assert -8 <= lo <= hi <= 8
            conj = {}
            for ell in ELL_RANGE:
                v = conjugate_eval(phi, ell)
                assert v == brute_conjugate(phi, ell)
                conj[ell] = v
                try:
                    assert conjugate_closed(phi, ell) == v
                except UnsupportedForm:
                    pass
            slopes = [
                phi.value(k + 1) - phi.value(k) for k in range(lo, hi)
            ]
            ells = sorted(set(ELL_RANGE) | set(slopes))
            full = {ell: conjugate_eval(phi, ell) for ell in ells}
            for k in range(lo, hi + 1):
                back = max(
                    k * ell - full[ell] for ell in ells if is_finite(full[ell])
                )
                assert back == phi.value(k)


def test_criterion_2_fitting_iff_conjugate_equality():
    """The slope sandwich holds exactly when k*ell = phi(k) + conj(ell)."""
    with Budget(10):
        for phi in phi_corpus():
            lo, hi = dom_range(phi)
            conj = {ell: conjugate_eval(phi, ell) for ell in ELL_RANGE}
            for k in range(lo, hi + 1):
                vk = phi.value(k)
                left, right = subdifferential_interval(phi, k)
                for ell in ELL_RANGE:
                    fits = left <= ell <= right
                    equal = is_finite(conj[ell]) and k * ell == vk + conj[ell]
                    assert fits == equal


def test_criterion_3_mconvex_strong_duality():
    """Descent minimum matches exhaustive base enumeration and the
    extracted weight certificate closes the duality gap, on >= 100
    random supermodular instances with mixed separable objectives."""
    with Budget(60):
        corpus = supermodular_corpus()
        assert len(corpus) >= 100
        for p, Phi in corpus:
            z, w = minimize_separable(p, Phi)
            brute = min(Phi.value(b) for b in enumerate_bases(p))
            assert Phi.value(z) == brute
            rep = verify_mconvex_optimality(p, Phi, z, w)
            assert rep.equality
            assert rep.primal_value == rep.dual_value == brute


def test_criterion_4_greedy_matches_extension():
    """Greedy linear optimization equals the extension value and the
    brute-force base minimum for >= 20 weights per instance; strict
    weight-level sets are tight at the greedy point."""
    with Budget(30):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randint(2, 5)
            p = random_supermodular(rng, n)
            bases = list(enumerate_bases(p))
            for _ in range(20):
                w = random_weight(rng, n)
                z = greedy_min(p, w)
                val = sum(a * b for a, b in zip(w, z))
                assert member(p, z)
                assert val == lovasz_extension(p, w)
                assert val == min(
                    sum(a * b for a, b in zip(w, bb)) for bb in bases
                )
                for mask in strict_top_sets(p, w):
                    assert (
                        sum(z[i] for i in range(n) if mask >> i & 1)
                        == p.table[mask]
                    )


def test_criterion_5_m2_intersection_duality():
    """Minimum over the common bases of two supermodular functions equals
    the best split-weight bound, on >= 30 pairs."""
    with Budget(60):
        rng = random.Random(59)
        done = 0
        while done < 30:
            n = rng.randint(2, 3)
            p1 = random_supermodular(rng, n, value_bound=2)
            p2_ = random_supermodular(rng, n, value_bound=2)
            Phi = square_sum(p1.elements)
            try:
                rep = m2_minimize_and_split(p1, p2_, Phi, 3)
            except EmptyIntersection:
                continue
            common = [z for z in enumerate_bases(p1) if member(p2_, z)]
            brute = min(Phi.value(z) for z in common)
            assert rep.primal_value == brute
            assert rep.equality
            assert rep.dual_value == brute
            done += 1


def test_criterion_6_flow_duality_and_potentials():
    """Cycle-canceling optimum matches flow enumeration on >= 50
    instances; the extracted potential certifies every instance and its
    uncapacitated copy; >= 5 linear-system embeddings reproduce the
    optimum."""
    with Budget(60):
        corpus = flow_corpus()
        assert len(corpus) >= 50
        for inst in corpus:
            x, pi = optimal_potential(inst)
            assert inst.is_feasible_flow(x)
            flows = enumerate_flows(inst)
            best = min(inst.cost.value(f) for f in flows)
            assert inst.cost.value(x) == best
            assert certify_flow(inst, x, pi).equality
            uncapped = square_sum_instance(
                inst.digraph, inst.m, lower=inst.lower
            )
            xo, pio = optimal_potential(uncapped)
            assert certify_flow(uncapped, xo, pio).equality
        embedded = 0
        for inst in corpus:
            demand = sum(v for v in inst.m if v > 0)
            if demand > 2 or len(inst.digraph.arcs) > 3:
                continue
            uncapped = square_sum_instance(inst.digraph, inst.m)
            sys = embedding_system(uncapped)
            win = Window.uniform(len(uncapped.digraph.arcs), 0, max(demand, 1))
            primal = minimize_bruteforce(sys, uncapped.cost, win)
            dual = dual_search_bruteforce(sys, uncapped.cost, 6)
            x = optimal_potential(uncapped)[0]
            assert primal.primal_value == uncapped.cost.value(x)
            assert dual.dual_value == primal.primal_value
            embedded += 1
            if embedded >= 5:
                break
        assert embedded >= 5


def test_criterion_7_system_minmax_agreement():
    """On every corpus system: windowed minimization, dual-vector search
    and the weight-form search agree, the dual witness passes the full
    certificate check, and its support stays within twice the ground-set
    size."""
    with Budget(120):
        for sys in system_corpus():
            Phi = square_sum(sys.elements)
            win = _primal_window(sys)
            primal = minimize_bruteforce(sys, Phi, win)
            dual = dual_search_bruteforce(sys, Phi, 6)
            mu = mu_form_dual_search(sys, Phi, Window.uniform(sys.n, -6, 6), primal.primal_witness)
            assert primal.primal_value == dual.dual_value == mu.dual_value
            assert dual.bounds_used["support_within_2n"]
            assert dual.dual_witness.support() <= 2 * sys.n
            rep = verify_certificate(
                sys, primal.primal_witness, dual.dual_witness, Phi
            )
            assert rep.equality


def test_criterion_8_feasibility_iff_weight_exists():
    """The disjoint-pair condition holds exactly when a weight in the
    box [ell, u] makes the point optimal, over >= 100 triples with
    finite bounds in [-4, 4]."""
    with Budget(60):
        rng = random.Random(61)
        win = Window.uniform(2, -6, 6)
        triples = 0
        while triples < 100:
            sys = to_system(random_supermodular(rng, 2, value_bound=2))
            bases = list(enumerate_bases_from_system(sys))
            if not bases:
                continue
            z_star = rng.choice(bases)
            ell = tuple(rng.randint(-4, 4) for _ in range(2))
            u = tuple(rng.randint(ell[j], 4) for j in range(2))
            ok, _ = feasibility_condition(sys, z_star, ell, u)
            w = find_weight_in_box(sys, z_star, ell, u, win)
            assert ok == (w is not None)
            if w is not None:
                assert is_minimizer(sys, z_star, w)
                assert all(l <= wi <= v for l, wi, v in zip(ell, w, u))
            triples += 1


def enumerate_bases_from_system(sys):
    win = vertex_hull_window(sys)
    return [z for z in window_points(win) if sys.contains(z)]


def test_criterion_9_inverse_duality():
    """Cheapest admissible cost equals the tangent-cone dual bound on
    >= 50 single-target and >= 20 multi-target instances, and the
    named worked example has value 2."""
    with Budget(60):
        sys0 = p2_system()
        dev0 = l1_deviation((3, 1), sys0.elements)
        w, v = inverse_minimize(
            tangent_cone(sys0, (2, 0)), dev0, Window.uniform(2, -5, 7)
        )
        assert v == 2

        rng = random.Random(67)
        wwin = Window.uniform(2, -8, 8)
        for _ in range(50):
            sys = to_system(random_supermodular(rng, 2, value_bound=2))
            bases = enumerate_bases_from_system(sys)
            if not bases:
                continue
            target = rng.choice(bases)
            w0 = tuple(rng.randint(-2, 2) for _ in range(2))
            dev = l1_deviation(w0, sys.elements)
            cone = tangent_cone(sys, target)
            w, v = inverse_minimize(cone, dev, wwin)
            assert is_minimizer(sys, target, w)
            rep = inverse_dual_search(cone, dev, default_z_window(dev))
            assert rep.dual_value == v
            orthogonal = ratlin.dot(w, rep.dual_witness) == 0
            fitting = dev.first_unfit(w, rep.dual_witness) is None
            assert orthogonal
            assert fitting
        multi = 0
        while multi < 20:
            sys = to_system(random_supermodular(rng, 2, value_bound=2))
            bases = enumerate_bases_from_system(sys)
            if len(bases) < 2:
                continue
            k = rng.randint(2, 3)
            targets = tuple(tuple(rng.choice(bases)) for _ in range(k))
            w0 = tuple(rng.randint(-2, 2) for _ in range(2))
            dev = l1_deviation(w0, sys.elements)
            cone = tangent_cone(sys, *targets)
            w, v = inverse_minimize(cone, dev, wwin)
            assert all(is_minimizer(sys, t, w) for t in targets)
            rep = inverse_dual_search(cone, dev, default_z_window(dev))
            assert rep.dual_value == v
            multi += 1


def test_criterion_10_box_integer_probe():
    """The fractional-vertex probe accepts every corpus system and its
    dilations up to factor 3, and rejects the known non-box-integral
    dilation."""
    with Budget(60):
        for sys in system_corpus():
            for k in (1, 2, 3):
                d = dilation(sys, k)
                win = vertex_hull_window(d)
                ok, witness = probe_box_integer(d, win)
                assert ok, (sys, k, witness)
        ok, witness = probe_box_integer(
            dilation(s3_system(), 2), Window.uniform(6, 0, 1)
        )
        assert not ok and witness is not None
