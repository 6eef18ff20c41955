"""Seeded corpora of solve requests ("ops") and their oracle checks.

An op is either ``dctk.cli.run(argv)`` called in-process, or the library
call sequence of one acceptance criterion.  CLI ops carry their input as
inline JSON text and library ops as plain JSON data, so every execution
builds fresh dctk objects and no per-object cache survives into the
next op.

Each workload is a fixed recipe of slots (op kind and size); the seed
draws the numbers inside every slot.  The recipe, not the seed, sets the
mix of op kinds and sizes, so a workload's cost varies little between
seeds.  ``corpus`` makes the inputs, ``prepare`` computes the expected
answers with :mod:`oracle`, and ``check`` compares one result with
them.

Two known defects of dctk fail their checks.  The timed workloads hold
no op that can hit one; ``defect_cases`` builds the ops that do, which
every certify run executes and checks apart from the timed loop.
``KNOWN_DEFECTS`` names the defects, and ``Op.defect`` marks the ops
that can hit one.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import oracle
from oracle import INF

WORKLOADS = ("certify", "dual-search", "probe", "inverse")

# name -> (what is wrong, reason prefixes an op hitting it fails with)
KNOWN_DEFECTS = {
    "closed-window": ("conjugate --closed searches a +-64 window for Restricted/SumOf "
                      "and misses the argmax at large slopes", ("value ",)),
    "flow-square-dual": ("minimize flow applies the square-sum dual to every cost "
                         "and prints OK although primal != dual",
                         ("status OK without primal = dual",)),
}

EXIT_OK, EXIT_INVALID, EXIT_CRITERIA, EXIT_INCONCLUSIVE = 0, 4, 5, 6


def known_defect(op, reason: str) -> Optional[str]:
    """The known defect a failed op hit, or None if its failure is new."""
    if op.defect is None:
        return None
    _, prefixes = KNOWN_DEFECTS[op.defect]
    return op.defect if reason.startswith(prefixes) else None


@dataclass
class Op:
    kind: str
    argv: Optional[List[str]] = None      # CLI op
    call: Optional[Callable] = None       # library op: call(api, spec)
    spec: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    defect: Optional[str] = None
    label: str = ""


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Instance generators (plain JSON in dctk's formats)


def elements(n):
    return [f"e{i + 1}" for i in range(n)]


def supermodular(rng, n, bound=5):
    """Modular part plus nonnegative pairwise interactions, all values
    within +-bound (rejection keeps the range honest)."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        m = [rng.randint(-2, 2) for _ in range(n)]
        q = [(i, j) for i, j in pairs if rng.random() < 0.4]
        table = [sum(m[i] for i in range(n) if mask >> i & 1)
                 + sum(1 for i, j in q if mask >> i & 1 and mask >> j & 1)
                 for mask in range(1 << n)]
        if all(abs(v) <= bound for v in table):
            return {"n": n, "elements": elements(n),
                    "p": {str(mask): v for mask, v in enumerate(table)}}


def quadratic(a=1):
    return {"form": "quadratic", "a": a}


def vshape(k0, c_minus, c_plus, A=None, B=None):
    return {"form": "vshape", "k0": k0, "c_minus": c_minus, "c_plus": c_plus, "A": A, "B": B}


def shifted(k0, inner):
    return {"form": "shifted", "k0": k0, "inner": inner}


OBJECTIVE_SHAPES = 6


def objective_part(rng, shape):
    """The shapes of dctk's seeded corpora (squares, weighted and shifted
    squares, absolute deviations) plus large coefficients and shifts."""
    if shape == 0:
        return quadratic()
    if shape == 1:
        return quadratic(rng.randint(1, 3))
    if shape == 2:
        return shifted(rng.randint(-2, 2), quadratic())
    if shape == 3:
        return vshape(rng.randint(-2, 2), -1, 1)
    if shape == 4:
        if rng.random() < 0.5:
            return quadratic(rng.randint(10**3, 10**6))
        c = rng.randint(10**3, 10**6)
        return vshape(rng.randint(-3, 3), -c, rng.randint(c, 2 * c))
    return shifted(rng.randint(-25, 25), quadratic(rng.randint(1, 4)))


def square_sum(elems, a=1):
    return {e: quadratic(a) for e in elems}


def embedding(nodes, arcs, m):
    """dctk's [incidence; identity] >= (m; 0) system for nonnegative flows."""
    rows = [{"coeffs": [(h == v) - (t == v) for t, h in arcs], "rhs": m[v], "kind": "geq"}
            for v in nodes]
    rows += [{"coeffs": [int(i == j) for i in range(len(arcs))], "rhs": 0, "kind": "geq"}
             for j in range(len(arcs))]
    return {"elements": [f"a{i}" for i in range(len(arcs))], "rows": rows}


def flow_demand(nodes, arcs, x0):
    m = {v: 0 for v in nodes}
    for (t, h), x in zip(arcs, x0):
        m[h] += x
        m[t] -= x
    return m


def random_dag_embedding(rng, n_nodes, n_arcs, max_load):
    """Embedding of an acyclic digraph whose demand comes from a random
    flow, so the system is feasible and bounded."""
    nodes = [f"v{i}" for i in range(n_nodes)]
    while True:
        arcs = [tuple(sorted(rng.sample(nodes, 2), key=nodes.index)) for _ in range(n_arcs)]
        x0 = [rng.randint(0, max_load) for _ in arcs]
        if any(x0):
            return embedding(nodes, arcs, flow_demand(nodes, arcs, x0))


def s3_system():
    """Facet system of the hull of four 0/1 vectors in R^6: integral but
    not box-integral, its 2-dilation cut by the unit cube has the
    fractional vertex (1,1,1,1/2,1/2,1/2)."""
    eq = [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 0]]
    rows = [{"coeffs": c, "rhs": 1, "kind": "eq"} for c in eq]
    rows += [{"coeffs": [int(i == j) for i in range(6)], "rhs": 0, "kind": "geq"}
             for j in (3, 4, 5)]
    rows.append({"coeffs": [0, 0, 0, -1, -1, -1], "rhs": -1, "kind": "geq"})
    return {"elements": [f"x{i}" for i in range(1, 7)], "rows": rows}


def uniform_window(lo, hi):
    return min(lo), max(hi)


def system_parts(system, phi):
    return [phi[e] for e in system["elements"]]


# ---------------------------------------------------------------------------
# certify: many small requests through the CLI


def op_minimize_mconvex(rng, n, shape):
    p = supermodular(rng, n)
    phi = {e: objective_part(rng, shape) for e in p["elements"]}
    return Op("minimize-mconvex", ["minimize", "mconvex", "--instance", dumps(p), "--phi", dumps(phi)],
              spec={"p": p, "phi": phi}, label=f"n={n}")


def op_certify_mconvex(rng, n, shape, mode):
    """mode: 'optimal' or 'other' base with the dual derived by dctk, or
    'slopes' / 'random' weights supplied with the optimal / any base."""
    p = supermodular(rng, n)
    phi = {e: objective_part(rng, shape) for e in p["elements"]}
    parts = [phi[e] for e in p["elements"]]
    _, table = oracle.table_of(p)
    all_bases = oracle.bases(n, table)
    values = [oracle.sep_value(parts, z) for z in all_bases]
    best = min(values)
    optimal = [z for z, v in zip(all_bases, values) if v == best]
    others = [z for z, v in zip(all_bases, values) if v != best] or optimal
    z = list(rng.choice(others if mode in ("other", "random") else optimal))
    argv = ["certify", "mconvex", "--instance", dumps(p), "--phi", dumps(phi), "--point", dumps(z)]
    w = None
    if mode == "slopes":
        w = [oracle.slope(f, k - 1) for f, k in zip(parts, z)]
        w = [v if v not in (INF, -INF) else 0 for v in w]
    elif mode == "random":
        w = [rng.randint(-4, 4) for _ in range(n)]
    if w is not None:
        argv += ["--weights", dumps(w)]
    return Op("certify-mconvex", argv, spec={"p": p, "phi": phi, "z": z, "w": w, "min": best},
              label=f"n={n} {mode}")


def op_minimize_flow(rng, square):
    n_nodes, n_arcs = rng.randint(5, 8), rng.randint(10, 20)
    nodes = [f"v{i}" for i in range(n_nodes)]
    arcs = [rng.sample(nodes, 2) for _ in range(n_arcs)]
    x0 = [0] * n_arcs
    for _ in range(rng.randint(4, 15)):
        x0[rng.randrange(n_arcs)] += 1
    inst = {"nodes": nodes, "arcs": arcs, "m": flow_demand(nodes, [tuple(a) for a in arcs], x0),
            "lower": [0] * n_arcs, "upper": [None] * n_arcs}
    if square:
        parts = [quadratic()] * n_arcs
        if rng.random() < 0.5:
            inst["cost"] = {f"a{i}": quadratic() for i in range(n_arcs)}
    else:
        # Other convex costs, nondecreasing on [0, inf) as the oracle needs.
        parts = []
        for _ in range(n_arcs):
            kind = rng.randrange(3)
            if kind == 0:
                parts.append(quadratic(rng.randint(2, 4)))
            elif kind == 1:
                parts.append(vshape(0, -1, rng.randint(1, 5)))
            else:
                parts.append({"form": "flat_bottom", "a": 0, "b": rng.randint(0, 2),
                              "c_minus": -1, "c_plus": rng.randint(1, 5), "A": None, "B": None})
        inst["cost"] = {f"a{i}": f for i, f in enumerate(parts)}
    return op_flow(inst, parts, square, f"V={n_nodes} A={n_arcs} {'square' if square else 'other'}")


def op_flow(inst, parts, square, label):
    return Op("minimize-flow", ["minimize", "flow", "--instance", dumps(inst)],
              spec={"inst": inst, "parts": parts},
              defect=None if square else "flow-square-dual", label=label)


def d2_flow(a):
    """Two parallel arcs s -> t carrying a demand of 2, cost a*k^2 per arc."""
    parts = [quadratic(a)] * 2
    inst = {"nodes": ["s", "t"], "arcs": [["s", "t"], ["s", "t"]], "m": {"s": -2, "t": 2},
            "lower": [0, 0], "upper": [None, None], "cost": {"a0": parts[0], "a1": parts[1]}}
    return op_flow(inst, parts, a == 1, f"d2 cost {a}k^2")


def big_int(rng, large):
    """A slope of either sign: up to 100, or log-uniform up to 1e9."""
    mag = rng.randint(0, 100) if not large else int(10 ** rng.uniform(3, 9))
    return mag if rng.random() < 0.5 else -mag


def bound_pair(rng, span):
    lo = rng.randint(-span, span)
    hi = lo + rng.randint(0, span)
    choice = rng.randrange(4)
    return (None if choice == 1 else lo), (None if choice == 2 else hi)


def random_form(rng, form):
    """One instance of each of dctk's eight univariate forms, with large
    coefficients and wide domains so that window bugs cannot hide."""
    if form == "table":
        k0 = rng.randint(-50, 50)
        slopes = sorted(rng.randint(-1000, 1000) for _ in range(rng.randint(0, 20)))
        vals = [rng.randint(-10**6, 10**6)]
        for s in slopes:
            vals.append(vals[-1] + s)
        return {"form": "table", "k0": k0, "values": vals}
    if form == "quadratic":
        return quadratic(rng.randint(1, 10**6))
    if form == "vshape":
        k0 = rng.randint(-1000, 1000)
        c1 = rng.randint(-10**6, 10**6)
        A, B = bound_pair(rng, 10**4)
        A = None if A is None else min(A, k0)
        B = None if B is None else max(B, k0)
        return vshape(k0, c1, rng.randint(c1, c1 + 10**6), A, B)
    if form == "flat_bottom":
        a = rng.randint(-1000, 1000)
        b = a + rng.randint(0, 1000)
        A = None if rng.random() < 0.5 else a - rng.randint(0, 10**4)
        B = None if rng.random() < 0.5 else b + rng.randint(0, 10**4)
        return {"form": "flat_bottom", "a": a, "b": b, "c_minus": -rng.randint(0, 10**6),
                "c_plus": rng.randint(0, 10**6), "A": A, "B": B}
    if form == "linear_plus":
        return {"form": "linear_plus", "c": rng.randint(-10**6, 10**6),
                "inner": random_form(rng, rng.choice(["quadratic", "vshape"]))}
    if form == "shifted":
        return shifted(rng.randint(-10**6, 10**6), random_form(rng, rng.choice(["quadratic", "vshape"])))
    if form == "restricted":
        A = rng.randint(-300, 0)
        B = rng.randint(0, 300)
        inner = quadratic(rng.randint(1, 3))
        if rng.random() < 0.5:
            inner = shifted(rng.randint(-100, 100), inner)
        return {"form": "restricted", "A": A, "B": B, "inner": inner}
    if form == "sum_of":
        c = rng.randint(1, 200)
        return {"form": "sum_of", "parts": [quadratic(rng.randint(1, 3)),
                                            vshape(rng.randint(-50, 50), -c, c)]}
    raise ValueError(form)


FORMS = ("table", "quadratic", "vshape", "flat_bottom", "linear_plus", "shifted", "restricted", "sum_of")


# conjugate --closed on these forms can hit the closed-window defect.
CLOSED_WINDOW_FORMS = ("restricted", "sum_of")


def op_conjugate_of(f, ell, closed, label):
    argv = ["conjugate", "--phi", dumps(f), f"--ell={ell}"] + (["--closed"] if closed else [])
    defect = "closed-window" if closed and f["form"] in CLOSED_WINDOW_FORMS else None
    return Op("conjugate-closed" if closed else "conjugate", argv,
              spec={"f": f, "ell": ell, "closed": closed}, defect=defect, label=label)


def op_conjugate(rng, form, closed, large):
    f = random_form(rng, form)
    return op_conjugate_of(f, big_int(rng, large), closed, f"{form} |l|{'>' if large else '<='}100")


# Minimizations at n = 7 and 8 are the slowest eighth of a deck, so the
# p90 op is an n = 7 descent rather than a boundary case.
MCONVEX_SIZES = [4, 5, 6] * 3 + [7] * 9 + [8] * 3


def certify_corpus(seed):
    """Descent cost varies about 35 % between instances of one size, so
    every pass draws fresh minimizations, flows and conjugates, and a
    run averages over hundreds of them.  The certify ops, whose inputs
    need a base enumeration, are built once and repeat in every pass."""
    rng = random.Random(f"certify/{seed}")
    shared = [op_certify_mconvex(rng, 4 + i % 3, i % OBJECTIVE_SHAPES, mode)
              for i, mode in enumerate(["optimal", "other", "slopes", "random"] * 3)]

    def deck(p):
        rng = random.Random(f"certify/{seed}/{p}")
        ops = [op_minimize_mconvex(rng, n, i % OBJECTIVE_SHAPES) for i, n in enumerate(MCONVEX_SIZES)]
        ops += [op_minimize_flow(rng, square=True) for _ in range(16)]
        # The closed slots of the closed-window forms get open conjugates.
        ops += [op_conjugate(rng, form, closed and form not in CLOSED_WINDOW_FORMS, large)
                for form in FORMS for closed in (False, True) for large in (False, True)]
        return shared + ops

    return deck


def defect_cases(seed):
    """Ops that can hit a known defect: the case each defect was found on
    and seeded ones like it.  They are checked once per certify run,
    outside the timed loop, so that the timed ops all succeed while the
    defects stay visible in every run's output."""
    rng = random.Random(f"defects/{seed}")
    ops = [op_conjugate_of({"form": "restricted", "A": -200, "B": 200, "inner": quadratic()}, 300, True,
                           "restricted -200..200 quadratic l=300")]
    ops += [op_conjugate(rng, form, True, large)
            for form in CLOSED_WINDOW_FORMS for large in (False, True, True)]
    ops.append(d2_flow(3))
    ops += [op_minimize_flow(rng, square=False) for _ in range(6)]
    return ops


# ---------------------------------------------------------------------------
# dual-search: windowed dual searches over conjugate evaluations


def base_system_n2(rng):
    return oracle.base_system(supermodular(rng, 2, bound=2))


def small_embedding(rng, rows):
    """A 4-row (two parallel arcs) or 5-row (two-arc path or star) flow
    embedding with demand 1..3."""
    d = rng.randint(1, 3)
    if rows == 4:
        return embedding(["s", "t"], [("s", "t"), ("s", "t")], {"s": -d, "t": d})
    nodes = ["u", "v", "w"]
    if rng.random() < 0.5:
        arcs = [("u", "v"), ("v", "w")]
    else:
        arcs = [("u", "v"), ("u", "w")]
    x0 = [d, d] if arcs[1][0] == "v" else [d, rng.randint(1, 3)]
    return embedding(nodes, arcs, flow_demand(nodes, arcs, x0))


def primal_window(system):
    """Vertex hull of the system padded by one, as the criteria use it."""
    return oracle.hull_window(oracle.vertices(system), pad=1)


def op_boxtdi(rng, system, y_bound):
    phi = square_sum(system["elements"], a=rng.randint(1, 2))
    lo, hi = uniform_window(*primal_window(system))
    argv = ["minimize", "boxtdi", "--instance", dumps(system), "--phi", dumps(phi),
            f"--window={lo}..{hi}", "--y-bound", str(y_bound)]
    return Op("boxtdi", argv, spec={"system": system, "phi": phi, "window": (lo, hi), "y_bound": y_bound},
              label=f"rows={len(system['rows'])} y={y_bound}")


def criterion7_call(api, spec):
    """Criterion 7: windowed primal, integer dual, mu-form dual and the
    full certificate check on one system."""
    poly = api.polyhedron
    system = poly.LinearSystem.from_json(spec["system"])
    Phi = api.conjugate.separable_from_json(spec["phi"], system.elements)
    win = poly.Window(tuple(spec["window"][0]), tuple(spec["window"][1]))
    primal = poly.minimize_bruteforce(system, Phi, win)
    dual = poly.dual_search_bruteforce(system, Phi, 6)
    mu = poly.mu_form_dual_search(system, Phi, poly.Window.uniform(system.n, -6, 6))
    rep = poly.verify_certificate(system, primal.primal_witness, dual.dual_witness, Phi)
    return {"primal": primal.primal_value, "z": list(primal.primal_witness),
            "dual": dual.dual_value, "y": list(dual.dual_witness.y),
            "mu": mu.dual_value, "w": list(mu.dual_witness),
            "cert_primal": rep.primal_value, "cert_dual": rep.dual_value, "cert_equality": rep.equality}


def op_criterion7(system):
    phi = square_sum(system["elements"])
    return Op("criterion7", call=criterion7_call,
              spec={"system": system, "phi": phi, "window": primal_window(system)},
              label=f"rows={len(system['rows'])}")


def op_m2(rng, n):
    while True:
        p1, p2 = supermodular(rng, n, bound=2), supermodular(rng, n, bound=2)
        _, t2 = oracle.table_of(p2)
        if any(oracle.is_base(n, t2, z) for z in oracle.bases(n, oracle.table_of(p1)[1])):
            break
    phi = square_sum(p1["elements"])
    argv = ["minimize", "m2", "--instance", dumps({"p1": p1, "p2": p2}), "--phi", dumps(phi),
            "--w-window", "3"]
    return Op("m2", argv, spec={"p1": p1, "p2": p2, "phi": phi, "w_bound": 3}, label=f"n={n}")


def build_dual_search(rng):
    ops = []
    for _ in range(4):
        ops.append(op_boxtdi(rng, base_system_n2(rng), 6))
    for _ in range(2):
        ops.append(op_boxtdi(rng, base_system_n2(rng), 12))
    for rows in (4, 4, 5):
        ops.append(op_boxtdi(rng, small_embedding(rng, rows), 6))
    for _ in range(3):
        ops.append(op_criterion7(base_system_n2(rng)))
    ops.append(op_criterion7(small_embedding(rng, 4)))
    for n in (2, 2, 2, 3, 3):
        ops.append(op_m2(rng, n))
    return ops


# ---------------------------------------------------------------------------
# probe: box-integrality probes, dominated by exact elimination


def system_with_span(make, span):
    """Draw systems until the uniform vertex-hull window spans `span`, so
    that each slot has the same probe cost whatever the seed."""
    while True:
        system = make()
        verts = oracle.vertices(system)
        lo, hi = uniform_window(*oracle.hull_window(verts))
        if hi - lo == span:
            return system, lo, hi


def op_probe(system, lo, hi, k, label):
    """Probe the k-dilation in its vertex-hull window (the hull of the
    original system scaled by k, as its vertices are integral)."""
    d = oracle.dilate(system, k)
    argv = ["probe", "--system", dumps(d), f"--window={lo * k}..{hi * k}"]
    return Op("probe", argv, spec={"system": d, "window": (lo * k, hi * k), "integral": True},
              label=f"{label} k={k}")


def op_probe_s3():
    """The 2-dilation of s3 in the unit cube: the one expected fractional
    witness."""
    d = oracle.dilate(s3_system(), 2)
    argv = ["probe", "--system", dumps(d), "--window=0..1"]
    return Op("probe", argv, spec={"system": d, "window": (0, 1), "integral": False}, label="s3 k=2")


def build_probe(rng):
    """Span-1 systems only, so that each dilation k has one window size.
    Flow probes cost a little less than base-system probes of the same
    k, so four base systems to two flows put the median among the k = 2
    and the p90 among the k = 3 base probes, not on a group boundary."""
    ops = []
    for _ in range(4):
        system, lo, hi = system_with_span(lambda: oracle.base_system(supermodular(rng, 3, bound=2)), 1)
        ops += [op_probe(system, lo, hi, k, "base n=3") for k in (1, 2, 3)]
    for _ in range(2):
        system, lo, hi = system_with_span(lambda: random_dag_embedding(rng, 4, 3, 1), 1)
        ops += [op_probe(system, lo, hi, k, "flow A=3") for k in (1, 2, 3)]
    ops.append(op_probe_s3())
    return ops


# ---------------------------------------------------------------------------
# inverse: cold basis enumeration, then many warm exact LPs


def deviation(rng, kind, elems):
    out = {}
    for e in elems:
        w0 = rng.randint(-2, 2)
        if kind == "l1":
            out[e] = vshape(w0, -1, 1)
        elif kind == "weighted-l1":
            out[e] = vshape(w0, -rng.randint(1, 3), rng.randint(1, 3))
        else:
            a = rng.randint(-3, 2)
            out[e] = {"form": "flat_bottom", "a": a, "b": a + rng.randint(0, 2),
                      "c_minus": -rng.randint(1, 3), "c_plus": rng.randint(1, 3), "A": None, "B": None}
    return out


# Bases per inverse instance, by n: the inverse scan costs about one
# exact LP over the vertices per weight, so a fixed count fixes the cost.
INVERSE_BASES = {2: 2, 3: 4, 4: 8}


def op_inverse(rng, n, n_targets, kind):
    while True:
        p = supermodular(rng, n, bound=2)
        _, table = oracle.table_of(p)
        all_bases = oracle.bases(n, table)
        if len(all_bases) == INVERSE_BASES[n]:
            break
    system = oracle.base_system(p)
    targets = [list(rng.choice(all_bases)) for _ in range(n_targets)]
    dev = deviation(rng, kind, p["elements"])
    w = 6 if n <= 3 else 3
    argv = ["inverse", "--system", dumps(system)]
    for t in targets:
        argv += ["--target", dumps(t)]
    argv += ["--deviation", dumps(dev), f"--w-window=-{w}..{w}"]
    return Op("inverse", argv, spec={"system": system, "bases": all_bases, "targets": targets,
                                     "dev": dev, "w": w},
              label=f"n={n} targets={n_targets} {kind}")


def build_inverse(rng):
    """n = 2, 3 and 4 in the proportions 4 : 7 : 3, so that the median
    op is an n = 3 scan and the p90 op an n = 4 scan."""
    kinds = ("l1", "weighted-l1", "box")
    ops = []
    for n, count in ((2, 4), (3, 7), (4, 3)):
        for i in range(count):
            ops.append(op_inverse(rng, n, 1 + i % 3, kinds[(i + n) % 3]))
    return ops


DECKS = {"dual-search": build_dual_search, "probe": build_probe, "inverse": build_inverse}


def corpus(workload: str, seed: int):
    """deck(p) -> the ops of pass p.  Building the corpus makes every
    input that is not drawn afresh per pass.  The recipe of a deck fixes
    its op groups; the numbers are drawn afresh for every pass, so that
    the median and p90 of a run are taken over many instances of their
    group rather than over the few of one deck."""
    if workload == "certify":
        return certify_corpus(seed)
    build = DECKS[workload]
    return lambda p: build(random.Random(f"{workload}/{seed}/{p}"))


# ---------------------------------------------------------------------------
# Expected answers (computed once per op, outside set-up and the timed loop)


def prepare(op: Op) -> None:
    if op.expect:
        return
    s = op.spec
    if op.kind == "minimize-mconvex":
        n, table = oracle.table_of(s["p"])
        parts = [s["phi"][e] for e in s["p"]["elements"]]
        # Enumeration is cheap up to n = 5; beyond, the certificate is the proof.
        best = min(oracle.sep_value(parts, z) for z in oracle.bases(n, table)) if n <= 5 else None
        op.expect = {"n": n, "table": table, "parts": parts, "min": best}
    elif op.kind == "certify-mconvex":
        n, table = oracle.table_of(s["p"])
        parts = [s["phi"][e] for e in s["p"]["elements"]]
        op.expect = {"n": n, "table": table, "parts": parts,
                     "z_value": oracle.sep_value(parts, s["z"]), "min": s["min"]}
        if s["w"] is not None:
            op.expect.update(_predict_certify(n, table, parts, s["z"], s["w"]))
    elif op.kind == "minimize-flow":
        op.expect = {"min": oracle.flow_min_cost(s["inst"], s["parts"])}
    elif op.kind in ("conjugate", "conjugate-closed"):
        op.expect = {"value": oracle.ext_json(oracle.conjugate(s["f"], s["ell"]))}
    elif op.kind == "boxtdi":
        lo, hi = s["window"]
        n = len(s["system"]["elements"])
        parts = system_parts(s["system"], s["phi"])
        best, _ = oracle.brute_min(s["system"], parts, [lo] * n, [hi] * n)
        op.expect = {"parts": parts, "min": best}
    elif op.kind == "criterion7":
        parts = system_parts(s["system"], s["phi"])
        best, _ = oracle.brute_min(s["system"], parts, *s["window"])
        op.expect = {"parts": parts, "min": best, "vertices": oracle.vertices(s["system"])}
    elif op.kind == "m2":
        n, t1 = oracle.table_of(s["p1"])
        _, t2 = oracle.table_of(s["p2"])
        parts = [s["phi"][e] for e in s["p1"]["elements"]]
        common = [z for z in oracle.bases(n, t1) if oracle.is_base(n, t2, z)]
        op.expect = {"n": n, "t1": t1, "t2": t2, "parts": parts,
                     "min": min(oracle.sep_value(parts, z) for z in common)}
    elif op.kind == "probe":
        op.expect = {"integral": s["integral"]}
    elif op.kind == "inverse":
        op.expect = _inverse_expect(s)
    else:
        raise ValueError(op.kind)


def _predict_certify(n, table, parts, z, w):
    """What `certify mconvex` must answer for a given (z, w): exit 5 if a
    criterion fails, else 0 or 6 by whether primal = dual."""
    fitting = all(oracle.slope(f, k - 1) <= wi <= oracle.slope(f, k)
                  for f, k, wi in zip(parts, z, w))
    if not oracle.is_base(n, table, z) or not oracle.top_sets_tight(n, table, z, w) or not fitting:
        return {"rc": EXIT_CRITERIA}
    primal = oracle.sep_value(parts, z)
    dual = oracle.lovasz(n, table, w) - oracle.sep_conjugate(parts, w)
    return {"rc": EXIT_OK if primal == dual else EXIT_INCONCLUSIVE, "primal": primal, "dual": dual}


def _inverse_expect(s):
    system, targets, w = s["system"], s["targets"], s["w"]
    n = len(system["elements"])
    parts = system_parts(system, s["dev"])
    k = len(targets)
    z0 = [sum(t[j] for t in targets) for j in range(n)]
    best = INF
    for cand in itertools.product(range(-w, w + 1), repeat=n):
        if _all_minimize(s["bases"], targets, cand):
            v = oracle.sep_value(parts, cand)
            if v < best:
                best = v
    # The tangent cone at z0 of the k-dilated system, and the exact dual
    # over it: conj(Phi) is finite only inside the slope box below.
    cone = {"elements": system["elements"], "rows": [
        dict(r, rhs=0) for r in system["rows"]
        if r["kind"] == "eq" or sum(a * b for a, b in zip(r["coeffs"], z0)) == k * r["rhs"]]}
    z_lo = [f["c_minus"] for f in parts]
    z_hi = [f["c_plus"] for f in parts]
    dual = max(-oracle.sep_conjugate(parts, z) for z in oracle.box_points(z_lo, z_hi)
               if oracle.contains(cone, z))
    return {"parts": parts, "min": best, "dual": dual, "cone": cone, "z_box": (z_lo, z_hi)}


def _all_minimize(all_bases, targets, w):
    """Every target minimizes w over the base polytope (integral, so its
    LP minimum is attained at an integral base)."""
    m = min(sum(a * b for a, b in zip(w, z)) for z in all_bases)
    return all(sum(a * b for a, b in zip(w, t)) == m for t in targets)


# ---------------------------------------------------------------------------
# Checks: None when the answer is right, else the reason it is not


def check(op: Op, result) -> Optional[str]:
    prepare(op)
    if isinstance(result, BaseException):
        return f"exception {type(result).__name__}: {result}"
    try:
        return CHECKS[op.kind](op, result)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed answer ({type(e).__name__}: {e})"


def _cli(result, rc_expected):
    rc, out = result
    if rc != rc_expected:
        return None, f"exit code {rc}, expected {rc_expected}"
    return json.loads(out.strip().splitlines()[-1]), None


def _ok_report(result):
    out, why = _cli(result, EXIT_OK)
    if why:
        return None, why
    if out.get("status") != "OK":
        return None, f"status {out.get('status')!r} with exit code 0"
    return out, None


def check_minimize_mconvex(op, result):
    e = op.expect
    out, why = _ok_report(result)
    if why:
        return why
    r = out["report"]
    return (_mconvex_pair(e, r["primal_witness"], r["dual_witness"], r)
            or _status_equal(r["primal_value"], r["dual_value"], r["equality"])
            or (None if e["min"] is None or r["primal_value"] == e["min"]
                else f"value {r['primal_value']} != enumerated minimum {e['min']}"))


def _mconvex_pair(e, z, w, r):
    """The reported values are those of the reported witnesses."""
    if not oracle.is_base(e["n"], e["table"], z):
        return f"primal witness {z} is not a base"
    if r["primal_value"] != oracle.sep_value(e["parts"], z):
        return f"primal_value {r['primal_value']} != Phi(witness)"
    dual = oracle.lovasz(e["n"], e["table"], w) - oracle.sep_conjugate(e["parts"], w)
    if r["dual_value"] != oracle.ext_json(dual):
        return f"dual_value {r['dual_value']} != dual of witness {w} ({dual})"
    return None


def _status_equal(primal, dual, equality):
    if primal != dual or not equality:
        return f"status OK without primal = dual ({primal} vs {dual})"
    return None


def check_certify_mconvex(op, result):
    e, s = op.expect, op.spec
    rc = result[0]
    if s["w"] is not None:
        out, why = _cli(result, e["rc"])
        if why:
            return why
        if e["rc"] == EXIT_CRITERIA:
            return None if out.get("status") == "CRITERIA_VIOLATED" else f"status {out.get('status')!r}"
        r = out["report"]
        if (r["primal_value"], r["dual_value"]) != (e["primal"], oracle.ext_json(e["dual"])):
            return f"values {r['primal_value']}/{r['dual_value']} != {e['primal']}/{e['dual']}"
        return None if r["equality"] == (e["rc"] == EXIT_OK) else "equality flag wrong"
    optimal = e["z_value"] == e["min"]
    if not optimal:
        if rc == EXIT_OK:
            return f"certified a non-optimal point (value {e['z_value']} > minimum {e['min']})"
        if rc == EXIT_CRITERIA:
            return None
        out, why = _cli(result, EXIT_INCONCLUSIVE)
        if why:
            return why
        r = out["report"]
        return _mconvex_pair(e, s["z"], r["dual_witness"], r) or (
            "equality flag set" if r["equality"] else None)
    out, why = _ok_report(result)
    if why:
        return why
    r = out["report"]
    return (_mconvex_pair(e, s["z"], r["dual_witness"], r)
            or _status_equal(r["primal_value"], r["dual_value"], r["equality"]))


def check_minimize_flow(op, result):
    e, s = op.expect, op.spec
    out, why = _ok_report(result)
    if why:
        return why
    x = out["flow"]
    if not oracle.is_flow(s["inst"], x):
        return f"flow {x} is not feasible"
    if out["value"] != oracle.sep_value(s["parts"], x):
        return f"value {out['value']} != cost of the flow"
    if out["value"] != e["min"]:
        return f"value {out['value']} != networkx minimum {e['min']}"
    if out["dual_value"] != out["value"]:
        return f"status OK without primal = dual (value {out['value']}, dual_value {out['dual_value']})"
    dual = oracle.flow_dual(s["inst"], s["parts"], out["potential"])
    return None if dual == out["dual_value"] else f"potential certifies {dual}, not {out['dual_value']}"


def check_conjugate(op, result):
    f = op.spec["f"]
    if op.spec["closed"] and f["form"] in ("table", "sum_of") and result[0] == EXIT_INVALID:
        return None  # a refused closed form (UnsupportedForm) is not a wrong value
    out, why = _ok_report(result)
    if why:
        return why
    want = op.expect["value"]
    return None if out["value"] == want else f"value {out['value']} != {want}"


def check_boxtdi(op, result):
    e, s = op.expect, op.spec
    system, lo, hi = s["system"], *s["window"]
    rc = result[0]
    out, why = _cli(result, rc if rc in (EXIT_OK, EXIT_INCONCLUSIVE) else EXIT_OK)
    if why:
        return why
    r = out["report"]
    if r["primal_value"] != e["min"]:
        return f"primal_value {r['primal_value']} != brute minimum {e['min']}"
    z = r["primal_witness"]
    if not (oracle.contains(system, z) and all(lo <= v <= hi for v in z)
            and oracle.sep_value(e["parts"], z) == e["min"]):
        return f"primal witness {z} does not verify"
    y = r["dual_witness"]
    if not (oracle.sign_feasible(system, y) and all(abs(v) <= s["y_bound"] for v in y)):
        return f"dual witness {y} is not a sign-feasible vector within the bound"
    if r["dual_value"] != oracle.dual_vector_value(system, e["parts"], y):
        return f"dual_value {r['dual_value']} != value of its witness"
    if rc == EXIT_OK:
        return _status_equal(r["primal_value"], r["dual_value"], r["equality"])
    best = _best_dual_vector(op)
    if best == e["min"]:
        return f"inconclusive although the dual search reaches {best}"
    return None if r["dual_value"] == best else f"dual_value {r['dual_value']} != search maximum {best}"


def _best_dual_vector(op):
    """The exhaustive integer dual search, run only to judge an
    INCONCLUSIVE answer."""
    s = op.spec
    rows = s["system"]["rows"]
    b = s["y_bound"]
    ranges = [range(0 if r["kind"] == "geq" else -b, b + 1) for r in rows]
    return max(oracle.dual_vector_value(s["system"], op.expect["parts"], y)
               for y in itertools.product(*ranges))


def check_criterion7(op, result):
    e, s = op.expect, op.spec
    system = s["system"]
    if result["primal"] != e["min"]:
        return f"primal {result['primal']} != brute minimum {e['min']}"
    z = result["z"]
    if not oracle.contains(system, z) or oracle.sep_value(e["parts"], z) != e["min"]:
        return f"primal witness {z} does not verify"
    y = result["y"]
    if not oracle.sign_feasible(system, y) or oracle.dual_vector_value(system, e["parts"], y) != result["dual"]:
        return f"dual witness {y} does not verify"
    w = result["w"]
    mu = oracle.lp_min(e["vertices"], w) - oracle.sep_conjugate(e["parts"], w)
    if not all(abs(v) <= 6 for v in w) or mu != result["mu"]:
        return f"mu-form witness {w} does not verify"
    if not result["primal"] == result["dual"] == result["mu"]:
        return f"min-max disagreement: {result['primal']}, {result['dual']}, {result['mu']}"
    if not (result["cert_equality"] and result["cert_primal"] == result["cert_dual"] == e["min"]):
        return "certificate check did not report equality"
    return None


def check_m2(op, result):
    e = op.expect
    rc = result[0]
    out, why = _cli(result, rc if rc in (EXIT_OK, EXIT_INCONCLUSIVE) else EXIT_OK)
    if why:
        return why
    r = out["report"]
    z = r["primal_witness"]
    n, parts = e["n"], e["parts"]
    if not (oracle.is_base(n, e["t1"], z) and oracle.is_base(n, e["t2"], z)):
        return f"primal witness {z} is not a common base"
    if not r["primal_value"] == oracle.sep_value(parts, z) == e["min"]:
        return f"primal_value {r['primal_value']} != minimum {e['min']}"
    w1, w2 = r["dual_witness"]
    b = op.spec["w_bound"]
    if any(abs(v) > b for v in w1 + w2):
        return "dual witness outside the weight window"
    if r["dual_value"] != _split_value(e, w1, w2):
        return f"dual_value {r['dual_value']} != value of its witness"
    if rc == EXIT_OK:
        return _status_equal(r["primal_value"], r["dual_value"], r["equality"])
    grid = list(itertools.product(range(-b, b + 1), repeat=n))
    best = max(_split_value(e, w1, w2) for w1 in grid for w2 in grid)
    if best == e["min"]:
        return f"inconclusive although the split search reaches {best}"
    return None if r["dual_value"] == best else f"dual_value {r['dual_value']} != search maximum {best}"


def _split_value(e, w1, w2):
    c = oracle.sep_conjugate(e["parts"], [a + b for a, b in zip(w1, w2)])
    if c == INF:
        return -INF
    return oracle.lovasz(e["n"], e["t1"], w1) + oracle.lovasz(e["n"], e["t2"], w2) - c


def check_probe(op, result):
    s = op.spec
    if s["integral"]:
        out, why = _ok_report(result)
        if why:
            return why
        return None if out["box_integer"] is True and out["witness"] is None else "reported a witness"
    out, why = _cli(result, EXIT_CRITERIA)
    if why:
        return why
    if out["box_integer"] is not False or out["witness"] is None:
        return "no fractional witness reported"
    x = tuple(Fraction(v) for v in out["witness"])
    lo, hi = s["window"]
    if not all(lo <= v <= hi for v in x) or not oracle.contains(s["system"], x):
        return f"witness {out['witness']} is outside the window or the system"
    if all(v.denominator == 1 for v in x):
        return f"witness {out['witness']} is integral"
    if not oracle.is_vertex_of_box_cut(s["system"], x):
        return f"witness {out['witness']} is not a vertex of a box cut"
    return None


def check_inverse(op, result):
    e, s = op.expect, op.spec
    want_rc = EXIT_OK if e["min"] == e["dual"] else EXIT_INCONCLUSIVE
    out, why = _cli(result, want_rc)
    if why:
        return why
    w_star = out["w_star"]
    if out["value"] != e["min"]:
        return f"value {out['value']} != windowed minimum {e['min']}"
    if not (all(abs(v) <= s["w"] for v in w_star) and _all_minimize(s["bases"], s["targets"], w_star)
            and oracle.sep_value(e["parts"], w_star) == e["min"]):
        return f"w_star {w_star} does not verify"
    if out["dual_value"] != e["dual"]:
        return f"dual_value {out['dual_value']} != exact dual {e['dual']}"
    z = out["dual_witness"]
    if not oracle.contains(e["cone"], z) or -oracle.sep_conjugate(e["parts"], z) != e["dual"]:
        return f"dual witness {z} does not verify"
    if want_rc == EXIT_OK and not (out["checks"]["orthogonal"] and out["checks"]["fitting"]):
        return "optimal pair reported as not orthogonal or not fitting"
    return None


CHECKS = {
    "minimize-mconvex": check_minimize_mconvex,
    "certify-mconvex": check_certify_mconvex,
    "minimize-flow": check_minimize_flow,
    "conjugate": check_conjugate,
    "conjugate-closed": check_conjugate,
    "boxtdi": check_boxtdi,
    "criterion7": check_criterion7,
    "m2": check_m2,
    "probe": check_probe,
    "inverse": check_inverse,
}
