"""Golden output of the M-convex commands and of the box probe.

`tests/data/mconvex_golden.json` holds, for seeded instances with
n = 4..8, the argv of `minimize mconvex` and of `certify mconvex` in
four modes, with the stdout and exit code each printed when the file
was written.  Every run must print the same bytes and exit the same
way, so a change to the supermodularity check or to the subset scans
that moves a value, a witness or a status shows here.

The tables are modular parts plus nonnegative pairwise interactions;
some are cut down to a ring family (MINUS_INF off the family), some
have one entry moved by one, which may break supermodularity (exit 4,
empty stdout).  The certify modes are: the minimizer with the derived
certificate ("optimal"), another base with the derived certificate
("other"), the minimizer with its left slopes as weights ("slopes"),
and another base with random weights ("random").

`tests/data/probe_golden.json` holds `probe` runs on seeded base
systems and flow embeddings in their vertex-hull windows, on random
integer systems in -2..2 (many have fractional witnesses), each at the
dilations k = 1-3, and on 2*s3 in the unit cube.  A change to the probe's
basis scan or value scan that moves a witness or a status shows here.

`tests/data/dual_golden.json` holds `minimize boxtdi` runs on seeded base
systems, flow embeddings, random integer systems and s3 in their
vertex-hull windows (padded by one), and `minimize m2` runs on seeded
pairs whose base sets meet, with square sums, mixed objectives (large
slopes, finite domains) and, for boxtdi, large-slope ones, at several
dual bounds.  It was written while both duals were still found by
windowed scans.  Some answers are certified (exit 0), some are
INCONCLUSIVE (exit 6: a bound too small, a system that is not box-TDI,
or a window where the objective is infinite at every integer point), so
a change to how the integer dual or the weight splitting is found that
moves a value, a witness or a status shows here.

`tests/data/conjugate_golden.json` holds, for every form (tables,
quadratics, V-shapes, flat bottoms, tilts, shifts, restrictions and sums,
bare and nested, some with slopes up to 10**6), the stdout, stderr and
exit code of `conjugate` with and without `--closed` at slopes ell at
each finite limit slope of the form and one either side of it, at the
first and last slopes of a finite domain, and up to 10**9 in size; and
`inverse.default_z_window` of the form as a one-element deviation.  It
was written while the conjugate was found by a slope search bracketed
by per-shape tails, so a change to how the argmax or the slope range is
found that moves a value, a refusal or a window shows here.

`tests/data/inverse_golden.json` holds `inverse` runs on seeded base
systems (n = 2-5, one to three targets), flow embeddings and s3 (not
box-TDI), with l1, weighted-l1 and box deviations, shifted quadratics,
V-shapes with slopes up to 10**6 and mixtures of these, at w windows of
+-6 and +-20.  It was written while both inverse scans listed every
integral point of their window, so a change to how the least weight,
the dual witness or the tangent cone is found that moves a value, a
witness or a status shows here.

`tests/data/m2_golden.json` holds `minimize m2` runs on seeded pairs of
ring-family tables (n = 2-5) whose meet of base boxes is nonempty but
infinite on some side, and on the n = 5 pair of |X|^2 rooted at e1 and
at e2, whose box meet leaves z3..z5 unbounded below.  It was written while such a side
was bounded by an exact LP over both sides' rows, so a change to how the
window of the common bases or their emptiness is found that moves a
value, a witness or a status shows here.

Regenerate (only when a change of output is intended and recorded):
    PYTHONPATH=src python tests/test_golden.py [mconvex|probe|dual|conjugate|inverse|m2]
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import random
import sys

import pytest

from dctk import cli, conjugate as cj
from dctk.errors import DctkError
from dctk.extint import MINUS_INF, PLUS_INF, is_finite
from dctk.inverse import default_z_window
from dctk.fixtures import random_supermodular, s3_system
from dctk.mconvex import (
    SupermodularFn,
    base_bounds,
    enumerate_bases,
    greedy_min,
    member,
    minimize_separable,
    to_system,
)
from dctk.polyhedron import Window, dilation, enumerate_integer_points, vertex_hull_window

from helpers import (
    large_slope_objective,
    padded_hull_window,
    random_convex_table,
    random_flow_embedding,
    random_integer_system,
    random_large_slope_form,
    random_search_objective,
    rooted_squares,
)

DIR = pathlib.Path(__file__).resolve().parent / "data"
DATA = DIR / "mconvex_golden.json"
PROBE_DATA = DIR / "probe_golden.json"
DUAL_DATA = DIR / "dual_golden.json"
CONJUGATE_DATA = DIR / "conjugate_golden.json"
INVERSE_DATA = DIR / "inverse_golden.json"
M2_DATA = DIR / "m2_golden.json"
SEED = 20201
COUNT = 20
PROBE_SEED = 20212
DUAL_SEED = 20213
CONJUGATE_SEED = 20214
INVERSE_SEED = 20215
M2_SEED = 20216


def capture_all(argv):
    """(stdout, stderr, exit code) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return out.getvalue(), err.getvalue(), code


def capture(argv):
    """(stdout, exit code) of one in-process CLI run."""
    stdout, _, code = capture_all(argv)
    return stdout, code


def _table(rng, n, kind):
    pairs = list(itertools.combinations(range(n), 2))
    m = [rng.randint(-3, 3) for _ in range(n)]
    q = [(i, j, rng.randint(1, 2)) for i, j in pairs if rng.random() < 0.4]
    table = [sum(m[i] for i in range(n) if x >> i & 1)
             + sum(c for i, j, c in q if x >> i & 1 and x >> j & 1)
             for x in range(1 << n)]
    if kind == 1:
        # The ring family of the arcs i => j: X holds j whenever it holds i.
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.15]
        table = [v if all(not x >> i & 1 or x >> j & 1 for i, j in arcs) else MINUS_INF
                 for x, v in enumerate(table)]
    elif kind == 3:
        x = rng.randrange(1, (1 << n) - 1)
        table[x] += rng.choice((-1, 1))
    return table


def _part(rng, shape):
    if shape == 0:
        return {"form": "quadratic", "a": rng.randint(1, 3)}
    if shape == 1:
        return {"form": "shifted", "k0": rng.randint(-3, 3), "inner": {"form": "quadratic", "a": 1}}
    if shape == 2:
        return {"form": "vshape", "k0": rng.randint(-2, 2), "c_minus": -1, "c_plus": 1}
    c = rng.randint(10**3, 10**6)
    return {"form": "vshape", "k0": rng.randint(-3, 3), "c_minus": -c, "c_plus": 2 * c}


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def build_ops(seed=SEED, count=COUNT):
    """The argv lists, five per instance."""
    rng = random.Random(seed)
    ops = []
    for k in range(count):
        n = 4 + k % 5
        table = _table(rng, n, k % 4)
        elems = [f"e{i + 1}" for i in range(n)]
        inst = {"n": n, "elements": elems,
                "p": {str(x): (v if is_finite(v) else None) for x, v in enumerate(table)}}
        phi = {e: _part(rng, rng.randrange(4)) for e in elems}
        w_rand = [rng.randint(-4, 4) for _ in range(n)]
        w_other = [rng.randint(-4, 4) for _ in range(n)]
        best = other = [0] * n
        slopes = [0] * n
        try:
            p = SupermodularFn(n, tuple(table), tuple(elems))
            Phi = cj.separable_from_json(phi, elems)
            with contextlib.suppress(DctkError):
                other = list(greedy_min(p, w_other))
            with contextlib.suppress(DctkError):
                best = list(minimize_separable(p, Phi)[0])
                slopes = [v if is_finite(v) else 0 for v in Phi.prime_minus(best)]
        except ValueError:
            pass  # not supermodular: every command exits 4
        base = ["--instance", _dumps(inst), "--phi", _dumps(phi)]
        ops.append(["minimize", "mconvex", *base])
        for point, weights in ((best, None), (other, None), (best, slopes), (other, w_rand)):
            argv = ["certify", "mconvex", *base, "--point", _dumps(point)]
            ops.append(argv + ["--weights", _dumps(weights)] if weights else argv)
    return ops


def _probe_argv(system, lo, hi):
    return ["probe", "--system", _dumps(system.to_json()), f"--window={lo}..{hi}"]


def build_probe_ops(seed=PROBE_SEED):
    """The argv lists: six base systems (n = 2-3) and four flow embeddings
    in their vertex-hull windows (the flows padded by one), sixteen integer
    systems in -2..2, each at k = 1-3, then 2*s3 in the unit cube."""
    rng = random.Random(seed)
    ops = []
    hulls = [(to_system(random_supermodular(rng, rng.randint(2, 3), value_bound=2)), 0)
             for _ in range(6)]
    hulls += [(random_flow_embedding(rng), 1) for _ in range(4)]
    for system, pad in hulls:
        for k in (1, 2, 3):
            d = dilation(system, k)
            win = padded_hull_window(d, pad)
            ops.append(_probe_argv(d, min(win.lo), max(win.hi)))
    for _ in range(16):
        system = random_integer_system(rng)
        ops += [_probe_argv(dilation(system, k), -2, 2) for k in (1, 2, 3)]
    ops.append(_probe_argv(dilation(s3_system(), 2), 0, 1))
    return ops


def build_dual_ops(seed=DUAL_SEED):
    """The argv lists: `minimize boxtdi` on six base systems (n = 2-3),
    four flow embeddings, four random integer systems with an integer
    point in their window and s3, each with a square sum, a mixed
    objective and a large-slope one, at a y bound of 0 or 1 for the
    mixed one and else the largest of 6, 3, 2, 1 whose y box has at most
    4000 vectors; then `minimize m2` on ten pairs (n = 2-3), each with a
    square sum, a weighted square sum and a mixed objective, at a weight
    bound of 0 to 3."""
    rng = random.Random(seed)
    systems = [to_system(random_supermodular(rng, rng.randint(2, 3), value_bound=2))
               for _ in range(6)]
    systems += [random_flow_embedding(rng) for _ in range(4)]
    while len(systems) < 14:
        system = random_integer_system(rng)
        with contextlib.suppress(ValueError):  # no vertex: infeasible
            if next(enumerate_integer_points(system, padded_hull_window(system)), None):
                systems.append(system)
    systems.append(s3_system())
    ops = []
    for system in systems:
        win = padded_hull_window(system)
        big = next(y for y in (6, 3, 2, 1) if (y + 1) ** len(system.rows) <= 4000)
        objectives = (cj.square_sum(system.elements), random_search_objective(rng, system.elements),
                      large_slope_objective(rng, system.elements))
        for Phi, y_bound in zip(objectives, (big, rng.randint(0, 1), big)):
            ops.append(["minimize", "boxtdi", "--instance", _dumps(system.to_json()),
                        "--phi", _dumps(cj.separable_to_json(Phi)),
                        f"--window={min(win.lo)}..{max(win.hi)}", "--y-bound", str(y_bound)])
    pairs = 0
    while pairs < 10:
        n = rng.randint(2, 3)
        p1, p2 = (random_supermodular(rng, n, value_bound=2) for _ in range(2))
        if not any(member(p2, z) for z in enumerate_bases(p1)):
            continue
        pairs += 1
        inst = _dumps({"p1": p1.to_json(), "p2": p2.to_json()})
        weights = [rng.randint(1, 3) for _ in range(n)]
        objectives = (cj.square_sum(p1.elements), cj.square_sum(p1.elements, weights),
                      random_search_objective(rng, p1.elements))
        for Phi, w_bound in zip(objectives, (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3))):
            ops.append(["minimize", "m2", "--instance", inst,
                        "--phi", _dumps(cj.separable_to_json(Phi)), "--w-window", str(w_bound)])
    return ops


def _ring_table(rng, n, table, root):
    """`table` with None off a ring family: the sets that hold `root`
    whenever they hold one of most other elements, or with no root the
    ideals of random arcs i => j (X holds j whenever it holds i)."""
    if root is None:
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3]
    else:
        arcs = [(i, root) for i in range(n) if i != root and rng.random() < 0.8]
    return {str(x): v if all(not x >> i & 1 or x >> j & 1 for i, j in arcs) else None
            for x, v in enumerate(table)}


def motivating_m2_pair():
    """The n = 5 sides of :func:`rooted_squares` rooted at e1 and at e2."""
    return [rooted_squares(5, root).to_json() for root in (0, 1)]


def build_m2_ops(seed=M2_SEED):
    """The argv lists of `minimize m2` on pairs of ring-family tables
    (n = 2-5) whose meet of base boxes is nonempty and infinite on some
    side, where the window of the common bases comes from both sides'
    rows: most of them rooted at two distinct elements, so often bounded
    where neither box is; p2 cut from p1's table or from another.  Each
    has a square sum or a search objective at a weight bound of 1 to 3.
    Then the motivating n = 5 pair with the square sum at the default
    bound."""
    rng = random.Random(seed)
    ops = []
    for n, count in ((2, 12), (3, 14), (4, 12), (5, 6)):
        while count:
            table = _table(rng, n, 0)
            roots = rng.sample(range(n), 2) if rng.random() < 0.7 else (None, None)
            other = table if rng.random() < 0.7 else _table(rng, n, 0)
            sides = [{"n": n, "elements": [f"e{i + 1}" for i in range(n)], "p": _ring_table(rng, n, t, r)}
                     for t, r in zip((table, other), roots)]
            p1, p2 = (SupermodularFn.from_json(side) for side in sides)
            (lo1, hi1), (lo2, hi2) = base_bounds(p1), base_bounds(p2)
            los, his = tuple(map(max, lo1, lo2)), tuple(map(min, hi1, hi2))
            if all(map(is_finite, los + his)) or any(a > b for a, b in zip(los, his)):
                continue
            count -= 1
            Phi = (cj.square_sum(p1.elements) if rng.random() < 0.6
                   else random_search_objective(rng, p1.elements))
            ops.append(["minimize", "m2", "--instance", _dumps(dict(zip(("p1", "p2"), sides))),
                        "--phi", _dumps(cj.separable_to_json(Phi)), "--w-window", str(rng.randint(1, 3))])
    sides = motivating_m2_pair()
    ops.append(["minimize", "m2", "--instance", _dumps(dict(zip(("p1", "p2"), sides))),
                "--phi", _dumps(cj.separable_to_json(cj.square_sum(sides[0]["elements"])))])
    return ops


INVERSE_KINDS = ("l1", "weighted-l1", "box", "quadratic", "large", "mixed")


def _vshape(k0, c_minus, c_plus, A=None, B=None):
    return {"form": "vshape", "k0": k0, "c_minus": c_minus, "c_plus": c_plus, "A": A, "B": B}


def _inverse_part(rng, kind, wide):
    """One deviation part.  A "large" part has slopes up to 10**6 on a
    domain of at most seven points, or on all of Z when wide: its
    conjugate's z window is then 10**6 wide on that coordinate."""
    if kind == "mixed":
        kind = rng.choice(INVERSE_KINDS[:5])
    w0 = rng.randint(-2, 2)
    if kind == "l1":
        return _vshape(w0, -1, 1)
    if kind == "weighted-l1":
        return _vshape(w0, -rng.randint(1, 3), rng.randint(1, 3))
    if kind == "box":
        a = rng.randint(-3, 2)
        return {"form": "flat_bottom", "a": a, "b": a + rng.randint(0, 2), "c_minus": -rng.randint(1, 3),
                "c_plus": rng.randint(1, 3), "A": None, "B": None}
    if kind == "quadratic":
        return {"form": "shifted", "k0": w0, "inner": {"form": "quadratic", "a": rng.randint(1, 3)}}
    c1, c2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
    if wide:
        return _vshape(w0, -c1, c2)
    return _vshape(w0, -c1, c2, w0 - rng.randint(0, 3), w0 + rng.randint(0, 3))


def _inverse_argv(system, targets, deviation, w):
    argv = ["inverse", "--system", _dumps(system.to_json())]
    for t in targets:
        argv += ["--target", _dumps(list(t))]
    return argv + ["--deviation", _dumps(deviation), f"--w-window=-{w}..{w}"]


def build_inverse_ops(seed=INVERSE_SEED):
    """The argv lists: `inverse` on base systems (n = 2-5) with one to
    three targets among their bases, on flow embeddings with targets
    among their integral points, and on s3 at its vertices; each kind of
    deviation at w windows of +-6 and +-20 (+-6 only for n >= 5).  On a
    base system the first part of a "large" deviation is wide: the
    system's equality bounds that coordinate of the tangent cone."""
    rng = random.Random(seed)
    instances = []
    for n in (2, 2, 3, 3, 3, 4, 4, 5):
        p = random_supermodular(rng, n, value_bound=2)
        instances.append((to_system(p), enumerate_bases(p), True))
    while len(instances) < 12:
        system = random_flow_embedding(rng)
        points = list(enumerate_integer_points(system, vertex_hull_window(system)))
        if points:
            instances.append((system, points, False))
    s3 = s3_system()
    instances.append((s3, list(enumerate_integer_points(s3, Window.uniform(6, 0, 1))), False))
    ops = []
    for system, points, wide in instances:
        for i, kind in enumerate(INVERSE_KINDS):
            targets = [rng.choice(points) for _ in range(1 + (i + len(points)) % 3)]
            dev = {e: _inverse_part(rng, kind, wide and j == 0) for j, e in enumerate(system.elements)}
            for w in (6, 20) if system.n <= 4 else (6,):
                ops.append(_inverse_argv(system, targets, dev, w))
    return ops


def conjugate_forms(seed=CONJUGATE_SEED):
    """Every form, bare and nested: unbounded and one-sided domains,
    constant tails on either side (where a sum's slope search must stop
    at a slope equal to its limit), slopes up to 10**6, tilts, shifts and
    restrictions over tables and sums, and empty domains."""
    rng = random.Random(seed)
    V, F, Q = cj.VShape, cj.FlatBottom, cj.Quadratic
    big = 10**6
    ramp = cj.SumOf((F(1, PLUS_INF, -1, 0), F(2, PLUS_INF, -1, 0)))
    vsum = cj.SumOf((V(0, -1, 1), V(3, -2, 2)))
    qsum = cj.SumOf((Q(2), V(-1, -big, big)))
    finite_sum = cj.SumOf((cj.Restricted(-4, 6, Q(1)), V(1, -3, 2)))
    tables = [random_convex_table(rng) for _ in range(3)]
    tables.append(cj.Table(-2, (3 * big, big, 0, big // 2, 2 * big)))
    forms = tables + [
        Q(1), Q(3), Q(500),
        V(0, -1, 1), V(2, -3, 5, MINUS_INF, 7), V(-1, -2, 4, -6, PLUS_INF), V(0, -2, 3, -4, 4),
        V(5, 7, 7), V(10**6, -1, -1), V(0, -big, big), V(-3, -big, 2 * big, -10, PLUS_INF),
        F(-1, 2, -3, 4), F(MINUS_INF, 3, -1, 5), F(-4, PLUS_INF, -2, 1),
        F(MINUS_INF, PLUS_INF, -2, 1), F(0, 0, 0, 0), F(-2, 1, -big, big, -5, 6),
        F(1, 4, -2, 3, MINUS_INF, 9), F(MINUS_INF, 0, -big, big, MINUS_INF, 3),
        vsum, ramp, qsum, finite_sum,
        cj.SumOf((F(MINUS_INF, 0, -1, 1), F(MINUS_INF, 1, -1, 1))),
        cj.SumOf((V(0, -big, big), V(2, -big, big), Q(1))),
        cj.LinearPlus(3, Q(1)), cj.LinearPlus(-big, V(4, -2, 2)),
        cj.LinearPlus(2, F(MINUS_INF, 1, -1, 3)), cj.LinearPlus(-5, tables[0]),
        cj.LinearPlus(2, vsum), cj.LinearPlus(-1, ramp), cj.LinearPlus(big, qsum),
        cj.Shifted(4, Q(2)), cj.Shifted(-3, V(0, -1, 2, MINUS_INF, 5)),
        cj.Shifted(-7, tables[1]), cj.Shifted(5, vsum), cj.Shifted(-2, ramp),
        cj.Restricted(-200, 200, Q(1)), cj.Restricted(MINUS_INF, 7, V(0, -3, 2)),
        cj.Restricted(-5, PLUS_INF, cj.LinearPlus(4, Q(2))),
        cj.Restricted(MINUS_INF, PLUS_INF, F(MINUS_INF, 3, -1, 5)),
        cj.Restricted(-1, 2, tables[2]), cj.Restricted(5, 6, tables[2]),
        cj.Restricted(-3, PLUS_INF, vsum), cj.Restricted(MINUS_INF, 1, ramp),
        cj.Restricted(0, 4, qsum), cj.Restricted(20, 30, finite_sum),
        cj.SumOf((cj.Restricted(MINUS_INF, 0, V(0, -1, 1)), cj.Restricted(5, PLUS_INF, V(6, -1, 1)))),
        cj.LinearPlus(1, cj.Restricted(3, 4, cj.SumOf((cj.Restricted(0, 1, Q(1)), Q(1))))),
        cj.Shifted(-2, cj.LinearPlus(1, cj.SumOf((F(MINUS_INF, 0, -1, 1), F(MINUS_INF, 1, -1, 1))))),
        cj.LinearPlus(-3, cj.Shifted(2, cj.Restricted(MINUS_INF, 4, vsum))),
        cj.Shifted(3, cj.LinearPlus(-2, cj.Restricted(-6, PLUS_INF, F(MINUS_INF, 1, -4, 2)))),
    ]
    forms += [random_large_slope_form(rng) for _ in range(12)]
    return forms


def _limit_slope(phi, k1, k2):
    """The slope far out on one side when it is the same at k1 and k2
    (a constant tail), else None; every kink of the corpus lies inside
    [-10**6, 10**6]."""
    s1, s2 = cj.subdifferential_interval(phi, k1)[1], cj.subdifferential_interval(phi, k2)[1]
    return s1 if s1 == s2 else None


def conjugate_ells(phi, rng):
    """Slopes to evaluate phi's conjugate at: each finite limit slope and
    the first and last slopes of a finite domain, with one either side;
    0, +-1, +-10**9 and random ones up to 10**9."""
    lo, hi = phi.dom()
    marks = []
    if lo <= hi:
        if not is_finite(hi):
            marks.append(_limit_slope(phi, 10**7, 2 * 10**7))
        elif lo < hi:
            marks.append(cj.subdifferential_interval(phi, hi)[0])
        if not is_finite(lo):
            marks.append(_limit_slope(phi, -10**7, -2 * 10**7))
        elif lo < hi:
            marks.append(cj.subdifferential_interval(phi, lo)[1])
    ells = {0, 1, -1, 10**9, -10**9, rng.randint(-10**9, 10**9), rng.randint(-10**6, 10**6)}
    ells |= {s + d for s in marks if s is not None for d in (-1, 0, 1)}
    return sorted(ells)


def conjugate_argv(phi_json, ell, closed):
    return ["conjugate", "--phi", _dumps(phi_json), f"--ell={ell}", *(["--closed"] if closed else [])]


def build_conjugate_cases(seed=CONJUGATE_SEED):
    """Per form: its `conjugate` runs, open and closed, at each of its
    slopes, and its default z window as a one-element deviation."""
    rng = random.Random(seed)
    cases = []
    for phi in conjugate_forms(seed):
        runs = []
        for ell in conjugate_ells(phi, rng):
            for closed in (False, True):
                stdout, stderr, code = capture_all(conjugate_argv(cj.to_json(phi), ell, closed))
                runs.append({"ell": ell, "closed": closed, "stdout": stdout, "stderr": stderr,
                             "exit": code})
        win = default_z_window(cj.SeparableConvex((("e", phi),)))
        cases.append({"phi": cj.to_json(phi), "runs": runs, "z_window": [win.lo[0], win.hi[0]]})
    return cases


def _record(build):
    """The cases of an argv-list builder, with what each run printed."""
    def cases():
        out = []
        for argv in build():
            stdout, code = capture(argv)
            out.append({"argv": argv, "stdout": stdout, "exit": code})
        return out
    return cases


GOLDEN = {
    "mconvex": (DATA, _record(build_ops)),
    "probe": (PROBE_DATA, _record(build_probe_ops)),
    "dual": (DUAL_DATA, _record(build_dual_ops)),
    "conjugate": (CONJUGATE_DATA, build_conjugate_cases),
    "inverse": (INVERSE_DATA, _record(build_inverse_ops)),
    "m2": (M2_DATA, _record(build_m2_ops)),
}


def _cases(path):
    """The recorded cases; none before the file is first written, when
    the coverage tests below fail."""
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


def test_corpus_covers_every_outcome():
    codes = {c["exit"] for c in _cases(DATA)}
    assert {0, 4, 5, 6} <= codes


def test_probe_corpus_has_both_verdicts():
    codes = [c["exit"] for c in _cases(PROBE_DATA)]
    assert codes.count(0) >= 20 and codes.count(5) >= 10, codes


def test_dual_corpus_has_both_verdicts():
    cases = _cases(DUAL_DATA)
    for subject in ("boxtdi", "m2"):
        codes = [c["exit"] for c in cases if c["argv"][1] == subject]
        assert codes.count(0) >= 5 and codes.count(6) >= 5, (subject, codes)


def test_conjugate_corpus_covers_every_outcome():
    cases = _cases(CONJUGATE_DATA)
    runs = [r for c in cases for r in c["runs"]]
    forms = {c["phi"]["form"] for c in cases}
    assert forms == {"table", "quadratic", "vshape", "flat_bottom", "linear_plus",
                     "shifted", "restricted", "sum_of"}
    assert {r["exit"] for r in runs} == {0, 4}
    assert sum('"+inf"' in r["stdout"] for r in runs) >= 100
    assert sum("no closed-form" in r["stderr"] for r in runs) >= 50
    assert any("nowhere finite" in r["stderr"] for r in runs)


def test_inverse_corpus_covers_every_outcome():
    cases = _cases(INVERSE_DATA)
    codes = [c["exit"] for c in cases]
    assert codes.count(0) >= 20 and codes.count(6) >= 5, codes
    assert any('"fitting":false' in c["stdout"] for c in cases)


def test_m2_corpus_covers_every_outcome():
    """Reports (the common bases bounded where a side of the box meet is
    infinite, some certified), unbounded common bases and empty meets, at
    every n = 2-5, and the motivating pair."""
    cases = _cases(M2_DATA)
    kinds = {("report" if '"report"' in c["stdout"] else "unbounded" if "unbounded" in c["stdout"]
              else "empty", json.loads(c["argv"][3])["p1"]["n"], c["exit"]) for c in cases}
    assert {k for k, _, _ in kinds} == {"report", "unbounded", "empty"}
    assert {n for _, n, _ in kinds} == {2, 3, 4, 5}
    assert {("report", 0), ("unbounded", 6), ("empty", 2)} <= {(k, code) for k, _, code in kinds}
    pair = dict(zip(("p1", "p2"), motivating_m2_pair()))
    assert any(json.loads(c["argv"][3]) == pair for c in cases)


@pytest.mark.parametrize("case", _cases(DATA), ids=lambda c: " ".join(c["argv"][:2]))
def test_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(PROBE_DATA), ids=lambda c: c["argv"][0])
def test_probe_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(DUAL_DATA), ids=lambda c: " ".join(c["argv"][:2]))
def test_dual_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(INVERSE_DATA), ids=lambda c: c["argv"][0])
def test_inverse_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(M2_DATA), ids=lambda c: " ".join(c["argv"][:2]))
def test_m2_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(CONJUGATE_DATA), ids=lambda c: c["phi"]["form"])
def test_conjugate_output_is_unchanged(case):
    for run in case["runs"]:
        argv = conjugate_argv(case["phi"], run["ell"], run["closed"])
        assert capture_all(argv) == (run["stdout"], run["stderr"], run["exit"]), argv
    win = default_z_window(cj.SeparableConvex((("e", cj.from_json(case["phi"])),)))
    assert [win.lo[0], win.hi[0]] == case["z_window"]


if __name__ == "__main__":
    for name in sys.argv[1:] or GOLDEN:
        path, build = GOLDEN[name]
        cases = build()
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
        print(f"{len(cases)} cases written to {path}")
