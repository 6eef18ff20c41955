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
or a window with no integer point), so a change to how the integer dual
or the weight splitting is found that moves a value, a witness or a
status shows here.

Regenerate (only when a change of output is intended and recorded):
    PYTHONPATH=src python tests/test_golden.py [mconvex|probe|dual]
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
from dctk.extint import MINUS_INF, is_finite
from dctk.fixtures import random_supermodular, s3_system
from dctk.mconvex import SupermodularFn, enumerate_bases, greedy_min, member, minimize_separable, to_system
from dctk.polyhedron import dilation, enumerate_integer_points, vertex_hull_window

from helpers import (
    large_slope_objective,
    random_flow_embedding,
    random_integer_system,
    random_search_objective,
)

DIR = pathlib.Path(__file__).resolve().parent / "data"
DATA = DIR / "mconvex_golden.json"
PROBE_DATA = DIR / "probe_golden.json"
DUAL_DATA = DIR / "dual_golden.json"
SEED = 20201
COUNT = 20
PROBE_SEED = 20212
DUAL_SEED = 20213


def capture(argv):
    """(stdout, exit code) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return out.getvalue(), code


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
                best = list(minimize_separable(p, Phi))
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
            win = vertex_hull_window(d, pad)
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
            if next(enumerate_integer_points(system, vertex_hull_window(system, 1)), None):
                systems.append(system)
    systems.append(s3_system())
    ops = []
    for system in systems:
        win = vertex_hull_window(system, 1)
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


GOLDEN = {
    "mconvex": (DATA, build_ops),
    "probe": (PROBE_DATA, build_probe_ops),
    "dual": (DUAL_DATA, build_dual_ops),
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


@pytest.mark.parametrize("case", _cases(DATA), ids=lambda c: " ".join(c["argv"][:2]))
def test_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(PROBE_DATA), ids=lambda c: c["argv"][0])
def test_probe_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


@pytest.mark.parametrize("case", _cases(DUAL_DATA), ids=lambda c: " ".join(c["argv"][:2]))
def test_dual_output_is_unchanged(case):
    assert capture(case["argv"]) == (case["stdout"], case["exit"])


if __name__ == "__main__":
    for name in sys.argv[1:] or GOLDEN:
        path, build = GOLDEN[name]
        cases = []
        for argv in build():
            stdout, code = capture(argv)
            cases.append({"argv": argv, "stdout": stdout, "exit": code})
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
        print(f"{len(cases)} cases written to {path}")
