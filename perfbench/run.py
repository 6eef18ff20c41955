"""The dctk benchmark: one workload, run in a closed loop and checked.

Run from the repository root (dctk is imported from ``src/``):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client in one process and one thread sends the workload's ops, each
only after the previous one returned.  The ops of a pass form a deck,
shuffled (from the seed) for every pass, and only whole passes are
measured: another starts while it is expected to end within half a pass
of ``--seconds`` of wall time.  Inputs for a pass are built before it
starts, and its answers are checked against the oracle after it ends.

Times are the process's CPU time (``time.process_time``).  The loop is
single-threaded and does no I/O, so an op's CPU time is its wall time
less the time the hypervisor stole from the virtual CPU; on a shared
2-CPU machine that steal comes in bursts that add up to 75 % to a
wall-clock pass and say nothing about dctk.  The wall time and the
steal of each run are printed beside the metrics.

CPU time is not steady either.  On a 2-vCPU Intel Xeon VM of a shared
host, the speed of the virtual CPU switches between states up to 1.8x
apart, for seconds to minutes at a time: the measured median op of five
25-second inverse runs ranged from 113 to 198 ms.  A fixed pure-Python
reference loop is therefore timed in a burst of ``REF_BURST`` samples
before the first op and after every ``REF_EVERY_S`` of op time, which
cuts the run into segments.  Each op time (and each set-up time) is
scaled to the speed at which that loop takes ``REF_NOMINAL_S``: it is
multiplied by ``REF_NOMINAL_S`` over the median of the two bursts
around its segment.  The same five runs, scaled, ranged from 151 to
175 ms.  The reported times (``ops_per_s``, ``op_ms_*`` and
``setup_s``) come from the scaled times.  The reference is benchmark
code, so a change to dctk moves the scaled times as it moves the
measured ones; the measured values are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
op twice, untraced and traced in alternating order, and prints the
per-layer metrics from the traced runs plus the tracing overhead.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts the timed ops that failed, and
``correct`` is false when any did.

A certify run also executes ``workloads.defect_cases`` once, untimed,
after the loop: ops that hit dctk's known defects.  Each failing case is
listed with its reason above the result line; such a case counts in
neither ``attempted`` nor ``failed``, and makes ``correct`` false only
if it fails for another reason than its known defect.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7

# The reference loop: iterations, the time it is scaled to, the op CPU
# time between two bursts, and the samples in a burst.
REF_ITERATIONS = 15_000
REF_NOMINAL_S = 0.0015
REF_EVERY_S = 0.2
REF_BURST = 3


# ---------------------------------------------------------------------------
# Set-up


def import_dctk():
    """Import dctk afresh from the checkout's src/ (never from elsewhere)."""
    for name in [n for n in sys.modules if n == "dctk" or n.startswith("dctk.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"dctk.{name}") for name in ("cli", "polyhedron", "conjugate")}
    origin = Path(sys.modules["dctk"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dctk was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload, seed, ref):
    """(api, corpus, first deck, median scaled set-up seconds, median
    measured set-up seconds, sample count, corpus seconds).  Set-up is
    the dctk import: the one thing dctk does before the first op.
    Building the inputs is benchmark code whose cost depends on the seed
    (rejection sampling and base enumeration, 50-650 ms), so it is timed
    once and printed, not counted in set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        ref.sample()
        start = process_time()
        api = import_dctk()
        times.append((process_time() - start, ref.segment()))
    ref.sample()
    scaled = statistics.median(sec * ref.scale(seg) for sec, seg in times)
    measured = statistics.median(sec for sec, _ in times)
    start = process_time()
    corpus = workloads.corpus(workload, seed)
    first = corpus(0)
    return api, corpus, first, scaled, measured, len(times), process_time() - start


# ---------------------------------------------------------------------------
# Environment (read-only)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def reference_s():
    """CPU time of a fixed pure-Python loop: the machine's speed of the
    moment."""
    start = process_time()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return process_time() - start


class Reference:
    """Bursts of reference-loop samples taken between ops; segment i is
    the time between burst i and burst i + 1."""

    def __init__(self):
        self.bursts = []
        self.due = 0.0

    def sample(self):
        self.bursts.append([reference_s() for _ in range(REF_BURST)])

    def segment(self):
        return len(self.bursts) - 1

    def after_op(self, sec):
        self.due += sec
        if self.due >= REF_EVERY_S:
            self.due = 0.0
            self.sample()

    def scale(self, seg):
        """Factor from measured times in a closed segment to times at
        the nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.bursts[seg] + self.bursts[seg + 1])

    def samples(self):
        return [x for burst in self.bursts for x in burst]


def steal_ticks():
    """Cumulative steal time of all CPUs, in clock ticks, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Measurement


def execute(op, api):
    if op.argv is None:
        return op.call(api, op.spec)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = api.cli.run(op.argv)
    return rc, out.getvalue()


def timed(op, api):
    start = process_time()
    try:
        result = execute(op, api)
    except Exception as e:  # an op that raises is a failed op, not a crashed run
        result = e
    return process_time() - start, result


def run_passes(corpus, first, api, seconds, rng, ref, tracer=None):
    """Closed loop over whole shuffled decks.  Each pass's answers are
    checked when the pass ends, outside the op timings, and then let go,
    so memory does not grow with the number of passes.  Returns (times,
    failed, passes, wall seconds): times holds (op kind, CPU seconds,
    traced, segment) per execution and failed maps id(op) to (op, count,
    reason).  The reference loop is sampled between ops into `ref`, and
    the last segment is closed on return.
    """
    times, failed = [], {}
    passes = 0
    deck = first
    start = perf_counter()
    while True:
        order = list(deck)
        rng.shuffle(order)
        results = []
        for op in order:
            # With a tracer, each op runs untraced and traced, alternating
            # which goes first, so both see the same phase of the machine.
            modes = (False,) if tracer is None else (
                (False, True) if len(times) % 4 == 0 else (True, False))
            for traced in modes:
                if traced:
                    tracer.begin_op(len(times))
                    try:
                        sec, result = timed(op, api)
                    finally:
                        tracer.end_op()
                else:
                    sec, result = timed(op, api)
                times.append((op.kind, sec, traced, ref.segment()))
                results.append((op, result))
                ref.after_op(sec)
        check_pass(results, failed)
        passes += 1
        wall = perf_counter() - start
        if wall + 0.5 * wall / passes >= seconds:
            ref.sample()
            return times, failed, passes, wall
        deck = corpus(passes)


def tail_percentile(values):
    """(q, value, samples beyond): the highest of p90 and below, in whole
    percent, with at least ten samples beyond it (nearest rank)."""
    s = sorted(values)
    n = len(s)
    q = max(50, min(90, 100 * (n - 10) // n))
    rank = max(-(-q * n // 100), 1)
    return q, s[rank - 1], n - rank


def check_pass(results, failed):
    """Check (op, result) pairs, counting failures into `failed`."""
    memo = {}
    for op, result in results:
        key = (id(op), repr(result))
        if key not in memo:
            memo[key] = workloads.check(op, result)
        reason = memo[key]
        if reason is not None:
            _, count, _ = failed.get(id(op), (op, 0, reason))
            failed[id(op)] = (op, count + 1, reason)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    steal0 = steal_ticks()
    ref = Reference()
    try:
        api, corpus, first, setup_s, setup_measured, setup_n, corpus_s = set_up(
            args.workload, args.seed, ref)
    except ImportError as e:
        print(f"error: cannot import dctk from {SRC}: {e}", file=sys.stderr)
        return 2
    # The set-up objects live to the end; freezing them keeps the
    # collections that ops trigger from scanning them.
    gc.collect()
    gc.freeze()

    rng = random.Random(f"order/{args.workload}/{args.seed}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    times, failed, passes, wall = run_passes(corpus, first, api, args.seconds, rng, ref, tracer)
    steal1 = steal_ticks()
    defects = [(op, workloads.check(op, timed(op, api)[1]))
               for op in (workloads.defect_cases(args.seed) if args.workload == "certify" else [])]

    failed = list(failed.values())
    attempted = len(times)
    n_failed = sum(count for _, count, _ in failed)
    unexpected = failed or [op for op, reason in defects
                            if reason is not None and workloads.known_defect(op, reason) is None]

    untraced = [t for t in times if not t[2]]
    op_s = sum(t[1] for t in untraced)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {passes} passes of "
          f"{len(first)} ops, {op_s:.3f} s op CPU time, {wall:.3f} s wall, "
          f"{corpus_s:.3f} s to build the first pass's inputs")
    load = os.getloadavg()
    steal = ("unknown" if steal0 is None or steal1 is None
             else f"{(steal1 - steal0) / os.sysconf('SC_CLK_TCK'):.2f} s")
    print(f"env python {sys.version.split()[0]}, nproc {len(os.sched_getaffinity(0))}, "
          f"cpu {cpu_model()!r}, loadavg {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}, "
          f"steal {steal} (all CPUs, over the run)")
    samples = ref.samples()
    ref_q = statistics.quantiles(samples, n=4)
    print(f"reference loop: median {statistics.median(samples) * 1000:.4f} ms (quartiles "
          f"{ref_q[0] * 1000:.4f} / {ref_q[2] * 1000:.4f}, n={len(samples)} in {len(ref.bursts)} "
          f"bursts), nominal {REF_NOMINAL_S * 1000:g} ms")
    for op, count, reason in failed:
        print(f"FAILED {op.kind} [{op.label}] in {count} runs: {reason}")
    print(f"error_rate {n_failed / attempted:.6g} ratio ({n_failed}/{attempted})")
    if defects:
        hit = [(op, reason) for op, reason in defects if reason is not None]
        print(f"known-defect cases (untimed): {len(hit)} of {len(defects)} fail")
        for op, reason in hit:
            label = workloads.known_defect(op, reason)
            tag = f"known defect {label}" if label else "UNEXPECTED"
            print(f"  {tag}: {op.kind} [{op.label}] {reason}")

    if args.trace:
        traced = [t for t in times if t[2]]
        overhead = (sum(t[1] for t in traced) - op_s) / max(len(traced), 1)
        metrics = tracer.metrics(overhead)
        for name in tracer.absent:
            print(f"layer absent: {name}")
        print(f"traced ops {len(traced)}, spans {len(tracer.spans)}")
        for name, (v, unit) in metrics.items():
            print(f"{name} {v:.6g} {unit}")
    else:
        ms = [t[1] * 1000 for t in untraced]
        scaled = [t[1] * 1000 * ref.scale(t[3]) for t in untraced]
        q, tail, beyond = tail_percentile(ms)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = {
            "ops_per_s": len(ms) / op_s,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": tail,
            "setup_s": setup_measured,
        }
        metrics = {
            "ops_per_s": (len(scaled) * 1000 / sum(scaled), "1/s"),
            "op_ms_p50": (statistics.median(scaled), "ms"),
            "op_ms_p90": (tail_percentile(scaled)[1], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        counts = {"ops_per_s": f"n={len(ms)} ops in {passes} passes", "op_ms_p50": f"n={len(ms)}",
                  "op_ms_p90": f"p{q}, n={len(ms)}, {beyond} beyond",
                  "setup_s": f"median of n={setup_n}", "peak_rss_mb": "n=1"}
        for name, (v, unit) in metrics.items():
            raw = f", measured {measured[name]:.6g}" if name in measured else ""
            print(f"{name} {v:.6g} {unit} ({counts[name]}{raw})")
        by_kind = {}
        for kind, sec, _, _ in untraced:
            by_kind.setdefault(kind, []).append(sec * 1000)
        for kind, v in sorted(by_kind.items()):
            print(f"  {kind}: n={len(v)} p50 {statistics.median(v):.3f} ms max {max(v):.3f} ms")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
