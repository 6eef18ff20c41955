"""Per-layer spans recorded from outside dctk.

The tracer replaces public dctk functions with timing wrappers in every
``dctk.*`` module namespace that binds the same object (``inverse``
imports ``lp_min`` by name, for example), keeps a stack of open calls
and records each span's name, start, end, parent and op id in memory.
Self time is a span's duration minus the time its child calls cover.

Hot leaf functions are not recorded one span per call: their calls,
time and counters are summed per parent span.  A function that a later
version of dctk no longer has is reported as absent.  Span times come
from ``perf_counter``, which costs far less per call than a CPU-time
clock; unlike the op times they include time stolen by the hypervisor.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPAN = "span"
LEAF = "leaf"

# (module, function, mode); leaves are called up to ~1e4 times per op.
TARGETS = (
    ("cli", "run", SPAN),
    ("mconvex", "minimize_separable", SPAN),
    ("mconvex", "member", LEAF),
    ("mconvex", "dual_certificate", SPAN),
    ("mconvex", "verify_mconvex_optimality", SPAN),
    ("mconvex", "m2_minimize_and_split", SPAN),
    ("mconvex", "lovasz_extension", LEAF),
    ("netflow", "min_convex_cost_flow", SPAN),
    ("netflow", "optimal_potential", SPAN),
    ("netflow", "hoffman_feasible", SPAN),
    ("conjugate", "conjugate_eval", LEAF),
    ("conjugate", "conjugate_closed", SPAN),
    ("polyhedron", "dual_search_bruteforce", SPAN),
    ("polyhedron", "mu_form_dual_search", SPAN),
    ("polyhedron", "minimize_bruteforce", SPAN),
    ("polyhedron", "verify_certificate", SPAN),
    ("polyhedron", "probe_box_integer", SPAN),
    ("polyhedron", "lp_min", LEAF),
    ("ratlin", "solve_unique", LEAF),
    ("ratlin", "null_space", LEAF),
    ("inverse", "inverse_minimize", SPAN),
    ("inverse", "inverse_dual_search", SPAN),
    ("inverse", "tangent_cone", SPAN),
)

# Per-layer metrics: (metric name, unit, layer, statistic).  Counts and
# times are per traced op; shares are over the layer's calls.
METRICS = (
    ("cli.run.calls", "count/op", "cli.run", "calls"),
    ("cli.run.self_s", "s/op", "cli.run", "self_s"),
    ("mconvex.minimize_separable.calls", "count/op", "mconvex.minimize_separable", "calls"),
    ("mconvex.minimize_separable.self_s", "s/op", "mconvex.minimize_separable", "self_s"),
    ("mconvex.member.calls", "count/op", "mconvex.member", "calls"),
    ("mconvex.member.total_s", "s/op", "mconvex.member", "total_s"),
    ("mconvex.dual_certificate.self_s", "s/op", "mconvex.dual_certificate", "self_s"),
    ("mconvex.verify_mconvex_optimality.self_s", "s/op", "mconvex.verify_mconvex_optimality", "self_s"),
    ("netflow.min_convex_cost_flow.calls", "count/op", "netflow.min_convex_cost_flow", "calls"),
    ("netflow.min_convex_cost_flow.self_s", "s/op", "netflow.min_convex_cost_flow", "self_s"),
    ("netflow.optimal_potential.self_s", "s/op", "netflow.optimal_potential", "self_s"),
    ("netflow.hoffman_feasible.self_s", "s/op", "netflow.hoffman_feasible", "self_s"),
    ("conjugate.conjugate_eval.calls", "count/op", "conjugate.conjugate_eval", "calls"),
    ("conjugate.conjugate_eval.self_s", "s/op", "conjugate.conjugate_eval", "self_s"),
    ("conjugate.conjugate_eval.repeat_share", "ratio", "conjugate.conjugate_eval", "repeat_share"),
    ("conjugate.conjugate_closed.calls", "count/op", "conjugate.conjugate_closed", "calls"),
    ("conjugate.conjugate_closed.self_s", "s/op", "conjugate.conjugate_closed", "self_s"),
    ("polyhedron.dual_search_bruteforce.calls", "count/op", "polyhedron.dual_search_bruteforce", "calls"),
    ("polyhedron.dual_search_bruteforce.self_s", "s/op", "polyhedron.dual_search_bruteforce", "self_s"),
    ("polyhedron.dual_search_bruteforce.vectors", "count/op", "polyhedron.dual_search_bruteforce", "work"),
    ("polyhedron.mu_form_dual_search.calls", "count/op", "polyhedron.mu_form_dual_search", "calls"),
    ("polyhedron.mu_form_dual_search.self_s", "s/op", "polyhedron.mu_form_dual_search", "self_s"),
    ("polyhedron.mu_form_dual_search.points", "count/op", "polyhedron.mu_form_dual_search", "work"),
    ("polyhedron.minimize_bruteforce.calls", "count/op", "polyhedron.minimize_bruteforce", "calls"),
    ("polyhedron.minimize_bruteforce.self_s", "s/op", "polyhedron.minimize_bruteforce", "self_s"),
    ("polyhedron.minimize_bruteforce.points", "count/op", "polyhedron.minimize_bruteforce", "work"),
    ("polyhedron.verify_certificate.self_s", "s/op", "polyhedron.verify_certificate", "self_s"),
    ("mconvex.m2_minimize_and_split.calls", "count/op", "mconvex.m2_minimize_and_split", "calls"),
    ("mconvex.m2_minimize_and_split.self_s", "s/op", "mconvex.m2_minimize_and_split", "self_s"),
    ("mconvex.lovasz_extension.calls", "count/op", "mconvex.lovasz_extension", "calls"),
    ("ratlin.solve_unique.calls", "count/op", "ratlin.solve_unique", "calls"),
    ("ratlin.solve_unique.total_s", "s/op", "ratlin.solve_unique", "total_s"),
    ("ratlin.solve_unique.singular_share", "ratio", "ratlin.solve_unique", "singular_share"),
    ("ratlin.null_space.calls", "count/op", "ratlin.null_space", "calls"),
    ("ratlin.null_space.total_s", "s/op", "ratlin.null_space", "total_s"),
    ("polyhedron.probe_box_integer.calls", "count/op", "polyhedron.probe_box_integer", "calls"),
    ("polyhedron.probe_box_integer.self_s", "s/op", "polyhedron.probe_box_integer", "self_s"),
    ("polyhedron.lp_min.calls", "count/op", "polyhedron.lp_min", "calls"),
    ("polyhedron.lp_min.cold_calls", "count/op", "polyhedron.lp_min", "cold_calls"),
    ("polyhedron.lp_min.cold_s", "s/op", "polyhedron.lp_min", "cold_s"),
    ("polyhedron.lp_min.warm_s", "s/op", "polyhedron.lp_min", "warm_s"),
    ("inverse.inverse_minimize.calls", "count/op", "inverse.inverse_minimize", "calls"),
    ("inverse.inverse_minimize.self_s", "s/op", "inverse.inverse_minimize", "self_s"),
    ("inverse.inverse_dual_search.self_s", "s/op", "inverse.inverse_dual_search", "self_s"),
    ("inverse.tangent_cone.self_s", "s/op", "inverse.tangent_cone", "self_s"),
)


def _window_points(win) -> int:
    total = 1
    for lo, hi in zip(win.lo, win.hi):
        total *= hi - lo + 1
    return total


def _dual_vectors(system, y_bound=6) -> int:
    total = 1
    for row in system.rows:
        total *= y_bound + 1 if row.kind == "geq" else 2 * y_bound + 1
    return total


# Work counted from a call's arguments: the size of the scanned set.
WORK = {
    "polyhedron.dual_search_bruteforce": lambda a, k: _dual_vectors(a[0], *a[2:3], **k),
    "polyhedron.mu_form_dual_search": lambda a, k: _window_points(a[2] if len(a) > 2 else k["w_window"]),
    "polyhedron.minimize_bruteforce": lambda a, k: _window_points(a[2] if len(a) > 2 else k["win"]),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "work", "repeats", "singular", "cold_calls", "cold_s")

    def __init__(self):
        self.calls = self.work = self.repeats = self.singular = self.cold_calls = 0
        self.total_s = self.self_s = self.cold_s = 0.0


class Tracer:
    """Call :meth:`install` once, then :meth:`begin_op` before each traced
    op and :meth:`end_op` after it."""

    def __init__(self):
        self.stack = []          # open calls: [start, child_time, span id]
        self.spans = []          # (id, name, start, end, parent id, op id, self_s)
        self.leaves = defaultdict(Stat)   # (parent span id, name) -> Stat
        self.extra = defaultdict(Stat)    # name -> counters beside the spans
        self.absent = []
        self.op_id = -1
        self.ops = 0
        self._next_id = 0
        self._seen_ell = set()   # (phi, ell) already conjugated in this op
        self._lp_systems = {}    # id -> system already given to lp_min in this op
        self._patched = []

    # -- installation ---------------------------------------------------
    def install(self):
        """Find every binding of each target and build its wrapper.  The
        wrappers are bound only between begin_op and end_op, so that
        untraced runs execute dctk unchanged."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dctk" or name.startswith("dctk."))]
        for modname, fname, mode in TARGETS:
            name = f"{modname}.{fname}"
            owner = sys.modules.get(f"dctk.{modname}")
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, mode)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, attr, orig, wrapper))

    def _bind(self, wrapped: bool):
        for m, attr, orig, wrapper in self._patched:
            setattr(m, attr, wrapper if wrapped else orig)

    def _new_id(self):
        self._next_id += 1
        return self._next_id - 1

    def begin_op(self, op_id):
        self.op_id = op_id
        self.ops += 1
        self._seen_ell.clear()
        self._lp_systems.clear()
        self._bind(True)
        self.stack.append([perf_counter(), 0.0, self._new_id()])

    def end_op(self):
        start, child, span_id = self.stack.pop()
        end = perf_counter()
        self._bind(False)
        self.spans.append((span_id, "op", start, end, None, self.op_id, end - start - child))
        self._lp_systems.clear()

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, fn, mode):
        stack, spans, leaves, extra = self.stack, self.spans, self.leaves, self.extra
        tracer = self
        work = WORK.get(name)
        hook = {"conjugate.conjugate_eval": self._conjugate_hook,
                "ratlin.solve_unique": self._solve_hook,
                "polyhedron.lp_min": self._lp_hook}.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else None
            # A leaf's frame carries its parent's id, so that calls
            # nested in a leaf are summed under the same span.
            frame = [0.0, 0.0, tracer._new_id() if mode == SPAN else parent_id]
            stack.append(frame)
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                if mode == SPAN:
                    spans.append((frame[2], name, start, end, parent_id, tracer.op_id, dur - frame[1]))
                else:
                    st = leaves[(parent_id, name)]
                    st.calls += 1
                    st.total_s += dur
                    st.self_s += dur - frame[1]
            try:
                if work is not None:
                    extra[name].work += work(args, kwargs)
                if hook is not None:
                    hook(args, result, dur)
            except (TypeError, AttributeError, IndexError, KeyError):
                pass  # a changed signature loses the counter, not the run
            return result

        traced.__wrapped__ = fn
        return traced

    def _conjugate_hook(self, args, result, dur):
        key = (args[0], args[1])
        if key in self._seen_ell:
            self.extra["conjugate.conjugate_eval"].repeats += 1
        else:
            self._seen_ell.add(key)

    def _solve_hook(self, args, result, dur):
        if result is None:
            self.extra["ratlin.solve_unique"].singular += 1

    def _lp_hook(self, args, result, dur):
        """The first lp_min call on a system object is its cold call."""
        system = args[0]
        if id(system) not in self._lp_systems:
            self._lp_systems[id(system)] = system
            st = self.extra["polyhedron.lp_min"]
            st.cold_calls += 1
            st.cold_s += dur

    # -- summary ------------------------------------------------------------
    def stats(self):
        """name -> Stat summed over all spans and leaf aggregates."""
        out = defaultdict(Stat)
        for _, name, start, end, _, _, self_s in self.spans:
            st = out[name]
            st.calls += 1
            st.total_s += end - start
            st.self_s += self_s
        for (_, name), agg in self.leaves.items():
            st = out[name]
            st.calls += agg.calls
            st.total_s += agg.total_s
            st.self_s += agg.self_s
        for name, ex in self.extra.items():
            st = out[name]
            st.work, st.repeats, st.singular = ex.work, ex.repeats, ex.singular
            st.cold_calls, st.cold_s = ex.cold_calls, ex.cold_s
        return out

    def metrics(self, overhead_s_per_op):
        """The per-layer metrics, per traced op."""
        stats = self.stats()
        ops = max(self.ops, 1)
        out = {}
        for metric, unit, layer, stat in METRICS:
            st = stats.get(layer, Stat())
            if stat == "repeat_share":
                v = st.repeats / st.calls if st.calls else 0.0
            elif stat == "singular_share":
                v = st.singular / st.calls if st.calls else 0.0
            elif stat == "warm_s":
                v = (st.total_s - st.cold_s) / ops
            else:
                v = getattr(st, stat) / ops
            out[metric] = (v, unit)
        out["trace.overhead_s"] = (overhead_s_per_op, "s/op")
        out["trace.spans"] = (len(self.spans) / ops, "count/op")
        return out
