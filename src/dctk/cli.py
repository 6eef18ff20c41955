"""Command-line front end.

Subcommands: conjugate, minimize {mconvex,m2,flow,boxtdi}, certify
{mconvex,flow}, inverse, probe, selftest.  All instance-bearing flags
accept either inline JSON or a path to a JSON file.  Output is
canonical JSON (sorted keys, compact separators, no floats); exit codes
are 0 ok, 2 infeasible, 3 unbounded, 4 invalid input, 5 criteria
violated, 6 inconclusive (a search that stopped without a proof, or
primal and dual values differ).  The parser is built once per process,
on the first run(); each leaf command carries its handler.  run() parses
argv at the leaf its first words name, and prints every outcome, success
or failure, from one place.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence, Tuple

from . import conjugate as cj
from . import fixtures, inverse, mconvex, netflow, polyhedron, ratlin
from .errors import (
    CriteriaViolated,
    DctkError,
    Inconclusive,
    Infeasible,
    NotFeasible,
    Unbounded,
    ValueMismatch,
    require,
)
from .extint import is_finite
from .extint import to_json as ext_json

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INVALID = 4
EXIT_CRITERIA = 5
EXIT_INCONCLUSIVE = 6

Outcome = Tuple[dict, int]  # (payload to print, exit code)


def _load_json(arg: str):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _int_vector(flag: str, arg: str, keys: Optional[Sequence[str]] = None) -> Tuple[int, ...]:
    """The integer vector that `flag` gives as a JSON list, or as an
    object read in the order of `keys` where those are given."""
    v = _load_json(arg)
    if keys is not None and isinstance(v, dict):
        v = [require(v, k, f"{flag}: missing node") for k in keys]
    if not isinstance(v, list) or any(type(x) is not int for x in v):
        raise ValueError(f"{flag} must be a list of integers, got {json.dumps(v)}")
    return tuple(v)


def _parse_range(flag: str, spec: str) -> Tuple[int, int]:
    """The range `flag` gives as 'LO..HI' or '±K'/'K' (symmetric); an empty one is refused."""
    s = spec.strip()
    try:
        if ".." in s:
            lo, hi = map(int, s.split("..", 1))
        else:
            hi = abs(int(s.lstrip("±+")))
            lo = -hi
    except ValueError:
        raise ValueError(f"{flag} must be LO..HI or ±K, got {spec!r}") from None
    if lo > hi:
        raise ValueError(f"{flag} {lo}..{hi} is empty")
    return lo, hi


def _emit(payload: dict, json_out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    print(text)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


@functools.cache
def _build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    """The whole tree and its leaf parsers by command path, such as
    ("minimize", "boxtdi"): built on the first run() of a process and
    reused, since parsing keeps no state in a parser between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out")
    ap = argparse.ArgumentParser(prog="dctk")
    sub = ap.add_subparsers(dest="verb", required=True)
    leaves = {}

    def leaf(parent, name, cmd, **kw):
        p = parent.add_parser(name, parents=[common], **kw)
        p.set_defaults(cmd=cmd)
        leaves[tuple(p.prog.split()[1:])] = p
        return p

    c = leaf(sub, "conjugate", _cmd_conjugate, help="evaluate a discrete conjugate")
    c.add_argument("--phi", required=True)
    c.add_argument("--ell", required=True, type=int)
    c.add_argument("--closed", action="store_true",
                   help="refuse tables and sums, whose argmax is a search (exit 4)")

    m = sub.add_parser("minimize", help="minimize a separable convex function")
    msub = m.add_subparsers(dest="subject", required=True)

    mm = leaf(msub, "mconvex", _cmd_mconvex)
    mm.add_argument("--instance", required=True)
    mm.add_argument("--phi", required=True)

    m2 = leaf(msub, "m2", _cmd_minimize_m2)
    m2.add_argument("--instance", required=True)
    m2.add_argument("--phi", required=True)
    m2.add_argument("--w-window", default="3")

    mf = leaf(msub, "flow", _cmd_minimize_flow)
    mf.add_argument("--instance", required=True)

    mb = leaf(msub, "boxtdi", _cmd_minimize_boxtdi)
    mb.add_argument("--instance", required=True)
    mb.add_argument("--phi", required=True)
    mb.add_argument("--window", required=True)
    mb.add_argument("--y-bound", type=int, default=6)

    ce = sub.add_parser("certify", help="verify a primal/dual pair")
    csub = ce.add_subparsers(dest="subject", required=True)

    cm = leaf(csub, "mconvex", _cmd_certify_mconvex)
    cm.add_argument("--instance", required=True)
    cm.add_argument("--phi", required=True)
    cm.add_argument("--point", required=True)
    cm.add_argument("--weights")

    cf = leaf(csub, "flow", _cmd_certify_flow)
    cf.add_argument("--instance", required=True)
    cf.add_argument("--flow", required=True)
    cf.add_argument("--potential", required=True)

    iv = leaf(sub, "inverse", _cmd_inverse, help="inverse optimization")
    iv.add_argument("--system", required=True)
    iv.add_argument("--target", action="append", required=True)
    iv.add_argument("--deviation", required=True)
    iv.add_argument("--w-window", default="6")

    pr = leaf(sub, "probe", _cmd_probe, help="box-integrality probe")
    pr.add_argument("--system", required=True)
    pr.add_argument("--window", required=True)

    st = leaf(sub, "selftest", _cmd_selftest, help="run the bundled fixture corpus")
    st.add_argument("--seed", type=int, default=1)

    return ap, leaves


def _verdict(payload: dict, equal: bool) -> Outcome:
    """OK (exit 0) when primal and dual values agree, else INCONCLUSIVE."""
    status, code = ("OK", EXIT_OK) if equal else ("INCONCLUSIVE", EXIT_INCONCLUSIVE)
    return {"status": status, **payload}, code


def _cmd_mconvex(args, point: Optional[str] = None, weights: Optional[str] = None) -> Outcome:
    """minimize mconvex: verify the descent's minimizer and certificate;
    certify mconvex: a point with weights (by default the slope certificate)."""
    p = mconvex.SupermodularFn.from_json(_load_json(args.instance))
    Phi = cj.separable_from_json(_load_json(args.phi), p.elements)
    if point is None:
        z, w = mconvex.minimize_separable(p, Phi)
    else:
        z = _int_vector("--point", point)
        if len(z) != p.n:
            raise ValueError(f"--point needs {p.n} entries, got {len(z)}")
        w = _int_vector("--weights", weights) if weights else mconvex.dual_certificate(p, Phi, z)
    report = mconvex.verify_mconvex_optimality(p, Phi, z, w)
    return _verdict({"report": report.to_json()}, report.equality)


def _cmd_conjugate(args) -> Outcome:
    phi = cj.from_json(_load_json(args.phi))
    value = (cj.conjugate_closed if args.closed else cj.conjugate_eval)(phi, args.ell)
    return {"status": "OK", "value": ext_json(value)}, EXIT_OK


def _cmd_minimize_m2(args) -> Outcome:
    obj = _load_json(args.instance)
    p1, p2 = (mconvex.SupermodularFn.from_json(require(obj, k, "m2 instance: missing")) for k in ("p1", "p2"))
    Phi = cj.separable_from_json(_load_json(args.phi), p1.elements)
    lo, hi = _parse_range("--w-window", args.w_window)
    if lo != -hi:
        raise ValueError(f"--w-window {lo}..{hi}: the split window is ±K, such as ±{max(-lo, hi)}")
    report = mconvex.m2_minimize_and_split(p1, p2, Phi, w_bound=hi)
    if report.dual_witness is not None:
        # OK rests on the split's value computed here: phat1(w1) + phat2(w2) - conj(Phi)(w1 + w2).
        w1, w2 = report.dual_witness
        report.dual_value = (mconvex.lovasz_extension(p1, w1) + mconvex.lovasz_extension(p2, w2)
                             - Phi.conjugate([a + b for a, b in zip(w1, w2)]))
        report.equality = report.primal_value == report.dual_value
    return _verdict({"report": report.to_json()}, report.equality)


def _cmd_minimize_flow(args) -> Outcome:
    inst = netflow.FlowInstance.from_json(_load_json(args.instance))
    try:
        x, pi = netflow.optimal_potential(inst)
    except Infeasible as e:
        return {"status": "INFEASIBLE", "violating_set": list(e.violating_set)}, EXIT_INFEASIBLE
    value = inst.cost.value(x)
    dual = netflow.flow_dual_value(inst, pi)
    payload = {"flow": list(x), "value": ext_json(value), "potential": list(pi)}
    return _verdict({**payload, "dual_value": ext_json(dual)}, value == dual)


def _cmd_minimize_boxtdi(args) -> Outcome:
    sys_ = polyhedron.LinearSystem.from_json(_load_json(args.instance))
    Phi = cj.separable_from_json(_load_json(args.phi), sys_.elements)
    win = polyhedron.Window.uniform(sys_.n, *_parse_range("--window", args.window))
    primal = polyhedron.minimize_bruteforce(sys_, Phi, win)
    if not is_finite(primal.primal_value):
        # A window with no point proves nothing: only a system with no vertex is empty.
        if polyhedron.is_empty(sys_):
            return {"status": "INFEASIBLE", "window": win.to_json()}, EXIT_INFEASIBLE
        detail = ("the objective is infinite at every integer point in the window"
                  if next(polyhedron.enumerate_integer_points(sys_, win), None) is not None
                  else "no integer point in the window, but the system is not empty")
        payload = {"status": "INCONCLUSIVE", "window": win.to_json(), "detail": detail}
        return payload, EXIT_INCONCLUSIVE
    # The dual is read at the primal witness, passed by position: perfbench's
    # tracer hands keyword arguments on to its y-box counter, which takes no z.
    dual = polyhedron.dual_search_bruteforce(sys_, Phi, args.y_bound, primal.primal_witness)
    # OK rests on the witness's value computed here, y.p - conj(Phi)(yQ),
    # a lower bound on the primal for every sign-feasible y.
    y, dual_value = dual.dual_witness, dual.dual_value
    if y is not None:
        dual_value = y.times_p(sys_) - Phi.conjugate(y.times_q(sys_))
    equal = y is not None and y.is_sign_feasible(sys_) and primal.primal_value == dual_value
    report = polyhedron.MinMaxReport(
        primal_value=primal.primal_value,
        dual_value=dual_value,
        primal_witness=primal.primal_witness,
        dual_witness=dual.dual_witness,
        equality=equal,
        support_size=dual.support_size,
        bounds_used={**primal.bounds_used, **dual.bounds_used},
    )
    return _verdict({"report": report.to_json()}, equal)


def _cmd_certify_mconvex(args) -> Outcome:
    return _cmd_mconvex(args, args.point, args.weights)


def _cmd_certify_flow(args) -> Outcome:
    inst = netflow.FlowInstance.from_json(_load_json(args.instance))
    x = _int_vector("--flow", args.flow)
    pi = _int_vector("--potential", args.potential, inst.digraph.nodes)
    report = netflow.certify_flow(inst, x, pi)
    return _verdict({"report": report.to_json()}, report.equality)


def _cmd_inverse(args) -> Outcome:
    sys_ = polyhedron.LinearSystem.from_json(_load_json(args.system))
    targets = tuple(_int_vector("--target", t) for t in args.target)
    dev = cj.separable_from_json(_load_json(args.deviation), sys_.elements)
    cone = polyhedron.tangent_cone(sys_, *targets)
    w_win = polyhedron.Window.uniform(sys_.n, *_parse_range("--w-window", args.w_window))
    w_star, value = inverse.inverse_minimize(cone, dev, w_win)
    z_win = inverse.default_z_window(dev)
    dual = inverse.inverse_dual_search(cone, dev, z_win)
    z = dual.dual_witness
    payload = {
        "w_star": list(w_star),
        "value": ext_json(value),
        "dual_value": ext_json(dual.dual_value),
        "dual_witness": list(z) if z else None,
        "checks": {
            "orthogonal": None if z is None else ratlin.dot(w_star, z) == 0,
            "fitting": None if z is None else dev.first_unfit(w_star, z) is None,
        },
        "bounds_used": {"w_window": w_win.to_json(), "z_window": z_win.to_json()},
    }
    return _verdict(payload, value == dual.dual_value)


def _cmd_probe(args) -> Outcome:
    sys_ = polyhedron.LinearSystem.from_json(_load_json(args.system))
    win = polyhedron.Window.uniform(sys_.n, *_parse_range("--window", args.window))
    ok, witness = polyhedron.probe_box_integer(sys_, win)
    payload = {
        "status": "OK" if ok else "CRITERIA_VIOLATED",
        "box_integer": ok,
        "witness": None
        if witness is None
        else [f"{v.numerator}/{v.denominator}" if v.denominator != 1 else v.numerator
              for v in witness],
    }
    return payload, EXIT_OK if ok else EXIT_CRITERIA


def _cmd_selftest(args) -> Outcome:
    failures = run_selftest(args.seed)
    payload = {
        "status": "OK" if not failures else "CRITERIA_VIOLATED",
        "seed": args.seed,
        "failures": failures,
    }
    return payload, EXIT_OK if not failures else EXIT_CRITERIA


def run_selftest(seed: int = 1) -> list:
    """Equality checks over the named fixtures plus seeded random
    instances; returns a list of failure descriptions (empty = pass)."""
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    # Named fixtures.
    p2 = fixtures.p2()
    sq = cj.square_sum(p2.elements)
    z, w = mconvex.minimize_separable(p2, sq)
    check("p2-minimum", z == (1, 1) and sq.value(z) == 2)
    rep = mconvex.verify_mconvex_optimality(p2, sq, z, w)
    check("p2-certificate", rep.equality and w == (3, 3))
    rep2 = mconvex.m2_minimize_and_split(p2, fixtures.p2b(), sq, 3)
    check("p2-m2", rep2.equality and rep2.primal_value == 2)

    inst = fixtures.d2_instance()
    x, pi = netflow.optimal_potential(inst)
    check("d2-flow", x == (1, 1))
    try:
        netflow.certify_flow(inst, x, pi)
    except DctkError:
        failures.append("d2-certificate")

    sysP2 = fixtures.p2_system()
    ok, _ = polyhedron.probe_box_integer(sysP2, polyhedron.Window.uniform(2, 0, 2))
    check("p2-box-integer", ok)
    frac_ok, _ = polyhedron.probe_box_integer(
        polyhedron.dilation(fixtures.s3_system(), 2),
        polyhedron.Window.uniform(6, 0, 1),
    )
    check("s3-fractional-witness", not frac_ok)

    # Seeded random corpus.
    for seed_i in range(seed, seed + 32):
        p = fixtures.random_supermodular(seed_i, 2 + seed_i % 2)
        Phi = fixtures.random_separable(seed_i * 7 + 1, p.elements)
        z, w = mconvex.minimize_separable(p, Phi)
        brute = min(Phi.value(b) for b in mconvex.enumerate_bases(p))
        check(f"seed{seed_i}-descent", Phi.value(z) == brute)
        try:
            rep = mconvex.verify_mconvex_optimality(p, Phi, z, w)
            check(f"seed{seed_i}-equality", rep.equality)
        except DctkError:
            failures.append(f"seed{seed_i}-certificate")
    return failures


# A library error maps to the first row whose types it matches: the
# status printed, the exit code and how its detail is written.
_FAILURES = (
    (Infeasible, "INFEASIBLE", EXIT_INFEASIBLE, str),
    (NotFeasible, "CRITERIA_VIOLATED", EXIT_CRITERIA, str),
    (Unbounded, "UNBOUNDED", EXIT_UNBOUNDED, str),
    ((CriteriaViolated, ValueMismatch), "CRITERIA_VIOLATED", EXIT_CRITERIA,
     lambda e: repr(e.args)),
    (Inconclusive, "INCONCLUSIVE", EXIT_INCONCLUSIVE, str),
)


def _outcome(args) -> Outcome:
    try:
        return args.cmd(args)
    except DctkError as e:
        for types, status, code, detail in _FAILURES:
            if isinstance(e, types):
                return {"status": status, "detail": detail(e)}, code
        raise


def run(argv: Sequence[str]) -> int:
    """Parse argv at the leaf its first k words name (at the root if
    none), so the tree above it is not walked.  Leftover arguments are
    the root's error, as when the root parses all of argv."""
    root, leaves = _build_parser()
    k = next((k for k in (2, 1) if tuple(argv[:k]) in leaves), 0)
    try:
        args, extra = (leaves[tuple(argv[:k])] if k else root).parse_known_args(argv[k:])
        if extra:
            root.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    try:
        payload, code = _outcome(args)
        # Failure reports honour --json-out like any other payload.
        _emit(payload, args.json_out)
    except (DctkError, ValueError, KeyError, TypeError, OSError) as e:
        # Any other library error, bad input, or an unwritable --json-out.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
