"""Command-line front end.

Subcommands: conjugate, minimize {mconvex,m2,flow,boxtdi}, certify
{mconvex,flow}, inverse, probe, selftest.  All instance-bearing flags
accept either inline JSON or a path to a JSON file.  Output is
canonical JSON (sorted keys, compact separators, no floats); exit codes
are 0 ok, 2 infeasible, 3 unbounded, 4 invalid input, 5 criteria
violated, 6 inconclusive (bounded search exhausted, or primal and
dual values differ).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, Tuple

from . import conjugate as cj
from . import fixtures, inverse, mconvex, netflow, polyhedron
from .errors import (
    CriteriaViolated,
    DctkError,
    Infeasible,
    IterationLimit,
    NoFeasibleWeight,
    NotFeasible,
    NotPrimalFeasible,
    NotSignFeasible,
    Unbounded,
    ValueMismatch,
)
from .extint import PLUS_INF, is_finite
from .extint import to_json as ext_json

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INVALID = 4
EXIT_CRITERIA = 5
EXIT_INCONCLUSIVE = 6


def _load_json(arg: str):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_range(spec: str) -> Tuple[int, int]:
    """'LO..HI' or '±K'/'K' (symmetric)."""
    s = spec.strip()
    if ".." in s:
        lo, hi = s.split("..", 1)
        return int(lo), int(hi)
    s = s.lstrip("±+")
    k = int(s)
    return -abs(k), abs(k)


def _emit(payload: dict, json_out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    print(text)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dctk")
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("conjugate", help="evaluate a discrete conjugate")
    c.add_argument("--phi", required=True)
    c.add_argument("--ell", required=True, type=int)
    c.add_argument("--closed", action="store_true")
    c.add_argument("--json-out")

    m = sub.add_parser("minimize", help="minimize a separable convex function")
    msub = m.add_subparsers(dest="subject", required=True)

    mm = msub.add_parser("mconvex")
    mm.add_argument("--instance", required=True)
    mm.add_argument("--phi", required=True)
    mm.add_argument("--json-out")

    m2 = msub.add_parser("m2")
    m2.add_argument("--instance", required=True)
    m2.add_argument("--phi", required=True)
    m2.add_argument("--w-window", default="3")
    m2.add_argument("--json-out")

    mf = msub.add_parser("flow")
    mf.add_argument("--instance", required=True)
    mf.add_argument("--json-out")

    mb = msub.add_parser("boxtdi")
    mb.add_argument("--instance", required=True)
    mb.add_argument("--phi", required=True)
    mb.add_argument("--window", required=True)
    mb.add_argument("--y-bound", type=int, default=6)
    mb.add_argument("--json-out")

    ce = sub.add_parser("certify", help="verify a primal/dual pair")
    csub = ce.add_subparsers(dest="subject", required=True)

    cm = csub.add_parser("mconvex")
    cm.add_argument("--instance", required=True)
    cm.add_argument("--phi", required=True)
    cm.add_argument("--point", required=True)
    cm.add_argument("--weights")
    cm.add_argument("--json-out")

    cf = csub.add_parser("flow")
    cf.add_argument("--instance", required=True)
    cf.add_argument("--flow", required=True)
    cf.add_argument("--potential", required=True)
    cf.add_argument("--json-out")

    iv = sub.add_parser("inverse", help="inverse optimization")
    iv.add_argument("--system", required=True)
    iv.add_argument("--target", action="append", required=True)
    iv.add_argument("--deviation", required=True)
    iv.add_argument("--w-window", default="6")
    iv.add_argument("--json-out")

    pr = sub.add_parser("probe", help="box-integrality probe")
    pr.add_argument("--system", required=True)
    pr.add_argument("--window", required=True)
    pr.add_argument("--json-out")

    st = sub.add_parser("selftest", help="run the bundled fixture corpus")
    st.add_argument("--seed", type=int, default=1)
    st.add_argument("--json-out")

    return ap


def _cmd_conjugate(args) -> int:
    phi = cj.from_json(_load_json(args.phi))
    if args.closed:
        value = cj.conjugate_closed(phi, args.ell)
    else:
        value = cj.conjugate_eval(phi, args.ell)
    _emit({"status": "OK", "value": ext_json(value)}, args.json_out)
    return EXIT_OK


def _cmd_minimize_mconvex(args) -> int:
    p = mconvex.SupermodularFn.from_json(_load_json(args.instance))
    Phi = cj.separable_from_json(_load_json(args.phi), p.elements)
    z = mconvex.minimize_separable(p, Phi)
    w, notes = mconvex.dual_certificate(p, Phi, z)
    report = mconvex.verify_mconvex_optimality(p, Phi, z, w)
    report.notes = report.notes + notes
    _emit({"status": "OK", "report": report.to_json()}, args.json_out)
    return EXIT_OK if report.equality else EXIT_INCONCLUSIVE


def _cmd_minimize_m2(args) -> int:
    obj = _load_json(args.instance)
    p1 = mconvex.SupermodularFn.from_json(obj["p1"])
    p2 = mconvex.SupermodularFn.from_json(obj["p2"])
    Phi = cj.separable_from_json(_load_json(args.phi), p1.elements)
    lo, hi = _parse_range(args.w_window)
    report = mconvex.m2_minimize_and_split(p1, p2, Phi, w_bound=max(abs(lo), abs(hi)))
    _emit({"status": "OK", "report": report.to_json()}, args.json_out)
    return EXIT_OK if report.equality else EXIT_INCONCLUSIVE


def _cmd_minimize_flow(args) -> int:
    inst = netflow.FlowInstance.from_json(_load_json(args.instance))
    try:
        x, pi = netflow.optimal_potential(inst)
    except Infeasible as e:
        _emit(
            {"status": "INFEASIBLE", "violating_set": list(e.violating_set)},
            args.json_out,
        )
        return EXIT_INFEASIBLE
    value = inst.cost.value(x)
    dual = netflow.flow_dual_value(inst, pi)
    equal = value == dual
    payload = {
        "status": "OK" if equal else "INCONCLUSIVE",
        "flow": list(x),
        "value": ext_json(value),
        "potential": list(pi),
        "dual_value": ext_json(dual),
    }
    _emit(payload, args.json_out)
    return EXIT_OK if equal else EXIT_INCONCLUSIVE


def _cmd_minimize_boxtdi(args) -> int:
    sys_ = polyhedron.LinearSystem.from_json(_load_json(args.instance))
    Phi = cj.separable_from_json(_load_json(args.phi), sys_.elements)
    lo, hi = _parse_range(args.window)
    win = polyhedron.Window.uniform(sys_.n, lo, hi)
    primal = polyhedron.minimize_bruteforce(sys_, Phi, win)
    dual = polyhedron.dual_search_bruteforce(sys_, Phi, args.y_bound)
    if not is_finite(primal.primal_value):
        # Only an exact LP with no vertex proves the system empty.
        if polyhedron.lp_min(sys_, (0,) * sys_.n)[0] is PLUS_INF:
            _emit({"status": "INFEASIBLE", "window": win.to_json()}, args.json_out)
            return EXIT_INFEASIBLE
        detail = "no integer point in the window, but the system is not empty"
        _emit({"status": "INCONCLUSIVE", "window": win.to_json(), "detail": detail}, args.json_out)
        return EXIT_INCONCLUSIVE
    equal = primal.primal_value == dual.dual_value
    report = polyhedron.MinMaxReport(
        primal_value=primal.primal_value,
        dual_value=dual.dual_value,
        primal_witness=primal.primal_witness,
        dual_witness=dual.dual_witness,
        equality=equal,
        support_size=dual.support_size,
        bounds_used={**primal.bounds_used, **dual.bounds_used},
    )
    _emit(
        {"status": "OK" if equal else "INCONCLUSIVE", "report": report.to_json()},
        args.json_out,
    )
    return EXIT_OK if equal else EXIT_INCONCLUSIVE


def _cmd_certify_mconvex(args) -> int:
    p = mconvex.SupermodularFn.from_json(_load_json(args.instance))
    Phi = cj.separable_from_json(_load_json(args.phi), p.elements)
    z = tuple(_load_json(args.point))
    if args.weights:
        w = tuple(_load_json(args.weights))
        notes: Tuple[str, ...] = ()
    else:
        w, notes = mconvex.dual_certificate(p, Phi, z)
    report = mconvex.verify_mconvex_optimality(p, Phi, z, w)
    report.notes = report.notes + notes
    _emit({"status": "OK", "report": report.to_json()}, args.json_out)
    return EXIT_OK if report.equality else EXIT_INCONCLUSIVE


def _cmd_certify_flow(args) -> int:
    inst = netflow.FlowInstance.from_json(_load_json(args.instance))
    x = tuple(_load_json(args.flow))
    pi_obj = _load_json(args.potential)
    if isinstance(pi_obj, dict):
        pi = tuple(pi_obj[v] for v in inst.digraph.nodes)
    else:
        pi = tuple(pi_obj)
    report = netflow.certify_flow(inst, x, pi)
    _emit({"status": "OK", "report": report.to_json()}, args.json_out)
    return EXIT_OK


def _cmd_inverse(args) -> int:
    sys_ = polyhedron.LinearSystem.from_json(_load_json(args.system))
    targets = tuple(tuple(_load_json(t)) for t in args.target)
    dev = cj.separable_from_json(_load_json(args.deviation), sys_.elements)
    inst = inverse.InverseInstance(sys_, targets, dev)
    lo, hi = _parse_range(args.w_window)
    w_win = polyhedron.Window.uniform(sys_.n, lo, hi)
    w_star, value = inverse.inverse_minimize(inst, w_win)
    z_win = inverse.default_z_window(dev)
    dual = inverse.inverse_dual_search(inst.cone, dev, z_win, w_star)
    equal = value == dual.dual_value
    payload = {
        "status": "OK" if equal else "INCONCLUSIVE",
        "w_star": list(w_star),
        "value": ext_json(value),
        "dual_value": ext_json(dual.dual_value),
        "dual_witness": list(dual.dual_witness) if dual.dual_witness else None,
        "checks": {
            "orthogonal": dual.bounds_used.get("orthogonal"),
            "fitting": dual.bounds_used.get("fitting"),
        },
        "bounds_used": {"w_window": w_win.to_json(), "z_window": z_win.to_json()},
    }
    _emit(payload, args.json_out)
    return EXIT_OK if equal else EXIT_INCONCLUSIVE


def _cmd_probe(args) -> int:
    sys_ = polyhedron.LinearSystem.from_json(_load_json(args.system))
    lo, hi = _parse_range(args.window)
    win = polyhedron.Window.uniform(sys_.n, lo, hi)
    ok, witness = polyhedron.probe_box_integer(sys_, win)
    payload = {
        "status": "OK" if ok else "CRITERIA_VIOLATED",
        "box_integer": ok,
        "witness": None
        if witness is None
        else [f"{v.numerator}/{v.denominator}" if v.denominator != 1 else v.numerator
              for v in witness],
    }
    _emit(payload, args.json_out)
    return EXIT_OK if ok else EXIT_CRITERIA


def _cmd_selftest(args) -> int:
    failures = run_selftest(args.seed)
    payload = {
        "status": "OK" if not failures else "CRITERIA_VIOLATED",
        "seed": args.seed,
        "failures": failures,
    }
    _emit(payload, args.json_out)
    return EXIT_OK if not failures else EXIT_CRITERIA


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
    z = mconvex.minimize_separable(p2, sq)
    check("p2-minimum", z == (1, 1) and sq.value(z) == 2)
    w, _ = mconvex.dual_certificate(p2, sq, z)
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
        z = mconvex.minimize_separable(p, Phi)
        brute = min(Phi.value(b) for b in mconvex.enumerate_bases(p))
        check(f"seed{seed_i}-descent", Phi.value(z) == brute)
        w, _ = mconvex.dual_certificate(p, Phi, z)
        try:
            rep = mconvex.verify_mconvex_optimality(p, Phi, z, w)
            check(f"seed{seed_i}-equality", rep.equality)
        except DctkError:
            failures.append(f"seed{seed_i}-certificate")
    return failures


def run(argv: Sequence[str]) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INVALID if e.code not in (0, None) else 0
    try:
        if args.verb == "conjugate":
            return _cmd_conjugate(args)
        if args.verb == "minimize":
            if args.subject == "mconvex":
                return _cmd_minimize_mconvex(args)
            if args.subject == "m2":
                return _cmd_minimize_m2(args)
            if args.subject == "flow":
                return _cmd_minimize_flow(args)
            if args.subject == "boxtdi":
                return _cmd_minimize_boxtdi(args)
        if args.verb == "certify":
            if args.subject == "mconvex":
                return _cmd_certify_mconvex(args)
            if args.subject == "flow":
                return _cmd_certify_flow(args)
        if args.verb == "inverse":
            return _cmd_inverse(args)
        if args.verb == "probe":
            return _cmd_probe(args)
        if args.verb == "selftest":
            return _cmd_selftest(args)
        return EXIT_INVALID
    except Infeasible as e:
        payload, code = {"status": "INFEASIBLE", "detail": str(e)}, EXIT_INFEASIBLE
    except (NotFeasible, NotPrimalFeasible, NotSignFeasible) as e:
        payload, code = {"status": "CRITERIA_VIOLATED", "detail": str(e)}, EXIT_CRITERIA
    except Unbounded as e:
        payload, code = {"status": "UNBOUNDED", "detail": str(e)}, EXIT_UNBOUNDED
    except (CriteriaViolated, ValueMismatch) as e:
        payload, code = {"status": "CRITERIA_VIOLATED", "detail": repr(e.args)}, EXIT_CRITERIA
    except (NoFeasibleWeight, IterationLimit) as e:
        payload, code = {"status": "INCONCLUSIVE", "detail": str(e)}, EXIT_INCONCLUSIVE
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except DctkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    # A failure report honours --json-out like any other payload.
    try:
        _emit(payload, args.json_out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
