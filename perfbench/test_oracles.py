"""The benchmark's oracle checks must bite: every op kind passes with
dctk's real answer and fails once that answer is corrupted.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))
API = run.import_dctk()


def first_op(workload, kind, pred=lambda op: True):
    op = next(op for op in workloads.corpus(workload, 1)(0) if op.kind == kind and pred(op))
    workloads.prepare(op)
    return op


def real(op):
    return run.execute(op, API)


def edit_json(result, edit, rc=None):
    """A CLI result whose JSON output went through `edit`."""
    code, out = result
    obj = json.loads(out)
    edit(obj)
    return (code if rc is None else rc), json.dumps(obj)


def bump(key, sub=None):
    def edit(obj):
        target = obj[sub] if sub else obj
        target[key] = target[key] + 1
    return edit


def set_to(key, value, sub=None):
    def edit(obj):
        (obj[sub] if sub else obj)[key] = value
    return edit


def assert_bites(op, result, corruptions):
    assert workloads.check(op, result) is None, workloads.check(op, result)
    for name, bad in corruptions.items():
        assert workloads.check(op, bad) is not None, f"{op.kind}: {name} was not caught"


def test_minimize_mconvex():
    op = first_op("certify", "minimize-mconvex")
    res = real(op)
    z = json.loads(res[1])["report"]["primal_witness"]
    assert_bites(op, res, {
        "value + 1": edit_json(res, bump("primal_value", "report")),
        "witness outside": edit_json(res, set_to("primal_witness", [v + 1 for v in z], "report")),
        "unequal dual": edit_json(res, bump("dual_value", "report")),
        "wrong exit code": (workloads.EXIT_INCONCLUSIVE, res[1]),
    })


def test_certify_mconvex():
    op = first_op("certify", "certify-mconvex", lambda op: op.label.endswith("optimal"))
    res = real(op)
    assert_bites(op, res, {
        "value + 1": edit_json(res, bump("primal_value", "report")),
        "unequal dual": edit_json(res, bump("dual_value", "report")),
        "equality off": edit_json(res, set_to("equality", False, "report")),
    })
    other = first_op("certify", "certify-mconvex", lambda op: op.label.endswith("other"))
    assert other.expect["z_value"] > other.expect["min"]
    res = real(other)
    assert workloads.check(other, res) is None
    assert workloads.check(other, (workloads.EXIT_OK, res[1])) is not None


def test_certify_mconvex_given_weights():
    op = first_op("certify", "certify-mconvex", lambda op: op.spec["w"] is not None)
    res = real(op)
    wrong = workloads.EXIT_OK if res[0] != workloads.EXIT_OK else workloads.EXIT_CRITERIA
    assert_bites(op, res, {"wrong exit code": (wrong, res[1])})


def test_minimize_flow():
    op = first_op("certify", "minimize-flow", lambda op: op.defect is None)
    res = real(op)
    x = json.loads(res[1])["flow"]
    assert_bites(op, res, {
        "value + 1": edit_json(res, bump("value")),
        "witness outside": edit_json(res, set_to("flow", [x[0] + 1] + x[1:])),
        "unequal dual": edit_json(res, bump("dual_value")),
    })


def defect_case(label):
    op = next(op for op in workloads.defect_cases(1) if op.label == label)
    workloads.prepare(op)
    return op


def test_flow_known_defect_is_caught_and_named():
    op = defect_case("d2 cost 3k^2")
    reason = workloads.check(op, real(op))
    assert reason is not None
    assert workloads.known_defect(op, reason) == "flow-square-dual"


@pytest.mark.parametrize("kind", ["conjugate", "conjugate-closed"])
def test_conjugate(kind):
    op = first_op("certify", kind, lambda op: op.spec["f"]["form"] == "quadratic")
    res = real(op)
    assert_bites(op, res, {"value + 1": edit_json(res, bump("value"))})


def test_closed_window_known_defect():
    op = defect_case("restricted -200..200 quadratic l=300")
    reason = workloads.check(op, real(op))
    assert reason == "value 48224 != 22500"
    assert workloads.known_defect(op, reason) == "closed-window"


def test_timed_workloads_hold_no_known_defect():
    for workload in workloads.WORKLOADS:
        deck = workloads.corpus(workload, 1)(0)
        assert all(op.defect is None for op in deck), workload


def test_new_failure_of_a_defect_case_is_not_excused():
    op = defect_case("d2 cost 3k^2")
    assert workloads.known_defect(op, "exit code 1, expected 0") is None


def test_boxtdi():
    op = first_op("dual-search", "boxtdi")
    res = real(op)
    assert_bites(op, res, {
        "value + 1": edit_json(res, bump("primal_value", "report")),
        "witness outside": edit_json(res, set_to("primal_witness", [99, 99], "report")),
        "unequal dual": edit_json(res, bump("dual_value", "report")),
    })


def test_criterion7():
    op = first_op("dual-search", "criterion7")
    res = real(op)
    corrupt = {}
    for key, value in [("primal", res["primal"] + 1), ("z", [99] * len(res["z"])),
                       ("dual", res["dual"] + 1), ("mu", res["mu"] + 1), ("cert_equality", False)]:
        bad = copy.deepcopy(res)
        bad[key] = value
        corrupt[key] = bad
    assert_bites(op, res, corrupt)


def test_m2():
    op = first_op("dual-search", "m2")
    res = real(op)
    assert_bites(op, res, {
        "value + 1": edit_json(res, bump("primal_value", "report")),
        "witness outside": edit_json(res, set_to("primal_witness", [99, -99], "report")),
        "unequal dual": edit_json(res, bump("dual_value", "report")),
    })


def test_probe():
    op = first_op("probe", "probe", lambda op: op.spec["integral"])
    res = real(op)
    assert_bites(op, res, {
        "false alarm": edit_json(res, lambda o: o.update(box_integer=False, witness=["1/2"] * 3),
                                 rc=workloads.EXIT_CRITERIA),
    })


def test_probe_fractional_witness():
    op = first_op("probe", "probe", lambda op: not op.spec["integral"])
    witness = [1, 1, 1, "1/2", "1/2", "1/2"]
    out = json.dumps({"box_integer": False, "status": "CRITERIA_VIOLATED", "witness": witness})
    res = (workloads.EXIT_CRITERIA, out)
    assert_bites(op, res, {
        "missed": (workloads.EXIT_OK, json.dumps({"box_integer": True, "status": "OK", "witness": None})),
        "witness outside": edit_json(res, set_to("witness", [1, 1, 1, "3/2", "1/2", "1/2"])),
        "not a vertex": edit_json(res, set_to("witness", ["2/3"] * 6)),
    })


def test_inverse():
    op = first_op("inverse", "inverse")
    res = real(op)
    w = json.loads(res[1])["w_star"]
    assert_bites(op, res, {
        "value + 1": edit_json(res, bump("value")),
        "witness outside": edit_json(res, set_to("w_star", [v + 99 for v in w])),
        "unequal dual": edit_json(res, bump("dual_value")),
    })


def test_exception_is_a_failure():
    op = first_op("inverse", "inverse")
    assert workloads.check(op, RuntimeError("boom")) is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1000)))[:2] == (90, 899)
    q, _, beyond = run.tail_percentile(list(range(50)))
    assert (q, beyond) == (80, 10)


def test_reference_scale_uses_the_bursts_around_a_segment():
    ref = run.Reference()
    ref.bursts = [[0.003] * run.REF_BURST, [0.003] * run.REF_BURST, [0.001] * run.REF_BURST]
    assert ref.scale(0) == pytest.approx(run.REF_NOMINAL_S / 0.003)
    assert ref.scale(1) == pytest.approx(run.REF_NOMINAL_S / 0.002)
