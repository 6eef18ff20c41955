"""One short pass of each benchmark workload, checked by its own oracle.

For every workload that BENCHMARK.json declares, `perfbench/run.py`
runs one pass of its deck (the loop stops after `--seconds 0.05`) and
must exit 0 with a last stdout line that reports every timed op
correct.  A change that makes the benchmark reject its own answers
fails here, not only in a full benchmark run.  A second, traced pass
(`--trace 1`) must also print every per-layer metric that
BENCHMARK.json names, so a call moved past the tracer's hooks fails
here too.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from helpers import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def one_pass(workload, trace):
    """The result line of one short pass, after checking that every op was correct."""
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.05",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=child_env(), timeout=300)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), p.stdout
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_is_correct(workload):
    one_pass(workload, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_pass_prints_every_layer(workload):
    metrics = one_pass(workload, 1)["metrics"]
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in metrics]
    assert not missing, missing
