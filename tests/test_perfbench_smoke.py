"""One short pass of each benchmark workload, checked by its own oracle.

For every workload that BENCHMARK.json declares, `perfbench/run.py`
runs one pass of its deck (the loop stops after `--seconds 0.05`) and
must exit 0 with a last stdout line that reports every timed op
correct.  A change that makes the benchmark reject its own answers
fails here, not only in a full benchmark run.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from helpers import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_is_correct(workload):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.05",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, env=child_env(), timeout=300)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), p.stdout
