"""Smoke tests: the example scripts run to completion against the
library as it stands."""

import pathlib
import subprocess
import sys

import pytest

from helpers import child_env

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["solve_example.py"])
def test_script_exits_zero(name):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
