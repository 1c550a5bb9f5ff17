"""Each demo script runs to completion from a source checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, package_env):
    result = subprocess.run(
        [sys.executable, str(demo)], env=package_env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
