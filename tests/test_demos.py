"""Each demo script runs to completion from a source checkout, and the
code-line counter counts the source tree."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, package_env):
    result = subprocess.run(
        [sys.executable, str(demo)], env=package_env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_code_lines_totals_its_rows_and_refuses_a_path_that_is_no_directory():
    def count(path):
        return subprocess.run(
            [sys.executable, str(ROOT / "tests" / "code_lines.py"), path],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    result = count("src")
    assert result.returncode == 0, result.stderr
    rows = [int(line.split()[0].replace(",", "")) for line in result.stdout.splitlines()]
    assert result.stdout.splitlines()[-1].endswith("total")
    assert len(rows) > 1 and sum(rows[:-1]) == rows[-1] > 0
    # a mistyped path, or an option, must not read as an empty tree
    for path in ("no-such-dir", "--help"):
        result = count(path)
        assert result.returncode == 2 and result.stdout == ""
        assert f"{path} is not a directory" in result.stderr
