import os
from itertools import combinations
from pathlib import Path

import pytest

from matroid_joints.affine import affine_matroid, grid3d
from matroid_joints.construct import TriangleFreeMatroid, behrend_points, build_construction, grid_lines
from matroid_joints.core import Matroid, make_flat
from matroid_joints.planar import Configuration, is_triangle_free, prune_lines

SRC = Path(__file__).resolve().parent.parent / "src"

# Filled by tests/test_acceptance.py; echoed after the run so the
# per-criterion verdicts survive pytest's output capture.
acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def build5():
    return build_construction(5)


@pytest.fixture(scope="session")
def build200():
    return build_construction(200)


@pytest.fixture(scope="session")
def base3_grid():
    """The N = 8 grid filtered by 2 + {x <= 16 whose base-3 digits are 0 or 1},
    a Salem-Spencer set, before pruning: 28 points, 25 lines after it."""
    sums = [2 + x for x in (0, 1, 3, 4, 9, 10, 12, 13)]
    return Configuration(behrend_points(8, sums), grid_lines(8).lines)


@pytest.fixture(scope="session")
def small_triangle_free():
    """Every Behrend build N <= 80 with a line, and a shifted Salem-Spencer
    set (sums of distinct powers of 3, plus 1: 3-AP-free) at N = 20."""
    builds = [build_construction(n).matroid for n in range(4, 81)]
    shifted = {1 + sum(c) for k in range(5) for c in combinations((1, 3, 9, 27), k)}
    cfg = prune_lines(Configuration(behrend_points(20, shifted), grid_lines(20).lines))
    assert is_triangle_free(cfg)
    return [tfm for tfm in builds if tfm.config.line_points] + [TriangleFreeMatroid(cfg)]


@pytest.fixture(scope="session")
def matroid200(build200):
    m = build200.matroid.to_matroid()
    # a plain list, validated and indexed afresh by each stage it is handed to
    lines = list(build200.matroid.matroid_lines())
    return m, lines


@pytest.fixture(scope="session")
def doubled_grid():
    """grid3d(2) plus element 8, parallel to point 0, and its 12 axis lines:
    a matroid that is not simple, so a line need not be cl{x, a}."""
    pts, desc = grid3d(2)
    base = affine_matroid(pts)

    def oracle(s):
        if 8 in s:
            if 0 in s:
                return False
            s = s - {8} | {0}
        return base.oracle(s)

    m = Matroid(pts + (pts[0],), oracle)
    return m, [make_flat(m, d[:2]) for d in desc]


@pytest.fixture(scope="session")
def adjacency():
    """The adjacency sets of an ``analysis.IntersectionGraph``, one per
    line, for the tests' triple-loop references."""

    def adjacency_of(g) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(g.n)]
        for i, j in g.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    return adjacency_of


@pytest.fixture(scope="session")
def package_env():
    """Environment for subprocesses that import the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
