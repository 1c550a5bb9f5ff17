"""Triangle-free configurations from Behrend-filtered grids, and the
simple matroid they induce.

The pipeline: grid lines (horizontal, vertical, diagonal) over {1..N}^2,
points filtered by coordinate sum lying in a 3-AP-free set, and only the
lines with at least two surviving points kept.  Point (x, y) lies on row
y, column x and diagonal x - y and on no other grid line, so the kept
lines and their points are read off the coordinates in one pass
(``GridFamily.configuration``); ``planar.prune_lines`` over all 4N + 1
lines is the reference it equals.  The resulting configuration passes the
exact triangle gate (``core.find_triangles``) and is read through
``core.TriangleFreeMatroid``, whose oracle reads only the incidence; this
module re-exports it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from . import core
from .behrend import BehrendSet, behrend_set
from .core import CheckResult, Matroid, MatroidError, PASS, FAIL, TriangleFreeMatroid
from .planar import (
    Configuration,
    IntLine,
    Point,
    diagonal,
    horizontal,
    is_triangle_free,
    triple_points,
    vertical,
    _checked_points,
)


class ConstructionError(RuntimeError):
    """The triangle-free gate failed: an upstream bug, not a usage error."""


@dataclass(frozen=True)
class GridFamily:
    """The 4N+1 grid lines over {1..N}^2: y=b, x=a (1..N) and x-y=c (-N..N),
    in that order.  ``len`` counts them without building them."""

    N: int

    def __len__(self) -> int:
        return 4 * self.N + 1

    @cached_property
    def lines(self) -> tuple[IntLine, ...]:
        lines = (
            [horizontal(b) for b in range(1, self.N + 1)]
            + [vertical(a) for a in range(1, self.N + 1)]
            + [diagonal(c) for c in range(-self.N, self.N + 1)]
        )
        assert len(set(lines)) == len(self)
        return tuple(lines)

    def configuration(self, points: Iterable[Point]) -> Configuration:
        """The configuration of ``points`` over the lines of this family
        that hold two or more of them, in the order of ``lines``: equal to
        ``planar.prune_lines(Configuration(points, self.lines))``, the
        reference, with only the kept lines built and none looked up.  The
        points pass ``Configuration``'s checks first (the same helper, the
        same errors); a point off the grid counts only on the family's
        lines through it.

        Point (x, y) lies on row y, column x and diagonal x - y and on no
        other grid line, so one pass files each point index under those
        three; points are visited in index order, so each line's points
        come out ascending."""
        points = _checked_points(points)
        rows, columns, diagonals = defaultdict(list), defaultdict(list), defaultdict(list)
        for i, (x, y) in enumerate(points):
            rows[y].append(i)
            columns[x].append(i)
            diagonals[x - y].append(i)
        lines, line_points = [], []
        n = self.N
        for make, family, low in ((horizontal, rows, 1), (vertical, columns, 1), (diagonal, diagonals, -n)):
            for c in sorted(family):
                members = family[c]
                if len(members) >= 2 and low <= c <= n:
                    lines.append(make(c))
                    line_points.append(tuple(members))
        return Configuration(points, lines, line_points)


def grid_lines(N: int) -> GridFamily:
    """The grid family of N; its lines are built when first read."""
    if N < 1:
        raise MatroidError("grid_lines requires N >= 1")
    return GridFamily(N=N)


def behrend_points(N: int, sums: Iterable[int]) -> list[Point]:
    """Grid points (a, b) with 1 <= a, b <= N and a + b in the given sums,
    ordered by a, then b: for each a, b = s - a over the sums s ascending."""
    sums = sorted(set(sums))
    return [(x, s - x) for x in range(1, N + 1) for s in sums if 1 <= s - x <= N]


@dataclass
class ConstructionBuild:
    N: int
    behrend: BehrendSet
    grid: GridFamily
    config: Configuration  # pruned
    matroid: TriangleFreeMatroid
    degenerate: bool  # no line survived pruning

    def to_json(self) -> dict:
        cfg = self.config.to_json()
        return {
            "N": self.N,
            "B": list(self.behrend.members),
            "points": cfg["points"],
            "lines": cfg["lines"],
            "pruned_lines": len(self.grid) - len(self.config.lines),
            "triple_points": len(triple_points(self.config)),
        }


def build_construction(N: int) -> ConstructionBuild:
    """Run the full pipeline and gate on triangle-freeness.

    The configuration is ``grid.configuration(points)``: the grid lines
    holding two or more of the points, and each line's points, read off
    the coordinates in one pass with no line looked up and only the kept
    lines built.  It equals
    ``planar.prune_lines(Configuration(points, grid.lines))``, the
    reference.

    The gate is the exact triangle search of ``core.is_triangle_free`` at
    every N, whose verdict the configuration caches
    (``core.LineIndex.triangle_free``) for the matroid's constructor; a
    triangle at this point indicates a bug in the 3-AP-free set or the
    incidence code and raises ConstructionError.
    """
    if N < 4:
        raise MatroidError("build_construction requires N >= 4")
    b = behrend_set(N)
    pts = behrend_points(N, b.members)
    grid = grid_lines(N)
    config = grid.configuration(pts)
    if not is_triangle_free(config):
        raise ConstructionError(f"triangle found in pruned configuration for N={N}")
    matroid = TriangleFreeMatroid(config)
    return ConstructionBuild(
        N=N,
        behrend=b,
        grid=grid,
        config=config,
        matroid=matroid,
        degenerate=(len(config.lines) == 0),
    )


@dataclass
class ConstructionReport:
    line_flats: CheckResult
    joint_independence: CheckResult
    rank_bound: CheckResult

    @property
    def ok(self) -> bool:
        return self.line_flats.ok and self.joint_independence.ok and self.rank_bound.ok


def verify_construction_properties(tfm: TriangleFreeMatroid) -> ConstructionReport:
    """Check the three structural properties of the induced matroid, exactly.

    (1) each configuration line's closure is its point set, of rank 2;
    (2) every triple point is a joint: a joint lies on three lines, so
    ``core.count_joints`` over the configuration lines equals the number of
    triple points exactly when each one is; (3) the whole ground set has
    rank at most 4.  The matroid here has no ``span``, and its oracle wraps
    ``tfm.is_independent`` rather than being that bound method, so it does
    not take the structural rules' key (``core._reads_own_configuration``):
    ``count_joints`` decides each triple point by its 4-point star, and
    property (2) checks, through the oracle, the lemma that the joint rule
    stands on.  Every answer comes from the oracle; the work is about one
    oracle call per point per line.
    """
    m = Matroid(tfm.to_matroid().labels, lambda s: tfm.is_independent(s))

    r1 = CheckResult(PASS)
    for li, pts in enumerate(tfm.config.line_points):
        flat = core.make_flat(m, pts[:2])
        if flat.members != frozenset(pts) or flat.rank != 2:
            r1 = CheckResult(FAIL, counterexample=(li,), detail="closure of pair != line points")
            break

    joints = core.count_joints(m, tfm.config)
    triples = len(triple_points(tfm.config))
    r2 = CheckResult(PASS) if joints == triples else CheckResult(
        FAIL, counterexample=(joints, triples), detail="joints != triple points"
    )

    full = core.rank(m, range(m.size))
    r3 = CheckResult(PASS) if full <= 4 else CheckResult(FAIL, counterexample=(full,))

    return ConstructionReport(line_flats=r1, joint_independence=r2, rank_bound=r3)
