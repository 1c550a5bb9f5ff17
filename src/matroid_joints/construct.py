"""Triangle-free configurations from Behrend-filtered grids, and the
simple matroid they induce.

The pipeline: grid lines (horizontal, vertical, diagonal) over {1..N}^2,
points filtered by coordinate sum lying in a 3-AP-free set, and only the
lines with at least two surviving points kept.  On the resulting
triangle-free configuration, independence is decided by a collinearity
rule for 3-sets and a collinearity-or-angle rule for 4-sets; every 5-set
is dependent.  An angle is the union of two configuration lines meeting
at a configuration point.  The oracle reads both rules off each point's
set of lines: a 3-set is dependent iff the three sets share a line; a
4-set {a, b, c, d} is dependent iff a line holds three of the points, or
the lines of the two pairs of one pairing (ab|cd, ac|bd, ad|bc) meet at a
configuration point -- once no line holds three points, an angle that
covers all four points covers two disjoint pairs, one per line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from . import core
from .behrend import BehrendSet, behrend_set
from .core import CheckResult, Matroid, MatroidError, PASS, FAIL
from .planar import (
    Configuration,
    IntLine,
    Point,
    diagonal,
    horizontal,
    is_triangle_free,
    triple_points,
    vertical,
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

    def populated_lines(self, points: Sequence[Point]) -> list[IntLine]:
        """The lines holding two or more of ``points`` (points of the grid),
        in the order of ``lines``: a point lies on one line of each
        direction, read off its coordinates, so no other line is built."""
        rows = Counter(y for _, y in points)
        columns = Counter(x for x, _ in points)
        diagonals = Counter(x - y for x, y in points)
        return (
            [horizontal(b) for b in sorted(rows) if rows[b] >= 2]
            + [vertical(a) for a in sorted(columns) if columns[a] >= 2]
            + [diagonal(c) for c in sorted(diagonals) if diagonals[c] >= 2]
        )


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


class TriangleFreeMatroid:
    """Independence oracle over a pruned triangle-free configuration, read
    off the configuration's own incidence: the matroid holds no copy of it.

    The oracle's rules are a matroid's on a triangle-free configuration,
    and a triangle can break the exchange axiom, so the constructor
    refuses one through the configuration's cached gate verdict
    (``Configuration.triangle_free``).
    """

    def __init__(self, config: Configuration):
        if any(len(pts) < 2 for pts in config.line_points):
            raise MatroidError("every line must contain at least two points (prune first)")
        if not config.triangle_free:
            raise MatroidError("the configuration has a triangle: its oracle would not be a matroid")
        self.config = config

    def is_independent(self, subset: frozenset) -> bool:
        by_point = self.config.by_point
        if subset and (min(subset) < 0 or max(subset) >= len(by_point)):
            bad = next(p for p in sorted(subset) if not 0 <= p < len(by_point))
            raise MatroidError(f"unknown point index {bad}")
        n = len(subset)
        if n <= 2:
            return True
        if n >= 5:
            return False
        if n == 3:
            # dependent iff one line holds all three points; two points
            # share at most one line
            a, b, c = subset
            pb, pc = by_point[b], by_point[c]
            for l in by_point[a]:
                if l in pb:
                    return l not in pc
            return True
        # n == 4: dependent iff a line holds three of the points, or an
        # angle covers all four; with no line on three points, each line of
        # the angle holds two of them, so the angle is the lines of the two
        # pairs of one pairing, meeting at a configuration point.  A line
        # on three of the points holds a and two others, or b, c and d.
        a, b, c, d = subset
        pb, pc, pd = by_point[b], by_point[c], by_point[d]
        ab = ac = ad = bc = bd = cd = None
        for l in by_point[a]:
            if l in pb:
                if l in pc or l in pd:
                    return False
                ab = l
            elif l in pc:
                if l in pd:
                    return False
                ac = l
            elif l in pd:
                ad = l
        for l in pb:
            if l in pc:
                if l in pd:
                    return False
                bc = l
            elif l in pd:
                bd = l
        for l in pc:
            if l in pd:
                cd = l
        # the two lines of a pair are distinct here, so a set bit of the
        # meeting masks is another line that meets the first
        meets = self.config.meets
        return not (
            (ab is not None and cd is not None and meets[ab] >> cd & 1)
            or (ac is not None and bd is not None and meets[ac] >> bd & 1)
            or (ad is not None and bc is not None and meets[ad] >> bc & 1)
        )

    def span(self, basis: frozenset) -> frozenset:
        """cl(B) of an independent B, read off the incidence by the oracle's rules.

        B + e is dependent iff |B| = 4, or e lies on a line through two
        members of B (a collinear 3-set, or a line covering three of a
        4-set), or e lies on a line through the third member that meets
        that line at a configuration point (an angle covering the 4-set).
        Two distinct lines share at most one point, so a pair lies on at
        most one line, and the lines through the third member that meet it
        are those set in its meeting mask (``meets``).
        """
        cfg = self.config
        if len(basis) >= 4:
            return frozenset(range(cfg.size))
        out = set(basis)
        line_points, by_point, meets = cfg.line_points, cfg.by_point, cfg.meets
        for p, q in combinations(basis, 2):
            la = _line_through(by_point[p], by_point[q])
            if la is None:
                continue
            out.update(line_points[la])
            for r in basis:
                if r == p or r == q:
                    continue
                for lb in by_point[r]:
                    if meets[la] >> lb & 1:
                        out.update(line_points[lb])
        return frozenset(out)

    def to_matroid(self) -> Matroid:
        return Matroid(labels=self.config.points, oracle=self.is_independent, span=self.span)

    def matroid_lines(self) -> Configuration:
        """The matroid's lines: the configuration itself, a ``core.LineIndex``
        whose flats are the configuration lines' point sets, each of rank 2.

        The closure of two points of a line is that line's point set
        (``span``), so the flats are read from the configuration with no
        oracle call; ``verify_construction_properties`` checks the same
        equality through the oracle alone.
        """
        return self.config


def _reads_own_configuration(m: Matroid, lines: Sequence) -> bool:
    """The key of the construction's structural rules: ``m``'s oracle is a
    ``TriangleFreeMatroid``'s own ``is_independent``, and ``lines`` is that
    matroid's configuration itself.  Then the constructor has refused a
    configuration with a triangle or a line of fewer than two points, and
    three rules read their answers off the configuration's incidence: the
    union rule (``analysis._meeting_planes``), the joint rule
    (``core.count_joints``) and the degree rule (``analysis.analyze``'s
    graph statistics).  An oracle that wraps the method, or another index
    over the same lines, does not take the key and is answered through the
    oracle.
    """
    tfm = getattr(m.oracle, "__self__", None)
    return isinstance(tfm, TriangleFreeMatroid) and tfm.config is lines


def _line_through(p: Sequence[int], q: Sequence[int]) -> int | None:
    """The line through two points, given the lines through each, or None:
    two lines share at most one point, so there is at most one."""
    for l in p:
        if l in q:
            return l
    return None


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

    The gate is the exact triangle search of ``planar.is_triangle_free``
    at every N; a triangle at this point indicates a bug in the 3-AP-free
    set or the incidence code and raises ConstructionError.
    """
    if N < 4:
        raise MatroidError("build_construction requires N >= 4")
    b = behrend_set(N)
    pts = behrend_points(N, b.members)
    grid = grid_lines(N)
    # the grid lines that ``planar.prune_lines`` would keep, indexed once
    config = Configuration(pts, grid.populated_lines(pts))
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
    not take the structural rules' key (``_reads_own_configuration``):
    ``count_joints`` decides each triple point by its 4-point star, and
    property (2) checks, through the oracle, the lemma that the joint rule
    stands on.  Every answer comes from the oracle; the work is about one
    oracle call per point per line.
    """
    m = Matroid(tfm.config.points, lambda s: tfm.is_independent(s))

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
