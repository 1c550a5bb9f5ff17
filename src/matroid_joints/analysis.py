"""Measurement harness for the upper-bound machinery.

Given a simple matroid and a set of its lines, this module prunes lines
lying in heavy planes, partitions points by line degree, builds the
line-intersection graph, and counts triangles and degenerate triangles.
Thresholds are exact rationals compared exactly; nothing here estimates
the removal-lemma constant, it only measures.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from . import core
from .core import Flat, Matroid, MatroidError
from .construct import build_construction
from .planar import triple_points


@dataclass
class PruneStep:
    plane: tuple[int, ...]
    removed: tuple[int, ...]  # indices into the pre-step line list


def heavy_plane_prune(
    m: Matroid, lines: list[Flat], epsilon: Fraction
) -> tuple[list[Flat], list[PruneStep]]:
    """Repeatedly remove all lines lying in a plane with >= 2/epsilon of them.

    Candidate planes are closures of unions of intersecting line pairs,
    taken from the point -> line index; the heaviest plane goes first,
    ties broken lexicographically on the plane's member list.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise MatroidError("epsilon must be positive")
    threshold = Fraction(2) / epsilon
    lines = core._require_lines(m, lines)
    survivors = list(lines)
    trace: list[PruneStep] = []
    while True:
        by_point = core._lines_by_point(m.size, survivors)
        planes: dict[tuple, frozenset] = {}
        for (i, j), shared in _common_points(by_point).items():
            plane = _meeting_plane(m, survivors[i].members, survivors[j].members, shared[0])
            planes.setdefault(tuple(sorted(plane)), plane)
        best: Optional[tuple] = None
        best_contained: list[int] = []
        for key in sorted(planes):
            plane = planes[key]
            touching = {i for x in plane for i in by_point[x]}
            contained = sorted(i for i in touching if survivors[i].members <= plane)
            if Fraction(len(contained)) < threshold:
                continue
            if best is None or len(contained) > len(best_contained):
                best, best_contained = key, contained
        if best is None:
            break
        trace.append(PruneStep(plane=best, removed=tuple(best_contained)))
        removed = set(best_contained)
        survivors = [f for i, f in enumerate(survivors) if i not in removed]
    return survivors, trace


def _meeting_plane(m: Matroid, l1: frozenset, l2: frozenset, x: int) -> frozenset:
    """cl(l1 | l2) for two lines meeting at x.

    cl{x, a, b}, with a and b the smallest other members of the lines, is
    that plane whenever it holds both lines (then cl(l1 | l2) lies in it
    and it lies in cl(l1 | l2)); a three-point basis scan replaces one of
    |l1 | l2| points.  In a simple matroid it always holds them, since each
    line is the closure of any two of its points; otherwise the union is
    closed.
    """
    plane = core.closure(m, core._star(x, map(core._two_smallest, (l1, l2))))
    if l1 <= plane and l2 <= plane:
        return plane
    return core.closure(m, l1 | l2)


def degree_partition(
    m: Matroid, lines: list[Flat], epsilon: Fraction
) -> tuple[set[int], set[int], dict[int, int]]:
    """Line-degree of each point; E1 = heavy points, E2 = moderate joints."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise MatroidError("epsilon must be positive")
    heavy = Fraction(4) / epsilon
    degrees = {x: 0 for x in range(m.size)}
    for f in lines:
        for x in f.members:
            degrees[x] += 1
    e1 = {x for x, d in degrees.items() if Fraction(d) >= heavy}
    e2 = {x for x, d in degrees.items() if 3 <= d and Fraction(d) < heavy}
    return e1, e2, degrees


@dataclass
class IntersectionGraph:
    n: int  # one vertex per line
    edges: dict[tuple[int, int], int]  # (i, j) with i < j -> witness point

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def intersection_graph(m: Matroid, lines: list[Flat], e2: set[int]) -> IntersectionGraph:
    """Edge per line pair meeting in a point of e2, labeled by the witness.

    Pairs come from the point -> line index and are visited in ascending
    (i, j) order; the first pair sharing more than one point raises.
    """
    edges: dict[tuple[int, int], int] = {}
    for (i, j), shared in _common_points(core._lines_by_point(m.size, lines)).items():
        if len(shared) > 1:
            raise MatroidError(f"lines {i} and {j} share {len(shared)} points")
        if shared[0] in e2:
            edges[(i, j)] = shared[0]
    return IntersectionGraph(n=len(lines), edges=edges)


def _common_points(by_point: list[list[int]]) -> dict[tuple[int, int], list[int]]:
    """For each pair of lines with a point in common, in ascending (i, j)
    order, their common points; the pairs come from the point -> line index."""
    common: dict[tuple[int, int], list[int]] = {}
    for x, through in enumerate(by_point):
        for pair in combinations(through, 2):
            common.setdefault(pair, []).append(x)
    return dict(sorted(common.items()))


@dataclass
class TriangleStats:
    total: int
    degenerate: int
    per_witness: dict[int, int] = field(default_factory=dict)


def triangle_stats(g: IntersectionGraph) -> TriangleStats:
    """Exact triangle counts; a triangle is degenerate when its three
    edges share one witness point (three lines through one point)."""
    adj = g.adjacency()
    total = 0
    degenerate = 0
    per_witness: dict[int, int] = {}
    for i in range(g.n):
        for j in sorted(adj[i]):
            if j <= i:
                continue
            for k in sorted(adj[i] & adj[j]):
                if k <= j:
                    continue
                total += 1
                w1 = g.edges[(i, j)]
                w2 = g.edges[(i, k)]
                w3 = g.edges[(j, k)]
                if w1 == w2 == w3:
                    degenerate += 1
                    per_witness[w1] = per_witness.get(w1, 0) + 1
    return TriangleStats(total=total, degenerate=degenerate, per_witness=per_witness)


@dataclass
class AnalysisReport:
    epsilon: Fraction
    L_initial: int
    L_after_prune: int
    planes_pruned: int
    joints_initial: int
    joints_after_prune: int
    E1_size: int
    E2_size: int
    graph_vertices: int
    graph_edges: int
    triangles: int
    degenerate_triples: int
    edge_disjoint_lower_bound: int


def analyze(m: Matroid, lines: list[Flat], epsilon: Fraction) -> AnalysisReport:
    """Run the full pipeline on one instance and record every statistic."""
    epsilon = Fraction(epsilon)
    joints_initial = core.count_joints(m, lines)
    survivors, trace = heavy_plane_prune(m, lines, epsilon)
    joints_after = core.count_joints(m, survivors) if trace else joints_initial
    e1, e2, _ = degree_partition(m, survivors, epsilon)
    g = intersection_graph(m, survivors, e2)
    stats = triangle_stats(g)
    return AnalysisReport(
        epsilon=epsilon,
        L_initial=len(lines),
        L_after_prune=len(survivors),
        planes_pruned=len(trace),
        joints_initial=joints_initial,
        joints_after_prune=joints_after,
        E1_size=len(e1),
        E2_size=len(e2),
        graph_vertices=g.n,
        graph_edges=len(g.edges),
        triangles=stats.total,
        degenerate_triples=stats.degenerate,
        edge_disjoint_lower_bound=len(e2),
    )


SWEEP_COLUMNS = [
    "N",
    "B_size",
    "E_size",
    "L0",
    "L",
    "joints",
    "joints_over_L2",
    "joints_over_L18",
    "planes_pruned",
    "E1",
    "E2",
    "triangles",
    "degenerate",
]


def joints_sweep(ns: Iterable[int], epsilon_report: Fraction) -> list[dict]:
    """Build the construction for each N and tabulate joints against lines.

    Per-N failures become rows with an "error" field; degenerate rows
    (no surviving lines) carry a "warning" field and empty ratios.
    """
    epsilon_report = Fraction(epsilon_report)
    rows: list[dict] = []
    for n in ns:
        row: dict = {c: None for c in SWEEP_COLUMNS}
        row["N"] = n
        try:
            build = build_construction(n)
            m = build.matroid.to_matroid()
            lines = build.matroid.matroid_lines()
            report = analyze(m, lines, epsilon_report)
            joints = report.joints_initial
            big_l = len(lines)
            row.update(
                B_size=len(build.behrend),
                E_size=len(build.config.points),
                L0=len(build.grid.lines),
                L=big_l,
                joints=joints,
                joints_over_L2=(joints / big_l**2 if big_l else None),
                joints_over_L18=(joints / big_l**1.8 if big_l else None),
                planes_pruned=report.planes_pruned,
                E1=report.E1_size,
                E2=report.E2_size,
                triangles=report.triangles,
                degenerate=report.degenerate_triples,
            )
            if build.degenerate:
                row["warning"] = "degenerate configuration: no line survived pruning"
        except Exception as exc:  # row-level failure; the sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_sweep_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row.get(c)) for c in SWEEP_COLUMNS])


def sweep_json(rows: list[dict]) -> str:
    out = []
    for row in rows:
        clean = {c: row.get(c) for c in SWEEP_COLUMNS}
        for extra in ("warning", "error"):
            if row.get(extra) is not None:
                clean[extra] = row[extra]
        out.append(clean)
    return json.dumps(out, indent=2)
