"""Measurement harness for the upper-bound machinery.

Given a simple matroid and a set of its lines, this module prunes lines
lying in heavy planes, partitions points by line degree, builds the
line-intersection graph, and counts triangles and degenerate triangles.
Thresholds are exact rationals compared exactly; nothing here estimates
the removal-lemma constant, it only measures.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
from bisect import bisect_left, insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import core
from .core import Flat, Matroid, MatroidError, _reads_own_configuration
from .construct import ConstructionError, build_construction


def _epsilon(value) -> Fraction:
    """epsilon as an exact positive rational.  An int or a ``Fraction`` is
    read exactly; a bool, a float (0.3 is not 3/10), a str or any other
    type, and any value <= 0, raise MatroidError: nothing is coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise MatroidError(f"epsilon must be an int or a Fraction, got {value!r}")
    if value <= 0:
        raise MatroidError("epsilon must be positive")
    return Fraction(value)


@dataclass
class PruneStep:
    plane: tuple[int, ...]
    removed: tuple[int, ...]  # indices into the pre-step line list


def heavy_plane_prune(
    m: Matroid, lines: Sequence[Flat], epsilon: Fraction
) -> tuple[list[Flat], list[PruneStep]]:
    """Repeatedly remove all lines lying in a plane with >= 2/epsilon of them.

    Returns the surviving lines' flats, built for the survivors only, and
    the steps (``_prune_steps``).
    """
    index = core._require_lines(m, lines)
    alive, trace = _prune_steps(m, index, epsilon)
    return [index[i] for i, a in enumerate(alive) if a], trace


def _prune_steps(
    m: Matroid, index: core.LineIndex, epsilon: Fraction
) -> tuple[list[bool], list[PruneStep]]:
    """The prune's steps on the lines of ``index``, and for each line
    whether it survives them.

    The lines are a simple matroid's: on the closure rule two lines
    sharing two points raise MatroidError before any plane is closed, and
    so does a meeting pair whose star is dependent or whose plane does not
    hold both its lines (``_meeting_planes``); the union rule's stars are
    independent by its lemma, and are not checked.

    Candidate planes are the planes cl(l_i | l_j) of the line pairs that
    meet at a point and hold at least 2/epsilon lines (``_meeting_planes``:
    on a triangle-free configuration read through a ``TriangleFreeMatroid``
    of it such a plane is l_i | l_j, holding those two lines alone, and is
    not closed; on any other input each plane is closed once).  Two
    meeting lines lie in exactly one plane, so the pairs that generate a
    plane are the meeting pairs among the lines it holds.  A plane does
    not change as lines go, and its live count only falls, so the steps
    come from a lazy heap of (-live count, member list, held lines): a
    popped plane is dropped when it holds too few live lines or no two of
    them meet (``index.meet``), pushed back when its count is stale,
    and taken otherwise.  The heaviest plane goes first, ties broken
    lexicographically on the plane's member list; ``removed`` indexes the
    line list as it was before the step.
    """
    threshold = math.ceil(2 / _epsilon(epsilon))  # an int count is >= 2/epsilon iff >= this
    # member lists are distinct, so an entry never compares past its key
    heap = [(-len(held), key, held) for held, key in _meeting_planes(m, index, threshold).items()]
    heapq.heapify(heap)
    alive = [True] * len(index)
    dead: list[int] = []  # ascending
    trace: list[PruneStep] = []
    while heap:
        count, key, held = heapq.heappop(heap)
        live = [i for i in held if alive[i]]
        if len(live) < threshold:
            continue
        if not any(index.meet(i, j) for i, j in combinations(live, 2)):
            continue
        if len(live) < -count:
            heapq.heappush(heap, (-len(live), key, held))
            continue
        trace.append(PruneStep(plane=key, removed=tuple(i - bisect_left(dead, i) for i in live)))
        for i in live:
            alive[i] = False
            insort(dead, i)
    return alive, trace


def _meeting_planes(
    m: Matroid, lines: Sequence[Flat], threshold: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each distinct plane cl(l_i | l_j) of a pair of lines meeting at a
    point that holds at least ``threshold`` lines, keyed by the ascending
    indices of the lines it holds, with its ascending member list.

    The held lines name the plane: a plane is cl(l_i | l_j) of two lines it
    holds, so two planes holding the same lines contain each other.  Two
    meeting lines lie in exactly one plane, since two distinct rank-3
    flats meet in a flat of rank at most 2; so the pairs that generate a
    plane are the meeting pairs among the lines it holds, and no list of
    them is kept.  A plane holding fewer than ``threshold`` lines is not
    kept: lines only die, so it could never be pruned.

    The meeting pairs, the lines' ascending points and the lines through
    each point come from the lines' ``core.LineIndex``: each pair is read
    at the point where it meets (``core._meeting_pairs``).

    When ``m``'s oracle is that of a ``TriangleFreeMatroid`` whose
    configuration is the index itself (the key
    ``core._reads_own_configuration``, which ``core.count_joints``' joint
    rule and ``analyze``'s degree rule read too), the plane of (i, j)
    is l_i | l_j and holds l_i and l_j alone: each such pair is its own
    plane below a threshold of 3, and at 3 or more no plane is kept.
    Nothing is closed and the oracle is not called.  The lemma needs a
    triangle-free configuration whose lines each hold two or more points,
    which the ``TriangleFreeMatroid`` constructor guarantees, and that
    share at most one (the gate's two-point check raises otherwise), so
    each pair is read once, at its one meeting point.  Then x, a_i and a_j
    (a_i a point of l_i other than x) are three distinct points on no
    common line, so the star {x, a_i, a_j} is independent; in its span a
    line through a_j that meets l_i off x closes a triangle with l_i and
    l_j, and so does a line through a_i and a_j, so the span is l_i | l_j;
    a third line in it would hold one point of l_i - {x} and one of
    l_j - {x}, again a triangle.

    Otherwise (any other matroid, or any other lines) the two-point check
    (``index.check_two_points``) first refuses two lines that share two
    points, so each pair is read once, and a pair meeting at x is checked
    by one oracle call on its star {x, a_i, a_j}, a_i the smallest member
    of l_i other than x, read inline from its two smallest members as in
    ``core.count_joints``: a dependent star means the matroid is not
    simple or a line is not a rank-2 flat, and raises MatroidError; an
    independent one is a basis of the pair's plane, which is closed
    through ``core._closure_of``, the reference.  A closed plane that
    does not hold both lines of its pair means a line is not a rank-2
    flat (the span of x and a point of each line holds both lines when
    they are), and raises MatroidError too.  A line lies in the plane when
    it is found at its smallest point, a plane point, and the plane holds
    all its points.  The held pairs of each plane of three or more lines
    are remembered, so that plane is closed once.
    """
    index = core._require_lines(m, lines)
    line_points = index.line_points
    if _reads_own_configuration(m, index):
        if threshold >= 3:
            return {}
        return {
            (i, j): tuple(sorted({*line_points[i], *line_points[j]}))
            for i, j, _ in core._meeting_pairs(index.by_point)
        }
    by_point = index.by_point
    index.check_two_points()
    closed: set[tuple[int, int]] = set()  # the held pairs of each plane of three or more lines
    planes: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, j, x in core._meeting_pairs(by_point):
        li, lj = line_points[i], line_points[j]
        star = frozenset((x, li[1] if li[0] == x else li[0], lj[1] if lj[0] == x else lj[0]))
        if not m.oracle(star):
            raise MatroidError(f"lines {i} and {j} meet at {x} in a dependent star")
        if (i, j) in closed:
            continue
        plane = core._closure_of(m, star, star)
        if not plane.issuperset(li + lj):
            raise MatroidError(f"lines {i} and {j} meet at {x} in a plane that does not hold them both")
        found = (k for p in plane for k in by_point[p] if line_points[k][0] == p)
        held = tuple(sorted(k for k in found if plane.issuperset(line_points[k])))
        if len(held) >= 3:
            closed.update(combinations(held, 2))
        if len(held) >= threshold:
            planes[held] = tuple(sorted(plane))
    return planes


def degree_partition(
    m: Matroid, lines: Sequence[Flat], epsilon: Fraction
) -> tuple[set[int], set[int], dict[int, int]]:
    """Line-degree of each point; E1 = the points of degree >= 4/epsilon,
    E2 = the points of degree in [3, ceil(4/epsilon)).

    E2 is taken by degree alone, with no rank test: a point of three
    coplanar lines is in E2 though it is no joint."""
    heavy = math.ceil(4 / _epsilon(epsilon))  # an int degree is >= 4/epsilon iff >= this
    index = core._require_lines(m, lines)
    index.check_two_points()
    degrees = {x: len(through) for x, through in enumerate(index.by_point)}
    e1 = {x for x, d in degrees.items() if d >= heavy}
    e2 = {x for x, d in degrees.items() if 3 <= d < heavy}
    return e1, e2, degrees


@dataclass
class IntersectionGraph:
    n: int  # one vertex per line
    edges: dict[tuple[int, int], int]  # (i, j) with i < j -> witness point


def intersection_graph(m: Matroid, lines: Sequence[Flat], e2: set[int]) -> IntersectionGraph:
    """Edge per line pair meeting in a point of e2, labeled by the witness,
    read pair by pair (``core._meeting_pairs``) once the two-point check
    (``index.check_two_points``) has refused two lines that share two or
    more points."""
    index = core._require_lines(m, lines)
    index.check_two_points()
    edges = {(i, j): x for i, j, x in core._meeting_pairs(index.by_point) if x in e2}
    return IntersectionGraph(n=len(index), edges=edges)


@dataclass
class TriangleStats:
    total: int
    degenerate: int
    per_witness: dict[int, int] = field(default_factory=dict)


def triangle_stats(g: IntersectionGraph) -> TriangleStats:
    """Exact triangle counts; a triangle is degenerate when its three
    edges share one witness point (three lines through one point).

    ``intersection_graph`` rejects two lines that share two points, so a
    triangle's three witnesses are all one point or three distinct ones.
    The graph is read as the incidence of the lines and their witnesses
    (a ``core.LineIndex``, each line holding the witnesses of its edges):
    the d lines through a witness pairwise meet there and give C(d, 3)
    degenerate triangles, and the others are that incidence's triangles
    (``core.find_triangles``).  This is the reference: ``analyze`` reads
    the same counts off the degrees on a construction's own lines, whose
    gate has already found no triangle.
    """
    witnesses: list[set[int]] = [set() for _ in range(g.n)]
    for (i, j), w in g.edges.items():
        witnesses[i].add(w)
        witnesses[j].add(w)
    size = max(g.edges.values(), default=-1) + 1
    index = core.LineIndex(size, [tuple(sorted(ws)) for ws in witnesses])
    per_witness = {w: math.comb(len(ls), 3) for w, ls in enumerate(index.by_point) if len(ls) >= 3}
    degenerate = sum(per_witness.values())
    crossing = len(core.find_triangles(index))
    return TriangleStats(total=degenerate + crossing, degenerate=degenerate, per_witness=per_witness)


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
    graph_edges: int
    triangles: int
    degenerate_triples: int


def analyze(m: Matroid, lines: Sequence[Flat], epsilon: Fraction) -> AnalysisReport:
    """Run the full pipeline on one instance and record every statistic.

    The lines are validated and indexed once (``core.LineIndex``; an index
    passed in is read as it is), and every stage reads that index: the
    prune, the joint count, the degree partition and the intersection
    graph.  The prune goes first, so lines it rejects raise before any
    count.  When it takes no step the survivors are the lines and keep
    their index, and no flat is built; otherwise the survivors' points are
    indexed once, in a new ``core.LineIndex``.

    The degree rule: when ``m``'s oracle is a ``TriangleFreeMatroid``'s own
    and the lines are its configuration (``core._reads_own_configuration``,
    the key of the union rule and the joint rule too), the graph statistics
    are read off the kept lines' degrees d_x, with no graph built and no
    triangle walked: ``graph_edges`` is the sum over x in E2 of C(d_x, 2),
    and ``triangles`` and ``degenerate_triples`` are both the sum over x in
    E2 of C(d_x, 3).  Two kept lines share at most one point (the
    two-point check raises otherwise) and every pair of lines through x
    meets there, so x witnesses exactly C(d_x, 2) edges and C(d_x, 3) degenerate triangles.
    A triangle that is not degenerate is three kept lines pairwise meeting
    at three distinct points, a triangle of the configuration, which the
    matroid's constructor has refused.  The kept lines are a subfamily of
    the configuration's, so this holds after a prune step too, where they
    are indexed afresh.  On any other input ``intersection_graph`` and
    ``triangle_stats``, the reference, count them.

    epsilon is read once, exactly (``_epsilon``)."""
    epsilon = _epsilon(epsilon)
    index = core._require_lines(m, lines)
    alive, trace = _prune_steps(m, index, epsilon)
    joints_initial = core.count_joints(m, index)
    kept = index
    if trace:
        kept = core.LineIndex(index.size, [pts for pts, a in zip(index.line_points, alive) if a])
    joints_after = core.count_joints(m, kept) if trace else joints_initial
    e1, e2, degrees = degree_partition(m, kept, epsilon)
    if _reads_own_configuration(m, index):
        graph_edges = sum(math.comb(degrees[x], 2) for x in e2)
        triangles = degenerate = sum(math.comb(degrees[x], 3) for x in e2)
    else:
        g = intersection_graph(m, kept, e2)
        stats = triangle_stats(g)
        graph_edges, triangles, degenerate = len(g.edges), stats.total, stats.degenerate
    return AnalysisReport(
        epsilon=epsilon,
        L_initial=len(index),
        L_after_prune=len(kept),
        planes_pruned=len(trace),
        joints_initial=joints_initial,
        joints_after_prune=joints_after,
        E1_size=len(e1),
        E2_size=len(e2),
        graph_edges=graph_edges,
        triangles=triangles,
        degenerate_triples=degenerate,
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

    ``analyze`` reads the matroid's lines, the configuration itself
    (``TriangleFreeMatroid.matroid_lines``), as their index, through that
    matroid's oracle.
    Per-N failures become rows with an "error" field; a failure other than
    MatroidError or ConstructionError, a bug rather than bad input, also
    writes its traceback to stderr.  Degenerate rows (no surviving lines) carry a
    "warning" field and empty ratios.  A bad epsilon (``_epsilon``) raises
    MatroidError before any row is built.
    """
    epsilon_report = _epsilon(epsilon_report)
    rows: list[dict] = []
    for n in ns:
        row: dict = {c: None for c in SWEEP_COLUMNS}
        row["N"] = n
        try:
            build = build_construction(n)
            m = build.matroid.to_matroid()
            report = analyze(m, build.matroid.matroid_lines(), epsilon_report)
            joints = report.joints_initial
            big_l = report.L_initial
            row.update(
                B_size=len(build.behrend),
                E_size=len(build.config.points),
                L0=len(build.grid),
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
            if not isinstance(exc, (MatroidError, ConstructionError)):
                import traceback  # here, so that only a failing run pays for the import

                traceback.print_exc()
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
