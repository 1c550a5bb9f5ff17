"""Heavy-plane pruning, degree partitions, and triangle statistics."""

import hashlib
import heapq
import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matroid_joints import analysis, cli, core, planar
from matroid_joints.affine import affine_matroid, descriptor_flats, grid3d, point
from matroid_joints.analysis import (
    SWEEP_COLUMNS,
    analyze,
    degree_partition,
    heavy_plane_prune,
    intersection_graph,
    joints_sweep,
    triangle_stats,
    write_sweep_csv,
)
from matroid_joints.construct import (
    ConstructionError,
    TriangleFreeMatroid,
    behrend_points,
    build_construction,
    grid_lines,
    verify_construction_properties,
)
from matroid_joints.core import MatroidError, _reads_own_configuration, make_flat
from matroid_joints.planar import Configuration, prune_lines, triple_points


@pytest.fixture(scope="module")
def planar_star():
    # three lines through a common point of a rank-3 planar matroid:
    # every line lies in the single plane (the whole ground set)
    m = affine_matroid(
        [point(0, 0), point(1, 0), point(0, 1), point(1, 1), point(2, 1), point(1, 2)]
    )
    lines = [make_flat(m, {0, 1}), make_flat(m, {0, 2}), make_flat(m, {0, 3})]
    return m, lines


def test_heavy_plane_prune_removes_coplanar_star(planar_star):
    m, lines = planar_star
    survivors, trace = heavy_plane_prune(m, lines, Fraction(1))
    assert survivors == []
    assert len(trace) == 1
    assert len(trace[0].removed) == 3


def test_heavy_plane_prune_epsilon_guard(planar_star):
    m, lines = planar_star
    with pytest.raises(MatroidError):
        heavy_plane_prune(m, lines, Fraction(0))


def test_heavy_plane_prune_fixed_point(matroid200):
    m, lines = matroid200
    eps = Fraction(1, 2)
    survivors, trace = heavy_plane_prune(m, lines, eps)
    resurvivors, retrace = heavy_plane_prune(m, survivors, eps)
    assert retrace == []
    assert len(resurvivors) == len(survivors)


def reference_prune(m, lines, epsilon):
    """A plain per-step prune: each step closes every meeting pair's plane
    afresh and scans every line through every plane point."""
    threshold = Fraction(2) / Fraction(epsilon)
    survivors = list(lines)
    trace = []
    while True:
        by_point = core._lines_by_point(m.size, [f.members for f in survivors])
        planes = {}
        for i, j in core._common_points(by_point):
            plane = core.closure(m, survivors[i].members | survivors[j].members)
            planes.setdefault(tuple(sorted(plane)), plane)
        best, best_contained = None, []
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
        trace.append(analysis.PruneStep(plane=best, removed=tuple(best_contained)))
        removed = set(best_contained)
        survivors = [f for i, f in enumerate(survivors) if i not in removed]
    return survivors, trace


def grid3d_subject(k):
    pts, desc = grid3d(k)
    m = affine_matroid(pts)
    return m, descriptor_flats(m, desc)


def thirteen_direction_grid(k):
    """{0..k-1}^3 with every line in a direction of {-1, 0, 1}^3 that holds
    at least three grid points."""
    coords = [(a, b, c) for a in range(k) for b in range(k) for c in range(k)]
    index = {t: i for i, t in enumerate(coords)}
    m = affine_matroid([point(*t) for t in coords])
    directions = [d for d in product((-1, 0, 1), repeat=3) if d > (0, 0, 0)]
    lines = []
    for d in directions:
        for t in coords:
            if tuple(a - b for a, b in zip(t, d)) in index:
                continue  # not the first point of its line
            run = []
            while t in index:
                run.append(index[t])
                t = tuple(a + b for a, b in zip(t, d))
            if len(run) >= 3:
                lines.append(make_flat(m, run[:2]))
    return m, lines


PRUNE_SUBJECTS = (
    [f"build{n}" for n in (*range(4, 41), 200)]
    + [f"grid3d{k}" for k in range(2, 7)]
    + ["thirteen3", "thirteen4", "q3"]
)


def grid3d3_twice():
    """grid3d(3) with five of its lines given a second time."""
    m, lines = grid3d_subject(3)
    return m, list(lines) + [lines[i] for i in (0, 4, 9, 13, 26)]


@pytest.fixture(scope="module")
def prune_subject(request):
    name = request.param
    if name.startswith("build"):
        # a plain list, as the references are handed; the configuration's
        # own index is compared with it in test_configuration_index_*
        b = build_construction(int(name[5:]))
        return b.matroid.to_matroid(), list(b.matroid.matroid_lines())
    if name == "q3":
        # the 3 x 3 x 2 grid with every line: most lines hold two points
        m = affine_matroid([point(a, b, c) for a in range(3) for b in range(3) for c in range(2)])
        return m, core.flats_of_rank(m, 2)
    if name.startswith("thirteen"):
        return thirteen_direction_grid(int(name[8:]))
    return grid3d_subject(int(name[6:]))


# 4/5 puts 2/epsilon between two integers, where rounding it matters
PRUNE_EPSILONS = (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), 1, Fraction(3, 2), 5)


@pytest.mark.parametrize("prune_subject", PRUNE_SUBJECTS, indirect=True)
def test_heavy_plane_prune_matches_reference(prune_subject):
    m, lines = prune_subject
    for eps in PRUNE_EPSILONS:
        assert heavy_plane_prune(m, lines, eps) == reference_prune(m, lines, eps), eps


def test_heavy_plane_prune_closes_each_plane_once(monkeypatch):
    # grid3d(6): 648 meeting pairs (three per point) span the 18
    # axis-parallel planes; a closure per meeting pair and step would take
    # 648 on the first step alone
    m, lines = grid3d_subject(6)
    calls = []
    closure_of = core._closure_of
    monkeypatch.setattr(core, "_closure_of", lambda *a: calls.append(a) or closure_of(*a))
    _, trace = heavy_plane_prune(m, lines, Fraction(1, 2))
    assert (len(calls), len(trace)) == (18, 6)


def test_meeting_planes_keeps_the_planes_that_can_be_pruned(matroid200):
    # the construction's planes each hold their two generating lines, so
    # none reaches 4 = 2 / (1/2); grid3d(6)'s 18 axis planes hold 12 each
    assert analysis._meeting_planes(*matroid200, 4) == {}
    m, lines = grid3d_subject(6)
    planes = analysis._meeting_planes(m, lines, 4)
    assert len(planes) == 18
    for held, key in planes.items():
        assert len(held) == 12
        assert key == tuple(sorted(core.closure(m, lines[held[0]].members | lines[held[-1]].members)))
        assert held == tuple(i for i, f in enumerate(lines) if f.members <= set(key))


@lru_cache(maxsize=None)
def differential_subject(name):
    return grid3d_subject(4) if name == "grid3d4" else thirteen_direction_grid(3)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["grid3d4", "thirteen3"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.sets(st.integers(0, len(differential_subject(name)[1]) - 1), min_size=2),
        )
    ),
    st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1)]),
)
def test_heavy_plane_prune_matches_reference_on_line_subsets(subject, eps):
    name, kept = subject
    m, lines = differential_subject(name)
    subset = [lines[i] for i in sorted(kept)]
    assert heavy_plane_prune(m, subset, eps) == reference_prune(m, subset, eps)


def test_heavy_plane_prune_repushes_stale_planes(monkeypatch):
    # grid3d(4)'s 12 axis planes tie at 8 lines; the first step takes the
    # least member list, which leaves 8 of the others a line short, so
    # their heap entries go stale and are pushed back with the new count
    m, lines = grid3d_subject(4)
    pushes = []
    push = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda heap, item: pushes.append(item) or push(heap, item))
    survivors, trace = heavy_plane_prune(m, lines, Fraction(1, 2))
    assert (survivors, trace) == reference_prune(m, lines, Fraction(1, 2))
    assert trace[0].plane == tuple(range(16))
    assert pushes and all(-count < 8 for count, *_ in pushes)


def window_points(n, t):
    """The window build's points: the sums x + t in [2, 2n] of the x <= 6n
    whose base-3 digits are all 0 or 1, over the n x n grid."""
    powers = [3**k for k in range(20) if 3**k <= 6 * n]
    xs = {sum(p for k, p in enumerate(powers) if bits >> k & 1) for bits in range(2 ** len(powers))}
    return behrend_points(n, [x + t for x in xs if x <= 6 * n and 2 <= x + t <= 2 * n])


@lru_cache(maxsize=None)
def base3_window(n, t):
    """The window build's matroid, over the pruned n x n grid."""
    return TriangleFreeMatroid(prune_lines(Configuration(window_points(n, t), grid_lines(n).lines)))


# sha256 of the repr of the (plane, removed) pairs of the epsilon = 1 trace
# below, recorded from the per-step rescanning prune that the heap replaced
TRACE_DIGEST_400 = "bb69d20fbf4b31d697dbc0793b3a9d1bfef8cb1151c6eef395060b180b70eba6"


@pytest.mark.parametrize("form", ["lines", "index"])
def test_heavy_plane_prune_at_scale(form):
    # N = 400, t = -571: 17,824 points and 1,593 lines, each plane of two
    # meeting lines holding just those two; at epsilon = 1 every such plane
    # is a candidate and the prune takes 714 of them, two lines at a time;
    # the lines as a plain list close each plane, the matroid's own lines
    # (its configuration, an index) read it
    tfm = base3_window(400, -571)
    m = tfm.to_matroid()
    lines = list(tfm.matroid_lines()) if form == "lines" else tfm.matroid_lines()
    assert (m.size, len(tfm.config.line_points)) == (17824, 1593)
    assert heavy_plane_prune(m, lines, Fraction(1, 2)) == (list(tfm.matroid_lines()), [])
    survivors, trace = heavy_plane_prune(m, lines, Fraction(1))
    assert (len(trace), len(survivors)) == (714, 165)
    digest = hashlib.sha256(repr([(s.plane, s.removed) for s in trace]).encode()).hexdigest()
    assert digest == TRACE_DIGEST_400


BUILD_SUBJECTS = [name for name in PRUNE_SUBJECTS if name.startswith("build")]


@pytest.mark.parametrize("name", BUILD_SUBJECTS)
def test_configuration_index_matches_the_closures(name):
    # a build's own lines, its configuration, read each plane as the union
    # of its two lines; the same lines as a plain list close each plane
    # through the oracle
    tfm = build_construction(int(name[5:])).matroid
    m, index, lines = tfm.to_matroid(), tfm.matroid_lines(), list(tfm.matroid_lines())
    for eps in PRUNE_EPSILONS:
        threshold = math.ceil(2 / Fraction(eps))
        planes = analysis._meeting_planes(m, lines, threshold)
        assert analysis._meeting_planes(m, index, threshold) == planes, eps
        assert heavy_plane_prune(m, index, eps) == heavy_plane_prune(m, lines, eps), eps
        assert analyze(m, index, eps) == analyze(m, lines, eps), eps


def progression_free(draws):
    """The draws kept in order while no three kept ones form a 3-AP."""
    kept = set()
    for s in draws:
        if not any(2 * s - a in kept or 2 * a - s in kept for a in kept):
            kept.add(s)
    return kept


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 16).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(2, 2 * n), unique=True, max_size=2 * n))
    )
)
def test_configuration_index_matches_the_closures_on_random_grids(subject):
    # a random 3-AP-free set of sums filters the n x n grid; each threshold
    # 1..5 is ceil(2 / epsilon) at epsilon = 2 / threshold; the index side
    # takes the union rule, which calls no oracle
    n, draws = subject
    pts = behrend_points(n, progression_free(draws))
    cfg = grid_lines(n).configuration(pts)
    assume(planar.is_triangle_free(cfg))
    tfm = TriangleFreeMatroid(cfg)
    m, lines = tfm.to_matroid(), list(tfm.matroid_lines())
    calls = []
    original = TriangleFreeMatroid.is_independent
    counted = lambda self, s: calls.append(s) or original(self, s)
    for threshold in range(1, 6):
        eps = Fraction(2, threshold)
        planes = analysis._meeting_planes(m, lines, threshold)
        pruned = heavy_plane_prune(m, lines, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TriangleFreeMatroid, "is_independent", counted)
            own = tfm.to_matroid()  # its oracle is bound to the counted method
            assert analysis._meeting_planes(own, tfm.matroid_lines(), threshold) == planes, threshold
            assert heavy_plane_prune(own, tfm.matroid_lines(), eps) == pruned, threshold
        assert calls == [], threshold


def test_a_seeded_index_under_another_matroid_closes_its_planes(monkeypatch, build200):
    # only a TriangleFreeMatroid over the index itself reads a plane as the
    # union of its two lines, a second one over the same configuration
    # included; another matroid of the same size, even one deciding the
    # same sets, closes one plane per meeting pair (350 on this build)
    tfm = build200.matroid
    own = tfm.to_matroid()
    same_answers = core.Matroid(own.labels, lambda s: tfm.is_independent(s), own.span)
    twin = TriangleFreeMatroid(tfm.config).to_matroid()
    closed = []
    closure_of = core._closure_of
    monkeypatch.setattr(core, "_closure_of", lambda *a: closed.append(a) or closure_of(*a))
    counts, results = [], []
    for m in (own, same_answers, twin):
        closed.clear()
        results.append(heavy_plane_prune(m, tfm.matroid_lines(), Fraction(1, 2)))
        counts.append(len(closed))
    assert counts == [0, 350, 0]
    assert results == [(list(tfm.matroid_lines()), [])] * 3


@pytest.mark.parametrize("partition", [True, False], ids=["degree_partition", "intersection_graph"])
@pytest.mark.parametrize("bad", ["member-99", "not-a-flat", "rank-3"])
def test_line_inputs_are_validated(partition, bad):
    pts, desc = grid3d(2)
    m = affine_matroid(pts)
    line = {
        "member-99": core.Flat(frozenset({0, 99}), 2),
        "not-a-flat": frozenset({0, 1}),
        "rank-3": make_flat(m, {0, 1, 2}),
    }[bad]
    lines = [make_flat(m, desc[0][:2]), line]
    with pytest.raises(MatroidError):
        if partition:
            degree_partition(m, lines, Fraction(1, 2))
        else:
            intersection_graph(m, lines, set(range(m.size)))


def test_degree_partition_thresholds(matroid200):
    m, lines = matroid200
    e1, e2, degrees = degree_partition(m, lines, Fraction(1))
    assert e1 == {x for x, d in degrees.items() if d >= 4}
    assert e2 == {x for x, d in degrees.items() if d == 3}
    for x, d in degrees.items():
        if d <= 2:
            assert x not in e1 and x not in e2


@pytest.mark.parametrize("subject", ["matroid200", "grid3d4"])
def test_degree_partition_matches_fraction_rule(subject, matroid200):
    m, lines = matroid200 if subject == "matroid200" else grid3d_subject(4)
    for eps in (Fraction(3, 7), Fraction(2, 3), Fraction(5, 3)):
        e1, e2, degrees = degree_partition(m, lines, eps)
        heavy = Fraction(4) / eps
        assert e1 == {x for x, d in degrees.items() if Fraction(d) >= heavy}
        assert e2 == {x for x, d in degrees.items() if 3 <= d and Fraction(d) < heavy}


def test_degree_sum_bounded_by_line_pairs(matroid200):
    m, lines = matroid200
    _, _, degrees = degree_partition(m, lines, Fraction(1, 2))
    pair_sum = sum(d * (d - 1) // 2 for d in degrees.values())
    assert pair_sum <= math.comb(len(lines), 2)


def test_intersection_graph_disjoint_lines():
    m = affine_matroid([point(0, 0), point(1, 0), point(0, 5), point(1, 5)])
    lines = [make_flat(m, {0, 1}), make_flat(m, {2, 3})]
    g = intersection_graph(m, lines, set(range(m.size)))
    assert g.edges == {}


def test_construction_planes_hold_two_lines(matroid200):
    # in a triangle-free configuration the plane of two meeting lines is
    # their union, so it holds those two lines alone; 2 / epsilon > 2 for
    # every epsilon < 1, so heavy_plane_prune removes nothing
    m, lines = matroid200
    pairs = 0
    for l1, l2 in combinations([f.members for f in lines], 2):
        for x in l1 & l2:
            pairs += 1
            assert core.closure(m, l1 | l2) == l1 | l2
    assert pairs == 350
    assert heavy_plane_prune(m, lines, Fraction(99, 100)) == (lines, [])


def lines_sharing_two_points():
    m = core.Matroid(tuple(range(6)), lambda s: len(s) <= 2)
    # (0, 2) and (1, 3) each share two points; (0, 2) is the least pair
    return m, [core.Flat(frozenset(xs), 2) for xs in ((0, 1, 2), (3, 4), (0, 1), (3, 4, 5))]


def test_intersection_graph_rejects_lines_sharing_two_points():
    with pytest.raises(MatroidError, match="lines 0 and 2 share 2 points"):
        intersection_graph(*lines_sharing_two_points(), set())


@pytest.mark.parametrize("call", [heavy_plane_prune, analyze, degree_partition])
def test_prune_and_analyze_raise_the_same_error(call):
    with pytest.raises(MatroidError, match="lines 0 and 2 share 2 points"):
        call(*lines_sharing_two_points(), 1)


@pytest.mark.parametrize("call", [heavy_plane_prune, analyze])
def test_a_line_that_is_not_a_flat_is_refused(call):
    # U(4, 6): {0, 1, 2} has rank 3 but is labelled 2; the star of it and
    # {0, 3} is independent, and their plane {0, 1, 3} holds only {0, 3},
    # so the closure rule refuses the pair rather than prune {0, 3} and
    # {0, 4} into the plane {0, 3, 4}
    m = core.Matroid(tuple(range(6)), lambda s: len(s) <= 4)
    lines = [core.Flat(frozenset(xs), 2) for xs in ((0, 1, 2), (0, 3), (0, 4))]
    with pytest.raises(MatroidError, match="lines 0 and 1 meet at 0 in a plane that does not hold them both"):
        call(m, lines, 1)


def test_heavy_plane_prune_rejects_a_dependent_star():
    # two lines of U(2, 5) meeting at 0: their star {0, 1, 2} is dependent,
    # so {0, 1} and {0, 2} are not lines of a simple matroid's plane
    m = core.Matroid(tuple(range(5)), lambda s: len(s) <= 2)
    lines = [core.Flat(frozenset({0, 1}), 2), core.Flat(frozenset({0, 2}), 2)]
    with pytest.raises(MatroidError, match="dependent star"):
        heavy_plane_prune(m, lines, 1)


@pytest.mark.parametrize("subject", ["doubled", "grid3d3_twice"])
def test_heavy_plane_prune_rejects_lines_sharing_points(subject, doubled_grid):
    # a point parallel to point 0, and five lines given twice: some pair of
    # lines shares two or more points
    m, lines = doubled_grid if subject == "doubled" else grid3d3_twice()
    with pytest.raises(MatroidError, match=r"lines \d+ and \d+ share \d+ points"):
        heavy_plane_prune(m, lines, 1)


def test_analyze_rejects_a_repeated_line_before_pruning(monkeypatch):
    # the prune removes the copies at epsilon 1/2, so only a check made
    # before any plane is closed sees them, whatever epsilon is
    m, twice = grid3d3_twice()
    closed = []
    closure_of = core._closure_of
    monkeypatch.setattr(core, "_closure_of", lambda *a: closed.append(a) or closure_of(*a))
    for eps in (Fraction(1, 2), Fraction(1, 20)):
        with pytest.raises(MatroidError, match="lines 0 and 27 share 3 points"):
            analyze(m, twice, eps)
    assert closed == []


def test_intersection_graph_witnesses(matroid200):
    m, lines = matroid200
    _, e2, degrees = degree_partition(m, lines, Fraction(1, 2))
    g = intersection_graph(m, lines, e2)
    for (i, j), w in g.edges.items():
        assert w in e2
        assert lines[i].members & lines[j].members == {w}
    # distinct witnesses label distinct line pairs
    by_pair = list(g.edges.values())
    expected_edges = sum(math.comb(degrees[x], 2) for x in e2)
    assert len(g.edges) == expected_edges
    assert len(by_pair) == len(g.edges)


def test_each_degree3_joint_contributes_triangle(matroid200):
    m, lines = matroid200
    _, e2, degrees = degree_partition(m, lines, Fraction(1, 2))
    g = intersection_graph(m, lines, e2)
    stats = triangle_stats(g)
    assert stats.total >= len(e2)
    assert stats.degenerate <= sum(math.comb(degrees[x], 3) for x in e2)
    for x, count in stats.per_witness.items():
        assert count <= math.comb(degrees[x], 3)


def reference_triangle_stats(g, adj):
    """The adjacency-set triple loop over ``adj``, the graph's adjacency
    sets: every i < j < k pairwise adjacent, degenerate when its three
    witnesses are one point."""
    total = degenerate = 0
    per_witness = {}
    for i in range(g.n):
        for j in sorted(adj[i]):
            if j <= i:
                continue
            for k in sorted(adj[i] & adj[j]):
                if k <= j:
                    continue
                total += 1
                w1, w2, w3 = g.edges[(i, j)], g.edges[(i, k)], g.edges[(j, k)]
                if w1 == w2 == w3:
                    degenerate += 1
                    per_witness[w1] = per_witness.get(w1, 0) + 1
    return analysis.TriangleStats(total=total, degenerate=degenerate, per_witness=per_witness)


@pytest.mark.parametrize("prune_subject", PRUNE_SUBJECTS, indirect=True)
def test_triangle_stats_matches_reference(prune_subject, adjacency):
    m, lines = prune_subject
    for eps in (Fraction(1, 20), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1):
        survivors, _ = heavy_plane_prune(m, lines, eps)
        for subset in (lines, survivors):
            _, e2, _ = degree_partition(m, subset, eps)
            g = intersection_graph(m, subset, e2)
            assert triangle_stats(g) == reference_triangle_stats(g, adjacency(g)), eps


def test_triangle_stats_counts_crossing_triangles(adjacency):
    # after the 1/4 prune, the 13-direction grid k = 3 keeps triangles
    # whose three witnesses are distinct points
    m, lines = thirteen_direction_grid(3)
    eps = Fraction(1, 4)
    survivors, _ = heavy_plane_prune(m, lines, eps)
    _, e2, _ = degree_partition(m, survivors, eps)
    g = intersection_graph(m, survivors, e2)
    stats = triangle_stats(g)
    assert stats == reference_triangle_stats(g, adjacency(g))
    assert stats.total - stats.degenerate == 20


def test_degenerate_triangles_are_edge_disjoint(matroid200, adjacency):
    m, lines = matroid200
    _, e2, _ = degree_partition(m, lines, Fraction(1, 2))
    g = intersection_graph(m, lines, e2)
    adj = adjacency(g)
    witness_edges = {}
    for i in range(g.n):
        for j in sorted(adj[i]):
            if j <= i:
                continue
            for k in sorted(adj[i] & adj[j]):
                if k <= j:
                    continue
                ws = {g.edges[(i, j)], g.edges[(i, k)], g.edges[(j, k)]}
                if len(ws) == 1:
                    (w,) = ws
                    witness_edges.setdefault(w, set()).update({(i, j), (i, k), (j, k)})
    all_edges = [e for es in witness_edges.values() for e in es]
    assert len(all_edges) == len(set(all_edges))


def reference_analyze(m, lines, eps):
    """``analyze`` from the public stages, each handed a plain list of lines."""
    survivors, trace = heavy_plane_prune(m, lines, eps)
    e1, e2, _ = degree_partition(m, survivors, eps)
    g = intersection_graph(m, survivors, e2)
    stats = triangle_stats(g)
    return analysis.AnalysisReport(
        epsilon=Fraction(eps),
        L_initial=len(lines),
        L_after_prune=len(survivors),
        planes_pruned=len(trace),
        joints_initial=core.count_joints(m, lines),
        joints_after_prune=core.count_joints(m, survivors),
        E1_size=len(e1),
        E2_size=len(e2),
        graph_edges=len(g.edges),
        triangles=stats.total,
        degenerate_triples=stats.degenerate,
    )


@pytest.mark.parametrize("prune_subject", PRUNE_SUBJECTS, indirect=True)
def test_analyze_matches_public_stages(prune_subject):
    # the epsilons of the prune's differential test: builds keep their
    # lines below epsilon 1 (the index is reused) and the grids lose some
    m, lines = prune_subject
    for eps in PRUNE_EPSILONS:
        assert analyze(m, lines, eps) == reference_analyze(m, lines, eps), eps


def wrapped_oracle(tfm):
    """``tfm``'s matroid through an oracle that wraps its own, which does
    not take the structural rules' key; its span closes planes with no
    oracle call."""
    return core.Matroid(tfm.config.points, lambda s: tfm.is_independent(s), tfm.span)


@pytest.mark.parametrize("group", ["builds", "small", "window20", "window400"])
def test_the_degree_rule_matches_the_reference(group, small_triangle_free):
    # analyze on a construction's own lines reads its graph statistics off
    # the degrees; the public stages through a wrapped oracle walk the
    # intersection graph; at N = 400 epsilon >= 1 prunes, so the degree
    # rule reads survivors that are indexed afresh
    builds = (build_construction(n).matroid for n in range(4, 301))
    subjects = {
        "builds": lambda: (tfm for tfm in builds if tfm.config.line_points),
        "small": lambda: small_triangle_free,
        "window20": lambda: [base3_window(20, -70)],
        "window400": lambda: [base3_window(400, -571)],
    }[group]()
    pruned = False
    for tfm in subjects:
        m, index = tfm.to_matroid(), tfm.matroid_lines()
        wrapped, lines = wrapped_oracle(tfm), list(index)
        for eps in PRUNE_EPSILONS:
            report = analyze(m, index, eps)
            assert report == reference_analyze(wrapped, lines, eps), (len(lines), eps)
            pruned |= report.planes_pruned > 0
    assert pruned or group == "window20"


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1)])
def test_the_degree_rule_builds_no_graph(monkeypatch, build200, eps):
    # on the build's own lines analyze builds no intersection graph and
    # walks no triangle; through a wrapped oracle it does each once
    calls = {"intersection_graph": [], "triangle_stats": [], "_triangles_at": []}
    for name, counted in calls.items():
        original = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *a, _f=original, _c=counted: _c.append(1) or _f(*a))
    tfm = build200.matroid
    own = analyze(tfm.to_matroid(), tfm.matroid_lines(), eps)
    assert all(counted == [] for counted in calls.values())
    assert analyze(wrapped_oracle(tfm), tfm.matroid_lines(), eps) == own
    assert all(len(counted) == 1 for counted in calls.values())


@pytest.mark.parametrize("eps, builds", [(Fraction(1, 2), 1), (Fraction(1), 2)], ids=["reused", "rebuilt"])
def test_analyze_indexes_each_line_family_once(monkeypatch, matroid200, eps, builds):
    # one index for the lines, and one more for the survivors only when the
    # prune takes a step (76 steps at epsilon 1 on this build); no stage
    # builds the meeting map, which the closure rule and the graph read
    # pair by pair from by_point
    counted = {"_lines_by_point": [], "_common_points": []}
    for name, calls in counted.items():
        original = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, _f=original, _c=calls: _c.append(1) or _f(*a))
    m, lines = matroid200
    report = analyze(m, lines, eps)
    assert (report.planes_pruned > 0) == (builds == 2)
    assert len(counted["_lines_by_point"]) == builds
    assert len(counted["_common_points"]) == 0


@pytest.mark.parametrize("stage", ["prune", "partition", "graph", "joints", "analyze"])
def test_one_member_line_is_rejected_without_an_oracle_call(stage):
    # rank 2 needs two members: Flat({0}, 2) is no line, and every stage
    # rejects it up front rather than reading a one-point star or degree
    base, lines = grid3d_subject(3)
    calls = []
    m = core.Matroid(base.labels, lambda s: calls.append(s) or base.oracle(s), base.span)
    lines = list(lines) + [core.Flat(frozenset({0}), 2)]
    with pytest.raises(MatroidError, match="expected a rank-2 flat"):
        {
            "prune": lambda: heavy_plane_prune(m, lines, 1),
            "partition": lambda: degree_partition(m, lines, Fraction(1, 2)),
            "graph": lambda: intersection_graph(m, lines, set(range(m.size))),
            "joints": lambda: core.count_joints(m, lines),
            "analyze": lambda: analyze(m, lines, Fraction(1, 2)),
        }[stage]()
    assert calls == []


def test_analyze_report(matroid200):
    m, lines = matroid200
    report = analyze(m, lines, Fraction(1, 2))
    assert report.L_initial == len(lines)
    assert report.joints_after_prune >= report.joints_initial - report.planes_pruned * report.L_initial
    assert Fraction(report.E1_size) * 8 <= report.L_initial**2


def test_joints_sweep_rows():
    rows = joints_sweep([16, 50], Fraction(1, 2))
    assert [r["N"] for r in rows] == [16, 50]
    for row in rows:
        assert row.get("error") is None
        assert row["joints"] <= row["L"] ** 2
        if row["L"] == 0:
            assert "warning" in row
            assert row["joints_over_L2"] is None


def test_joints_sweep_counts_joints_once_per_row(monkeypatch):
    calls = []
    count = core.count_joints
    monkeypatch.setattr(core, "count_joints", lambda m, lines: calls.append(m) or count(m, lines))
    rows = joints_sweep([5], Fraction(1, 2))
    assert rows[0].get("error") is None
    assert len(calls) == 1


def test_sweep_row_builds_its_meeting_map_once(monkeypatch):
    # a row at epsilon = 1/2 (no prune step) asks only whether lines meet,
    # which the configuration's meeting masks answer: the gate, the union
    # rule and the degree partition read them, and no stage asks where two
    # lines meet, so the meeting map is never built (once when the gate
    # read it, 3 times before the build indexed only the populated lines
    # and the harness read its index)
    calls = []
    original = core._common_points
    counted = lambda by_point: calls.append(1) or original(by_point)
    monkeypatch.setattr(core, "_common_points", counted)
    rows = joints_sweep([200], Fraction(1, 2))
    assert rows[0].get("error") is None and rows[0]["L"] > 0
    assert len(calls) == 0


def test_the_dense_pipeline_builds_no_meeting_map(monkeypatch):
    # the dense benchmark's pipeline on a Salem-Spencer set at N = 60:
    # the gate reads the meeting masks, and the joint rule reads by_point
    calls = []
    original = core._common_points
    monkeypatch.setattr(core, "_common_points", lambda by_point: calls.append(1) or original(by_point))
    # the sums of distinct powers of 3 up to 81, a set with no 3-AP
    sums = {sum(3**k for k in range(5) if bits >> k & 1) for bits in range(32)}
    cfg = prune_lines(Configuration(behrend_points(60, sums), grid_lines(60).lines))
    assert planar.is_triangle_free(cfg)
    tfm = TriangleFreeMatroid(cfg)
    assert core.count_joints(tfm.to_matroid(), tfm.matroid_lines()) == len(triple_points(cfg)) > 0
    assert calls == []


def test_analyze_on_the_builds_own_lines_builds_no_meeting_map_and_no_flats():
    # a fresh build: no stage from the build to analyze at epsilon = 1/2
    # asks where two lines meet, and with no prune step no survivor is a flat
    build = build_construction(200)
    tfm = build.matroid
    report = analyze(tfm.to_matroid(), tfm.matroid_lines(), Fraction(1, 2))
    assert report.planes_pruned == 0 and report.L_after_prune == report.L_initial == 165
    assert "meets" in vars(build.config)
    assert set(vars(build.config)) <= INDEX_ATTRIBUTES


# what an index holds: its lines (a configuration also its coordinates) and
# the three pieces of incidence every stage reads, each cached when first read
INDEX_ATTRIBUTES = {"size", "line_points", "points", "lines", "by_point", "meets", "triangle_free"}


def test_an_index_caches_its_incidence_and_nothing_else():
    # after the build, the gate, the joint count and analyze through the
    # build's own oracle and through a wrapped one, at epsilon 1/2 and 1
    # (which prunes), and after grid3d's prune and joint count, no index
    # holds a meeting map, a flat or anything else beside its incidence
    tfm = build_construction(200).matroid
    bare = TriangleFreeMatroid(core.LineIndex(tfm.config.size, tfm.config.line_points))
    subjects = []
    for subject in (tfm, bare):
        m, index = subject.to_matroid(), subject.matroid_lines()
        wrapped = core.Matroid(m.labels, lambda s, subject=subject: subject.is_independent(s), subject.span)
        for eps in (Fraction(1, 2), Fraction(1)):
            assert analyze(m, index, eps) == analyze(wrapped, index, eps)
        subjects.append(index)
    m, index = grid3d_subject(3)
    heavy_plane_prune(m, index, Fraction(1))
    assert core.count_joints(m, index) == 27
    subjects.append(index)
    triangle = core.LineIndex(3, [(0, 1), (1, 2), (0, 2)])
    assert len(core.find_triangles(triangle)) == 1 and not triangle.triangle_free
    subjects.append(triangle)
    for index in subjects:
        assert set(vars(index)) <= INDEX_ATTRIBUTES, set(vars(index)) - INDEX_ATTRIBUTES
    assert {"by_point", "meets", "triangle_free"} <= set(vars(tfm.config))


@pytest.mark.parametrize(
    "stage",
    ["analyze-own", "analyze-wrapped", "intersection_graph", "heavy_plane_prune-grid3d", "build_construction"],
)
def test_no_stage_builds_the_meeting_map_on_a_triangle_free_input(monkeypatch, build200, stage):
    # the closure rule and the intersection graph read each meeting pair at
    # its point from by_point, and the gate builds the map only where a
    # triangle has a vertex, so on a triangle-free input nothing calls
    # core._common_points, the meeting map's reference
    calls = []
    original = core._common_points
    monkeypatch.setattr(core, "_common_points", lambda by_point: calls.append(1) or original(by_point))
    tfm = build200.matroid
    lines = list(tfm.matroid_lines())
    if stage == "analyze-own":
        for eps in (Fraction(1, 2), Fraction(1)):
            analyze(tfm.to_matroid(), tfm.matroid_lines(), eps)
    elif stage == "analyze-wrapped":
        for eps in (Fraction(1, 2), Fraction(1)):
            analyze(wrapped_oracle(tfm), lines, eps)
    elif stage == "intersection_graph":
        e2 = degree_partition(tfm.to_matroid(), lines, Fraction(1, 2))[1]
        g = intersection_graph(tfm.to_matroid(), lines, e2)
        assert len(g.edges) == sum(math.comb(len(ls), 2) for x, ls in enumerate(tfm.config.by_point) if x in e2) > 0
    elif stage == "heavy_plane_prune-grid3d":
        m, index = grid3d_subject(3)
        for eps in (Fraction(1, 2), Fraction(1)):
            heavy_plane_prune(m, list(index), eps)
    else:
        assert build_construction(200).matroid.config.triangle_free
    assert calls == []


def test_the_intersection_graph_is_the_filtered_meeting_map(build200, base3_grid):
    # the edges, in order, are the meeting map's pairs at points of e2
    for tfm in (build200.matroid, TriangleFreeMatroid(prune_lines(base3_grid))):
        m, index = wrapped_oracle(tfm), tfm.matroid_lines()
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            e2 = degree_partition(m, index, eps)[1]
            meeting = core._common_points(index.by_point)
            expected = {pair: x for pair, x in meeting.items() if x in e2}
            assert list(intersection_graph(m, index, e2).edges.items()) == list(expected.items())
            assert list(intersection_graph(m, index, set(range(m.size))).edges.items()) == list(meeting.items())


@pytest.mark.parametrize(
    "epsilon", [True, False, 0.5, 0.3, "1/2", None, 0, -1, Fraction(-1, 2)], ids=repr
)
def test_epsilon_is_read_exactly_or_refused(build200, epsilon):
    # a bool is no number here (True would run at 1), a float is refused
    # rather than read as its binary value (0.3 would run at
    # 5404319552844595/18014398509481984), and so is a str; every stage
    # that takes epsilon refuses it, and the sweep before its first row
    tfm = build200.matroid
    m, lines = tfm.to_matroid(), tfm.matroid_lines()
    stages = {
        "analyze": lambda: analyze(m, lines, epsilon),
        "heavy_plane_prune": lambda: heavy_plane_prune(m, lines, epsilon),
        "degree_partition": lambda: degree_partition(m, lines, epsilon),
        "joints_sweep": lambda: joints_sweep([5], epsilon),
    }
    message = "epsilon must be positive" if isinstance(epsilon, (int, Fraction)) and not isinstance(epsilon, bool) else (
        "epsilon must be an int or a Fraction"
    )
    for name, stage in stages.items():
        with pytest.raises(MatroidError, match=message):
            stage()


def test_an_int_epsilon_reads_as_its_fraction(build200):
    tfm = build200.matroid
    m, lines = tfm.to_matroid(), tfm.matroid_lines()
    for eps in (1, 2):
        report = analyze(m, lines, eps)
        assert report == analyze(m, lines, Fraction(eps)) and type(report.epsilon) is Fraction
        assert heavy_plane_prune(m, lines, eps) == heavy_plane_prune(m, lines, Fraction(eps))
        assert degree_partition(m, lines, eps) == degree_partition(m, lines, Fraction(eps))
    assert joints_sweep([200], 1) == joints_sweep([200], Fraction(1))


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1)])
def test_sweep_row_runs_the_gate_once(monkeypatch, eps):
    # the build's gate verdict is cached on its configuration, where the
    # prune's union rule reads it again
    calls = []
    original = core.find_triangles
    monkeypatch.setattr(core, "find_triangles", lambda *a, **k: calls.append(1) or original(*a, **k))
    rows = joints_sweep([200], eps)
    assert rows[0].get("error") is None and rows[0]["L"] > 0
    assert len(calls) == 1


@pytest.mark.parametrize("path", ["counting-matroid", "own-oracle"])
def test_oracle_calls_on_build250_are_pinned(monkeypatch, path):
    # in count_joints, one oracle call per triple point (its star) on the
    # reference path and none on the joint rule, whose stars are independent
    # by the lemma in count_joints; in the prune at epsilon = 1/2, one per
    # meeting pair (its star) on the closure rule and none on the union
    # rule, by the lemma in _meeting_planes; a fast path that drops a call
    # must change these counts here, openly
    tfm = build_construction(250).matroid
    calls = []
    if path == "counting-matroid":
        # not the matroid's own oracle, so the prune takes the closure rule;
        # span closes its planes with no oracle call, so only the stars count
        m = core.Matroid(tfm.config.points, lambda s: calls.append(s) or tfm.is_independent(s), tfm.span)
    else:
        original = TriangleFreeMatroid.is_independent
        counted = lambda self, s: calls.append(s) or original(self, s)
        monkeypatch.setattr(TriangleFreeMatroid, "is_independent", counted)
        m = tfm.to_matroid()
    index = tfm.matroid_lines()
    assert (len(triple_points(tfm.config)), len(core._common_points(index.by_point))) == (98, 350)
    assert core.count_joints(m, index) == 98
    assert len(calls) == (98 if path == "counting-matroid" else 0) and all(len(s) == 4 for s in calls)
    calls.clear()
    heavy_plane_prune(m, index, Fraction(1, 2))
    assert len(calls) == (350 if path == "counting-matroid" else 0) and all(len(s) == 3 for s in calls)


def test_the_joint_rule_matches_the_oracle(base3_grid, small_triangle_free):
    # the joint rule's count, the engine's count through an oracle that
    # wraps the matroid's own (the reference path), and is_joint point by
    # point agree on every paper-rule build with a line, the fixtures and
    # the N = 20 window build
    builds = (build_construction(n).matroid for n in range(4, 301))
    subjects = [
        *(tfm for tfm in builds if tfm.config.line_points),
        TriangleFreeMatroid(prune_lines(base3_grid)),
        *small_triangle_free,
        base3_window(20, -70),
    ]
    for tfm in subjects:
        m, index = tfm.to_matroid(), tfm.matroid_lines()
        assert _reads_own_configuration(m, index)
        wrapped = core.Matroid(tfm.config.points, lambda s, tfm=tfm: tfm.is_independent(s))
        assert not _reads_own_configuration(wrapped, index)
        fast = core.count_joints(m, index)
        assert fast == core.count_joints(wrapped, index) == sum(core.is_joint(m, x, index) for x in range(m.size))
        assert fast == len(triple_points(tfm.config))


def test_a_bare_index_takes_the_rules_with_the_references_answers():
    # the rows and columns of a 3 x 3 array: points 0-2 are its rows, 3-5
    # its columns, and a line joins each row to each column, a triple
    # system with no planar geometry and no triangle (rows and columns
    # alternate around any cycle); the matroid reads the bare index, labels
    # its points 0..5, and the joint rule, the union rule and the degree
    # rule give the reference path's answers
    index = core.LineIndex(6, [(r, 3 + c) for r in range(3) for c in range(3)])
    tfm = core.TriangleFreeMatroid(index)
    m = tfm.to_matroid()
    wrapped = core.Matroid(m.labels, lambda s: tfm.is_independent(s))
    assert m.labels == tuple(range(6)) and tfm.matroid_lines() is index
    assert _reads_own_configuration(m, index) and not _reads_own_configuration(wrapped, index)
    for lines in (index, list(index)):
        assert core.count_joints(m, lines) == core.count_joints(wrapped, lines) == 6
    report = core.check_axioms(m)
    assert report.mode == "exhaustive" and report.ok
    assert verify_construction_properties(tfm).ok
    expected = {
        Fraction(1, 2): {"joints_initial": 6, "E2_size": 6, "graph_edges": 18, "triangles": 6, "degenerate_triples": 6},
        Fraction(1): {"planes_pruned": 4, "L_after_prune": 1, "joints_after_prune": 0},
    }
    for eps, values in expected.items():
        fast = analyze(m, index, eps)
        assert fast == analyze(wrapped, list(index), eps) == analyze(m, list(index), eps)
        assert {k: getattr(fast, k) for k in values} == values
    with pytest.raises(MatroidError, match="triangle"):
        core.TriangleFreeMatroid(core.LineIndex(3, [(0, 1), (1, 2), (0, 2)]))


def test_a_bare_index_with_a_point_outside_its_ground_set_is_refused():
    # a point past the end would index past by_point, and a negative one
    # would be read as a point counted from the end (-1 as point 2), so
    # the constructor names the line before the gate reads the incidence
    for size, lines, named in ((2, [(0, 5)], r"line 0 \(0, 5\)"), (3, [(-1, 0), (0, 1)], r"line 0 \(-1, 0\)")):
        with pytest.raises(MatroidError, match=rf"{named} has a point outside the ground set of size {size}"):
            core.TriangleFreeMatroid(core.LineIndex(size, lines))


def test_line_index_is_the_configurations_incidence(build200, base3_grid):
    # the matroid's lines are its configuration, an index equal to the one
    # core builds from the same lines as a plain list
    for tfm in (build200.matroid, TriangleFreeMatroid(prune_lines(base3_grid))):
        index = tfm.matroid_lines()
        built = core._require_lines(tfm.to_matroid(), list(tfm.matroid_lines()))
        assert index is tfm.config
        assert index.size == built.size and list(index) == list(built)
        assert index.line_points == tuple(built.line_points)
        assert index.by_point == built.by_point
        meeting, built_meeting = (core._common_points(x.by_point) for x in (index, built))
        assert list(meeting.items()) == list(built_meeting.items())


def test_matroid_lines_are_the_configuration(monkeypatch, build200):
    # the matroid's lines are its configuration, a sequence of its rank-2
    # flats; the build's gate has indexed its incidence, so the joint count
    # and the harness read it as it is and index nothing again
    tfm = build200.matroid
    lines, flats = tfm.matroid_lines(), list(tfm.config)
    assert lines is tfm.config and tfm.config.triangle_free
    assert len(lines) == len(flats) == 165
    assert [lines[i] for i in range(len(lines))] == list(lines) == flats
    assert lines[-1] == flats[-1] and lines[1:3] == flats[1:3]
    counted = {"_lines_by_point": [], "_common_points": []}
    for name, calls in counted.items():
        original = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, _f=original, _c=calls: _c.append(1) or _f(*a))
    m = tfm.to_matroid()
    assert core.count_joints(m, tfm.matroid_lines()) == len(triple_points(build200.config))
    assert analyze(m, tfm.matroid_lines(), Fraction(1, 2)).L_initial == len(flats)
    assert counted == {"_lines_by_point": [], "_common_points": []}


def test_a_degenerate_build_has_no_lines():
    build = build_construction(16)
    assert build.degenerate
    lines = build.matroid.matroid_lines()
    assert lines is build.config and len(lines) == 0 and list(lines) == []
    assert core.count_joints(build.matroid.to_matroid(), lines) == 0


def test_an_index_over_another_ground_set_is_refused(build200):
    # the configuration indexes 176 points, grid3d(2) has 8: the index is
    # read as it is or refused, never re-validated as a list of lines
    m = affine_matroid(grid3d(2)[0])
    with pytest.raises(MatroidError, match="line index over 176 elements, ground set of size 8"):
        core.count_joints(m, build200.config)
    with pytest.raises(MatroidError, match="line index over 176 elements, ground set of size 8"):
        heavy_plane_prune(m, build200.config, Fraction(1, 2))


def test_the_matroid_and_its_index_hold_no_copy_of_the_incidence():
    # N = 400, window rule: the matroid and its index allocate next to
    # nothing beside the configuration they read (7.5 MB beside its 9.7 MB
    # when the matroid held its lines and points as frozensets); the gate
    # verdict that the matroid's constructor reads is taken first, so the
    # triangle search's own allocations are not counted as held
    pts = window_points(400, -571)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cfg = grid_lines(400).configuration(pts)
        built = tracemalloc.get_traced_memory()[0]
        assert cfg.triangle_free
        gated = tracemalloc.get_traced_memory()[0]
        tfm = TriangleFreeMatroid(cfg)
        index = tfm.matroid_lines()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(cfg.points), len(cfg.lines)) == (17824, 1593)
    assert held - gated < 0.02 * (built - start)
    assert index is tfm.config


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_the_union_rule_waits_for_the_gate(threshold):
    # y = 0, x = 0 and x + y = 2 close a triangle: the union rule's lemma
    # fails there, and so does the exchange axiom, so no matroid is built;
    # the oracle's rules, run through a stand-in that is no
    # TriangleFreeMatroid, have their planes closed: index and lines agree
    lines = [planar.horizontal(0), planar.vertical(0), planar.line(1, 1, 2)]
    cfg = Configuration([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1)], lines)
    assert not planar.is_triangle_free(cfg)
    with pytest.raises(MatroidError, match="triangle"):
        TriangleFreeMatroid(cfg)
    stand_in = SimpleNamespace(config=cfg)
    m = core.Matroid(cfg.points, lambda s: TriangleFreeMatroid.is_independent(stand_in, s))
    lines, eps = list(cfg), Fraction(2, threshold)
    planes = analysis._meeting_planes(m, lines, threshold)
    assert analysis._meeting_planes(m, cfg, threshold) == planes
    assert heavy_plane_prune(m, cfg, eps) == heavy_plane_prune(m, lines, eps)


@pytest.mark.parametrize(
    "error, traced",
    [(KeyError("lost"), True), (MatroidError("bad"), False), (ConstructionError("triangle"), False)],
    ids=["KeyError", "MatroidError", "ConstructionError"],
)
def test_sweep_row_bug_writes_its_traceback_to_stderr(monkeypatch, capsys, error, traced):
    # a failure that is not a domain error is a bug: its row still carries
    # the one-line error on stdout, and its traceback goes to stderr
    def failing(*args):
        raise error

    monkeypatch.setattr(analysis, "analyze", failing)
    assert cli.main(["sweep", "--ns", "5"]) == 0
    out, err = capsys.readouterr()
    (row,) = json.loads(out)
    assert row["error"] == f"{type(error).__name__}: {error}"
    assert "Traceback" not in out
    if traced:
        assert "Traceback" in err and "in failing" in err and err.endswith("KeyError: 'lost'\n")
    else:
        assert err == ""


def test_sweep_row_errors_do_not_abort():
    rows = joints_sweep([0, 16], Fraction(1, 2))
    assert "error" in rows[0]
    assert rows[1].get("error") is None


def test_sweep_csv_columns(tmp_path):
    rows = joints_sweep([16], Fraction(1, 2))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(path))
    header = path.read_text().splitlines()[0]
    assert header.split(",") == SWEEP_COLUMNS


def test_sweep_json_mirror():
    rows = joints_sweep([16], Fraction(1, 2))
    text = analysis.sweep_json(rows)
    assert '"N": 16' in text
    assert '"warning"' in text  # N=16 is degenerate
