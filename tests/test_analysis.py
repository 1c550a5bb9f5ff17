"""Heavy-plane pruning, degree partitions, and triangle statistics."""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from matroid_joints import analysis, core
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
from matroid_joints.core import MatroidError, make_flat


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


def test_degree_partition_thresholds(matroid200):
    m, lines = matroid200
    e1, e2, degrees = degree_partition(m, lines, Fraction(1))
    assert e1 == {x for x, d in degrees.items() if d >= 4}
    assert e2 == {x for x, d in degrees.items() if d == 3}
    for x, d in degrees.items():
        if d <= 2:
            assert x not in e1 and x not in e2


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


@pytest.mark.parametrize("case", ["grid3d", "doubled", "q3", "build200"])
def test_meeting_plane_is_closure_of_union(case, matroid200, doubled_grid):
    if case == "grid3d":
        pts, desc = grid3d(3)
        m = affine_matroid(pts)
        lines = descriptor_flats(m, desc)
    elif case == "doubled":
        m, lines = doubled_grid
    elif case == "q3":
        m = affine_matroid([point(a, b, c) for a in range(3) for b in range(3) for c in range(2)])
        lines = core.flats_of_rank(m, 2)
    else:
        m, lines = matroid200
    pairs = 0
    for l1, l2 in combinations([f.members for f in lines], 2):
        for x in l1 & l2:
            pairs += 1
            assert analysis._meeting_plane(m, l1, l2, x) == core.closure(m, l1 | l2)
    assert pairs


def test_construction_planes_hold_two_lines(matroid200):
    # in a triangle-free configuration the plane of two meeting lines is
    # their union, so it holds those two lines alone; 2 / epsilon > 2 for
    # every epsilon < 1, so heavy_plane_prune removes nothing
    m, lines = matroid200
    pairs = 0
    for l1, l2 in combinations([f.members for f in lines], 2):
        for x in l1 & l2:
            pairs += 1
            assert analysis._meeting_plane(m, l1, l2, x) == l1 | l2
    assert pairs == 350
    assert heavy_plane_prune(m, lines, Fraction(99, 100)) == (lines, [])


def test_intersection_graph_rejects_lines_sharing_two_points():
    m = core.Matroid(tuple(range(6)), lambda s: len(s) <= 2)
    # (0, 2) and (1, 3) each share two points; (0, 2) comes first
    lines = [core.Flat(frozenset(xs), 2) for xs in ((0, 1, 2), (3, 4), (0, 1), (3, 4, 5))]
    with pytest.raises(MatroidError, match="lines 0 and 2 share 2 points"):
        intersection_graph(m, lines, set())


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


def test_degenerate_triangles_are_edge_disjoint(matroid200):
    m, lines = matroid200
    _, e2, _ = degree_partition(m, lines, Fraction(1, 2))
    g = intersection_graph(m, lines, e2)
    adj = g.adjacency()
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


def test_analyze_report(matroid200):
    m, lines = matroid200
    report = analyze(m, lines, Fraction(1, 2))
    assert report.L_initial == len(lines)
    assert report.joints_after_prune >= report.joints_initial - report.planes_pruned * report.L_initial
    assert Fraction(report.E1_size) * 8 <= report.L_initial**2
    assert report.edge_disjoint_lower_bound == report.E2_size


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
