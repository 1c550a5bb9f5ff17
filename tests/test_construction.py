"""The grid-plus-Behrend pipeline and the triangle-free matroid."""

import copy
import random
import re
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_joints import core
from matroid_joints.behrend import BehrendParams, BehrendSet, behrend_set, has_3ap, tuned_behrend_set
from matroid_joints.construct import (
    ConstructionError,
    TriangleFreeMatroid,
    behrend_points,
    build_construction,
    grid_lines,
    verify_construction_properties,
)
from matroid_joints.core import MatroidError
from matroid_joints.planar import (
    Configuration,
    diagonal,
    find_triangles,
    horizontal,
    is_triangle_free,
    prune_lines,
    triple_points,
    vertical,
)
from scale_checks import window_points


def test_grid_lines_counts():
    fam = grid_lines(1)
    assert len(fam) == len(fam.lines) == 5
    assert set(fam.lines) == {horizontal(1), vertical(1), diagonal(-1), diagonal(0), diagonal(1)}
    assert len(grid_lines(2).lines) == 9
    assert len(grid_lines(50).lines) == 201
    with pytest.raises(MatroidError):
        grid_lines(0)


def _assert_same_configuration(cfg, reference):
    for attr in ("points", "lines", "line_points", "by_point"):
        assert getattr(cfg, attr) == getattr(reference, attr), attr
    meeting, reference_meeting = (core._common_points(x.by_point) for x in (cfg, reference))
    assert list(meeting.items()) == list(reference_meeting.items())


def test_build_indexes_exactly_the_pruned_grid_lines():
    # the grid lines read off the coordinates in one pass are prune_lines
    # over all 4N + 1, the reference, which the build never materialises
    for n in range(4, 301):
        build = build_construction(n)
        assert "lines" not in build.grid.__dict__
        pts = behrend_points(n, build.behrend.members)
        reference = prune_lines(Configuration(pts, grid_lines(n).lines))
        _assert_same_configuration(build.config, reference)
        assert len(build.grid) == len(build.grid.lines) == 4 * n + 1
    # a denser sum set: a Salem-Spencer set shifted to start at 2
    n = 40
    sums = {2 + sum(c) for k in range(5) for c in combinations((1, 3, 9, 27), k)}
    pts = behrend_points(n, sums)
    grid = grid_lines(n)
    reference = prune_lines(Configuration(pts, grid.lines))
    assert len(reference.lines) > 100
    _assert_same_configuration(grid.configuration(pts), reference)
    # points off the grid count only on the family's lines through them:
    # rows 1-3 and diagonal 0 are kept; columns 0 and 6 and diagonal 6 hold
    # two or three of the points but are no grid lines of N = 5
    pts = [(0, 3), (0, 4), (6, 1), (6, 2), (7, 1), (8, 2), (-3, 3), (9, 3), (1, 1), (2, 2)]
    grid = grid_lines(5)
    cfg = grid.configuration(pts)
    assert cfg.lines == (horizontal(1), horizontal(2), horizontal(3), diagonal(0))
    _assert_same_configuration(cfg, prune_lines(Configuration(pts, grid.lines)))
    # the N = 400 window build: 17,824 points on 1,593 lines
    pts = window_points(400, -571)
    grid = grid_lines(400)
    cfg = grid.configuration(pts)
    assert (len(cfg.points), len(cfg.lines)) == (17824, 1593)
    _assert_same_configuration(cfg, prune_lines(Configuration(pts, grid.lines)))


def test_grid_configuration_refuses_what_the_generic_path_refuses():
    # the points pass one set of checks on both paths, with one message
    grid = grid_lines(5)
    for pts in ([(1, 2), (True, 3)], [(1, 2), (2.0, 3)], [(1, 2), (3, 4), (1, 2)]):
        with pytest.raises(MatroidError) as generic:
            Configuration(pts, grid.lines)
        with pytest.raises(MatroidError, match=f"^{re.escape(str(generic.value))}$"):
            grid.configuration(pts)


def test_behrend_points_example():
    assert behrend_points(16, {4}) == [(1, 3), (2, 2), (3, 1)]
    assert behrend_points(10, set()) == []


def test_behrend_points_match_grid_scan():
    # the definition: every cell of the N x N grid whose sum is in the set
    rng = random.Random(3)
    for n in range(1, 301):
        random_sums = rng.sample(range(-3, 2 * n + 4), rng.randint(0, min(2 * n + 7, 40)))
        for sums in (behrend_set(n).members, frozenset(random_sums)):
            grid = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x + y in sums]
            assert behrend_points(n, sums) == grid


def test_behrend_points_density():
    b = {1, 2, 4, 5}
    pts = behrend_points(5, b)
    assert len(pts) >= len(b) ** 2 / 2


def test_tf_independence_rules(build5):
    tfm = build5.matroid
    cfg = tfm.config
    # any pair is independent
    assert tfm.is_independent(frozenset({0, 1}))
    # three points on a retained line are dependent
    li = next(i for i, pts in enumerate(cfg.line_points) if len(pts) >= 3)
    three = frozenset(cfg.line_points[li][:3])
    assert not tfm.is_independent(three)
    # five points are always dependent
    assert not tfm.is_independent(frozenset(range(5)))
    # unknown index is a domain error at every subset size
    for subset in ({99}, {-1}, {0, 99}, {-1, 0}, {0, 1, 99}, {-1, 0, 1}, {0, 1, 2, 99}, {0, 1, 2, 3, 99}):
        with pytest.raises(MatroidError, match="unknown point index"):
            tfm.is_independent(frozenset(subset))


@lru_cache(maxsize=None)
def meeting_map(index):
    """The index's meeting map (``core._common_points``), built once per
    index for the rules below, which read it subset by subset."""
    return core._common_points(index.by_point)


def cover_count_rule(tfm, subset):
    # reference: a 3-set is dependent iff some line covers all three points;
    # a 4-set iff some line covers three, or two lines meeting at a
    # configuration point (an angle) cover all four
    cover = {}
    for p in subset:
        for l in tfm.config.by_point[p]:
            cover[l] = cover.get(l, 0) + 1
    if len(subset) == 3:
        return not any(c == 3 for c in cover.values())
    if any(c >= 3 for c in cover.values()):
        return False
    twos = sorted(l for l, c in cover.items() if c == 2)
    return not any(
        (la, lb) in meeting_map(tfm.config) and subset <= {*tfm.config.line_points[la], *tfm.config.line_points[lb]}
        for la, lb in combinations(twos, 2)
    )


@pytest.mark.parametrize("n", [5, 10, 12])
def test_three_sets_match_cover_count_rule_exhaustively(n):
    tfm = build_construction(n).matroid
    triples = list(combinations(range(tfm.config.size), 3))
    verdicts = [tfm.is_independent(frozenset(t)) for t in triples]
    assert verdicts == [cover_count_rule(tfm, t) for t in triples]
    assert not all(verdicts)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_three_sets_match_cover_count_rule_on_build200(build200, data):
    tfm = build200.matroid
    # up to three points of one line, the rest anywhere: collinear,
    # two-on-a-line and scattered triples all come up
    line = tfm.config.line_points[data.draw(st.integers(0, len(tfm.config.line_points) - 1))]
    on_line = data.draw(st.lists(st.sampled_from(line), max_size=3, unique=True))
    anywhere = st.integers(0, tfm.config.size - 1).filter(lambda p: p not in on_line)
    rest = data.draw(st.lists(anywhere, min_size=3 - len(on_line), max_size=3 - len(on_line), unique=True))
    triple = frozenset(on_line + rest)
    assert tfm.is_independent(triple) == cover_count_rule(tfm, triple)


def angle_only(tfm, quad):
    # dependent by the angle rule alone: no line holds three of the points
    return not any(len(quad.intersection(pts)) >= 3 for pts in tfm.config.line_points) and not cover_count_rule(tfm, quad)


@pytest.mark.parametrize("case", [5, 10, 12, "base3"])
def test_four_sets_match_cover_count_rule_exhaustively(case, base3_grid):
    if case == "base3":
        tfm = TriangleFreeMatroid(prune_lines(base3_grid))
    else:
        tfm = build_construction(case).matroid
    quads = [frozenset(q) for q in combinations(range(tfm.config.size), 4)]
    verdicts = [tfm.is_independent(q) for q in quads]
    assert verdicts == [cover_count_rule(tfm, q) for q in quads]
    assert not all(verdicts)
    assert any(angle_only(tfm, q) for q in quads)


def spacious_angles(tfm):
    # meeting line pairs of at least three points each: any two points of
    # one leave two more on the other
    return [
        pair for pair in sorted(meeting_map(tfm.config)) if all(len(tfm.config.line_points[l]) >= 3 for l in pair)
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_four_sets_match_cover_count_rule_on_build200(build200, data):
    tfm = build200.matroid
    kind = data.draw(st.sampled_from(["angle", "collinear", "scattered"]))
    if kind == "angle":
        # two points of each of two lines meeting at a configuration point
        la, lb = data.draw(st.sampled_from(spacious_angles(tfm)))
        first = data.draw(st.lists(st.sampled_from(tfm.config.line_points[la]), min_size=2, max_size=2, unique=True))
        rest = sorted(set(tfm.config.line_points[lb]) - set(first))
        second = data.draw(st.lists(st.sampled_from(rest), min_size=2, max_size=2, unique=True))
        quad = frozenset(first + second)
    elif kind == "collinear":
        # three points of one line and one more point
        li = data.draw(st.sampled_from([i for i, pts in enumerate(tfm.config.line_points) if len(pts) >= 3]))
        three = data.draw(st.lists(st.sampled_from(tfm.config.line_points[li]), min_size=3, max_size=3, unique=True))
        other = st.integers(0, tfm.config.size - 1).filter(lambda p: p not in three)
        quad = frozenset(three + [data.draw(other)])
    else:
        quad = frozenset(data.draw(st.lists(st.integers(0, tfm.config.size - 1), min_size=4, max_size=4, unique=True)))
    assert tfm.is_independent(quad) == cover_count_rule(tfm, quad)
    if kind != "scattered":
        assert not tfm.is_independent(quad)


def test_angle_dependence(build5):
    tfm = build5.matroid
    # an angle: two lines meeting at a configuration point; four points
    # covered two-per-line are dependent even though no three are collinear
    for (la, lb), vertex in sorted(meeting_map(tfm.config).items()):
        pts_a = [p for p in tfm.config.line_points[la] if p != vertex]
        pts_b = [p for p in tfm.config.line_points[lb] if p != vertex]
        if len(pts_a) >= 2 and len(pts_b) >= 2:
            quad = frozenset({pts_a[0], pts_a[1], pts_b[0], pts_b[1]})
            assert not tfm.is_independent(quad)
            assert not tfm.is_independent(frozenset({vertex, pts_a[0], pts_a[1], pts_b[0]}))
            return
    pytest.fail("no angle with two spare points per line")


def test_matroid_is_simple(build5):
    tfm = build5.matroid
    n = len(tfm.config.points)
    assert all(tfm.is_independent(frozenset({i})) for i in range(n))
    assert all(
        tfm.is_independent(frozenset({i, j})) for i in range(n) for j in range(i + 1, n)
    )


def test_axioms_exhaustive_small():
    for n in (4, 5, 6):
        build = build_construction(n)
        report = core.check_axioms(build.matroid.to_matroid())
        assert report.ok and not report.inconclusive


def test_build_n50_triangle_free():
    build = build_construction(50)
    assert is_triangle_free(build.config)
    lost = len(build.config.points) - len(
        {p for pts in build.config.line_points for p in pts}
    )
    assert lost <= 4 * 50 + 1


def test_build_n16_degenerate_flag():
    build = build_construction(16)
    assert build.degenerate
    assert len(build.config.lines) == 0


def oracle_only(tfm):
    # no span: closures come from the oracle, independently of TriangleFreeMatroid.span
    return core.Matroid(tfm.config.points, tfm.is_independent)


def test_line_flats_equal_line_point_sets(build5):
    m = oracle_only(build5.matroid)
    for li, pts in enumerate(build5.config.line_points):
        flat = core.make_flat(m, pts[:2])
        assert flat.members == frozenset(pts)
        assert flat.rank == 2


def test_closure_of_line_pair_is_line(build5):
    # closure of two points on a retained line recovers exactly that line's points
    m = oracle_only(build5.matroid)
    li = next(i for i, pts in enumerate(build5.config.line_points) if len(pts) >= 2)
    pair = build5.config.line_points[li][:2]
    assert core.closure(m, pair) == frozenset(build5.config.line_points[li])


def test_matroid_lines_equal_oracle_only_closures(small_triangle_free, build200):
    # matroid_lines reads each line's point set off the configuration; the
    # oracle-only closure of its two smallest points must give the same flat
    for tfm in small_triangle_free + [build200.matroid]:
        m = oracle_only(tfm)
        flats = tfm.matroid_lines()
        assert len(flats) == len(tfm.config.line_points)
        for flat, pts in zip(flats, tfm.config.line_points):
            expected = core.make_flat(m, pts[:2])
            assert (flat.members, flat.rank) == (expected.members, expected.rank)


def assert_span_matches_oracle(tfm, subset):
    assert core.closure(tfm.to_matroid(), subset) == core.closure(oracle_only(tfm), subset)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_span_matches_oracle_closure_on_random_subsets(small_triangle_free, data):
    tfm = data.draw(st.sampled_from(small_triangle_free))
    # up to two points of one line plus points near it (on the lines that
    # meet it) or anywhere: the basis then reaches the line and angle steps
    line_points = tfm.config.line_points
    la = data.draw(st.integers(0, len(line_points) - 1))
    near = set(line_points[la]).union(*(line_points[lb] for pair in meeting_map(tfm.config)
                                        if la in pair for lb in pair))
    on_line = data.draw(st.lists(st.sampled_from(line_points[la]), max_size=2, unique=True))
    anywhere = st.integers(0, tfm.config.size - 1)
    others = data.draw(st.lists(st.one_of(st.sampled_from(sorted(near)), anywhere),
                                max_size=6 - len(on_line), unique=True))
    assert_span_matches_oracle(tfm, set(on_line) | set(others))


def test_span_matches_oracle_closure_on_angles(small_triangle_free):
    # every union of two meeting lines, and two points of one line with a
    # point of the other (off the vertex), whose closure needs the angle step
    for tfm in small_triangle_free:
        for (la, lb), vertex in meeting_map(tfm.config).items():
            a, b = set(tfm.config.line_points[la]) - {vertex}, set(tfm.config.line_points[lb]) - {vertex}
            assert_span_matches_oracle(tfm, a | b | {vertex})
            for first, second in ((a, b), (b, a)):
                if len(first) >= 2:
                    assert_span_matches_oracle(tfm, set(sorted(first)[:2]) | {min(second)})


def test_three_lines_through_point_not_coplanar(build5):
    m = build5.matroid.to_matroid()
    lines = build5.matroid.matroid_lines()
    tp = triple_points(build5.config)
    assert tp
    x = tp[0]
    through = [f for f in lines if x in f.members]
    assert len(through) >= 3
    assert core.rank(m, through[0].members | through[1].members | through[2].members) == 4
    assert core.is_joint(m, x, lines)


def test_full_rank_at_most_four(build5, build200):
    for build in (build5, build200):
        m = build.matroid.to_matroid()
        assert core.rank(m, range(m.size)) <= 4


def test_full_rank_matches_brute_force(build5):
    from itertools import combinations

    m = build5.matroid.to_matroid()
    brute = max(
        size
        for size in range(m.size + 1)
        for combo in combinations(range(m.size), size)
        if m.oracle(frozenset(combo))
    )
    assert core.rank(m, range(m.size)) == brute


def test_joints_equal_triple_points(build200):
    # the reference path: an oracle that wraps the matroid's own does not
    # take the joint rule's key, so each triple point's star is asked
    tfm = build200.matroid
    m = core.Matroid(tfm.config.points, lambda s: tfm.is_independent(s))
    assert core.count_joints(m, tfm.matroid_lines()) == len(triple_points(build200.config))


def test_verify_properties_n5(build5):
    report = verify_construction_properties(build5.matroid)
    assert report.ok


def _mutant_oracles(tfm):
    """One wrong oracle per property, each breaking that property alone."""
    # the pair that spans line 0 plus a point off it: {p, q, e} made dependent
    # puts e in the closure of line 0's pair
    p, q = tfm.config.line_points[0][:2]
    e = min(set(range(len(tfm.config.points))) - set(tfm.config.line_points[0]))
    return {
        "line_flats": lambda s: s != {p, q, e} and tfm.is_independent(s),
        "joint_independence": lambda s: len(s) != 4 and tfm.is_independent(s),
        "rank_bound": lambda s: len(s) == 5 or tfm.is_independent(s),
    }


@pytest.mark.parametrize("failing", ["line_flats", "joint_independence", "rank_bound"])
def test_verify_properties_catch_each_mutant(build200, failing):
    mutant = copy.copy(build200.matroid)
    mutant.is_independent = _mutant_oracles(build200.matroid)[failing]
    report = verify_construction_properties(mutant)
    assert not report.ok
    statuses = {name: getattr(report, name).status for name in ("line_flats", "joint_independence", "rank_bound")}
    assert statuses == {name: core.FAIL if name == failing else core.PASS for name in statuses}


def test_verify_properties_ask_the_oracle_under_a_class_level_mutant(monkeypatch, build200):
    # a mutant patched onto the class reaches the bound method itself, which
    # the joint rule's key would trust; property (2) wraps the oracle, so it
    # still asks each triple point's star and sees every 4-set dependent
    original = TriangleFreeMatroid.is_independent
    monkeypatch.setattr(TriangleFreeMatroid, "is_independent", lambda self, s: len(s) != 4 and original(self, s))
    report = verify_construction_properties(build200.matroid)
    statuses = {name: getattr(report, name).status for name in ("line_flats", "joint_independence", "rank_bound")}
    assert statuses == {"line_flats": core.PASS, "joint_independence": core.FAIL, "rank_bound": core.PASS}


def test_diagonal_triangles_come_from_3aps():
    # on the unfiltered grid, every triangle's coordinate sums form a 3-AP
    n = 5
    pts = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    cfg = Configuration(pts, grid_lines(n).lines)
    tris = find_triangles(cfg, limit=200)
    assert tris
    for t in tris:
        sums = sorted(pts[p][0] + pts[p][1] for p in t.points)
        assert sums[0] + sums[2] == 2 * sums[1]


def _small_bad_sums():
    return 5, (2, 3, 4)


def _large_bad_sums():
    # a 3-AP-free set of large sums plus the 3-AP (4, 5, 6): about 2,000
    # points with only six triangles among them, all near the corner
    large = tuple(m + 150 for m in tuned_behrend_set(200).members)
    assert not has_3ap(large)
    return 250, (4, 5, 6) + large


@pytest.mark.parametrize("sums", [_small_bad_sums, _large_bad_sums], ids=["N5", "N250"])
def test_triangle_gate_catches_bad_filter(monkeypatch, sums):
    # a coordinate-sum set with a 3-AP leaves triangles in the grid
    from matroid_joints import construct

    n, members = sums()
    bad = BehrendSet(
        members=members,
        params=BehrendParams(N=n, n=1, s=1, k=0),
        via_fallback=True,
    )
    monkeypatch.setattr(construct, "behrend_set", lambda n: bad)
    with pytest.raises(ConstructionError):
        construct.build_construction(n)


@pytest.mark.parametrize("sums", [_small_bad_sums, _large_bad_sums], ids=["N5", "N250"])
def test_a_filter_with_a_3ap_is_not_proved_and_the_walk_finds_its_triangles(monkeypatch, sums):
    # the proof needs sums with no 3-AP, so these verdicts are the walk's
    n, members = sums()
    cfg = grid_lines(n).configuration(behrend_points(n, members))
    assert has_3ap({x + y for x, y in cfg.points})
    walks = []
    original = core.find_triangles
    monkeypatch.setattr(core, "find_triangles", lambda *a, **k: walks.append(1) or original(*a, **k))
    assert not cfg.triangle_free and walks == [1]
    assert original(cfg)


def test_triangle_in_ground_set_breaks_axioms():
    # a configuration with a triangle admits no consistent matroid: the
    # exchange axiom fails on the triangle's vertices, so the constructor
    # refuses it, and the oracle's rules run through a stand-in that holds
    # only the configuration, all that ``is_independent`` reads
    pts = [(1, 1), (2, 1), (1, 0), (3, 1), (4, 1), (1, 2), (3, 2)]
    lines = [horizontal(1), vertical(1), diagonal(1)]
    cfg = Configuration(pts, lines)
    assert not is_triangle_free(cfg)
    with pytest.raises(MatroidError, match="triangle"):
        TriangleFreeMatroid(cfg)
    stand_in = SimpleNamespace(config=cfg)
    m = core.Matroid(cfg.points, lambda s: TriangleFreeMatroid.is_independent(stand_in, s))
    report = core.check_axioms(m)
    assert not report.ok
    assert report.axiom3.status == core.FAIL
    assert report.axiom3.counterexample == ((0, 1, 2), (0, 3, 5, 6))  # minimal in (size, lex) order


def test_angle_corruption_detected(build5):
    # ignoring the angle rule for 4-sets must surface as an axiom violation
    tfm = build5.matroid

    def corrupted(subset):
        if len(subset) == 4:
            cover = {}
            for p in subset:
                for l in tfm.config.by_point[p]:
                    cover[l] = cover.get(l, 0) + 1
            return not any(c >= 3 for c in cover.values())
        return tfm.is_independent(subset)

    m = core.Matroid(labels=tfm.config.points, oracle=corrupted)
    report = core.check_axioms(m)
    assert not report.ok


def test_dump_round_trip(build5):
    data = build5.to_json()
    cfg = Configuration.from_json(data)
    rebuilt = TriangleFreeMatroid(cfg)
    assert len(triple_points(cfg)) == data["triple_points"]
    assert rebuilt.is_independent(frozenset({0, 1}))
