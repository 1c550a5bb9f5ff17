"""Planar configurations: incidence, intersection, triangles, pruning."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_joints import construct, core, planar
from matroid_joints.behrend import has_3ap
from matroid_joints.construct import behrend_points, grid_lines
from matroid_joints.core import LineIndex, MatroidError
from matroid_joints.planar import (
    Configuration,
    IntLine,
    Triangle,
    diagonal,
    find_triangles,
    horizontal,
    incident,
    intersect,
    is_triangle_free,
    line,
    prune_lines,
    triple_points,
    vertical,
)


def test_line_canonicalization():
    assert line(0, 2, 6) == line(0, 1, 3)
    assert line(-1, 1, 0) == line(1, -1, 0)
    assert line(2, -2, 4) == line(1, -1, 2)
    with pytest.raises(MatroidError):
        line(0, 0, 5)
    # nor uncanonicalised: 0*x + 0*y = 0 would hold every point
    with pytest.raises(MatroidError, match="degenerate"):
        Configuration([(0, 0), (3, 4)], [horizontal(0), IntLine(0, 0, 0)])


def test_the_gate_runs_once_per_configuration(monkeypatch):
    calls = []
    original = core.find_triangles
    monkeypatch.setattr(core, "find_triangles", lambda *a, **k: calls.append(1) or original(*a, **k))
    cfg = one_triangle()
    assert not is_triangle_free(cfg) and not is_triangle_free(cfg) and not cfg.triangle_free
    assert len(calls) == 1
    assert len(find_triangles(cfg)) == 1  # the search itself is not cached


def test_incident_examples():
    assert incident(line(0, 1, 3), (5, 3))
    assert incident(line(1, -1, 0), (2, 2))
    assert not incident(line(1, 0, 4), (5, 5))


def test_intersect_examples():
    assert intersect(vertical(2), horizontal(3)) == (2, 3)
    assert intersect(horizontal(1), horizontal(2)) is None
    assert intersect(vertical(1), diagonal(0)) == (1, 1)
    with pytest.raises(MatroidError):
        intersect(horizontal(1), horizontal(1))


def test_intersect_non_integral_is_absent():
    # x + y = 1 and x - y = 2 meet at (3/2, -1/2)
    assert intersect(line(1, 1, 1), line(1, -1, 2)) is None


def test_two_lines_share_at_most_one_point():
    cfg = one_triangle()
    for i in range(len(cfg.lines)):
        for j in range(i + 1, len(cfg.lines)):
            common = set(cfg.line_points[i]) & set(cfg.line_points[j])
            assert len(common) <= 1


def one_triangle():
    return Configuration(
        [(1, 1), (1, 2), (2, 2)],
        [vertical(1), horizontal(2), diagonal(0)],
    )


def test_one_triangle_found():
    tris = find_triangles(one_triangle())
    assert len(tris) == 1
    (t,) = tris
    assert t.points == (0, 1, 2)


def test_triangle_exactly_two_incidence():
    cfg = one_triangle()
    for t in find_triangles(cfg):
        for li in t.lines:
            assert sum(1 for p in t.points if p in cfg.line_points[li]) == 2


def test_the_gate_and_the_matroid_are_re_exported_not_wrapped():
    # the gate and the oracle read only the incidence and live in core;
    # planar and construct hand out the same objects, so patching or
    # tracing one name reaches every caller
    assert planar.find_triangles is core.find_triangles
    assert planar.is_triangle_free is core.is_triangle_free
    assert planar.Triangle is core.Triangle
    assert construct.TriangleFreeMatroid is core.TriangleFreeMatroid


def test_is_triangle_free():
    assert not is_triangle_free(one_triangle())
    assert is_triangle_free(Configuration([(0, 0), (5, 7)], [horizontal(0)]))
    assert is_triangle_free(Configuration([], []))


def test_find_triangles_limit():
    # full 3x3 grid has several triangles; the limit caps the output
    pts = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    lines = [horizontal(b) for b in range(1, 4)] + [vertical(a) for a in range(1, 4)] + [
        diagonal(c) for c in range(-2, 3)
    ]
    cfg = Configuration(pts, lines)
    assert len(find_triangles(cfg, limit=2)) == 2
    assert len(find_triangles(cfg)) == 10
    for bad in (0, -3):
        with pytest.raises(MatroidError, match="limit"):
            find_triangles(cfg, limit=bad)


def test_triple_points():
    cfg = one_triangle()
    assert triple_points(cfg) == []  # every point is on exactly two lines
    pts = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    lines = [horizontal(b) for b in range(1, 4)] + [vertical(a) for a in range(1, 4)] + [
        diagonal(c) for c in range(-2, 3)
    ]
    cfg = Configuration(pts, lines)
    assert triple_points(cfg) == list(range(9))  # every grid point is a triple point


def test_prune_lines():
    cfg = Configuration([(1, 1), (2, 1)], [horizontal(1), vertical(1), horizontal(5)])
    pruned = prune_lines(cfg)
    assert pruned.lines == (horizontal(1),)
    assert pruned.points == cfg.points


@pytest.mark.parametrize("case", ["build5", "build200", "base3"])
def test_prune_lines_equals_configuration_of_kept_lines(case, request):
    if case == "base3":
        cfg = request.getfixturevalue("base3_grid")
    else:
        build = request.getfixturevalue(case)
        cfg = Configuration(behrend_points(build.N, build.behrend.members), build.grid.lines)
    kept = [l for l, pts in zip(cfg.lines, cfg.line_points) if len(pts) >= 2]
    pruned, reference = prune_lines(cfg), Configuration(cfg.points, kept)
    assert len(kept) < len(cfg.lines)
    for attr in ("points", "lines", "line_points", "by_point"):
        assert getattr(pruned, attr) == getattr(reference, attr)
    assert core._common_points(pruned.by_point) == core._common_points(reference.by_point)
    assert pruned.to_json() == reference.to_json()


def test_grid_line_helpers_equal_canonical_lines():
    for c in range(-9, 10):
        assert horizontal(c) == line(0, 1, c)
        assert vertical(c) == line(1, 0, c)
        assert diagonal(c) == line(1, -1, c)


def test_prune_idempotent():
    pts = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    cfg = Configuration(pts, [horizontal(1), horizontal(9), vertical(2), diagonal(7)])
    once = prune_lines(cfg)
    twice = prune_lines(once)
    assert once.lines == twice.lines


def test_duplicate_rejection():
    with pytest.raises(MatroidError):
        Configuration([(0, 0), (0, 0)], [])
    with pytest.raises(MatroidError):
        Configuration([], [horizontal(1), line(0, 2, 2)])
    # x = 1 twice, uncanonicalised: the two lines share (1, 0) and (1, 1)
    with pytest.raises(MatroidError, match="lines 0 and 1 share 2 points"):
        Configuration([(1, 0), (1, 1)], [IntLine(1, 0, 1), IntLine(2, 0, 2)])


@pytest.mark.parametrize(
    "points, lines",
    [
        # x + y = 2 in two forms through one point: (1, 1) would lie on
        # four lines, a triple point of three directions
        ([(1, 1), (5, 5)], [IntLine(1, 1, 2), IntLine(2, 2, 4), IntLine(0, 1, 1), IntLine(1, 0, 1)]),
        ([(0, 0)], [IntLine(0, 1, 3), IntLine(0, -2, -6)]),
    ],
    ids=["one-point", "no-point"],
)
def test_a_line_given_twice_in_any_form_is_rejected(points, lines):
    with pytest.raises(MatroidError, match="duplicate lines in configuration"):
        Configuration(points, lines)


@pytest.mark.parametrize("bad", [(1.9, 2), ("3", 2), (True, 2)])
def test_non_integer_coordinates_rejected(bad):
    # neither truncated nor coerced: (1.9, 2) must not land on y = 2 as (1, 2)
    with pytest.raises(MatroidError):
        Configuration([(5, 2), bad], [horizontal(2)])


@pytest.mark.parametrize(
    "points, lines",
    [
        ([(1, 1), (1, 2), (2, 2)], [vertical(1), horizontal(2), diagonal(0)]),
        ([(0, 0), (1, 2), (2, 1), (3, 3)], [line(2, -1, 0), line(1, -2, 0), line(1, 1, 3), horizontal(3)]),
    ],
    ids=["grid", "four-directions"],
)
def test_incidence_maps_are_built_when_read(points, lines):
    # no two directions canonicalise alike, so no two lines share two points
    # and neither the index nor the masks are needed to build the
    # configuration
    cfg = Configuration(points, lines)
    assert "by_point" not in vars(cfg) and "meets" not in vars(cfg)
    cfg.by_point
    assert "by_point" in vars(cfg) and "meets" not in vars(cfg)
    cfg.meets
    assert "meets" in vars(cfg)


def test_the_two_point_check_runs_when_two_directions_canonicalise_alike():
    # x = 1 and 2x = 4 are distinct lines of one canonical direction, so the
    # meeting masks are built up front, where two lines sharing two points
    # would raise
    cfg = Configuration([(1, 0), (2, 0)], [IntLine(1, 0, 1), IntLine(2, 0, 4), horizontal(0)])
    assert "meets" in vars(cfg)
    assert core._common_points(cfg.by_point) == {(0, 2): 0, (1, 2): 1}


def test_triangle_free_triple_line_property(build200):
    # three pairwise-meeting lines whose intersections all land in E would
    # form a triangle; in a triangle-free configuration at least one of the
    # pairwise meets must fall outside E (or coincide)
    cfg = build200.config
    point_set = set(cfg.points)
    lines = cfg.lines
    for i in range(0, len(lines), 7):
        for j in range(i + 1, len(lines), 7):
            for k in range(j + 1, len(lines), 7):
                meets = [intersect(lines[a], lines[b]) for a, b in ((i, j), (i, k), (j, k))]
                if any(p is None for p in meets) or len(set(meets)) < 3:
                    continue
                assert not all(p in point_set for p in meets)


def test_json_round_trip():
    cfg = one_triangle()
    data = cfg.to_json()
    back = Configuration.from_json(data)
    assert back.points == cfg.points
    assert back.lines == cfg.lines


coords = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coords, coords), max_size=25, unique=True),
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-12, 12)).filter(
            lambda t: t[0] or t[1]
        ),
        max_size=20,
    ),
)
def test_incidence_matches_incident_scan(points, coefficients):
    # any direction (A, B), not only the grid's; ``incident`` is the reference
    lines = list(dict.fromkeys(line(*t) for t in coefficients))
    cfg = Configuration(points, lines)
    assert cfg.line_points == tuple(
        tuple(i for i, p in enumerate(points) if incident(l, p)) for l in lines
    )
    assert cfg.by_point == tuple(
        tuple(li for li, l in enumerate(lines) if incident(l, p)) for p in points
    )
    assert core._common_points(cfg.by_point) == {
        (a, b): pi
        for a, b in combinations(range(len(lines)), 2)
        for pi, p in enumerate(points)
        if incident(lines[a], p) and incident(lines[b], p)
    }


def brute_triangles(cfg):
    """The definition, point triple by point triple: for each pair, the lines
    through both points (by ``incident``) and not through the third."""
    on = [{i for i, p in enumerate(cfg.points) if incident(l, p)} for l in cfg.lines]
    through = {
        pair: [li for li, pts in enumerate(on) if pts.issuperset(pair)]
        for pair in combinations(range(len(cfg.points)), 2)
    }
    out = []
    for i, j, k in combinations(range(len(cfg.points)), 3):
        ij, ik, jk = (
            [li for li in through[a, b] if c not in on[li]] for a, b, c in ((i, j, k), (i, k, j), (j, k, i))
        )
        out += [Triangle((i, j, k), sides) for sides in product(ij, ik, jk)]
    return out


def assert_search_matches_definition(cfg):
    full = find_triangles(cfg)
    assert full == brute_triangles(cfg)
    for k in range(1, len(full) + 2):
        assert find_triangles(cfg, limit=k) == full[:k]
    assert is_triangle_free(cfg) == (not full)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(coords, coords), min_size=3, max_size=25, unique=True),
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-12, 12)).filter(
            lambda t: t[0] or t[1]
        ),
        max_size=20,
    ),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=3, max_size=15),
)
def test_triangle_search_matches_definition(points, coefficients, joins):
    # random lines seldom hold two points, so add lines through drawn point
    # pairs, which makes triangles common
    for i, j in joins:
        if i % len(points) != j % len(points):
            (x1, y1), (x2, y2) = points[i % len(points)], points[j % len(points)]
            coefficients.append((y2 - y1, x1 - x2, (y2 - y1) * x1 + (x1 - x2) * y1))
    lines = list(dict.fromkeys(line(*t) for t in coefficients))
    assert_search_matches_definition(Configuration(points, lines))


def mask_subtraction_gate(angle, n_lines, by_point):
    """``core._triangles_at`` without its tests, with its masks read off
    the meeting map: every pair of lines through x masks off the lines
    through x and walks the rest of the lines meeting both."""
    meets = [0] * n_lines
    for a, b in angle:
        meets[a] |= 1 << b
        meets[b] |= 1 << a
    for x, ls in by_point:
        through = sum(1 << l for l in ls)
        found = []
        for l1, l2 in combinations(ls, 2):
            third = meets[l1] & meets[l2] & ~through
            while third:
                l3 = third.bit_length() - 1
                third ^= 1 << l3
                p = angle[min(l1, l3), max(l1, l3)]
                q = angle[min(l2, l3), max(l2, l3)]
                if x < p < q:
                    found.append(Triangle((x, p, q), (l1, l2, l3)))
                elif x < q < p:
                    found.append(Triangle((x, q, p), (l2, l1, l3)))
        yield found


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)]),
        min_size=4,
        max_size=8,
        unique=True,
    ),
    st.integers(1, 3),
    st.integers(-3, -1),
    st.lists(st.tuples(coords, coords), max_size=15),
    st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=10),
    st.sets(st.integers(0, 20)),
)
def test_popcount_gate_equals_mask_subtraction(normals, t1, t2, extra, joins, witnesses):
    # (0, 0) lies on the lines A x + B y = 0 of four or more directions, and
    # a point on each of the first two with the line through them closes a
    # triangle there: a point of degree d >= 4, so the gate's d - 2 is not 1
    hub = [line(a, b, 0) for a, b in normals]
    (a1, b1), (a2, b2) = normals[:2]
    p1, p2 = (b1 * t1, -a1 * t1), (b2 * t2, -a2 * t2)
    points = list(dict.fromkeys([(0, 0), p1, p2, *extra]))
    pairs = [(1, 2)] + [(i % len(points), j % len(points)) for i, j in joins]
    lines = hub + [
        line(y2 - y1, x1 - x2, (y2 - y1) * x1 + (x1 - x2) * y1)
        for (x1, y1), (x2, y2) in ((points[i], points[j]) for i, j in pairs if i != j)
    ]
    cfg = Configuration(points, list(dict.fromkeys(lines)))
    assert len(cfg.by_point[0]) >= 4
    assert any(t.points[0] == 0 for t in find_triangles(cfg))
    # the whole meeting map, and the part of it at some witnesses, as
    # ``analysis.triangle_stats`` walks it, each with the masks of its
    # points' line lists
    meeting = core._common_points(cfg.by_point)
    kept = {pair: x for pair, x in meeting.items() if x in witnesses or x == 0}
    at = [(x, ls) for x, ls in enumerate(cfg.by_point) if x in witnesses or x == 0]
    for angle, by_point in ((meeting, list(enumerate(cfg.by_point))), (kept, at)):
        expected = list(mask_subtraction_gate(angle, len(cfg.lines), by_point))
        meets = core._meeting_masks(len(cfg.lines), (ls for _, ls in by_point))
        assert list(core._triangles_at(meets, lambda: angle, by_point)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(2, 2 * n)))),
       st.booleans())
def test_triangle_search_matches_definition_on_filtered_grids(grid, prune):
    # a grid of sums in S has a triangle iff S holds a 3-AP: (x, y),
    # (x + d, y), (x + d, y + d) have sums s, s + d, s + 2d
    n, sums = grid
    cfg = Configuration(behrend_points(n, sums), grid_lines(n).lines)
    if prune:
        cfg = prune_lines(cfg)
    assert_search_matches_definition(cfg)
    assert is_triangle_free(cfg) == (not has_3ap(sums))


def assert_meets_are_the_meeting_keys(index):
    # bit j of line i's mask is set iff the two lines meet: i itself when
    # it has a point, another line when the pair is a key of the map
    meeting = core._common_points(index.by_point)
    for i, mask in enumerate(index.meets):
        expected = {j for j in range(len(index)) if j != i and (min(i, j), max(i, j)) in meeting}
        if index.line_points[i]:
            expected.add(i)
        assert {j for j in range(mask.bit_length()) if mask >> j & 1} == expected


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(2, 2 * n)))),
    st.booleans(),
    st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=6),
)
def test_meets_match_the_meeting_map_on_random_grids(grid, prune, extra):
    # filtered grids, with or without their empty and one-point lines, and
    # the same points under lines of other directions
    n, sums = grid
    pts = behrend_points(n, sums)
    cfg = Configuration(pts, grid_lines(n).lines)
    assert_meets_are_the_meeting_keys(prune_lines(cfg) if prune else cfg)
    points = list(dict.fromkeys(pts + extra))
    lines = list(dict.fromkeys(line(a, b, a * x + b * y) for a, b in ((1, 2), (2, -1)) for x, y in points))
    assert_meets_are_the_meeting_keys(Configuration(points, lines))


def test_meets_of_a_bare_index():
    # a LineIndex over plain tuples, with a line of no point and one of one
    index = LineIndex(7, ((0, 1, 2), (2, 3), (), (3, 4, 5), (6,), (0, 5)))
    assert index.meets == [0b100011, 0b001011, 0, 0b101010, 0b010000, 0b101001]
    assert_meets_are_the_meeting_keys(index)


@pytest.mark.parametrize(
    "line_points",
    [((0, 1, 2), (3, 4), (0, 1), (3, 4, 5)), ((0, 1), (1, 2), (0, 1, 2), (2, 3))],
)
def test_meets_raise_the_meeting_maps_error(line_points):
    # two lines sharing two points: the pair count tells, and the error is
    # the one ``_common_points`` names, the least such pair
    index = LineIndex(6, line_points)
    with pytest.raises(MatroidError) as expected:
        core._common_points(index.by_point)
    with pytest.raises(MatroidError) as raised:
        index.meets
    assert str(raised.value) == str(expected.value)


def test_the_gate_builds_no_meeting_map_on_a_triangle_free_input(monkeypatch, base3_grid):
    # the walk reads the masks; the map (core._common_points) is built only
    # where a triangle has a vertex, so a triangle-free input never builds
    # it, and an input with triangles builds it once a call, at the first
    # such point
    calls = []
    original = core._common_points
    monkeypatch.setattr(core, "_common_points", lambda by_point: calls.append(1) or original(by_point))
    cfg = prune_lines(base3_grid)
    assert is_triangle_free(cfg) and not find_triangles(cfg)
    assert "meets" in vars(cfg) and calls == []
    triangle = Configuration([(1, 1), (1, 2), (2, 2)], [vertical(1), horizontal(2), diagonal(0)])
    assert not is_triangle_free(triangle) and calls == [1]
    grid = Configuration([(x, y) for x in range(1, 6) for y in range(1, 6)], grid_lines(5).lines)
    calls.clear()
    assert len({t.points[0] for t in find_triangles(grid)}) > 1 and calls == [1]


def test_unfiltered_grid_triangles_are_unchanged():
    # the full 5 x 5 grid's 60 triangles, in order, equal the definition's
    cfg = Configuration([(x, y) for x in range(1, 6) for y in range(1, 6)], grid_lines(5).lines)
    found = find_triangles(cfg)
    assert len(found) == 60 and found == brute_triangles(cfg)
