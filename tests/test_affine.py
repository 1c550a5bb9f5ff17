"""Exact affine independence and the 3D grid of joints."""

import dataclasses
import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matroid_joints import affine
from matroid_joints.affine import (
    RationalPoint,
    affine_independent,
    affine_matroid,
    descriptor_flats,
    grid3d,
    integer_null_space,
    integer_rank,
    point,
)
from matroid_joints.core import LineIndex, MatroidError, check_axioms, closure, count_joints, rank


def fraction_rank(rows):
    # reference: Gauss-Jordan over Fraction, independent of integer_rank
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def points_and_subsets(draw):
    """Distinct rational points in Q^1..Q^4, some forced onto a line or a
    plane through drawn points, and subsets of up to dim + 2 of them."""
    dim = draw(st.integers(1, 4))
    coords = draw(st.lists(st.tuples(*[RATIONALS] * dim), min_size=1, max_size=6, unique=True))
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.lists(st.sampled_from(coords), min_size=2, max_size=3))
        ts = draw(st.lists(RATIONALS, min_size=len(base) - 1, max_size=len(base) - 1))
        new = tuple(
            base[0][c] + sum(t * (b[c] - base[0][c]) for t, b in zip(ts, base[1:])) for c in range(dim)
        )
        if new not in coords:
            coords.append(new)
    index = st.integers(0, len(coords) - 1)
    subsets = draw(st.lists(st.frozensets(index, max_size=dim + 2), min_size=1, max_size=8))
    return [point(*c) for c in coords], subsets


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_rank([[2, 3], [5, 7], [1, 1]]) == 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda ncols: st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=5)
    )
)
def test_integer_rank_matches_fraction_rank(rows):
    # small entries make many matrices rank-deficient; the rows are only read
    before = [list(r) for r in rows]
    assert integer_rank(rows) == fraction_rank([[Fraction(a) for a in r] for r in rows])
    assert rows == before


def test_integer_null_space():
    for rows, ncols in [([], 3), ([[2, 4, 6]], 3), ([[1, 2, 3], [2, 4, 7]], 3), ([[3, 5], [1, 1]], 2)]:
        basis = integer_null_space(rows, ncols)
        assert len(basis) == ncols - integer_rank(rows)
        assert integer_rank(basis) == len(basis)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows for v in basis)


def test_single_point_independent():
    assert affine_independent([point(3, 4)])
    assert affine_independent([])


def test_collinear_points_dependent():
    assert not affine_independent([point(0, 0), point(1, 1), point(2, 2)])


def test_rational_collinearity_is_exact():
    # slope 1/3 through awkward rationals; floats would wobble here
    pts = [point(0, 0), point(Fraction(1, 3), Fraction(1, 9)), point(1, Fraction(1, 3))]
    assert not affine_independent(pts)
    assert affine_independent([point(0, 0), point(Fraction(1, 3), Fraction(1, 9)), point(1, 1)])


def test_five_points_in_q3_dependent():
    pts = [point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(0, 0, 1), point(1, 1, 1)]
    assert not affine_independent(pts)


def test_mixed_dimension_rejected():
    with pytest.raises(MatroidError):
        affine_independent([point(0, 0), point(1, 2, 3)])
    with pytest.raises(MatroidError):
        affine_matroid([point(0, 0), point(1, 2, 3)])


def test_translation_and_permutation_invariance():
    pts = [point(0, 1), point(2, 3), point(5, 5)]
    shifted = [point(c[0] + 7, c[1] - 2) for c in (p.coords for p in pts)]
    assert affine_independent(pts) == affine_independent(shifted)
    assert affine_independent(pts) == affine_independent(pts[::-1])


def test_affine_matroid_axioms():
    m = affine_matroid(
        [point(0, 0), point(1, 0), point(0, 1), point(2, 3), point(-1, 4), point(3, -2)]
    )
    assert check_axioms(m).ok


def test_generic_q3_full_rank_four():
    m = affine_matroid([point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(0, 0, 1), point(1, 2, 3)])
    assert rank(m, range(m.size)) == 4


def test_affine_matroid_is_simple():
    m = affine_matroid([point(0, 0), point(1, 0), point(2, 0)])
    assert all(m.oracle(frozenset({a, b})) for a in range(3) for b in range(a + 1, 3))


def test_affine_oracle_rejects_unknown_index():
    # -1 is not the last point, and 8 and 99 are domain errors, at every
    # size: the range check comes before the pair rule
    m = affine_matroid(grid3d(2)[0])
    assert m.size == 8
    for subset in (
        {-1}, {8}, {-1, 7}, {3, 8}, {-2, 3}, {99}, {0, 99}, {0, 1, 99}, {0, 1, 2, 99}, {0, 1, 2, 3, 99}
    ):
        with pytest.raises(MatroidError, match="unknown point index"):
            m.oracle(frozenset(subset))


def test_oracle_answers_pairs_without_a_rank(monkeypatch):
    calls = []
    monkeypatch.setattr(affine, "integer_rank", lambda rows: calls.append(rows) or integer_rank(rows))
    m = affine_matroid([point(0, 0), point(Fraction(1, 2), 0), point(1, 0), point(0, Fraction(1, 3))])
    small = [frozenset(s) for k in range(3) for s in combinations(range(m.size), k)]
    assert all(m.oracle(s) for s in small)
    assert calls == []
    assert not m.oracle(frozenset({0, 1, 2}))
    assert len(calls) == 1


def test_oracle_answers_q3_stars_and_oversized_sets_without_a_rank(monkeypatch):
    # four points of Q^3, independent or coplanar, cost one triple
    # product; five are dependent by their count
    calls = []
    monkeypatch.setattr(affine, "integer_rank", lambda rows: calls.append(rows) or integer_rank(rows))
    m = affine_matroid([point(0, 0, 0), point(1, 0, 0), point(0, 1, 0), point(0, 0, Fraction(1, 2)), point(1, 1, 0)])
    assert m.oracle(frozenset({0, 1, 2, 3}))
    assert not m.oracle(frozenset({0, 1, 2, 4}))
    assert not m.oracle(frozenset(range(5)))
    assert calls == []


def test_affine_matroid_rejects_duplicates():
    with pytest.raises(MatroidError, match="duplicate"):
        affine_matroid([point(0, 0), point(0, 0)])
    # a duplicate among non-integer points, found on the lattice
    with pytest.raises(MatroidError, match="duplicate"):
        affine_matroid([point(Fraction(1, 3), 2), point(1, Fraction(5, 6)), point(Fraction(2, 6), 2)])
    with pytest.raises(MatroidError, match="mixed dimension"):
        affine_matroid([point(0, 0), point(0, 0, 0)])
    # distinct rational points stay distinct on the lattice
    assert affine_matroid([point(Fraction(1, 2), 0), point(1, 0), point(Fraction(1, 4), 0)]).size == 3


def test_point_rejects_coordinates_it_would_coerce():
    # Fraction(0.1) is a binary float's value, Fraction(True) is 1 and
    # Fraction("1/3") parses a string: none of them is an exact coordinate
    for bad in (0.1, True, "1/3"):
        with pytest.raises(MatroidError, match="not an int or a Fraction"):
            point(0, bad)
    assert point(-2, Fraction(1, 3)).coords == (Fraction(-2), Fraction(1, 3))


def test_directly_built_points_with_inexact_coordinates_are_refused():
    # RationalPoint does not check its coordinates; the lattice pass does:
    # a float or a str has no denominator, and a bool would read as 1 or 0
    # (so that (True, False) repeated (1, 0))
    for bad in (0.5, "1/3", True):
        pts = [RationalPoint((bad, Fraction(0))), RationalPoint((Fraction(1), Fraction(0)))]
        for build in (affine_matroid, affine_independent):
            with pytest.raises(MatroidError, match=f"coordinate {bad!r} is not an int or a Fraction"):
                build(pts)
    # an int or a Fraction built directly is exact and accepted
    assert affine_independent([RationalPoint((2, Fraction(1, 3))), RationalPoint((1, 0))])


def test_grid3d_points_share_exact_coordinates():
    for k in (2, 4):
        pts, _ = grid3d(k)
        r = range(1, k + 1)
        assert pts == tuple(point(x, y, z) for x in r for y in r for z in r)
        assert all(type(c) is Fraction for p in pts for c in p.coords)


def test_grid3d_counts():
    pts, lines = grid3d(2)
    assert len(pts) == 8 and len(lines) == 12
    pts, lines = grid3d(4)
    assert len(pts) == 64 and len(lines) == 48
    with pytest.raises(MatroidError):
        grid3d(1)


def test_grid3d_joints_equal_k_cubed():
    for k in (2, 3, 10):
        pts, desc = grid3d(k)
        m = affine_matroid(pts)
        lines = descriptor_flats(m, desc)
        joints = count_joints(m, lines)
        assert joints == k**3
        assert joints**2 * 27 == len(lines) ** 3


def test_descriptor_flats_cover_descriptor_points():
    pts, desc = grid3d(3)
    m = affine_matroid(pts)
    lines = descriptor_flats(m, desc)
    assert isinstance(lines, LineIndex) and lines.size == m.size
    assert lines.line_points == [tuple(sorted(d)) for d in desc]
    for d, f in zip(desc, lines):
        assert frozenset(d) == f.members
        assert f.rank == 2


@settings(max_examples=100, deadline=None)
@given(points_and_subsets())
def test_lattice_oracle_matches_affine_independent(case):
    pts, subsets = case
    m = affine_matroid(pts)
    for s in subsets:
        sub = [pts[i] for i in sorted(s)]
        diffs = [[a - b for a, b in zip(p.coords, sub[0].coords)] for p in sub[1:]]
        assert m.oracle(s) == affine_independent(sub) == (fraction_rank(diffs) == len(diffs))


@settings(max_examples=100, deadline=None)
@given(points_and_subsets())
def test_span_matches_oracle_closure(case):
    pts, subsets = case
    m = affine_matroid(pts)
    reference = dataclasses.replace(m, span=None)
    for s in subsets:
        assert closure(m, s) == closure(reference, s)


BIG = 2**70


@st.composite
def lattice_kernel_sets(draw):
    """1 to 6 distinct points of Q^2, Q^3 or Q^4 (Q^3 most often), with
    small, negative, beyond 2^64 or fractional coordinates; the last point
    is often moved onto the line through two earlier points or the plane
    through three, so that a 4-set of Q^3 is collinear or coplanar."""
    dim = draw(st.sampled_from([2, 3, 3, 3, 4]))
    coord = st.one_of(
        st.integers(-3, 3),
        st.integers(-BIG, BIG),
        st.fractions(min_value=-BIG, max_value=BIG, max_denominator=7),
    )
    coords = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6, unique=True))
    through = draw(st.sampled_from([0, 2, 3]))
    if 0 < through < len(coords):
        base = draw(st.permutations(coords[:-1]))[:through]
        ts = draw(st.lists(st.fractions(-5, 5, max_denominator=3), min_size=through - 1, max_size=through - 1))
        new = tuple(
            base[0][c] + sum(t * (b[c] - base[0][c]) for t, b in zip(ts, base[1:])) for c in range(dim)
        )
        assume(new not in coords[:-1])
        coords[-1] = new
    return [point(*c) for c in coords]


def stars_beyond_64_bits():
    """Four points of Q^3 with coordinates past 2^64: a coplanar set, one
    with three collinear points, and a set one unit off that plane."""
    a, u, v = (BIG, -BIG, 3), (BIG + 1, 2, -BIG), (5, BIG - 7, BIG)
    on = lambda s, t: point(*(x + s * p + t * q for x, p, q in zip(a, u, v)))
    coplanar = [on(0, 0), on(1, 0), on(0, 1), on(Fraction(2, 3), -5)]
    collinear = [on(0, 0), on(1, 0), on(-3, 0), on(0, 1)]
    off = coplanar[:3] + [point(*(c + (i == 2) for i, c in enumerate(coplanar[3].coords)))]
    return coplanar, collinear, off


@settings(max_examples=300, deadline=None)
@given(lattice_kernel_sets())
@example(stars_beyond_64_bits()[0])
@example(stars_beyond_64_bits()[1])
@example(stars_beyond_64_bits()[2])
def test_oracle_matches_integer_rank_and_fraction_rank(case):
    # the oracle answers by set size; its answer must be integer_rank's and
    # the Fraction reference's.  Only sets of 3 to dim + 1 points other
    # than the 4-sets of Q^3 reach integer_rank, once; affine_independent,
    # which admits duplicates, ranks a pair too
    pts = case
    dim, n = pts[0].dim, len(pts)
    ranked = n <= dim + 1 and (dim, n) != (3, 4)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(affine, "integer_rank", lambda rows: calls.append(rows) or integer_rank(rows))
        answer = affine_matroid(pts).oracle(frozenset(range(n)))
        assert len(calls) == (ranked and n >= 3)
        assert affine_independent(pts) == answer
        assert len(calls) == (ranked and n >= 3) + (ranked and n >= 2)
    first, *rest = affine._to_lattice(pts)
    diffs = [[a - b for a, b in zip(p, first)] for p in rest]
    assert answer == (integer_rank(diffs) == len(diffs))
    rational = [[a - b for a, b in zip(p.coords, pts[0].coords)] for p in pts[1:]]
    assert answer == (fraction_rank(rational) == len(rational))


def normal_supports(pts, subset):
    """Numbers of non-zero components of the integer normals of the subset's hull."""
    first, *rest = (pts[i].coords for i in sorted(subset))
    diffs = [[int(a - b) for a, b in zip(p, first)] for p in rest]
    return {sum(1 for c in n if c) for n in integer_null_space(diffs, len(first))}


def test_span_matches_oracle_closure_off_the_axes():
    # every line through two points of the 4 x 4 x 4 grid and a seeded
    # sample of planes through three: diagonal lines and planes have
    # normals with two or three non-zero components
    pts, _ = grid3d(4)
    m = affine_matroid(pts)
    reference = dataclasses.replace(m, span=None)
    rng = random.Random(4)
    triples = set()
    while len(triples) < 200:
        t = frozenset(rng.sample(range(len(pts)), 3))
        if m.oracle(t):
            triples.add(t)
    triples = sorted(triples, key=sorted)
    pairs = [frozenset(p) for p in combinations(range(len(pts)), 2)]
    assert set().union(*(normal_supports(pts, p) for p in pairs)) == {1, 2}
    assert set().union(*(normal_supports(pts, t) for t in triples)) == {1, 2, 3}
    for s in pairs + triples:
        assert closure(m, s) == closure(reference, s)


def test_descriptor_flats_refuse_a_pair_of_rank_one():
    # a descriptor of one point, or whose first two members repeat one
    # point, closes to rank 1
    pts, desc = grid3d(3)
    m = affine_matroid(pts)
    for bad in ((4, 4, 5), (4,)):
        with pytest.raises(MatroidError, match="descriptor 1 closes to rank 1, not to a line"):
            descriptor_flats(m, [desc[0], bad])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_descriptor_flats_compute_one_null_space_per_axis(monkeypatch, k):
    # the lines of one axis share their normals, and the slot holds them
    # from the axis's first line to its last
    calls = []
    null_space = affine.integer_null_space
    monkeypatch.setattr(affine, "integer_null_space", lambda rows, n: calls.append(rows) or null_space(rows, n))
    pts, desc = grid3d(k)
    m = affine_matroid(pts)
    lines = descriptor_flats(m, desc)
    assert len(calls) == 3
    assert list(lines) == list(descriptor_flats(dataclasses.replace(m, span=None), desc))


def test_a_line_in_the_slot_plane_gets_its_own_normals(monkeypatch):
    # the plane z = 1 of grid3d(3) fills the slot with its normal (0, 0, 1),
    # which annihilates the difference of a line in that plane; the line's
    # two points and one normal fall short of the three dimensions, so the
    # line computes its own normals and closes to its three points
    pts, _ = grid3d(3)
    at = {tuple(int(c) for c in p.coords): i for i, p in enumerate(pts)}
    m = affine_matroid(pts)
    reference = dataclasses.replace(m, span=None)
    calls = []
    null_space = affine.integer_null_space
    monkeypatch.setattr(affine, "integer_null_space", lambda rows, n: calls.append(rows) or null_space(rows, n))
    plane = frozenset(at[t] for t in [(1, 1, 1), (2, 1, 1), (1, 2, 1)])
    line = frozenset(at[t] for t in [(1, 1, 1), (2, 1, 1)])
    assert closure(m, plane) == closure(reference, plane) == frozenset(i for t, i in at.items() if t[2] == 1)
    assert closure(m, line) == closure(reference, line) == frozenset(at[x, 1, 1] for x in (1, 2, 3))
    assert len(calls) == 2


def test_descriptor_flats_spend_two_oracle_calls_per_line():
    pts, desc = grid3d(3)
    m = affine_matroid(pts)
    calls = []
    counting = dataclasses.replace(m, oracle=lambda s: calls.append(s) or m.oracle(s))
    lines = descriptor_flats(counting, desc)
    # one 2-point greedy basis gives both the closure and the rank; the
    # span costs no oracle call
    assert len(calls) == 2 * len(desc)
    assert list(lines) == list(descriptor_flats(dataclasses.replace(m, span=None), desc))


def lattice_walk(dim):
    """Points a + sum x_i u_i for lattice coordinates x in a patch of
    {0, 1, 2}^dim, with rational a and u_i (denominators up to 6), and
    walks of bases given as lattice steps from a start: lines and planes
    of a few lattice directions, so parallel classes repeat."""
    lines = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 1)]
    planes = [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1))]
    shapes = [[d[:dim]] for d in lines] + [[u[:dim], v[:dim]] for u, v in planes]
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    vector = st.tuples(*[coord] * dim)
    cell = st.tuples(*[st.integers(0, 2)] * dim)
    step = st.tuples(st.integers(0, len(shapes) - 1), cell)
    return st.tuples(vector, st.lists(vector, min_size=dim, max_size=dim), st.sets(cell, min_size=1),
                     st.lists(step, min_size=2, max_size=12)).map(lambda t: (shapes, *t))


def walk_bases(shapes, a, us, cells, steps):
    """The deduplicated points, and the walk as index sets: each drawn
    step, then every step again in alternation with the first, then the
    empty set and the whole set."""
    by_coords = {}
    for x in sorted(cells):
        p = tuple(a[c] + sum(t * u[c] for t, u in zip(x, us)) for c in range(len(a)))
        by_coords.setdefault(p, []).append(x)
    pts = [point(*p) for p in by_coords]
    index = {x: i for i, xs in enumerate(by_coords.values()) for x in xs}

    def basis(shape, x):
        ends = [x] + [tuple(a + d for a, d in zip(x, v)) for v in shapes[shape]]
        return frozenset(index[e] for e in ends if e in index)

    walk = [basis(*s) for s in steps]
    walk += [b for s in walk for b in (walk[0], s)]
    return pts, walk + [frozenset(), frozenset(range(len(pts)))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lattice_walk))
def test_span_slot_matches_oracle_closure_along_walks(case):
    pts, walk = walk_bases(*case)
    assume(any(c.denominator > 1 for p in pts for c in p.coords))
    m = affine_matroid(pts)
    reference = dataclasses.replace(m, span=None)
    for s in walk:
        assert closure(m, s) == closure(reference, s)


def test_span_slot_serves_other_bases_of_one_direction(monkeypatch):
    # three planes z = const of grid3d(3), each from a different basis of
    # the same direction space: the first builds the member table, one
    # pass over the 27 points, and the other two are lookups in it
    pts, _ = grid3d(3)
    at = {tuple(int(c) for c in p.coords): i for i, p in enumerate(pts)}
    bases = [
        [(1, 1, 1), (2, 1, 1), (1, 2, 1)],
        [(1, 1, 2), (3, 2, 2), (2, 3, 2)],
        [(3, 3, 3), (1, 3, 3), (3, 1, 3)],
    ]
    m = affine_matroid(pts)
    reference = dataclasses.replace(m, span=None)
    passes = []
    levels = affine._levels
    monkeypatch.setattr(affine, "_levels", lambda n, cols: passes.append(len(cols[0])) or levels(n, cols))
    for b, z in zip(bases, (1, 2, 3)):
        s = frozenset(at[t] for t in b)
        assert closure(m, s) == closure(reference, s) == frozenset(i for t, i in at.items() if t[2] == z)
    assert passes == [27]


@pytest.mark.parametrize(
    "walk, parts, null_spaces",
    [
        # (i) one parallel class: lines along x, from pairs anywhere on them
        ([[(1, 1, 1), (2, 1, 1)], [(1, 2, 3), (3, 2, 3)], [(2, 3, 2), (3, 3, 2)]], [(0, 1, 1), (0, 2, 3), (0, 3, 2)], 1),
        # (ii) switching class: x, y, x again, then z twice
        (
            [[(1, 1, 1), (2, 1, 1)], [(1, 1, 1), (1, 3, 1)], [(2, 2, 2), (3, 2, 2)], [(3, 1, 1), (3, 1, 2)],
             [(1, 2, 1), (1, 2, 3)]],
            [(0, 1, 1), (1, 0, 1), (0, 2, 2), (3, 1, 0), (1, 2, 0)],
            4,
        ),
        # (iii) a basis of the slot's count whose points lie in two of its
        # parts: after the x-line through (1, 1, 1), the diagonal through it
        # and (2, 2, 1); after the plane z = 1, the plane y = 1
        ([[(1, 1, 1), (2, 1, 1)], [(1, 1, 1), (2, 2, 1)]], [(0, 1, 1), "diagonal"], 2),
        ([[(1, 1, 1), (2, 1, 1), (1, 2, 1)], [(1, 1, 1), (2, 1, 1), (1, 1, 2)]], [(0, 0, 1), (0, 1, 0)], 2),
    ],
    ids=["one class", "switching class", "line in two parts", "plane in two parts"],
)
def test_span_reuses_normals_only_for_a_basis_in_one_part(monkeypatch, walk, parts, null_spaces):
    # each closure equals the oracle-only reference's; a 0 in a part's
    # pattern is a free coordinate
    pts, _ = grid3d(3)
    at = {tuple(int(c) for c in p.coords): i for i, p in enumerate(pts)}
    m = affine_matroid(pts)
    reference = dataclasses.replace(m, span=None)
    calls = []
    null_space = affine.integer_null_space
    monkeypatch.setattr(affine, "integer_null_space", lambda rows, n: calls.append(rows) or null_space(rows, n))
    for b, part in zip(walk, parts):
        s = frozenset(at[t] for t in b)
        if part == "diagonal":
            expected = frozenset(at[t, t, 1] for t in (1, 2, 3))
        else:
            expected = frozenset(i for t, i in at.items() if all(c in (0, x) for c, x in zip(part, t)))
        assert closure(m, s) == closure(reference, s) == expected
    assert len(calls) == null_spaces


def retained_bytes(m, subsets):
    """Bytes still allocated after closing each subset in turn, the
    closures themselves dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for s in subsets:
            closure(m, s)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_span_retains_at_most_one_member_table():
    # every pair of a generic set opens a new direction, and its table
    # holds about 250 bytes per point (a key of two normal values, a
    # one-point list, a dict slot); one table per direction seen would
    # hold 1,770 of them.  A table of grid3d(8) holds about 41 bytes per
    # point; one per direction would hold three
    rng = random.Random(60)
    generic = list({tuple(rng.randint(-10**6, 10**6) for _ in range(3)) for _ in range(60)})
    m = affine_matroid([point(*t) for t in generic])
    assert m.size == 60
    assert retained_bytes(m, combinations(range(m.size), 2)) <= 320 * m.size
    pts, desc = grid3d(8)
    m = affine_matroid(pts)
    assert retained_bytes(m, (members[:2] for members in desc)) <= 64 * m.size
