"""Matroid engine: rank, closure, flats, joints, and the checkers."""

import ast
import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_joints import behrend, core
from matroid_joints.affine import affine_matroid, descriptor_flats, grid3d, point
from matroid_joints.analysis import joints_sweep
from matroid_joints.construct import TriangleFreeMatroid, behrend_points, build_construction, grid_lines
from matroid_joints.core import (
    CheckResult,
    Flat,
    IncidenceReport,
    Matroid,
    MatroidError,
    check_axioms,
    check_incidence_properties,
    check_submodularity,
    closure,
    count_joints,
    flats_of_rank,
    is_joint,
    joint_witness,
    make_flat,
    rank,
)
from matroid_joints.planar import Configuration, prune_lines
from references import is_flat


def free_matroid(n):
    return Matroid(labels=tuple(range(n)), oracle=lambda s: True)


def not_two_matroid(n):
    # broken on purpose: violates Axiom 2
    return Matroid(labels=tuple(range(n)), oracle=lambda s: len(s) != 2)


@pytest.fixture(scope="module")
def square():
    # four generic points in the rational plane, no three collinear
    return affine_matroid([point(0, 0), point(1, 0), point(0, 1), point(2, 3)])


def random_points_q3(count):
    rng = random.Random(7)
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(-9, 9) for _ in range(3)))
    return affine_matroid([point(*p) for p in sorted(pts)])


@pytest.fixture(scope="module")
def random_q3():
    return random_points_q3(10)


def brute_rank(m, subset):
    # independent oracle for greedy rank: maximum independent subset size
    subset = sorted(subset)
    for size in range(len(subset), -1, -1):
        for combo in combinations(subset, size):
            if m.oracle(frozenset(combo)):
                return size
    return 0


def reference_closure(m, subset):
    # the rank definition: e is in cl(S) iff r(S + e) = r(S)
    s = frozenset(subset)
    r = brute_rank(m, s)
    return s | {e for e in range(m.size) if brute_rank(m, s | {e}) == r}


def test_rank_empty_is_zero(square):
    assert rank(square, ()) == 0


def test_rank_of_pair_in_simple_matroid(square):
    assert rank(square, {0, 1}) == 2


def test_rank_rejects_foreign_elements(square):
    with pytest.raises(MatroidError):
        rank(square, {99})


def test_bool_is_not_an_element(square):
    # True == 1 and False == 0, but neither names a ground-set element
    for subset in ([True], [False], [0, True]):
        with pytest.raises(MatroidError, match="not in ground set"):
            rank(square, subset)


def test_greedy_rank_matches_brute_force(random_q3):
    rng = random.Random(1)
    for _ in range(50):
        subset = {e for e in range(random_q3.size) if rng.random() < 0.5}
        assert rank(random_q3, subset) == brute_rank(random_q3, subset)


def test_closure_of_empty_set_is_empty_in_simple_matroid(square):
    assert closure(square, ()) == frozenset()


def test_closure_laws(random_q3):
    rng = random.Random(2)
    for _ in range(40):
        x = frozenset(e for e in range(random_q3.size) if rng.random() < 0.4)
        cl = closure(random_q3, x)
        assert x <= cl
        assert rank(random_q3, cl) == rank(random_q3, x)
        assert closure(random_q3, cl) == cl
        y = x | frozenset(e for e in range(random_q3.size) if rng.random() < 0.3)
        assert cl <= closure(random_q3, y)


def test_closure_contains_equal_rank_supersets(random_q3):
    rng = random.Random(3)
    for _ in range(40):
        x = frozenset(rng.sample(range(random_q3.size), 3))
        y = x | frozenset(rng.sample(range(random_q3.size), 2))
        if rank(random_q3, y) == rank(random_q3, x):
            assert y <= closure(random_q3, x)


def test_closure_spends_one_oracle_call_per_outside_element():
    pts, _ = grid3d(2)
    m = affine_matroid(pts)
    calls = []
    counting = Matroid(m.labels, lambda s: calls.append(s) or m.oracle(s))
    assert closure(counting, {0, 1}) == frozenset({0, 1})
    # a greedy basis of the 2-set, then one call for each of the 6 others
    assert len(calls) == 8


def test_closure_with_span_spends_only_the_basis_scan(build5):
    tfm = build5.matroid
    calls = []
    counting = Matroid(tfm.config.points, lambda s: calls.append(s) or tfm.is_independent(s), span=tfm.span)
    pair = tfm.config.line_points[0][:2]
    assert closure(counting, pair) == frozenset(tfm.config.line_points[0])
    # the greedy basis of the pair; the 6 other points cost no oracle call
    assert len(calls) == 2


def test_closure_matches_rank_definition_on_salem_spencer():
    # sums of distinct powers of 3 (base-3 digits 0 or 1) are 3-AP-free
    # (Salem-Spencer), so the filtered N = 20 grid is triangle-free
    sums = {sum(c) for k in range(5) for c in combinations((1, 3, 9, 27), k)}
    cfg = prune_lines(Configuration(behrend_points(20, sums), grid_lines(20).lines))
    tfm = TriangleFreeMatroid(cfg)
    m = tfm.to_matroid()
    assert m.size == 105
    rng = random.Random(5)
    # two points of each line, an angle (a point and one more point on each
    # of two lines through it), and random sets up to a dependent 5-set
    line_points = tfm.config.line_points
    subsets = [pts[:2] for pts in line_points]
    subsets += [
        {p, min(set(line_points[a]) - {p}), min(set(line_points[b]) - {p})}
        for p, ls in enumerate(tfm.config.by_point)
        for a, b in combinations(ls, 2)
    ]
    subsets += [rng.sample(range(m.size), rng.randint(0, 5)) for _ in range(100)]
    for x in subsets:
        assert closure(m, x) == reference_closure(m, x)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        min_size=3,
        max_size=8,
        unique=True,
    )
)
def test_closure_matches_rank_definition_in_q3(coords):
    m = affine_matroid([point(*c) for c in coords])
    x = frozenset(range(0, len(coords), 2))
    assert closure(m, x) == reference_closure(m, x)


def test_is_flat(square):
    assert is_flat(square, ())
    x = frozenset({0, 1})
    assert is_flat(square, closure(square, x))


def test_intersection_of_flats_is_flat(random_q3):
    rng = random.Random(4)
    for _ in range(30):
        f1 = closure(random_q3, rng.sample(range(random_q3.size), 3))
        f2 = closure(random_q3, rng.sample(range(random_q3.size), 3))
        assert is_flat(random_q3, f1 & f2)


def test_flats_of_equal_rank_are_equal_or_incomparable(random_q3):
    lines = flats_of_rank(random_q3, 2)
    for f1, f2 in combinations(lines, 2):
        assert not (f1.members < f2.members)


def test_flats_of_rank_one_are_singletons(square):
    flats = flats_of_rank(square, 1)
    assert sorted(f.members for f in flats) == [frozenset({i}) for i in range(4)]


def test_every_pair_in_exactly_one_line(random_q3):
    lines = flats_of_rank(random_q3, 2)
    for a, b in combinations(range(random_q3.size), 2):
        assert sum(1 for f in lines if {a, b} <= f.members) == 1


def test_rank_k_set_in_unique_rank_k_flat(random_q3):
    # closure of an independent pair appears exactly once in flats_of_rank(2)
    lines = flats_of_rank(random_q3, 2)
    keys = [f.key() for f in lines]
    assert len(keys) == len(set(keys))
    cl = closure(random_q3, {0, 1})
    assert keys.count(tuple(sorted(cl))) == 1


def test_flats_of_rank_guard():
    m = free_matroid(6)
    with pytest.raises(MatroidError):
        flats_of_rank(m, 4)
    assert flats_of_rank(m, 4, allow_large=True)


@pytest.mark.parametrize("subject", ["grid3d3", "base3_n8"])
def test_flats_of_rank_asks_one_oracle_call_per_subset(subject, base3_grid):
    # an independent k-subset is its own greedy basis, and the matroid's
    # span closes it: each k-subset costs its one independence call
    m = {
        "grid3d3": lambda: affine_matroid(grid3d(3)[0]),
        "base3_n8": lambda: TriangleFreeMatroid(prune_lines(base3_grid)).to_matroid(),
    }[subject]()
    for k in (1, 2, 3):
        calls = []
        counting = dataclasses.replace(m, oracle=lambda s: calls.append(s) or m.oracle(s))
        assert flats_of_rank(counting, k) == flats_of_rank(m, k)
        assert len(calls) == math.comb(m.size, k)
        assert all(len(s) == k for s in calls)


def test_grid_axis_lines_not_coplanar():
    pts, desc = grid3d(2)
    m = affine_matroid(pts)
    lines = descriptor_flats(m, desc)
    through0 = [f for f in lines if 0 in f.members]
    assert len(through0) == 3
    assert rank(m, frozenset().union(*(f.members for f in through0))) == 4
    assert is_joint(m, 0, lines)


def test_is_joint_needs_three_lines(square):
    l1 = make_flat(square, {0, 1})
    l2 = make_flat(square, {0, 2})
    assert not is_joint(square, 0, [l1, l2])


def test_joint_witness_validates_like_is_joint():
    pts, desc = grid3d(2)
    m = affine_matroid(pts)
    lines = descriptor_flats(m, desc)
    assert joint_witness(m, 0, lines) is not None
    with pytest.raises(MatroidError):
        joint_witness(m, 99, lines)
    with pytest.raises(MatroidError):
        joint_witness(m, 0, [Flat(frozenset({0}), 1)])
    with pytest.raises(MatroidError):
        count_joints(m, [Flat(frozenset(), 2)])


@pytest.mark.parametrize("call", ["count", "witness"])
def test_a_rank_three_line_is_refused_by_the_joint_search(call):
    # U(4, 6): {0, 1, 2} is labelled rank 2 but has rank 3; its star with
    # {0, 3} and {0, 4} is independent, so 0 would count as a joint
    m = Matroid(tuple(range(6)), lambda s: len(s) <= 4)
    lines = [Flat(frozenset(xs), 2) for xs in ((0, 1, 2), (0, 3), (0, 4))]
    with pytest.raises(MatroidError, match="line 0 has rank 3, not 2"):
        count_joints(m, lines) if call == "count" else joint_witness(m, 0, lines)


def test_joint_witness_ranks_only_the_lines_through_its_point():
    # the rank-3 set {0, 1, 2} labelled rank 2 does not pass through 4, so
    # asking about 4 ranks only the line {0, 4}: one greedy basis, two calls
    asked = []
    m = Matroid(tuple(range(6)), lambda s: asked.append(s) or len(s) <= 4)
    lines = [Flat(frozenset(xs), 2) for xs in ((0, 1, 2), (0, 3), (0, 4))]
    assert joint_witness(m, 4, lines) is None
    assert sorted(map(len, asked)) == [1, 2]


def union_witness(m, x, lines):
    # the definition: the first three lines through x, in combinations
    # order, whose union has rank >= 4
    through = [i for i, f in enumerate(lines) if x in f.members]
    for combo in combinations(through, 3):
        if rank(m, frozenset().union(*(lines[i].members for i in combo))) >= 4:
            return combo
    return None


def random_grid_matroid(seed):
    # points of {0,1,2}^3, so that many lines hold three points
    rng = random.Random(seed)
    cells = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    m = affine_matroid([point(*p) for p in rng.sample(cells, rng.randint(6, 12))])
    return m, flats_of_rank(m, 2)


@pytest.mark.parametrize("case", ["q3-1", "q3-2", "q3-3", "plane", "build5", "build200", "doubled"])
def test_joints_match_full_union_rank(case, build5, matroid200, doubled_grid):
    if case.startswith("q3"):
        m, lines = random_grid_matroid(int(case[3:]))
    elif case == "plane":
        # a 3 x 3 grid in a plane of Q^3: every point is on four coplanar lines
        m = affine_matroid([point(a, b, 0) for a in range(3) for b in range(3)])
        lines = flats_of_rank(m, 2)
    elif case == "build5":
        m, lines = build5.matroid.to_matroid(), build5.matroid.matroid_lines()
    elif case == "build200":
        m, lines = matroid200
    else:
        m, lines = doubled_grid
    witnesses = [union_witness(m, x, lines) for x in range(m.size)]
    assert count_joints(m, lines) == sum(w is not None for w in witnesses)
    for x in range(m.size):
        assert joint_witness(m, x, lines) == witnesses[x]
        assert is_joint(m, x, lines) == (witnesses[x] is not None)


def test_doubled_point_is_a_joint(doubled_grid):
    # the lines through 8 have 0 as their smallest member, so x = 8 plus one
    # other point per line is {0, 8} of rank 1; the union rank decides
    m, lines = doubled_grid
    assert joint_witness(m, 8, lines) is not None
    assert count_joints(m, lines) == 9


def test_count_joints_empty():
    m = free_matroid(4)
    assert count_joints(m, []) == 0


def test_count_joints_grid_k2():
    pts, desc = grid3d(2)
    m = affine_matroid(pts)
    lines = descriptor_flats(m, desc)
    assert count_joints(m, lines) == 8


@pytest.mark.parametrize("case, calls", [("build200", 98), ("grid3d-3", 27)])
def test_count_joints_asks_one_oracle_call_per_joint(case, calls, build200):
    # every triple point of these matroids is a joint, decided by one oracle
    # call on its star of four points; an index is read as it is, and the
    # same lines as a plain list first cost one greedy basis each, one
    # oracle call per member
    if case == "build200":
        m, lines = build200.matroid.to_matroid(), build200.matroid.matroid_lines()
    else:
        pts, desc = grid3d(3)
        m = affine_matroid(pts)
        lines = descriptor_flats(m, desc)
    asked = []
    counting = dataclasses.replace(m, oracle=lambda s: asked.append(s) or m.oracle(s))
    joints = count_joints(counting, lines)
    assert len(asked) == calls == joints
    assert all(len(s) == 4 for s in asked)
    asked.clear()
    assert count_joints(counting, list(lines)) == joints
    assert len(asked) == calls + sum(len(f.members) for f in lines)


def test_axioms_pass_for_free_matroid():
    report = check_axioms(free_matroid(5))
    assert report.ok and not report.inconclusive


def test_axioms_fail_for_not_two_oracle():
    report = check_axioms(not_two_matroid(4))
    assert report.axiom2.status == core.FAIL
    small, big = report.axiom2.counterexample
    assert len(small) == 2 and len(big) == 3
    # the first independent set in (size, lex) order that has a dependent subset
    assert report.axiom2.counterexample == ((1, 2), (0, 1, 2))


def test_axiom_counterexample_is_minimal_in_size_then_lex():
    # violations at size 2 ({0, 1} minus 1) and size 3 ({0, 1, 2} minus 0):
    # the smaller set is reported
    m = Matroid(labels=tuple(range(4)), oracle=lambda s: s not in ({0}, {1, 2}))
    assert check_axioms(m).axiom2.counterexample == ((0,), (0, 1))


def test_axioms_sampled_without_an_independent_pair_is_inconclusive():
    # U(1, 30): every independent set has at most one element, so no sampled
    # check can exercise axioms 2 and 3
    report = check_axioms(Matroid(labels=tuple(range(30)), oracle=lambda s: len(s) <= 1))
    assert report.mode == "sampled"
    assert report.inconclusive and not report.ok
    assert report.axiom1.ok
    assert report.axiom2.status == report.axiom3.status == core.INCONCLUSIVE


def test_axioms_sampled_mode():
    report = check_axioms(random_points_q3(11), rng_seed=1)
    assert report.mode == "sampled"
    assert report.ok


def test_axiom_check_method_follows_ground_set_size():
    uniform = lambda s: len(s) <= 2  # U(2, n)
    assert check_axioms(Matroid(tuple(range(10)), uniform)).mode == "exhaustive"
    assert check_axioms(Matroid(tuple(range(11)), uniform)).mode == "sampled"


def test_sampled_axioms_reach_independent_sets_of_the_construction(matroid200):
    # the greedy bases have four points each: the checks run on sets that
    # the construction's oracle calls independent
    m, _ = matroid200
    seen = []
    counting = dataclasses.replace(m, oracle=lambda s: m.oracle(s) and (seen.append(s) or True))
    report = check_axioms(counting)
    assert report.mode == "sampled"
    assert report.ok and not report.inconclusive
    assert sum(len(s) >= 2 for s in seen) >= 100


def test_sampled_axioms_catch_dependent_three_sets(matroid200):
    # every 3-set dependent, 4-sets by the construction's rule: an
    # independent 4-set cannot augment any independent pair
    m, _ = matroid200
    mutant = dataclasses.replace(m, oracle=lambda s: len(s) != 3 and m.oracle(s))
    report = check_axioms(mutant)
    assert report.mode == "sampled"
    assert report.axiom3.status == core.FAIL
    small, big = report.axiom3.counterexample
    assert len(small) == 2 and len(big) == 4


@pytest.mark.parametrize(
    "oracle, axiom",
    [
        # a greedy walk stops at one element; a random 3-set cannot augment it
        (lambda s: len(s) != 2, "axiom3"),
        # a greedy basis holds 0; its random subsets without 0 are dependent
        (lambda s: 0 in s or len(s) <= 1, "axiom2"),
        # a greedy basis has three elements when the walk's first two lie in
        # 0..9, else two, which cannot augment from a three-element one
        (lambda s: len(s) <= 2 or (len(s) == 3 and max(s) < 10), "axiom3"),
    ],
    ids=["not-two", "needs-zero", "two-ranks"],
)
def test_sampled_axioms_catch_broken_oracles(oracle, axiom):
    report = check_axioms(Matroid(labels=tuple(range(40)), oracle=oracle))
    assert report.mode == "sampled"
    assert getattr(report, axiom).status == core.FAIL


def test_submodularity_x_equals_y(square):
    x = frozenset({0, 1})
    assert rank(square, x | x) + rank(square, x & x) == 2 * rank(square, x)


def test_submodularity_equal_rank_supersets(random_q3):
    # X in Y1, Y2 with equal ranks forces rank(Y1 | Y2) = rank(X)
    x = frozenset({0, 1, 2})
    y1 = closure(random_q3, x)
    y2 = closure(random_q3, x) | x
    if rank(random_q3, y1) == rank(random_q3, x) == rank(random_q3, y2):
        assert rank(random_q3, y1 | y2) == rank(random_q3, x)


def test_submodularity_no_violations(random_q3):
    assert check_submodularity(random_q3, pairs=300, rng_seed=0).ok


@pytest.mark.parametrize("case", ["build200", "q3"])
def test_submodularity_pairs_differ_in_rank(case, matroid200, monkeypatch):
    # X and Y come from a basis plus two dependent elements, so most pairs
    # see different ranks among X | Y, X & Y, X and Y
    m = matroid200[0] if case == "build200" else random_points_q3(12)
    ranks = []
    monkeypatch.setattr(core, "rank", lambda m, s: ranks.append(rank(m, s)) or ranks[-1])
    assert check_submodularity(m, pairs=300, rng_seed=0).ok
    quads = [ranks[i : i + 4] for i in range(0, len(ranks), 4)]
    assert len(quads) == 300
    assert sum(len(set(q)) > 1 for q in quads) >= 250


def test_incidence_properties_pass(random_q3):
    assert check_incidence_properties(random_q3, samples=400).ok


def test_incidence_reports_are_pinned(build5):
    # sampled indices are drawn from range(...) and the (line, plane) pair
    # of an index is read by divmod; the draws, and so the verdicts and
    # counterexamples, are those of sampling from the full pair lists
    m = affine_matroid(grid3d(3)[0])
    flips = {frozenset({3, 8, 15}), frozenset({18, 24, 25})}
    broken = dataclasses.replace(m, span=None, oracle=lambda s: (s in flips) != m.oracle(s))
    ok = CheckResult(core.PASS)
    assert check_incidence_properties(build5.matroid.to_matroid()) == IncidenceReport(ok, ok, ok, ok, 24, 35)
    assert check_incidence_properties(m) == IncidenceReport(ok, ok, ok, ok, 253, 491)
    assert check_incidence_properties(broken, samples=100) == IncidenceReport(
        CheckResult(core.FAIL, (18, 21), "2 lines"),
        ok,
        CheckResult(core.FAIL, ((18, 21, 24, 25), (11, 21, 25))),
        CheckResult(core.FAIL, ((2, 13, 24), (18, 21, 24, 25)), "0 planes"),
        253,
        490,
    )


def reference_incidence(m, rng_seed=0, samples=1000):
    """The scanning incidence check: every line or plane is tested for each
    sampled pair, triple or meeting pair, and the meeting pairs come from
    all pairs of lines."""
    for e in range(m.size):
        if not m.oracle(frozenset({e})):
            raise MatroidError(f"matroid is not simple: singleton {{{e}}} is dependent")
    for a, b in combinations(range(m.size), 2):
        if not m.oracle(frozenset({a, b})):
            raise MatroidError(f"matroid is not simple: pair {{{a}, {b}}} is dependent")

    rng = random.Random(rng_seed)
    lines = core.flats_of_rank(m, 2)
    planes = core.flats_of_rank(m, 3)
    line_sets = [f.members for f in lines]
    plane_sets = [f.members for f in planes]

    def sample_or_all(total):
        if total <= samples:
            return range(total)
        return sorted(rng.sample(range(total), samples))

    def pick(items):
        return [items[k] for k in sample_or_all(len(items))]

    r1 = CheckResult(core.PASS)
    for a, b in pick(list(combinations(range(m.size), 2))):
        n_lines = sum(1 for s in line_sets if a in s and b in s)
        if n_lines != 1:
            r1 = CheckResult(core.FAIL, counterexample=(a, b), detail=f"{n_lines} lines")
            break

    r2 = CheckResult(core.PASS)
    for t in pick(list(combinations(range(m.size), 3))):
        if any(set(t) <= s for s in line_sets):
            continue
        n_planes = sum(1 for s in plane_sets if set(t) <= s)
        if n_planes != 1:
            r2 = CheckResult(core.FAIL, counterexample=t, detail=f"{n_planes} planes")
            break

    r3 = CheckResult(core.PASS)
    for k in sample_or_all(len(lines) * len(planes)):
        i, j = divmod(k, len(planes))
        if len(line_sets[i] & plane_sets[j]) >= 2 and not line_sets[i] <= plane_sets[j]:
            r3 = CheckResult(core.FAIL, counterexample=(tuple(sorted(line_sets[i])), tuple(sorted(plane_sets[j]))))
            break

    r4 = CheckResult(core.PASS)
    meeting = [(i, j) for i, j in combinations(range(len(lines)), 2) if line_sets[i] & line_sets[j]]
    for i, j in pick(meeting):
        union = line_sets[i] | line_sets[j]
        n_planes = sum(1 for s in plane_sets if union <= s)
        if n_planes != 1:
            r4 = CheckResult(
                core.FAIL,
                counterexample=(tuple(sorted(line_sets[i])), tuple(sorted(line_sets[j]))),
                detail=f"{n_planes} planes",
            )
            break

    return IncidenceReport(r1, r2, r3, r4, lines=len(lines), planes=len(planes))


def flipped_grid3d3():
    """grid3d(3) with the oracle of two 3-sets flipped: a matroid that
    breaks properties (1), (3) and (4)."""
    m = affine_matroid(grid3d(3)[0])
    flips = {frozenset({3, 8, 15}), frozenset({18, 24, 25})}
    return dataclasses.replace(m, span=None, oracle=lambda s: (s in flips) != m.oracle(s))


def criterion2_q3():
    """The 12 random points of Q^3 that acceptance criterion 2 checks."""
    rng = random.Random(12)
    pts = []
    seen = set()
    while len(pts) < 12:
        c = (rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 40))
        if c not in seen:
            seen.add(c)
            pts.append(point(*c))
    return affine_matroid(pts)


@pytest.mark.parametrize("subject", ["build5", "grid3d3", "grid3d3_flipped", "q3_12", "base3_n8"])
def test_incidence_reports_match_scanning_reference(subject, build5, base3_grid, monkeypatch):
    m = {
        "build5": lambda: build5.matroid.to_matroid(),
        "grid3d3": lambda: affine_matroid(grid3d(3)[0]),
        "grid3d3_flipped": flipped_grid3d3,
        "q3_12": criterion2_q3,
        "base3_n8": lambda: TriangleFreeMatroid(prune_lines(base3_grid)).to_matroid(),
    }[subject]()
    # both checks read the subject's flats from one enumeration per rank
    flats = {k: flats_of_rank(m, k) for k in (2, 3)}
    monkeypatch.setattr(core, "flats_of_rank", lambda _, k: flats[k])
    failing = 0
    for samples in (1, 7, 100, 1000):
        for seed in (0, 1, 2):
            report = check_incidence_properties(m, rng_seed=seed, samples=samples)
            assert report == reference_incidence(m, rng_seed=seed, samples=samples), (samples, seed)
            failing += not report.ok
    # the flipped oracle fails on most of its cases: the comparison covers
    # failing reports and their counterexamples, not only passes
    assert (failing > 0) == (subject == "grid3d3_flipped")


@pytest.mark.parametrize("samples", [0, -3])
def test_incidence_rejects_samples_below_one(samples):
    # a check that samples nothing would report a pass
    with pytest.raises(MatroidError, match="samples must be at least 1"):
        check_incidence_properties(flipped_grid3d3(), samples=samples)


@pytest.mark.parametrize("pairs", [0, -2])
def test_submodularity_rejects_pairs_below_one(random_q3, pairs):
    with pytest.raises(MatroidError, match="pairs must be at least 1"):
        check_submodularity(random_q3, pairs=pairs)


@pytest.mark.parametrize("bad", [True, False, 2.5, "3"])
@pytest.mark.parametrize("count", ["limit", "pairs", "samples"])
def test_a_count_argument_refuses_a_bool_or_a_non_integer(random_q3, count, bad):
    # nothing is coerced: True would count one, and 2.5 would reach a slice
    call = {
        "limit": lambda v: core.find_triangles(core.LineIndex(3, [(0, 1), (0, 2), (1, 2)]), limit=v),
        "pairs": lambda v: check_submodularity(random_q3, pairs=v),
        "samples": lambda v: check_incidence_properties(random_q3, samples=v),
    }[count]
    with pytest.raises(MatroidError, match=f"{count} must be an int, got {bad!r}"):
        call(bad)


@pytest.mark.parametrize("bad", [True, 10.0, "10"])
@pytest.mark.parametrize(
    "entry",
    [
        "behrend_set", "tuned_behrend_set", "optimal_3ap_free", "behrend_params", "grid_lines",
        "behrend_points", "build_construction", "flats_of_rank", "grid3d",
    ],
)
def test_a_size_argument_refuses_a_bool_or_a_non_integer(random_q3, entry, bad):
    # as a count argument does: True would be size one, and 10.0 would fail
    # deep inside (int.bit_length, range) or be carried into the result
    call, name = {
        "behrend_set": (behrend.behrend_set, "N"),
        "tuned_behrend_set": (behrend.tuned_behrend_set, "N"),
        "optimal_3ap_free": (behrend.optimal_3ap_free, "N"),
        "behrend_params": (behrend.behrend_params, "N"),
        "grid_lines": (grid_lines, "N"),
        "behrend_points": (lambda v: behrend_points(v, [2]), "N"),
        "build_construction": (build_construction, "N"),
        "flats_of_rank": (lambda v: flats_of_rank(random_q3, v), "k"),
        "grid3d": (grid3d, "k"),
    }[entry]
    with pytest.raises(MatroidError, match=f"{name} must be an int, got {bad!r}"):
        call(bad)


def test_a_sweep_row_with_a_non_integer_n_is_an_error_row(capsys):
    # a MatroidError row, with no traceback, beside the rows that build
    rows = joints_sweep([10.0, 10], Fraction(1, 2))
    assert rows[0]["error"] == "MatroidError: N must be an int, got 10.0" and "error" not in rows[1]
    assert capsys.readouterr().err == ""


def test_incidence_rejects_non_simple():
    m = Matroid(labels=(0, 1, 2), oracle=lambda s: len(s) <= 1 or s == frozenset({0, 1}))
    with pytest.raises(MatroidError, match="not simple"):
        check_incidence_properties(m)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=3, max_size=7, unique=True))
def test_closure_idempotent_on_random_planar_matroids(coords):
    m = affine_matroid([point(*c) for c in coords])
    x = frozenset(range(0, len(coords), 2))
    cl = closure(m, x)
    assert cl == reference_closure(m, x)
    assert closure(m, cl) == cl
    assert rank(m, cl) == rank(m, x)


def test_core_imports_no_sibling_module():
    # core is the lowest layer: the triangle gate, the structural rules'
    # key and the triangle-free matroid live in it, so no import in it, at
    # module level or inside a function, reaches another package module
    tree = ast.parse(Path(core.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "matroid_joints", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "matroid_joints" for a in node.names), ast.dump(node)
