"""Sphere-shell 3-AP-free sets and the brute-force optimum."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_joints import behrend
from matroid_joints.behrend import (
    BehrendParams,
    behrend_params,
    behrend_set,
    decode,
    encode,
    has_3ap,
    optimal_3ap_free,
    sphere_shells,
    tuned_behrend_set,
)
from matroid_joints.core import MatroidError


def test_params_n16():
    p = behrend_params(16)
    assert (p.n, p.s) == (2, 2)
    assert (2 * p.s) ** p.n <= 16 < (2 * (p.s + 1)) ** p.n


def test_params_large_power_of_two():
    p = behrend_params(2**25)
    assert (p.n, p.s) == (5, 16)
    assert (2 * p.s) ** p.n == 2**25


def test_params_rejects_tiny_n():
    with pytest.raises(MatroidError):
        behrend_params(3)


def test_shell_size_pigeonhole():
    # best shell holds at least s^(n-2)/n of the cube (vacuous for n <= 2)
    for N in (2**10, 2**16, 2**20):
        p = behrend_params(N)
        if p.n < 3:
            continue
        shells = sphere_shells(p.n, p.s)
        shells.pop(0, None)
        assert len(shells[p.k]) >= p.s ** (p.n - 2) / p.n


def test_sphere_shells_small():
    shells = sphere_shells(2, 2)
    assert shells == {0: [(0, 0)], 1: [(0, 1), (1, 0)], 2: [(1, 1)]}
    assert sum(len(v) for v in shells.values()) == 4


def test_sphere_shells_n1_singletons():
    shells = sphere_shells(1, 6)
    assert all(len(v) == 1 for v in shells.values())


def test_sphere_shells_budget():
    with pytest.raises(MatroidError):
        sphere_shells(10, 10)


def _collinear(a, b, c):
    # integer lattice points are collinear iff difference vectors are parallel
    u = [y - x for x, y in zip(a, b)]
    v = [y - x for x, y in zip(a, c)]
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u)))


def test_no_three_shell_points_collinear():
    shells = sphere_shells(3, 8)
    for members in shells.values():
        for a, b, c in combinations(members, 3):
            assert not _collinear(a, b, c)


def test_behrend_set_n16():
    b = behrend_set(16)
    assert b.members == (1, 4)
    assert not b.via_fallback


def test_behrend_set_is_3ap_free():
    for n in (16, 100, 1000, 12345):
        assert not has_3ap(behrend_set(n).members)


@pytest.mark.parametrize("N", [16, 250, 2**16, 2**20])
def test_behrend_set_enumerates_its_shells_once(monkeypatch, N):
    # the shells that pick k are the ones the set is read from
    calls = []
    original = behrend.sphere_shells
    monkeypatch.setattr(behrend, "sphere_shells", lambda n, s: calls.append((n, s)) or original(n, s))
    b = behrend_set(N)
    assert calls == [(b.params.n, b.params.s)]
    assert b.params == behrend_params(N)


def test_behrend_set_size_matches_shell():
    b = behrend_set(2**12)
    shells = sphere_shells(b.params.n, b.params.s)
    assert len(b) == len(shells[b.params.k])


def test_members_within_range():
    for n in (16, 257, 5000):
        b = behrend_set(n)
        assert all(1 <= v <= n for v in b.members)


def test_encode_decode_round_trip():
    b = behrend_set(2**14)
    p = b.params
    for v in b.members:
        digits = decode(v, p.radix, p.n)
        assert all(0 <= d < p.s for d in digits)
        assert sum(d * d for d in digits) == p.k
        assert encode(digits, p.radix) == v


def test_no_carry_invariant():
    b = behrend_set(2**16)
    p = b.params
    shell = sphere_shells(p.n, p.s)[p.k]
    rng = random.Random(0)
    for _ in range(2000):
        x = rng.choice(shell)
        z = rng.choice(shell)
        assert all(xi + zi <= 2 * p.s - 2 for xi, zi in zip(x, z))


def test_has_3ap_examples():
    assert has_3ap({1, 2, 3})
    assert not has_3ap({1, 2, 4, 8})
    assert not has_3ap({5})
    assert not has_3ap(set())
    assert has_3ap({10, 7, 4})  # order-independent


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 60), max_size=12))
def test_has_3ap_matches_triple_scan(s):
    brute = any(
        x + z == 2 * y for x, y, z in combinations(sorted(s), 3)
    )
    assert has_3ap(s) == brute


def test_optimal_3ap_free_small():
    assert optimal_3ap_free(3) == (1, 2)
    assert len(optimal_3ap_free(8)) == 4
    assert not has_3ap(optimal_3ap_free(8))
    with pytest.raises(MatroidError):
        optimal_3ap_free(31)


def test_fallback_for_small_n():
    b = behrend_set(8)
    assert b.via_fallback
    assert b.members == optimal_3ap_free(8)
    b3 = behrend_set(3)
    assert b3.via_fallback and b3.members == (1, 2)
    with pytest.raises(MatroidError):
        behrend_set(0)


def test_behrend_never_beats_optimum():
    for n in range(1, 31):
        opt = len(optimal_3ap_free(n))
        assert len(behrend_set(n)) <= opt
        assert len(tuned_behrend_set(n)) <= opt


def test_size_grows_with_n():
    sizes = [len(behrend_set(2**e)) for e in (10, 14, 18)]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


def test_tuned_set_small_n():
    # the paper rule gives (1, 4) at N = 16; fitting (n, s) finds the cube
    # {0,1}^3 in radix 3, and the tie with shell k = 2 goes to k = 1
    b = tuned_behrend_set(16)
    assert b.members == (1, 3, 9)
    assert (b.params.n, b.params.s, b.params.k, b.params.radix) == (3, 2, 1, 3)
    b2 = tuned_behrend_set(2)
    assert b2.via_fallback and b2.members == (1, 2)
    with pytest.raises(MatroidError):
        tuned_behrend_set(0)


def test_tuned_set_is_3ap_free_within_range():
    for n in (3, 16, 100, 1000, 12345, 2**16):
        b = tuned_behrend_set(n)
        assert not b.via_fallback
        assert not has_3ap(b.members)
        assert all(1 <= v <= n for v in b.members)


def test_tuned_encode_decode_round_trip():
    b = tuned_behrend_set(2**14)
    p = b.params
    assert p.radix == 2 * p.s - 1
    for v in b.members:
        digits = decode(v, p.radix, p.n)
        assert all(0 <= d < p.s for d in digits)
        assert sum(d * d for d in digits) == p.k
        assert encode(digits, p.radix) == v


def test_tuned_no_carry_invariant():
    b = tuned_behrend_set(2**12)
    p = b.params
    digits = [decode(v, p.radix, p.n) for v in b.members]
    for x in digits:
        for z in digits:
            assert all(xi + zi <= 2 * p.s - 2 < p.radix for xi, zi in zip(x, z))


def test_tuned_never_below_paper_rule():
    # the paper's shell re-encoded in radix 2s - 1 is smaller, so it still fits
    for n in (16, 17, 31, 64, 100, 257, 1000, 5000, 12345, 2**16, 2**18):
        assert len(tuned_behrend_set(n)) >= len(behrend_set(n))
