"""CI's scale checks: the window build at sizes the tier-1 tests do not
reach, and grid3d's engine work, one function per check.  Each check prints
what it measured and asserts its pins and bounds.  Run all four from the
repository root:

    PYTHONPATH=src python3 tests/scale_checks.py

It prints each check's wall time, stops at the first check that fails and
exits non-zero.  CI runs each check in a fresh interpreter:

    PYTHONPATH=src:tests python3 -c 'import scale_checks; scale_checks.prune_trace()'

It uses the standard library alone, and pytest does not collect it (its
name does not start with ``test_``); the tests import ``window_points``
from here.
"""

import dataclasses
import hashlib
import math
import resource
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

from matroid_joints import affine, core
from matroid_joints.analysis import analyze, heavy_plane_prune
from matroid_joints.construct import TriangleFreeMatroid, behrend_points, grid_lines


def window_points(n, t):
    """The window build's points: the sums x + t in [2, 2n] of the x <= 6n
    whose base-3 digits are all 0 or 1, over the n x n grid."""
    powers = [3**k for k in range(20) if 3**k <= 6 * n]
    xs = {sum(p for k, p in enumerate(powers) if bits >> k & 1) for bits in range(2 ** len(powers))}
    return behrend_points(n, [x + t for x in xs if x <= 6 * n and 2 <= x + t <= 2 * n])


def window_build(n, points, size):
    """The grid lines holding two or more of ``points``, read off their
    coordinates in one pass, and the matroid over them; ``size`` pins the
    (points, lines) counts."""
    cfg = grid_lines(n).configuration(points)
    assert (len(cfg.points), len(cfg.lines)) == size, (len(cfg.points), len(cfg.lines))
    return cfg, TriangleFreeMatroid(cfg)


def counted(counts, key, f):
    """``f``, adding one to ``counts[key]`` on each call."""

    def call(*args):
        counts[key] += 1
        return f(*args)

    return call


def incidence_held_once():
    """N = 2000: the gate is proved from the point sums, so the build caches
    only its verdict and holds a few MB; the meeting map, built here through
    its reference ``core._common_points``, is what would cost; ``analyze``
    at epsilon = 1/2 on the matroid's own lines prunes no plane, builds no
    flat and reads its graph statistics off the degrees."""
    n = 2000
    pts = window_points(n, -6841)
    tracemalloc.start()
    cfg, tfm = window_build(n, pts, (236939, 7993))
    gated = tracemalloc.get_traced_memory()[0] / 1e6
    cached = sorted(set(vars(cfg)) - {"size", "line_points", "points", "lines"})
    print(f"after the gate: {gated:.1f} MB traced, caching {cached}")
    assert cached == ["triangle_free"], cached
    assert gated <= 20, f"{gated:.1f} MB traced after the gate, over 20 MB"
    meeting = core._common_points(tfm.matroid_lines().by_point)
    mb = tracemalloc.get_traced_memory()[0] / 1e6
    print(f"{len(cfg.points)} points, {len(cfg.lines)} lines, {len(meeting)} meeting pairs: {mb:.1f} MB traced")
    assert mb <= 140, f"{mb:.1f} MB traced, over 140 MB"
    tracemalloc.reset_peak()
    start = time.perf_counter()
    r = analyze(tfm.to_matroid(), tfm.matroid_lines(), Fraction(1, 2))
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] / 1e6 - mb
    print(f"analyze at epsilon = 1/2: {seconds:.2f} s, {peak:.1f} MB traced peak above the build")
    assert (r.L_initial, r.L_after_prune, r.planes_pruned, r.E2_size) == (7993, 7993, 0, 236933), r
    assert (r.graph_edges, r.triangles, r.degenerate_triples) == (710799, 236933, 236933), r
    assert peak <= 100, f"{peak:.1f} MB traced peak above the build, over 100 MB"


def prune_trace():
    """N = 1000: the joint rule and an oracle that wraps the matroid's own
    (which does not take the rule's key) count the same joints; at epsilon =
    1/2 the union rule keeps no plane, and at epsilon = 1 each meeting pair
    is a two-line plane, so the prune's trace is long and its memory is the
    bound; the digest has the form of ``TRACE_DIGEST_400``."""
    n = 1000
    cfg, tfm = window_build(n, window_points(n, -1915), (81344, 3993))
    m, index = tfm.to_matroid(), tfm.matroid_lines()
    start = time.perf_counter()
    fast = core.count_joints(m, index)
    mid = time.perf_counter()
    wrapped = core.count_joints(core.Matroid(cfg.points, lambda s: tfm.is_independent(s)), index)
    end = time.perf_counter()
    rule_ms, oracle_s = 1e3 * (mid - start), end - mid
    print(f"{fast} joints by the joint rule in {rule_ms:.1f} ms, {wrapped} through the oracle in {oracle_s:.2f} s")
    assert fast == wrapped == 81338
    assert heavy_plane_prune(m, index, Fraction(1, 2))[1] == []
    tracemalloc.start()
    survivors, trace = heavy_plane_prune(m, index, Fraction(1))
    mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    digest = hashlib.sha256(repr([(s.plane, s.removed) for s in trace]).encode()).hexdigest()
    print(f"{len(trace)} steps, {len(survivors)} survivors, sha256 {digest}: {mb:.1f} MB traced peak")
    assert (len(trace), len(survivors)) == (1730, 533)
    assert digest == "0d7f40930036502da3e4a79228d617f8932b3d2fe07a765783dbbb79a449d50e"
    assert mb <= 350, f"{mb:.1f} MB traced peak, over 350 MB"


def incidence_work():
    """N = 20 under ``check_incidence_properties``: the simplicity scan asks
    n + C(n, 2) oracle calls, ``flats_of_rank`` one per pair and one per
    triple, and each independent set is closed from itself by the span with
    no call; most of the memory is the planes."""
    n = 20
    m = window_build(n, window_points(n, -70), (127, 75))[1].to_matroid()
    calls = Counter()
    start = time.perf_counter()
    report = core.check_incidence_properties(dataclasses.replace(m, oracle=counted(calls, "oracle", m.oracle)))
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work = f"{report.lines} lines, {report.planes} planes, {calls['oracle']} oracle calls"
    print(f"{work}: {wall:.1f} s, {rss:.0f} MB peak RSS")
    assert report.ok and (report.lines, report.planes) == (7182, 238309)
    assert calls["oracle"] == m.size + 2 * math.comb(m.size, 2) + math.comb(m.size, 3) == 349504


def grid3d_work():
    """grid3d --k 18's pipeline with its work counted: ``descriptor_flats``
    asks two oracle calls per line (its greedy basis) and ``count_joints``
    one per point (its star); the span computes one null space per axis;
    every basis is a pair and every star a 4-set of Q^3, which the oracle
    answers with no rank.  The patched ``affine`` functions are restored
    before it returns."""
    counts = Counter()
    null_space, integer_rank = affine.integer_null_space, affine.integer_rank
    affine.integer_null_space = counted(counts, "null space", null_space)
    affine.integer_rank = counted(counts, "integer rank", integer_rank)
    try:
        k = 18
        start = time.perf_counter()
        pts, desc = affine.grid3d(k)
        m = affine.affine_matroid(pts)
        m = dataclasses.replace(m, oracle=counted(counts, "oracle", m.oracle))
        lines = affine.descriptor_flats(m, desc)
        basis_calls = counts["oracle"]
        joints = core.count_joints(m, lines)
        seconds = time.perf_counter() - start
    finally:
        affine.integer_null_space, affine.integer_rank = null_space, integer_rank
    print(f"k = {k}: {joints} joints on {len(lines)} lines, {dict(counts)}, {basis_calls} basis calls: {seconds:.2f} s")
    assert (joints, len(lines)) == (k**3, 3 * k**2) == (5832, 972)
    assert (basis_calls, counts["oracle"], counts["null space"]) == (1944, 7776, 3), counts
    assert counts["integer rank"] == 0, counts


if __name__ == "__main__":
    # incidence_work first, so that the peak RSS it prints is its own
    for check in (incidence_work, grid3d_work, incidence_held_once, prune_trace):
        start = time.perf_counter()
        check()
        # a check traces until its process would end; the next starts untraced
        tracemalloc.stop()
        print(f"{check.__name__}: {time.perf_counter() - start:.1f} s", flush=True)
