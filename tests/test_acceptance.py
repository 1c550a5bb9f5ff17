"""Acceptance suite: one numbered criterion per test, each printing a
single PASS/FAIL line (echoed again in the terminal summary).

Criteria 5 and 7 are split: the structural half is separate from the
density/growth assertions, so a red density or growth check does not
mask the rest.  5b asks its density question of the tuned sphere-shell
set; 7b stays red until the construction uses it (see its comment).
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from matroid_joints import affine, analysis, core
from matroid_joints.affine import affine_matroid, descriptor_flats, grid3d, point
from matroid_joints.behrend import (
    behrend_set,
    has_3ap,
    optimal_3ap_free,
    sphere_shells,
    tuned_behrend_set,
)
from matroid_joints.construct import build_construction
from matroid_joints.planar import Configuration, find_triangles, triple_points
from matroid_joints.construct import grid_lines


def _verdict(log, label, ok, detail=""):
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    log.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def builds():
    return {n: build_construction(n) for n in (20, 50, 100, 200)}


def test_criterion_1_axiom_suite(acceptance_log):
    ok = True
    details = []
    for n in (4, 5, 6):
        t0 = time.monotonic()
        build = build_construction(n)
        report = core.check_axioms(build.matroid.to_matroid())
        elapsed = time.monotonic() - t0
        if not (report.ok and not report.inconclusive and elapsed < 60):
            ok = False
        details.append(f"N={n}: ok={report.ok} {elapsed:.2f}s")
    # mutation: drop the angle rule and demand a reported counterexample
    tfm = build_construction(5).matroid

    def corrupted(subset):
        if len(subset) == 4:
            cover = {}
            for p in subset:
                for l in tfm.config.by_point[p]:
                    cover[l] = cover.get(l, 0) + 1
            return not any(c >= 3 for c in cover.values())
        return tfm.is_independent(subset)

    mutated = core.check_axioms(core.Matroid(labels=tfm.config.points, oracle=corrupted))
    caught = (not mutated.ok) and any(
        r.counterexample is not None
        for r in (mutated.axiom1, mutated.axiom2, mutated.axiom3)
    )
    if not caught:
        ok = False
    details.append(f"mutation caught={caught}")
    _verdict(acceptance_log, "1 axiom suite", ok, "; ".join(details))


def _closure_law_violations(m, samples, seed):
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        x = frozenset(e for e in range(m.size) if rng.random() < 0.4)
        y = x | frozenset(e for e in range(m.size) if rng.random() < 0.3)
        cx = core.closure(m, x)
        if not (x <= cx and core.rank(m, cx) == core.rank(m, x)):
            bad += 1
        elif core.closure(m, cx) != cx:
            bad += 1
        elif not cx <= core.closure(m, y):
            bad += 1
    return bad


def _flat_intersection_violations(m, samples, seed):
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        f1 = core.closure(m, (e for e in range(m.size) if rng.random() < 0.3))
        f2 = core.closure(m, (e for e in range(m.size) if rng.random() < 0.3))
        if not core.is_flat(m, f1 & f2):
            bad += 1
    return bad


def test_criterion_2_simple_matroid_theorems(acceptance_log, builds):
    rng = random.Random(12)
    pts = []
    seen = set()
    while len(pts) < 12:
        c = (rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 40))
        if c not in seen:
            seen.add(c)
            pts.append(point(*c))
    subjects = {
        "construction N=20": builds[20].matroid.to_matroid(),
        "random Q^3": affine_matroid(pts),
    }
    ok = True
    details = []
    for name, m in subjects.items():
        sub = core.check_submodularity(m, pairs=1000, rng_seed=7)
        closure_bad = _closure_law_violations(m, 1000, seed=7)
        flat_bad = _flat_intersection_violations(m, 1000, seed=7)
        inc = core.check_incidence_properties(m, rng_seed=7, samples=1000)
        clean = sub.ok and closure_bad == 0 and flat_bad == 0 and inc.ok
        if not clean:
            ok = False
        details.append(f"{name}: violations={len(sub.violations) + closure_bad + flat_bad}, incidence={inc.ok}")
    _verdict(acceptance_log, "2 simple-matroid theorems", ok, "; ".join(details))


def test_criterion_3_triangle_freeness(acceptance_log, builds):
    ok = True
    details = []
    for n, build in builds.items():
        tris = find_triangles(build.config)
        if tris:
            ok = False
        details.append(f"N={n}: {len(tris)} triangles")
    # the unfiltered N=5 grid must contain triangles of the stated shape
    n = 5
    pts = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    cfg = Configuration(pts, grid_lines(n).lines)
    tris = find_triangles(cfg)
    grid_ok = bool(tris)
    for t in tris:
        for li in t.lines:
            if sum(1 for p in t.points if p in cfg.line_points[li]) != 2:
                grid_ok = False
        sums = sorted(pts[p][0] + pts[p][1] for p in t.points)
        if sums[0] + sums[2] != 2 * sums[1]:
            grid_ok = False
    if not grid_ok:
        ok = False
    details.append(f"unfiltered N=5: {len(tris)} triangles, all 3-AP shaped={grid_ok}")
    _verdict(acceptance_log, "3 triangle-freeness", ok, "; ".join(details))


def test_criterion_4_joints_equal_triple_points(acceptance_log, builds):
    ok = True
    details = []
    for n, build in builds.items():
        m = build.matroid.to_matroid()
        lines = build.matroid.matroid_lines()
        joints = [x for x in range(m.size) if core.is_joint(m, x, lines)]
        triples = triple_points(build.config)
        match = len(joints) == len(triples)
        witnesses = all(
            (w := core.joint_witness(m, x, lines)) is not None
            and core.rank(m, lines[w[0]].members | lines[w[1]].members | lines[w[2]].members) == 4
            for x in joints
        )
        rank_ok = core.rank(m, range(m.size)) <= 4
        if not (match and witnesses and rank_ok):
            ok = False
        details.append(f"N={n}: J={len(joints)} T={len(triples)} rank<=4={rank_ok}")
    _verdict(acceptance_log, "4 joints equal triple points", ok, "; ".join(details))


def test_criterion_5a_behrend_correctness(acceptance_log):
    ok = True
    details = []
    rng = random.Random(5)
    sampled = sorted(rng.randint(4, 10**6) for _ in range(50))
    bad_3ap = sum(1 for n in sampled if has_3ap(behrend_set(n).members))
    if bad_3ap:
        ok = False
    details.append(f"3-AP-free on 50 sampled N: {50 - bad_3ap}/50")
    if not all(len(behrend_set(n)) <= len(optimal_3ap_free(n)) for n in range(1, 31)):
        ok = False
    details.append("never beats optimum for N<=30")
    from matroid_joints.behrend import decode, encode

    b = behrend_set(2**16)
    p = b.params
    round_ok = all(encode(decode(v, p.radix, p.n), p.radix) == v for v in b.members)
    shell = sphere_shells(p.n, p.s)[p.k]
    carries = 0
    for _ in range(10**4):
        x = rng.choice(shell)
        z = rng.choice(shell)
        if any(xi + zi > 2 * p.s - 2 for xi, zi in zip(x, z)):
            carries += 1
    if not round_ok or carries:
        ok = False
    details.append(f"round-trip={round_ok}, carries={carries}/10000")
    sizes = [len(behrend_set(2**e)) for e in range(10, 21, 2)]
    if sizes != sorted(sizes):
        ok = False
    details.append(f"sizes over 2^10..2^20: {sizes}")
    _verdict(acceptance_log, "5a behrend correctness", ok, "; ".join(details))


def test_criterion_5b_behrend_density_at_2_20(acceptance_log):
    # the stated desk-scale substitute for the asymptotic density bound:
    # a Behrend sphere-shell set in 1..2^20 with more than (2^20)^0.5 =
    # 1024 members.  The paper's parameter rule (behrend_set) tops out at
    # 384 there; shells with (n, s) fitted to N in the carry-free radix
    # 2s - 1 reach 1,716.
    n = 2**20
    b = tuned_behrend_set(n)
    p = b.params
    ok = len(b) > math.isqrt(n)
    _verdict(
        acceptance_log,
        "5b behrend density at 2^20",
        ok,
        f"|B|={len(b)} (n={p.n}, s={p.s}, k={p.k}, radix={p.radix}), N^0.5={math.isqrt(n)}",
    )


def test_criterion_6_grid_joints(acceptance_log):
    ok = True
    details = []
    for k in (2, 3, 4, 5):
        t0 = time.monotonic()
        pts, desc = grid3d(k)
        m = affine_matroid(pts)
        lines = descriptor_flats(m, desc)
        joints = core.count_joints(m, lines)
        elapsed = time.monotonic() - t0
        if not (len(lines) == 3 * k**2 and joints == k**3 and elapsed < 30):
            ok = False
        details.append(f"k={k}: L={len(lines)} J={joints} {elapsed:.1f}s")
    _verdict(acceptance_log, "6 grid joints", ok, "; ".join(details))


@pytest.fixture(scope="module")
def sweep_rows():
    return analysis.joints_sweep([50, 100, 200, 400], Fraction(1, 2))


def test_criterion_7a_sweep_invariants(acceptance_log, sweep_rows):
    ok = True
    details = []
    for row in sweep_rows:
        clean = row.get("error") is None and row["joints"] <= row["L"] ** 2
        if clean:
            build = build_construction(row["N"])
            clean = not find_triangles(build.config, limit=1)
            m = build.matroid.to_matroid()
            clean = clean and core.count_joints(m, build.matroid.matroid_lines()) == row["joints"]
            clean = clean and core.rank(m, range(m.size)) <= 4
        if not clean:
            ok = False
        details.append(f"N={row['N']}: J={row['joints']} L={row['L']}")
    _verdict(acceptance_log, "7a sweep structural invariants", ok, "; ".join(details))


def test_criterion_7b_superlinear_onset(acceptance_log, sweep_rows):
    # desk-scale substitute for the joints lower bound: J strictly
    # increasing over the sweep and J/L >= 1 at the largest N.  The
    # construction uses the paper-rule behrend_set, whose 2-member sets at
    # N = 50 and 100 leave those rows with no lines, and J/L = 134/231 at
    # N = 400.  With tuned shells the rows N = 50, 100, 200 give J = 102,
    # 172, 438, but switching build_construction over changes the output
    # of sweep --ns 50,100,250, which the benchmark's check pins in
    # perfbench/golden/sweep_50_100_250.json; the fix waits for a change
    # that re-captures that file.
    joints = [row["joints"] for row in sweep_rows]
    increasing = all(a < b for a, b in zip(joints, joints[1:]))
    last = sweep_rows[-1]
    ratio_ok = last["L"] > 0 and last["joints"] >= last["L"]
    ok = increasing and ratio_ok
    _verdict(
        acceptance_log,
        "7b superlinear onset",
        ok,
        f"J={joints}, J/L at N=400 = {last['joints']}/{last['L']}",
    )


def test_criterion_8_harness(acceptance_log, builds, adjacency):
    build = builds[100]
    m = build.matroid.to_matroid()
    lines = build.matroid.matroid_lines()
    eps = Fraction(1, 2)
    survivors, _ = analysis.heavy_plane_prune(m, lines, eps)
    # fixed point: a second scan finds no plane holding >= 4 survivors
    _, retrace = analysis.heavy_plane_prune(m, survivors, eps)
    fixed = not retrace
    e1, e2, _ = analysis.degree_partition(m, survivors, eps)
    e1_ok = Fraction(len(e1)) * (4 / eps) <= len(survivors) ** 2
    g = analysis.intersection_graph(m, survivors, e2)
    stats = analysis.triangle_stats(g)
    degen_ok = stats.degenerate <= math.comb(8, 3) * len(e2)
    witness_edges: dict[int, set] = {}
    adj = adjacency(g)
    for i in range(g.n):
        for j in sorted(adj[i]):
            if j <= i:
                continue
            for k in sorted(adj[i] & adj[j]):
                if k <= j:
                    continue
                ws = {g.edges[(i, j)], g.edges[(i, k)], g.edges[(j, k)]}
                if len(ws) == 1:
                    witness_edges.setdefault(ws.pop(), set()).update(
                        {(i, j), (i, k), (j, k)}
                    )
    flat = [e for es in witness_edges.values() for e in es]
    disjoint = len(flat) == len(set(flat))
    ok = fixed and e1_ok and degen_ok and disjoint
    _verdict(
        acceptance_log,
        "8 measurement harness",
        ok,
        f"L={len(survivors)}, |E1|={len(e1)}, |E2|={len(e2)}, degenerate={stats.degenerate}",
    )


def test_criterion_9_cli_determinism(acceptance_log, tmp_path, package_env):
    dump = tmp_path / "n50.json"
    subprocess.run(
        [sys.executable, "-m", "matroid_joints.cli", "construct", "--n", "50", "--out", str(dump)],
        check=True,
        env=package_env,
    )
    commands = [
        ["behrend", "--n", "4096", "--verify"],
        ["construct", "--n", "50", "--verify"],
        ["sweep", "--ns", "16,50"],
        ["grid3d", "--k", "3", "--verify"],
        ["verify", "--dump", str(dump)],
    ]
    ok = True
    details = []
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "matroid_joints.cli"] + cmd,
                capture_output=True,
                env=package_env,
            )
            for _ in range(2)
        ]
        same = (
            runs[0].stdout == runs[1].stdout
            and runs[0].returncode == runs[1].returncode == 0
        )
        if not same:
            ok = False
        details.append(f"{cmd[0]}: {'identical' if same else 'DIFFERS'}")
    _verdict(acceptance_log, "9 cli determinism", ok, "; ".join(details))
