"""Benchmark of the matroid_joints pipeline, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep,dense,grid3d} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is
installed or built.  One operation is one full workload (a CLI command,
or the dense pipeline).  Operations repeat in one process and one thread
until ``--seconds`` have passed, and every operation's output is checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
tracing installed; ``wall_ref`` is an operation's wall time in units of a
reference loop timed around it (see ``reference_loop``).  ``--trace 1``
alternates untraced and traced operations (at least two of each) and
reports the per-layer metrics;
every count must repeat exactly between the traced operations.  Human-readable lines go first; the last line of
stdout is the JSON result.  See perfbench/README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "matroid_joints"
LAYERS = ("behrend", "planar", "construct", "core", "affine", "analysis", "cli")

# setup_s is the median over fresh interpreters timed between operations,
# so that its samples, like the operations', spread over the whole run
SETUP_PROBES_PER_OP = 1
MIN_UNTRACED_OPS = 3
MIN_TRACED_OPS = 2  # two traced operations, so their counts can be compared
HELD_OUT_SEED = 20131  # never used while writing a change; confirm claims on it

# Operations are kept near one second, so that the reference loops timed
# around an operation see the host in the state the operation ran in.
SWEEP_ARGV = ["sweep", "--ns", "50,100,250"]
SWEEP_GOLDEN = HERE / "golden" / "sweep_50_100_250.json"
DENSE_N = 60
GRID3D_K = 5


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def import_package():
    """Import matroid_joints and its layer modules from the checkout's src/."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchmarkError(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    package = sys.modules[PACKAGE]
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise BenchmarkError(f"{PACKAGE} was imported from {package.__file__}, not {SRC}")
    return package


# -- workloads ---------------------------------------------------------------
# Each setup returns (operation, facts): the operation runs the workload once
# and returns True iff its output passed the check; facts go to the report.


def run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def setup_sweep(mj, seed):
    golden = SWEEP_GOLDEN.read_text()

    def op() -> bool:
        code, out = run_cli(mj.cli, SWEEP_ARGV)
        return code == 0 and out == golden

    return op, {"argv": SWEEP_ARGV}


def salem_spencer(limit: int) -> list[int]:
    """Integers in [0, limit] whose base-3 digits are all 0 or 1."""
    members, power = [0], 1
    while power <= limit:
        members += [x + power for x in members if x + power <= limit]
        power *= 3
    return sorted(members)


def dense_offset(seed: int) -> int:
    return random.Random(seed).randrange(9)


def setup_dense(mj, seed):
    n, t = DENSE_N, dense_offset(seed)
    b = frozenset(x + t for x in salem_spencer(2 * n))
    # E and L from the coordinates alone: a point is kept iff a + b is in B,
    # a grid line survives pruning iff it holds at least two kept points.
    points = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x + y in b]
    per_line = Counter()
    for x, y in points:
        per_line[("y", y)] += 1
        per_line[("x", x)] += 1
        per_line[("x-y", x - y)] += 1
    expected_e = len(points)
    expected_l = sum(1 for c in per_line.values() if c >= 2)

    def op() -> bool:
        construct, planar, core = mj.construct, mj.planar, mj.core
        pts = construct.behrend_points(n, b)
        cfg = planar.prune_lines(planar.Configuration(pts, construct.grid_lines(n).lines))
        if not planar.is_triangle_free(cfg):
            return False
        tfm = construct.TriangleFreeMatroid(cfg)
        lines = tfm.matroid_lines()
        joints = core.count_joints(tfm.to_matroid(), lines)
        return (
            len(cfg.points) == expected_e
            and len(cfg.lines) == len(lines) == expected_l
            and joints == len(planar.triple_points(cfg))
        )

    return op, {"N": n, "t": t, "B_size": len(b), "E": expected_e, "L": expected_l}


def setup_grid3d(mj, seed):
    k = GRID3D_K
    argv = ["grid3d", "--k", str(k), "--verify"]
    expected = {"k": k, "points": k**3, "lines": 3 * k**2, "joints": k**3}

    def op() -> bool:
        code, out = run_cli(mj.cli, argv)
        return code == 0 and json.loads(out) == expected

    return op, {"argv": argv}


WORKLOADS = {"sweep": setup_sweep, "dense": setup_dense, "grid3d": setup_grid3d}


# -- measurement -------------------------------------------------------------


def timed(op) -> tuple[float, bool]:
    start = perf_counter()
    try:
        ok = op()
    except Exception:  # a raising operation is a failed operation
        traceback.print_exc()
        ok = False
    return perf_counter() - start, ok


# The host's speed switches between a fast and a slow state, about 1.6x
# apart, many times a minute, and the share of time in the slow state drifts
# over minutes; CPU time tracks wall time, so it is the core's own speed.  A
# fixed pure-Python loop, timed just before and just after each operation,
# reads the state the operation ran in; wall_ref divides by it.  The loop
# does not call the package, so only a change to the package moves wall_ref.
# Keep it unchanged: every wall_ref baseline is in units of this loop.
def reference_loop() -> int:
    acc, seen, buckets = 0, set(), {}
    for i in range(40_000):
        x = (i * 2654435761) & 0x3FF  # a small set: the loop must not raise peak_rss_mb
        seen.add(x)
        buckets[x & 255] = buckets.get(x & 255, 0) + 1
        acc += len(seen) & 7
    base = frozenset(range(0, 300, 3))
    for i in range(3_000):
        acc += len(base & frozenset(range(i % 60, i % 60 + 120)))
    return acc


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


# Runs in a fresh interpreter: times the package import before anything else
# is imported, then the workload's input generation.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import {modules}
imported = time.perf_counter()
sys.path.insert(0, {here!r})
import run
mj = run.import_package()
generating = time.perf_counter()
run.WORKLOADS[{workload!r}](mj, {seed!r})
print(imported - start + time.perf_counter() - generating)
"""


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Import plus input generation, each in a fresh interpreter."""
    code = SETUP_PROBE.format(
        src=str(SRC), here=str(HERE), workload=workload, seed=seed,
        modules=", ".join(f"{PACKAGE}.{layer}" for layer in LAYERS),
    )
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up failed: {done.stderr.strip()}")
        samples.append(float(done.stdout))
    return samples


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


# -- report ------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }


def select(spec_metrics: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def end_to_end(args, mj, op) -> tuple[dict, list[tuple[float, bool]]]:
    setups: list[float] = []
    runs: list[tuple[float, bool]] = []
    refs: list[float] = []
    in_refs: list[float] = []
    start = perf_counter()
    while len(runs) < MIN_UNTRACED_OPS or perf_counter() - start < args.seconds:
        before = time_reference()
        runs.append(timed(op))
        after = time_reference()
        refs += [before, after]
        in_refs.append(runs[-1][0] / ((before + after) / 2))
        setups.extend(measure_setup(args.workload, args.seed, SETUP_PROBES_PER_OP))
    walls = [t for t, _ in runs]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else "no tail percentile (needs >= 11 samples)")
    print(f"wall_s: median {statistics.median(walls):.4f} s, {tail_text}, {len(walls)} samples: "
          + " ".join(f"{t:.4f}" for t in walls))
    print(f"reference loop: median {statistics.median(refs):.4f} s, "
          f"fastest {min(refs):.4f} s, {len(refs)} samples")
    print(f"wall_ref: median {statistics.median(in_refs):.3f} ref, {len(in_refs)} samples")
    print(f"setup_s: median {statistics.median(setups):.4f} s over {len(setups)} fresh interpreters")
    values = {
        "wall_ref": statistics.median(in_refs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MB")
    return values, runs


def per_layer(args, mj, op) -> tuple[dict, list[tuple[float, bool]], bool]:
    # untraced and traced operations alternate, so that a change in the
    # machine's speed during the run does not land in trace_overhead_s
    untraced: list[tuple[float, bool]] = []
    traced: list[tuple[float, bool]] = []
    snapshots: list[tuple[dict, dict]] = []
    tracer = Tracer(mj)
    start = perf_counter()
    while len(traced) < MIN_TRACED_OPS or perf_counter() - start < args.seconds:
        untraced.append(timed(op))
        tracer.reset()
        with tracer:
            traced.append(timed(op))
        snapshots.append((tracer.counts(), layer_metrics(tracer)))
    counts_repeat = all(counts == snapshots[0][0] for counts, _ in snapshots)
    if not counts_repeat:
        print("error: per-layer counts differ between traced operations", file=sys.stderr)
    # counts are equal across traced operations (checked above); times vary
    values = {
        name: value if isinstance(value, int)
        else statistics.median(layers[name] for _, layers in snapshots)
        for name, value in snapshots[0][1].items()
    }
    values["trace_overhead_s"] = (statistics.median(t for t, _ in traced)
                                  - statistics.median(t for t, _ in untraced))
    for name, value in values.items():
        print(f"{name}: {value}")
    return values, untraced + traced, counts_repeat


def measure(args) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mj = import_package()
    op, facts = WORKLOADS[args.workload](mj, args.seed)
    prov = provenance(args)
    print(f"# workload {args.workload}, seed {args.seed}, inputs {json.dumps(facts)}")
    if args.trace:
        values, runs, correct = per_layer(args, mj, op)
        prov["trace_overhead_s"] = values["trace_overhead_s"]
        metrics = select(spec["per_layer"], values)
    else:
        values, runs = end_to_end(args, mj, op)
        correct = True
        metrics = select(spec["end_to_end"], values)
    failed = sum(1 for _, ok in runs if not ok)
    print(f"ops_failed: {failed}/{len(runs)} = {failed / len(runs)}")
    print("provenance: " + json.dumps(prov))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        measure(args)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
