"""Per-layer spans and counts for the benchmark's traced runs.

A ``Tracer`` wraps the public entry points of each ``matroid_joints``
module for the duration of a ``with`` block and restores them on exit.
Nothing in the package is edited: the wrappers are installed by
rebinding the module, package and class attributes that refer to each
function, so calls between modules (``from .core import make_flat``) and
calls through a module (``core.closure``) both pass through a span.

A span records the call count, the inclusive seconds of the calls and
their self seconds (inclusive minus the time of nested spans).  The two
matroid oracles are counted, not timed, because they run millions of
times per operation and a timer there would dominate the trace.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name, counters measured inside the span).
# A span either feeds a metric or keeps its work out of a parent's self time.
SPANS = [
    ("behrend", "behrend_set", "behrend.behrend_set", ()),
    ("planar", "Configuration.__init__", "planar.Configuration", ()),
    ("planar", "prune_lines", "planar.prune_lines", ()),
    ("planar", "find_triangles", "planar.find_triangles", ()),
    ("construct", "grid_lines", "construct.grid_lines", ()),
    ("construct", "behrend_points", "construct.behrend_points", ()),
    ("construct", "build_construction", "construct.build_construction", ()),
    ("construct", "TriangleFreeMatroid.__init__", "construct.TriangleFreeMatroid", ()),
    ("construct", "TriangleFreeMatroid.matroid_lines", "construct.matroid_lines", ()),
    ("core", "rank", "core.rank", ()),
    ("core", "closure", "core.closure", ("core.oracle",)),
    ("core", "count_joints", "core.count_joints", ("core.rank",)),
    ("affine", "grid3d", "affine.grid3d", ()),
    ("affine", "affine_independent", "affine.affine_independent", ()),
    ("affine", "integer_rank", "affine.integer_rank", ()),
    ("affine", "descriptor_flats", "affine.descriptor_flats", ()),
    ("analysis", "joints_sweep", "analysis.joints_sweep", ()),
    ("analysis", "heavy_plane_prune", "analysis.heavy_plane_prune", ("core.closure",)),
    ("analysis", "degree_partition", "analysis.degree_partition", ()),
    ("analysis", "intersection_graph", "analysis.intersection_graph", ()),
    ("analysis", "triangle_stats", "analysis.triangle_stats", ()),
    ("cli", "main", "cli.main", ()),
]


class Tracer:
    """Installs the spans on entry, removes them on exit.

    ``calls`` counts calls per span name and per oracle (``core.oracle``);
    ``inside`` counts, per span, the calls of another counter made while
    the span was open (e.g. ``core.closure.core.oracle``); ``sizes`` holds
    sizes read off return values.  ``reset`` clears all of them between
    operations.
    """

    def __init__(self, package):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.inside: Counter = Counter()
        self.sizes: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects
        for table in (self.calls, self.inside, self.sizes, self.total, self.self_time):
            table.clear()
        self._stack.clear()

    def counts(self) -> dict:
        """Every count of the last operation, for the repeatability check."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.inside)
        out.update(self.sizes)
        return out

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {name: getattr(self.package, name) for name, _, _, _ in SPANS}
        for mod_name, path, span_name, inner in SPANS:
            owner_path, _, attr = path.rpartition(".")
            owner = modules[mod_name]
            if owner_path:
                owner = getattr(owner, owner_path)
            original = getattr(owner, attr)
            self._rebind(owner, attr, original, self._span(span_name, original, inner))
        self._count_oracles(modules)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            targets = [owner]
        else:
            # every package module that bound the function by name
            prefix = self.package.__name__
            targets = [
                m for name, m in list(sys.modules.items())
                if (name == prefix or name.startswith(prefix + "."))
                and getattr(m, attr, None) is original
            ]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def _count_oracles(self, modules) -> None:
        calls = self.calls
        tfm = modules["construct"].TriangleFreeMatroid
        tfm_oracle = tfm.is_independent

        def counted_tfm_oracle(matroid_self, subset):
            calls["core.oracle"] += 1
            return tfm_oracle(matroid_self, subset)

        self._rebind(tfm, "is_independent", tfm_oracle, counted_tfm_oracle)

        affine = modules["affine"]
        make_affine = affine.affine_matroid

        def counted_affine_matroid(points):
            m = make_affine(points)
            oracle = m.oracle

            def counted(subset):
                calls["core.oracle"] += 1
                return oracle(subset)

            return dataclasses.replace(m, oracle=counted)

        self._rebind(affine, "affine_matroid", make_affine, counted_affine_matroid)

    def _span(self, name, fn, inner):
        calls, inside, stack = self.calls, self.inside, self._stack
        total, self_time, sizes = self.total, self.self_time, self.sizes
        inner_keys = [f"{name}.{c}" for c in inner]
        on_result = _SIZE_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            before = [calls[c] for c in inner]
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                for key, c, b in zip(inner_keys, inner, before):
                    inside[key] += calls[c] - b
            if on_result is not None:
                on_result(sizes, result)
            return result

        return wrapper


def _behrend_size(sizes, result) -> None:
    sizes["behrend.members"] += len(result)


def _pruned_size(sizes, cfg) -> None:
    sizes["planar.points"] += len(cfg.points)
    sizes["planar.lines"] += len(cfg.lines)
    sizes["planar.incidences"] += sum(len(pts) for pts in cfg.line_points)


def _prune_trace(sizes, result) -> None:
    sizes["analysis.heavy_plane_prune.planes_pruned"] += len(result[1])


_SIZE_HOOKS = {
    "behrend.behrend_set": _behrend_size,
    "planar.prune_lines": _pruned_size,
    "analysis.heavy_plane_prune": _prune_trace,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced operation, by name."""
    calls, inside, sizes = tracer.calls, tracer.inside, tracer.sizes
    total, self_time = tracer.total, tracer.self_time
    closures = calls["core.closure"]
    candidates = inside["analysis.heavy_plane_prune.core.closure"]
    pruned = sizes["analysis.heavy_plane_prune.planes_pruned"]
    return {
        "behrend.behrend_set.s": total["behrend.behrend_set"],
        "behrend.members": sizes["behrend.members"],
        "planar.Configuration.s": total["planar.Configuration"],
        "planar.incidences": sizes["planar.incidences"],
        "planar.prune_lines.s": total["planar.prune_lines"],
        "planar.find_triangles.s": total["planar.find_triangles"],
        "planar.points": sizes["planar.points"],
        "planar.lines": sizes["planar.lines"],
        "construct.build_construction.self_s": self_time["construct.build_construction"],
        "construct.matroid_lines.s": total["construct.matroid_lines"],
        "construct.TriangleFreeMatroid.s": total["construct.TriangleFreeMatroid"],
        "core.oracle.calls": calls["core.oracle"],
        "core.rank.calls": calls["core.rank"],
        "core.rank.self_s": self_time["core.rank"],
        "core.closure.calls": closures,
        "core.closure.s": total["core.closure"],
        "core.oracle_calls_per_closure": (
            inside["core.closure.core.oracle"] / closures if closures else 0.0
        ),
        "core.count_joints.s": total["core.count_joints"],
        "core.count_joints.rank_calls": inside["core.count_joints.core.rank"],
        "affine.affine_independent.calls": calls["affine.affine_independent"],
        "affine.affine_independent.s": total["affine.affine_independent"],
        "affine.integer_rank.s": total["affine.integer_rank"],
        "affine.descriptor_flats.s": total["affine.descriptor_flats"],
        "analysis.heavy_plane_prune.s": total["analysis.heavy_plane_prune"],
        "analysis.heavy_plane_prune.candidate_planes": candidates,
        "analysis.heavy_plane_prune.planes_pruned": pruned,
        "analysis.heavy_plane_prune.prune_yield": pruned / candidates if candidates else 0.0,
        "analysis.intersection_graph.s": total["analysis.intersection_graph"],
        "analysis.triangle_stats.s": total["analysis.triangle_stats"],
        "analysis.degree_partition.s": total["analysis.degree_partition"],
        "cli.main.self_s": self_time["cli.main"],
    }
