"""Command-line interface.

Subcommands: behrend, construct, sweep, grid3d, verify.  Exit codes:
0 success, 2 usage/domain error, 3 internal verification failure.  All
output is byte-deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import affine, analysis, core
from .behrend import behrend_set, has_3ap, optimal_3ap_free
from .construct import ConstructionError, TriangleFreeMatroid, build_construction, verify_construction_properties
from .core import MatroidError
from .planar import Configuration, _exact_int, is_triangle_free, triple_points

USAGE_ERROR = 2
VERIFY_ERROR = 3


def _emit(obj, out_path=None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_epsilon(text: str) -> Fraction:
    """The --epsilon text as an exact rational ("0.3" is 3/10); the harness
    refuses one that is not positive (``analysis._epsilon``)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatroidError(f"bad epsilon {text!r}: {exc}")


def cmd_behrend(args) -> int:
    b = behrend_set(args.n)
    p = b.params
    obj = {
        "N": p.N,
        "n": p.n,
        "s": p.s,
        "k": p.k,
        "size": len(b),
        "members": list(b.members),
    }
    if b.via_fallback:
        obj["fallback"] = True
    if args.verify:
        obj["has_3ap"] = has_3ap(b.members)
        if obj["has_3ap"]:
            _emit(obj, args.out)
            return VERIFY_ERROR
    if args.oracle:
        if args.n > 30:
            raise MatroidError("--oracle requires N <= 30")
        opt = optimal_3ap_free(args.n)
        obj["oracle_size"] = len(opt)
        obj["oracle_members"] = list(opt)
    _emit(obj, args.out)
    return 0


def _matroid_checks(tfm: TriangleFreeMatroid) -> dict:
    """Axioms 1-3 of the matroid (``core.check_axioms`` picks the exhaustive
    or the sampled check from the point count) and the construction's exact
    structural properties."""
    axioms = core.check_axioms(tfm.to_matroid())
    props = verify_construction_properties(tfm)
    return {
        "axioms_mode": axioms.mode,
        "axioms_ok": axioms.ok,
        "axioms_inconclusive": axioms.inconclusive,
        "properties_ok": props.ok,
    }


def cmd_construct(args) -> int:
    build = build_construction(args.n)
    obj = build.to_json()
    if build.degenerate:
        obj["warning"] = "degenerate configuration: no line survived pruning"
    ok = True
    if args.verify:
        checks = _matroid_checks(build.matroid)
        obj["checks"] = {"triangle_free": True, **checks}  # exact gate at build time
        ok = checks["axioms_ok"] and checks["properties_ok"]
    _emit(obj, args.out)
    return 0 if ok else VERIFY_ERROR


def cmd_sweep(args) -> int:
    ns = [int(t) for t in args.ns.split(",") if t]
    if not ns:
        raise MatroidError(f"--ns {args.ns!r} names no N")
    eps = _parse_epsilon(args.epsilon)
    rows = analysis.joints_sweep(ns, eps)
    if args.out:
        analysis.write_sweep_csv(rows, args.out)
        json_path = args.out + ".json" if not args.out.endswith(".csv") else args.out[:-4] + ".json"
        with open(json_path, "w") as fh:
            fh.write(analysis.sweep_json(rows) + "\n")
    else:
        sys.stdout.write(analysis.sweep_json(rows) + "\n")
    failed = [r for r in rows if r.get("error")]
    if failed and args.strict:
        return VERIFY_ERROR
    return 0


def cmd_grid3d(args) -> int:
    pts, descriptors = affine.grid3d(args.k)
    m = affine.affine_matroid(pts)
    lines = affine.descriptor_flats(m, descriptors)
    joints = core.count_joints(m, lines)
    obj = {"k": args.k, "points": len(pts), "lines": len(lines), "joints": joints}
    _emit(obj, args.out)
    if args.verify and joints != args.k**3:
        sys.stderr.write(f"error: expected {args.k ** 3} joints, found {joints}\n")
        return VERIFY_ERROR
    return 0


def cmd_verify(args) -> int:
    with open(args.dump) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise MatroidError(f"dump {args.dump!r} is nested too deeply to parse") from None
    config = Configuration.from_json(data)
    for key in ("N", "triple_points"):
        if data.get(key) is not None:
            _exact_int(data[key])
    if any(len(pts) < 2 for pts in config.line_points):
        sys.stderr.write("error: dump is not a pruned configuration\n")
        return VERIFY_ERROR
    if not is_triangle_free(config):
        sys.stderr.write("error: dump contains a triangle\n")
        return VERIFY_ERROR
    n_triple = len(triple_points(config))
    obj = {
        "N": data.get("N"),
        "points": len(config.points),
        "lines": len(config.lines),
        "triple_points": n_triple,
        "triangle_free": True,
    }
    if data.get("triple_points") is not None and data["triple_points"] != n_triple:
        sys.stderr.write("error: triple point count does not match dump\n")
        return VERIFY_ERROR
    obj.update(_matroid_checks(TriangleFreeMatroid(config)))
    _emit(obj, args.out)
    return 0 if obj["axioms_ok"] and obj["properties_ok"] else VERIFY_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each subcommand binds its ``cmd_*``,
    which looks its own callees up when it runs."""
    parser = argparse.ArgumentParser(prog="matroid-joints")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("behrend", help="construct a 3-AP-free subset of 1..N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="compare against the brute-force optimum (N <= 30)")
    p.add_argument("--verify", action="store_true", help="re-run the 3-AP scan")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_behrend)

    p = sub.add_parser("construct", help="build the triangle-free configuration and matroid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("sweep", help="joints vs lines over a list of N")
    p.add_argument("--ns", required=True, help="comma-separated N values")
    p.add_argument("--epsilon", default="1/2", help="exact rational, e.g. 1/2")
    p.add_argument("--out", default=None, help="CSV path; a JSON mirror is written next to it")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grid3d", help="the classical 3D grid joints configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grid3d)

    p = sub.add_parser("verify", help="load a construction dump and re-run checks")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (MatroidError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except ConstructionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
