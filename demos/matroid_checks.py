"""Axiom and incidence checking for oracle-defined matroids.

The library treats a matroid as an opaque independence oracle.  For
small ground sets we can verify the three matroid axioms exhaustively
and report minimal counterexamples when an "oracle" is not actually a
matroid; for simple matroids we can also check the classical point/line/
plane incidence laws.
"""

from matroid_joints import (
    Matroid,
    affine_matroid,
    check_axioms,
    check_incidence_properties,
    check_submodularity,
    point,
)

# a genuine matroid: six points in general position in Q^2
m = affine_matroid(
    [point(0, 0), point(1, 0), point(0, 1), point(2, 3), point(-1, 4), point(3, -2)]
)
report = check_axioms(m)
print(f"affine matroid on 6 points: axioms ok = {report.ok}")

inc = check_incidence_properties(m)
print(f"  incidence laws ok = {inc.ok}  ({inc.lines} lines, {inc.planes} planes)")

sub = check_submodularity(m, pairs=500)
print(f"  submodularity on 500 sampled pairs: violations = {len(sub.violations)}")

# not a matroid: "independent iff size != 2" violates hereditarity
fake = Matroid(labels=tuple(range(4)), oracle=lambda s: len(s) != 2)
report = check_axioms(fake)
print()
print(f"fake oracle (independent iff |X| != 2): axioms ok = {report.ok}")
print(f"  axiom 2 counterexample: {report.axiom2.counterexample}")
