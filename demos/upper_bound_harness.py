"""The measurement half: pruning, degree partition, triangle statistics.

Upper-bound arguments for the joints count run through a pipeline: remove
lines lying in heavy planes, split the remaining points by line degree,
and count triangles in the line-intersection graph, separating the
degenerate ones (three lines through a single point).  This script runs
that pipeline on the triangle-free construction and prints every
statistic, then sweeps several N.
"""

from fractions import Fraction

from matroid_joints import build_construction
from matroid_joints.analysis import (
    SWEEP_COLUMNS,
    analyze,
    degree_partition,
    intersection_graph,
    joints_sweep,
    triangle_stats,
)

build = build_construction(400)
m = build.matroid.to_matroid()
lines = build.matroid.matroid_lines()
report = analyze(m, lines, Fraction(1, 2))

print("N = 400, epsilon = 1/2")
print(f"  lines before/after pruning: {report.L_initial} / {report.L_after_prune}")
print(f"  planes pruned:              {report.planes_pruned}")
print(f"  joints before/after:        {report.joints_initial} / {report.joints_after_prune}")
print(f"  heavy points |E1|:          {report.E1_size}")
# E2 is every point of degree in [3, ceil(4/epsilon)) = [3, 8), with no rank test
print(f"  degree 3..7 points |E2|:    {report.E2_size}")
# on the matroid's own lines analyze reads these off the line degrees; the
# reference stages, handed the same lines as a plain list, build the
# intersection graph and walk its triangles (no plane is pruned here)
plain = list(lines)
_, e2, _ = degree_partition(m, plain, Fraction(1, 2))
graph = intersection_graph(m, plain, e2)
stats = triangle_stats(graph)
print("                              analyze / reference stages")
print(f"  intersection-graph edges:   {report.graph_edges} / {len(graph.edges)}")
print(f"  triangles:                  {report.triangles} / {stats.total}")
print(f"  degenerate triangles:       {report.degenerate_triples} / {stats.degenerate}")

print()
print("sweep over N (joints J vs lines L):")
rows = joints_sweep([50, 100, 200, 400], Fraction(1, 2))
for row in rows:
    ratio = row["joints_over_L2"]
    ratio_text = f"{ratio:.4f}" if ratio is not None else "  -   "
    note = " degenerate" if row.get("warning") else ""
    print(f"  N={row['N']:4d}  |E|={row['E_size']:4d}  L={row['L']:4d}  J={row['joints']:4d}  J/L^2={ratio_text}{note}")

print()
print(f"columns available for CSV export: {', '.join(SWEEP_COLUMNS)}")
