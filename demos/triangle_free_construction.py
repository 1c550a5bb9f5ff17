"""From a 3-AP-free set to a rank-4 matroid whose joints we can count.

Pipeline: take the N x N integer grid with its horizontals, verticals and
slope-1 diagonals (4N+1 lines); keep only points (a, b) whose coordinate
sum a + b lies in a 3-AP-free set B; prune lines down to those with at
least two surviving points.  The filtered configuration has no triangle
(a triangle's three coordinate sums would form a 3-AP), so it carries a
matroid of rank at most 4 in which every triple intersection point is a
joint.
"""

from matroid_joints import (
    Matroid,
    build_construction,
    count_joints,
    find_triangles,
    rank,
    triple_points,
)

N = 200
build = build_construction(N)
cfg = build.config
m = build.matroid.to_matroid()
lines = build.matroid.matroid_lines()

print(f"N = {N}")
print(f"  3-AP-free set B: {len(build.behrend)} residues")
print(f"  grid lines:      {len(build.grid.lines)}")
print(f"  kept points |E|: {len(cfg.points)}")
print(f"  kept lines  |L|: {len(cfg.lines)}")
print(f"  triangles:       {len(find_triangles(cfg, limit=1))} (must be 0)")

# the matroid's own oracle over its own lines: the joint rule reads the
# joints off the incidence; an oracle that wraps it asks each star
joints = count_joints(m, lines)
asked = count_joints(Matroid(m.labels, lambda s: m.oracle(s)), lines)
triples = triple_points(cfg)
print(f"  triple points:   {len(triples)}")
print(f"  matroid joints:  {joints} (asked of the oracle: {asked})")
print(f"  ground rank:     {rank(m, range(m.size))} (at most 4 by construction)")

assert not find_triangles(cfg, limit=1)
assert joints == asked == len(triples)
print()
print("Every point on three configuration lines is a joint of the matroid:")
print("the three lines span rank 4, and no plane contains them all.")
