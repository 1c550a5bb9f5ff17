"""The classical joints configuration: a k x k x k grid in Q^3.

Axis-parallel lines through the grid give L = 3k^2 lines, and every grid
point is a joint, so J = k^3 = (L/3)^(3/2).  Everything is computed with
exact integer arithmetic through the generic matroid interface, not with
coordinate geometry shortcuts: a joint is a point on three lines whose
union has rank 4.  Each line is the closure of two of its points, taken
with the affine matroid's ``span`` (the points on the affine hull, found
with integer normals; the k^2 lines of one axis share their normals,
computed once per axis with a table of the points by their values, so
each other line of the axis is one lookup); tests check that span
against the closure that asks the independence oracle about every
point.
"""

from matroid_joints import affine_matroid, count_joints, descriptor_flats, grid3d

for k in range(2, 11):
    points, descriptors = grid3d(k)
    m = affine_matroid(points)
    lines = descriptor_flats(m, descriptors)
    joints = count_joints(m, lines)
    print(f"k={k:2d}: {len(points):4d} points, {len(lines):3d} lines, {joints:4d} joints")
    assert joints == k**3
    assert joints**2 * 27 == len(lines) ** 3  # J^2 = L^3 / 27 exactly

print()
print("J^2 * 27 == L^3 for every k: the grid realizes J ~ L^(3/2),")
print("matching the lower bound that the joints problem is about.")
