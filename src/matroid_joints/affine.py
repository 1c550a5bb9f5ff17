"""Exact-rational affine independence and the classical 3D grid of joints.

All rank decisions use exact arithmetic.  ``affine_matroid`` scales its
points once, at build, onto one integer lattice (every coordinate times
the lcm of all coordinate denominators); scaling is an affine bijection,
so independence is unchanged and duplicates are found on the lattice.
With duplicates rejected, the oracle answers by set size: at most two
points are independent and more than dim + 1 dependent, with no rank;
four points of Q^3 (the star of a joint) are independent iff one integer
triple product of their difference rows is non-zero; any other set costs
one fraction-free (Bareiss) integer rank of difference rows, the
reference.  The matroid also supplies ``span``: the primitive integer
normals of an independent set's affine hull, from an exact null space,
decide membership in its closure.  They depend only on the hull's
direction space, and one slot keeps the last of them with their member
table, from the normals' values to points, built in one pass over the
coordinate columns.  A basis whose size less one plus their number is
the dimension, and whose points all lie in its first point's part of the
table, has their direction space and is one lookup with no null space,
so a parallel class (such as the grid's lines of one axis) computes one
null space; new normals replace the slot's table.
Floating point never touches an incidence decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Sequence

from .core import LineIndex, Matroid, MatroidError, _int, make_flat


@dataclass(frozen=True)
class RationalPoint:
    coords: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)


def _require_exact(coords: Iterable) -> None:
    """MatroidError on the first coordinate that is not an int (bool
    excluded) or a Fraction."""
    for c in coords:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise MatroidError(f"coordinate {c!r} is not an int or a Fraction")


def point(*coords) -> RationalPoint:
    """Raises MatroidError on a coordinate that is not an int (bool
    excluded) or a Fraction (``_require_exact``); nothing is coerced."""
    _require_exact(coords)
    return RationalPoint(tuple(Fraction(c) for c in coords))


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    Bareiss one-step elimination: every division is exact, intermediate
    entries stay bounded by minors of the input.  The caller's rows are
    only read: each step takes its pivot row out of the remaining rows and
    builds each of the others anew, eliminated below the pivot.
    """
    rows = list(rows)
    if not rows:
        return 0
    rank, prev = 0, 1
    for c in range(len(rows[0])):
        for i, row in enumerate(rows):
            if row[c]:
                break
        else:
            continue
        top = rows.pop(i)
        rank += 1
        if not rows:
            break
        p = top[c]
        rows = [[(a * p - row[c] * b) // prev for a, b in zip(row, top)] for row in rows]
        prev = p
    return rank


def integer_null_space(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """An integer basis of {v : row . v = 0 for every row}.

    Fraction-free Gauss-Jordan elimination (each combined row divided by
    the gcd of its entries) leaves one pivot per independent row and
    zeros above and below it; each free column f then gives the vector
    with v[f] = lcm of the pivots and v[c] = -row[f] * v[f] / pivot at
    each pivot column c, an exact division.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                row = [a * top[c] - row[c] * b for a, b in zip(row, top)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    scale = lcm(*(mat[k][c] for k, c in enumerate(pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = scale
        for k, c in enumerate(pivots):
            v[c] = -mat[k][f] * scale // mat[k][c]
        basis.append(v)
    return basis


def _require_one_dimension(points: Sequence[RationalPoint]) -> None:
    if len({p.dim for p in points}) > 1:
        raise MatroidError("points of mixed dimension")


def _to_lattice(points: Sequence[RationalPoint]) -> list[tuple[int, ...]]:
    """The points times the lcm of all their coordinate denominators.

    A ``RationalPoint`` built directly may hold any value, so the pass that
    reads the denominators first reads the coordinates' types: anything
    but an int or a Fraction is checked by ``_require_exact``, which
    refuses a float, a str or a bool (an int that would read as 1 or 0).
    """
    coords = [c for p in points for c in p.coords]
    if not set(map(type, coords)) <= {int, Fraction}:
        _require_exact(coords)
    scale = lcm(*(c.denominator for c in coords))
    return [tuple(c.numerator * (scale // c.denominator) for c in p.coords) for p in points]


def _triple_product(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """u . (v x w), the determinant of the rows u, v, w of Z^3."""
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = u, v, w
    return u0 * (v1 * w2 - v2 * w1) - u1 * (v0 * w2 - v2 * w0) + u2 * (v0 * w1 - v1 * w0)


def _lattice_independent(pts: Sequence[Sequence[int]]) -> bool:
    """True iff the integer points are affinely independent.

    By set size: at most one point is independent; more than dim + 1 are
    dependent, with no rank; four points of Z^3 are independent iff the
    triple product of their difference rows is non-zero (one 3 x 3
    determinant); any other set is ranked by ``integer_rank``, the
    reference.
    """
    if len(pts) <= 1:
        return True
    base, *rest = pts
    if len(rest) > len(base):
        return False
    if len(rest) == 3 == len(base):
        return _triple_product(*(list(map(sub, p, base)) for p in rest)) != 0
    return integer_rank([list(map(sub, p, base)) for p in rest]) == len(rest)


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The non-zero integer vector v divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(a // g for a in v)


def _levels(normal: Sequence[int], columns: Sequence[Sequence[int]]) -> list[int]:
    """normal . e for every point e of the columns, one column term per
    non-zero component of the (non-zero) normal."""
    (c0, col0), *terms = [(c, col) for c, col in zip(normal, columns) if c]
    values = [c0 * x for x in col0]
    for c, col in terms:
        values = [v + c * x for v, x in zip(values, col)]
    return values


def affine_independent(points: Sequence[RationalPoint]) -> bool:
    """True iff the affine span of the points has dimension len(points) - 1."""
    pts = list(points)
    _require_one_dimension(pts)
    return _lattice_independent(_to_lattice(pts))


def affine_matroid(points: Sequence[RationalPoint]) -> Matroid:
    """The matroid of affinely independent subsets of a finite point set.

    The oracle sorts the subset once and reads the index range check off
    the ends of that sorted list.  It then answers every set of at most
    two points True with no rank: duplicates are rejected here, on the
    lattice (scaling is a bijection, so lattice points repeat iff the
    given points do), and two distinct points are affinely independent.
    A larger set is answered by ``_lattice_independent``: more than
    dim + 1 points are dependent with no rank, four points of Q^3 cost one
    triple product, and any other set one integer rank.

    ``span`` maps an independent B to the points of its affine hull.  Let
    b0 be B's first point and N the hull's primitive integer normals (the
    null vectors of B's difference rows, each divided by the gcd of its
    entries).  A point e is on the hull iff n . e = n . b0 for every n in
    N, so the hulls with normals N partition the points by their values
    (n . e for n in N), and b0's values name B's part.  One slot holds
    the N of the last span with its member table from values to
    ascending point indices, the values summed from whole coordinate
    columns, one term per non-zero component of each n.  The closure is
    one lookup of b0's values, exact because the table's parts are
    exactly the solution sets of those equations.  N depends only on the
    hull's direction space: the null space is read off the reduced echelon
    form of the difference rows, which the direction space fixes, and each
    vector is made primitive with its free entry positive.  So parallel
    hulls, such as the grid's lines along one axis, share their N, and a
    span reuses the slot's N with no null space when they are B's: when
    |N| + |B| - 1 = dim and every point of B lies in b0's part of the
    slot's table, a membership test on the part the span returns (n . b =
    n . b0 iff n annihilates b - b0, so the test builds no difference
    row).  B is independent, so its direction space has dimension |B| - 1
    and lies in N's orthogonal complement, of dimension dim - |N|; equal
    dimensions make the two spaces one.  Otherwise the span computes its
    N, builds the table for it and replaces the slot's, so the matroid
    holds at most one table of E entries and grid3d(k) computes three null
    spaces, one per axis.
    """
    pts = tuple(points)
    _require_one_dimension(pts)
    lattice = _to_lattice(pts)
    if len(set(lattice)) != len(lattice):
        raise MatroidError("duplicate points")
    size = len(lattice)
    dim = pts[0].dim if pts else 0
    columns = list(zip(*lattice))
    # (normals, member table) of the last span; always replaced whole,
    # so a table is never read under other normals
    slot: tuple = (None, None)

    def oracle(subset: frozenset) -> bool:
        idx = sorted(subset)
        if idx and (idx[0] < 0 or idx[-1] >= size):
            bad = next(i for i in idx if not 0 <= i < size)
            raise MatroidError(f"unknown point index {bad}")
        if len(idx) <= 2:
            return True
        return _lattice_independent([lattice[i] for i in idx])

    def span(basis: frozenset) -> frozenset:
        nonlocal slot
        if not basis:
            return frozenset()
        normals, table = slot
        if normals is not None and len(normals) + len(basis) - 1 == dim:
            part = frozenset(table[tuple(_dot(n, lattice[min(basis)]) for n in normals)])
            if basis <= part:
                return part
        first, *rest = (lattice[i] for i in sorted(basis))
        diffs = [list(map(sub, p, first)) for p in rest]
        normals = tuple(_primitive(n) for n in integer_null_space(diffs, dim))
        if not normals:  # a full-rank hull holds every point
            return frozenset(range(size))
        table = {}
        for j, levels in enumerate(zip(*(_levels(n, columns) for n in normals))):
            table.setdefault(levels, []).append(j)
        slot = (normals, table)
        return frozenset(table[tuple(_dot(n, first) for n in normals)])

    return Matroid(labels=pts, oracle=oracle, span=span)


def grid3d(k: int) -> tuple[tuple[RationalPoint, ...], list[tuple[int, ...]]]:
    """The {1..k}^3 grid with its 3k^2 axis-parallel lines, each line the
    tuple of its member point indices.

    Every grid point lies on exactly three of these lines, one per axis.
    """
    _int("k", k)
    if k < 2:
        raise MatroidError("grid3d requires k >= 2")
    coords = range(1, k + 1)
    triples = [(x, y, z) for x in coords for y in coords for z in coords]
    value = [Fraction(c) for c in range(k + 1)]  # one Fraction per coordinate value
    pts = tuple(RationalPoint((value[x], value[y], value[z])) for x, y, z in triples)
    index = {t: i for i, t in enumerate(triples)}

    def at(x: int, y: int, z: int) -> int:
        return index[x, y, z]

    lines = [tuple(at(t, a, b) for t in coords) for a in coords for b in coords]
    lines += [tuple(at(a, t, b) for t in coords) for a in coords for b in coords]
    lines += [tuple(at(a, b, t) for t in coords) for a in coords for b in coords]
    return pts, lines


def descriptor_flats(m: Matroid, lines: Iterable[Sequence[int]]) -> LineIndex:
    """Matroid lines for the member-index tuples, as one ``LineIndex`` of
    the closures of a point pair on each, so that the stages it is handed
    to read it as it is.  A pair that does not close to rank 2 raises
    MatroidError.  The index is a read-only sequence of flats with no
    equality and no ``+``: compare or join ``list(...)`` of it."""
    flats = [make_flat(m, members[:2]) for members in lines]
    for i, f in enumerate(flats):
        if f.rank != 2:
            raise MatroidError(f"descriptor {i} closes to rank {f.rank}, not to a line")
    return LineIndex(m.size, [f.key() for f in flats])
