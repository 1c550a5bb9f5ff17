"""Generic finite matroid engine over an abstract independence oracle.

A matroid is given by an ordered ground set (a tuple of labels) and a pure
predicate on frozensets of element indices.  Everything else -- rank,
closure, flats, lines, planes, joints -- is derived from the oracle; a
matroid that knows its flats structurally may also supply ``span``, which
closure then uses in place of the per-element oracle scan.
The incidence of a family of lines (``LineIndex``) is read here too: its
exact triangle gate (``find_triangles``, cached as
``LineIndex.triangle_free``) and the oracle on a triangle-free incidence
(``TriangleFreeMatroid``) read nothing but it.
All operations are deterministic: subsets are canonicalized to sorted
index tuples, greedy rank scans in ground order, and reports list
counterexamples in (size, lex) order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Optional


class MatroidError(ValueError):
    """Domain error: bad subset, non-line input, violated precondition."""


@dataclass(frozen=True)
class Matroid:
    """Ground set plus independence oracle.

    ``labels`` fixes the element order; all index-based operations refer
    to positions in this tuple.  ``oracle`` must be a pure total function
    from frozensets of indices to bool.  ``span``, when given, maps an
    independent set B to cl(B) and must agree with the oracle: it holds B
    and exactly the e for which B + e is dependent.
    """

    labels: tuple
    oracle: Callable[[frozenset], bool]
    span: Optional[Callable[[frozenset], frozenset]] = None

    @property
    def size(self) -> int:
        return len(self.labels)

    def _subset(self, subset: Iterable[int]) -> frozenset:
        s = frozenset(subset)
        for e in s:
            # bool is an int subclass, and True is not element 1
            if isinstance(e, bool) or not (isinstance(e, int) and 0 <= e < len(self.labels)):
                raise MatroidError(f"element {e!r} not in ground set of size {len(self.labels)}")
        return s


@dataclass(frozen=True)
class Flat:
    """A closed set together with its rank."""

    members: frozenset
    rank: int

    def key(self) -> tuple:
        return tuple(sorted(self.members))


def _basis(m: Matroid, s: frozenset) -> frozenset:
    """Greedy basis of s: scan in ground order, keep elements that stay independent."""
    current: frozenset = frozenset()
    for e in sorted(s):
        if m.oracle(current | {e}):
            current = current | {e}
    return current


def rank(m: Matroid, subset: Iterable[int]) -> int:
    """Size of a greedy basis of ``subset``."""
    return len(_basis(m, m._subset(subset)))


def _closure_of(m: Matroid, s: frozenset, b: frozenset) -> frozenset:
    """cl(S) from a greedy basis B of S: S + cl(B), with cl(B) from
    ``m.span`` when the matroid supplies it, else from one oracle call per
    element outside S."""
    if m.span is not None:
        return s | m.span(b)
    return s | frozenset(e for e in range(m.size) if e not in s and not m.oracle(b | {e}))


def closure(m: Matroid, subset: Iterable[int]) -> frozenset:
    """All elements whose addition leaves the rank unchanged.

    One greedy basis B of S, then cl(S) = S + cl(B): an independent B + e
    gives r(S + e) > r(S), and a dependent B + e leaves B maximal in S + e,
    so by augmentation r(S + e) = |B| = r(S).
    """
    s = m._subset(subset)
    return _closure_of(m, s, _basis(m, s))


def is_flat(m: Matroid, subset: Iterable[int]) -> bool:
    s = m._subset(subset)
    return closure(m, s) == s


def make_flat(m: Matroid, subset: Iterable[int]) -> Flat:
    """The flat spanned by ``subset``: its closure with the common rank,
    both from one greedy basis."""
    s = m._subset(subset)
    b = _basis(m, s)
    return Flat(_closure_of(m, s, b), len(b))


def flats_of_rank(m: Matroid, k: int, *, allow_large: bool = False) -> list[Flat]:
    """All flats of rank exactly k, as closures of independent k-subsets.

    One oracle call per k-subset: an independent one is its own greedy
    basis (its subsets are independent), so it is closed from itself.
    The enumeration cost grows as size**k, so k > 3 requires
    ``allow_large=True``.
    """
    if k < 1:
        raise MatroidError("k must be >= 1")
    if k > 3 and not allow_large:
        raise MatroidError("flats_of_rank with k > 3 requires allow_large=True")
    seen: dict[tuple, Flat] = {}
    for combo in combinations(range(m.size), k):
        s = frozenset(combo)
        if not m.oracle(s):
            continue
        cl = _closure_of(m, s, s)
        key = tuple(sorted(cl))
        if key not in seen:
            seen[key] = Flat(cl, k)
    return [seen[key] for key in sorted(seen)]


class LineIndex(Sequence[Flat]):
    """A read-only sequence of lines over a ground set of ``size`` elements:
    line i is the ascending tuple of its members ``line_points[i]``, whose
    first two are its two smallest, and ``self[i]`` is its rank-2 flat,
    built from those members each time it is read.  The index caches its
    incidence and nothing else, each piece built when first read: the
    point -> line index (``by_point``), the meeting masks (``meets``: which
    lines each line meets) and the triangle gate's verdict
    (``triangle_free``).  A stage that asks where two lines meet reads each
    pair at its point (``_meeting_pairs``), after ``meets`` has checked that
    no two lines share two points; the meeting map (``_common_points``)
    is built only inside the gate, and only where a triangle has a vertex.

    Every function that takes a sequence of lines reads an index as it is
    and builds one (``_require_lines``) from any other, so a caller that
    hands one family of lines to several stages pays for each piece of its
    incidence once.  ``planar.Configuration`` is one, and is the
    construction's family of lines, with its points' coordinates; a bare
    index, built from the lines' tuples alone, has none, and
    ``TriangleFreeMatroid`` labels its points 0..size-1.

    An index is trusted as it is: a hand-built one must give each line as
    a strictly ascending tuple of indices into the ground set
    (``TriangleFreeMatroid`` refuses a line whose ends fall outside).
    """

    def __init__(self, size: int, line_points: Sequence[tuple[int, ...]]):
        self.size = size
        self.line_points = line_points

    def __len__(self) -> int:
        return len(self.line_points)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [Flat(frozenset(pts), 2) for pts in self.line_points[i]]
        return Flat(frozenset(self.line_points[i]), 2)

    @cached_property
    def by_point(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _lines_by_point(self.size, self.line_points)))

    @cached_property
    def meets(self) -> list[int]:
        """For each line i, the bitmask of the lines that meet it
        (``_meeting_masks``), bit i included when line i has a point.

        The two-point check: with d_x the number of lines through x, the
        masks hold exactly sum over x of d_x (d_x - 1) ordered pairs of
        distinct lines iff no two lines share two points, since a pair
        sharing k points is counted k times by the sum and once by the
        masks.  So one sum checks that lines meet at most once, and when it
        fails ``_common_points`` raises its MatroidError naming the pair."""
        meets = _meeting_masks(len(self), self.by_point)
        met = sum(m.bit_count() for m in meets) - sum(1 for pts in self.line_points if pts)
        if met != sum(len(through) * (len(through) - 1) for through in self.by_point):
            _common_points(self.by_point)
        return meets

    @cached_property
    def triangle_free(self) -> bool:
        """The exact gate's verdict, ``find_triangles(self, limit=1)``
        finding none, reached once however many stages ask."""
        return not find_triangles(self, limit=1)


def _require_lines(m: Matroid, lines: Sequence[Flat]) -> LineIndex:
    """The index of ``lines``.  An index is returned as it is, and one built
    for a ground set of another size raises MatroidError.  Any other
    sequence is input from outside the program: each line is checked to be
    a ``Flat`` of rank 2 with two or more members of the ground set (rank 2
    needs two), with no oracle call, and sorted once into a new index."""
    if isinstance(lines, LineIndex):
        if lines.size != m.size:
            raise MatroidError(f"line index over {lines.size} elements, ground set of size {m.size}")
        return lines
    line_points = []
    for f in lines:
        if not isinstance(f, Flat) or f.rank != 2 or len(f.members) < 2:
            raise MatroidError(f"expected a rank-2 flat, got {f!r}")
        m._subset(f.members)
        line_points.append(tuple(sorted(f.members)))
    return LineIndex(m.size, line_points)


def _lines_by_point(size: int, lines: Iterable[Iterable[int]]) -> list[list[int]]:
    """For each element, the ascending indices of the lines (or planes),
    given by their members, through it."""
    by_point: list[list[int]] = [[] for _ in range(size)]
    for i, members in enumerate(lines):
        for x in members:
            by_point[x].append(i)
    return by_point


def _meeting_masks(n_lines: int, by_point: Iterable[Sequence[int]]) -> list[int]:
    """For each of ``n_lines`` lines, the bitmask of the lines through the
    points of ``by_point`` (each point's lines) that it passes through:
    every line through a point gets the whole mask of that point, its own
    bit included."""
    meets = [0] * n_lines
    for through in by_point:
        mask = 0
        for l in through:
            mask |= 1 << l
        for l in through:
            meets[l] |= mask
    return meets


def _meeting_pairs(by_point: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int]]:
    """Each pair of lines i < j through a point x, as (i, j, x), point by
    point in the order of the point -> line index: the meeting map's order,
    each pair once when no two lines share two points."""
    return ((i, j, x) for x, through in enumerate(by_point) for i, j in combinations(through, 2))


def _common_points(by_point: Sequence[Sequence[int]]) -> dict[tuple[int, int], int]:
    """The meeting map: each pair of lines i < j that meet -> their point,
    in the order of ``_meeting_pairs``.  Lines of a simple matroid meet at
    most once, so a pair met twice raises MatroidError naming the least
    such pair and how many points it shares."""
    common: dict[tuple[int, int], int] = {}
    for i, j, x in _meeting_pairs(by_point):
        if common.setdefault((i, j), x) != x:
            shared = Counter(p for ls in by_point for p in combinations(ls, 2))
            i, j = min(p for p, k in shared.items() if k > 1)
            raise MatroidError(f"lines {i} and {j} share {shared[i, j]} points")
    return common


@dataclass(frozen=True)
class Triangle:
    """Three points and three lines, each line through exactly two points.

    ``points`` is sorted; ``lines[k]`` passes through the pair omitting
    ``points[2 - k]`` (so lines[0] joins points[0],points[1], etc.).
    """

    points: tuple[int, int, int]
    lines: tuple[int, int, int]


def find_triangles(index: LineIndex, limit: Optional[int] = None) -> list[Triangle]:
    """Enumerate triangles in lexicographic order of their point triples.

    A triangle is three distinct points and three distinct lines with each
    line incident to exactly two of the points.  ``limit`` (at least 1)
    caps the number of records returned.  The walk reads the lines'
    meeting masks (``index.meets``, which raise on two lines sharing two
    points), and builds the meeting map (``_common_points``) for this call
    only at the first point where a triangle has a vertex, so a
    triangle-free incidence builds none.
    """
    if limit is not None and limit < 1:
        raise MatroidError(f"limit must be at least 1, got {limit}")
    out: list[Triangle] = []
    by_point = index.by_point
    for found in _triangles_at(index.meets, lambda: _common_points(by_point), enumerate(by_point)):
        if found:
            out += sorted(found, key=lambda t: t.points)
            if limit is not None and len(out) >= limit:
                return out[:limit]
    return out


def _triangles_at(
    meets: Sequence[int],
    angle: Callable[[], Mapping[tuple[int, int], int]],
    by_point: Iterable[tuple[int, Sequence[int]]],
) -> Iterator[list[Triangle]]:
    """For each point x with its ascending lines, the triangles whose
    smallest vertex is x.  ``meets`` holds each line's bitmask of the lines
    it meets at the points of ``by_point``, its own bit included
    (``_meeting_masks`` of their line lists); ``angle()`` returns the
    map from each pair of lines a < b that meet there to their meeting
    point, and is called once, at the first point that fails the test
    below.

    Disjoint outside-neighbourhoods: a line l3 not through x that meets
    two lines l1 < l2 through x closes a triangle, since it meets them at
    two points other than x, and distinct ones (two lines share at most one
    point).  So a triangle has a vertex at x iff the sets of lines meeting
    each line through x, less the d lines through x, are not pairwise
    disjoint.  Each line through x meets all d of them there, so its mask
    holds popcount(mask) - d lines outside them, and the union of the masks
    holds popcount(OR of the masks) - d; the sets are disjoint iff that is
    the sum of popcount(mask) - d^2.  This costs O(d) mask operations at x,
    and only at a point that fails it are the pairs l1, l2 walked: a pair
    whose common mask holds more than the d lines through x has such an
    l3, found once the lines through x are masked off.
    """
    meeting = None
    for x, ls in by_point:
        found: list[Triangle] = []
        d = len(ls)
        union = total = 0
        for l in ls:
            mask = meets[l]
            union |= mask
            total += mask.bit_count()
        if union.bit_count() - d != total - d * d:
            if meeting is None:
                meeting = angle()
            through = sum(1 << l for l in ls)
            for l1, l2 in combinations(ls, 2):
                common = meets[l1] & meets[l2]
                if common.bit_count() <= d:
                    continue
                third = common & ~through
                while third:
                    l3 = third.bit_length() - 1
                    third ^= 1 << l3
                    p = meeting[min(l1, l3), max(l1, l3)]
                    q = meeting[min(l2, l3), max(l2, l3)]
                    if x < p < q:
                        found.append(Triangle((x, p, q), (l1, l2, l3)))
                    elif x < q < p:
                        found.append(Triangle((x, q, p), (l2, l1, l3)))
        yield found


def is_triangle_free(index: LineIndex) -> bool:
    """The index's cached gate verdict (``LineIndex.triangle_free``)."""
    return index.triangle_free


def _joint_search(
    m: Matroid, x: int, through: Sequence[int], line_points: Sequence[tuple[int, ...]]
) -> Optional[tuple[int, int, int]]:
    """The first three of the lines ``through`` x (ascending indices into
    ``line_points``, in combinations order) whose union has rank >= 4, or
    None.

    The star of x over the three lines -- x plus the smallest other member
    of each line, read from its first two ascending points -- lies in their
    union and has at most 4 points, so one oracle call on it decides when
    it is independent with 4 points; otherwise the union itself is ranked,
    which keeps the answer exact where a line is not the closure of x and
    that point (a matroid that is not simple).
    """
    for combo in combinations(through, 3):
        star = {x}
        for i in combo:
            pts = line_points[i]
            star.add(pts[1] if pts[0] == x else pts[0])
        if len(star) == 4 and m.oracle(frozenset(star)):
            return combo
        union: frozenset = frozenset().union(*(line_points[i] for i in combo))
        if rank(m, union) >= 4:
            return combo
    return None


def is_joint(m: Matroid, x: int, lines: Sequence[Flat]) -> bool:
    """x is a joint iff it lies on three lines whose union has rank >= 4."""
    return joint_witness(m, x, lines) is not None


def _require_line_ranks(m: Matroid, index: LineIndex, which: Iterable[int]) -> None:
    """Each line of ``index`` that ``which`` names must have a greedy basis
    of two elements, or MatroidError.  The joint search reads each line as
    the rank-2 flat its label says, and a rank-3 set labelled rank 2 would
    lend it a fourth direction (in U(4, 6), the lines {0, 1, 2}, {0, 3}
    and {0, 4} would make 0 a joint).  An index the caller handed over is
    read as it is; this checks one built from a plain sequence, after
    ``_require_lines`` has checked every line with no oracle call."""
    for i in which:
        r = len(_basis(m, frozenset(index.line_points[i])))
        if r != 2:
            raise MatroidError(f"line {i} has rank {r}, not 2")


def joint_witness(m: Matroid, x: int, lines: Sequence[Flat]) -> Optional[tuple[int, int, int]]:
    """Indices into ``lines`` of the first three lines through x whose
    union has rank >= 4 (``_joint_search``), or None.  Of a plain sequence
    of lines, those through x must have rank 2 (``_require_line_ranks``),
    one greedy basis each; the others cannot change x's answer."""
    index = _require_lines(m, lines)
    m._subset({x})
    through = index.by_point[x]
    if index is not lines:
        _require_line_ranks(m, index, through)
    return _joint_search(m, x, through, index.line_points)


def count_joints(m: Matroid, lines: Sequence[Flat]) -> int:
    """The number of joints of ``lines``: each point with three or more
    lines through it is decided by ``_joint_search`` from the lines' two
    smallest members, one oracle call on the star of three lines when the
    star is independent.  That path is the reference.  A ``LineIndex`` is
    read as it is; any other sequence first has each line's rank checked,
    one greedy basis of its members (``_require_line_ranks``).

    The joint rule: when ``m``'s oracle is a ``TriangleFreeMatroid``'s own
    and ``lines`` is its configuration (``_reads_own_configuration``, the
    key of the prune's union rule and ``analysis.analyze``'s degree rule
    too), the joints are the points on
    three or more lines, counted from ``by_point`` with no oracle call.  The
    matroid's constructor has refused a triangle and a line of fewer than
    two points, and on such a configuration every point x on three lines is
    a joint: x and one other point of each line form a 4-set in the union
    of the three lines, and no line joins two of the other points, since it
    would close a triangle with their two lines.  So no line holds three of
    the four points and no angle covers them (one of its lines would hold
    two of the other points), and the 4-set is independent.
    """
    index = _require_lines(m, lines)
    if index is not lines:
        _require_line_ranks(m, index, range(len(index)))
    if _reads_own_configuration(m, index):
        return sum(len(through) >= 3 for through in index.by_point)
    line_points = index.line_points
    return sum(
        1
        for x, through in enumerate(index.by_point)
        if len(through) >= 3 and _joint_search(m, x, through, line_points) is not None
    )


# ---------------------------------------------------------------------------
# The matroid of a triangle-free incidence
# ---------------------------------------------------------------------------


class TriangleFreeMatroid:
    """Independence oracle over a triangle-free incidence, any ``LineIndex``
    (the construction's is a ``planar.Configuration``), read off the
    index itself: the matroid holds no copy of it.

    Independence is decided by a collinearity rule for 3-sets and a
    collinearity-or-angle rule for 4-sets; every 5-set is dependent.  An
    angle is the union of two lines meeting at a point.  The oracle reads
    both rules off each point's set of lines: a 3-set is dependent iff the
    three sets share a line; a 4-set {a, b, c, d} is dependent iff a line
    holds three of the points, or the lines of the two pairs of one pairing
    (ab|cd, ac|bd, ad|bc) meet at a point -- once no line holds three
    points, an angle that covers all four points covers two disjoint pairs,
    one per line.

    The rules are a matroid's on a triangle-free incidence whose lines each
    hold two or more points, and a triangle can break the exchange axiom,
    so the constructor refuses one through the index's cached gate verdict
    (``LineIndex.triangle_free``).  The lines are otherwise taken as they
    are (see ``LineIndex``), but a line with a member outside the ground
    set is refused before the gate reads it.
    """

    def __init__(self, config: LineIndex):
        # a line's members ascend, so its first and last bound them all
        size = config.size
        for i, pts in enumerate(config.line_points):
            if len(pts) < 2:
                raise MatroidError("every line must contain at least two points (prune first)")
            if pts[0] < 0 or pts[-1] >= size:
                raise MatroidError(f"line {i} {pts} has a point outside the ground set of size {size}")
        if not config.triangle_free:
            raise MatroidError("the configuration has a triangle: its oracle would not be a matroid")
        self.config = config

    def is_independent(self, subset: frozenset) -> bool:
        by_point = self.config.by_point
        if subset and (min(subset) < 0 or max(subset) >= len(by_point)):
            bad = next(p for p in sorted(subset) if not 0 <= p < len(by_point))
            raise MatroidError(f"unknown point index {bad}")
        n = len(subset)
        if n <= 2:
            return True
        if n >= 5:
            return False
        if n == 3:
            # dependent iff one line holds all three points; two points
            # share at most one line
            a, b, c = subset
            pb, pc = by_point[b], by_point[c]
            for l in by_point[a]:
                if l in pb:
                    return l not in pc
            return True
        # n == 4: dependent iff a line holds three of the points, or an
        # angle covers all four; with no line on three points, each line of
        # the angle holds two of them, so the angle is the lines of the two
        # pairs of one pairing, meeting at a configuration point.  A line
        # on three of the points holds a and two others, or b, c and d.
        a, b, c, d = subset
        pb, pc, pd = by_point[b], by_point[c], by_point[d]
        ab = ac = ad = bc = bd = cd = None
        for l in by_point[a]:
            if l in pb:
                if l in pc or l in pd:
                    return False
                ab = l
            elif l in pc:
                if l in pd:
                    return False
                ac = l
            elif l in pd:
                ad = l
        for l in pb:
            if l in pc:
                if l in pd:
                    return False
                bc = l
            elif l in pd:
                bd = l
        for l in pc:
            if l in pd:
                cd = l
        # the two lines of a pair are distinct here, so a set bit of the
        # meeting masks is another line that meets the first
        meets = self.config.meets
        return not (
            (ab is not None and cd is not None and meets[ab] >> cd & 1)
            or (ac is not None and bd is not None and meets[ac] >> bd & 1)
            or (ad is not None and bc is not None and meets[ad] >> bc & 1)
        )

    def span(self, basis: frozenset) -> frozenset:
        """cl(B) of an independent B, read off the incidence by the oracle's rules.

        B + e is dependent iff |B| = 4, or e lies on a line through two
        members of B (a collinear 3-set, or a line covering three of a
        4-set), or e lies on a line through the third member that meets
        that line at a configuration point (an angle covering the 4-set).
        Two distinct lines share at most one point, so a pair lies on at
        most one line, and the lines through the third member that meet it
        are those set in its meeting mask (``meets``).
        """
        cfg = self.config
        if len(basis) >= 4:
            return frozenset(range(cfg.size))
        out = set(basis)
        line_points, by_point, meets = cfg.line_points, cfg.by_point, cfg.meets
        for p, q in combinations(basis, 2):
            la = _line_through(by_point[p], by_point[q])
            if la is None:
                continue
            out.update(line_points[la])
            for r in basis:
                if r == p or r == q:
                    continue
                for lb in by_point[r]:
                    if meets[la] >> lb & 1:
                        out.update(line_points[lb])
        return frozenset(out)

    def to_matroid(self) -> Matroid:
        # a bare index labels its points 0..size-1
        labels = getattr(self.config, "points", None) or tuple(range(self.config.size))
        return Matroid(labels=labels, oracle=self.is_independent, span=self.span)

    def matroid_lines(self) -> LineIndex:
        """The matroid's lines: the configuration itself, a ``LineIndex``
        whose flats are the configuration lines' point sets, each of rank 2.

        The closure of two points of a line is that line's point set
        (``span``), so the flats are read from the configuration with no
        oracle call; ``construct.verify_construction_properties`` checks
        the same equality through the oracle alone.
        """
        return self.config


def _reads_own_configuration(m: Matroid, lines: Sequence) -> bool:
    """The key of the structural rules: ``m``'s oracle is a
    ``TriangleFreeMatroid``'s own ``is_independent``, and ``lines`` is that
    matroid's index itself.  Then the constructor has refused an index with
    a triangle or a line of fewer than two points, and three rules read
    their answers off the index's incidence: the union rule
    (``analysis._meeting_planes``), the joint rule (``count_joints``) and
    the degree rule (``analysis.analyze``'s graph statistics).

    An oracle that wraps the method (``lambda s: tfm.is_independent(s)``)
    is no bound method of the matroid, and another index over the same
    lines is not its index, so neither takes the key and both are answered
    through the oracle, the reference path.  The differential tests and
    ``construct.verify_construction_properties``' property (2) reach that
    path this way.
    """
    tfm = getattr(m.oracle, "__self__", None)
    return isinstance(tfm, TriangleFreeMatroid) and tfm.config is lines


def _line_through(p: Sequence[int], q: Sequence[int]) -> int | None:
    """The line through two points, given the lines through each, or None:
    two lines share at most one point, so there is at most one."""
    for l in p:
        if l in q:
            return l
    return None


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckResult:
    status: str
    counterexample: Optional[tuple] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS


@dataclass
class AxiomReport:
    mode: str
    axiom1: CheckResult
    axiom2: CheckResult
    axiom3: CheckResult

    @property
    def ok(self) -> bool:
        return self.axiom1.ok and self.axiom2.ok and self.axiom3.ok

    @property
    def inconclusive(self) -> bool:
        return INCONCLUSIVE in (self.axiom1.status, self.axiom2.status, self.axiom3.status)


EXHAUSTIVE_MAX_SIZE = 10  # largest ground set whose axioms are checked on every subset
SAMPLED_ROUNDS = 200  # random greedy bases drawn by the sampled axiom check


def check_axioms(m: Matroid, rng_seed: int = 0) -> AxiomReport:
    """Test Axioms 1-3 against the oracle; ``AxiomReport.mode`` names the check.

    A ground set of at most ``EXHAUSTIVE_MAX_SIZE`` elements is checked
    exhaustively: the oracle on every subset and every axiom-3 pair, with
    counterexamples minimal in (size, lex) order.  A larger one is checked
    on ``SAMPLED_ROUNDS`` greedy bases of random orders drawn from
    ``rng_seed``, about ``SAMPLED_ROUNDS * m.size`` oracle calls: axiom 2
    on a random proper subset of each basis, axiom 3 on a random prefix of
    it against the previous basis and against a random set whenever that is
    independent.  When no check reaches an independent set of two or more
    elements, axioms 2 and 3 are reported inconclusive.
    """
    if m.size <= EXHAUSTIVE_MAX_SIZE:
        return _check_axioms_exhaustive(m)
    return _check_axioms_sampled(m, rng_seed)


def _check_axiom1(m: Matroid) -> CheckResult:
    if m.oracle(frozenset()):
        return CheckResult(PASS)
    return CheckResult(FAIL, counterexample=((),), detail="empty set is dependent")


def _check_axioms_exhaustive(m: Matroid) -> AxiomReport:
    n = m.size
    # combinations yields each size in lex order: the (size, lex) order
    all_subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
    independent = {s: bool(m.oracle(s)) for s in all_subsets}
    ind_sets = [s for s in all_subsets if independent[s]]

    ax2 = CheckResult(PASS)
    for s in ind_sets:
        bad = next((e for e in sorted(s) if not independent[s - {e}]), None)
        if bad is not None:
            ax2 = CheckResult(
                FAIL,
                counterexample=(tuple(sorted(s - {bad})), tuple(sorted(s))),
                detail="dependent subset of an independent set",
            )
            break

    ax3 = CheckResult(PASS)
    ax3_failure = next(
        (
            (x1, x2)
            for x1 in ind_sets
            for x2 in ind_sets
            if len(x1) < len(x2) and not any(independent[x1 | {e}] for e in x2 - x1)
        ),
        None,
    )
    if ax3_failure is not None:
        x1, x2 = ax3_failure
        ax3 = CheckResult(
            FAIL, counterexample=(tuple(sorted(x1)), tuple(sorted(x2))), detail="no augmenting element"
        )

    return AxiomReport("exhaustive", _check_axiom1(m), ax2, ax3)


def _random_greedy(m: Matroid, rng: random.Random) -> tuple[list[int], list[int]]:
    """A random order of the ground set and its greedy basis, in the order
    the walk kept it: every prefix of the basis is independent."""
    order = list(range(m.size))
    rng.shuffle(order)
    basis: list[int] = []
    current: frozenset = frozenset()
    for e in order:
        if m.oracle(current | {e}):
            current = current | {e}
            basis.append(e)
    return order, basis


def _check_axioms_sampled(m: Matroid, seed: int) -> AxiomReport:
    rng = random.Random(seed)
    ax2 = CheckResult(PASS, detail="sampled")
    ax3 = CheckResult(PASS, detail="sampled")
    touched = 0  # checks that reached an independent set of two or more elements
    previous: frozenset = frozenset()
    for _ in range(SAMPLED_ROUNDS):
        basis = _random_greedy(m, rng)[1]
        b = frozenset(basis)
        touched += len(b) >= 2
        sub = frozenset(rng.sample(basis, rng.randrange(len(basis)))) if basis else b
        if ax2.ok and not m.oracle(sub):
            ax2 = CheckResult(FAIL, counterexample=(tuple(sorted(sub)), tuple(sorted(b))))
        # a longer independent set: the previous basis, or a random set up to
        # two elements longer than this basis (an oracle whose independent
        # sets grow by jumps has some that no greedy walk reaches)
        prefix = frozenset(basis[: rng.randint(0, len(basis))])
        drawn = frozenset(rng.sample(range(m.size), min(m.size, rng.randint(0, len(basis) + 2))))
        for longer in (previous, drawn) if m.oracle(drawn) else (previous,):
            if len(longer) <= len(prefix):
                continue
            touched += len(longer) >= 2
            if ax3.ok and not any(m.oracle(prefix | {e}) for e in sorted(longer - prefix)):
                ax3 = CheckResult(FAIL, counterexample=(tuple(sorted(prefix)), tuple(sorted(longer))))
        previous = b
    if not touched:
        unseen = CheckResult(INCONCLUSIVE, detail="no sampled independent set of two or more elements")
        ax2, ax3 = (r if not r.ok else unseen for r in (ax2, ax3))
    return AxiomReport("sampled", _check_axiom1(m), ax2, ax3)


@dataclass
class SubmodularityReport:
    pairs_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_submodularity(m: Matroid, pairs: int, rng_seed: int = 0) -> SubmodularityReport:
    """Test rank(X|Y) + rank(X&Y) <= rank(X) + rank(Y) on sampled pairs.

    X and Y are random halves of one pool: a greedy basis of a random order
    plus the two elements that follow it in that order, so that the four
    ranks differ and the inequality has something to test.
    """
    if pairs < 1:
        raise MatroidError(f"pairs must be at least 1, got {pairs}")
    rng = random.Random(rng_seed)
    report = SubmodularityReport(pairs_checked=pairs)
    for _ in range(pairs):
        order, basis = _random_greedy(m, rng)
        after = order.index(basis[-1]) + 1 if basis else 0
        pool = basis + order[after : after + 2]
        x, y = (frozenset(rng.sample(pool, len(pool) // 2)) for _ in range(2))
        if rank(m, x | y) + rank(m, x & y) > rank(m, x) + rank(m, y):
            report.violations.append((tuple(sorted(x)), tuple(sorted(y))))
    return report


@dataclass
class IncidenceReport:
    unique_line: CheckResult
    unique_plane: CheckResult
    line_in_plane: CheckResult
    angle_plane: CheckResult
    lines: int = 0
    planes: int = 0

    @property
    def ok(self) -> bool:
        return all(
            r.ok for r in (self.unique_line, self.unique_plane, self.line_in_plane, self.angle_plane)
        )


def check_incidence_properties(m: Matroid, rng_seed: int = 0, samples: int = 1000) -> IncidenceReport:
    """Verify the four point/line/plane incidence laws of a simple matroid.

    Raises MatroidError (naming the violating subset) when the matroid is
    not simple.  Properties over pairs/triples are checked exhaustively
    when their count is at most ``samples`` (at least 1), otherwise on a
    seeded sample; the flats through a point come from ``_lines_by_point``.
    A sampled pair or triple of points is read off ``combinations`` as its
    index comes up, at most the C(n, 3) steps that enumerating the planes
    has already taken in oracle calls, and a sampled meeting line pair is
    read from the sorted pair keys, so no whole list of them is built.
    """
    if samples < 1:
        raise MatroidError(f"samples must be at least 1, got {samples}")
    for e in range(m.size):
        if not m.oracle(frozenset({e})):
            raise MatroidError(f"matroid is not simple: singleton {{{e}}} is dependent")
    for a, b in combinations(range(m.size), 2):
        if not m.oracle(frozenset({a, b})):
            raise MatroidError(f"matroid is not simple: pair {{{a}, {b}}} is dependent")

    rng = random.Random(rng_seed)
    lines = flats_of_rank(m, 2)
    planes = flats_of_rank(m, 3)
    line_sets = [f.members for f in lines]
    plane_sets = [f.members for f in planes]
    by_point = _lines_by_point(m.size, line_sets)
    lines_at = [set(through) for through in by_point]
    planes_at = [set(through) for through in _lines_by_point(m.size, plane_sets)]

    def sample_or_all(total: int) -> Iterable[int]:
        """All of range(total), or a seeded sample of ``samples`` of it, ascending."""
        if total <= samples:
            return range(total)
        return sorted(rng.sample(range(total), samples))

    def pick_subsets(k: int) -> Iterable[tuple[int, ...]]:
        """The sampled k-subsets of the ground set, in ``combinations`` order."""
        picked = set(sample_or_all(math.comb(m.size, k)))
        return (s for r, s in enumerate(combinations(range(m.size), k)) if r in picked)

    # (1) any two points lie in exactly one line
    r1 = CheckResult(PASS)
    for a, b in pick_subsets(2):
        n_lines = len(lines_at[a] & lines_at[b])
        if n_lines != 1:
            r1 = CheckResult(FAIL, counterexample=(a, b), detail=f"{n_lines} lines")
            break

    # (2) three non-collinear points lie in exactly one plane
    r2 = CheckResult(PASS)
    for t in pick_subsets(3):
        if set.intersection(*(lines_at[x] for x in t)):
            continue
        n_planes = len(set.intersection(*(planes_at[x] for x in t)))
        if n_planes != 1:
            r2 = CheckResult(FAIL, counterexample=t, detail=f"{n_planes} planes")
            break

    # (3) a line meeting a plane in two points is contained in it
    r3 = CheckResult(PASS)
    # pair k of the lines x planes product, line-major, is divmod(k, planes)
    for k in sample_or_all(len(lines) * len(planes)):
        i, j = divmod(k, len(planes))
        if len(line_sets[i] & plane_sets[j]) >= 2 and not line_sets[i] <= plane_sets[j]:
            r3 = CheckResult(FAIL, counterexample=(tuple(sorted(line_sets[i])), tuple(sorted(plane_sets[j]))))
            break

    # (4) two intersecting lines lie in a unique plane; meeting pair (i, j)
    # is the int i * len(lines) + j, which sorts in (i, j) order and holds
    # less memory than ``_common_points``' tuple and point on large builds
    r4 = CheckResult(PASS)
    meeting = sorted({i * len(lines) + j for i, j, _ in _meeting_pairs(by_point)})
    for k in sample_or_all(len(meeting)):
        i, j = divmod(meeting[k], len(lines))
        n_planes = len(set.intersection(*(planes_at[x] for x in line_sets[i] | line_sets[j])))
        if n_planes != 1:
            r4 = CheckResult(
                FAIL,
                counterexample=(tuple(sorted(line_sets[i])), tuple(sorted(line_sets[j]))),
                detail=f"{n_planes} planes",
            )
            break

    return IncidenceReport(r1, r2, r3, r4, lines=len(lines), planes=len(planes))
