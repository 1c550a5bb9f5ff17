"""Planar integer point-line configurations.

Points are integer pairs (a, b); lines are canonical primitive triples
(A, B, C) representing { (x, y) : A*x + B*y = C }.  A Configuration is
the ``core.LineIndex`` of its lines' point sets, and answers triangle,
triple point, and pruning queries exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .core import LineIndex, MatroidError

Point = tuple[int, int]


class IntLine(NamedTuple):
    """The line A*x + B*y = C: a tuple, so it hashes and orders as (A, B, C)."""

    A: int
    B: int
    C: int


def line(a: int, b: int, c: int) -> IntLine:
    """Canonical form: gcd(|A|,|B|,|C|) = 1, leading coefficient positive."""
    if a == 0 and b == 0:
        raise MatroidError("degenerate line: A = B = 0")
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return IntLine(a, b, c)


# The grid-line helpers are canonical by form (a coefficient of 1 leads, so
# the gcd is 1 and the sign is right) and skip ``line``'s normalization.
def horizontal(b: int) -> IntLine:
    return IntLine(0, 1, b)


def vertical(a: int) -> IntLine:
    return IntLine(1, 0, a)


def diagonal(c: int) -> IntLine:
    # x - y = c
    return IntLine(1, -1, c)


def incident(l: IntLine, p: Point) -> bool:
    return l.A * p[0] + l.B * p[1] == l.C


def intersect(l1: IntLine, l2: IntLine) -> Optional[Point]:
    """The common integer point, or None when parallel or non-integral."""
    if l1 == l2:
        raise MatroidError("intersect requires two distinct lines")
    det = l1.A * l2.B - l2.A * l1.B
    if det == 0:
        return None
    xn = l1.C * l2.B - l2.C * l1.B
    yn = l1.A * l2.C - l2.A * l1.C
    if xn % det or yn % det:
        return None
    return (xn // det, yn // det)


@dataclass(frozen=True)
class Triangle:
    """Three points and three lines, each line through exactly two points.

    ``points`` is sorted; ``lines[k]`` passes through the pair omitting
    ``points[2 - k]`` (so lines[0] joins points[0],points[1], etc.).
    """

    points: tuple[int, int, int]
    lines: tuple[int, int, int]


class Configuration(LineIndex):
    """Immutable incidence structure over distinct points and lines: the
    ``core.LineIndex`` of the lines' point sets (``line_points``,
    ``by_point``, ``meets``, ``meeting``; item i is line i's rank-2 flat),
    with the ``points`` and the ``IntLine``s (``lines``) it was read from."""

    def __init__(
        self, points: Iterable[Point], lines: Iterable[IntLine], line_points: Optional[Iterable[tuple]] = None
    ):
        """Raises MatroidError on a coordinate that is not an integer (bool
        included; nothing is coerced), a line with A = B = 0, two lines
        that share two points (``core._common_points``), or one line given
        twice, in any two forms that ``line`` puts in one canonical form.

        ``by_point``, ``meets`` and ``meeting`` are built when first read.
        Two distinct lines of distinct canonical directions share at most
        one point, so only when two given directions canonicalise alike is
        the meeting map built here, to name two lines sharing two points.

        ``line_points``, when given, is each line's ascending point
        indices, the incidence of a checked configuration's lines over
        its points (``prune_lines`` passes the kept ones), and is taken
        as it is: nothing is checked or looked up."""
        if line_points is not None:
            self.points, self.lines = tuple(points), tuple(lines)
            super().__init__(len(self.points), tuple(line_points))
            return
        self.points: tuple[Point, ...] = tuple(points)
        # a pair of ints passes one type check; anything else is read
        # through ``_exact_int``, which raises on a coordinate that is no int
        if not all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in self.points):
            self.points = tuple((_exact_int(a), _exact_int(b)) for a, b in self.points)
        self.lines: tuple[IntLine, ...] = tuple(lines)
        if len(set(self.points)) != len(self.points):
            raise MatroidError("duplicate points in configuration")
        # a point lies on at most one line of each direction (A, B), so one
        # lookup of A*x + B*y per direction finds its lines; points are
        # visited in index order, so each line's points come out ascending;
        # a line given twice in one form is a repeated C within one direction
        by_direction: dict[tuple[int, int], dict[int, int]] = {}
        for li, l in enumerate(self.lines):
            if by_direction.setdefault((l.A, l.B), {}).setdefault(l.C, li) != li:
                raise MatroidError("duplicate lines in configuration")
        if (0, 0) in by_direction:
            raise MatroidError("degenerate line: A = B = 0")
        found: list[list[int]] = [[] for _ in self.lines]
        for pi, (x, y) in enumerate(self.points):
            for (a, b), line_of_c in by_direction.items():
                li = line_of_c.get(a * x + b * y)
                if li is not None:
                    found[li].append(pi)
        super().__init__(len(self.points), tuple(map(tuple, found)))
        # a line given in two forms lies in two directions of one canonical
        # direction; the meeting map is built first, so a repeat that holds
        # two points is named as two lines sharing them
        if len({line(a, b, 0) for a, b in by_direction}) < len(by_direction):
            self.meeting
            if len({line(*l) for l in self.lines}) < len(self.lines):
                raise MatroidError("duplicate lines in configuration")

    @cached_property
    def triangle_free(self) -> bool:
        """The exact gate's verdict, ``find_triangles(self, limit=1)``
        finding none, reached once however many stages ask."""
        return not find_triangles(self, limit=1)

    def to_json(self) -> dict:
        return {
            "points": [[a, b] for a, b in self.points],
            "lines": [{"A": l.A, "B": l.B, "C": l.C} for l in self.lines],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Configuration":
        """Load a ``to_json`` dump without coercing anything.

        A missing key, a point that is not a pair, or a coordinate or
        coefficient that is not an integer raises MatroidError.
        """
        try:
            points = [tuple(p) for p in data["points"]]
            lines = [line(*(_exact_int(d[k]) for k in "ABC")) for d in data["lines"]]
        except KeyError as exc:
            raise MatroidError(f"dump is missing key {exc}") from None
        except TypeError as exc:
            raise MatroidError(f"malformed dump: {exc}") from None
        if any(len(p) != 2 for p in points):
            raise MatroidError("dump point is not a coordinate pair")
        return cls(points, lines)


def _exact_int(value) -> int:
    # bool is an int subclass, and JSON true/false are not coordinates
    if isinstance(value, bool) or not isinstance(value, int):
        raise MatroidError(f"value {value!r} is not an integer")
    return value


def find_triangles(cfg: Configuration, limit: Optional[int] = None) -> list[Triangle]:
    """Enumerate triangles in lexicographic order of their point triples.

    A triangle is three distinct points and three distinct lines with each
    line incident to exactly two of the points.  ``limit`` (at least 1)
    caps the number of records returned.  The walk reads the lines'
    meeting masks (``cfg.meets``, which raise on two lines sharing two
    points), and the meeting map only at a point where a triangle has a
    vertex, so a triangle-free configuration builds none.
    """
    if limit is not None and limit < 1:
        raise MatroidError(f"limit must be at least 1, got {limit}")
    out: list[Triangle] = []
    for found in _triangles_at(cfg.meets, lambda: cfg.meeting, enumerate(cfg.by_point)):
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
    (``core._meeting_masks`` of their line lists); ``angle()`` returns the
    map from each pair of lines a < b that meet there to their meeting
    point, and is called only at a point that fails the test below.

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
    for x, ls in by_point:
        found: list[Triangle] = []
        d = len(ls)
        union = total = 0
        for l in ls:
            mask = meets[l]
            union |= mask
            total += mask.bit_count()
        if union.bit_count() - d != total - d * d:
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


def is_triangle_free(cfg: Configuration) -> bool:
    """The configuration's cached gate verdict (``Configuration.triangle_free``)."""
    return cfg.triangle_free


def triple_points(cfg: Configuration) -> list[int]:
    """Indices of points incident to at least three lines."""
    return [i for i, ls in enumerate(cfg.by_point) if len(ls) >= 3]


def prune_lines(cfg: Configuration) -> Configuration:
    """Keep only lines incident to at least two configuration points.

    The result is ``Configuration(cfg.points, kept)``, built from the kept
    lines' point lists: the points are already checked and each kept line's
    points are already known, so neither is looked up again.
    """
    kept = [li for li, pts in enumerate(cfg.line_points) if len(pts) >= 2]
    return Configuration(cfg.points, (cfg.lines[li] for li in kept), (cfg.line_points[li] for li in kept))
