"""Planar integer point-line configurations.

Points are integer pairs (a, b); lines are canonical primitive triples
(A, B, C) representing { (x, y) : A*x + B*y = C }.  A Configuration is
the ``core.LineIndex`` of its lines' point sets, checked against their
coordinates, and answers triple point and pruning queries exactly.  The
triangle gate reads only the incidence, so it lives on the index
(``core.find_triangles``, ``core.LineIndex.triangle_free``); this module
re-exports it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Optional

from .core import LineIndex, MatroidError, Triangle, find_triangles, is_triangle_free  # noqa: F401

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


class Configuration(LineIndex):
    """Immutable incidence structure over distinct points and lines: the
    ``core.LineIndex`` of the lines' point sets (``line_points``,
    ``by_point``, ``meets``, the gate verdict ``triangle_free``; item i is
    line i's rank-2 flat), with the ``points`` and the ``IntLine``s
    (``lines``) it was read from."""

    def __init__(
        self, points: Iterable[Point], lines: Iterable[IntLine], line_points: Optional[Iterable[tuple]] = None
    ):
        """Raises MatroidError on a coordinate that is not an integer (bool
        included; nothing is coerced) or a point given twice (both checked
        by ``_checked_points``), a line with A = B = 0, two lines
        that share two points (``core._common_points``), or one line given
        twice, in any two forms that ``line`` puts in one canonical form.

        ``by_point`` and ``meets`` are built when first read.  Two distinct
        lines of distinct canonical directions share at most one point, so
        only when two given directions canonicalise alike are the meeting
        masks built here, whose two-point check names two lines sharing
        two points.

        ``line_points``, when given, is each line's ascending point
        indices, the incidence of checked points and distinct lines
        (``prune_lines`` passes a configuration's kept lines,
        ``construct.GridFamily.configuration`` the grid lines read off the
        coordinates), and is taken as it is: nothing is checked or looked
        up."""
        if line_points is not None:
            self.points, self.lines = tuple(points), tuple(lines)
            super().__init__(len(self.points), tuple(line_points))
            return
        self.points: tuple[Point, ...] = _checked_points(points)
        self.lines: tuple[IntLine, ...] = tuple(lines)
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
        # direction; the meeting masks are built first, so a repeat that
        # holds two points is named as two lines sharing them
        if len({line(a, b, 0) for a, b in by_direction}) < len(by_direction):
            self.meets
            if len({line(*l) for l in self.lines}) < len(self.lines):
                raise MatroidError("duplicate lines in configuration")

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


def _checked_points(points: Iterable[Point]) -> tuple[Point, ...]:
    """``points`` as a tuple of distinct integer pairs.  Raises MatroidError
    on a coordinate that is not an integer (bool included; nothing is
    coerced) or on a point given twice.  Every path that builds a
    ``Configuration`` from coordinates runs these checks, here alone."""
    points = tuple(points)
    # a pair of ints passes one type check; anything else is read through
    # ``_exact_int``, which raises on a coordinate that is no int
    if not all(type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in points):
        points = tuple((_exact_int(a), _exact_int(b)) for a, b in points)
    if len(set(points)) != len(points):
        raise MatroidError("duplicate points in configuration")
    return points


def _exact_int(value) -> int:
    # bool is an int subclass, and JSON true/false are not coordinates
    if isinstance(value, bool) or not isinstance(value, int):
        raise MatroidError(f"value {value!r} is not an integer")
    return value


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
