"""Planar integer point-line configurations.

Points are integer pairs (a, b); lines are plain int triples (A, B, C),
canonical and primitive (``line``), representing { (x, y) : A*x + B*y = C }.
A Configuration is the ``core.LineIndex`` of its lines' point sets, checked
against their coordinates, and answers triple point and pruning queries
exactly.  The triangle gate's reference reads only the incidence, so it
lives on the index (``core.find_triangles``, ``core.LineIndex.triangle_free``);
this module re-exports it.  A configuration of rows, columns and diagonals
x - y = c proves its own verdict from its points' coordinate sums
(``Configuration.triangle_free``), with no walk.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable

from .behrend import has_3ap
from .core import LineIndex, MatroidError, Triangle, _common_points, find_triangles, is_triangle_free  # noqa: F401

Point = tuple[int, int]
Line = tuple[int, int, int]  # (A, B, C): the line A*x + B*y = C


def line(a: int, b: int, c: int) -> Line:
    """Canonical form: gcd(|A|,|B|,|C|) = 1, leading coefficient positive."""
    if a == 0 and b == 0:
        raise MatroidError("degenerate line: A = B = 0")
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


# The grid-line helpers are canonical by form (a coefficient of 1 leads, so
# the gcd is 1 and the sign is right) and skip ``line``'s normalization.
def horizontal(b: int) -> Line:
    return (0, 1, b)


def vertical(a: int) -> Line:
    return (1, 0, a)


def diagonal(c: int) -> Line:
    # x - y = c
    return (1, -1, c)


# the directions (A, B) of the rows, the columns and the diagonals x - y = c
_GRID_DIRECTIONS = frozenset({(0, 1), (1, 0), (1, -1)})


class Configuration(LineIndex):
    """Immutable incidence structure over distinct points and lines: the
    ``core.LineIndex`` of the lines' point sets (``line_points``,
    ``by_point``, the gate verdict ``triangle_free``; item i is line i's
    rank-2 flat), with the ``points`` and the (A, B, C) triples
    (``lines``) it was read from.  Its coordinates answer the two checks
    that the index answers from its meeting masks: the two-point check
    (``check_two_points``) and, on the grid's directions, the gate
    (``triangle_free``)."""

    def __init__(self, points: Iterable[Point], lines: Iterable[Line]):
        """Raises MatroidError on a coordinate that is not an integer (bool
        included; nothing is coerced) or a point given twice (both checked
        by ``_checked_points``), a line that is not a triple of integers
        (``_checked_lines``), a line with A = B = 0, two lines that
        share two points (``core._common_points``), or one line given
        twice, in any two forms that ``line`` puts in one canonical form.

        The incidence is always read off the coordinates: each line's points
        are looked up here.  Two distinct lines of distinct canonical
        directions share at most one point, so only when two given
        directions canonicalise alike is the two-point check run here, with
        no meeting mask built."""
        self.points: tuple[Point, ...] = _checked_points(points)
        self.lines: tuple[Line, ...] = _checked_lines(lines)
        # a point lies on at most one line of each direction (A, B), so one
        # lookup of A*x + B*y per direction finds its lines; points are
        # visited in index order, so each line's points come out ascending;
        # a line given twice in one form is a repeated C within one direction
        by_direction: dict[tuple[int, int], dict[int, int]] = {}
        for li, (a, b, c) in enumerate(self.lines):
            if by_direction.setdefault((a, b), {}).setdefault(c, li) != li:
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
        # direction; the two-point check runs first, on the meeting map's
        # reference, so a repeat that holds two points is named as two lines
        # sharing them
        if len({line(a, b, 0) for a, b in by_direction}) < len(by_direction):
            _common_points(self.by_point)
            if len({line(*l) for l in self.lines}) < len(self.lines):
                raise MatroidError("duplicate lines in configuration")

    def check_two_points(self) -> None:
        """Builds nothing: two distinct lines of the plane share at most one
        point, and the constructor has refused a line given twice."""

    @cached_property
    def triangle_free(self) -> bool:
        """The gate's verdict, proved when every line is a row, a column or
        a diagonal x - y = c (``_GRID_DIRECTIONS``) and the coordinate sums
        x + y of the points hold no 3-AP (``behrend.has_3ap``, O(|sums|^2));
        otherwise the walk's (``core.LineIndex.triangle_free``), which is
        the reference.

        The lemma: two lines of one direction never meet, so a triangle
        takes one row y = b, one column x = a and one diagonal x - y = c.
        Its corners (a, b), (b + c, b) and (a, a - c) have sums s1 = a + b,
        s2 = 2b + c and s3 = 2a - c, so s2 + s3 = 2 s1; and s2 = s3 would
        give s1 = s2, and the row's two corners, of one sum, would be one
        point.  So a triangle's corner sums form a 3-AP, which the sums of
        all the points hold.  The proof reads only the points and the lines, and
        rests on each listed member lying on its line (the constructor's
        lookup and ``_from_incidence``'s two callers guarantee it)."""
        if {(a, b) for a, b, _ in self.lines} <= _GRID_DIRECTIONS and not has_3ap({x + y for x, y in self.points}):
            return True
        return super().triangle_free

    def to_json(self) -> dict:
        return {
            "points": [[a, b] for a, b in self.points],
            "lines": [{"A": a, "B": b, "C": c} for a, b, c in self.lines],
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


def _from_incidence(points: Iterable[Point], lines: Iterable[Line], line_points: Iterable[tuple]) -> Configuration:
    """The configuration of ``points`` and ``lines`` with the incidence
    ``line_points``, each line's ascending point indices, taken as it is:
    nothing is checked or looked up.  Only an incidence read off the
    coordinates of checked points and distinct lines may be given, since
    the gate's proof (``Configuration.triangle_free``) rests on each listed
    member lying on its line: ``prune_lines`` passes a configuration's kept
    lines, ``construct.GridFamily.configuration`` the grid lines it files
    each point under."""
    cfg = Configuration.__new__(Configuration)
    cfg.points, cfg.lines = tuple(points), tuple(lines)
    LineIndex.__init__(cfg, len(cfg.points), tuple(line_points))
    return cfg


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


def _checked_lines(lines: Iterable[Line]) -> tuple[Line, ...]:
    """``lines`` as a tuple of (A, B, C) triples.  Raises MatroidError on a
    line that is not three values or on a coefficient that is not an
    integer (bool included; nothing is coerced).  ``_from_incidence``'s
    callers build their own triples and skip it."""
    lines = tuple(lines)
    # a tuple of three ints passes one type check; anything else is rebuilt
    # through ``_exact_int`` once it is known to hold three values
    if not all(type(l) is tuple and len(l) == 3 and type(l[0]) is type(l[1]) is type(l[2]) is int for l in lines):
        for l in lines:
            if not isinstance(l, (tuple, list)) or len(l) != 3:
                raise MatroidError(f"line {l!r} is not a triple (A, B, C)")
        lines = tuple(tuple(map(_exact_int, l)) for l in lines)
    return lines


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

    The result equals ``Configuration(cfg.points, kept)``, built from the
    kept lines' point lists (``_from_incidence``): the points are already
    checked and each kept line's points are already known, so neither is
    looked up again.
    """
    kept = [li for li, pts in enumerate(cfg.line_points) if len(pts) >= 2]
    return _from_incidence(cfg.points, (cfg.lines[li] for li in kept), (cfg.line_points[li] for li in kept))
