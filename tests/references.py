"""Differential references that only the tests read, each straight from its
definition: the incidence of a point and a line, the meeting point of two
lines, and the flat predicate.  pytest does not collect this module (its
name does not start with ``test_``)."""

from __future__ import annotations

from typing import Iterable, Optional

from matroid_joints.core import Matroid, MatroidError, closure
from matroid_joints.planar import Line, Point


def incident(l: Line, p: Point) -> bool:
    a, b, c = l
    return a * p[0] + b * p[1] == c


def intersect(l1: Line, l2: Line) -> Optional[Point]:
    """The common integer point, or None when parallel or non-integral."""
    if l1 == l2:
        raise MatroidError("intersect requires two distinct lines")
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    xn = c1 * b2 - c2 * b1
    yn = a1 * c2 - a2 * c1
    if xn % det or yn % det:
        return None
    return (xn // det, yn // det)


def is_flat(m: Matroid, subset: Iterable[int]) -> bool:
    s = m._subset(subset)
    return closure(m, s) == s
