"""Points and lines of the projective plane over an exact field.

Homogeneous triples are stored in canonical form: the leftmost nonzero
coordinate is scaled to 1, so equality and hashing are structural.
"""

from __future__ import annotations

from .errors import EqualLines, EqualPoints, FieldMismatch
from .fields import Field


class _Triple:
    """A canonical homogeneous triple; ProjPoint and ProjLine name and bracket it."""

    __slots__ = ("_t",)
    _brackets = "[]"

    def __init__(self, field: Field, triple):
        elems = [field.element(v) for v in triple]
        if len(elems) != 3:
            raise ValueError("expected exactly three homogeneous coordinates")
        pivot = next((e for e in elems if e), None)
        if pivot is None:
            raise ValueError("projective triple must have a nonzero coordinate")
        scale = pivot.inverse()
        self._t = tuple(e * scale for e in elems)

    @property
    def field(self) -> Field:
        return self._t[0].field

    def __eq__(self, other):
        return other.__class__ is self.__class__ and other._t == self._t

    def __hash__(self):
        return hash((self._brackets, self._t))  # points and lines hash apart

    def __repr__(self):
        return self._brackets[0] + ":".join(repr(c) for c in self._t) + self._brackets[1]

    def sort_key(self):
        return tuple(c.sort_key() for c in self._t)


class ProjPoint(_Triple):
    """A point of P^2, canonical homogeneous coordinates."""

    __slots__ = ()
    coords = _Triple._t


class ProjLine(_Triple):
    """A line of P^2, canonical homogeneous coefficients a, b, c for ax+by+cz = 0."""

    __slots__ = ()
    _brackets = "()"
    coeffs = _Triple._t


def _cross(u: _Triple, v: _Triple, noun: str, coincide, result):
    """The meet of two distinct lines, or the join of two distinct points."""
    if u.field != v.field:
        raise FieldMismatch(f"{noun} live over {u.field} and {v.field}")
    if u == v:
        raise coincide(f"{noun} coincide: {u!r}")
    (a1, b1, c1), (a2, b2, c2) = u._t, v._t
    return result(u.field, (b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique intersection point of two distinct lines."""
    return _cross(l1, l2, "lines", EqualLines, ProjPoint)


def join(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    return _cross(p1, p2, "points", EqualPoints, ProjLine)


def incident(point: ProjPoint, line: ProjLine) -> bool:
    """Exact incidence test: does the point lie on the line?"""
    if point.field != line.field:
        raise FieldMismatch(f"point over {point.field}, line over {line.field}")
    (x, y, z), (a, b, c) = point.coords, line.coeffs
    return not (a * x + b * y + c * z)
