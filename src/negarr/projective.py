"""Points and lines of the projective plane over an exact field.

Homogeneous triples are stored in the canonical form of their field's
_canonical hook, so equality and hashing are structural: over Q the primitive
integer triple (gcd 1, the leftmost nonzero entry positive), over Q[x]/(f)
with f monic and integral the primitive integer coefficient vectors (gcd 1
over all coefficients, the leftmost nonzero vector a positive integer), and
elsewhere the leftmost nonzero coordinate scaled to 1.  A triple keeps its
field and the raw representations only, and all arithmetic runs on those;
coords, coeffs and repr show the field's _affine view of them, with a
leftmost 1, and sort_key is the field's _triple_key.
"""

from __future__ import annotations

from .errors import NegarrError
from .fields import Field, FieldElement


class _Triple:
    """A canonical homogeneous triple; ProjPoint and ProjLine name and bracket it.

    _r holds the canonical raw representations (primitive ints over Q and
    integral Q[x]/(f)); coords, coeffs and repr read them through
    field._affine.
    """

    __slots__ = ("field", "_r")
    _brackets = "[]"

    def __init__(self, field: Field, triple):
        reps = tuple(field._coerce_rep(v) for v in triple)
        if len(reps) != 3:
            raise ValueError("expected exactly three homogeneous coordinates")
        self.field = field
        self._r = field._canonical(reps)

    @classmethod
    def _of_canonical(cls, field: Field, reps):
        self = cls.__new__(cls)
        self.field = field
        self._r = reps
        return self

    def _elements(self):
        field = self.field
        return tuple(FieldElement(field, r) for r in field._affine(self._r))

    def __eq__(self, other):
        return (other.__class__ is self.__class__ and other._r == self._r
                and other.field == self.field)

    def __hash__(self):
        return hash((self._brackets, self._r))  # points and lines hash apart

    def __repr__(self):
        field = self.field
        body = ":".join(field.format_rep(r) for r in field._affine(self._r))
        return self._brackets[0] + body + self._brackets[1]

    def sort_key(self):
        return self.field._triple_key(self._r)


class ProjPoint(_Triple):
    """A point of P^2, canonical homogeneous coordinates."""

    __slots__ = ()
    coords = property(_Triple._elements)


class ProjLine(_Triple):
    """A line of P^2, canonical homogeneous coefficients a, b, c for ax+by+cz = 0."""

    __slots__ = ()
    _brackets = "()"
    coeffs = property(_Triple._elements)


def _cross(u: _Triple, v: _Triple, noun: str, result):
    """The meet of two distinct lines, or the join of two distinct points."""
    field = u.field
    if field is not v.field and field != v.field:
        raise NegarrError(f"{noun} live over {field} and {v.field}")
    if u._r == v._r:
        raise NegarrError(f"{noun} coincide: {u!r}")
    return result._of_canonical(field, field._cross(u._r, v._r))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique intersection point of two distinct lines."""
    return _cross(l1, l2, "lines", ProjPoint)


def join(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    return _cross(p1, p2, "points", ProjLine)


def incident(point: ProjPoint, line: ProjLine) -> bool:
    """Exact incidence test: does the point lie on the line?"""
    field = point.field
    if field != line.field:
        raise NegarrError(f"point over {field}, line over {line.field}")
    return field._incidences((point._r,), (line._r,)) == [1]
