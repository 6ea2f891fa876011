"""Generators for the named line configurations and spectrum families.

Coordinate generators return a CoordArrangement whose singular locus is then
computed exactly; spectrum generators return the published counts directly,
validated against the pair-count identity.  Each catalog entry also records
the closed-form H value so analyses can be checked end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional

from .arrangement import CoordArrangement, Spectrum
from .errors import InternalInconsistency, NegarrError
from .fields import (
    ExtensionField,
    PrimeField,
    RationalField,
    cyclotomic_field,
    is_irreducible_mod_p,
    prime_power,
)
from .projective import ProjLine

BOROCZKY_NOTE = (
    "boroczky family: the closed form -3 + (12k+54)/(k^2+3k-12) sometimes quoted "
    "for these arrangements is inconsistent with the defining counts t_2 = k-3, "
    "t_3 = 1 + k(k-3)/6 (at k = 6 the counts give -12/7, not 0); reported values "
    "are computed from the counts, giving -3 + (12k-18)/(k^2+3k-12)"
)


def gen_generic(r: int) -> CoordArrangement:
    """r tangent lines of the parabola y = x^2: no three concurrent."""
    if r < 2:
        raise NegarrError("generic position needs at least 2 lines")
    q = RationalField()
    lines = [ProjLine(q, (2 * t, -1, -t * t)) for t in range(r)]
    return CoordArrangement(lines, real=True)


def gen_pencil(d: int) -> CoordArrangement:
    """d lines through a single point."""
    if d < 2:
        raise NegarrError("a pencil needs at least 2 lines")
    q = RationalField()
    lines = [ProjLine(q, (1, -i, 0)) for i in range(d - 1)]
    lines.append(ProjLine(q, (0, 1, 0)))
    return CoordArrangement(lines, real=True)


def gen_quasi_pencil(d: int) -> CoordArrangement:
    """d-1 concurrent lines plus one transversal."""
    if d < 3:
        raise NegarrError("a quasi-pencil needs at least 3 lines")
    transversal = ProjLine(RationalField(), (0, 0, 1))
    return CoordArrangement([*gen_pencil(d - 1).lines, transversal], real=True)


def gen_fermat(n: int) -> CoordArrangement:
    """The 3n lines x = w z, y = w z, x = w y over all n-th roots of unity w.

    n^2 triple points plus three vertices of multiplicity n; n = 3 is the
    dual Hesse configuration.
    """
    if n < 3:
        raise NegarrError("the family needs n >= 3")
    field = cyclotomic_field(n)
    z = field.gen()
    powers = [field.one]
    for _ in range(n - 1):
        powers.append(powers[-1] * z)
    lines = []
    for w in powers:
        lines.append(ProjLine(field, (field.one, field.zero, -w)))
    for w in powers:
        lines.append(ProjLine(field, (field.zero, field.one, -w)))
    for w in powers:
        lines.append(ProjLine(field, (field.one, -w, field.zero)))
    return CoordArrangement(lines, real=False)


def _first_irreducible(p: int, k: int):
    field = PrimeField(p)
    for tail in itertools.product(range(p), repeat=k):
        coeffs = tail + (1,)
        if is_irreducible_mod_p(field, coeffs):
            return coeffs
    raise InternalInconsistency(f"no monic irreducible polynomial of degree {k} over GF({p})")


def gen_finite_field_full(q: int) -> CoordArrangement:
    """All q^2 + q + 1 lines of the projective plane over the q-element field."""
    pk = prime_power(q)
    if pk is None:
        raise NegarrError(f"{q} is not a prime power")
    p, k = pk
    if k == 1:
        field = PrimeField(p)
    else:
        field = ExtensionField(PrimeField(p), _first_irreducible(p, k))
    elems = list(field.iter_elements())
    lines = [ProjLine(field, (field.one, a, b)) for a in elems for b in elems]
    lines += [ProjLine(field, (field.zero, field.one, b)) for b in elems]
    lines.append(ProjLine(field, (field.zero, field.zero, field.one)))
    return CoordArrangement(lines, real=False)


def _merge_counts(*pairs) -> dict:
    t: dict = {}
    for k, v in pairs:
        if v:
            t[k] = t.get(k, 0) + v
    return t


def gen_kgon_mirror(k: int) -> Spectrum:
    """Regular k-gon sides plus its k mirror lines.

    One center of multiplicity k, k double points, C(k,2) triple points
    (merged into t_3 when k = 3).
    """
    if k < 3:
        raise NegarrError("a polygon needs at least 3 sides")
    t = _merge_counts((2, k), (3, comb(k, 2)), (k, 1))
    return Spectrum(2 * k, t, real=True)


def gen_kgon_mirror_coords(k: int) -> CoordArrangement:
    """Rational coordinates for the k = 4 case: the square with its mirrors."""
    if k != 4:
        raise NegarrError("rational coordinates are only provided for k = 4")
    q = RationalField()
    lines = [
        ProjLine(q, (1, 0, -1)),
        ProjLine(q, (1, 0, 1)),
        ProjLine(q, (0, 1, -1)),
        ProjLine(q, (0, 1, 1)),
        ProjLine(q, (1, 0, 0)),
        ProjLine(q, (0, 1, 0)),
        ProjLine(q, (1, -1, 0)),
        ProjLine(q, (1, 1, 0)),
    ]
    return CoordArrangement(lines, real=True)


def gen_boroczky(k: int) -> Spectrum:
    """Near-pencil-free family with t_2 = k - 3 and t_3 = 1 + k(k-3)/6."""
    if k < 6 or k % 6:
        raise NegarrError("k must be a positive multiple of 6")
    t = {2: k - 3, 3: 1 + k * (k - 3) // 6}
    return Spectrum(k, t, real=True)


def gen_group_on_cubic(k: int, w: int) -> Spectrum:
    """Dual of a k-element subgroup of a smooth plane cubic.

    w counts the 3-torsion elements of the subgroup, so w is 1, 3, or 9;
    the spectrum is t_2 = k - w, t_3 = k(k-3)/6 + w/3 and must be integral.
    """
    if w not in (1, 3, 9) or w > k:
        raise NegarrError(f"torsion count w = {w} is impossible for group order {k}")
    if k < 3:
        raise NegarrError("the construction needs at least 3 lines")
    t3 = Fraction(k * (k - 3), 6) + Fraction(w, 3)
    if t3.denominator != 1:
        raise NegarrError(f"t_3 = {t3} is not an integer for (k, w) = ({k}, {w})")
    t = _merge_counts((2, k - w), (3, int(t3)))
    return Spectrum(k, t, real=False)


def gen_klein() -> Spectrum:
    """The 21-line Klein configuration: 28 triple and 21 quadruple points."""
    return Spectrum(21, {3: 28, 4: 21}, real=False, profile={3: 4, 4: 4})


def gen_wiman() -> Spectrum:
    """The 45-line Wiman configuration: 120 triple, 45 quadruple, 36 quintuple points."""
    return Spectrum(45, {3: 120, 4: 45, 5: 36}, real=False, profile={3: 8, 4: 4, 5: 4})


# ---- registry ----

def _h_generic(r):
    return Fraction(-2) + Fraction(2, r - 1)


def _h_pencil(d):
    return Fraction(0)


def _h_quasi_pencil(d):
    return Fraction(-2) + Fraction(3, d)


def _h_fermat(n):
    return Fraction(-3 * n * n, n * n + 3)


def _h_pg2(q):
    if prime_power(q) is None:
        raise NegarrError(f"{q} is not a prime power")
    return Fraction(-q)


def _h_kgon(k):
    return Fraction(-3) + Fraction(4 * k + 6, k * k + k + 2)


def _h_boroczky(k):
    return Fraction(-3 * (k - 3) * (k + 2), k * k + 3 * k - 12)


def _h_cubicgroup(k, w):
    return Fraction(-3) + Fraction(12 * k - 6 * w, k * k + 3 * k - 4 * w)


def _t_generic(r):
    return {2: comb(r, 2)}


def _t_pencil(d):
    return {d: 1}


def _t_quasi_pencil(d):
    return _merge_counts((2, d - 1), (d - 1, 1))


def _t_fermat(n):
    return _merge_counts((3, n * n), (n, 3))


def _t_pg2(q):
    return {q + 1: q * q + q + 1}


@dataclass(frozen=True)
class CatalogEntry:
    """One named generator with its documented closed forms."""

    name: str
    param_names: tuple
    kind: str  # "coordinates" or "spectrum"
    build: Callable
    expected_h: Callable
    expected_spectrum: Callable
    coords: Optional[Callable] = None  # coordinate model when kind is "spectrum"
    note: Optional[str] = None

    @property
    def arity(self) -> int:
        return len(self.param_names)


CATALOG = {
    "generic": CatalogEntry("generic", ("r",), "coordinates",
                            gen_generic, _h_generic, _t_generic),
    "pencil": CatalogEntry("pencil", ("d",), "coordinates",
                           gen_pencil, _h_pencil, _t_pencil),
    "quasipencil": CatalogEntry("quasipencil", ("d",), "coordinates",
                                gen_quasi_pencil, _h_quasi_pencil, _t_quasi_pencil),
    "fermat": CatalogEntry("fermat", ("n",), "coordinates",
                           gen_fermat, _h_fermat, _t_fermat),
    "dualhesse": CatalogEntry("dualhesse", (), "coordinates",
                              lambda: gen_fermat(3),
                              lambda: _h_fermat(3), lambda: _t_fermat(3)),
    "pg2": CatalogEntry("pg2", ("q",), "coordinates",
                        gen_finite_field_full, _h_pg2, _t_pg2),
    "kgon": CatalogEntry("kgon", ("k",), "spectrum",
                         gen_kgon_mirror, _h_kgon,
                         lambda k: dict(gen_kgon_mirror(k).t),
                         coords=gen_kgon_mirror_coords),
    "boroczky": CatalogEntry("boroczky", ("k",), "spectrum",
                             gen_boroczky, _h_boroczky,
                             lambda k: dict(gen_boroczky(k).t),
                             note=BOROCZKY_NOTE),
    "cubicgroup": CatalogEntry("cubicgroup", ("k", "w"), "spectrum",
                               gen_group_on_cubic, _h_cubicgroup,
                               lambda k, w: dict(gen_group_on_cubic(k, w).t)),
    "klein": CatalogEntry("klein", (), "spectrum",
                          gen_klein, lambda: Fraction(-3),
                          lambda: dict(gen_klein().t)),
    "wiman": CatalogEntry("wiman", (), "spectrum",
                          gen_wiman, lambda: Fraction(-225, 67),
                          lambda: dict(gen_wiman().t)),
}


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise NegarrError(
            f"unknown catalog name {name!r}; known: {', '.join(CATALOG)}") from None
