"""Exhaustive ground truth over the smallest projective planes.

Every arrangement of lines over GF(q) is a subset of the q^2 + q + 1 lines
of pg2:q, and the plane has as many points: the lines' coefficient triples,
read as points.  So on every sub-arrangement of PG(2,2) and PG(2,3) with at
least two lines, the locus, its spectrum and H are checked against an
independent count, the number of lines through each plane point, and the
removal search at full depth against the brute-force minimum.  A seeded
sample of the sub-arrangements of PG(2,4) gets the same checks, on the Zech
tables of GF(4) and on its generic path.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from negarr.arrangement import CoordArrangement, multiplicities, singular_points, spectrum_of
from negarr.catalog import gen_finite_field_full
from negarr.fields import ExtensionField, PrimeField, _ZechField
from negarr.negativity import (
    finite_field_bound,
    h_full,
    main_bound_case,
    main_bound_ceiling,
    main_lower_bound,
)
from negarr.projective import ProjLine, ProjPoint
from negarr.search import search_removals

# the least H over the proper sub-arrangements of PG(2,q)
PLANE_MINIMUM = {2: Fraction(-12, 7), 3: Fraction(-36, 13)}


def _incidences(plane):
    """Per line of the plane, whether it passes through each plane point (0
    or 1), counted by multiplicities once."""
    points = [ProjPoint(plane.field, line.coeffs) for line in plane.lines]
    return [multiplicities(CoordArrangement([line]), points) for line in plane.lines]


def _check_against_the_point_count(plane, on, subset, q):
    """Check the locus, H and the bounds of the lines of plane indexed by
    subset against the number of them through each plane point; return H."""
    k = len(subset)
    counts = [m for m in map(sum, zip(*(on[i] for i in subset))) if m >= 2]
    sp = spectrum_of(singular_points(CoordArrangement([plane.lines[i] for i in subset])))
    assert sp.t == Counter(counts), subset
    h = h_full(sp).h
    assert h == Fraction(k * k - sum(m * m for m in counts), len(counts))
    index = finite_field_bound(sp, q)
    assert index.holds
    assert (index.note is not None) == (k == plane.d)
    main = main_lower_bound(sp)  # exact on pencils and quasi-pencils
    assert main.holds or not main.applicable
    # the removal search skips the main bound where this ceiling is at or
    # below its best; the cases are combinatorial, so it holds over GF(q) too
    _, num, den = main_bound_case(k, sp.s, lambda m: sp.t.get(m, 0))
    assert Fraction(num, den) <= Fraction(*main_bound_ceiling(k, sp.s)), subset
    return h


@pytest.mark.parametrize("q", sorted(PLANE_MINIMUM))
def test_every_subarrangement_matches_the_point_count(q):
    plane = gen_finite_field_full(q)
    on, d = _incidences(plane), plane.d
    least = None
    for k in range(2, d + 1):
        for subset in combinations(range(d), k):
            h = _check_against_the_point_count(plane, on, subset, q)
            if k < d and (least is None or h < least):
                least = h
    assert least == PLANE_MINIMUM[q]


@pytest.mark.parametrize("field_type", [_ZechField, ExtensionField])
def test_seeded_pg2_4_subarrangements_match_the_point_count(field_type):
    plane = gen_finite_field_full(4)
    if field_type is ExtensionField:
        # assume_irreducible keeps GF(4) off the Zech tables: the generic path
        field = ExtensionField(PrimeField(2), [1, 1, 1], assume_irreducible=True)
        plane = CoordArrangement([ProjLine(field, line.coeffs) for line in plane.lines])
    assert type(plane.field) is field_type
    on, rng = _incidences(plane), random.Random(4)
    for _ in range(200):
        subset = sorted(rng.sample(range(plane.d), rng.randint(2, plane.d)))
        _check_against_the_point_count(plane, on, subset, 4)


@pytest.mark.parametrize("q", sorted(PLANE_MINIMUM))
def test_search_at_full_depth_finds_the_brute_force_minimum(q):
    plane = gen_finite_field_full(q)
    d = plane.d
    result = search_removals(plane, d - 1, 10**7)
    # every proper subset of two or more lines is evaluated; one line alone
    # has no singular point
    assert result["evaluated"] == 2**d - d - 2
    assert result["no_singular"] == d
    assert result["best"]["h"] == PLANE_MINIMUM[q]
