"""Exhaustive ground truth over the smallest projective planes.

Every arrangement of lines over GF(q) is a subset of the q^2 + q + 1 lines
of pg2:q, and the plane has as many points: the lines' coefficient triples,
read as points.  So on every sub-arrangement of PG(2,2) and PG(2,3) with at
least two lines, the locus, its spectrum and H are checked against an
independent count, the number of lines through each plane point, and the
removal search at full depth against the brute-force minimum.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from negarr.arrangement import CoordArrangement, multiplicities, singular_points, spectrum_of
from negarr.catalog import gen_finite_field_full
from negarr.negativity import finite_field_bound, h_full, main_lower_bound
from negarr.projective import ProjPoint
from negarr.search import search_removals

# the least H over the proper sub-arrangements of PG(2,q)
PLANE_MINIMUM = {2: Fraction(-12, 7), 3: Fraction(-36, 13)}


def _plane(q):
    plane = gen_finite_field_full(q)
    return plane, [ProjPoint(plane.field, line.coeffs) for line in plane.lines]


@pytest.mark.parametrize("q", sorted(PLANE_MINIMUM))
def test_every_subarrangement_matches_the_point_count(q):
    plane, points = _plane(q)
    d = plane.d
    least = None
    for k in range(2, d + 1):
        for subset in combinations(plane.lines, k):
            sub = CoordArrangement(subset)
            counts = [m for m in multiplicities(sub, points) if m >= 2]
            sp = spectrum_of(singular_points(sub))
            assert sp.t == Counter(counts), subset
            h = h_full(sp).h
            assert h == Fraction(k * k - sum(m * m for m in counts), len(counts))
            index = finite_field_bound(sp, q)
            assert index.holds
            assert (index.note is not None) == (k == d)
            main = main_lower_bound(sp)  # exact on pencils and quasi-pencils
            assert main.holds or not main.applicable
            if k < d and (least is None or h < least):
                least = h
    assert least == PLANE_MINIMUM[q]


@pytest.mark.parametrize("q", sorted(PLANE_MINIMUM))
def test_search_at_full_depth_finds_the_brute_force_minimum(q):
    plane, _ = _plane(q)
    d = plane.d
    result = search_removals(plane, d - 1, 10**7)
    # every proper subset of two or more lines is evaluated; one line alone
    # has no singular point
    assert result["evaluated"] == 2**d - d - 2
    assert result["no_singular"] == d
    assert result["best"]["h"] == PLANE_MINIMUM[q]
