import itertools
import random
import re
import warnings
from collections import Counter
from fractions import Fraction

import pytest

import negarr

from negarr.arrangement import (
    KEEP_ORIGINAL_POINTS,
    RESTRICT_TO_NEW_SINGULAR,
    CoordArrangement,
    IncidenceStructure,
    PointSet,
    Spectrum,
    abstract_spectrum,
    equidistribution,
    multiplicities,
    multiplicity,
    remove_lines,
    restrict_to_singular,
    singular_points,
    spectrum_of,
)
from negarr.catalog import (
    gen_fermat,
    gen_finite_field_full,
    gen_generic,
    gen_pencil,
    gen_quasi_pencil,
)
from negarr.errors import (
    EmptyResult,
    IdentityViolation,
    NegarrError,
    UnvalidatedModulusWarning,
)
from negarr.fields import (
    ExtensionField,
    FieldElement,
    PrimeField,
    RationalField,
    cyclotomic_field,
    parse_field,
)
from negarr.negativity import h_at_points, h_of_multiplicities
from negarr.projective import ProjLine, ProjPoint, incident

Q = RationalField()


def _triangle():
    return CoordArrangement([ProjLine(Q, (1, 0, 0)),
                             ProjLine(Q, (0, 1, 0)),
                             ProjLine(Q, (0, 0, 1))])


def test_pencil_spectrum():
    inc = singular_points(gen_pencil(5))
    sp = spectrum_of(inc)
    assert sp.t == {5: 1}
    assert sp.s == 1
    assert sp.is_pencil()
    assert sp.real and sp.complete


def test_triangle_spectrum():
    sp = spectrum_of(singular_points(_triangle()))
    assert sp.t == {2: 3}
    assert sp.profile == {2: 2}


def test_quasi_pencil_spectrum():
    for d in (3, 5, 8):
        sp = spectrum_of(singular_points(gen_quasi_pencil(d)))
        assert sp.t == {2: d - 1, d - 1: 1} if d > 3 else sp.t


def test_quasi_pencil_small():
    # d = 3 collapses to a triangle of a different shape: t = {2: 3}
    sp = spectrum_of(singular_points(gen_quasi_pencil(3)))
    assert sp.t == {2: 3}


def test_fermat3_locus():
    inc = singular_points(gen_fermat(3))
    sp = spectrum_of(inc)
    assert sp.t == {3: 12}
    assert sp.profile == {3: 4}
    assert not sp.real
    assert sp.complete
    assert sp.field_order is None


def test_fermat4_locus():
    sp = spectrum_of(singular_points(gen_fermat(4)))
    assert sp.t == {3: 16, 4: 3}
    assert sp.s == 19


def test_single_line_rejected():
    with pytest.raises(NegarrError, match="^need at least two lines to intersect$"):
        singular_points(CoordArrangement([ProjLine(Q, (1, 0, 0))]))


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        CoordArrangement([ProjLine(Q, (1, 0, 0)), ProjLine(Q, (2, 0, 0))])


def test_multiplicity_lookup():
    arr = _triangle()
    assert multiplicity(arr, ProjPoint(Q, (0, 0, 1))) == 2
    assert multiplicity(arr, ProjPoint(Q, (1, 1, 1))) == 0
    assert multiplicity(arr, ProjPoint(Q, (1, 1, 0))) == 1
    points = [ProjPoint(Q, t) for t in ((0, 0, 1), (1, 1, 1), (1, 1, 0))]
    assert multiplicities(arr, (p for p in points)) == [2, 0, 1]


def test_point_set_validation():
    with pytest.raises(NegarrError, match="^point set is empty$"):
        PointSet([])
    p = ProjPoint(Q, (1, 1, 1))
    with pytest.raises(ValueError):
        PointSet([p, ProjPoint(Q, (2, 2, 2))])


def _raised(make, items):
    with pytest.raises(Exception) as info:
        make(items)
    return info.type, str(info.value)


@pytest.mark.parametrize("make, element, kind, empty", [
    (PointSet, ProjPoint, "points", (NegarrError, "point set is empty")),
    (CoordArrangement, ProjLine, "lines", (ValueError, "arrangement needs at least one line")),
])
def test_point_and_line_set_messages(make, element, kind, empty):
    gf5 = PrimeField(5)
    assert _raised(make, []) == empty
    assert _raised(make, [element(Q, (1, 0, 0)), element(gf5, (0, 1, 0))]) == \
        (NegarrError, f"{kind} over different fields")
    assert _raised(make, [element(Q, (1, 0, 0)), element(Q, (0, 1, 0)),
                          element(Q, (-2, 0, 0))]) == \
        (ValueError, f"{kind} must be pairwise distinct")


def test_real_flag_is_a_plain_bool_forced_over_q():
    qi = cyclotomic_field(4)
    lines = [ProjLine(qi, (1, 0, 0)), ProjLine(qi, (0, 1, 0))]
    assert CoordArrangement(lines).real is False
    assert CoordArrangement(lines, real=True).real is True
    assert CoordArrangement(_triangle().lines, real=False).real is True
    assert CoordArrangement(lines, real=True).without([0]).real is True
    # a finite field embeds in no real field
    gf5 = PrimeField(5)
    lines = [ProjLine(gf5, (1, 0, 0)), ProjLine(gf5, (0, 1, 0))]
    assert CoordArrangement(lines).real is False
    assert repr(CoordArrangement(lines)) == "CoordArrangement(d=2, field=GF(5), real=False)"
    with pytest.raises(ValueError, match=r"^lines over the finite field GF\(5\) cannot be real$"):
        CoordArrangement(lines, real=1)


def test_spectrum_over_a_finite_field_cannot_be_real():
    assert Spectrum(4, {2: 6}, field_order=7).real is False
    assert Spectrum(4, {2: 6}, real=True).real is True
    with pytest.raises(ValueError,
                       match=r"^a spectrum over the finite field of order 7 cannot be real$"):
        Spectrum(4, {2: 6}, real=True, field_order=7)


def test_spectrum_field_order_is_a_prime_power():
    for order in (0, 1, 6):
        with pytest.raises(ValueError, match=f"^field order {order} is not a prime power$"):
            Spectrum(4, {2: 6}, field_order=order)
    assert Spectrum(4, {2: 6}, field_order=9).field_order == 9


def test_incidence_structure_field_order_is_a_prime_power():
    with pytest.raises(ValueError, match="^field order 10 is not a prime power$"):
        IncidenceStructure((0, 1, 2), [("p", {0, 1, 2})], complete=True, field_order=10)
    inc = IncidenceStructure((0, 1, 2), [("p", {0, 1, 2})], complete=True, field_order=9)
    assert spectrum_of(inc).field_order == 9


def test_incidence_structure_over_a_finite_field_cannot_be_real():
    with pytest.raises(ValueError, match="^an incidence structure over the finite field "
                                         "of order 7 cannot be real$"):
        IncidenceStructure((0, 1, 2), [("p", {0, 1, 2})], complete=True, real=True,
                           field_order=7)


def test_abstract_spectrum_is_the_constructor():
    assert abstract_spectrum is Spectrum
    assert negarr.abstract_spectrum is negarr.Spectrum


def test_restrict_to_singular():
    arr = _triangle()
    pts = PointSet([ProjPoint(Q, (0, 0, 1)), ProjPoint(Q, (1, 1, 1))])
    kept = restrict_to_singular(pts, arr)
    assert list(kept) == [ProjPoint(Q, (0, 0, 1))]
    assert kept.field is Q and repr(kept) == "PointSet([[0:0:1]])"
    with pytest.raises(EmptyResult):
        restrict_to_singular(PointSet([ProjPoint(Q, (1, 1, 1))]), arr)


def test_abstract_spectrum_identity_check():
    sp = abstract_spectrum(9, {3: 12})
    assert sp.s == 12
    with pytest.raises(IdentityViolation):
        abstract_spectrum(9, {3: 11})
    # every spectrum is a full singular locus: none skips the identity
    assert sp.complete
    with pytest.raises(ValueError, match="^a spectrum describes a full singular locus"):
        abstract_spectrum(9, {3: 11}, complete=False)
    with pytest.raises(ValueError, match="^a spectrum describes a full singular locus"):
        abstract_spectrum(9, {3: 12}, complete=False)


def test_spectrum_validation():
    with pytest.raises(NegarrError, match=r"^d\*profile\[3\] = 45 but k\*t_3 = 36$"):
        Spectrum(9, {3: 12}, profile={3: 5})
    with pytest.raises(NegarrError, match=r"^profile multiplicities \[4\] != spectrum \[3\]$"):
        Spectrum(9, {3: 12}, profile={4: 4})
    with pytest.raises(ValueError):
        Spectrum(9, {1: 3, 3: 12})
    with pytest.raises(ValueError):
        Spectrum(9, {3: -1})
    with pytest.raises(ValueError):
        Spectrum(0, {})
    # zero counts are dropped, not stored
    sp = Spectrum(9, {3: 12, 5: 0})
    assert sp.t == {3: 12}
    assert sp == Spectrum(9, {3: 12}) and hash(sp) == hash(Spectrum(9, {3: 12}))
    assert repr(sp) == "Spectrum(d=9, t={3: 12}, real=False)"


def test_incidence_structure_validation():
    for labels, message in (((0, 1, 0), "^line labels must be distinct$"),
                            ((), "^at least one line required$"),
                            ((0, 1), "^point 'p' references unknown lines$")):
        with pytest.raises(ValueError, match=message):
            IncidenceStructure(labels, [("p", frozenset({0, 2}))], complete=False)
    with pytest.raises(IdentityViolation):
        IncidenceStructure((0, 1, 2), [("p", frozenset({0, 1}))], complete=True)
    ok = IncidenceStructure((0, 1, 2), [("p", frozenset({0, 1}))], complete=False)
    assert ok.multiplicities() == [2] and (ok.d, ok.s) == (3, 1)
    assert repr(ok) == "IncidenceStructure(d=3, s=1, complete=False)"
    # a complete structure is a singular locus: no point on fewer than two lines
    with pytest.raises(ValueError, match="^a complete incidence structure holds only points"):
        IncidenceStructure((0, 1), [("p", frozenset({0, 1})), ("q", frozenset({0}))],
                           complete=True)


def test_incidence_structure_errors_keep_their_precedence():
    """Unknown labels are reported before a point on fewer than two lines,
    which is reported before the pair-count identity; no points at all is
    EmptyResult, complete or not.  Points may come from a one-shot iterator."""
    labels = (0, 1, 2)
    unknown = "^point 'q' references unknown lines$"
    short = "^a complete incidence structure holds only points on two or more of its lines$"
    with pytest.raises(ValueError, match=unknown):
        IncidenceStructure(labels, [("p", {0, 1, 2}), ("q", {1, 3})], complete=True)
    with pytest.raises(ValueError, match=short):
        IncidenceStructure(labels, [("p", {0, 1, 2}), ("q", {1})], complete=True)
    identity = r"^pair-count identity violated: sum C\(m_i,2\) = 1 but C\(d,2\) = 3$"
    with pytest.raises(IdentityViolation, match=identity):
        IncidenceStructure(labels, iter([("p", {0, 1})]), complete=True)
    for complete in (True, False):
        with pytest.raises(EmptyResult, match="^incidence structure has no points$"):
            IncidenceStructure(labels, iter(()), complete=complete)
    # a point of multiplicity 1 before a point on an unknown line, and after it
    for points in ([("p", {0}), ("q", {0, 5})], [("q", {5, 0}), ("p", {0})]):
        with pytest.raises(ValueError, match=unknown):
            IncidenceStructure(labels, points, complete=True)
    # points are read and checked in turn: an unhashable member fails at its
    # own point, after an unknown label on an earlier point is reported
    with pytest.raises(ValueError, match=unknown):
        IncidenceStructure(labels, [("q", {0, 5}), ("p", [0, [1]])], complete=True)
    with pytest.raises(TypeError, match="unhashable"):
        IncidenceStructure(labels, [("p", [0, [1]]), ("q", {0, 5})], complete=True)
    inc = IncidenceStructure(labels, iter([("p", [0, 1]), ("q", (1, 2)), ("r", {2})]),
                             complete=False)
    assert inc.points == (("p", frozenset({0, 1})), ("q", frozenset({1, 2})),
                          ("r", frozenset({2})))
    assert inc.on_line == {0: [0], 1: [0, 1], 2: [1, 2]}


def test_remove_lines_matches_recomputation():
    # removal bookkeeping must agree with recomputing the subarrangement
    arrangements = [gen_fermat(3), gen_fermat(4), gen_fermat(5),
                    gen_generic(4), gen_generic(6), gen_generic(8)]
    for arr in arrangements:
        inc = singular_points(arr)
        labels = list(range(arr.d))
        subsets = [(i,) for i in labels] + list(itertools.combinations(labels[:5], 2))
        for sub in subsets:
            restricted = remove_lines(inc, sub, RESTRICT_TO_NEW_SINGULAR)
            direct = singular_points(arr.without(sub))
            got = dict(zip([k for k, _ in restricted.points],
                           [len(m) for _, m in restricted.points]))
            want = dict(zip([k for k, _ in direct.points],
                            [len(m) for _, m in direct.points]))
            assert got == want, (arr.d, sub)
            assert spectrum_of(restricted).t == spectrum_of(direct).t


def test_remove_lines_keep_policy():
    inc = singular_points(gen_fermat(3))
    kept = remove_lines(inc, [0], KEEP_ORIGINAL_POINTS)
    # the original twelve points stay, some now with multiplicity below two
    assert len(kept.points) == 12
    assert not kept.complete
    mults = sorted(kept.multiplicities())
    assert mults == [2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]
    # a kept point set is not a singular locus, so it has no spectrum
    with pytest.raises(ValueError, match="^spectrum_of needs a full singular locus"):
        spectrum_of(kept)


def test_remove_lines_errors():
    inc = singular_points(_triangle())
    with pytest.raises(NegarrError, match="^cannot remove every line$"):
        remove_lines(inc, [0, 1, 2], RESTRICT_TO_NEW_SINGULAR)
    with pytest.raises(ValueError):
        remove_lines(inc, [5], RESTRICT_TO_NEW_SINGULAR)
    with pytest.raises(ValueError):
        remove_lines(inc, [0], "bogus_policy")
    with pytest.raises(EmptyResult):
        remove_lines(inc, [0, 1], RESTRICT_TO_NEW_SINGULAR)


def test_equidistribution():
    for n in (3, 4, 5):
        assert equidistribution(singular_points(gen_fermat(n))) == n + 1
    assert equidistribution(singular_points(gen_quasi_pencil(6))) is None
    sp = Spectrum(45, {3: 120, 4: 45, 5: 36}, profile={3: 8, 4: 4, 5: 4})
    assert equidistribution(sp) == 16
    with pytest.raises(NegarrError, match="^spectrum carries no per-line profile$"):
        equidistribution(Spectrum(45, {3: 120, 4: 45, 5: 36}))


def test_profile_derivation_uniform_only():
    sp = spectrum_of(singular_points(gen_quasi_pencil(6)))
    assert sp.profile is None
    sp3 = spectrum_of(singular_points(gen_fermat(3)))
    assert sp3.profile == {3: 4}


def test_profile_stops_at_the_first_differing_line(monkeypatch):
    """spectrum_of builds one Counter for t and then per-line Counters only
    until a line's differs from line 0's; a uniform locus checks them all."""
    quasi = gen_quasi_pencil(12)  # the transversal is the last line
    transversal_first = singular_points(CoordArrangement(quasi.lines[::-1], real=True))
    quasi, pg3 = singular_points(quasi), singular_points(gen_finite_field_full(3))
    built = []

    class Counting(Counter):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(negarr.arrangement, "Counter", Counting)
    for inc, counters in ((transversal_first, 3), (quasi, 13)):
        built.clear()
        assert spectrum_of(inc).profile is None
        assert len(built) == counters
    built.clear()
    assert spectrum_of(pg3).profile == {4: 4}
    assert len(built) == pg3.d + 1 == 14


def _line_index_cases():
    pg3, fermat3, generic6, quasi6 = (singular_points(arr) for arr in (
        gen_finite_field_full(3), gen_fermat(3), gen_generic(6), gen_quasi_pencil(6)))
    keep, restrict = KEEP_ORIGINAL_POINTS, RESTRICT_TO_NEW_SINGULAR
    # name: (incidence structure, points per line, per-line profile)
    return {
        "pg2-3": (pg3, 4, {4: 4}),
        "pg2-3-restrict-5": (remove_lines(pg3, [5], restrict), 4, {3: 1, 4: 3}),
        "pg2-3-restrict-3,7": (remove_lines(pg3, [3, 7], restrict), 4, None),
        "pg2-3-keep-3,7": (remove_lines(pg3, [3, 7], keep), 4, None),
        "fermat-3-restrict-4": (remove_lines(fermat3, [4], restrict), 4, {2: 1, 3: 3}),
        "generic-6-restrict-1,3": (remove_lines(generic6, [1, 3], restrict), 3, {2: 3}),
        "generic-6-keep-1,3": (remove_lines(generic6, [1, 3], keep), 5, None),
        "quasi-6": (quasi6, None, None),
        "quasi-6-keep-1,3": (remove_lines(quasi6, [1, 3], keep), None, None),
        "quasi-6-restrict-1,2,3": (remove_lines(quasi6, [1, 2, 3], restrict), 2, {2: 2}),
    }


_LINE_INDEX = _line_index_cases()


@pytest.mark.parametrize("inc, per_line, profile", _LINE_INDEX.values(), ids=_LINE_INDEX)
def test_line_index_matches_member_sets(inc, per_line, profile):
    expected = {lab: [] for lab in inc.line_labels}
    for pid, (_, members) in enumerate(inc.points):
        for lab in members:
            expected[lab].append(pid)
    assert inc.on_line == expected
    assert list(inc.on_line) == list(inc.line_labels)
    assert equidistribution(inc) == per_line
    if inc.complete:
        assert spectrum_of(inc).profile == profile
    else:
        with pytest.raises(ValueError, match="^spectrum_of needs a full singular locus"):
            spectrum_of(inc)


def test_locus_builds_no_field_element(monkeypatch):
    arrangements = [gen_finite_field_full(9), gen_fermat(5), gen_generic(20)]
    init, calls = FieldElement.__init__, []

    def counted(self, field, value):
        calls.append(value)
        init(self, field, value)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    for arr in arrangements:
        inc = singular_points(arr)
        for p, _ in inc.points:
            assert not any(isinstance(r, FieldElement) for r in p._r)
    assert calls == []


def test_rational_coordinates_are_real():
    arr = _triangle()
    assert arr.real
    sp = spectrum_of(singular_points(arr))
    assert sp.real


def test_member_sets_match_direct_multiplicity():
    arr = gen_generic(5)
    inc = singular_points(arr)
    for key, members in inc.points:
        assert multiplicity(arr, key) == len(members)
        for i in members:
            assert incident(key, arr.lines[i])


def _incidence_fields():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        tower = ExtensionField(gf4, [gf4.gen().value, [1], [1]])  # GF(16) over GF(4)
    return {"q": Q, "gf13": PrimeField(13), "gf9": ExtensionField(PrimeField(3), [1, 0, 1]),
            "cyclo5": cyclotomic_field(5), "gf4-tower": tower,
            "ext-q": parse_field("EXT Q [-1/2,0,1]")}


_INCIDENCE_FIELDS = _incidence_fields()


@pytest.mark.parametrize("field", _INCIDENCE_FIELDS.values(), ids=_INCIDENCE_FIELDS)
def test_multiplicities_match_per_pair_incidence(field):
    rng = random.Random(field.key)
    two = field.gen() if isinstance(field, ExtensionField) else field.element(2)
    pool = [field.zero, field.one, -field.one, two]
    triples = [t for t in itertools.product(pool, repeat=3) if any(t)]
    points = sorted({ProjPoint(field, t) for t in triples}, key=ProjPoint.sort_key)
    arr = CoordArrangement(rng.sample(sorted({ProjLine(field, t) for t in triples},
                                             key=ProjLine.sort_key), 6))

    def on(p, l):
        (x, y, z), (a, b, c) = p.coords, l.coeffs
        return not (a * x + b * y + c * z)

    counts = multiplicities(arr, points)
    assert counts == [sum(on(p, l) for l in arr.lines) for p in points]
    assert counts == [sum(incident(p, l) for l in arr.lines) for p in points]
    assert counts == [multiplicity(arr, p) for p in points]
    assert {0, 1} <= set(counts) and max(counts) >= 2
    singular = tuple(p for p, m in zip(points, counts) if m >= 2)
    assert restrict_to_singular(points, arr).points == singular
    assert h_at_points(arr, points) == h_of_multiplicities(arr.d, counts)

    stranger = ProjPoint(PrimeField(7) if field != PrimeField(7) else Q, (1, 0, 0))
    mismatch = "^point and arrangement over different fields$"
    with pytest.raises(NegarrError, match=mismatch):
        multiplicity(arr, stranger)
    with pytest.raises(NegarrError, match=mismatch):
        restrict_to_singular(points + [stranger], arr)
    with pytest.raises(NegarrError, match=mismatch):
        h_at_points(arr, [stranger])
    with pytest.raises(NegarrError, match="^" + re.escape(
            f"point over {stranger.field}, line over {field}") + "$"):
        incident(stranger, arr.lines[0])


def _reference_points(arr):
    """The singular locus from all C(d,2) pairs as (coords, member set), met
    and scaled to a leftmost one by the FieldElement formula and ordered by
    sort_key_rep of those values, so no int kernel takes part."""
    acc = {}
    for i, j in itertools.combinations(range(arr.d), 2):
        (a1, b1, c1), (a2, b2, c2) = arr.lines[i].coeffs, arr.lines[j].coeffs
        t = (b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1)
        pivot = next(x for x in t if x)
        acc.setdefault(tuple(x / pivot for x in t), set()).update((i, j))
    key = arr.field.sort_key_rep
    ordered = sorted(acc.items(), key=lambda kv: tuple(key(x.value) for x in kv[0]))
    return tuple((coords, frozenset(members)) for coords, members in ordered)


def _random_arrangement(rng, field, d, entry):
    lines = set()
    while len(lines) < d:
        coeffs = [entry() for _ in range(3)]
        if any(field.element(c) for c in coeffs):
            lines.add(ProjLine(field, coeffs))
    return CoordArrangement(sorted(lines, key=lambda l: rng.random()))


def _differential_inputs():
    rng = random.Random(2718)
    gf9 = ExtensionField(PrimeField(3), [1, 0, 1])
    gf9_elems = list(gf9.iter_elements())
    out = {}
    for n in range(3):
        out[f"q-{n}"] = _random_arrangement(rng, Q, 14, lambda: rng.randint(-2, 2))
        out[f"gf7-{n}"] = _random_arrangement(rng, PrimeField(7), 20,
                                              lambda: rng.randrange(7))
        out[f"gf9-{n}"] = _random_arrangement(rng, gf9, 16, lambda: rng.choice(gf9_elems))
    for n in (3, 12):
        field = cyclotomic_field(n)
        out[f"cyclo{n}"] = _random_arrangement(
            rng, field, 9, lambda: [rng.randint(-1, 1) for _ in range(field.degree)])
    # few distinct entries, so that points of multiplicity above 2 occur
    for n in (5, 7):
        field = cyclotomic_field(n)
        pool = [field.zero, field.one, -field.one, field.gen(), field.gen() ** 2]
        out[f"cyclo{n}"] = _random_arrangement(rng, field, 12, lambda: rng.choice(pool))
    for q, p, modulus in ((8, 2, [1, 1, 0, 1]), (25, 5, [3, 0, 1]), (27, 3, [1, 2, 0, 1])):
        field = ExtensionField(PrimeField(p), modulus)
        pool = [field.zero, field.one] + rng.sample(list(field.iter_elements()), 4)
        out[f"gf{q}"] = _random_arrangement(rng, field, 18, lambda: rng.choice(pool))

    def large():
        """Zero, or up to 10^12 over up to 10^6 of either sign: gcd and sign
        normalisation of the primitive triples over Q."""
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**6))
    out["q-large"] = _random_arrangement(rng, Q, 14, large)
    out["fermat4"] = gen_fermat(4)
    out["fermat5"] = gen_fermat(5)  # over Q(zeta_5), of degree 4
    out["generic"] = gen_generic(8)
    out["pencil"] = gen_pencil(7)
    out["quasipencil"] = gen_quasi_pencil(7)
    for q in (2, 3, 4, 5, 7, 8):
        out[f"pg2-{q}"] = gen_finite_field_full(q)
    # the generic ExtensionField hooks: an order above ZECH_MAX_ORDER, a
    # modulus over Q that is not integral (whose pool also orders Q entries
    # by (numerator, denominator), not by value), and a tower
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        generic = {"generic-gf289": parse_field("EXT (GF 17) [3,0,1]"),
                   "generic-q-half": parse_field("EXT Q [-1/2,0,1]"),
                   "generic-tower16": ExtensionField(gf4, [gf4.gen().value, [1], [1]])}
    for name, field in generic.items():
        g = field.gen()
        pool = [field.zero, field.one, -field.one, g, g + 1]
        if name == "generic-q-half":
            pool += [Fraction(1, 2), Fraction(1, 3), g / 3]
        out[name] = _random_arrangement(rng, field, 12, lambda: rng.choice(pool))
    # shuffled three-quarter subsets of dense planes (GF(7) residues, Zech
    # GF(8) and GF(9)): each line has some later lines covered by the points
    # found on it and others free, as in the benchmark's locus inputs
    for q in (7, 8, 9):
        lines = gen_finite_field_full(q).lines
        out[f"pg2-{q}-part"] = CoordArrangement(rng.sample(lines, 3 * len(lines) // 4))
    return out


_DIFFERENTIAL = _differential_inputs()
# inputs whose lines all carry the same multiset of point multiplicities;
# cyclo12's nine random lines are in general position
_UNIFORM = {"fermat4", "fermat5", "generic", "pencil", "cyclo12"} | {
    f"pg2-{q}" for q in (2, 3, 4, 5, 7, 8)}


def _reference_index(d, reference):
    """The per-line index of reference member sets, and its profile: a
    Counter per line, None if any two differ."""
    index = {lab: [] for lab in range(d)}
    for pid, (_, members) in enumerate(reference):
        for lab in members:
            index[lab].append(pid)
    profiles = [Counter(len(reference[pid][1]) for pid in ids) for ids in index.values()]
    return index, None if any(p != profiles[0] for p in profiles) else dict(profiles[0])


@pytest.mark.parametrize("name", [n for n in _DIFFERENTIAL if n.startswith("generic-")])
def test_generic_extension_inputs_meet_on_the_generic_hooks(name):
    arr = _DIFFERENTIAL[name]
    assert type(arr.field) is ExtensionField
    assert max(len(members) for _, members in _reference_points(arr)) > 2


@pytest.mark.parametrize("name", _DIFFERENTIAL)
def test_singular_points_matches_all_pairs_reference(name, monkeypatch):
    arr = _DIFFERENTIAL[name]
    # count meets at the field class's _cross hook, whichever way the locus
    # reaches it
    field_class = type(arr.field)
    cross, calls = field_class._cross, []

    def counted(field, u, v):
        calls.append((u, v))
        return cross(field, u, v)

    monkeypatch.setattr(field_class, "_cross", counted)
    # and through negarr.arrangement.meet, the walk's per-meet hook: the
    # benchmark's traced meet count reads its calls, so the walk makes one
    # per meet until that count moves to the field's _cross hook (ROADMAP
    # item 1)
    meet, met = negarr.arrangement.meet, []

    def counted_meet(l1, l2):
        met.append((l1, l2))
        return meet(l1, l2)

    monkeypatch.setattr(negarr.arrangement, "meet", counted_meet)
    # the hook meets on stored reps, never through the checked public meet
    public_cross, checked = negarr.projective._cross, []

    def counted_cross(*args):
        checked.append(args)
        return public_cross(*args)

    monkeypatch.setattr(negarr.projective, "_cross", counted_cross)
    inc = singular_points(arr)
    assert checked == []
    reference = _reference_points(arr)
    assert [(p.coords, members) for p, members in inc.points] == list(reference)
    assert [repr(p) for p, _ in inc.points] == [
        "[" + ":".join(map(repr, coords)) + "]" for coords, _ in reference]
    assert len(met) == len(calls) == sum(len(members) - 1 for _, members in reference)
    # the line index and the per-line profile agree with the reference's
    index, profile = _reference_index(arr.d, reference)
    assert (profile is not None) == (name in _UNIFORM)
    assert inc.on_line == index
    assert spectrum_of(inc).profile == profile
    # the hook returns the stored reps of the public meet's point
    for l1, l2 in itertools.islice(itertools.combinations(arr.lines, 2), 5):
        assert meet(l1, l2) == negarr.meet(l1, l2)._r
    # each stored point is the canonical form of its own coordinates
    for p, _ in inc.points:
        again = ProjPoint(arr.field, p.coords)
        assert again == p and hash(again) == hash(p)
