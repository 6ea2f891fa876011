import contextlib
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from negarr import negativity
from negarr.arrangement import (
    KEEP_ORIGINAL_POINTS,
    RESTRICT_TO_NEW_SINGULAR,
    CoordArrangement,
    PointSet,
    Spectrum,
    abstract_spectrum,
    remove_lines,
    singular_points,
    spectrum_of,
)
from negarr.catalog import (
    CATALOG,
    catalog_entry,
    gen_fermat,
    gen_generic,
    gen_kgon_mirror,
    gen_pencil,
    gen_quasi_pencil,
)
from negarr.errors import NegarrError
from negarr.fields import EQUAL, LESS, RationalField
from negarr.negativity import (
    certificates_for,
    finite_field_bound,
    h_at_points,
    h_curve,
    h_fattened,
    h_full,
    h_of_multiplicities,
    h_quadratic,
    hirzebruch_check,
    main_bound_case,
    main_bound_ceiling,
    main_lower_bound,
    mean_multiplicity_bound,
    melchior_check,
    pair_removal_from_profile,
    real_identity_and_bound,
    subconfig_formula,
    wiman_pair_removal,
)
from negarr.projective import ProjLine, ProjPoint

Q = RationalField()

KLEIN = catalog_entry("klein").build()
WIMAN = catalog_entry("wiman").build()
DUAL_HESSE = spectrum_of(singular_points(gen_fermat(3)))


def test_h_full_known_values():
    assert h_full(DUAL_HESSE).h == Fraction(-9, 4)
    assert h_full(KLEIN).h == Fraction(-3)
    assert h_full(WIMAN).h == Fraction(-225, 67)
    assert h_full(spectrum_of(singular_points(gen_pencil(9)))).h == 0
    assert h_full(spectrum_of(singular_points(gen_quasi_pencil(5)))).h == Fraction(-7, 5)
    for r in (3, 5, 8):
        got = h_full(spectrum_of(singular_points(gen_generic(r)))).h
        assert got == -2 + Fraction(2, r - 1)


def test_h_full_requires_complete():
    # the constructor refuses an incomplete spectrum, so h_full and the
    # certificates need no guard of their own
    with pytest.raises(ValueError, match="^a spectrum describes a full singular locus"):
        h_full(abstract_spectrum(9, {3: 11}, complete=False))
    assert not hasattr(negativity, "_require_complete")


def test_h_at_points_mixed_multiplicities():
    arr = CoordArrangement([ProjLine(Q, (1, 0, 0)), ProjLine(Q, (0, 1, 0)),
                            ProjLine(Q, (0, 0, 1)), ProjLine(Q, (1, -1, 0))])
    pts = PointSet([ProjPoint(Q, (0, 0, 1)), ProjPoint(Q, (1, 1, 1)),
                    ProjPoint(Q, (0, 1, 0))])
    rep = h_at_points(arr, pts)
    assert rep.h == Fraction(2, 3)
    assert (rep.d, rep.s, rep.sum_m, rep.sum_m_sq) == (4, 3, 6, 14)


def test_h_quadratic_agrees_on_kept_locus():
    inc = singular_points(gen_fermat(3))
    kept = remove_lines(inc, [0, 1], KEEP_ORIGINAL_POINTS)
    rep = h_quadratic(kept)
    assert rep.d == 7 and rep.s == 12
    # one shared triple point fell to multiplicity one but still counts
    assert rep.h == Fraction(7 * 7 - (6 * 4 + 5 * 9 + 1), 12)


def test_h_fattened_scales_quadratically():
    base = h_full(DUAL_HESSE).h
    for k in (1, 2, 3, 5):
        assert h_fattened(DUAL_HESSE, k) == k * k * base
    with pytest.raises(ValueError):
        h_fattened(DUAL_HESSE, 0)


def test_h_curve_infimum_flag():
    assert h_curve(DUAL_HESSE).infimum_attained
    two_lines = spectrum_of(singular_points(gen_generic(2)))
    assert h_curve(two_lines).h == 0
    assert not h_curve(two_lines).infimum_attained


def test_hirzebruch_klein_sharp():
    rep = hirzebruch_check(KLEIN)
    assert rep.applicable and rep.holds
    assert rep.slack == 0


def test_hirzebruch_wiman_slack():
    rep = hirzebruch_check(WIMAN)
    assert rep.applicable and rep.holds
    assert rep.slack == 9


def test_hirzebruch_inapplicable_cases():
    pencil = spectrum_of(singular_points(gen_pencil(7)))
    assert not hirzebruch_check(pencil).applicable
    quasi = spectrum_of(singular_points(gen_quasi_pencil(7)))
    assert not hirzebruch_check(quasi).applicable
    triangle = abstract_spectrum(3, {2: 3}, real=True)
    assert not hirzebruch_check(triangle).applicable
    # positive characteristic coordinates are out of scope
    fano = abstract_spectrum(7, {3: 7}, field_order=2)
    rep = hirzebruch_check(fano)
    assert not rep.applicable
    assert rep.note is not None  # structurally violated, flagged as advisory


def test_hirzebruch_small_spectra_are_pencils_or_quasi_pencils():
    # every complete spectrum with d <= 3 is caught before any bound on d
    pencil = "a point lies on every line (pencil)"
    quasi = "a point lies on all lines but one (quasi-pencil)"
    for d, t, reason in ((2, {2: 1}, pencil), (3, {2: 3}, quasi), (3, {3: 1}, pencil)):
        rep = hirzebruch_check(abstract_spectrum(d, t))
        assert not rep.applicable
        assert rep.reason == reason, (d, t)


def test_hirzebruch_failure_signals_nonrealizability():
    ghost = abstract_spectrum(13, {4: 13})
    rep = hirzebruch_check(ghost)
    assert rep.applicable
    assert not rep.holds
    assert rep.slack == -13


def test_melchior_values():
    kgon = gen_kgon_mirror(4)
    rep = melchior_check(kgon)
    assert rep.applicable and rep.holds and rep.e_slack == 0
    bor = catalog_entry("boroczky").build(6)
    assert melchior_check(bor).e_slack == 0
    # a 3..50 sweep stays nonnegative
    for k in range(3, 51):
        assert melchior_check(gen_kgon_mirror(k)).e_slack >= 0


def test_melchior_advisory_on_complex_items():
    rep = melchior_check(KLEIN)
    assert not rep.applicable
    assert rep.e_slack == -24
    assert rep.note is not None
    wim = melchior_check(WIMAN)
    assert wim.e_slack == -120


def test_melchior_pencil_inapplicable():
    pencil = spectrum_of(singular_points(gen_pencil(7)))
    rep = melchior_check(pencil)
    assert not rep.applicable


def test_main_lower_bound_cases():
    pencil = spectrum_of(singular_points(gen_pencil(7)))
    assert main_lower_bound(pencil).bound_value == 0
    quasi = spectrum_of(singular_points(gen_quasi_pencil(5)))
    rep = main_lower_bound(quasi)
    assert rep.bound_value == Fraction(-7, 5)
    assert rep.slack == 0
    assert main_lower_bound(WIMAN).bound_value == Fraction(-228, 67)
    assert main_lower_bound(WIMAN).slack == Fraction(3, 67)
    assert main_lower_bound(KLEIN).bound_value == -3
    assert main_lower_bound(KLEIN).slack == 0


def test_main_lower_bound_triangle_over_gf5():
    # a point on d - 1 lines makes a quasi-pencil over any field; the
    # triangle has three, and both cases give -1 at d = 3
    for order in (None, 5):
        rep = main_lower_bound(abstract_spectrum(3, {2: 3}, field_order=order))
        assert (rep.applicable, rep.holds, rep.bound_value, rep.slack) == (True, True, -1, 0)
    assert main_bound_case(3, 3, {2: 3}.get) == ("quasi-pencil", -3, 3)
    assert Fraction(8 * 3 + 4 * 3 - 16 * 3, 4 * 3) == -1  # -4 + (2d + t_2)/s, as before


def _random_complete_spectrum(rng):
    """t with sum C(k,2) t_k = C(d,2): points of multiplicity 3..d drawn
    while the pair count allows, double points for the pairs left."""
    d = rng.randint(2, 12)
    pairs, t = comb(d, 2), {}
    for _ in range(rng.randint(0, 6)):
        k = rng.choice((d, d - 1, rng.randint(3, max(3, d))))
        if 3 <= k <= d and comb(k, 2) <= pairs:
            t[k] = t.get(k, 0) + 1
            pairs -= comb(k, 2)
    if pairs:
        t[2] = t.get(2, 0) + pairs
    return d, t


# Small parameters for every catalog entry, and for every coordinate model
# of a spectrum entry, which is read through its singular locus.
_CATALOG_PARAMS = {
    "generic": [(3,), (6,)], "pencil": [(2,), (5,)], "quasipencil": [(3,), (6,)],
    "fermat": [(3,), (4,)], "dualhesse": [()], "pg2": [(2,), (3,), (4,)],
    "kgon": [(4,), (7,)], "boroczky": [(6,), (12,)], "cubicgroup": [(9, 3), (4, 1)],
    "klein": [()], "wiman": [()],
}
_COORDINATE_MODEL_PARAMS = {"kgon": [(4,)]}


def _catalog_spectra():
    assert set(_CATALOG_PARAMS) == set(CATALOG)
    modelled = {name for name, entry in CATALOG.items() if entry.coords is not None}
    assert modelled == set(_COORDINATE_MODEL_PARAMS)
    for name, cases in _CATALOG_PARAMS.items():
        for params in cases:
            built = CATALOG[name].build(*params)
            yield built if isinstance(built, Spectrum) else spectrum_of(singular_points(built))
    for name, cases in _COORDINATE_MODEL_PARAMS.items():
        for params in cases:
            yield spectrum_of(singular_points(CATALOG[name].coords(*params)))


def test_spectrum_sums_make_h_full_the_quadratic_form():
    # The constructor checks the pair-count identity on the sums it keeps,
    # and that identity is what turns (d^2 - sum m_i^2)/s into h_full's
    # linear (d - sum m_i)/s, so h_full needs no check of its own.
    rng = random.Random(36)
    spectra = [abstract_spectrum(*_random_complete_spectrum(rng)) for _ in range(400)]
    spectra += _catalog_spectra()
    for sp in spectra:
        t = sp.t
        assert (sp.s, sp.sum_m, sp.sum_m_sq) == (
            sum(t.values()), sum(k * v for k, v in t.items()),
            sum(k * k * v for k, v in t.items())), sp
        full = h_full(sp)
        quad = h_of_multiplicities(sp.d, list(Counter(t).elements()))
        assert (full.h, full.s, full.sum_m, full.sum_m_sq) == \
            (quad.h, quad.s, quad.sum_m, quad.sum_m_sq), sp


def test_hirzebruch_degenerate_reasons_follow_main_bound_case():
    rng = random.Random(17)
    reasons = {"pencil": "a point lies on every line (pencil)",
               "quasi-pencil": "a point lies on all lines but one (quasi-pencil)"}
    seen = set()
    for _ in range(400):
        d, t = _random_complete_spectrum(rng)
        order = rng.choice((None, 5))
        spec = abstract_spectrum(d, t, field_order=order)
        case = main_bound_case(d, spec.s, lambda k: t.get(k, 0))[0]
        assert case == ("pencil" if t.get(d) else "quasi-pencil" if t.get(d - 1) else "general")
        rep = hirzebruch_check(spec)
        if case == "general":
            assert rep.reason == (None if order is None else "positive characteristic coordinates")
        else:
            assert rep.reason == reasons[case]
        assert main_lower_bound(spec).applicable == (case != "general" or order is None)
        seen.add((case, order))
    assert len(seen) == 6


def _bound_and_ceiling(spec):
    """The case and value of the main bound, and its ceiling."""
    case, num, den = main_bound_case(spec.d, spec.s, lambda k: spec.t.get(k, 0))
    return case, Fraction(num, den), Fraction(*main_bound_ceiling(spec.d, spec.s))


def _random_rational_locus(rng):
    count, lines = rng.randint(3, 14), set()
    while len(lines) < count:
        c = [rng.randint(-3, 3) for _ in range(3)]
        if any(c):
            lines.add(ProjLine(Q, c))
    return spectrum_of(singular_points(CoordArrangement(sorted(lines, key=repr))))


def test_main_bound_never_exceeds_its_ceiling():
    # the removal search computes the main bound only where this ceiling
    # lies above its running best
    spectra = [KLEIN, WIMAN]
    spectra += [gen_kgon_mirror(k) for k in range(3, 13)]
    spectra += [catalog_entry("boroczky").build(k) for k in (6, 12, 18, 24)]
    for k in range(3, 31):
        for w in (1, 3, 9):
            with contextlib.suppress(NegarrError):
                spectra.append(catalog_entry("cubicgroup").build(k, w))
    rng = random.Random(29)
    spectra += [_random_rational_locus(rng) for _ in range(60)]
    spectra += [abstract_spectrum(*_random_complete_spectrum(rng)) for _ in range(400)]
    cases = set()
    for spec in spectra:
        case, bound, ceiling = _bound_and_ceiling(spec)
        assert bound <= ceiling, spec
        cases.add(case)
    assert cases == {"pencil", "quasi-pencil", "general"}


def test_main_bound_meets_its_ceiling_on_double_points_and_the_triangle():
    for r in range(3, 12):
        _, bound, ceiling = _bound_and_ceiling(spectrum_of(singular_points(gen_generic(r))))
        assert bound == ceiling
    assert _bound_and_ceiling(abstract_spectrum(3, {2: 3})) == ("quasi-pencil", -1, -1)


def test_main_lower_bound_stays_above_minus_four():
    items = [DUAL_HESSE, KLEIN, WIMAN,
             spectrum_of(singular_points(gen_fermat(6))),
             gen_kgon_mirror(30),
             catalog_entry("boroczky").build(36)]
    for sp in items:
        rep = main_lower_bound(sp)
        assert rep.applicable
        assert rep.bound_value > -4
        assert h_full(sp).h >= rep.bound_value


def test_main_lower_bound_positive_characteristic():
    fano = abstract_spectrum(7, {3: 7}, field_order=2)
    rep = main_lower_bound(fano)
    assert not rep.applicable
    assert rep.reason == "positive characteristic coordinates"


def test_real_identity_across_kgon_family():
    for k in range(3, 51):
        sp = gen_kgon_mirror(k)
        rep = real_identity_and_bound(sp)
        assert rep.applicable and rep.holds
        assert h_full(sp).h > Fraction(sp.d, sp.s) - 3


def test_real_identity_requires_real_nonpencil():
    assert not real_identity_and_bound(KLEIN).applicable
    pencil = spectrum_of(singular_points(gen_pencil(7)))
    assert not real_identity_and_bound(pencil).applicable
    ghost = abstract_spectrum(9, {3: 12}, real=True)
    rep = real_identity_and_bound(ghost)
    assert not rep.applicable and not rep.holds
    assert rep.reason == "Melchior inequality violated"


def test_certificate_battery():
    import negarr.cli

    assert negarr.cli.certificates_for is certificates_for
    kinds = ["hirzebruch", "melchior", "main_lower_bound", "real_lower_bound"]
    assert [c.kind for c in certificates_for(WIMAN)] == kinds
    fano = spectrum_of(singular_points(catalog_entry("pg2").build(2)))
    assert [c.kind for c in certificates_for(fano)] == kinds + ["index_bound"]
    ghost = abstract_spectrum(9, {3: 12}, real=True)
    assert certificates_for(ghost)[3] == real_identity_and_bound(ghost)


def test_mean_multiplicity_bound():
    eq = mean_multiplicity_bound(DUAL_HESSE)
    assert eq.ordering == EQUAL and eq.chain_holds
    lt = mean_multiplicity_bound(WIMAN)
    assert lt.ordering == LESS and lt.chain_holds
    assert lt.mbar == Fraction(240, 67)
    # complete loci never exceed the surd mean
    for sp in (KLEIN, gen_kgon_mirror(9), spectrum_of(singular_points(gen_generic(6)))):
        assert mean_multiplicity_bound(sp).chain_holds


def test_subconfig_formula_values():
    h = Fraction(-225, 67)
    assert subconfig_formula(h, 45, 44, 16, 201) == Fraction(-220, 67)
    assert subconfig_formula(h, 45, 43, 16, 201) == Fraction(-215, 67)
    for args, error, message in (
            ((45, 0, 16, 201), NegarrError, "^need 1 <= d' <= d, got d' = 0, d = 45$"),
            ((45, 46, 16, 201), NegarrError, "^need 1 <= d' <= d, got d' = 46, d = 45$"),
            ((45, 44, 0, 201), ValueError, "^points per line must be at least 1$"),
            ((45, 44, 16, 0), ValueError, "^s must be at least 1$")):
        with pytest.raises(error, match=message):
            subconfig_formula(h, *args)


def test_pair_removal_from_profile_wiman():
    rep = pair_removal_from_profile(WIMAN, 3)
    assert rep.over_original.h == Fraction(-215, 67)
    assert rep.over_new.h == Fraction(-161, 50)
    assert rep.new_spectrum.t == {2: 14, 3: 113, 4: 45, 5: 28}
    assert rep.new_spectrum.s == 200
    for m in (4, 5):
        r = pair_removal_from_profile(WIMAN, m)
        assert r.over_original.h == Fraction(-215, 67)
        assert r.over_new.h == Fraction(-215, 67)
        assert r.new_spectrum.s == 201
    with pytest.raises(NegarrError, match="^no point of multiplicity 2 in the spectrum$"):
        pair_removal_from_profile(WIMAN, 2)


def test_pair_removal_requires_profile():
    with pytest.raises(NegarrError, match="^spectrum carries no per-line profile$"):
        pair_removal_from_profile(abstract_spectrum(9, {3: 12}), 3)


def test_pair_removal_needs_four_lines():
    # removing two of three lines leaves one line and no singular point
    too_few = "^need at least four lines to remove two: one line left has no singular point$"
    for spec, m in ((abstract_spectrum(3, {3: 1}, profile={3: 1}), 3),
                    (abstract_spectrum(3, {2: 3}, profile={2: 2}), 2)):
        with pytest.raises(NegarrError, match=too_few):
            pair_removal_from_profile(spec, m)
    pencil = abstract_spectrum(4, {4: 1}, profile={4: 1})
    assert pair_removal_from_profile(pencil, 4).new_spectrum.t == {2: 1}


def test_pair_removal_counts_stay_nonnegative_up_to_twelve_lines():
    # d * profile[k] = k * t_k and the pair-count identity give
    # profile[k] (k - 1) <= d - 1: on every profiled spectrum with
    # 4 <= d <= 12, the pair through a point of each multiplicity m takes
    # from each k no more points than t_k holds
    calls = 0
    for d in range(4, 13):
        for t in _complete_spectra(d):
            if any(k * v % d for k, v in t.items()):
                continue
            spec = abstract_spectrum(d, t, profile={k: k * v // d for k, v in t.items()})
            for m in t:
                for k, tk in t.items():
                    meeting = int(k == m)
                    assert 0 <= 2 * (spec.profile[k] - meeting) <= tk - meeting, (spec, m)
                rep = pair_removal_from_profile(spec, m)
                # the s original points stay, none at a negative count
                assert (rep.over_original.d, rep.over_original.s) == (d - 2, spec.s)
                assert rep.new_spectrum.d == d - 2
                calls += 1
    assert calls == 102


def test_pair_removal_matches_direct_removal():
    # profile arithmetic must reproduce honest coordinate removal
    for n in (3, 4, 5):
        arr = gen_fermat(n)
        inc = singular_points(arr)
        sp = spectrum_of(inc)
        for key, members in inc.points:
            m = len(members)
            rep = pair_removal_from_profile(sp, m)
            pair = sorted(members)[:2]
            kept = remove_lines(inc, pair, KEEP_ORIGINAL_POINTS)
            assert h_quadratic(kept).h == rep.over_original.h
            restricted = remove_lines(inc, pair, RESTRICT_TO_NEW_SINGULAR)
            assert spectrum_of(restricted).t == rep.new_spectrum.t
            break  # one representative point per arrangement family


def test_wiman_pair_removal_wrapper():
    r3 = wiman_pair_removal(3)
    assert r3.meeting_multiplicity == 3
    assert r3.over_original.h == Fraction(-215, 67)
    assert r3.over_new.h == Fraction(-161, 50)
    assert wiman_pair_removal(4).over_new.h == Fraction(-215, 67)
    assert wiman_pair_removal(5).over_new.h == Fraction(-215, 67)
    with pytest.raises(NegarrError, match="^Wiman points have multiplicity 3, 4, or 5, not 2$"):
        wiman_pair_removal(2)
    with pytest.raises(NegarrError, match="^Wiman points have multiplicity 3, 4, or 5, not 6$"):
        wiman_pair_removal(6)


def test_finite_field_bound_fano():
    fano = abstract_spectrum(7, {3: 7}, field_order=2)
    rep = finite_field_bound(fano, 2)
    assert rep.applicable and rep.holds
    assert rep.slack == 1
    assert rep.note is not None  # full incidence attains h = -q
    with pytest.raises(ValueError, match="^field order must be an integer >= 2$"):
        finite_field_bound(fano, 1)


def test_finite_field_bound_exhaustive_over_fano():
    # every subarrangement of the seven-line full configuration stays above -q-1
    from negarr.catalog import gen_finite_field_full
    import itertools as it
    arr = gen_finite_field_full(2)
    inc = singular_points(arr)
    for size in range(1, 6):
        for combo in it.combinations(range(7), size):
            from negarr.errors import EmptyResult
            try:
                restricted = remove_lines(inc, combo, RESTRICT_TO_NEW_SINGULAR)
            except EmptyResult:
                continue
            sp = spectrum_of(restricted)
            assert h_full(sp).h > -3
            assert finite_field_bound(sp, 2).holds


def test_fattening_general_spectra():
    for sp in (WIMAN, KLEIN, gen_kgon_mirror(7)):
        base = h_full(sp).h
        assert h_fattened(sp, 4) == 16 * base


def _complete_spectra(d):
    """Every t with sum C(k,2) t_k = C(d,2): the count of each k-fold point
    from k = d down to 3, then double points for the pairs left."""
    def fill(k, pairs):
        if k == 2:
            yield {2: pairs} if pairs else {}
            return
        for v in range(pairs // comb(k, 2) + 1):
            for rest in fill(k - 1, pairs - v * comb(k, 2)):
                yield {k: v, **rest} if v else rest
    return fill(d, comb(d, 2))


def test_linear_certificates_on_every_complete_spectrum_up_to_twelve_lines():
    # the certificates read the sums a Spectrum keeps; here each slack is
    # summed over t from the inequality in its docstring
    count = 0
    for d in range(2, 13):
        for t in _complete_spectra(d):
            count += 1
            s, sum_m = sum(t.values()), sum(k * v for k, v in t.items())
            hirzebruch = (t.get(2, 0) + Fraction(3, 4) * t.get(3, 0)
                          - d - sum((k - 4) * v for k, v in t.items() if k >= 5))
            e = t.get(2, 0) - 3 - sum((k - 3) * v for k, v in t.items() if k > 3)
            real_bound = -3 + Fraction(e + 3, e + 3 + sum(
                (k - 2) * v for k, v in t.items() if k >= 3))
            general = not t.get(d) and not t.get(d - 1)
            for order, real in ((None, False), (5, False), (None, True)):
                spec = abstract_spectrum(d, t, real=real, field_order=order)
                hirz = hirzebruch_check(spec)
                assert (hirz.slack, hirz.holds) == (hirzebruch, hirzebruch >= 0), spec
                assert hirz.applicable == (general and order is None), spec
                mel = melchior_check(spec)
                assert (mel.slack, mel.e_slack, mel.holds) == (e, e, e >= 0), spec
                rep = real_identity_and_bound(spec)
                assert rep.applicable == (real and not t.get(d) and e >= 0), spec
                if rep.applicable:
                    h = Fraction(d - sum_m, s)
                    assert (rep.slack, rep.bound_value, rep.e_slack, rep.holds) == (
                        h - real_bound, real_bound, e, True), spec
                if general:
                    main = main_lower_bound(spec)
                    assert main.slack * s == hirz.slack, spec
                    assert (main.applicable, main.holds) == (hirz.applicable, hirz.holds), spec
    assert count == 2468


def test_main_lower_bound_degenerate_values_are_exact():
    # a point on d or d - 1 of the lines fixes H over any field (0 for a
    # pencil, -2 + 3/d for a quasi-pencil), so any other H is no arrangement's
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        d = rng.randint(3, 12)
        k = rng.choice((d, d - 1))
        pairs, t = comb(d, 2) - comb(k, 2), {k: 1}
        for _ in range(rng.randint(0, 3)):
            m = rng.randint(3, d)
            if comb(m, 2) <= pairs:
                t[m] = t.get(m, 0) + 1
                pairs -= comb(m, 2)
        if pairs:
            t[2] = t.get(2, 0) + pairs
        rep = main_lower_bound(abstract_spectrum(d, t, field_order=rng.choice((None, 5))))
        assert rep.applicable
        assert rep.holds == (rep.slack == 0)
        assert (rep.note is None) == rep.holds
        if t in ({d: 1}, {d - 1: 1, 2: d - 1}, {2: 3}):  # pencil, quasi-pencil, triangle
            assert rep.holds
        seen.add(rep.holds)
    assert seen == {True, False}
