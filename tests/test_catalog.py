from fractions import Fraction

import pytest

from negarr.arrangement import Spectrum, singular_points, spectrum_of
from negarr.catalog import (
    CATALOG,
    catalog_entry,
    gen_boroczky,
    gen_finite_field_full,
    gen_group_on_cubic,
    gen_kgon_mirror,
    gen_kgon_mirror_coords,
    gen_quasi_pencil,
)
from negarr.errors import NegarrError
from negarr.fields import RationalField
from negarr.negativity import h_full
from negarr.projective import ProjLine


def _spectrum_for(entry, params):
    obj = entry.build(*params)
    if isinstance(obj, Spectrum):
        return obj
    return spectrum_of(singular_points(obj))


def test_catalog_names():
    assert set(CATALOG) == {"generic", "pencil", "quasipencil", "fermat", "dualhesse",
                            "pg2", "kgon", "boroczky", "cubicgroup", "klein", "wiman"}
    with pytest.raises(NegarrError,
                       match="^unknown catalog name 'hesse_but_wrong'; known: generic, "):
        catalog_entry("hesse_but_wrong")


def test_expected_h_matches_computation():
    cases = [
        ("generic", (r,)) for r in range(3, 13)
    ] + [
        ("pencil", (d,)) for d in (2, 5, 11)
    ] + [
        ("quasipencil", (d,)) for d in (3, 5, 12)
    ] + [
        ("fermat", (n,)) for n in range(3, 9)
    ] + [
        ("dualhesse", ()),
        ("klein", ()),
        ("wiman", ()),
    ] + [
        ("pg2", (q,)) for q in (2, 3, 4, 5, 7, 8, 9)
    ] + [
        ("kgon", (k,)) for k in (3, 4, 7, 20)
    ] + [
        ("boroczky", (k,)) for k in (6, 12, 36)
    ] + [
        ("cubicgroup", p) for p in ((3, 3), (9, 3), (12, 3), (9, 9), (4, 1), (7, 1))
    ]
    for name, params in cases:
        entry = catalog_entry(name)
        sp = _spectrum_for(entry, params)
        assert h_full(sp).h == entry.expected_h(*params), (name, params)


def test_expected_spectra_match_computation():
    for name, params in [("generic", (5,)), ("fermat", (4,)), ("pg2", (3,))]:
        entry = catalog_entry(name)
        sp = _spectrum_for(entry, params)
        assert sp.t == entry.expected_spectrum(*params), (name, params)


# Two parameters for each catalog entry that takes any.
CLOSED_FORM_PARAMS = {
    "generic": [(4,), (7,)], "pencil": [(3,), (6,)], "quasipencil": [(4,), (7,)],
    "fermat": [(4,), (5,)], "dualhesse": [()], "pg2": [(2,), (4,)], "kgon": [(5,), (8,)],
    "boroczky": [(6,), (12,)], "cubicgroup": [(9, 3), (12, 3)], "klein": [()], "wiman": [()],
}


def test_every_entry_matches_its_closed_forms():
    assert set(CLOSED_FORM_PARAMS) == set(CATALOG)
    for name, cases in CLOSED_FORM_PARAMS.items():
        entry = CATALOG[name]
        for params in cases:
            sp = _spectrum_for(entry, params)
            assert sp.t == entry.expected_spectrum(*params), (name, params)
            assert h_full(sp).h == entry.expected_h(*params), (name, params)


# The parameters at which each spectrum entry's coordinate model is checked.
# A spectrum entry's expected_spectrum is its generator's own output, so only
# a coordinate model tests those closed forms independently.
COORDINATE_MODEL_PARAMS = {"kgon": [(4,)]}


def test_coordinate_models_match_closed_forms():
    modelled = {name for name, entry in CATALOG.items() if entry.coords is not None}
    assert modelled == set(COORDINATE_MODEL_PARAMS)
    for name, cases in COORDINATE_MODEL_PARAMS.items():
        entry = catalog_entry(name)
        for params in cases:
            sp = spectrum_of(singular_points(entry.coords(*params)))
            assert sp.t == entry.expected_spectrum(*params), (name, params)
            assert h_full(sp).h == entry.expected_h(*params), (name, params)


def test_quasi_pencil_lines():
    q = RationalField()
    for d in (3, 4, 7):
        expected = [ProjLine(q, (1, -i, 0)) for i in range(d - 2)]
        expected += [ProjLine(q, (0, 1, 0)), ProjLine(q, (0, 0, 1))]
        assert list(gen_quasi_pencil(d).lines) == expected
    with pytest.raises(NegarrError, match="^a quasi-pencil needs at least 3 lines$"):
        gen_quasi_pencil(2)


def test_fermat_merges_at_three():
    sp = _spectrum_for(catalog_entry("fermat"), (3,))
    assert sp.t == {3: 12}
    sp4 = _spectrum_for(catalog_entry("fermat"), (4,))
    assert sp4.t == {3: 16, 4: 3}


def test_dualhesse_equals_nine_nine_torsion():
    f3 = _spectrum_for(catalog_entry("fermat"), (3,))
    cg = gen_group_on_cubic(9, 9)
    assert f3.t == cg.t
    assert f3.s == cg.s == 12


def test_pg2_values():
    for q in (2, 3, 4, 5):
        sp = _spectrum_for(catalog_entry("pg2"), (q,))
        assert sp.t == {q + 1: q * q + q + 1}
        assert sp.d == q * q + q + 1
        assert h_full(sp).h == -q
        assert sp.field_order == q


def test_pg2_rejects_non_prime_powers():
    with pytest.raises(NegarrError, match="^6 is not a prime power$"):
        gen_finite_field_full(6)
    with pytest.raises(NegarrError, match="^10 is not a prime power$"):
        catalog_entry("pg2").expected_h(10)
    with pytest.raises(NegarrError, match="^1 is not a prime power$"):
        gen_finite_field_full(1)


def test_kgon_spectrum_and_coords():
    sp = gen_kgon_mirror(4)
    assert sp.t == {2: 4, 3: 6, 4: 1}
    assert sp.real and sp.complete
    arr = gen_kgon_mirror_coords(4)
    assert spectrum_of(singular_points(arr)).t == sp.t
    with pytest.raises(NegarrError, match="^rational coordinates are only provided for k = 4$"):
        catalog_entry("kgon").coords(5)
    with pytest.raises(NegarrError, match="^a polygon needs at least 3 sides$"):
        gen_kgon_mirror(2)


def test_kgon_merge_at_three():
    # k = 3: the center triple point merges with the C(3,2) count
    sp = gen_kgon_mirror(3)
    assert sp.t == {2: 3, 3: 4}
    assert sp.d == 6


def test_boroczky_counts():
    sp = gen_boroczky(6)
    assert sp.t == {2: 3, 3: 4}
    assert h_full(sp).h == Fraction(-12, 7)
    sp12 = gen_boroczky(12)
    assert sp12.t == {2: 9, 3: 19}
    with pytest.raises(NegarrError, match="^k must be a positive multiple of 6$"):
        gen_boroczky(8)
    with pytest.raises(NegarrError, match="^k must be a positive multiple of 6$"):
        gen_boroczky(0)


def test_boroczky_note_mentions_discrepancy():
    entry = catalog_entry("boroczky")
    assert entry.note is not None
    assert "-12/7" in entry.note


def test_cubicgroup_validation():
    with pytest.raises(NegarrError,
                       match=r"^t_3 = 17/3 is not an integer for \(k, w\) = \(7, 3\)$"):
        gen_group_on_cubic(7, 3)
    with pytest.raises(NegarrError, match="^torsion count w = 2 is impossible for group order 5$"):
        gen_group_on_cubic(5, 2)
    with pytest.raises(NegarrError, match="^torsion count w = 3 is impossible for group order 1$"):
        gen_group_on_cubic(1, 3)
    sp = gen_group_on_cubic(12, 3)
    assert sp.t[3] == 12 * 9 // 6 + 1
    assert not sp.real


def test_cubicgroup_closed_form():
    entry = catalog_entry("cubicgroup")
    for k, w in ((3, 3), (6, 3), (9, 3), (18, 9), (5, 1), (8, 1)):
        sp = gen_group_on_cubic(k, w)
        expect = -3 + Fraction(12 * k - 6 * w, k * k + 3 * k - 4 * w)
        assert h_full(sp).h == expect
        assert entry.expected_h(k, w) == expect


def test_klein_wiman_frozen():
    k = catalog_entry("klein").build()
    assert k.t == {3: 28, 4: 21}
    assert k.d == 21
    assert k.profile == {3: 4, 4: 4}
    w = catalog_entry("wiman").build()
    assert w.t == {3: 120, 4: 45, 5: 36}
    assert w.d == 45
    assert w.profile == {3: 8, 4: 4, 5: 4}
    assert not k.real and not w.real


def test_generic_size_guard():
    from negarr.catalog import gen_generic
    with pytest.raises(NegarrError, match="^generic position needs at least 2 lines$"):
        gen_generic(1)
    sp = spectrum_of(singular_points(gen_generic(6)))
    assert sp.t == {2: 15}


def test_entry_arity():
    assert catalog_entry("klein").arity == 0
    assert catalog_entry("fermat").arity == 1
    assert catalog_entry("cubicgroup").arity == 2


def test_fermat_real_flag_false():
    arr = catalog_entry("fermat").build(4)
    assert not arr.real


def test_pg2_field_tower():
    arr = gen_finite_field_full(9)
    assert arr.field.order == 9
    sp = spectrum_of(singular_points(arr))
    assert sp.t == {10: 91}
    assert h_full(sp).h == -9
