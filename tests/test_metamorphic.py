"""Metamorphic tests across the five meet paths: Q ints (RationalField),
GF(p) ints (PrimeField), Zech tables (_ZechField), fraction-free Z[x]/(f)
(_IntegralField) and the generic Field hooks (plain ExtensionField).

Three relations must leave the locus unchanged: a projective image of the
lines, a permutation of the lines, and reading the lines in a larger field,
which crosses from one meet path to another.  They run over every catalog
coordinate model and over one seeded random arrangement per meet path, and a
sign flip in the _cross of each of the four classes that have their own must
break them (in characteristic 2 a sign flip changes nothing).
"""

import random
import warnings

import pytest

from negarr.arrangement import CoordArrangement, singular_points, spectrum_of
from negarr.catalog import (
    _first_irreducible,
    catalog_entry,
    gen_fermat,
    gen_finite_field_full,
    gen_generic,
)
from negarr.errors import IdentityViolation, UnvalidatedModulusWarning
from negarr.fields import (
    ExtensionField,
    PrimeField,
    RationalField,
    _int_addmul,
    _int_det2,
    _int_reduce,
    _IntegralField,
    _primitive,
    _ZechField,
    cyclotomic_field,
    parse_field,
)
from negarr.negativity import certificates_for, h_full
from negarr.projective import ProjLine


def _read_in(arr, field, embed=None):
    """The lines of arr read in field, each coefficient c as itself or as
    embed(c)."""
    real = arr.real and field.order is None
    return CoordArrangement([ProjLine(field, [c if embed is None else embed(c)
                                              for c in line.coeffs])
                             for line in arr.lines], real=real)


def _gf4_unchecked():
    # assume_irreducible keeps GF(4) off the Zech tables: the generic path
    return ExtensionField(PrimeField(2), [1, 1, 1], assume_irreducible=True)


_INPUTS = {
    "generic12": (lambda: gen_generic(12), RationalField),
    "pg2-5": (lambda: gen_finite_field_full(5), PrimeField),
    "pg2-9": (lambda: gen_finite_field_full(9), _ZechField),
    "fermat5": (lambda: gen_fermat(5), _IntegralField),
    "pg2-4-generic": (lambda: _read_in(gen_finite_field_full(4), _gf4_unchecked()),
                      ExtensionField),
}


def _characteristic(field):
    while isinstance(field, ExtensionField):
        field = field.base
    return field.p if isinstance(field, PrimeField) else 0


def _locus(arr):
    """The spectrum of the singular locus and the member set of each point."""
    inc = singular_points(arr)
    return spectrum_of(inc), {members for _, members in inc.points}


def _invertible(rng, p):
    """A 3 x 3 int matrix, entries in [-3, 3], invertible modulo p (over
    the integers for p = 0)."""
    while True:
        (a, b, c), (d, e, f), (g, h, i) = m = [[rng.randint(-3, 3) for _ in range(3)]
                                               for _ in range(3)]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if (det % p if p else det):
            return m


def _image(arr, matrix):
    """Each line's coefficient vector times the matrix: a projective map of
    the dual plane, which keeps every concurrence."""
    return CoordArrangement([ProjLine(arr.field, [sum(m * c for m, c in zip(row, line.coeffs))
                                                  for row in matrix])
                             for line in arr.lines], real=arr.real)


def _permuted(arr, perm):
    """The arrangement whose line i is line perm[i] of arr."""
    return CoordArrangement([arr.lines[j] for j in perm], real=arr.real)


def _check_image(arr, rng):
    spec, members = _locus(arr)
    for _ in range(2):
        image_spec, image_members = _locus(_image(arr, _invertible(rng, _characteristic(arr.field))))
        assert image_spec == spec
        assert h_full(image_spec) == h_full(spec)
        assert certificates_for(image_spec) == certificates_for(spec)
        assert image_members == members


def _check_permutation(arr, rng):
    spec, members = _locus(arr)
    perm = list(range(arr.d))
    rng.shuffle(perm)
    at = {j: i for i, j in enumerate(perm)}
    permuted_spec, permuted_members = _locus(_permuted(arr, perm))
    assert permuted_spec == spec
    assert permuted_members == {frozenset(at[j] for j in s) for s in members}


def _check_embedding(arr, big, embed):
    spec, members = _locus(arr)
    big_spec, big_members = _locus(_read_in(arr, big, embed))
    assert (big_spec.d, big_spec.t, big_spec.profile) == (spec.d, spec.t, spec.profile)
    assert h_full(big_spec).h == h_full(spec).h
    assert big_members == members


@pytest.mark.parametrize("name", _INPUTS)
def test_projective_image_and_permutation_keep_the_locus(name):
    build, cls = _INPUTS[name]
    arr = build()
    assert type(arr.field) is cls
    rng = random.Random(name)
    _check_image(arr, rng)
    _check_permutation(arr, rng)


def _gf16_over_gf4():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        return ExtensionField(gf4, [gf4.gen().value, [1], [1]])  # y^2 + y + x


def _gf4_into_gf16():
    """GF(16) over GF(2) and the map a + b x of GF(4) to a + b w, for a root
    w of x^2 + x + 1 in it."""
    gf16 = ExtensionField(PrimeField(2), [1, 1, 0, 0, 1])  # x^4 + x + 1
    w = next(e for e in gf16.iter_elements() if e * e + e + 1 == 0)
    return gf16, lambda c: c.value[0] + c.value[1] * w


def test_embeddings_cross_meet_paths():
    gf25 = ExtensionField(PrimeField(5), [3, 0, 1])  # x^2 - 2
    gf16, embed = _gf4_into_gf16()
    tower = _gf16_over_gf4()
    half = parse_field("EXT Q [-1/2,0,1]")  # x^2 - 1/2: not integral
    cases = [
        (gen_finite_field_full(5), gf25, None),           # GF(p) ints against Zech
        (gen_generic(10), cyclotomic_field(5), None),     # Q ints against Bareiss
        (gen_generic(10), half, None),                    # Q ints against generic
        (gen_finite_field_full(4), tower, None),          # Zech against generic
        (gen_finite_field_full(4), gf16, embed),          # Zech against Zech
    ]
    assert [type(big) for _, big, _ in cases] == [_ZechField, _IntegralField, ExtensionField,
                                                  ExtensionField, _ZechField]
    for arr, big, embed in cases:
        _check_embedding(arr, big, embed)
    # the same GF(4) on two meet paths is one field, with one locus
    pg2_4 = gen_finite_field_full(4)
    unchecked = _read_in(pg2_4, _gf4_unchecked())
    assert type(pg2_4.field) is _ZechField and type(unchecked.field) is ExtensionField
    assert _locus(unchecked) == _locus(pg2_4)


def _zech_flipped(self, u, v):
    """_ZechField._cross with g^(c1 + a2) + g^(c2 + a1) in place of the
    difference for the second coordinate."""
    log, wrap = self._zlog, self._zwrap
    a1, b1, c1 = [log[r] for r in u]
    a2, b2, c2 = [log[r] for r in v]
    plus = wrap[wrap[c2 + a1] + self._zh]  # g^(e + h) = -g^e: _minus adds it
    return self._scaled(self._minus(wrap[b1 + c2], wrap[b2 + c1]),
                        self._minus(wrap[c1 + a2], plus),
                        self._minus(wrap[a1 + b2], wrap[a2 + b1]))


def _integral_flipped(self, u, v):
    """_IntegralField._cross with c1 a2 + c2 a1 for the second coordinate."""
    (a1, b1, c1), (a2, b2, c2) = u, v
    f = self._f
    second = _int_reduce(_int_addmul(_int_addmul([0] * (2 * len(a1) - 1), c1, a2), c2, a1), f)
    return self._scaled(_int_det2(b1, c2, b2, c1, f), second, _int_det2(a1, b2, a2, b1, f))


def _rational_flipped(self, u, v):
    """RationalField._cross with c1 a2 + c2 a1 for the second coordinate."""
    (a1, b1, c1), (a2, b2, c2) = u, v
    return _primitive(b1 * c2 - b2 * c1, c1 * a2 + c2 * a1, a1 * b2 - a2 * b1)


def _prime_flipped(self, u, v):
    """PrimeField._cross with c1 a2 + c2 a1 for the second coordinate."""
    (a1, b1, c1), (a2, b2, c2) = u, v
    p = self.p
    return self._canonical(((b1 * c2 - b2 * c1) % p, (c1 * a2 + c2 * a1) % p,
                            (a1 * b2 - a2 * b1) % p))


def _catalog_model(item):
    """The coordinate model of a catalog item such as pg2:4 or kgon:4."""
    name, _, params = item.partition(":")
    entry = catalog_entry(name)
    return (entry.coords or entry.build)(*(int(p) for p in params.split(",") if p))


@pytest.mark.parametrize("cls, mutant, name", [(_ZechField, _zech_flipped, "pg2-9"),
                                               (_IntegralField, _integral_flipped, "fermat5"),
                                               (RationalField, _rational_flipped, "kgon:4"),
                                               (PrimeField, _prime_flipped, "pg2-5")])
def test_a_sign_flip_in_a_meet_path_breaks_the_relations(cls, mutant, name, monkeypatch):
    # a broken meet shows as a changed locus, a pair count that the member
    # sets no longer meet, or a zero cross product of two distinct lines;
    # over Q the input needs concurrent lines (generic position hides it)
    arr = _INPUTS[name][0]() if name in _INPUTS else _catalog_model(name)
    monkeypatch.setattr(cls, "_cross", mutant)
    rng = random.Random(name)
    for check in (lambda: _check_image(arr, rng), lambda: _check_permutation(arr, rng)):
        with pytest.raises((AssertionError, IdentityViolation, ValueError)):
            check()



def _root_map(small, big, root):
    """The embedding of small = F[x]/(f) in big that sends x to root, a root
    of f in big, or to the first root among the elements of big when root
    is None."""
    def at(coeffs, x):
        return sum((c * x ** j for j, c in enumerate(coeffs)), big.zero)
    if root is None:
        root = next(e for e in big.iter_elements() if not at(small.modulus, e))
    assert not at(small.modulus, root)
    return lambda c: at(c.value, root)


def _check_relations(arr, rng, big, root):
    """All three relations; root (see _root_map) embeds an extension field,
    while a prime field or Q coerces into big (root is not read)."""
    _check_image(arr, rng)
    _check_permutation(arr, rng)
    embed = _root_map(arr.field, big, root) if isinstance(arr.field, ExtensionField) else None
    _check_embedding(arr, big, embed)


# every catalog coordinate model: its field class, a larger field, and for
# a cyclotomic field the image there of a root of its modulus (a finite
# field's is found by _root_map)
_MODELS = {
    "generic:8": (RationalField, lambda: cyclotomic_field(5), None),
    "pencil:6": (RationalField, lambda: parse_field("EXT Q [-1/2,0,1]"), None),
    "quasipencil:6": (RationalField, lambda: cyclotomic_field(3), None),
    "kgon:4": (RationalField, lambda: cyclotomic_field(4), None),
    "fermat:4": (_IntegralField, lambda: cyclotomic_field(8), lambda big: big.gen() ** 2),
    "dualhesse": (_IntegralField, lambda: cyclotomic_field(12), lambda big: big.gen() ** 4),
    "pg2:3": (PrimeField, lambda: ExtensionField(PrimeField(3), [1, 0, 1]), None),
    "pg2:4": (_ZechField, lambda: ExtensionField(PrimeField(2), [1, 1, 0, 0, 1]), None),
}


@pytest.mark.parametrize("item", _MODELS)
def test_relations_over_the_catalog_coordinate_models(item):
    cls, build_big, root = _MODELS[item]
    arr, big = _catalog_model(item), build_big()
    assert type(arr.field) is cls
    _check_relations(arr, random.Random(item), big, root and root(big))


def _random_arrangement(field, pool, d, rng):
    """d distinct lines with coefficients drawn from pool: a small pool makes
    concurrent lines likely."""
    lines = {}
    while len(lines) < d:
        coeffs = [rng.choice(pool) for _ in range(3)]
        if any(coeffs):
            lines.setdefault(ProjLine(field, coeffs), None)
    return CoordArrangement(list(lines), real=False)


def _cyclotomic_pool(n):
    z = cyclotomic_field(n).gen()
    return [0, 1, -1, z, -z, z * z]


# a seeded random arrangement on each meet path: its field, the coefficient
# pool (by default every element), the line count, a larger field, and the
# root as in _MODELS
_RANDOM = {
    "q": (RationalField, lambda: range(-2, 3), 10, lambda: cyclotomic_field(7), None),
    "gf7": (lambda: PrimeField(7), None, 14,
            lambda: ExtensionField(PrimeField(7), [1, 0, 1]), None),
    "gf9": (lambda: gen_finite_field_full(9).field, None, 14,
            lambda: ExtensionField(PrimeField(3), _first_irreducible(3, 4)), None),
    "cyclo5": (lambda: cyclotomic_field(5), lambda: _cyclotomic_pool(5), 10,
               lambda: cyclotomic_field(10), lambda big: big.gen() ** 2),
    "gf4-generic": (_gf4_unchecked, None, 10, lambda: _gf4_into_gf16()[0], None),
}


@pytest.mark.parametrize("name", _RANDOM)
def test_relations_over_random_arrangements(name):
    build, pool, d, build_big, root = _RANDOM[name]
    field, big = build(), build_big()
    rng = random.Random(name)
    arr = _random_arrangement(field, list(pool() if pool else field.iter_elements()), d, rng)
    assert any(len(m) > 2 for _, m in singular_points(arr).points)
    _check_relations(arr, rng, big, root and root(big))


def test_the_random_arrangements_cover_the_five_meet_paths():
    assert sorted(type(build()).__name__ for build, *_ in _RANDOM.values()) == \
        ["ExtensionField", "PrimeField", "RationalField", "_IntegralField", "_ZechField"]
