import itertools
import math
import operator
import random
import re
import time
import warnings
from fractions import Fraction

import pytest

from negarr.cli import parse_input
from negarr.errors import DivisionByZero, NegarrError, UnvalidatedModulusWarning
from negarr.fields import (
    EQUAL,
    GREATER,
    LESS,
    ZECH_MAX_ORDER,
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    RationalField,
    compare_with_surd_mean,
    cyclotomic_field,
    cyclotomic_polynomial,
    is_irreducible_mod_p,
    is_prime,
    parse_field,
    prime_power,
)
from negarr.fields import (
    _has_rational_root,
    _int_addmul,
    _int_reduce,
    _IntegralField,
    _pdivmod,
    _pinv_mod,
    _pmul,
    _primitive,
    _ZechField,
)
from negarr.projective import ProjLine

Q = RationalField()


def _sample_fields():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        return [
            Q,
            PrimeField(2),
            PrimeField(7),
            gf4,
            ExtensionField(gf4, [gf4.gen().value, [1], [1]]),  # GF(16) over GF(4)
            cyclotomic_field(3),
            cyclotomic_field(5),
        ]


def _random_element(field, rng):
    if isinstance(field, RationalField):
        return field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if isinstance(field, PrimeField):
        return field.element(rng.randrange(field.p))
    reps = [_random_element(field.base, rng).value for _ in range(field.degree)]
    return field.element(reps)


def test_field_axioms_random():
    rng = random.Random(20240601)
    for field in _sample_fields():
        zero, one = field.zero, field.one
        for _ in range(40):
            a = _random_element(field, rng)
            b = _random_element(field, rng)
            c = _random_element(field, rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            assert a - b == a + (-b)
            if b != zero:
                assert (a / b) * b == a
                assert b * b ** -1 == one


def test_pow_and_bool():
    gf7 = PrimeField(7)
    a = gf7.element(3)
    assert a ** 0 == gf7.one
    assert a ** 6 == gf7.one
    assert a ** -2 == (a * a) ** -1
    assert bool(gf7.zero) is False
    assert bool(a) is True
    # a float exponent is refused before the loop reads it
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*\* or pow\(\)"):
        Q.element(2) ** 0.5


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero
    with pytest.raises(DivisionByZero):
        PrimeField(5).element(0) ** -1


def test_mixed_field_arithmetic_rejected():
    a = Q.element(1)
    b = PrimeField(7).element(1)
    with pytest.raises(NegarrError, match=r"^cannot mix Q and GF\(7\)$"):
        a + b
    with pytest.raises(NegarrError, match=r"^cannot mix GF\(7\) and Q$"):
        b * a


# one nonzero element of Q, GF(7), GF(9) and Q(zeta_3)
_OPERANDS = {"Q": Q.element(Fraction(3, 2)), "GF7": PrimeField(7).element(3),
             "GF9": ExtensionField(PrimeField(3), [1, 0, 1]).gen() + 1,
             "Qzeta3": cyclotomic_field(3).gen()}


@pytest.mark.parametrize("a", _OPERANDS.values(), ids=_OPERANDS)
def test_operators_share_one_operand_rule(a):
    for op, k in ((operator.add, 3), (operator.sub, 3), (operator.mul, 2), (operator.truediv, 1)):
        # neither operand order accepts a value that is no int, Fraction or element
        for other in ("x", 1.5):
            with pytest.raises(TypeError):
                op(a, other)
            with pytest.raises(TypeError):
                op(other, a)
        # an int on the left is coerced as on the right
        assert op(k, a) == op(a.field.element(k), a)
    with pytest.raises(DivisionByZero):
        1 / a.field.zero


def test_coerce_rep_rejects_foreign_values():
    gf7, gf9 = _OPERANDS["GF7"].field, _OPERANDS["GF9"].field
    for field, foreign, noun in ((Q, PrimeField(3).one, "a rational"),
                                 (gf7, Q.one, f"an element of {gf7}"),
                                 (gf9, gf7.one, f"an element of {gf9}")):
        for value, error, message in (
                (foreign, NegarrError, f"cannot place 1 of {foreign.field} into {field}"),
                ("1", TypeError, f"cannot interpret '1' as {noun}")):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                field.element(value)


def test_distinct_constructions_are_unequal():
    for a, b in [("Q", "GF 2"), ("GF 2", "GF 3"), ("EXT Q [1,1,1]", "EXT (GF 2) [1,1,1]"),
                 ("EXT (GF 2) [1,1,1]", "EXT (GF 2) [1,1,0,1]")]:
        fa, fb = parse_field(a), parse_field(b)
        assert fa != fb
        with pytest.raises(NegarrError, match=f"^{re.escape(f'cannot mix {fa} and {fb}')}$"):
            fa.one + fb.one


def test_independently_built_equal_fields_interoperate():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        tower = ExtensionField(gf4, [gf4.gen().value, [1], [1]])
        parsed = parse_field(tower.describe())
    for a, b in [(cyclotomic_field(3), ExtensionField(Q, [1, 1, 1])), (tower, parsed)]:
        assert a is not b
        assert a == b and hash(a) == hash(b)
        x, y = a.gen(), b.gen()
        assert x - y == a.zero
        assert x * y == b.gen() ** 2
        assert (x + 1) / (y + 1) == b.one


def test_int_and_fraction_coercion():
    assert Q.element(Fraction(1, 2)) == Fraction(1, 2)
    assert Q.element(2) + 1 == 3
    gf7 = PrimeField(7)
    assert gf7.element(3) == 10
    assert gf7.element(3) + 5 == gf7.element(1)
    # Fraction coerces through modular inverse of the denominator
    assert gf7.element(1) / gf7.element(2) == Fraction(1, 2)
    # equality reads a value that does not coerce as unequal, and leaves
    # any other type to the other operand
    gf3 = PrimeField(3)
    assert (gf3.element(1) == Fraction(1, 3)) is False
    assert (gf3.element(1) == "1") is False


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    with pytest.raises(NegarrError, match="^6 is not prime$"):
        PrimeField(6)


def test_is_prime_agrees_with_a_sieve():
    limit = 10 ** 5
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, int(limit ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(sieve[n * n::n])
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_large_inputs():
    # strong pseudoprimes to the bases 2; 2, 3; 2..7; 2..37
    for n in (2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(10 ** 15 + 37)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(10 ** 30 + 57)
    assert not is_prime(10 ** 30)  # even: the divisions answer before the bound
    assert not is_prime(3 * (10 ** 30 + 57))


def _prime_power_by_trial_division(q):
    if q < 2:
        return None
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def test_prime_power_agrees_with_trial_division():
    assert [prime_power(q) for q in range(-3, 5000)] == \
        [_prime_power_by_trial_division(q) for q in range(-3, 5000)]


def test_prime_power_large_inputs():
    start = time.process_time()
    assert prime_power(10 ** 14) is None
    assert prime_power(10 ** 15 + 37) == (10 ** 15 + 37, 1)
    assert prime_power((2 ** 31 - 1) ** 3) == (2 ** 31 - 1, 3)
    assert prime_power(3 ** 40) == (3, 40)
    assert prime_power(6 ** 20) is None
    assert prime_power(2 ** 200) == (2, 200)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        prime_power(10 ** 30 + 57)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        prime_power(10 ** 1000 + 9)  # no perfect power, no small factor: the bound decides
    # a small factor answers at any size: 17 divides 10^1000 + 1, and 25
    # divides the composite below, which is no perfect power
    assert prime_power(10 ** 1000 + 1) is None
    assert prime_power(247588007511199603758832025575) is None
    assert time.process_time() - start < 1


def _moebius(n):
    result, f = 1, 2
    while n > 1:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    return result


def test_irreducible_counts_match_gauss():
    # monic irreducibles of degree n over GF(p): (1/n) sum_{d | n} mu(d) p^(n/d)
    for p, degrees in ((2, range(1, 7)), (3, range(1, 5)), (5, range(1, 4))):
        field = PrimeField(p)
        for n in degrees:
            count = sum(is_irreducible_mod_p(field, tail + (1,))
                        for tail in itertools.product(range(p), repeat=n))
            expected = sum(_moebius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
            assert count * n == expected, (p, n)


def test_high_degree_modulus_over_large_prime():
    # the exhaustive factor search this replaces did not finish in 20 s
    f = ExtensionField(PrimeField(101), [14, 3, 39, 49, 43, 53, 24, 33, 1])
    assert f.gen() ** (101 ** 8 - 1) == f.one
    with pytest.raises(NegarrError, match=r"^\[0,3,39,49,43,53,24,33,1\] factors over GF\(101\)$"):
        ExtensionField(PrimeField(101), [0, 3, 39, 49, 43, 53, 24, 33, 1])  # root 0


def test_prime_field_iteration_and_order():
    gf5 = PrimeField(5)
    assert gf5.order == 5
    assert sorted(e.value for e in gf5.iter_elements()) == [0, 1, 2, 3, 4]
    assert Q.order is None
    with pytest.raises(NotImplementedError, match="^field is not finite$"):
        list(Q.iter_elements())


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError, match="^n must be positive$"):
        cyclotomic_polynomial(0)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_product_identity():
    # the product of Phi_e over divisors e of n is x^n - 1
    for n in range(1, 31):
        prod = [1]
        for e in range(1, n + 1):
            if n % e == 0:
                prod = _poly_mul(prod, list(cyclotomic_polynomial(e)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected, n


def test_primitive_root_orders():
    for n in range(3, 25):
        field = cyclotomic_field(n)
        zeta = field.gen()
        powers = [zeta ** m for m in range(1, n + 1)]
        assert powers[-1] == field.one
        for m in range(1, n):
            assert powers[m - 1] != field.one, (n, m)


def test_reducible_modulus_rejected():
    with pytest.raises(NegarrError, match=r"^\[1,0,1\] factors over GF\(2\)$"):
        ExtensionField(PrimeField(2), [1, 0, 1])  # (x+1)^2
    with pytest.raises(NegarrError, match=r"^\[2,0,1\] factors over GF\(3\)$"):
        ExtensionField(PrimeField(3), [2, 0, 1])  # x^2 - 1
    with pytest.raises(NegarrError, match=r"^\[-1,0,1\] has a rational root$"):
        ExtensionField(Q, [-1, 0, 1])
    with pytest.raises(NegarrError, match=r"^\[1,1,1,1\] has a rational root$"):
        ExtensionField(Q, [1, 1, 1, 1])  # root at -1


def test_non_monic_and_degree_rejected():
    with pytest.raises(ValueError):
        ExtensionField(Q, [1, 1, 2])
    with pytest.raises(ValueError):
        ExtensionField(Q, [1, 1])


def test_unvalidated_modulus_warns():
    with pytest.warns(UnvalidatedModulusWarning):
        f = ExtensionField(Q, [1, 0, 0, 0, 1])  # x^4 + 1
    assert not f.modulus_validated
    # the precomputed table is trusted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = cyclotomic_field(8)
    assert g.modulus == (1, 0, 0, 0, 1)


def test_rational_root_screen_catches_deep_roots():
    with pytest.raises(NegarrError, match=r"^\[4,0,-5,0,1\] has a rational root$"):
        ExtensionField(Q, [4, 0, -5, 0, 1])  # roots 1, -1, 2, -2
    # fractional root 1/2 needs denominator clearing to be found
    with pytest.raises(NegarrError, match=r"^\[-1/2,1/2,1/2,1\] has a rational root$"):
        ExtensionField(Q, [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), 1])
    # degree 3 with no rational root is irreducible outright, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = ExtensionField(Q, [Fraction(-1, 2), 0, 0, 1])
    assert f.modulus_validated


def _rational_root_by_divisors(coeffs):
    """Reference: try every p/q with p | a_0 and q | a_n, by trial division."""
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * denom) for c in coeffs]
    if ints[0] == 0:
        return True

    def divisors(n):
        n = abs(n)
        return [f for f in range(1, math.isqrt(n) + 1) if n % f == 0] + \
               [n // f for f in range(1, math.isqrt(n) + 1) if n % f == 0]

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    return True
    return False


def _random_rational_poly(rng, degree):
    """Random coefficients, or a product of random factors of degree 1-3, some
    squared, so that rational roots, repeated factors and fractional roots
    are common."""
    def coef():
        return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 6)))

    if rng.random() < 0.5:
        return [coef() for _ in range(degree)] + [Fraction(rng.randint(1, 6), rng.randint(1, 4))]
    poly = [Fraction(rng.randint(1, 5))]
    while len(poly) <= degree:
        left = degree + 1 - len(poly)
        k = min(rng.choice((1, 1, 2, 3)), left)
        factor = [coef() for _ in range(k)] + [Fraction(rng.randint(1, 5))]
        if 2 * k <= left and rng.random() < 0.2:
            factor = _poly_mul(factor, factor)
        poly = _poly_mul(poly, factor)
    return poly


def test_rational_root_screen_agrees_with_divisor_test():
    rng = random.Random(20140)
    found = 0
    for _ in range(500):
        coeffs = _random_rational_poly(rng, rng.randint(2, 5))
        if coeffs[0] == 0 and rng.random() < 0.8:
            coeffs[0] = Fraction(rng.randint(1, 9))
        expected = _rational_root_by_divisors(coeffs)
        found += expected
        assert _has_rational_root(coeffs) == expected, coeffs
    assert 60 < found < 440  # both outcomes are well represented


def test_rational_root_screen_large_coefficients():
    # CPU time of this process, so load from other processes does not count;
    # the screen takes well under a millisecond per modulus
    start = time.process_time()
    f = ExtensionField(Q, [1000000000000037, 0, 1])  # trial division took 5 s
    g = ExtensionField(Q, [10 ** 17 + 3, 0, 1])  # and 47 s
    assert time.process_time() - start < 1
    assert f.modulus_validated and g.modulus_validated
    with pytest.raises(NegarrError, match=r"^\[-10000001400000049,0,1\] has a rational root$"):
        ExtensionField(Q, [-(10 ** 8 + 7) ** 2, 0, 1])
    # degree 4: (x - (10^12 + 39)/7)(x^3 + 2), made monic
    root = Fraction(10 ** 12 + 39, 7)
    with pytest.raises(NegarrError, match=r"^\[-2000000000078/7,2,0,-1000000000039/7,1\] "
                                          "has a rational root$"):
        ExtensionField(Q, [-2 * root, 2, 0, -root, 1])
    assert not _has_rational_root([10 ** 30 + 57, 3, 0, 1])


def test_tower_field_frobenius():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    g = gf4.gen()
    # x^2 + x + g is irreducible over GF(4): y^2 + y only hits {0, 1}
    with pytest.warns(UnvalidatedModulusWarning):
        gf16 = ExtensionField(gf4, [g.value, [1], [1]])
    assert gf16.order == 16
    rng = random.Random(7)
    for _ in range(10):
        z = _random_element(gf16, rng)
        assert z ** 16 == z
    nonzero = [e for e in gf16.iter_elements() if e]
    assert len(nonzero) == 15
    for e in nonzero[:5]:
        assert e ** 15 == gf16.one


def test_gf4_cube_is_identity():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    for e in gf4.iter_elements():
        if e:
            assert e ** 3 == gf4.one
    assert gf4.order == 4


def test_extension_field_edges():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    assert gf4.element([0, 0, 1]) == gf4.element([1, 1])  # x^2 = x + 1
    assert gf4.element([1, 0, 1, 1]) == gf4.element([1, 1])  # x^3 = 1
    for n in (1, 2):
        assert isinstance(cyclotomic_field(n), RationalField)
    z3 = cyclotomic_field(3)  # x^2 + x + 1
    x = z3.gen()
    assert 1 - x == z3.element([1, -1])
    assert 1 / x == x * x == z3.element([-1, -1])
    assert 1 / gf4.gen() == gf4.element([1, 1])


# Polynomial rings over Q, GF(7) and GF(4), whose coefficients are GF(4) reps.
_POLY_FIELDS = {"Q": Q, "GF7": PrimeField(7), "GF4": ExtensionField(PrimeField(2), [1, 1, 1])}


def _trimmed(field, c):
    c = list(c)
    while c and field._is_zero(c[-1]):
        c.pop()
    return c


def _poly_sum(field, a, b):
    pairs = itertools.zip_longest(a, b, fillvalue=field._zero)
    return _trimmed(field, [field._add(x, y) for x, y in pairs])


def _random_poly(field, rng):
    """Up to six random coefficients, then up to two trailing zeros."""
    zero = field._zero
    return ([_random_element(field, rng).value for _ in range(rng.randint(0, 6))]
            + [zero] * rng.randint(0, 2))


@pytest.mark.parametrize("field", _POLY_FIELDS.values(), ids=_POLY_FIELDS)
def test_polynomial_division_and_inverse_properties(field):
    rng = random.Random(19)
    for _ in range(300):
        n, d = _random_poly(field, rng), _random_poly(field, rng)
        saved = (list(n), list(d))
        if not _trimmed(field, d):
            with pytest.raises(DivisionByZero):
                _pdivmod(field, n, d)
            continue
        q, r = _pdivmod(field, n, d)
        assert (n, d) == saved
        assert _pdivmod(field, tuple(n), tuple(d)) == (q, r)
        assert q == _trimmed(field, q) and r == _trimmed(field, r)
        assert len(r) < len(_trimmed(field, d))
        assert _poly_sum(field, _pmul(field, q, d), r) == _trimmed(field, n)
        # u n = g modulo d, where g divides both n and d
        g, u = _pinv_mod(field, n, d)
        assert (n, d) == saved
        assert _pinv_mod(field, tuple(n), tuple(d)) == (g, u)
        assert g == _trimmed(field, g) and u == _trimmed(field, u)
        assert _pdivmod(field, _pmul(field, u, n), d)[1] == _pdivmod(field, g, d)[1]
        assert _pdivmod(field, n, g)[1] == _pdivmod(field, d, g)[1] == []



def _extension_paths():
    """One extension field per class of meet path, and both generic ones."""
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        return {
            "zech-gf9": (parse_field("EXT (GF 3) [1,0,1]"), _ZechField),
            "cyclo12": (cyclotomic_field(12), _IntegralField),
            "generic-gf289": (parse_field("EXT (GF 17) [3,0,1]"), ExtensionField),
            "q-half": (parse_field("EXT Q [-1/2,0,1]"), ExtensionField),
            "tower-gf16": (ExtensionField(gf4, [gf4.gen().value, [1], [1]]), ExtensionField),
        }


_EXTENSION_PATHS = _extension_paths()


@pytest.mark.parametrize("field, cls", _EXTENSION_PATHS.values(), ids=_EXTENSION_PATHS)
def test_vector_coercion_and_zero_test_agree(field, cls):
    # every vector reaches a rep through _reduce, whatever its length, and
    # _is_zero reads the one zero rep the field keeps
    assert type(field) is cls
    base, x, rng = field.base, field.gen(), random.Random(2026)
    base_zero = base._zero
    for length in range(2 * field.degree + 1):
        for _ in range(12):
            v = [base_zero if rng.random() < 0.3 else _random_element(base, rng).value
                 for _ in range(length)]
            rep = field._coerce_rep(v)
            expected = field.zero
            for i, c in enumerate(v):
                expected = expected + field.element(FieldElement(base, c)) * x ** i
            assert rep == expected.value and len(rep) == field.degree
            if length <= field.degree:
                assert rep == tuple(v) + (base_zero,) * (field.degree - length)
            a = _random_element(field, rng)
            for r in (rep, (a - a).value, a.value):
                assert field._is_zero(r) == all(base._is_zero(c) for c in r)
    assert field._is_zero(field._coerce_rep([]))


# Q, GF(7) and the extension fields above
_CONSTANT_FIELDS = {"q": (Q, RationalField), "gf7": (PrimeField(7), PrimeField),
                    **_EXTENSION_PATHS}


@pytest.mark.parametrize("field, cls", _CONSTANT_FIELDS.values(), ids=_CONSTANT_FIELDS)
def test_every_field_keeps_its_zero_and_one(field, cls):
    # zero and one wrap the reps the field built once, and the one _is_zero
    # body compares with that zero; over an extension it agrees with the
    # base's test entry by entry
    assert type(field) is cls
    assert field.zero == field.element(0) and field.one == field.element(1)
    assert field.zero.value is field._zero and field.one.value is field._one
    rng = random.Random(32)
    samples = [_random_element(field, rng) for _ in range(20)]
    for r in [field._zero, field._one, *(a.value for a in samples),
              *((a - a).value for a in samples)]:
        if isinstance(field, ExtensionField):
            expected = all(field.base._is_zero(c) for c in r)
        else:
            expected = r == 0
        assert field._is_zero(r) is expected


@pytest.mark.parametrize("name", ["generic-gf289", "q-half", "tower-gf16"])
def test_generic_products_and_inverses_coerce_no_base_constant(name, monkeypatch):
    # _pmul and _pinv_mod read the base's _zero and _one
    field = _EXTENSION_PATHS[name][0]
    assert type(field) is ExtensionField
    a, b = field.gen() + 2, field.gen() * 3 + 1
    calls, coerce = [], type(field.base)._coerce_rep
    monkeypatch.setattr(type(field.base), "_coerce_rep",
                        lambda self, v: calls.append(v) or coerce(self, v))
    product = a * b
    assert calls == []
    inverse = a.inverse()
    assert calls == []
    assert product / b == a and inverse * a == field.one


def test_field_descriptions():
    assert Q.describe() == "Q"
    assert PrimeField(7).describe() == "GF 7"
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    assert gf4.describe() == "EXT (GF 2) [1,1,1]"
    assert cyclotomic_field(3).describe() == "EXT Q [1,1,1]"


def test_surd_mean_examples():
    assert compare_with_surd_mean(Fraction(3), Fraction(6)) == EQUAL
    assert compare_with_surd_mean(Fraction(2), Fraction(6)) == LESS
    assert compare_with_surd_mean(Fraction(3), Fraction(35, 6)) == GREATER
    assert compare_with_surd_mean(Fraction(0), Fraction(0)) == LESS
    assert compare_with_surd_mean(Fraction(1), Fraction(0)) == EQUAL
    with pytest.raises(NegarrError, match="^c = -1/4 is negative$"):
        compare_with_surd_mean(Fraction(1), Fraction(-1, 4))


def test_surd_mean_random_against_quadratic_sign():
    # x < (1 + sqrt(1+4c))/2 iff 2x <= 1 or x^2 - x - c < 0
    rng = random.Random(11)
    for _ in range(1000):
        x = Fraction(rng.randint(-40, 80), rng.randint(1, 20))
        c = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        got = compare_with_surd_mean(x, c)
        poly = x * x - x - c
        if 2 * x <= 1:
            assert got == LESS
        elif poly == 0:
            assert got == EQUAL
        else:
            assert got == (LESS if poly < 0 else GREATER)


def test_grammar_round_trip():
    rng = random.Random(31)
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        tower = ExtensionField(gf4, [gf4.gen().value, [1], [1]])
        fields = _sample_fields() + [PrimeField(101), cyclotomic_field(12), tower]
        for field in fields:
            assert parse_field(field.describe()) == field
            assert hash(parse_field(field.describe())) == hash(field)
            for _ in range(20):
                v = _random_element(field, rng).value
                assert field.parse_rep(field.format_rep(v)) == v
    assert parse_field(" EXT( GF 2 )[ 1, 1,1 ] ") == gf4
    assert tower.parse_rep("[ [0,1] , [1] ]") == tower.element([[0, 1], [1]]).value


# Fraction's literal grammar beyond [+-]?[0-9]+, and integers that int() and
# Fraction() both read; "1_0" is rejected by Fraction before Python 3.11 and
# accepted by int, and "\u0663" is an Arabic-Indic three
_LITERAL_EDGES = ("1_0", "\u0663", "+3", "-0", "007", "3/6", "0.5", "1e2", "1/0", " 1")


def _fraction_outcome(token):
    """What parse_rep must give for a token: Fraction(token), or the
    ValueError message it raises (a zero denominator in parse_rep's words)."""
    try:
        return Fraction(token)
    except ValueError as exc:
        return str(exc)
    except ZeroDivisionError:
        return f"zero denominator in {token!r}"


@pytest.mark.parametrize("token", _LITERAL_EDGES)
def test_rational_literals_parse_as_fraction_does(token):
    expected = _fraction_outcome(token)
    integral = cyclotomic_field(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        ext = parse_field("EXT Q [-1/2,0,1]")
    parsers = [Q.parse_rep] + [lambda t, f=f: f.parse_rep(f"[{t},1]")[0] for f in (integral, ext)]
    for parse in parsers:
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                parse(token)
            assert str(info.value) == expected
        else:
            got = parse(token)
            assert type(got) is Fraction and got == expected
    if token.strip() != token:
        return  # a file row splits at whitespace
    text = f"field Q\nline {token} 1 0\n"
    if isinstance(expected, str):
        with pytest.raises(NegarrError) as info:
            parse_input(text)
        assert str(info.value) == f"bad element literal {token!r} for Q: {expected}"
    else:
        assert parse_input(text).arrangement.lines == (ProjLine(Q, (expected, 1, 0)),)


def test_repr_round_trip_is_stable():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    e = gf4.element([1, 1])
    assert repr(e) == "[1,1]"
    assert repr(Q.element(Fraction(-3, 7))) == "-3/7"
    assert repr(PrimeField(5).element(9)) == "4"


def _kernel_fields():
    out = {f"gf{p ** (len(modulus) - 1)}": ExtensionField(PrimeField(p), modulus)
           for p, modulus in ((2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1]),
                              (5, [3, 0, 1]), (3, [1, 2, 0, 1]))}
    out.update((f"cyclo{n}", cyclotomic_field(n)) for n in (3, 5, 7, 12))
    out["cube-root-2"] = parse_field("EXT Q [-2,0,0,1]")
    return out


_KERNEL_FIELDS = _kernel_fields()


def _stores_ints(field):
    """Whether the field stores primitive int triples: Q, and Q[x]/(f) with
    f integral."""
    return field == Q or isinstance(field, _IntegralField)


_STORED_INT_FIELDS = [field for field in (Q, *_KERNEL_FIELDS.values()) if _stores_ints(field)]
# Q and GF(p) meet on ints of their own; 10^19 + 51 is prime and below the
# bound of the primality proof
_INT_FIELDS = {**_KERNEL_FIELDS, "q": Q,
               **{f"gf{p}": PrimeField(p) for p in (2, 3, 13, 10007, 10**19 + 51)}}


def _outcome(fn, *args):
    """fn(*args) with the type of every coefficient, or the error it raises."""
    try:
        reps = fn(*args)
    except (ValueError, NegarrError) as exc:
        return type(exc), str(exc)
    return reps, [type(c) for r in reps for c in (r if isinstance(r, tuple) else (r,))]


def _sparse_triple(field, rng):
    """Three random reps with about half their coefficients zero, so zero
    pivots, zero entries and proportional pairs all occur."""
    base = field.base if isinstance(field, ExtensionField) else field

    def coefficient():
        if rng.random() < 0.5:
            return 0
        if isinstance(base, PrimeField):
            return rng.randrange(base.p)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if base is field:
        return tuple(field._coerce_rep(coefficient()) for _ in range(3))
    return tuple(field._coerce_rep([coefficient() for _ in range(field.degree)])
                 for _ in range(3))


def _generic_cross(field, u, v):
    """Field._cross with Field._canonical in place of the field's own: the
    cross product by _mul and _sub, divided by its pivot, on no int kernel."""
    (a1, b1, c1), (a2, b2, c2) = u, v
    mul, sub = field._mul, field._sub
    return Field._canonical(field, (sub(mul(b1, c2), mul(b2, c1)),
                                    sub(mul(c1, a2), mul(c2, a1)),
                                    sub(mul(a1, b2), mul(a2, b1))))


def _stored(field, u):
    """The reps that _cross takes for the triple u: over Q and over an
    integral Q[x]/(f) its primitive ints (the zero triple as ints),
    elsewhere u itself."""
    if not _stores_ints(field):
        return u
    if all(map(field._is_zero, u)):
        return ((0 if field == Q else (0,) * field.degree),) * 3
    return field._canonical(u)


@pytest.mark.parametrize("field", _INT_FIELDS.values(), ids=_INT_FIELDS)
def test_int_kernels_match_generic_path(field):
    assert type(field) is not ExtensionField
    rng = random.Random(field.key)

    def canonical(u):
        return field._affine(field._canonical(u))

    def cross(u, v):
        return field._affine(field._cross(u, v))

    for _ in range(400):
        u, v = _sparse_triple(field, rng), _sparse_triple(field, rng)
        su, sv = _stored(field, u), _stored(field, v)
        assert _outcome(canonical, u) == _outcome(Field._canonical, field, u)
        assert _outcome(cross, su, sv) == _outcome(_generic_cross, field, u, v)
        assert _outcome(field._cross, su, su) == _outcome(_generic_cross, field, u, u)


def _large_rational(rng):
    """Zero one time in four, else up to 10^12 over up to 10^6, either sign."""
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**6))


def _large_triple(field, rng):
    """Three entries of _large_rational, as coefficient vectors over an
    extension with about a third of them zero."""
    if field == Q:
        return tuple(_large_rational(rng) for _ in range(3))
    return tuple(field._coerce_rep([0] * field.degree if rng.random() < 0.3 else
                                   [_large_rational(rng) for _ in range(field.degree)])
                 for _ in range(3))


def _ints(key):
    """The ints of a nested sort key, in order: the per-entry keys concatenated."""
    return (key,) if isinstance(key, int) else tuple(v for k in key for v in _ints(k))


def test_primitive_triples_and_their_sort_keys():
    """Over Q and each integral Q[x]/(f) a triple is stored as int vectors
    with gcd 1 over all coefficients whose leftmost nonzero vector is a
    positive integer; it reads back as the pivot-one Fraction view."""
    rng = random.Random(12)
    for field in _STORED_INT_FIELDS:
        for _ in range(2000 if field == Q else 150):
            t = _large_triple(field, rng)
            if all(map(field._is_zero, t)):
                with pytest.raises(ValueError, match="nonzero coordinate"):
                    field._canonical(t)
                continue
            stored = field._canonical(t)
            vectors = stored if field != Q else [(r,) for r in stored]
            coefficients = [c for r in vectors for c in r]
            assert all(type(c) is int for c in coefficients)
            assert math.gcd(*coefficients) == 1
            lead = next(r for r in vectors if any(r))
            assert lead[0] > 0 and not any(lead[1:])
            affine = Field._canonical(field, t)
            assert field._affine(stored) == affine
            assert field._triple_key(stored) == _ints(tuple(field.sort_key_rep(r) for r in affine))
            scale = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            multiple = tuple(scale * r for r in stored) if field == Q else tuple(
                tuple(scale * c for c in r) for r in stored)
            assert field._canonical(multiple) == stored
            unit = _large_triple(field, rng)[0]
            if not field._is_zero(unit):
                assert field._canonical(tuple(field._mul(r, unit) for r in t)) == stored
    with pytest.raises(ValueError, match="nonzero coordinate"):
        _primitive(0, 0, 0)


@pytest.mark.parametrize("triple, key", [
    ((2, -3, 0), (1, 1, -3, 2, 0, 1)),
    ((2, 3, -4), (1, 1, 3, 2, -2, 1)),
    ((6, -4, 9), (1, 1, -2, 3, 3, 2)),
    ((1, 0, 0), (1, 1, 0, 1, 0, 1)),
    ((0, 1, -2), (0, 1, 1, 1, -2, 1)),
    ((0, 2, -3), (0, 1, 1, 1, -3, 2)),
    ((0, 0, 1), (0, 1, 0, 1, 1, 1)),
])
def test_rational_triple_keys_read_the_pivot(triple, key):
    """Q's key is numerator and denominator of each entry over the pivot,
    with the pivot in each position, negative entries and zeros."""
    assert Q._canonical(tuple(map(Fraction, triple))) == triple  # primitive
    assert Q._triple_key(triple) == key
    assert key == tuple(v for r in Q._affine(triple) for v in Q.sort_key_rep(r))


def _key_order_fields():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        tower = ExtensionField(gf4, [gf4.gen().value, [1], [1]])
    return {"q": Q, "gf13": PrimeField(13), "zech-gf9": ExtensionField(PrimeField(3), [1, 0, 1]),
            "gf289": ExtensionField(PrimeField(17), [14, 0, 1]), "cyclo12": cyclotomic_field(12),
            "ext-q": parse_field("EXT Q [-1/2,0,1]"), "gf16-tower": tower}


_KEY_ORDER_FIELDS = _key_order_fields()


@pytest.mark.parametrize("field", _KEY_ORDER_FIELDS.values(), ids=_KEY_ORDER_FIELDS)
def test_triple_keys_sort_as_the_per_entry_keys(field):
    """_triple_key orders stored triples as the tuple of sort_key_rep of
    their _affine entries does, whether it returns that tuple or one flat
    tuple of ints."""
    rng = random.Random(field.key)
    zero = field.zero.value
    stored = set()
    for _ in range(300):
        t = tuple(zero if rng.random() < 0.3 else _random_element(field, rng).value
                  for _ in range(3))
        if not all(map(field._is_zero, t)):
            stored.add(field._canonical(t))
    per_entry = {t: tuple(field.sort_key_rep(r) for r in field._affine(t)) for t in stored}
    by_key = sorted(stored, key=field._triple_key)
    assert by_key == sorted(stored, key=per_entry.__getitem__)
    assert len({field._triple_key(t) for t in stored}) == len(stored) > 50
    if _stores_ints(field):
        assert all(type(v) is int for t in stored for v in field._triple_key(t))
    if field in (_KEY_ORDER_FIELDS["gf13"], _KEY_ORDER_FIELDS["zech-gf9"]):
        # residues and Zech tuples of residues are their own key
        assert all(field._triple_key(t) is t for t in stored)


def test_rational_incidences_on_ints_match_fraction_views():
    """Q and each integral Q[x]/(f) count incidences on their stored int
    triples (Q on int sums, Q[x]/(f) in Z[x]/(f)); the
    counts equal those of the generic body on the pivot-one Fraction
    views."""
    rng = random.Random(13)
    for field in _STORED_INT_FIELDS:
        def entry():
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if field == Q:
                return value
            return field._coerce_rep([value] + [rng.choice((0, 0, 1, -1))
                                                for _ in range(field.degree - 1)])

        triples = (tuple(entry() for _ in range(3)) for _ in range(60 if field == Q else 25))
        stored = list(dict.fromkeys(field._canonical(t) for t in triples
                                    if not all(map(field._is_zero, t))))
        # lines through pairs of the points, so incidences occur, and random ones
        lines = [field._cross(*rng.sample(stored, 2)) for _ in range(15)]
        lines += [field._canonical(t) for t in (_large_triple(field, rng) for _ in range(15))
                  if not all(map(field._is_zero, t))]
        counts = field._incidences(stored, lines)
        assert counts == Field._incidences(field, [field._affine(p) for p in stored],
                                           [field._affine(l) for l in lines])
        assert sum(counts) >= 30 and max(counts) >= 2, field


def test_reducible_integral_modulus_fails_alike():
    # (x^2 + 1)(x^2 + 2) has no rational root, so it is accepted with a
    # warning; the kernel meets zero divisors where the generic path does
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        field = parse_field("EXT Q [2,0,3,0,1]")
    assert type(field) is _IntegralField
    rng = random.Random(5)
    outcomes = set()

    def cross(u, v):
        return field._affine(field._cross(u, v))

    for _ in range(400):
        u, v = _sparse_triple(field, rng), _sparse_triple(field, rng)
        try:
            su, sv = _stored(field, u), _stored(field, v)
        except NegarrError as exc:  # a zero divisor leads u or v: no stored form
            assert str(exc).endswith("shares a factor with an element; modulus is reducible")
            w = u if _outcome(field._canonical, u)[0] is NegarrError else v
            assert _outcome(field._canonical, w) == _outcome(Field._canonical, field, w)
            outcomes.add("unstored")
            continue
        got = _outcome(cross, su, sv)
        assert got == _outcome(_generic_cross, field, u, v)
        outcomes.add(got[0] if got[0] in (ValueError, NegarrError) else "point")
    assert outcomes == {ValueError, NegarrError, "point", "unstored"}


def _adjugate_fields():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        quartic = parse_field("EXT Q [-2,0,0,0,1]")  # x^4 - 2, not cyclotomic
    return {**{f"cyclo{n}": cyclotomic_field(n) for n in (5, 7, 12)}, "x4-2": quartic}


_ADJUGATE_FIELDS = _adjugate_fields()


def _cold(field):
    """A new handle of the integral field, which has divided by no pivot."""
    return ExtensionField(Q, field.modulus, assume_irreducible=True)


@pytest.mark.parametrize("field", _ADJUGATE_FIELDS.values(), ids=_ADJUGATE_FIELDS)
def test_remembered_adjugates_store_what_a_cold_field_stores(field):
    """Each pivot is divided by 1, 2, 3 or 5 times, in shuffled order and
    with other entries each time: the first sighting solves and notes the
    pivot, the second also keeps det * pivot^-1, and later ones multiply by
    it.  Every stored triple equals that of a field that never saw the
    pivot."""
    rng = random.Random(field.key)
    k = field.degree
    warm = _cold(field)
    assert type(warm) is _IntegralField and warm == field

    def vector():
        return [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(k)]
    pivots = {}
    while len(pivots) < 24:
        pivot = vector()
        if any(pivot[1:]):
            pivots[tuple(pivot)] = rng.choice((1, 2, 3, 5))
    sightings = [pivot for pivot, times in pivots.items() for _ in range(times)]
    rng.shuffle(sightings)
    for pivot in sightings:
        at = rng.randrange(3)
        triple = [[0] * k] * at + [list(pivot)] + [vector() for _ in range(2 - at)]
        assert warm._scaled(*triple) == _cold(field)._scaled(*triple)
    assert warm._adjugates.keys() == pivots.keys()
    for pivot, times in pivots.items():
        known = warm._adjugates[pivot]
        if times == 1:
            assert known == ()
            continue
        det, adj = known
        unit = _int_reduce(_int_addmul([0] * (2 * k - 1), pivot, adj), warm._f)
        assert unit == [det] + [0] * (k - 1)


def test_integer_pivots_bypass_the_adjugate_memo():
    field = _cold(cyclotomic_field(12))
    for c in (1, -2, 3, 3, 3):
        integer = [c, 0, 0, 0]
        for triple in ((integer, [1, 2, 0, 1], [0, -1, 1, 0]), ([0] * 4, integer, [5, 0, 1, 0])):
            stored = field._scaled(*triple)
            reps = tuple(map(field._coerce_rep, triple))
            assert field._affine(stored) == Field._canonical(field, reps)
    assert field._adjugates == {}


def test_zero_divisor_pivot_raises_at_every_sighting():
    # x^2 + 1 divides (x^2 + 1)(x^2 + 2), so it has no inverse modulo it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        field = parse_field("EXT Q [2,0,3,0,1]")
    zero_divisor, unit = [1, 0, 1, 0], [0, 1, 0, 0]
    for _ in range(3):
        with pytest.raises(NegarrError, match="shares a factor"):
            field._scaled(zero_divisor, [1, 1, 0, 0], [0, 0, 0, 1])
        assert tuple(zero_divisor) not in field._adjugates
        with pytest.raises(NegarrError, match="shares a factor"):
            field._scaled([0] * 4, zero_divisor, [3, 0, 0, 1])
        field._scaled(unit, [1, 1, 0, 0], [0, 0, 0, 1])
    assert field._adjugates.keys() == {tuple(unit)}


def _full_plane(field):
    """The reps of every point of the projective plane over the finite field,
    each with a leftmost one; by duality also every line."""
    zero, one = field.zero.value, field.one.value
    elements = [e.value for e in field.iter_elements()]
    return ([(one, a, b) for a in elements for b in elements]
            + [(zero, one, b) for b in elements] + [(zero, zero, one)])


_ZECH_PLANES = {q: ExtensionField(PrimeField(p), modulus) for q, p, modulus in (
    (4, 2, [1, 1, 1]), (8, 2, [1, 1, 0, 1]), (9, 3, [1, 0, 1]), (16, 2, [1, 1, 0, 0, 1]))}


@pytest.mark.parametrize("field", _ZECH_PLANES.values(), ids=[f"gf{q}" for q in _ZECH_PLANES])
def test_zech_incidences_match_generic_body(field):
    """_ZechField counts on its log tables what the generic body counts on
    polynomial products: over the full plane each point lies on q + 1 lines
    (h = 0 in characteristic 2), and on three seeded lines some points lie
    on none."""
    assert type(field) is _ZechField
    q, plane = field.order, _full_plane(field)
    start = time.process_time()
    counts = field._incidences(plane, plane)
    # about 0.2 us per test; the generic body takes about 20
    assert time.process_time() - start < 0.5 or q < 16
    assert counts == [q + 1] * len(plane) == Field._incidences(field, plane, plane)
    rng = random.Random(q)
    elements = [e.value for e in field.iter_elements()]
    points = [tuple(rng.choice(elements) for _ in range(3)) for _ in range(60)]
    lines = rng.sample(plane, 3)
    counts = field._incidences(points + plane, lines)
    assert counts == Field._incidences(field, points + plane, lines)
    assert 0 in counts[:60] and 0 in counts[60:]


def test_fields_off_the_kernels_stay_generic():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        tower = ExtensionField(gf4, [gf4.gen().value, [1], [1]])
    big = ExtensionField(PrimeField(17), [14, 0, 1])  # x^2 - 3: GF(289)
    assert big.order > ZECH_MAX_ORDER
    rng = random.Random(11)
    for field in (tower, parse_field("EXT Q [-1/2,0,1]"), big):
        u = tuple(_random_element(field, rng).value for _ in range(3))
        v = tuple(_random_element(field, rng).value for _ in range(3))
        assert field._cross(u, v) == Field._cross(field, u, v)
        assert type(field) is ExtensionField
    gf256 = ExtensionField(PrimeField(2), [1, 0, 1, 1, 1, 0, 0, 0, 1])  # x^8+x^4+x^3+x^2+1
    assert gf256.order == ZECH_MAX_ORDER and type(gf256) is _ZechField
    # a modulus let in unchecked may be reducible, with no primitive element
    assert type(ExtensionField(PrimeField(2), [1, 0, 1], assume_irreducible=True)) is ExtensionField
    assert type(ExtensionField(PrimeField(3), [1, 0, 1])) is _ZechField
    assert type(cyclotomic_field(12)) is _IntegralField
