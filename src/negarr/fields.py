"""Exact field arithmetic: rationals, prime fields, and simple extensions.

Every element carries a canonical representation (lowest-terms Fraction,
reduced residue, or fixed-length coefficient vector), so equality and hashing
are structural and exact.  No value is ever a float: the one float in negarr
is the 4-significant-digit decimal that the command line prints beside each
exact value, and beyond a float's range that decimal is rounded exactly.
"""

from __future__ import annotations

import itertools
import re
import warnings
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from .errors import (
    DivisionByZero,
    InternalInconsistency,
    NegarrError,
    UnvalidatedModulusWarning,
)

LESS = -1
EQUAL = 0
GREATER = 1


# Miller-Rabin over the first 13 primes is exact below this bound (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

# A literal that int() reads as Fraction() does; any other goes to Fraction()
_PLAIN_INTEGER = re.compile(r"[+-]?[0-9]+").fullmatch


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test over _MR_BASES.

    A division by the bases comes first, so an n with a small factor is
    answered at any size.  Otherwise raises ValueError for n >= _MR_BOUND,
    where these bases are not known to suffice.
    """
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: the primality test "
                         f"is proven only below {_MR_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        if pow(a, d, n) != 1 and all(pow(a, d << i, n) != n - 1 for i in range(s)):
            return False
    return True


def prime_power(q: int):
    """(p, k) with q = p^k and p prime, or None when q is not a prime power.

    While q is a perfect e-th power for a prime e (primes in increasing
    order; a composite e adds nothing), q is replaced by its e-th root.  The
    rest is tested by is_prime, whose ValueError marks a rest too large.
    """
    if q < 2:
        return None
    k, e = 1, 2
    while e <= q.bit_length():
        r = 0  # floor of the e-th root of q, built bit by bit
        for b in range(q.bit_length() // e, -1, -1):
            if (r | 1 << b) ** e <= q:
                r |= 1 << b
        if r ** e == q:
            q, k = r, k * e
        else:
            e = next(f for f in itertools.count(e + 1) if is_prime(f))
    return (q, k) if is_prime(q) else None


def _operator(hook, reflected=False, inverted=False):
    """A FieldElement operator: the field's hook on the two reps, the operands
    swapped when reflected and the second one inverted when inverted.

    An element of another field raises NegarrError, an int or a Fraction is
    coerced, and anything else gives NotImplemented.
    """
    def apply(self, other):
        field = self.field
        if isinstance(other, FieldElement):
            if other.field != field:
                raise NegarrError(f"cannot mix {field} and {other.field}")
            rep = other.value
        elif isinstance(other, (int, Fraction)):
            rep = field._coerce_rep(other)
        else:
            return NotImplemented
        a, b = (rep, self.value) if reflected else (self.value, rep)
        return FieldElement(field, getattr(field, hook)(a, field._inv(b) if inverted else b))
    return apply


class FieldElement:
    """A value of some Field, stored in canonical form.

    Supports the usual operators; mixing elements of distinct fields raises
    NegarrError, plain ints (and Fractions where meaningful) are coerced.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    __add__ = __radd__ = _operator("_add")
    __sub__ = _operator("_sub")
    __rsub__ = _operator("_sub", reflected=True)
    __mul__ = __rmul__ = _operator("_mul")
    __truediv__ = _operator("_mul", inverted=True)
    __rtruediv__ = _operator("_mul", reflected=True, inverted=True)

    def __neg__(self):
        return self.field.zero - self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = base.inverse()
            exponent = -exponent
        result = self.field.one
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.value))

    def __bool__(self):
        return not self.field._is_zero(self.value)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.field == self.field and other.value == self.value
        if isinstance(other, (int, Fraction)):
            try:
                return self.field._coerce_rep(other) == self.value
            except (DivisionByZero, TypeError):
                return False
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return self.field.format_rep(self.value)


class Field:
    """Common interface of the concrete field classes.

    Subclasses operate on raw canonical representations; FieldElement wraps
    them with operator syntax.  Fields compare equal when their descriptors
    (describe()) are equal, so elements created through independently built
    but identical handles interoperate.
    """

    @cached_property
    def key(self):
        """The descriptor, which equality, hashing and repr read."""
        return self.describe()

    def __eq__(self, other):
        return self is other or (isinstance(other, Field) and other.key == self.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.key

    def element(self, value) -> FieldElement:
        return FieldElement(self, self._coerce_rep(value))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, self._zero)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, self._one)

    @property
    def order(self):
        """Number of elements, or None for infinite fields."""
        return None

    def iter_elements(self):
        raise NotImplementedError("field is not finite")

    def _is_zero(self, a):
        return a == self._zero

    def _canonical(self, reps):
        """The stored form of a triple of reps: by default, scaled so that its
        leftmost nonzero entry is one."""
        for i, r in enumerate(reps):
            if not self._is_zero(r):
                scale = self._inv(r)
                return reps[:i] + tuple(self._mul(x, scale) for x in reps[i:])
        raise ValueError("projective triple must have a nonzero coordinate")

    def _cross(self, u, v):
        """The canonical reps of the cross product of two non-proportional
        triples of reps: the meet of two lines, or the join of two points."""
        (a1, b1, c1), (a2, b2, c2) = u, v
        mul, sub = self._mul, self._sub
        return self._canonical((sub(mul(b1, c2), mul(b2, c1)),
                                sub(mul(c1, a2), mul(c2, a1)),
                                sub(mul(a1, b2), mul(a2, b1))))

    def _incidences(self, points, lines):
        """For each triple of point reps, how many of the triples of line
        reps vanish at it."""
        mul, add, is_zero = self._mul, self._add, self._is_zero
        return [sum(1 for a, b, c in lines if is_zero(add(add(mul(a, x), mul(b, y)), mul(c, z))))
                for x, y, z in points]

    def _affine(self, reps):
        """The reps of a stored triple scaled so that its leftmost nonzero
        entry is one: what coords, coeffs and repr show."""
        return reps

    def _triple_key(self, reps):
        """The sort key of a stored triple: sort_key_rep of each entry of its
        _affine view.  Q and _IntegralField return those keys concatenated,
        one flat tuple of ints in the same order, as every entry's key has
        the same length."""
        key = self.sort_key_rep
        return tuple(key(r) for r in self._affine(reps))

    def format_rep(self, a):
        return str(a)

    def sort_key_rep(self, a):
        return a

    # subclasses: _zero and _one (each rep built once), _coerce_rep, _add, _sub
    # (negation is _sub from _zero), _mul, _inv, parse_rep (the inverse of
    # format_rep), describe (first read through key, so it may use anything
    # __init__ sets), and sort_key_rep when the key is not the rep itself.
    # Each meet path is one class, which overrides _canonical and _cross on its
    # own arithmetic (Q and GF(p) on ints, _ZechField on logs, _IntegralField
    # fraction-free; plain ExtensionField keeps these bodies); a class that
    # stores triples in another form than _canonical's default (Q and
    # _IntegralField, as int vectors) also overrides _affine and _triple_key,
    # and GF(p) and _ZechField, whose stored triple equals its generic key,
    # return it as the key.
    # Q, GF(p), _ZechField and _IntegralField count _incidences on their own
    # arithmetic (Q and GF(p) on their stored ints)


def _integral(values):
    """Integers in the ratio of a sequence of Fractions: each times the lcm
    of the denominators."""
    m = lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values]


def _primitive(x, y, z):
    """The int triple divided by the gcd of its entries and signed so that
    its leftmost nonzero entry is positive."""
    g = gcd(x, y, z)
    if not g:
        raise ValueError("projective triple must have a nonzero coordinate")
    if (x or y or z) < 0:
        g = -g
    return (x // g, y // g, z // g)


class RationalField(Field):
    """The rational numbers, represented as Fraction values.

    A projective triple over Q is stored as its primitive int triple (see
    _primitive), so meets, sort keys and incidence counts run on plain ints;
    _affine gives the Fraction view with a leftmost one.
    """

    _zero, _one = Fraction(0), Fraction(1)

    def _coerce_rep(self, v):
        if isinstance(v, FieldElement):
            if v.field == self:
                return v.value
            raise NegarrError(f"cannot place {v!r} of {v.field} into {self}")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise TypeError(f"cannot interpret {v!r} as a rational")

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("division by zero in Q")
        return 1 / a

    def _canonical(self, reps):
        return _primitive(*_integral(reps))

    def _cross(self, u, v):
        (a1, b1, c1), (a2, b2, c2) = u, v
        return _primitive(b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1)

    def _incidences(self, points, lines):
        return [sum(1 for a, b, c in lines if not a * x + b * y + c * z)
                for x, y, z in points]

    def _affine(self, reps):
        pivot = reps[0] or reps[1] or reps[2]
        return tuple(Fraction(r, pivot) for r in reps)

    def _triple_key(self, reps):
        # numerator, denominator of each entry over the positive pivot; x's
        # reads (1, 1) when x is the pivot, else (0, 1)
        x, y, z = reps
        if x:
            gy, gz = gcd(x, y), gcd(x, z)
            return (1, 1, y // gy, x // gy, z // gz, x // gz)
        p = y or z
        gy, gz = gcd(p, y), gcd(p, z)
        return (0, 1, y // gy, p // gy, z // gz, p // gz)

    def parse_rep(self, token):
        if _PLAIN_INTEGER(token):
            return Fraction(int(token))
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None

    def sort_key_rep(self, a):
        return (a.numerator, a.denominator)

    def describe(self):
        return "Q"


class PrimeField(Field):
    """GF(p) for prime p, represented as reduced residues."""

    _zero, _one = 0, 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise NegarrError(f"{p} is not prime")
        self.p = p

    def _coerce_rep(self, v):
        if isinstance(v, FieldElement):
            if v.field == self:
                return v.value
            raise NegarrError(f"cannot place {v!r} of {v.field} into {self}")
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            num = v.numerator % self.p
            den = v.denominator % self.p
            return self._mul(num, self._inv(den))
        raise TypeError(f"cannot interpret {v!r} as an element of {self}")

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"division by zero in {self}")
        return pow(a, self.p - 2, self.p)

    def _canonical(self, reps):
        # reps are reduced residues; scale them to a leftmost one.
        x, y, z = reps
        p = self.p
        if x:
            scale = pow(x, p - 2, p)
            return (1, y * scale % p, z * scale % p)
        if y:
            return (0, 1, z * pow(y, p - 2, p) % p)
        if z:
            return (0, 0, 1)
        raise ValueError("projective triple must have a nonzero coordinate")

    def _cross(self, u, v):
        (a1, b1, c1), (a2, b2, c2) = u, v
        p = self.p
        return self._canonical(((b1 * c2 - b2 * c1) % p, (c1 * a2 - c2 * a1) % p,
                                (a1 * b2 - a2 * b1) % p))

    def _incidences(self, points, lines):
        p = self.p
        return [sum(1 for a, b, c in lines if not (a * x + b * y + c * z) % p)
                for x, y, z in points]

    def _triple_key(self, reps):
        # the stored residues, already the generic key
        return reps

    def parse_rep(self, token):
        return int(token) % self.p

    def describe(self):
        return f"GF {self.p}"

    @property
    def order(self):
        return self.p

    def iter_elements(self):
        for i in range(self.p):
            yield FieldElement(self, i)

    def __repr__(self):
        return f"GF({self.p})"


# ---- polynomial helpers over an arbitrary base field ----
# All work on lists of raw representations, ascending degree, and copy a list
# at most once, where they first change it; only _ptrim changes its argument.

def _ptrim(field, c):
    while c and field._is_zero(c[-1]):
        c.pop()
    return c


def _pmul(field, a, b):
    out = [field._zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if field._is_zero(ai):
            continue
        for j, bj in enumerate(b):
            out[i + j] = field._add(out[i + j], field._mul(ai, bj))
    return _ptrim(field, out)


def _pdivmod(field, num, den):
    """Schoolbook division (Knuth, TAOCP vol. 2, 4.6.1): each step pops the
    leading term of the remainder and updates the rest in place."""
    den = _ptrim(field, list(den))
    if not den:
        raise DivisionByZero("polynomial division by zero")
    lead_inv = field._inv(den.pop())
    rem, k = _ptrim(field, list(num)), len(den)
    quot = [None] * (len(rem) - k)
    mul, sub = field._mul, field._sub
    while len(rem) > k:
        coef = mul(rem.pop(), lead_inv)
        shift = len(rem) - k
        quot[shift] = coef
        for i, di in enumerate(den):
            rem[shift + i] = sub(rem[shift + i], mul(coef, di))
    return quot, _ptrim(field, rem)


def _pinv_mod(field, a, modulus):
    """(g, u) with u * a = g modulo the polynomial and g = gcd(a, modulus);
    the one Euclid, which inverses and gcds both read."""
    old_r, r = _ptrim(field, list(a)), _ptrim(field, list(modulus))
    old_u, u = [field._one], []
    zero, mul, sub = field._zero, field._mul, field._sub
    while r:
        q, rem = _pdivmod(field, old_r, r)
        old_r, r = r, rem
        w = old_u + [zero] * (len(q) + len(u) - 1 - len(old_u))  # old_u - q * u
        for i, qi in enumerate(q):
            for j, uj in enumerate(u):
                w[i + j] = sub(w[i + j], mul(qi, uj))
        old_u, u = u, _ptrim(field, w)
    return old_r, old_u


def is_irreducible_mod_p(field: PrimeField, coeffs) -> bool:
    """Rabin's irreducibility test for a monic polynomial f over GF(p).

    f of degree n is irreducible iff x^(p^n) = x mod f and, for each prime r
    dividing n, gcd(x^(p^(n/r)) - x, f) = 1 (Rabin, "Probabilistic algorithms
    in finite fields", SIAM J. Comput. 1980).  The powers are taken in
    GF(p)[x]/(f), which is a ring rather than a field until the test passes.
    """
    coeffs = [field._coerce_rep(c) for c in coeffs]
    n = len(coeffs) - 1
    if n < 2:
        return n == 1
    x = ExtensionField(field, coeffs, assume_irreducible=True).gen()
    frobenius = [x]  # x^(p^k) mod f for k = 0..n
    for _ in range(n):
        frobenius.append(frobenius[-1] ** field.p)
    if frobenius[n] != x:
        return False
    for r in range(2, n + 1):
        if n % r == 0 and is_prime(r):
            if len(_pinv_mod(field, (frobenius[n // r] - x).value, coeffs)[0]) != 1:
                return False
    return True


def _int_eval(coeffs, x, modulus=None):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if modulus is not None:
            acc %= modulus
    return acc


def _has_rational_root(coeffs) -> bool:
    """Whether a polynomial over Q (ascending coefficients) has a rational root.

    The work is polynomial in the bit size of the coefficients.  The
    squarefree part f has the same rational roots, each simple.  Cleared to
    integers a_i, f gives the monic g(y) = a_n^(n-1) f(y/a_n), whose rational
    roots are the integers y = a_n x with |y| <= B, the Cauchy bound.  Each root of g modulo a small
    prime l for which g mod l is squarefree lifts uniquely (Newton/Hensel) to
    a root modulo some l^k > 2B, and only its symmetric representative can be
    an integer root, which is tested exactly.
    """
    q = RationalField()
    f = _ptrim(q, [q._coerce_rep(c) for c in coeffs])
    if f[0] == 0:
        return True
    f, _ = _pdivmod(q, f, _pinv_mod(q, f, [i * c for i, c in enumerate(f)][1:])[0])
    a = _integral(f)
    n = len(a) - 1
    g = [a[i] * a[n] ** (n - 1 - i) for i in range(n)] + [1]
    bound = 1 + max(abs(c) for c in g[:-1])
    dg = [i * c for i, c in enumerate(g)][1:]
    ell = 2
    while True:
        if len(_pinv_mod(PrimeField(ell), [c % ell for c in g], [c % ell for c in dg])[0]) == 1:
            break
        ell += 1
        while not is_prime(ell):
            ell += 1
    for root in range(ell):
        if _int_eval(g, root, ell):
            continue
        modulus = ell
        while modulus <= 2 * bound:
            modulus *= modulus
            root = (root - _int_eval(g, root, modulus)
                    * pow(_int_eval(dg, root, modulus), -1, modulus)) % modulus
        y = root if 2 * root <= modulus else root - modulus
        if _int_eval(g, y) == 0:
            return True
    return False


class ExtensionField(Field):
    """base[x]/(modulus) for a monic modulus of degree at least 2.

    Elements are fixed-length coefficient vectors over the base field.
    Irreducibility is verified by Rabin's test over prime fields and by the
    rational root test over Q; beyond degree 3 over Q (and always over an
    extension base) the caller's word is accepted and the handle is tagged
    unvalidated, with an UnvalidatedModulusWarning.

    Construction picks the class of the meet path once: _ZechField for a
    checked modulus over GF(p) of order at most ZECH_MAX_ORDER,
    _IntegralField for an integral modulus over Q, and ExtensionField itself,
    on the generic Field hooks, for towers, other moduli, larger orders and
    assume_irreducible over GF(p).  The modulus is a list or a tuple, whose
    length gives the order before __init__ checks it.
    """

    def __new__(cls, base: Field, modulus, *, assume_irreducible: bool = False):
        if cls is ExtensionField:
            if isinstance(base, PrimeField):
                if not assume_irreducible and base.p ** (len(modulus) - 1) <= ZECH_MAX_ORDER:
                    cls = _ZechField
            elif isinstance(base, RationalField):
                if all(base._coerce_rep(c).denominator == 1 for c in modulus):
                    cls = _IntegralField
        return super().__new__(cls)

    def __init__(self, base: Field, modulus, *, assume_irreducible: bool = False):
        self.base = base
        coeffs = tuple(base._coerce_rep(c) for c in modulus)
        if len(coeffs) < 3:
            raise ValueError("modulus degree must be at least 2")
        if coeffs[-1] != base._one:
            raise ValueError("modulus must be monic")
        self.modulus = coeffs
        self.degree = len(coeffs) - 1
        self._zero = (base._zero,) * self.degree
        self._one = self._pad([base._one])
        unverified = None  # what is left unproven about the modulus
        if assume_irreducible:
            pass
        elif isinstance(base, PrimeField):
            if not is_irreducible_mod_p(base, coeffs):
                raise NegarrError(f"{self.format_rep(self.modulus)} factors over {base}")
        elif isinstance(base, RationalField):
            if _has_rational_root(coeffs):
                raise NegarrError(f"{self.format_rep(self.modulus)} has a rational root")
            if self.degree > 3:
                unverified = "over Q not verified beyond the rational root test"
        else:
            unverified = f"over {base} not verified"
        self.modulus_validated = unverified is None
        if unverified:
            warnings.warn(
                f"irreducibility of {self.format_rep(self.modulus)} {unverified}",
                UnvalidatedModulusWarning,
                stacklevel=2,
            )

    def _pad(self, coeffs):
        """The rep of at most degree coefficients."""
        return (*coeffs, *self._zero[len(coeffs):])

    def _reduce(self, coeffs):
        return self._pad(_pdivmod(self.base, coeffs, self.modulus)[1])

    def _coerce_rep(self, v):
        if isinstance(v, FieldElement):
            if v.field == self:
                return v.value
            if v.field == self.base:
                return self._pad([v.value])
            raise NegarrError(f"cannot place {v!r} of {v.field} into {self}")
        if isinstance(v, (int, Fraction)):
            return self._pad([self.base._coerce_rep(v)])
        if isinstance(v, (list, tuple)):
            return self._reduce([self.base._coerce_rep(c) for c in v])
        raise TypeError(f"cannot interpret {v!r} as an element of {self}")

    def gen(self) -> FieldElement:
        """The coset of x, a root of the modulus."""
        return self.element([0, 1])

    def _add(self, a, b):
        base = self.base
        return tuple(base._add(x, y) for x, y in zip(a, b))

    def _sub(self, a, b):
        base = self.base
        return tuple(base._sub(x, y) for x, y in zip(a, b))

    def _mul(self, a, b):
        return self._reduce(_pmul(self.base, a, b))

    def _inv(self, a):
        if self._is_zero(a):
            raise DivisionByZero(f"division by zero in {self}")
        g, u = _pinv_mod(self.base, a, self.modulus)
        if len(g) != 1:
            raise NegarrError(f"{self.format_rep(self.modulus)} shares a factor "
                              "with an element; modulus is reducible")
        scale = self.base._inv(g[0])
        return self._pad([self.base._mul(c, scale) for c in u])

    def format_rep(self, a):
        return "[" + ",".join(self.base.format_rep(c) for c in a) + "]"

    def parse_rep(self, token):
        token = token.strip()
        # a bare base literal is a vector of one entry
        reps = (_parse_vector(self.base, token) if token.startswith("[")
                else [self.base.parse_rep(token)])
        if len(reps) > self.degree:
            raise ValueError(f"vector {token!r} longer than degree {self.degree}")
        return self._pad(reps)

    def sort_key_rep(self, a):
        return tuple(self.base.sort_key_rep(c) for c in a)

    def describe(self):
        inner = self.base.describe()
        atom = inner if inner == "Q" else f"({inner})"
        return f"EXT {atom} {self.format_rep(self.modulus)}"

    @property
    def order(self):
        base_order = self.base.order
        return None if base_order is None else base_order ** self.degree

    def iter_elements(self):
        reps = [e.value for e in self.base.iter_elements()]
        for combo in itertools.product(reps, repeat=self.degree):
            yield FieldElement(self, tuple(combo))


# ---- the int meet paths of ExtensionField ----
# _ZechField takes and returns the reps of ExtensionField (tuples of
# residues); _IntegralField stores primitive int vectors, which its _affine
# turns back into the Fraction vectors of a leftmost one, so every byte a
# report prints stays the same.  Scalar arithmetic stays on the polynomial
# path of ExtensionField in both.

# Zech tables for GF(q) are built only up to this order: at q = 256 building
# them costs about as much as a hundred generic meets.
ZECH_MAX_ORDER = 256


def _int_reduce(c, modulus):
    """The int list c (ascending degree, updated) reduced modulo a monic int
    modulus."""
    k = len(modulus) - 1
    for i in range(len(c) - 1, k - 1, -1):
        coef = c[i]
        if coef:
            off = i - k
            for j in range(k):
                c[off + j] -= coef * modulus[j]
    return c[:k]


def _int_addmul(out, a, b, sign=1):
    """out plus sign * a * b, for int coefficient lists; out is updated."""
    for i, ai in enumerate(a):
        if ai:
            ai *= sign
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _int_det2(a, b, c, d, modulus):
    """a*b - c*d in Z[x]/(modulus), on int coefficient lists."""
    out = _int_addmul([0] * (2 * len(a) - 1), a, b)
    return _int_reduce(_int_addmul(out, c, d, -1), modulus)


class _ZechField(ExtensionField):
    """GF(p)[x]/(f) with f checked irreducible and order q <= ZECH_MAX_ORDER,
    which meets on discrete logarithms to a primitive element g.

    A nonzero element g^e has log e in [0, n), n = q - 1; zero has the log
    3n.  A product adds logs, -1 is g^h (h = n/2, or 0 in characteristic 2),
    and a sum uses the Zech logarithm zech[t] = log(1 + g^t):
    g^a + g^b = g^(a + zech[b - a]) (Lidl and Niederreiter, Finite Fields).
    _zwrap[s] is s mod n for a sum s of nonzero logs (below 3n) and 3n for
    any sum that includes 3n; _zrep maps a log back to its rep.
    """

    def __init__(self, base, modulus, *, assume_irreducible=False):
        super().__init__(base, modulus, assume_irreducible=assume_irreducible)
        p, k = base.p, self.degree
        f, n, one = list(self.modulus), p ** k - 1, self._one
        for g in itertools.product(range(p), repeat=k):
            if not any(g[1:]):
                continue  # a constant has order dividing p - 1 < n
            powers = [one]
            for _ in range(n):
                e = _int_addmul([0] * (2 * k - 1), powers[-1], g)
                e = tuple(c % p for c in _int_reduce(e, f))
                if e == one:
                    break
                powers.append(e)
            if len(powers) == n:
                break
        else:  # the multiplicative group of a field is cyclic
            raise InternalInconsistency(f"{self} has no element of order {n}")
        self._zn, self._zh = n, n // 2 if p > 2 else 0
        self._zlog = {r: e for e, r in enumerate(powers)}
        self._zlog[self._zero] = 3 * n
        self._zrep = powers + [None] * (2 * n) + [self._zero]  # no log falls in [n, 3n)
        self._zwrap = [s % n for s in range(3 * n)] + [3 * n] * (4 * n)
        self._zech = [self._zlog[((r[0] + 1) % p,) + r[1:]] for r in powers]

    def _minus(self, a, b):
        """The log of g^a - g^b for logs a and b."""
        b = self._zwrap[b + self._zh]
        if a == 3 * self._zn:
            return b
        if b == 3 * self._zn:
            return a
        return self._zwrap[a + self._zech[b - a]]  # b - a < 0 indexes _zech mod n

    def _scaled(self, x, y, z):
        """The reps of the triple of logs scaled to a leftmost one."""
        n, wrap, rep = self._zn, self._zwrap, self._zrep
        if x != 3 * n:
            return (self._one, rep[wrap[y + n - x]], rep[wrap[z + n - x]])
        if y != 3 * n:
            return (self._zero, self._one, rep[wrap[z + n - y]])
        if z != 3 * n:
            return (self._zero, self._zero, self._one)
        raise ValueError("projective triple must have a nonzero coordinate")

    def _canonical(self, reps):
        log = self._zlog
        return self._scaled(*[log[r] for r in reps])

    def _cross(self, u, v):
        log, wrap, minus = self._zlog, self._zwrap, self._minus
        a1, b1, c1 = [log[r] for r in u]
        a2, b2, c2 = [log[r] for r in v]
        return self._scaled(minus(wrap[b1 + c2], wrap[b2 + c1]),
                            minus(wrap[c1 + a2], wrap[c2 + a1]),
                            minus(wrap[a1 + b2], wrap[a2 + b1]))

    def _incidences(self, points, lines):
        # a x + b y + c z = 0 iff g^(a+x) - g^(b+y+h) = g^(c+z+h) = -c z, on
        # logs; h is folded into each line's log of b and c once
        log, wrap, minus, h = self._zlog, self._zwrap, self._minus, self._zh
        lines = [(log[a], log[b] + h, log[c] + h) for a, b, c in lines]
        counts = []
        for point in points:
            x, y, z = [log[r] for r in point]
            counts.append(sum(1 for a, b, c in lines
                              if minus(wrap[a + x], wrap[b + y]) == wrap[c + z]))
        return counts

    def _triple_key(self, reps):
        # the stored tuples of residues, already the generic key
        return reps


class _IntegralField(ExtensionField):
    """Q[x]/(f) for a monic f with integer coefficients, meeting fraction-free.

    A triple is stored as int coefficient vectors with gcd 1 over all their
    coefficients, whose leftmost nonzero vector is a positive integer
    constant (as _primitive over Q), so the cross product is taken in
    Z[x]/(f) on the stored ints.  Its leftmost nonzero entry a is divided
    out of the other two by one fraction-free elimination of the k x k
    matrix of multiplication by a, with both as right-hand sides (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968), which gives the determinant and int
    numerators; no Fraction is built.  Coordinate models repeat a few pivot
    values, so a pivot's second solve also takes the unit vector as a
    right-hand side, which gives its adjugate det * a^-1 as an int vector,
    and the field keeps it: from the third sighting on the numerators are
    r * adj mod f, the same ints, since both are det * (r / a).  An integer
    pivot divides by itself, and a zero divisor raises at every sighting and
    is never kept.  The class has no __init__ of its own, so the
    UnvalidatedModulusWarning of ExtensionField names the caller.
    """

    @cached_property
    def _f(self):
        """The modulus as ints."""
        return [int(c) for c in self.modulus]

    @cached_property
    def _adjugates(self):
        """Each non-integer pivot _scaled has divided by: () after its first
        sighting, then (det, det * pivot^-1 as an int vector)."""
        return {}

    def _divide(self, a, rhs):
        """(det, numerators): int vectors n with r / a = n / det for each int
        vector r in rhs, a not an integer."""
        f = self._f
        # column j of the matrix is a * x^j; the right-hand sides follow
        cols = [a]
        for _ in range(len(a) - 1):
            col = [0] + cols[-1]
            lead = col.pop()
            cols.append([c - lead * m for c, m in zip(col, f)] if lead else col)
        rows = [list(row) for row in zip(*cols, *rhs)]
        # Bareiss: each step divides exactly by the previous pivot, and drops
        # the pivot column from the rows left; the pivot rows form U
        upper, last = [], 1
        while rows:
            at = next((i for i, row in enumerate(rows) if row[0]), None)
            if at is None:  # a is a zero divisor
                raise NegarrError(f"{self.format_rep(self.modulus)} shares a factor "
                                  "with an element; modulus is reducible")
            top = rows.pop(at)
            upper.append(top)
            pivot, tail = top[0], top[1:]
            rows = [[(pivot * x - row[0] * y) // last for x, y in zip(row[1:], tail)]
                    for row in rows]
            last = pivot
        # last is the determinant, and last * (r / a) is an int vector, found
        # from the bottom row of U up with exact divisions
        out = []
        for s in range(len(rhs)):
            xs = []
            for row in reversed(upper):
                n = len(xs)
                xs.insert(0, (last * row[n + 1 + s] - sum(map(mul, row[1:n + 1], xs))) // row[0])
            out.append(xs)
        return last, out

    def _scaled(self, *triple):
        """The stored form of the int triple: its leftmost nonzero entry made
        an integer, then the whole divided by the gcd of its coefficients,
        signed so that integer is positive."""
        i = next((i for i, a in enumerate(triple) if any(a)), None)
        if i is None:
            raise ValueError("projective triple must have a nonzero coordinate")
        a, rest = triple[i], triple[i + 1:]
        if not any(a[1:]):  # an integer
            det = a[0]
        else:
            key = tuple(a)
            known = self._adjugates.get(key)
            if known:  # the third sighting on: r / a = (r * adj) / det
                det, adj = known
                f, size = self._f, 2 * self.degree - 1
                rest = [_int_reduce(_int_addmul([0] * size, r, adj), f) for r in rest]
            elif known is None:  # the first; a generic input repeats no pivot
                det, rest = self._divide(a, rest)
                self._adjugates[key] = ()
            else:  # the second: the unit vector's numerators are adj
                det, (*rest, adj) = self._divide(a, (*rest, (1,) + (0,) * (self.degree - 1)))
                self._adjugates[key] = (det, adj)
        g = gcd(det, *(v for r in rest for v in r))
        if det < 0:
            g = -g
        zero = (0,) * self.degree
        return ((zero,) * i + ((det // g,) + zero[1:],)
                + tuple(tuple(v // g for v in r) for r in rest))

    def _canonical(self, reps):
        flat, k = _integral([c for r in reps for c in r]), self.degree
        return self._scaled(flat[:k], flat[k:2 * k], flat[2 * k:])

    def _cross(self, u, v):
        (a1, b1, c1), (a2, b2, c2) = u, v
        f = self._f
        return self._scaled(_int_det2(b1, c2, b2, c1, f), _int_det2(c1, a2, c2, a1, f),
                            _int_det2(a1, b2, a2, b1, f))

    def _incidences(self, points, lines):
        # a x + b y + c z in Z[x]/(f), on the stored ints
        f, size = self._f, 2 * self.degree - 1
        return [sum(1 for a, b, c in lines if not any(_int_reduce(
                    _int_addmul(_int_addmul(_int_addmul([0] * size, a, x), b, y), c, z), f)))
                for x, y, z in points]

    def _affine(self, reps):
        pivot = next(r[0] for r in reps if any(r))
        return tuple(tuple(Fraction(v, pivot) for v in r) for r in reps)

    def _triple_key(self, reps):
        # numerator, denominator of each coefficient over the positive pivot
        p = next(r[0] for r in reps if any(r))
        key = []
        push = key.append
        for r in reps:
            for v in r:
                g = gcd(p, v)
                push(v // g)
                push(p // g)
        return tuple(key)


# ---- the literal and descriptor grammar: inverses of format_rep and describe ----

def _split_top(text: str):
    """Split at the commas outside brackets."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ValueError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_vector(field: Field, token: str):
    """Representations of the entries of a literal such as [1,0,-1/2]."""
    if not (token.startswith("[") and token.endswith("]")):
        raise ValueError(f"expected a bracketed vector, got {token!r}")
    return [field.parse_rep(part) for part in _split_top(token[1:-1])]


def parse_field(text: str) -> Field:
    """The field a describe() string names: Q, GF p, or EXT base [modulus].

    The base of EXT is Q, GF p, or a descriptor in parentheses, and the
    modulus holds no parentheses, so the text splits from the right: the
    modulus is the first [...] after the last ")".  Malformed text raises
    ValueError.
    """
    text = text.strip()
    if text == "Q":
        return RationalField()
    if text.startswith("GF"):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"GF needs a prime, got {text[2:].strip()!r}") from None
        return PrimeField(p)
    if not text.startswith("EXT"):
        raise ValueError(f"unknown field descriptor {text!r}")
    at = text.find("[", text.rfind(")") + 1)
    if at < 0:
        raise ValueError(f"EXT needs a base field and a bracketed modulus, got {text!r}")
    base_text = text[3:at].strip()
    if base_text.startswith("(") and base_text.endswith(")"):
        base_text = base_text[1:-1]
    base = parse_field(base_text)
    return ExtensionField(base, _parse_vector(base, text[at:]))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _pdivmod(RationalField(), poly,
                                 [Fraction(c) for c in cyclotomic_polynomial(d)])
            if rem:
                raise InternalInconsistency(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(int(c) for c in poly)


def cyclotomic_field(n: int) -> Field:
    """Q adjoined a primitive n-th root of unity; plain Q for n in {1, 2}."""
    modulus = cyclotomic_polynomial(n)
    if n <= 2:
        return RationalField()
    return ExtensionField(RationalField(), modulus, assume_irreducible=True)


def compare_with_surd_mean(x, c) -> int:
    """Compare rational x with (1 + sqrt(1 + 4c))/2 without leaving Q.

    Returns LESS, EQUAL, or GREATER.  The surd is at least 1 for c >= 0, so
    any x <= 1/2 is immediately smaller; otherwise both sides of
    2x - 1 ? sqrt(1 + 4c) are nonnegative and can be squared.
    """
    x = Fraction(x)
    c = Fraction(c)
    if c < 0:
        raise NegarrError(f"c = {c} is negative")
    if 2 * x <= 1:
        return LESS
    lhs = (2 * x - 1) ** 2
    rhs = 1 + 4 * c
    if lhs < rhs:
        return LESS
    if lhs == rhs:
        return EQUAL
    return GREATER
