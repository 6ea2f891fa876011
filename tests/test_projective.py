import random
import re
import warnings
from fractions import Fraction

import pytest

from negarr.errors import NegarrError, UnvalidatedModulusWarning
from negarr.fields import ExtensionField, PrimeField, RationalField, cyclotomic_field
from negarr.projective import ProjLine, ProjPoint, incident, join, meet

Q = RationalField()


def test_meet_of_axes():
    x_axis = ProjLine(Q, (0, 1, 0))  # y = 0
    y_axis = ProjLine(Q, (1, 0, 0))  # x = 0
    assert meet(x_axis, y_axis) == ProjPoint(Q, (0, 0, 1))


def test_join_of_points():
    p = ProjPoint(Q, (1, 0, 0))
    q = ProjPoint(Q, (0, 1, 0))
    assert join(p, q) == ProjLine(Q, (0, 0, 1))


def test_canonical_scaling():
    assert ProjPoint(Q, (2, 4, 6)) == ProjPoint(Q, (1, 2, 3))
    p = ProjPoint(Q, (0, -5, 10))
    assert [c.value for c in p.coords] == [0, 1, -2]
    assert hash(ProjLine(Q, (3, 0, 3))) == hash(ProjLine(Q, (1, 0, 1)))


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        ProjPoint(Q, (0, 0, 0))
    with pytest.raises(ValueError, match="^expected exactly three homogeneous coordinates$"):
        ProjPoint(Q, (1, 2))


def test_point_and_line_hash_disjoint():
    assert ProjPoint(Q, (1, 2, 3)) != ProjLine(Q, (1, 2, 3))


def test_equal_lines_and_points_raise():
    l = ProjLine(Q, (1, 2, 3))
    with pytest.raises(NegarrError, match=r"^lines coincide: \(1:2:3\)$"):
        meet(l, ProjLine(Q, (2, 4, 6)))
    p = ProjPoint(Q, (1, 1, 1))
    with pytest.raises(NegarrError, match=r"^points coincide: \[1:1:1\]$"):
        join(p, ProjPoint(Q, (-1, -1, -1)))


def test_field_mismatch():
    with pytest.raises(NegarrError, match=r"^lines live over Q and GF\(3\)$"):
        meet(ProjLine(Q, (1, 0, 0)), ProjLine(PrimeField(3), (0, 1, 0)))
    with pytest.raises(NegarrError, match=r"^points live over GF\(3\) and Q$"):
        join(ProjPoint(PrimeField(3), (1, 0, 0)), ProjPoint(Q, (0, 1, 0)))
    with pytest.raises(NegarrError, match=r"^point over Q, line over GF\(3\)$"):
        incident(ProjPoint(Q, (1, 0, 0)), ProjLine(PrimeField(3), (0, 1, 0)))


def test_repr_brackets():
    assert repr(ProjPoint(Q, (2, 4, 6))) == "[1:2:3]"
    assert repr(ProjLine(Q, (0, -2, 1))) == "(0:1:-1/2)"
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    assert repr(ProjPoint(gf4, (0, 1, gf4.gen()))) == "[[0,0]:[1,0]:[0,1]]"
    assert repr(ProjLine(PrimeField(7), (3, 1, 0))) == "(1:5:0)"


def test_meet_computes_one_inverse(monkeypatch):
    # the generic path inverts the pivot once; the int kernels (Zech logs over
    # GF(4), fraction-free division over Q(zeta_3)) call no _inv at all
    calls = []
    inv = ExtensionField._inv

    def counting_inv(self, a):
        calls.append(self)  # the tower's inverse also inverts in its base
        return inv(self, a)

    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnvalidatedModulusWarning)
        tower = ExtensionField(gf4, [gf4.gen().value, [1], [1]])
    for field, inverses in ((tower, 1), (ExtensionField(Q, [Fraction(-1, 2), 0, 1]), 1),
                            (gf4, 0), (cyclotomic_field(3), 0)):
        w = field.gen()
        l1, l2 = ProjLine(field, (1, w, 0)), ProjLine(field, (0, 1, w))
        calls.clear()
        monkeypatch.setattr(ExtensionField, "_inv", counting_inv)
        p = meet(l1, l2)  # (w^2 : -w : 1), so the pivot w^2 is not 1
        monkeypatch.undo()
        assert calls.count(field) == inverses
        assert p.coords[0] == field.one and incident(p, l1) and incident(p, l2)


def test_gf2_meet():
    gf2 = PrimeField(2)
    a = ProjLine(gf2, (1, 1, 1))
    b = ProjLine(gf2, (0, 1, 1))
    p = meet(a, b)
    assert p == ProjPoint(gf2, (0, 1, 1))
    assert incident(p, a) and incident(p, b)


def test_incident():
    l = ProjLine(Q, (1, -1, 0))  # x = y
    assert incident(ProjPoint(Q, (1, 1, 5)), l)
    assert not incident(ProjPoint(Q, (1, 2, 0)), l)


def _random_line(rng):
    while True:
        coeffs = tuple(rng.randint(-5, 5) for _ in range(3))
        if any(coeffs):
            return ProjLine(Q, coeffs)


def test_meet_join_duality_random():
    rng = random.Random(314)
    for _ in range(200):
        a, b = _random_line(rng), _random_line(rng)
        if a == b:
            continue
        p = meet(a, b)
        assert incident(p, a) and incident(p, b)
        # the join of two distinct points of a line is the line itself
        q = _random_line(rng)
        if q in (a, b):
            continue
        r = meet(a, q)
        if r == p:
            continue
        assert join(p, r) == a


def test_sort_key_orders_distinct_objects():
    pts = [ProjPoint(Q, (1, i, 1)) for i in range(5)] + [ProjPoint(Q, (0, 1, 7))]
    ordered = sorted(pts, key=lambda p: p.sort_key())
    assert len(set(ordered)) == 6
    assert sorted(ordered, key=lambda p: p.sort_key()) == ordered


def _canonical_by_operators(elems):
    """The FieldElement formula for a canonical triple: divide by the pivot."""
    pivot = next(e for e in elems if e)
    return [e / pivot for e in elems]


def _cross_by_operators(u, v):
    (a1, b1, c1), (a2, b2, c2) = u, v
    return _canonical_by_operators([b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1])


_GF9 = ExtensionField(PrimeField(3), [1, 0, 1])
_FIELD_KINDS = {
    "q": (Q, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
    "gfp": (PrimeField(13), lambda rng: rng.randrange(13)),
    "gfpk": (_GF9, lambda rng: [rng.randrange(3), rng.randrange(3)]),
    "cyclo": (cyclotomic_field(12),
              lambda rng: [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]),
}


@pytest.mark.parametrize("kind", _FIELD_KINDS)
def test_raw_rep_arithmetic_matches_operator_formula(kind):
    field, entry = _FIELD_KINDS[kind]
    rng = random.Random(f"raw-{kind}")

    def triple(cls):
        while True:
            elems = [field.element(entry(rng)) for _ in range(3)]
            if any(elems):
                obj = cls(field, elems)
                stored = obj.coeffs if cls is ProjLine else obj.coords
                assert list(stored) == _canonical_by_operators(elems)
                return obj

    incidences = 0
    for _ in range(60):
        l1, l2, l3 = triple(ProjLine), triple(ProjLine), triple(ProjLine)
        if l1 == l2:
            continue
        p = meet(l1, l2)
        assert list(p.coords) == _cross_by_operators(l1.coeffs, l2.coeffs)
        assert [c.value for c in p.coords] == [c.value for c in _cross_by_operators(
            l1.coeffs, l2.coeffs)]
        for line in (l1, l2, l3):
            (x, y, z), (a, b, c) = p.coords, line.coeffs
            assert incident(p, line) == (not (a * x + b * y + c * z))
            incidences += incident(p, line)
        q = triple(ProjPoint)
        if q != p:
            assert list(join(p, q).coeffs) == _cross_by_operators(p.coords, q.coords)
            assert join(p, q) == join(q, p)
    assert incidences >= 100  # every meet lies on both its lines


def test_mixed_fields_raise_and_equal_fields_agree():
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    pairs = [(Q, cyclotomic_field(3)), (PrimeField(2), gf4), (PrimeField(5), PrimeField(7)),
             (gf4, ExtensionField(PrimeField(2), [1, 1, 0, 1]))]
    for f1, f2 in pairs:
        l1, l2 = ProjLine(f1, (1, 0, 0)), ProjLine(f2, (0, 1, 0))
        p1, p2 = ProjPoint(f1, (1, 0, 0)), ProjPoint(f2, (0, 1, 0))
        with pytest.raises(NegarrError, match=re.escape(f"lines live over {f1} and {f2}")):
            meet(l1, l2)
        with pytest.raises(NegarrError, match=re.escape(f"points live over {f1} and {f2}")):
            join(p1, p2)
        with pytest.raises(NegarrError, match=re.escape(f"point over {f1}, line over {f2}")):
            incident(p1, l2)
        assert ProjPoint(f1, (1, 1, 1)) != ProjPoint(f2, (1, 1, 1))
    for build in (RationalField, lambda: PrimeField(7), lambda: cyclotomic_field(12),
                  lambda: ExtensionField(PrimeField(3), [1, 0, 1])):
        f1, f2 = build(), build()
        assert f1 is not f2
        a = meet(ProjLine(f1, (1, 2, 3)), ProjLine(f1, (3, 1, 2)))
        b = meet(ProjLine(f2, (1, 2, 3)), ProjLine(f2, (3, 1, 2)))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert incident(a, ProjLine(f2, (1, 2, 3)))
