import random

import pytest

from negarr.errors import EqualLines, EqualPoints, FieldMismatch
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


def test_point_and_line_hash_disjoint():
    assert ProjPoint(Q, (1, 2, 3)) != ProjLine(Q, (1, 2, 3))


def test_equal_lines_and_points_raise():
    l = ProjLine(Q, (1, 2, 3))
    with pytest.raises(EqualLines, match=r"^lines coincide: \(1:2:3\)$"):
        meet(l, ProjLine(Q, (2, 4, 6)))
    p = ProjPoint(Q, (1, 1, 1))
    with pytest.raises(EqualPoints, match=r"^points coincide: \[1:1:1\]$"):
        join(p, ProjPoint(Q, (-1, -1, -1)))


def test_field_mismatch():
    with pytest.raises(FieldMismatch, match=r"^lines live over Q and GF\(3\)$"):
        meet(ProjLine(Q, (1, 0, 0)), ProjLine(PrimeField(3), (0, 1, 0)))
    with pytest.raises(FieldMismatch, match=r"^points live over GF\(3\) and Q$"):
        join(ProjPoint(PrimeField(3), (1, 0, 0)), ProjPoint(Q, (0, 1, 0)))
    with pytest.raises(FieldMismatch):
        incident(ProjPoint(Q, (1, 0, 0)), ProjLine(PrimeField(3), (0, 1, 0)))


def test_repr_brackets():
    assert repr(ProjPoint(Q, (2, 4, 6))) == "[1:2:3]"
    assert repr(ProjLine(Q, (0, -2, 1))) == "(0:1:-1/2)"
    gf4 = ExtensionField(PrimeField(2), [1, 1, 1])
    assert repr(ProjPoint(gf4, (0, 1, gf4.gen()))) == "[[0,0]:[1,0]:[0,1]]"
    assert repr(ProjLine(PrimeField(7), (3, 1, 0))) == "(1:5:0)"


def test_meet_computes_one_inverse(monkeypatch):
    calls = []
    inv = ExtensionField._inv

    def counting_inv(self, a):
        calls.append(a)
        return inv(self, a)

    for field in (ExtensionField(PrimeField(2), [1, 1, 1]), cyclotomic_field(3)):
        w = field.gen()
        l1, l2 = ProjLine(field, (1, w, 0)), ProjLine(field, (0, 1, w))
        calls.clear()
        monkeypatch.setattr(ExtensionField, "_inv", counting_inv)
        p = meet(l1, l2)  # (w^2 : -w : 1), so the pivot w^2 is not 1
        monkeypatch.undo()
        assert len(calls) == 1
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
        try:
            r = meet(a, q)
        except EqualLines:
            continue
        if r == p:
            continue
        assert join(p, r) == a


def test_sort_key_orders_distinct_objects():
    pts = [ProjPoint(Q, (1, i, 1)) for i in range(5)] + [ProjPoint(Q, (0, 1, 7))]
    ordered = sorted(pts, key=lambda p: p.sort_key())
    assert len(set(ordered)) == 6
    assert sorted(ordered, key=lambda p: p.sort_key()) == ordered
