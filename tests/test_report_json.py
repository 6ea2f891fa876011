"""Differential test of the CLI's JSON writer.

negarr.cli._json must return exactly what
json.dumps(obj, sort_keys=True, indent=2, default=ref) returns, where ref
writes a Fraction as {"num": p, "den": q} and leaves every other exact report
object to _json_default.  Under Python 3.13 and later the stdlib encodes with
indent in C, so there the reference is a second implementation.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from negarr.arrangement import Spectrum
from negarr.cli import _json, _json_default, main
from negarr.negativity import (
    CertificateReport,
    MeanComparison,
    certificates_for,
    h_curve,
    h_full,
    mean_multiplicity_bound,
)

GOLDEN = Path(__file__).parent / "golden"


def _ref_default(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    return _json_default(obj)


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=_ref_default)


def _golden_stdout(path):
    text = path.read_text(encoding="utf-8")
    return text.split("--- stdout\n", 1)[1].split("--- stderr\n", 1)[0]


GOLDEN_JSON = sorted(p for p in GOLDEN.glob("*.json.golden") if _golden_stdout(p))


@pytest.mark.parametrize("path", GOLDEN_JSON, ids=lambda p: p.name.split(".")[0])
def test_golden_trees(path):
    tree = json.loads(_golden_stdout(path))
    assert _json(tree) == _reference(tree)


TRIANGLE = Spectrum(3, {2: 3}, real=True, profile={2: 2})
QUADRANGLE = Spectrum(6, {3: 4, 2: 3})  # the complete quadrangle

PLAIN = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "nested-empty": {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}},
    "tuples": ((1, 2), [(3, (4,))], {"t": (5, "x")}),
    "bools-beside-ints": [True, 1, False, 0, {"t": True, "one": 1, "f": False, "zero": 0}],
    "none": [None, {"n": None}],
    "ints": [-1, -(10 ** 40), 10 ** 29, 12345678901234567890123456789012345, 0],
    "key-order": {"b": 1, "a": 2, "B": 3, "_": 4, "aa": 5, "é": 6},
    "strings": ['say "hi"', "back\\slash", "tab\there", "nl\nand\rcr", "\x00\x01\x1f",
                "del\x7f", "café ✓ 中", "astral \U0001d53d \U0001f600", ""],
    "string-keys": {'"q"': 1, "\\": 2, "\t": 3, "é": 4, "\U0001d53d": 5},
    "deep": [[[[[1]]]], {"a": [{"b": [{"c": "d"}]}]}],
}


@pytest.mark.parametrize("obj", PLAIN.values(), ids=PLAIN)
def test_plain_values(obj):
    assert _json(obj) == _reference(obj)


EXACT = {
    "fraction-negative": Fraction(-7, 3),
    "fraction-integral": Fraction(4),
    "fraction-zero": Fraction(0),
    "fraction-big": Fraction(-(10 ** 31) - 1, 10 ** 30),
    "fractions-nested": {"h": [Fraction(1, 2), {"x": Fraction(-3)}]},
    "spectrum-profile": TRIANGLE,
    "spectrum-no-profile": QUADRANGLE,
    "certificate-none-fields": CertificateReport("k", False, False, Fraction(-1, 3),
                                                 reason="not applicable here"),
    "certificate-all-fields": CertificateReport("k", True, False, Fraction(-2, 5),
                                                bound_value=Fraction(1, 7),
                                                e_slack=Fraction(-4), note="a note"),
    "certificates": certificates_for(QUADRANGLE),
    "mean-less": MeanComparison(Fraction(5, 2), Fraction(3), -1, True),
    "mean-equal": MeanComparison(Fraction(3), Fraction(3), 0, True),
    "mean-greater": MeanComparison(Fraction(7, 2), Fraction(3), 1, False),
    "mean-computed": mean_multiplicity_bound(QUADRANGLE),
    "h-report": h_full(QUADRANGLE),
    "h-curve-report": h_curve(TRIANGLE),
    "payload": {"spectrum": TRIANGLE, "h_full": h_full(TRIANGLE), "notes": [],
                "certificates": certificates_for(TRIANGLE), "source": "x", "status": 0},
}


@pytest.mark.parametrize("obj", EXACT.values(), ids=EXACT)
def test_exact_types(obj):
    assert _json(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [1.5, {1, 2}, {1: "a"}, {"a": [0.5]}, [{2: 3}], object()],
                         ids=["float", "set", "int-key", "nested-float", "nested-int-key",
                              "object"])
def test_unencodable_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        _json(obj)


def test_notes_and_path_survive_json_reports(tmp_path, capsys):
    notes = ["café ✓ \U0001d53d", 'a "quoted" word', "back\\slash", "tab\tinside"]
    path = tmp_path / 'tri é "q" \\ \t.txt'
    path.write_text("field Q\nline 1 0 0\nline 0 1 0\nline 0 0 1\nline 1 -1 0\n"
                    + "".join(f"note {n}\n" for n in notes), encoding="utf-8")
    for argv, has_notes in ((["analyze"], True), (["subconfig", "--remove", "0"], False)):
        assert main([argv[0], str(path), *argv[1:], "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert out.isascii()
        assert payload["source"] == str(path)
        if has_notes:
            assert payload["notes"] == notes
