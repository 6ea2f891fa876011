import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negarr
from negarr.arrangement import CoordArrangement
from negarr.cli import main, parse_field, parse_input, render_coords, render_spectrum
from negarr.errors import InternalInconsistency, NegarrError
from negarr.fields import ExtensionField, PrimeField, RationalField
from negarr.projective import ProjLine, ProjPoint


# Q(zeta_12) and other fields whose modulus negarr cannot prove irreducible
# warn when built; the warning is no part of what these tests check
_QUIET = pytest.mark.filterwarnings("ignore::negarr.errors.UnvalidatedModulusWarning")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_field_descriptors():
    assert isinstance(parse_field("Q"), RationalField)
    gf = parse_field("GF 7")
    assert isinstance(gf, PrimeField) and gf.p == 7
    ext = parse_field("EXT Q [1,1,1]")
    assert isinstance(ext, ExtensionField)
    assert ext.describe() == "EXT Q [1,1,1]"
    gf4 = parse_field("EXT (GF 2) [1,1,1]")
    assert gf4.order == 4
    # descriptors survive a describe round trip
    assert parse_field(gf4.describe()) == gf4


@pytest.mark.parametrize("descriptor", [
    "", "GF", "GF x", "EXT Q", "EXT Q [1,1,1", "EXT Q 1,1,1]", "EXT (GF 2 [1,1,1]",
    "EXT Q []", "EXT Q [1,1/0,1]", "GF 7 8", "EXT ]",
    "GF 1000000000000000000000000000057",  # beyond the proven primality bound
])
def test_malformed_field_row_is_input_error(descriptor, tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text(f"field {descriptor}\nline 1 0 0\nline 0 1 0\n")
    code, out, err = _run(capsys, "analyze", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("text", [
    "field Q\nline 1 0 0\nline 0 1 0\nline 1 1 1\nt 3 5\n",
    "field Q\nline 1 0 0\nline 0 1 0\nline 1 1 1\norder 7\n",
    "field Q\nline 1 0 0\nline 0 1 0\nline 1 1 1\nprofile 2 9\n",
    "spectrum d=9\nt 3 12\nfield GF 5\n",
])
def test_rows_of_the_other_file_kind_are_input_errors(text, tmp_path, capsys):
    f = tmp_path / "mixed.txt"
    f.write_text(text)
    code, out, err = _run(capsys, "analyze", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_parse_input_spectrum_defaults():
    inp = parse_input("spectrum d=9\nt 3 12\n")
    sp = inp.spectrum
    assert sp.complete and not sp.real
    assert sp.t == {3: 12}
    flagged = parse_input("spectrum d=9\nt 3 12\nflags real complete\n")
    assert flagged.spectrum.real and flagged.spectrum.complete
    # a flags row is authoritative, and a spectrum is always complete
    with pytest.raises(NegarrError, match="^a spectrum file's flags row must list complete"):
        parse_input("spectrum d=9\nt 3 12\nflags real\n")


def test_parse_input_comments_and_notes():
    text = "# header\nspectrum d=6  # trailing\nt 2 3\nt 3 4\nflags real complete\nnote hello there\n"
    inp = parse_input(text)
    assert inp.notes == ["hello there"]
    assert inp.spectrum.t == {2: 3, 3: 4}


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "f4.txt"
    code, _, _ = _run(capsys, "generate", "fermat:4", "--out", str(out))
    assert code == 0
    inp = parse_input(out.read_text())
    assert inp.kind == "coordinates"
    assert inp.arrangement.d == 12
    code, text, _ = _run(capsys, "generate", "fermat:4", "--format", "spectrum")
    assert code == 0
    sp = parse_input(text).spectrum
    assert sp.t == {3: 16, 4: 3}
    assert sp.profile == {3: 4, 4: 1}


def test_generate_spectrum_flags_survive(tmp_path, capsys):
    code, text, _ = _run(capsys, "generate", "kgon:7")
    assert code == 0
    sp = parse_input(text).spectrum
    assert sp.real and sp.complete
    code, text, _ = _run(capsys, "generate", "pg2:3", "--format", "spectrum")
    sp = parse_input(text).spectrum
    assert sp.field_order == 3


def test_analyze_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("spectrum d=9\nt 3 12\nflags complete\n")
    code, out, _ = _run(capsys, "analyze", str(good))
    assert code == 0
    assert "status: ok" in out
    fake_real = tmp_path / "fake.txt"
    fake_real.write_text("spectrum d=9\nt 3 12\nflags real complete\n")
    code, out, _ = _run(capsys, "analyze", str(fake_real))
    assert code == 1
    assert "melchior: FAILS" in out
    broken = tmp_path / "broken.txt"
    broken.write_text("spectrum d=9\nt 3 11\nflags complete\n")
    code, _, err = _run(capsys, "analyze", str(broken))
    assert code == 2
    assert "identity" in err


def test_analyze_json_rationals(tmp_path, capsys):
    f = tmp_path / "wiman.txt"
    _run(capsys, "generate", "wiman", "--out", str(f))
    code, out, _ = _run(capsys, "analyze", str(f), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_full"]["h"] == {"num": -225, "den": 67}
    assert payload["spectrum"]["t"] == [[3, 120], [4, 45], [5, 36]]
    assert payload["status"] == 0
    kinds = {c["kind"]: c for c in payload["certificates"]}
    assert kinds["hirzebruch"]["slack"] == {"num": 9, "den": 1}
    assert kinds["melchior"]["e"] == {"num": -120, "den": 1}


def test_analyze_byte_deterministic(tmp_path, capsys):
    f = tmp_path / "k.txt"
    _run(capsys, "generate", "klein", "--out", str(f))
    outs = set()
    for _ in range(3):
        code, out, _ = _run(capsys, "analyze", str(f), "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_analyze_points_mode(tmp_path, capsys):
    arr = tmp_path / "tri.txt"
    arr.write_text("field Q\nline 1 0 0\nline 0 1 0\nline 0 0 1\nline 1 -1 0\n")
    pts = tmp_path / "pts.txt"
    pts.write_text("field Q\npoint 0 0 1\npoint 1 1 1\npoint 0 1 0\n")
    code, out, _ = _run(capsys, "analyze", str(arr), "--points", str(pts))
    assert code == 0
    assert "H given points = 2/3" in out
    assert "H restricted to singular points = 3/2" in out


def test_analyze_points_needs_coordinates(tmp_path, capsys):
    f = tmp_path / "sp.txt"
    f.write_text("spectrum d=9\nt 3 12\nflags complete\n")
    code, out, err = _run(capsys, "analyze", str(f), "--points", str(tmp_path / "missing.txt"))
    assert code == 2
    assert out == ""
    assert "needs a coordinates input" in err


def test_subconfig_rejects_points_file(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("field Q\npoint 0 0 1\n")
    for option in (("--formula", "3"), ("--pairs-meeting", "3"), ("--remove", "0")):
        code, _, err = _run(capsys, "subconfig", str(f), *option)
        assert code == 2
        assert "points file" in err
    code, _, err = _run(capsys, "search", str(f))
    assert code == 2
    assert "points file" in err


def test_coordinates_gate_names_the_input_kind(tmp_path, capsys):
    spectrum, points = tmp_path / "sp.txt", tmp_path / "pts.txt"
    spectrum.write_text("spectrum d=9\nt 3 12\n")
    points.write_text("field Q\npoint 0 0 1\n")
    for path, kind in ((spectrum, "a bare spectrum"), (points, "a points file")):
        assert _run(capsys, "search", str(path)) == \
            (2, "", f"error: search needs coordinates, not {kind}\n")
        assert _run(capsys, "subconfig", str(path), "--remove", "0") == \
            (2, "", f"error: removal by line index needs coordinates, not {kind}\n")
    assert _run(capsys, "analyze", str(spectrum), "--points", str(points)) == \
        (2, "", "error: --points FILE needs a coordinates input, not a bare spectrum\n")


def test_points_file_named_full_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("tri.txt").write_text("field Q\nline 1 0 0\nline 0 1 0\nline 0 0 1\nline 1 -1 0\n")
    Path("full").write_text("field Q\npoint 0 0 1\npoint 1 1 1\npoint 0 1 0\n")
    code, out, _ = _run(capsys, "analyze", "tri.txt", "--points", "full")
    assert code == 0
    assert "H given points = 2/3" in out


def test_points_input_with_points_option_meets_the_coordinates_gate(tmp_path, capsys):
    points = tmp_path / "pts.txt"
    points.write_text("field Q\npoint 0 0 1\n")
    assert _run(capsys, "analyze", str(points), "--points", str(points)) == \
        (2, "", "error: --points FILE needs a coordinates input, not a points file\n")


def test_degenerate_spectrum_with_another_h_fails_main_lower_bound(tmp_path, capsys):
    # two points on three of four lines: a quasi-pencil's case, but H = -1,
    # not -2 + 3/4, so no arrangement over any field has this spectrum
    f = tmp_path / "t32.txt"
    f.write_text("spectrum d=4\nt 3 2\n")
    code, out, _ = _run(capsys, "analyze", str(f))
    assert code == 1
    assert ("  main_lower_bound: FAILS; slack = 1/4 (0.25); bound = -5/4 (-1.25); "
            "not the H of a quasi-pencil: not realizable as a line arrangement\n") in out
    assert out.endswith("status: certificate failure\n")


# Makes the direct recomputation in `subconfig --remove` disagree with the
# incidence bookkeeping, then runs the CLI.
_INJECT_DISAGREEMENT = """
import dataclasses, sys
import negarr.cli as cli
real = cli.h_at_points
cli.h_at_points = lambda arr, pts: dataclasses.replace(real(arr, pts), h=real(arr, pts).h + 1)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_internal_inconsistency_exit_code_under_optimize(tmp_path, capsys):
    assert not issubclass(InternalInconsistency, (NegarrError, ValueError))
    f = tmp_path / "f3.txt"
    _run(capsys, "generate", "fermat:3", "--out", str(f))
    env = {**os.environ, "PYTHONPATH": str(Path(negarr.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", _INJECT_DISAGREEMENT,
                           "subconfig", str(f), "--remove", "0"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "consistent" not in proc.stdout
    assert "internal inconsistency: incidence bookkeeping" in proc.stderr


# Shifts H of the best subset when `search` rebuilds it, so that it disagrees
# with the H the removal walk computed from its counters.
_INJECT_SEARCH_DISAGREEMENT = """
import dataclasses, sys
import negarr.cli as cli
import negarr.search as search
real = search.h_full
search.h_full = lambda sp: dataclasses.replace(real(sp), h=real(sp).h + 1)
sys.exit(cli.main(sys.argv[1:]))
"""


def test_search_inconsistency_exit_code_under_optimize(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    _run(capsys, "generate", "kgon:4", "--format", "coords", "--out", str(f))
    env = {**os.environ, "PYTHONPATH": str(Path(negarr.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", _INJECT_SEARCH_DISAGREEMENT,
                           "search", str(f), "--max-remove", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal inconsistency:")


# Hands `search` a locus with one member dropped from its first point, so that
# the removal walk's pair count disagrees with C(d', 2).
_INJECT_PAIR_COUNT = """
import sys
import negarr.cli as cli
import negarr.search as search
from negarr.arrangement import IncidenceStructure
real = search.singular_points

def broken(arr):
    inc = real(arr)
    (key, members), *rest = inc.points
    points = [(key, members - {max(members)}), *rest]
    return IncidenceStructure(inc.line_labels, points, complete=False,
                              real=inc.real, field_order=inc.field_order)

search.singular_points = broken
sys.exit(cli.main(sys.argv[1:]))
"""


def test_search_pair_count_check_exit_code_under_optimize(tmp_path, capsys):
    f = tmp_path / "sq.txt"
    _run(capsys, "generate", "kgon:4", "--format", "coords", "--out", str(f))
    env = {**os.environ, "PYTHONPATH": str(Path(negarr.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", _INJECT_PAIR_COUNT,
                           "search", str(f), "--max-remove", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal inconsistency: removing lines")


_INJECT_SHARED_POINTS = """
import sys
import negarr.cli as cli
import negarr.search as search
from negarr.arrangement import IncidenceStructure
real = search.singular_points

def broken(arr):
    inc = real(arr)
    (key, members), *rest = inc.points
    extra = min(set(inc.line_labels) - members)
    points = [(key, members | {extra}), *rest]
    return IncidenceStructure(inc.line_labels, points, complete=False,
                              real=inc.real, field_order=inc.field_order)

search.singular_points = broken
sys.exit(cli.main(sys.argv[1:]))
"""


def test_search_meet_table_check_exit_code_under_optimize(tmp_path, capsys):
    # the first point gains a line that already meets each of its members
    # elsewhere, so those pairs of lines share two points
    f = tmp_path / "sq.txt"
    _run(capsys, "generate", "kgon:4", "--format", "coords", "--out", str(f))
    env = {**os.environ, "PYTHONPATH": str(Path(negarr.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-O", "-c", _INJECT_SHARED_POINTS,
                           "search", str(f), "--max-remove", "2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal inconsistency: lines ")
    assert "share two points" in proc.stderr


def test_subconfig_remove(tmp_path, capsys):
    f = tmp_path / "f3.txt"
    _run(capsys, "generate", "fermat:3", "--out", str(f))
    code, out, _ = _run(capsys, "subconfig", str(f), "--remove", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_over_original"]["h"] == {"num": -2, "den": 1}
    assert payload["h_over_new"]["h"] == {"num": -2, "den": 1}
    assert payload["formula_h"] == {"num": -2, "den": 1}
    assert payload["consistent"]


def test_subconfig_remove_all_rejected(tmp_path, capsys):
    f = tmp_path / "f3.txt"
    _run(capsys, "generate", "fermat:3", "--out", str(f))
    code, _, err = _run(capsys, "subconfig", str(f),
                        "--remove", ",".join(str(i) for i in range(9)))
    assert code == 2
    assert "every line" in err


def test_subconfig_remove_every_line_message(tmp_path, capsys):
    f = tmp_path / "tri.txt"
    f.write_text(_TRI)
    for removed in ("0,1,2", "2,1,0,1"):
        assert _run(capsys, "subconfig", str(f), "--remove", removed) == \
            (2, "", "error: cannot remove every line\n")


def test_subconfig_pairs_meeting_consistency(tmp_path, capsys):
    f = tmp_path / "f4.txt"
    _run(capsys, "generate", "fermat:4", "--out", str(f))
    code, out, _ = _run(capsys, "subconfig", str(f), "--pairs-meeting", "3")
    assert code == 0
    assert "direct removal of lines" in out
    assert "consistent" in out
    code, out, _ = _run(capsys, "subconfig", str(f), "--pairs-meeting", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["direct_pair"] is not None


def test_subconfig_formula_wiman(tmp_path, capsys):
    f = tmp_path / "w.txt"
    _run(capsys, "generate", "wiman", "--out", str(f))
    code, out, _ = _run(capsys, "subconfig", str(f), "--formula", "44", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h_formula"] == {"num": -220, "den": 67}
    assert payload["n"] == 16
    code, out, _ = _run(capsys, "subconfig", str(f), "--formula", "43,16", "--json")
    payload = json.loads(out)
    assert payload["h_formula"] == {"num": -215, "den": 67}


def test_subconfig_formula_needs_profile(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text("spectrum d=9\nt 3 12\nflags complete\n")
    code, _, err = _run(capsys, "subconfig", str(f), "--formula", "8")
    assert code == 2
    assert "points per line" in err
    code, out, _ = _run(capsys, "subconfig", str(f), "--formula", "8,4", "--json")
    assert code == 0
    assert json.loads(out)["h_formula"] == {"num": -2, "den": 1}


def test_search_fermat3(tmp_path, capsys):
    f = tmp_path / "f3.txt"
    _run(capsys, "generate", "fermat:3", "--out", str(f))
    code, out, _ = _run(capsys, "search", str(f), "--max-remove", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["best"]["removed"] == [0]
    assert payload["best"]["h"] == {"num": -2, "den": 1}
    assert payload["evaluated"] == 45


def test_search_deterministic_tie_break(tmp_path, capsys):
    f = tmp_path / "g6.txt"
    _run(capsys, "generate", "generic:6", "--out", str(f))
    outs = set()
    for _ in range(2):
        code, out, _ = _run(capsys, "search", str(f), "--max-remove", "3", "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    payload = json.loads(outs.pop())
    assert payload["best"]["removed"] == sorted(payload["best"]["removed"])


def test_search_budget(tmp_path, capsys):
    f = tmp_path / "p2.txt"
    _run(capsys, "generate", "pg2:2", "--out", str(f))
    code, _, err = _run(capsys, "search", str(f), "--max-remove", "6", "--budget", "10")
    assert code == 2
    assert "budget" in err
    code, _, err = _run(capsys, "search", str(f), "--max-remove", "2", "--budget", "15")
    assert code == 2
    assert "budget of 15" in err
    code, out, _ = _run(capsys, "search", str(f), "--max-remove", "2", "--budget", "50")
    assert code == 0


def test_search_options_ignore_the_environment(tmp_path, capsys, monkeypatch):
    # reports are byte-deterministic for identical inputs and flags, so no
    # environment variable named after an option may change a search
    f = tmp_path / "p2.txt"
    _run(capsys, "generate", "pg2:2", "--out", str(f))
    plain = _run(capsys, "search", str(f), "--max-remove", "2")
    for option in ("budget", "max_remove"):
        monkeypatch.setenv(f"NEGARR_{option.upper()}", "15")
    code, out, _ = _run(capsys, "search", str(f), "--max-remove", "2")
    assert code == 0
    assert "candidates: 28 within budget 10000000;" in out
    assert (code, out) == plain[:2]


def test_search_rejects_before_building_the_locus(tmp_path, capsys, monkeypatch):
    # --max-remove and the budget depend only on d, so they are checked first
    def no_locus(arr):
        raise AssertionError("singular locus built before the budget check")

    monkeypatch.setattr("negarr.search.singular_points", no_locus)
    f = tmp_path / "p2.txt"
    _run(capsys, "generate", "pg2:2", "--out", str(f))
    code, out, err = _run(capsys, "search", str(f), "--max-remove", "4", "--budget", "10")
    assert (code, out) == (2, "")
    assert err == "error: 98 candidate subsets exceed the budget of 10\n"
    one = tmp_path / "one.txt"
    one.write_text("field Q\nline 1 0 0\n")
    code, out, err = _run(capsys, "search", str(one))
    assert (code, out, err) == (2, "", "error: nothing to remove\n")


_TRI = "field Q\nline 1 0 0\nline 0 1 0\nline 0 0 1\n"
_SPEC = "spectrum d=9\nt 3 12\n"


_INPUT_ERRORS = {
    "spectrum-shape": ("spectrum 9\nt 3 12\n", ()),
    "t-arity": ("spectrum d=9\nt 3\n", ()),
    "profile-arity": (_SPEC + "profile 3\n", ()),
    "order-arity": (_SPEC + "order 9 9\n", ()),
    "order-not-prime-power": (_SPEC + "order 6\n", ()),
    "unknown-flag": (_SPEC + "flags real sorted\n", ()),
    "second-flags-row": (_SPEC + "flags real\nflags complete\n", ()),
    "second-field-row": ("field Q\nfield GF 5\nline 1 0 0\nline 0 1 0\n", ()),
    "second-spectrum-row": (_SPEC + "spectrum d=9\n", ()),
    "second-order-row": (_SPEC + "order 3\norder 9\n", ()),
    "second-t-row": (_SPEC + "t 3 12\n", ()),
    "second-profile-row": (_SPEC + "profile 3 4\nprofile 3 4\n", ()),
    "coords-flag-complete": (_TRI + "flags complete\n", ()),
    "coords-flags-real-complete": (_TRI + "flags real complete\n", ()),
    "points-flags-row": ("field Q\npoint 1 0 0\nflags real\n",
                         ("analyze", "{tri}", "--points", "{f}")),
    "spectrum-and-lines": (_SPEC + "line 1 0 0\n", ()),
    "no-t-rows": ("spectrum d=9\nflags complete\n", ()),
    "empty-input": ("# nothing here\n", ()),
    "lines-and-points": ("field Q\nline 1 0 0\npoint 0 1 0\n", ()),
    "no-field-row": ("line 1 0 0\nline 0 1 0\n", ()),
    "two-entry-row": ("field Q\nline 1 0\nline 0 1 0\n", ()),
    "catalog-parameter": (None, ("generate", "fermat:three")),
    "remove-list": (_TRI, ("subconfig", "{f}", "--remove", "0,x")),
    "remove-list-empty": (_TRI, ("subconfig", "{f}", "--remove", "")),
    "formula-arity": (_TRI, ("subconfig", "{f}", "--formula", "2,1,1")),
}


@pytest.mark.parametrize("text, argv", _INPUT_ERRORS.values(), ids=_INPUT_ERRORS)
def test_input_errors_through_main(text, argv, tmp_path, capsys):
    f, tri = tmp_path / "in.txt", tmp_path / "tri.txt"
    if text is not None:
        f.write_text(text)
    tri.write_text(_TRI)
    argv = [a.format(f=f, tri=tri) for a in argv] or ["analyze", str(f)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_input_error_messages(tmp_path, capsys):
    f = tmp_path / "in.txt"
    f.write_text(_SPEC + "flags real\nflags complete\n")
    assert _run(capsys, "analyze", str(f)) == \
        (2, "", "error: a file takes one flags row, listing every flag\n")
    for text, message in (("field Q\nfield GF 5\nline 1 0 0\n", "field row"),
                          (_SPEC + "spectrum d=12\n", "spectrum row"),
                          (_SPEC + "order 3\norder 9\n", "order row"),
                          (_SPEC + "t 3 0\n", "t row for multiplicity 3"),
                          (_SPEC + "profile 3 4\nprofile 03 4\n",
                           "profile row for multiplicity 3")):
        f.write_text(text)
        assert _run(capsys, "analyze", str(f)) == (2, "", f"error: a file takes one {message}\n")
    complete_flag = ("error: a coordinates file takes only the real flag; "
                     "complete belongs in a spectrum file\n")
    for flags in ("flags complete", "flags real complete", "flags complete real"):
        f.write_text(_TRI + flags + "\n")
        assert _run(capsys, "analyze", str(f)) == (2, "", complete_flag)
    f.write_text(_TRI + "flags real\n")
    assert _run(capsys, "analyze", str(f))[0] == 0
    points = tmp_path / "points.txt"
    points.write_text("field Q\npoint 1 0 0\nflags real\n")
    f.write_text(_TRI)
    assert _run(capsys, "analyze", str(f), "--points", str(points)) == \
        (2, "", "error: a points file takes no flags row\n")
    # even and beyond the primality bound: the small divisions answer first
    f.write_text("field GF 1000000000000000000000000000000\nline 1 0 0\nline 0 1 0\n")
    assert _run(capsys, "analyze", str(f)) == \
        (2, "", "error: 1000000000000000000000000000000 is not prime\n")


_Q_FOUR = "field Q\nline 1 0 0\nline 0 1 0\nline 0 0 1\nline 1 1 1\n"
_Q_FIVE = _Q_FOUR + "line 1 -1 0\n"
_PAIR_OF_THREE = ("error: need at least four lines to remove two: "
                  "one line left has no singular point\n")
_NO_NONZERO = "error: projective triple must have a nonzero coordinate\n"
_ERROR_MESSAGES = {
    "no-coordinate-model": (None, ("generate", "cubicgroup:9,9", "--format", "coords"),
                            "error: cubicgroup has no coordinate model\n"),
    "points-file-is-coordinates": (_TRI, ("analyze", "{f}", "--points", "{f}"),
                                   "error: {f} is not a points file\n"),
    "bad-element-literal": ("field GF 7\nline [1 0 1\nline 0 1 0\n", ("analyze", "{f}"),
                            "error: bad element literal '[1' for GF(7):"),
    "profiles-differ": (_Q_FIVE, ("subconfig", "{f}", "--pairs-meeting", "2"),
                        "error: per-line point profiles differ; "
                        "profile-based pair removal unavailable\n"),
    "spectrum-without-points": ("spectrum d=1\nt 2 0\n", ("analyze", "{f}"),
                                "error: spectrum has no points\n"),
    # a finite field embeds in no real field, so melchior must not apply
    "real-over-gf7": ("field GF 7\nline 1 0 0\nline 0 1 0\nline 0 0 1\nline 1 1 1\n"
                      "flags real\n", ("analyze", "{f}"),
                      "error: lines over the finite field GF(7) cannot be real\n"),
    "real-over-gf4": ("field EXT (GF 2) [1,1,1]\nline 1 0 0\nline 0 1 0\nline 0 0 1\n"
                      "flags real\n", ("search", "{f}", "--max-remove", "1"),
                      "error: lines over the finite field EXT (GF 2) [1,1,1] cannot be real\n"),
    "real-spectrum-with-order": ("spectrum d=4\nt 2 6\nflags real complete\norder 7\n",
                                 ("analyze", "{f}"),
                                 "error: a spectrum over the finite field of order 7 "
                                 "cannot be real\n"),
    "unbalanced-modulus": ("field EXT Q [[1,1]\nline 1 0 0\n", ("analyze", "{f}"),
                           "error: unbalanced brackets in '[1,1'\n"),
    "modulus-closed-early": ("field EXT Q [1]]\nline 1 0 0\n", ("analyze", "{f}"),
                             "error: unbalanced brackets in '1]'\n"),
    "vector-beyond-degree": ("field EXT (GF 2) [1,1,1]\nline [1,1,1] 0 1\n", ("analyze", "{f}"),
                             "error: bad element literal '[1,1,1]' for EXT (GF 2) [1,1,1]: "
                             "vector '[1,1,1]' longer than degree 2\n"),
    # removing two of three lines leaves one line and no singular point
    "pair-of-three-pencil": ("field Q\nline 1 0 0\nline 0 1 0\nline 1 1 0\n",
                             ("subconfig", "{f}", "--pairs-meeting", "3"), _PAIR_OF_THREE),
    "pair-of-triangle": (_TRI, ("subconfig", "{f}", "--pairs-meeting", "2"), _PAIR_OF_THREE),
    # one input error per rule the catalog, the fields and the locus check
    "kgon-too-small": (None, ("generate", "kgon:2"), "error: a polygon needs at least 3 sides\n"),
    "generic-too-small": (None, ("generate", "generic:1"),
                          "error: generic position needs at least 2 lines\n"),
    "pencil-too-small": (None, ("generate", "pencil:1"),
                         "error: a pencil needs at least 2 lines\n"),
    "fermat-too-small": (None, ("generate", "fermat:2"), "error: the family needs n >= 3\n"),
    "cubicgroup-too-small": (None, ("generate", "cubicgroup:2,1"),
                             "error: the construction needs at least 3 lines\n"),
    "cubicgroup-torsion": (None, ("generate", "cubicgroup:7,9"),
                           "error: torsion count w = 9 is impossible for group order 7\n"),
    "cubicgroup-non-integral": (None, ("generate", "cubicgroup:4,3"),
                                "error: t_3 = 5/3 is not an integer for (k, w) = (4, 3)\n"),
    "kgon-coords-beyond-four": (None, ("generate", "kgon:5", "--format", "coords"),
                                "error: rational coordinates are only provided for k = 4\n"),
    "pg2-not-prime-power": (None, ("generate", "pg2:6"), "error: 6 is not a prime power\n"),
    "gf-not-prime": ("field GF 4\nline 1 0 0\nline 0 1 0\n", ("analyze", "{f}"),
                     "error: 4 is not prime\n"),
    "reducible-modulus": ("field EXT (GF 2) [1,0,1]\nline 1 0 0\nline 0 1 0\n",
                          ("analyze", "{f}"), "error: [1,0,1] factors over GF(2)\n"),
    "one-line": ("field Q\nline 1 0 0\n", ("analyze", "{f}"),
                 "error: need at least two lines to intersect\n"),
    "pairs-meeting-absent": (_Q_FOUR, ("subconfig", "{f}", "--pairs-meeting", "3"),
                             "error: no point of multiplicity 3 in the spectrum\n"),
    "formula-zero-lines": (_Q_FOUR, ("subconfig", "{f}", "--formula", "0"),
                           "error: need 1 <= d' <= d, got d' = 0, d = 4\n"),
    # a zero row, on each meet path's _canonical; every literal is read
    # before any triple is built, so a bad literal after a zero row wins
    **{f"zero-line-{name}": (f"field {descriptor}\nline 0 0 0\nline 0 1 0\n", ("analyze", "{f}"),
                             _NO_NONZERO)
       for name, descriptor in (("q", "Q"), ("gf7", "GF 7"), ("zech-gf9", "EXT (GF 3) [1,0,1]"),
                                ("cyclo12", "EXT Q [1,0,-1,0,1]"),
                                ("ext-q-non-integral", "EXT Q [-1/2,0,1]"))},
    "zero-line-before-bad-literal": ("field Q\nline 0 0 0\nline x 0 0\n", ("analyze", "{f}"),
                                     "error: bad element literal 'x' for Q: "),
    # an integer field of a spectrum file that does not parse
    "bad-line-count": ("spectrum d=x\nt 2 1\n", ("analyze", "{f}"),
                       "error: bad line count 'x'\n"),
    "bad-count": ("spectrum d=2\nt 2 x\n", ("analyze", "{f}"), "error: bad count 'x'\n"),
    "bad-multiplicity": ("spectrum d=2\nt x 1\n", ("analyze", "{f}"),
                         "error: bad multiplicity 'x'\n"),
    "bad-field-order": ("spectrum d=2\nt 2 1\norder x\n", ("analyze", "{f}"),
                        "error: bad field order 'x'\n"),
    # a spectrum is a full singular locus, so its flags row must list complete
    "spectrum-flags-without-complete": (_SPEC + "flags real\n", ("analyze", "{f}"),
                                        "error: a spectrum file's flags row must list "
                                        "complete: a spectrum describes a full singular "
                                        "locus\n"),
}


@_QUIET
@pytest.mark.parametrize("text, argv, message", _ERROR_MESSAGES.values(), ids=_ERROR_MESSAGES)
def test_error_messages_through_main(text, argv, message, tmp_path, capsys):
    f = tmp_path / "in.txt"
    if text is not None:
        f.write_text(text)
    code, out, err = _run(capsys, *(a.format(f=f) for a in argv))
    assert (code, out) == (2, "")
    message = message.format(f=f)
    if message.endswith("\n"):
        assert err == message
    else:  # the rest is the Python parser's own wording
        assert err.startswith(message)


def test_zero_point_row_through_main(tmp_path, capsys):
    coords, points = tmp_path / "in.txt", tmp_path / "points.txt"
    coords.write_text(_TRI)
    points.write_text("field Q\npoint 1 1 1\npoint 0 0 0\n")
    assert _run(capsys, "analyze", str(coords), "--points", str(points)) == (2, "", _NO_NONZERO)


def test_missing_irreducible_polynomial_is_internal(monkeypatch, capsys):
    # GF(q) always has a monic irreducible polynomial of each degree, so not
    # finding one is a defect in negarr, reported as such
    monkeypatch.setattr("negarr.catalog.is_irreducible_mod_p", lambda field, coeffs: False)
    assert _run(capsys, "generate", "pg2:4") == \
        (3, "", "internal inconsistency: no monic irreducible polynomial "
                "of degree 2 over GF(2)\n")


def test_malformed_count_row_messages(tmp_path, capsys):
    f = tmp_path / "in.txt"
    for text, row in (("spectrum d=9\nt 3\n", "t 3"),
                      (_SPEC + "profile 3 4 4\n", "profile 3 4 4")):
        f.write_text(text)
        assert _run(capsys, "analyze", str(f)) == \
            (2, "", f"error: expected '{row.split()[0]} K COUNT', got {row!r}\n")


def test_module_entry_point(capsys):
    # python -m negarr runs cli.run, which exits with main's status
    env = {**os.environ, "PYTHONPATH": str(Path(negarr.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "negarr", "generate", "generic:4"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == _run(capsys, "generate", "generic:4")[1]
    proc = subprocess.run([sys.executable, "-m", "negarr", "analyze", "/nonexistent/path.txt"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:")


def test_missing_file_is_input_error(capsys):
    code, _, err = _run(capsys, "analyze", "/nonexistent/path.txt")
    assert code == 2
    assert "error:" in err


def test_unknown_catalog_item(capsys):
    code, _, err = _run(capsys, "generate", "nosuch:3")
    assert code == 2
    assert "unknown catalog name" in err


def test_wrong_arity(capsys):
    code, _, err = _run(capsys, "generate", "fermat")
    assert code == 2
    assert "takes parameters" in err


def test_module_entry_point_writes_the_catalog_note():
    env = {**os.environ, "PYTHONPATH": str(Path(negarr.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "negarr", "generate", "boroczky:6"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "t 3 4" in proc.stdout
    assert "note" in proc.stdout


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once, at import; a request only parses with it
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    f = tmp_path / "f3.txt"
    assert _run(capsys, "generate", "fermat:3", "--out", str(f))[0] == 0
    for argv in (("analyze", str(f)), ("analyze", str(f), "--json"),
                 ("subconfig", str(f), "--remove", "0"),
                 ("search", str(f), "--max-remove", "1")):
        assert _run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit):
        main(["search", str(f), "--max-remove", "x"])
    assert built == []


_USAGE_ERRORS = {
    "no-subcommand": ((), "required: command"),
    "subconfig-no-mode": (("subconfig", "{f}"),
                          "one of the arguments --remove --pairs-meeting --formula is required"),
    "subconfig-two-modes": (("subconfig", "{f}", "--remove", "0", "--formula", "3"),
                            "not allowed with argument"),
    "search-max-remove-not-int": (("search", "{f}", "--max-remove", "x"),
                                  "invalid int value: 'x'"),
    "generate-unknown-format": (("generate", "fermat:3", "--format", "svg"),
                                "invalid choice: 'svg'"),
}


@pytest.mark.parametrize("argv, message", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS)
def test_usage_errors(argv, message, tmp_path, capsys):
    # argparse wraps usage at the terminal width, so only substrings are fixed
    f = tmp_path / "tri.txt"
    f.write_text(_TRI)
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=f) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: negarr")
    assert "error:" in captured.err
    assert message in captured.err


def test_rejected_budget_does_not_carry_over(tmp_path, capsys):
    f = tmp_path / "f3.txt"
    _run(capsys, "generate", "fermat:3", "--out", str(f))
    code, out, err = _run(capsys, "search", str(f), "--budget", "5")
    assert (code, out) == (2, "")
    assert "budget of 5" in err
    code, out, _ = _run(capsys, "search", str(f), "--max-remove", "1", "--json")
    assert code == 0
    assert json.loads(out)["budget"] == 10_000_000


def test_points_option_does_not_carry_over(tmp_path, capsys):
    arr = tmp_path / "tri.txt"
    arr.write_text("field Q\nline 1 0 0\nline 0 1 0\nline 0 0 1\nline 1 -1 0\n")
    pts = tmp_path / "pts.txt"
    pts.write_text("field Q\npoint 0 0 1\npoint 1 1 1\n")
    # the same request as the first of a fresh process
    fresh = subprocess.run([sys.executable, "-m", "negarr", "analyze", str(arr)],
                           capture_output=True, text=True)
    assert fresh.returncode == 0
    code, out, _ = _run(capsys, "analyze", str(arr), "--points", str(pts))
    assert code == 0
    assert "H given points" in out
    assert _run(capsys, "analyze", str(arr)) == (0, fresh.stdout, "")


def test_help_between_requests(tmp_path, capsys):
    f = tmp_path / "f3.txt"
    _run(capsys, "generate", "fermat:3", "--out", str(f))
    argv = ("search", str(f), "--max-remove", "1", "--json")
    before = _run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: negarr")
    assert captured.err == ""
    assert _run(capsys, *argv) == before

def test_spectrum_render_parse_round_trip():
    from negarr.arrangement import abstract_spectrum
    sp = abstract_spectrum(45, {3: 120, 4: 45, 5: 36}, profile={3: 8, 4: 4, 5: 4})
    text = render_spectrum(sp, ["remark"])
    back = parse_input(text)
    assert back.spectrum == sp
    assert back.notes == ["remark"]


# one field per meet path: Q and GF(p) on ints, _ZechField, generic
# ExtensionField (an order above ZECH_MAX_ORDER, a non-integral EXT Q, a
# tower) and _IntegralField
_PARSE_FIELDS = {
    "q": "Q", "gf7": "GF 7", "zech-gf9": "EXT (GF 3) [1,0,1]",
    "generic-gf289": "EXT (GF 17) [14,0,1]", "cyclo12": "EXT Q [1,0,-1,0,1]",
    "ext-q-non-integral": "EXT Q [-1/2,0,1]",
    "gf16-over-gf4": "EXT (EXT (GF 2) [1,1,1]) [[0,1],[1,0],[1,0]]",
    "sqrt2": "EXT Q [-2,0,1]",
}


def _sample_triples(k):
    """Six distinct triples over k, some with a leftmost entry other than one
    and, over Q and its extensions, with non-integral entries."""
    x = k.gen() if isinstance(k, ExtensionField) else k.element(3)
    y = k.one / (x + 2)
    return [(1, 0, 0), (0, 1, 0), (1, x, -1), (x, y, 3), (0, x, 1), (x * x, 0, x + 1)]


def _assert_built_alike(parsed, expected):
    # the parse path skips _Triple.__init__, so check what it stores, not
    # only what == compares
    assert parsed == expected
    assert repr(parsed._r) == repr(expected._r)
    assert parsed.sort_key() == expected.sort_key()
    assert type(parsed.field) is type(expected.field)


@_QUIET
@pytest.mark.parametrize("descriptor", _PARSE_FIELDS.values(), ids=_PARSE_FIELDS)
def test_coords_render_parse_round_trip(descriptor):
    k = parse_field(descriptor)
    # Q(sqrt 2) embeds in R, so the flags row carries real
    real = descriptor == "EXT Q [-2,0,1]"
    arr = CoordArrangement([ProjLine(k, c) for c in _sample_triples(k)], real=real)
    text = render_coords(arr, ["a note"])
    rows = text.splitlines()
    assert rows[0] == f"field {descriptor}"
    if real:
        assert rows[-2:] == ["flags real", "note a note"]
    else:
        assert rows[-1] == "note a note" and "flags real" not in rows
    back = parse_input(text)
    assert back.kind == "coordinates"
    assert back.notes == ["a note"]
    assert back.arrangement.real == (real or descriptor == "Q")
    assert len(back.arrangement.lines) == len(arr.lines)
    for parsed, expected in zip(back.arrangement.lines, arr.lines):
        _assert_built_alike(parsed, expected)


@_QUIET
@pytest.mark.parametrize("descriptor", _PARSE_FIELDS.values(), ids=_PARSE_FIELDS)
def test_points_file_parses_as_the_public_constructor_builds(descriptor):
    # the literals are written as given, not scaled to a leftmost one, so
    # the parse path's _canonical does the scaling
    k = parse_field(descriptor)
    triples = _sample_triples(k)
    text = f"field {descriptor}\n" + "".join(
        "point " + " ".join(k.format_rep(k.element(c).value) for c in t) + "\n"
        for t in triples)
    back = parse_input(text)
    assert back.kind == "points"
    assert len(back.points) == len(triples)
    for parsed, t in zip(back.points, triples):
        _assert_built_alike(parsed, ProjPoint(k, t))


_ONE_CONVERSION_FIELDS = {
    "q": ("Q", "3/2"), "gf7": ("GF 7", "3"), "zech-gf9": ("EXT (GF 3) [1,0,1]", "[0,1]"),
    "cyclo12": ("EXT Q [1,0,-1,0,1]", "[1/2,1]"),
}


@_QUIET
@pytest.mark.parametrize("descriptor, a", _ONE_CONVERSION_FIELDS.values(),
                         ids=_ONE_CONVERSION_FIELDS)
def test_parsing_converts_each_literal_once(descriptor, a, monkeypatch):
    # parse_rep already gives the field's reps, so more rows must not make
    # more calls of the field class's own _coerce_rep; the field row's own
    # calls (such as Rabin's gen() over GF(3)) are the same in both files
    cls = type(parse_field(descriptor))
    coerce, calls = cls._coerce_rep, []

    def spy(self, v):
        calls.append(v)
        return coerce(self, v)

    monkeypatch.setattr(cls, "_coerce_rep", spy)
    rows = ["line 1 0 0", "line 0 1 0", "line 0 0 1", "line 1 1 1",
            f"line {a} 1 0", f"line 0 {a} 1"]
    counts = []
    for n in (2, 6):
        calls.clear()
        assert parse_input("\n".join([f"field {descriptor}", *rows[:n]])).arrangement.d == n
        counts.append(len(calls))
    assert counts[1] <= counts[0]
