"""Acceptance gate: one test per published claim, all at exact equality.

Each criterion prints one ACCEPTANCE line; under plain pytest the verbose
listing shows the same pass/fail per criterion.
"""

import itertools
import json
import random
from fractions import Fraction

from negarr.arrangement import (
    KEEP_ORIGINAL_POINTS,
    RESTRICT_TO_NEW_SINGULAR,
    CoordArrangement,
    PointSet,
    abstract_spectrum,
    equidistribution,
    remove_lines,
    singular_points,
    spectrum_of,
)
from negarr.catalog import catalog_entry, gen_fermat
from negarr.cli import main
from negarr.fields import EQUAL, RationalField
from negarr.negativity import (
    h_at_points,
    h_curve,
    h_fattened,
    h_full,
    h_quadratic,
    hirzebruch_check,
    main_lower_bound,
    mean_multiplicity_bound,
    melchior_check,
    real_identity_and_bound,
    subconfig_formula,
    wiman_pair_removal,
)
from negarr.projective import ProjLine

Q = RationalField()


def _spectrum(name, *params):
    entry = catalog_entry(name)
    obj = entry.build(*params)
    if isinstance(obj, CoordArrangement):
        return spectrum_of(singular_points(obj))
    return obj


def _done(num, desc):
    print(f"ACCEPTANCE {num} PASS: {desc}")


def test_criterion_1_catalog_h_values():
    assert h_full(_spectrum("dualhesse")).h == Fraction(-9, 4)
    assert h_full(_spectrum("klein")).h == Fraction(-3)
    assert h_full(_spectrum("wiman")).h == Fraction(-225, 67)
    for d in (2, 5, 9):
        assert h_full(_spectrum("pencil", d)).h == 0
    for d in range(4, 21):
        assert h_full(_spectrum("quasipencil", d)).h == -2 + Fraction(3, d)
    for n in range(3, 9):
        assert h_full(_spectrum("fermat", n)).h == Fraction(-3 * n * n, n * n + 3)
    for k in range(3, 51):
        got = h_full(_spectrum("kgon", k)).h
        assert got == -3 + Fraction(4 * k + 6, k * k + k + 2), k
    for q in (2, 3, 4, 5, 7, 8, 9):
        assert h_full(_spectrum("pg2", q)).h == -q, q
    for k, w in ((3, 3), (6, 3), (9, 3), (12, 3), (9, 9), (18, 9),
                 (4, 1), (5, 1), (7, 1), (8, 1)):
        got = h_full(_spectrum("cubicgroup", k, w)).h
        assert got == -3 + Fraction(12 * k - 6 * w, k * k + 3 * k - 4 * w), (k, w)
    _done(1, "catalog H-constants match the published closed forms exactly")


def test_criterion_2_subconfigurations():
    wiman = _spectrum("wiman")
    h = h_full(wiman).h
    assert subconfig_formula(h, 45, 44, 16, 201) == Fraction(-220, 67)
    rep = wiman_pair_removal(3)
    assert rep.over_original.h == Fraction(-215, 67)
    assert rep.over_new.h == Fraction(-161, 50)
    assert rep.new_spectrum.t == {2: 14, 3: 113, 4: 45, 5: 28}
    assert wiman_pair_removal(4).over_original.h == Fraction(-215, 67)
    assert wiman_pair_removal(5).over_original.h == Fraction(-215, 67)
    # removal formula against honest recomputation, every single-line removal
    for n in range(3, 7):
        arr = gen_fermat(n)
        inc = singular_points(arr)
        sp = spectrum_of(inc)
        per_line = equidistribution(inc)
        assert per_line == n + 1
        h0 = h_full(sp).h
        for i in range(arr.d):
            kept = remove_lines(inc, [i], KEEP_ORIGINAL_POINTS)
            want = subconfig_formula(h0, arr.d, arr.d - 1, per_line, sp.s)
            assert h_quadratic(kept).h == want, (n, i)
    _done(2, "subconfiguration values and the removal formula agree with recomputation")


def test_criterion_3_certificates():
    klein = _spectrum("klein")
    rep = hirzebruch_check(klein)
    assert rep.applicable and rep.holds and rep.slack == 0
    assert hirzebruch_check(_spectrum("wiman")).slack == 9
    # complex-scope items: characteristic zero, enough lines, no near-pencil
    complex_items = [_spectrum("fermat", n) for n in range(3, 9)]
    complex_items += [_spectrum("cubicgroup", 12, 3), _spectrum("cubicgroup", 9, 9)]
    complex_items += [_spectrum("generic", r) for r in range(4, 10)]
    for sp in complex_items:
        c = hirzebruch_check(sp)
        assert c.applicable and c.holds
    # real items carry exact Melchior excess
    for k in range(3, 51):
        c = melchior_check(_spectrum("kgon", k))
        assert c.applicable and c.holds and c.e_slack == 0, k
    for k in (6, 12, 18, 24, 30, 36):
        c = melchior_check(_spectrum("boroczky", k))
        assert c.applicable and c.holds and c.e_slack == k - 6, k
    for r in range(3, 9):
        c = melchior_check(_spectrum("generic", r))
        assert c.applicable and c.holds and c.e_slack == r * (r - 1) // 2 - 3, r
    for d in (4, 7, 12):
        # near-pencils attain Melchior equality
        c = melchior_check(_spectrum("quasipencil", d))
        assert c.applicable and c.holds and c.e_slack == 0, d
    assert not melchior_check(_spectrum("pencil", 7)).applicable
    # complex arrangements violate Melchior and are flagged as unreal
    for name, e in (("klein", -24), ("wiman", -120), ("dualhesse", -3)):
        c = melchior_check(_spectrum(name))
        assert not c.applicable and c.e_slack == e and c.note is not None
    # the lower bound sits below every computed value and above -4
    char_zero = complex_items + [_spectrum("kgon", k) for k in (3, 8, 20)] + [
        _spectrum("boroczky", 12), klein, _spectrum("wiman"),
        _spectrum("quasipencil", 9), _spectrum("pencil", 9)]
    for sp in char_zero:
        b = main_lower_bound(sp)
        assert b.applicable and b.holds
        assert b.bound_value > -4
        assert h_full(sp).h >= b.bound_value
    assert main_lower_bound(_spectrum("wiman")).bound_value == Fraction(-228, 67)
    assert main_lower_bound(klein).bound_value == -3
    # full finite planes sit outside the complex certificates but meet q-bounds
    for q in (2, 3, 4):
        sp = _spectrum("pg2", q)
        assert not hirzebruch_check(sp).applicable
        assert not main_lower_bound(sp).applicable
        from negarr.negativity import finite_field_bound
        fb = finite_field_bound(sp, q)
        assert fb.applicable and fb.holds and fb.slack == 1
    _done(3, "certificates hold with exact slack on the whole catalog")


def _random_arrangement(rng):
    lines = []
    seen = set()
    d = rng.randint(3, 10)
    while len(lines) < d:
        coeffs = tuple(rng.randint(-4, 4) for _ in range(3))
        if not any(coeffs):
            continue
        line = ProjLine(Q, coeffs)
        if line in seen:
            continue
        seen.add(line)
        lines.append(line)
    return CoordArrangement(lines)


def test_criterion_4_random_property_sweep():
    rng = random.Random(987654)
    checked = 0
    for _ in range(1000):
        arr = _random_arrangement(rng)
        inc = singular_points(arr)
        sp = spectrum_of(inc)  # identity validation runs inside
        full = h_full(sp)      # the linear form, compared with the quadratic next
        assert h_quadratic(inc).h == full.h
        if not sp.is_pencil():
            assert sp.s >= sp.d  # de Bruijn-Erdos
        for k in (2, 5):
            assert h_fattened(sp, k) == k * k * full.h
        # no point subset undercuts the full-locus value in characteristic zero
        points = [key for key, _ in inc.points]
        for _ in range(2):
            size = rng.randint(1, len(points))
            subset = PointSet(rng.sample(points, size))
            assert h_at_points(arr, subset).h >= full.h
        mean = mean_multiplicity_bound(sp)
        assert mean.chain_holds
        uniform = len(set(sp.t)) == 1
        assert (mean.ordering == EQUAL) == uniform
        if not sp.is_pencil():
            ident = real_identity_and_bound(sp)
            assert ident.applicable and ident.holds
        assert h_curve(sp).infimum_attained == (full.h <= -1)
        checked += 1
    assert checked == 1000
    _done(4, "1000 random rational arrangements satisfy every structural invariant")


def test_criterion_5_boroczky_resolution():
    entry = catalog_entry("boroczky")
    sp = entry.build(6)
    assert h_full(sp).h == Fraction(-12, 7)
    # reported values follow the defining counts for the whole family
    for k in range(6, 97, 6):
        spk = entry.build(k)
        assert h_full(spk).h == -3 + Fraction(12 * k - 18, k * k + 3 * k - 12), k
        assert entry.expected_h(k) == h_full(spk).h
    assert entry.note and "-12/7" in entry.note
    _done(5, "boroczky family values follow the defining counts, discrepancy noted")


def test_criterion_6_asymptotics():
    fermat = [h_full(_spectrum("fermat", n)).h for n in range(3, 13)]
    for a, b in zip(fermat, fermat[1:]):
        assert b < a
    assert all(h > -3 for h in fermat)
    kgon = [h_full(_spectrum("kgon", k)).h for k in range(3, 61)]
    for a, b in zip(kgon, kgon[1:]):
        assert b < a
    assert all(h > -3 for h in kgon)
    bor = [h_full(_spectrum("boroczky", k)).h for k in range(6, 97, 6)]
    for a, b in zip(bor, bor[1:]):
        assert b < a
    assert all(h > -3 for h in bor)
    # the three families approach -3 from above
    assert fermat[-1] + 3 < Fraction(1, 10)
    assert kgon[-1] + 3 < Fraction(1, 10)
    assert bor[-1] + 3 < Fraction(1, 8)
    _done(6, "families decrease strictly toward the -3 frontier and never cross it")


def test_criterion_7_cli_contract(tmp_path, capsys):
    k_file = tmp_path / "klein.txt"
    assert main(["generate", "klein", "--out", str(k_file)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(k_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_full"]["h"] == {"num": -3, "den": 1}
    assert payload["status"] == 0
    # nonreal spectrum flagged real: certificate failure, exit 1
    fake = tmp_path / "fake.txt"
    fake.write_text("spectrum d=9\nt 3 12\nflags real complete\n")
    assert main(["analyze", str(fake)]) == 1
    capsys.readouterr()
    # identity violation: input error, exit 2
    broken = tmp_path / "broken.txt"
    broken.write_text("spectrum d=9\nt 3 11\nflags complete\n")
    assert main(["analyze", str(broken)]) == 2
    capsys.readouterr()
    # byte determinism
    outs = set()
    for _ in range(2):
        assert main(["analyze", str(k_file), "--json"]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1
    # generator notes survive the round trip into reports
    b_file = tmp_path / "bor.txt"
    assert main(["generate", "boroczky:6", "--out", str(b_file)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(b_file)]) == 0
    out = capsys.readouterr().out
    assert "-12/7" in out
    assert "notes:" in out
    # subconfiguration verbs reproduce the frozen values
    w_file = tmp_path / "wiman.txt"
    assert main(["generate", "wiman", "--out", str(w_file)]) == 0
    capsys.readouterr()
    assert main(["subconfig", str(w_file), "--pairs-meeting", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_over_original"]["h"] == {"num": -215, "den": 67}
    assert payload["h_over_new"]["h"] == {"num": -161, "den": 50}
    assert main(["subconfig", str(w_file), "--formula", "44", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h_formula"] == {"num": -220, "den": 67}
    _done(7, "command line contract: round trips, exact reports, exit codes")
