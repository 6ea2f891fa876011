"""Command line interface: generate catalog items, analyze inputs, study
subconfigurations, and search removals.

File formats (on every row, a # and everything after it are dropped, a note
row's text included; rows left blank are ignored):

Coordinates:
    field Q                     or: field GF 7
                                    field EXT Q [1,1,1]
                                    field EXT (GF 2) [1,1,1]
    line 1 0 -1                 one row per line, three exact literals
    flags real                  optional; rational coordinates are always real,
                                and finite-field ones never
    note free text              optional, repeatable; ends at the first #

Spectrum:
    spectrum d=45
    t 3 120                     one row per multiplicity
    profile 3 8                 optional per-line profile rows
    flags real complete         must list complete (a spectrum is a full
                                singular locus); when omitted: not real
    order 9                     coordinate field size (a prime power), when finite;
                                with it the real flag is an input error
    note free text              optional, repeatable; ends at the first #

Points (for analyze --points FILE, with a coordinates input; without --points,
analyze evaluates the full singular locus):
    field Q
    point 1 1 1

A row of the other kind (field in a spectrum file; t, profile or order in a
coordinates or points file) is an input error, and so is a repeated row: a
second field, spectrum, flags or order row, or a second t or profile row for
the same multiplicity.  No later row replaces an earlier one; the one flags
row lists every flag.  A flag that means nothing for the file kind is an
input error too: a coordinates file takes only real (its locus is always
complete), and a points file takes no flags row.

Element literals: rationals like -3 or 5/6, prime-field residues like 4,
extension elements as coefficient vectors like [0,1] (no spaces inside).

Every rational in a report is printed exactly and as a 4-significant-digit
decimal; --json mirrors the report with rationals as {"num": p, "den": q}.
Reports are byte-deterministic for identical inputs and flags.

Exit codes: 0 all applicable certificates hold, 1 some applicable
certificate fails, 2 input error, 3 internal inconsistency (two exact routes
to the same value disagree, a defect in negarr rather than in the input).
The search budget defaults to 10^7 candidate subsets and can be overridden
with --budget.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .arrangement import (
    KEEP_ORIGINAL_POINTS,
    RESTRICT_TO_NEW_SINGULAR,
    CoordArrangement,
    PointSet,
    Spectrum,
    equidistribution,
    multiplicities,
    remove_lines,
    singular_points,
    spectrum_of,
)
from .catalog import catalog_entry
from .errors import EmptyResult, InternalInconsistency, NegarrError
from .fields import Field, RationalField, parse_field
from .negativity import (
    CertificateReport,
    HReport,
    MeanComparison,
    certificates_for,
    h_at_points,
    h_curve,
    h_full,
    h_of_multiplicities,
    h_quadratic,
    mean_multiplicity_bound,
    pair_removal_from_profile,
    subconfig_formula,
)
from .projective import ProjLine, ProjPoint
from .search import search_removals

DEFAULT_BUDGET = 10_000_000


# ---- rational rendering ----

def fmt_q(value) -> str:
    fr = Fraction(value)
    return f"{fr} ({float(fr):.4g})"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


_ORDER_NAMES = {-1: "less", 0: "equal", 1: "greater"}


# ---- input files ----

class InputFile:
    __slots__ = ("kind", "arrangement", "spectrum", "points", "notes")

    def __init__(self, kind, arrangement=None, spectrum=None, points=None, notes=()):
        self.kind = kind
        self.arrangement = arrangement
        self.spectrum = spectrum
        self.points = points
        self.notes = list(notes)


def parse_input(text: str) -> InputFile:
    field = None
    rows, notes = [], []  # rows: the tokens of each line and point row
    spec_d = None
    t, profile = {}, {}
    real, complete, order, flagged = False, True, None, False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "note":
            notes.append(line[len("note"):].strip())
        elif key == "field":
            _once(field is not None, "field row")
            field = parse_field(line[len("field"):])
        elif key in ("line", "point"):
            rows.append(tokens)
        elif key == "spectrum":
            if len(tokens) != 2 or not tokens[1].startswith("d="):
                raise NegarrError(f"expected 'spectrum d=N', got {line!r}")
            _once(spec_d is not None, "spectrum row")
            spec_d = _int_of(tokens[1][2:], "line count")
        elif key in ("t", "profile"):
            if len(tokens) != 3:
                raise NegarrError(f"expected '{key} K COUNT', got {line!r}")
            counts = t if key == "t" else profile
            k = _int_of(tokens[1], "multiplicity")
            _once(k in counts, f"{key} row for multiplicity {k}")
            counts[k] = _int_of(tokens[2], "count")
        elif key == "flags":
            _once(flagged, "flags row, listing every flag")
            flagged = True
            real = "real" in tokens[1:]
            complete = "complete" in tokens[1:]
            for tok in tokens[1:]:
                if tok not in ("real", "complete"):
                    raise NegarrError(f"unknown flag {tok!r}")
        elif key == "order":
            if len(tokens) != 2:
                raise NegarrError(f"expected 'order Q', got {line!r}")
            _once(order is not None, "order row")
            order = _int_of(tokens[1], "field order")
        else:
            raise NegarrError(f"unknown directive {key!r}")
    if spec_d is not None:
        if rows:
            raise NegarrError("a file holds either a spectrum or coordinates, not both")
        if field is not None:
            raise NegarrError("a spectrum file takes no field row")
        if not t:
            raise NegarrError("spectrum block has no t rows")
        if not complete:
            raise NegarrError("a spectrum file's flags row must list complete: "
                              "a spectrum describes a full singular locus")
        sp = Spectrum(spec_d, t, real=real, profile=profile or None, field_order=order)
        return InputFile("spectrum", spectrum=sp, notes=notes)
    if not rows:
        raise NegarrError("input holds no lines, points, or spectrum")
    if t or profile or order is not None:
        raise NegarrError("t, profile and order rows belong in a spectrum file")
    kind = rows[0][0]
    if any(row[0] != kind for row in rows):
        raise NegarrError("a file holds either line rows or point rows, not both")
    if flagged and kind == "point":
        raise NegarrError("a points file takes no flags row")
    if flagged and complete:
        raise NegarrError("a coordinates file takes only the real flag; "
                          "complete belongs in a spectrum file")
    if field is None:
        raise NegarrError(f"{kind} rows need a field row")
    # every literal is read before a zero row can raise
    triples = [_triple(field, row) for row in rows]
    cls = ProjPoint if kind == "point" else ProjLine
    built = [cls._of_canonical(field, field._canonical(reps)) for reps in triples]
    if kind == "point":
        return InputFile("points", points=PointSet(built), notes=notes)
    return InputFile("coordinates", arrangement=CoordArrangement(built, real=real),
                     notes=notes)


def _triple(field: Field, row):
    """The field's reps of the three element literals (the syntax format_rep
    emits) of a 'line' or 'point' row, as the tuple _canonical takes."""
    if len(row) != 4:
        raise NegarrError(f"{row[0]} rows need three entries, got {row[1:]}")
    reps = []
    for token in row[1:]:
        try:
            reps.append(field.parse_rep(token))
        except ValueError as exc:
            raise NegarrError(f"bad element literal {token!r} for {field!r}: {exc}") from None
    return tuple(reps)


def _once(seen: bool, row: str):
    if seen:
        raise NegarrError(f"a file takes one {row}")


def _int_of(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise NegarrError(f"bad {what} {text!r}") from None


def read_input(path: str) -> InputFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_input(fh.read())


def render_coords(arr: CoordArrangement, notes=()) -> str:
    rows = [f"field {arr.field.describe()}"]
    for l in arr.lines:
        rows.append("line " + " ".join(arr.field.format_rep(c.value) for c in l.coeffs))
    if arr.real and not isinstance(arr.field, RationalField):
        rows.append("flags real")
    for note in notes:
        rows.append(f"note {note}")
    return "\n".join(rows) + "\n"


def render_spectrum(sp: Spectrum, notes=()) -> str:
    rows = [f"spectrum d={sp.d}"]
    for key, counts in (("t", sp.t), ("profile", sp.profile or {})):
        rows.extend(f"{key} {k} {v}" for k, v in sorted(counts.items()))
    rows.append("flags real complete" if sp.real else "flags complete")
    if sp.field_order is not None:
        rows.append(f"order {sp.field_order}")
    for note in notes:
        rows.append(f"note {note}")
    return "\n".join(rows) + "\n"


# ---- report pieces ----
#
# Each command builds its report once: text lines plus a JSON payload holding
# the exact objects.  _json writes a payload as JSON; _json_default gives the
# shape of each exact report object and _json writes a Fraction itself.

# type -> JSON text of a leaf.  Exact types only: bool is not looked up as int.
_JSON_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(obj, nl: str = "\n") -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2) returns, with a
    Fraction as {"num": p, "den": q} and other report objects in the shape
    _json_default gives.  Written directly, since with indent set Python before
    3.13 runs the stdlib's pure-Python encoder.  nl is the newline and indent
    of obj's own nesting level.  A float, a set or a non-str key raises
    TypeError."""
    kind = type(obj)
    leaf = _JSON_LEAF.get(kind)
    if leaf is not None:
        return leaf(obj)
    inner = nl + "  "
    if kind is Fraction:
        return f'{{{inner}"den": {obj.denominator},{inner}"num": {obj.numerator}{nl}}}'
    if kind is dict:
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in sorted(obj.items())]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items = [_json(v, inner) for v in obj]
        brackets = "[]"
    else:
        return _json(_json_default(obj), nl)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _json_default(obj):
    """JSON form of the exact report objects other than Fraction."""
    if isinstance(obj, Spectrum):
        return {"d": obj.d, "s": obj.s, "t": sorted(obj.t.items()),
                "profile": None if obj.profile is None else sorted(obj.profile.items()),
                "real": obj.real, "complete": obj.complete, "field_order": obj.field_order}
    if isinstance(obj, CertificateReport):
        return {"kind": obj.kind, "applicable": obj.applicable, "holds": obj.holds,
                "slack": obj.slack, "reason": obj.reason, "bound": obj.bound_value,
                "e": obj.e_slack, "note": obj.note}
    if isinstance(obj, MeanComparison):
        return {**vars(obj), "ordering": _ORDER_NAMES[obj.ordering]}
    if isinstance(obj, HReport):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} has no report encoding")


def _h_text(label: str, rep) -> str:
    return (f"{label} = {fmt_q(rep.h)}  [{rep.formula}; d={rep.d}, s={rep.s}, "
            f"sum_m={rep.sum_m}, sum_m_sq={rep.sum_m_sq}, mbar={fmt_q(rep.mbar)}]")


def _cert_text(c: CertificateReport) -> str:
    head = f"{c.kind}: "
    head += "holds" if (c.applicable and c.holds) else (
        f"not applicable ({c.reason})" if not c.applicable else "FAILS")
    parts = [head, f"slack = {fmt_q(c.slack)}"]
    if c.bound_value is not None:
        parts.append(f"bound = {fmt_q(c.bound_value)}")
    if c.e_slack is not None:
        parts.append(f"e = {fmt_q(c.e_slack)}")
    if c.note:
        parts.append(c.note)
    return "; ".join(parts)


def _spectrum_line(label: str, sp: Spectrum) -> str:
    return f"{label}: " + "  ".join(f"t_{k}={v}" for k, v in sorted(sp.t.items()))


def _input_line(path: str, inp: InputFile) -> str:
    if inp.arrangement is None:
        return f"input: {path} (abstract spectrum)"
    return f"input: {path} (coordinates over {inp.arrangement.field.describe()})"


def _locus(inp: InputFile):
    """(incidence structure or None, spectrum, points per line or None)."""
    if inp.kind == "points":
        raise NegarrError("a points file cannot be analyzed on its own")
    if inp.kind == "coordinates":
        inc = singular_points(inp.arrangement)
        return inc, spectrum_of(inc), equidistribution(inc)
    sp = inp.spectrum
    return None, sp, None if sp.profile is None else equidistribution(sp)


def _coordinates(inp: InputFile, need: str) -> CoordArrangement:
    """The arrangement of a coordinates input; need says what asks for it."""
    if inp.kind != "coordinates":
        kind = "a bare spectrum" if inp.kind == "spectrum" else "a points file"
        raise NegarrError(f"{need}, not {kind}")
    return inp.arrangement


def _certificates(lines: list, payload: dict, certs, heading: str) -> int:
    """Add the certificate block to both renderings; return the exit status."""
    if certs:
        lines.append(heading)
        lines.extend("  " + _cert_text(c) for c in certs)
    payload["certificates"] = certs
    return 1 if any(c.applicable and not c.holds for c in certs) else 0


def _emit(args, lines: list, payload: dict, status: int = 0) -> int:
    """Write the report with its source and status, as text or JSON; return status."""
    if args.json:
        payload = {**payload, "source": args.path, "status": status}
        sys.stdout.write(_json(payload) + "\n")
    else:
        status_line = f"status: {'ok' if status == 0 else 'certificate failure'}"
        sys.stdout.write("\n".join(lines + [status_line]) + "\n")
    return status


# ---- commands ----

def _parse_item(item: str):
    name, _, rest = item.partition(":")
    entry = catalog_entry(name)
    if rest:
        try:
            params = tuple(int(x) for x in rest.split(","))
        except ValueError:
            raise NegarrError(f"catalog parameters must be integers: {rest!r}") from None
    else:
        params = ()
    if len(params) != entry.arity:
        names = ",".join(entry.param_names) or "none"
        raise NegarrError(f"{name} takes parameters ({names}), got {len(params)}")
    return entry, params


def cmd_generate(args) -> int:
    entry, params = _parse_item(args.item)
    fmt = args.format or ("coords" if entry.kind == "coordinates" else "spectrum")
    notes = [entry.note] if entry.note else []
    if fmt == "coords":
        if entry.kind == "coordinates":
            arr = entry.build(*params)
        elif entry.coords is not None:
            arr = entry.coords(*params)
        else:
            raise NegarrError(f"{entry.name} has no coordinate model")
        content = render_coords(arr, notes)
    else:
        obj = entry.build(*params)
        sp = obj if isinstance(obj, Spectrum) else spectrum_of(singular_points(obj))
        content = render_spectrum(sp, notes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(content)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(content)
    return 0


def _analyze_points(args, inp: InputFile) -> int:
    arr = _coordinates(inp, "--points FILE needs a coordinates input")
    pts_inp = read_input(args.points)
    if pts_inp.kind != "points":
        raise NegarrError(f"{args.points} is not a points file")
    pts = pts_inp.points
    counts = multiplicities(arr, pts)
    given = h_of_multiplicities(arr.d, counts)
    h = {"given points": given}
    notes = []
    singular = [m for m in counts if m >= 2]
    if singular:
        restricted = h_of_multiplicities(arr.d, singular)
        h["restricted to singular points"] = restricted
        if given.h <= -1 and restricted.h <= given.h:
            notes.append("restriction to singular points did not increase H")
    else:
        notes.append("none of the given points is singular")
    lines = [f"{_input_line(args.path, inp)}, {len(pts)} given points"]
    lines.extend(_h_text(f"H {label}", rep) for label, rep in h.items())
    lines.extend(f"note: {n}" for n in notes)
    payload = {"field": arr.field.describe(), "h": h, "notes": notes}
    return _emit(args, lines, payload)


def cmd_analyze(args) -> int:
    inp = read_input(args.path)
    if args.points is not None:
        return _analyze_points(args, inp)
    _, sp, per_line = _locus(inp)
    full = h_full(sp)
    curve = h_curve(sp)
    mean = mean_multiplicity_bound(sp)
    notes = list(inp.notes)

    lines = [_input_line(args.path, inp), f"d = {sp.d}  s = {sp.s}",
             _spectrum_line("spectrum", sp)]
    if sp.profile:
        lines.append("per-line profile: "
                     + "  ".join(f"{k}:{v}" for k, v in sorted(sp.profile.items())))
    if per_line is not None:
        lines.append(f"points per line: {per_line}")
    flag_bits = [f"real: {_yn(sp.real)}", f"complete: {_yn(sp.complete)}"]
    if sp.field_order is not None:
        flag_bits.append(f"field order: {sp.field_order}")
    lines += ["  ".join(flag_bits), _h_text("H full locus", full),
              f"H curve = {fmt_q(curve.h)}; infimum h <= -1 attained: "
              f"{_yn(curve.infimum_attained)}",
              f"mean bound: mbar = {fmt_q(mean.mbar)}, c = {fmt_q(mean.c)}, "
              f"ordering = {_ORDER_NAMES[mean.ordering]}, "
              f"chain holds: {_yn(mean.chain_holds)}"]
    payload = {"field": None if inp.arrangement is None else inp.arrangement.field.describe(),
               "spectrum": sp, "points_per_line": per_line, "h_full": full,
               "h_curve": curve, "mean_check": mean, "notes": notes}
    status = _certificates(lines, payload, certificates_for(sp), "certificates:")
    if notes:
        lines.append("notes:")
        lines.extend(f"  - {n}" for n in notes)
    return _emit(args, lines, payload, status)


def _parse_indices(text: str, d: int):
    try:
        indices = sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise NegarrError(f"bad index list {text!r}") from None
    for i in indices:
        if not 0 <= i < d:
            raise NegarrError(f"line index {i} out of range 0..{d - 1}")
    return indices


def _subconfig_remove(args, inp: InputFile) -> int:
    arr = _coordinates(inp, "removal by line index needs coordinates")
    inc, sp0, per_line = _locus(inp)
    removed = _parse_indices(args.remove, arr.d)
    kept = remove_lines(inc, removed, KEEP_ORIGINAL_POINTS)
    h_orig = h_quadratic(kept)
    d_new = arr.d - len(removed)
    try:
        restricted = remove_lines(inc, removed, RESTRICT_TO_NEW_SINGULAR)
        sp_new = spectrum_of(restricted)
        h_new = h_full(sp_new)
    except EmptyResult:
        sp_new, h_new = None, None

    # direct recomputation from coordinates
    sub = arr.without(removed)
    direct = h_at_points(sub, [key for key, _ in inc.points])
    if direct.h != h_orig.h:
        raise InternalInconsistency("incidence bookkeeping disagrees with recomputation")
    if sub.d >= 2 and (sp_new is None
                       or {k: len(m) for k, m in singular_points(sub).points}
                       != {k: len(m) for k, m in restricted.points}):
        raise InternalInconsistency("restricted locus disagrees with recomputation")

    formula_val = None
    if per_line is not None:
        formula_val = subconfig_formula(h_full(sp0).h, arr.d, d_new, per_line, sp0.s)
        if formula_val != h_orig.h:
            raise InternalInconsistency("equidistributed removal formula disagrees")

    lines = [_input_line(args.path, inp),
             f"removed lines: {removed}  (d: {arr.d} -> {d_new})",
             _h_text("H over original locus", h_orig)]
    if h_new is not None:
        lines.append(_h_text("H over new singular locus", h_new))
        lines.append(_spectrum_line("new spectrum", sp_new) + f"  (s = {sp_new.s})")
    else:
        lines.append("new singular locus: empty (a single line remains)")
    if formula_val is not None:
        lines.append(f"formula route (n = {per_line}): {fmt_q(formula_val)}; "
                     "agrees with quadratic over original locus: yes")
    else:
        lines.append("formula route: skipped (lines carry varying point counts)")
    lines.append("direct recomputation: consistent")
    payload = {"removed": removed, "d": arr.d, "d_new": d_new, "h_over_original": h_orig,
               "h_over_new": h_new, "new_spectrum": sp_new, "formula_h": formula_val,
               "points_per_line": per_line, "consistent": True}
    certs = certificates_for(sp_new) if sp_new is not None else []
    status = _certificates(lines, payload, certs, "certificates (new singular locus):")
    return _emit(args, lines, payload, status)


def _subconfig_pairs(args, inp: InputFile) -> int:
    m = args.pairs_meeting
    inc, sp, _ = _locus(inp)
    if inc is not None and sp.profile is None:
        raise NegarrError(
            "per-line point profiles differ; profile-based pair removal unavailable")
    rep = pair_removal_from_profile(sp, m)
    direct_pair = None
    if inc is not None:
        direct_pair = next((sorted(members)[:2] for _, members in inc.points
                            if len(members) == m), None)
        if direct_pair is None:
            raise InternalInconsistency(f"profile has a multiplicity-{m} point, locus has none")
        kept = remove_lines(inc, direct_pair, KEEP_ORIGINAL_POINTS)
        if h_quadratic(kept).h != rep.over_original.h:
            raise InternalInconsistency("profile-based removal disagrees with direct removal")
        restricted = remove_lines(inc, direct_pair, RESTRICT_TO_NEW_SINGULAR)
        if spectrum_of(restricted).t != rep.new_spectrum.t:
            raise InternalInconsistency("profile-based spectrum disagrees with direct removal")

    lines = [_input_line(args.path, inp),
             f"pair removal at a multiplicity-{m} point  (d: {sp.d} -> {sp.d - 2})",
             _h_text("H over original locus", rep.over_original),
             _h_text("H over new singular locus", rep.over_new),
             _spectrum_line("new spectrum", rep.new_spectrum)
             + f"  (s = {rep.new_spectrum.s})"]
    if direct_pair is not None:
        lines.append(f"direct removal of lines {direct_pair}: consistent")
    payload = {"meeting_multiplicity": m, "d": sp.d, "d_new": sp.d - 2,
               "h_over_original": rep.over_original, "h_over_new": rep.over_new,
               "new_spectrum": rep.new_spectrum, "direct_pair": direct_pair}
    status = _certificates(lines, payload, certificates_for(rep.new_spectrum),
                           "certificates (new singular locus):")
    return _emit(args, lines, payload, status)


def _subconfig_formula_cmd(args, inp: InputFile) -> int:
    parts = args.formula.split(",")
    if len(parts) not in (1, 2):
        raise NegarrError(f"expected D or D,N after --formula, got {args.formula!r}")
    d_prime = _int_of(parts[0], "subconfiguration size")
    n_given = _int_of(parts[1], "points per line") if len(parts) == 2 else None
    _, sp, per_line = _locus(inp)
    n = n_given if n_given is not None else per_line
    if n is None:
        raise NegarrError("points per line unknown; give it explicitly as --formula D,N")
    h0 = h_full(sp).h
    value = subconfig_formula(h0, sp.d, d_prime, n, sp.s)

    lines = [f"input: {args.path}",
             f"formula route: d = {sp.d}, d' = {d_prime}, n = {n}, s = {sp.s}",
             f"H over original locus = h + (d-d')(n-1)/s = {fmt_q(value)}"]
    payload = {"d": sp.d, "d_prime": d_prime, "n": n, "s": sp.s,
               "h_full": h0, "h_formula": value}
    return _emit(args, lines, payload)


def cmd_subconfig(args) -> int:
    inp = read_input(args.path)
    if args.remove is not None:
        return _subconfig_remove(args, inp)
    if args.pairs_meeting is not None:
        return _subconfig_pairs(args, inp)
    return _subconfig_formula_cmd(args, inp)


def cmd_search(args) -> int:
    inp = read_input(args.path)
    arr = _coordinates(inp, "search needs coordinates")
    result = search_removals(arr, args.max_remove, args.budget)
    best = result["best"]
    lines = [_input_line(args.path, inp),
             f"search: removal subsets of size 1..{result['max_remove']} of {arr.d} lines; "
             "objective min-h",
             f"candidates: {result['candidates']} within budget {args.budget}; "
             f"evaluated {result['evaluated']}, "
             f"without singular points {result['no_singular']}, "
             f"prunable by lower bound {result['prunable']}"]
    payload = {"objective": "min-h", "budget": args.budget, **result}
    certs = []
    if best is None:
        lines.append("no subarrangement retains a singular point")
    else:
        sp_best = best["spectrum"]
        lines += [f"best removal: {best['removed']}  (d' = {best['d_new']})",
                  f"H over new singular locus = {fmt_q(best['h'])}",
                  _spectrum_line("new spectrum", sp_best) + f"  (s = {sp_best.s})"]
        certs = certificates_for(sp_best)
    status = _certificates(lines, payload, certs, "certificates (best subarrangement):")
    return _emit(args, lines, payload, status)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negarr",
        description="Exact negativity analysis of line arrangements in the projective plane.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a catalog item as a file")
    g.add_argument("item", help="catalog name, e.g. fermat:4, cubicgroup:12,3, klein")
    g.add_argument("--format", choices=("coords", "spectrum"), default=None,
                   help="output kind (default: the generator's natural kind)")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="full H-constant and certificate report")
    a.add_argument("path", help="coordinates or spectrum file")
    a.add_argument("--points", metavar="FILE",
                   help="evaluate over the points of FILE (default: the full singular locus)")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("subconfig", help="subconfiguration H values")
    s.add_argument("path")
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--remove", metavar="I,J,...",
                     help="remove lines by 0-based index (coordinates input)")
    grp.add_argument("--pairs-meeting", type=int, metavar="M",
                     help="remove two lines meeting at a multiplicity-M point "
                          "(needs a per-line profile)")
    grp.add_argument("--formula", metavar="D[,N]",
                     help="evaluate h + (d-d')(n-1)/s for d' = D")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_subconfig)

    r = sub.add_parser("search", help="minimize H over removal subsets")
    r.add_argument("path")
    r.add_argument("--max-remove", type=int, default=3, metavar="R")
    r.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help=f"candidate limit (default {DEFAULT_BUDGET})")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_search)
    return parser


# Built once per process, since building it costs about 1 ms, most of a small
# request.  Requests share nothing through it: parse_args returns a fresh
# Namespace on every call and writes usage and help to sys.stdout/sys.stderr
# as they are at that call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NegarrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3


def run():
    raise SystemExit(main())
