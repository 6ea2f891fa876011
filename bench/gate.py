"""Correctness gate: decides for every request whether its output is right.

A request passes when its exit code is the expected one and, where they
apply, when its output meets these checks:

- for the default seed, the stdout digest recorded at the seed commit;
- the reported spectrum satisfies sum C(k,2) t_k = C(d,2);
- the reported H equals (d^2 - sum m^2)/s and d/s - mbar, recomputed from
  the reported counts;
- for catalog items, the closed forms CatalogEntry.expected_h and
  expected_spectrum;
- for search, the best subset re-evaluated through the public
  remove_lines -> spectrum_of -> h_full chain.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb

from workloads import line_count, search_subsets


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _q(value) -> Fraction:
    """A rational as the JSON reports print it, or as parsed from text."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value["num"], value["den"])


def _t_of(spectrum: dict) -> dict:
    return {int(k): int(v) for k, v in spectrum["t"]}


_TEXT = {
    "ds": re.compile(r"^d = (\d+)  s = (\d+)$", re.M),
    "spectrum": re.compile(r"^spectrum: (.*)$", re.M),
    "h_full": re.compile(r"^H full locus = (\S+) \(.*?\)  \[full_locus_linear; d=(\d+), "
                         r"s=(\d+), sum_m=(\d+), sum_m_sq=(\d+), mbar=(\S+) ", re.M),
    "status": re.compile(r"^status: (ok|certificate failure)$", re.M),
}


def parse_analyze_text(out: str) -> dict:
    """The fields of a text `analyze` report that the gate checks, shaped as
    in the JSON report."""
    found = {key: rx.search(out) for key, rx in _TEXT.items()}
    missing = [key for key, m in found.items() if m is None]
    if missing:
        raise ValueError(f"text report lacks {', '.join(missing)}")
    d, s = int(found["ds"].group(1)), int(found["ds"].group(2))
    t = [[int(k), int(v)] for k, v in re.findall(r"t_(\d+)=(\d+)", found["spectrum"].group(1))]
    h, hd, hs, sum_m, sum_m_sq, mbar = found["h_full"].groups()
    return {
        "spectrum": {"d": d, "s": s, "t": t},
        "h_full": {"h": Fraction(h), "d": int(hd), "s": int(hs), "sum_m": int(sum_m),
                   "sum_m_sq": int(sum_m_sq), "mbar": Fraction(mbar)},
        "status": 0 if found["status"].group(1) == "ok" else 1,
    }


class Gate:
    """Checks requests against `program`, the negarr build under test.

    `digests` maps "<pass>/<request id>" to the sha256 of stdout recorded at
    the seed commit; it is empty for every seed but the default one.
    """

    def __init__(self, program, digests=None):
        self.program = program
        self.digests = digests or {}

    def check(self, req, pass_no: int, rc, out: str, err: str) -> list:
        """Problems found with one request's result; empty when it passed."""
        if rc != req.rc:
            return [f"exit code {rc}, expected {req.rc}: {err.strip()[:200]}"]
        problems = []
        expected = self.digests.get(f"{pass_no}/{req.rid}")
        if expected is not None and digest(out) != expected:
            problems.append("stdout differs from the digest recorded at the seed commit")
        if req.rc == 2:
            if out or not err.startswith("error: "):
                problems.append("an input error must print only 'error: ...' on stderr")
            return problems
        try:
            getattr(self, "_" + req.command)(req, out, problems)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError,
                self.program.NegarrError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        return problems

    # ---- shared checks ----

    @staticmethod
    def _identity(d: int, t: dict, problems: list, where: str) -> None:
        lhs = sum(comb(k, 2) * v for k, v in t.items())
        if lhs != comb(d, 2):
            problems.append(f"{where}: sum C(k,2) t_k = {lhs} but C(d,2) = {comb(d, 2)}")

    @staticmethod
    def _h_value(h: Fraction, d: int, t: dict, problems: list, where: str):
        """Check H against both forms recomputed from the counts."""
        s = sum(t.values())
        sum_m = sum(k * v for k, v in t.items())
        sum_m_sq = sum(k * k * v for k, v in t.items())
        if h != Fraction(d * d - sum_m_sq, s):
            problems.append(f"{where}: H {h} != (d^2 - sum m^2)/s")
        if h != Fraction(d, s) - Fraction(sum_m, s):
            problems.append(f"{where}: H {h} != d/s - mbar")
        return s, sum_m, sum_m_sq

    def _h(self, rep: dict, d: int, t: dict, problems: list, where: str) -> Fraction:
        h = _q(rep["h"])
        s, sum_m, sum_m_sq = self._h_value(h, d, t, problems, where)
        if (rep["d"], rep["s"], rep["sum_m"], rep["sum_m_sq"]) != (d, s, sum_m, sum_m_sq):
            problems.append(f"{where}: reported counts disagree with the spectrum")
        if _q(rep["mbar"]) != Fraction(sum_m, s):
            problems.append(f"{where}: mbar != sum m / s")
        return h

    def _spectrum_and_h(self, spectrum: dict, rep: dict, problems: list, where: str):
        d, t = spectrum["d"], _t_of(spectrum)
        self._identity(d, t, problems, where)
        return d, t, self._h(rep, d, t, problems, where)

    def _closed_forms(self, catalog, t: dict, h: Fraction, problems: list) -> None:
        name, params = catalog
        entry = self.program.catalog_entry(name)
        if dict(entry.expected_spectrum(*params)) != t:
            problems.append(f"{name}{params}: spectrum {t} != closed form")
        if entry.expected_h(*params) != h:
            problems.append(f"{name}{params}: H {h} != closed form {entry.expected_h(*params)}")

    @staticmethod
    def _status(report: dict, req, problems: list) -> None:
        if report["status"] != req.rc:
            problems.append(f"report status {report['status']} != exit code {req.rc}")

    # ---- per command ----

    def _analyze(self, req, out: str, problems: list) -> None:
        report = json.loads(out) if req.json else parse_analyze_text(out)
        self._status(report, req, problems)
        _, t, h = self._spectrum_and_h(report["spectrum"], report["h_full"], problems, "h_full")
        if req.catalog:
            self._closed_forms(req.catalog, t, h, problems)
        if req.rc == 1 and not any(c["applicable"] and not c["holds"]
                                   for c in report["certificates"]):
            problems.append("exit code 1 without a failing applicable certificate")

    def _subconfig(self, req, out: str, problems: list) -> None:
        report = json.loads(out)
        self._status(report, req, problems)
        flag, value = req.argv[2], req.argv[3]
        if flag == "--formula":
            parts = [int(x) for x in value.split(",")]
            d, d_prime, n, s = report["d"], report["d_prime"], report["n"], report["s"]
            if d_prime != parts[0] or (len(parts) == 2 and n != parts[1]):
                problems.append("formula parameters echoed wrongly")
            h0 = _q(report["h_full"])
            if _q(report["h_formula"]) != h0 + Fraction((d - d_prime) * (n - 1), s):
                problems.append("h_formula != h + (d-d')(n-1)/s")
            if req.catalog:
                name, params = req.catalog
                entry = self.program.catalog_entry(name)
                if (h0 != entry.expected_h(*params)
                        or s != sum(entry.expected_spectrum(*params).values())):
                    problems.append(f"{name}{params}: h or s != closed form")
            return
        removed = 2 if flag == "--pairs-meeting" else len(value.split(","))
        d_new = report["d"] - removed
        if report["d_new"] != d_new:
            problems.append(f"d_new {report['d_new']} != {d_new}")
        if flag == "--remove":
            if report["removed"] != sorted(int(x) for x in value.split(",")):
                problems.append("removed lines echoed wrongly")
            if report["consistent"] is not True:
                problems.append("removal routes reported inconsistent")
        orig = report["h_over_original"]
        if orig["d"] != d_new or _q(orig["h"]) != Fraction(d_new * d_new - orig["sum_m_sq"],
                                                           orig["s"]):
            problems.append("h_over_original != (d'^2 - sum m^2)/s")
        if report["new_spectrum"] is not None:
            self._spectrum_and_h(report["new_spectrum"], report["h_over_new"], problems,
                                 "h_over_new")

    def _search(self, req, out: str, problems: list) -> None:
        report = json.loads(out)
        self._status(report, req, problems)
        max_remove = int(req.argv[req.argv.index("--max-remove") + 1])
        if report["candidates"] != search_subsets(line_count(req.path), max_remove):
            problems.append(f"candidates {report['candidates']} != sum C(d, j)")
        best = report["best"]
        d_new, t, h = best["d_new"], _t_of(best["spectrum"]), _q(best["h"])
        if best["spectrum"]["d"] != d_new:
            problems.append("best spectrum d != d_new")
        self._identity(d_new, t, problems, "best")
        self._h_value(h, d_new, t, problems, "best")
        p = self.program
        with open(req.path, encoding="utf-8") as fh:
            inc = p.singular_points(p.cli.parse_input(fh.read()).arrangement)
        sp = p.spectrum_of(p.remove_lines(inc, best["removed"], p.RESTRICT_TO_NEW_SINGULAR))
        if dict(sp.t) != t or p.h_full(sp).h != h:
            problems.append(f"best removal {best['removed']} does not re-evaluate to the report")

    def _generate(self, req, out: str, problems: list) -> None:
        p = self.program
        parsed = p.cli.parse_input(out)
        if parsed.kind == "spectrum":
            sp = parsed.spectrum
        else:
            sp = p.spectrum_of(p.singular_points(parsed.arrangement))
        t = dict(sp.t)
        self._identity(sp.d, t, problems, "generated")
        h = Fraction(sp.d - sum(k * v for k, v in t.items()), sum(t.values()))
        self._closed_forms(req.catalog, t, h, problems)
