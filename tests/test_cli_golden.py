"""Byte-identity of every CLI report branch, in text and in --json.

Each case runs `negarr.cli.main` on a committed input under
tests/golden/inputs/ and compares the exit code, stdout and stderr with
tests/golden/<case>.<text|json>.golden.  The inputs directory is written as
<inputs> in the golden files, so they do not depend on the checkout path.

After a deliberate change to a report, rewrite the golden files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import sys
import warnings
from pathlib import Path

import pytest

from negarr.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
PLACEHOLDER = "<inputs>"

CASES = {
    # analyze
    "analyze-spectrum": ["analyze", "{in}/wiman.txt"],
    "analyze-spectrum-fails": ["analyze", "{in}/klein-real.txt"],
    "analyze-q": ["analyze", "{in}/kgon4.txt"],
    "analyze-gfp": ["analyze", "{in}/pg2-3.txt"],
    "analyze-ext-gf2": ["analyze", "{in}/pg2-4.txt"],
    "analyze-cyclotomic": ["analyze", "{in}/fermat3.txt"],
    "analyze-points-singular": ["analyze", "{in}/tri.txt", "--points", "{in}/points-hit.txt"],
    "analyze-points-none-singular": ["analyze", "{in}/tri.txt", "--points", "{in}/points-miss.txt"],
    "analyze-points-gfp": ["analyze", "{in}/gf3-lines.txt", "--points", "{in}/points-gf3.txt"],
    "analyze-points-ext-gf2": ["analyze", "{in}/gf4-lines.txt", "--points", "{in}/points-gf4.txt"],
    "analyze-points-q": ["analyze", "{in}/q-lines.txt", "--points", "{in}/points-q.txt"],
    "analyze-points-not-increased": ["analyze", "{in}/kgon4.txt", "--points",
                                     "{in}/points-kgon4.txt"],
    # subconfig --remove
    "remove-equidistributed": ["subconfig", "{in}/fermat3.txt", "--remove", "0"],
    "remove-varying": ["subconfig", "{in}/kgon4.txt", "--remove", "0,5"],
    "remove-one-line-left": ["subconfig", "{in}/tri.txt", "--remove", "0,1,2"],
    # subconfig --pairs-meeting
    "pairs-spectrum": ["subconfig", "{in}/wiman.txt", "--pairs-meeting", "3"],
    "pairs-spectrum-fails": ["subconfig", "{in}/klein-real.txt", "--pairs-meeting", "4"],
    "pairs-coords": ["subconfig", "{in}/fermat3.txt", "--pairs-meeting", "3"],
    # its direct pair is the first point of the locus in sort-key order over Q,
    # ahead of a point with the same first numerator and a larger denominator
    "pairs-q": ["subconfig", "{in}/q-shuffled.txt", "--pairs-meeting", "2"],
    # subconfig --formula
    "formula-d": ["subconfig", "{in}/wiman.txt", "--formula", "44"],
    "formula-d-n": ["subconfig", "{in}/no-profile.txt", "--formula", "8,4"],
    # search
    "search-best": ["search", "{in}/fermat3.txt", "--max-remove", "2"],
    "search-best-real": ["search", "{in}/kgon4.txt", "--max-remove", "2"],
    "search-none-singular": ["search", "{in}/pencil2.txt"],
    "search-ext-r3": ["search", "{in}/pg2-4.txt", "--max-remove", "3"],
    "search-rational-r3": ["search", "{in}/kgon4-infinity.txt", "--max-remove", "3"],
    # input errors
    "error-missing-file": ["analyze", "{in}/missing.txt"],
    "error-identity": ["analyze", "{in}/broken-identity.txt"],
    "error-directive": ["analyze", "{in}/bad-directive.txt"],
    "error-points-alone": ["analyze", "{in}/points-hit.txt"],
    "error-remove-range": ["subconfig", "{in}/tri.txt", "--remove", "4"],
    "error-formula-needs-n": ["subconfig", "{in}/no-profile.txt", "--formula", "8"],
    "error-search-spectrum": ["search", "{in}/wiman.txt"],
}


def _invoke(name, mode):
    argv = [arg.format(**{"in": INPUTS}) for arg in CASES[name]]
    if mode == "json":
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Python warnings are not part of a report
        code = main(argv)
    text = f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return text.replace(str(INPUTS), PLACEHOLDER)


def _golden_path(name, mode):
    return GOLDEN / f"{name}.{mode}.golden"


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, mode):
    expected = _golden_path(name, mode).read_text(encoding="utf-8")
    assert _invoke(name, mode) == expected


if __name__ == "__main__":
    for name in sorted(CASES):
        for mode in ("text", "json"):
            _golden_path(name, mode).write_text(_invoke(name, mode), encoding="utf-8")
    print(f"wrote {2 * len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
