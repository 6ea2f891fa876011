"""Differential test of `negarr.search.search_removals` against a reference
removal loop.

The reference enumerates removal subsets with itertools.combinations, size by
size, and rebuilds each candidate through remove_lines -> spectrum_of ->
h_full, counting a candidate as prunable when main_lower_bound exceeds the
running best.  The engine must return the same counts and the same best
subset, spectrum and H; the CLI rendering of its result is pinned by the
`search-*` golden cases.
"""

import contextlib
import io
import itertools
import random
import warnings
from fractions import Fraction
from math import comb, gcd

import pytest

from negarr.arrangement import (
    RESTRICT_TO_NEW_SINGULAR,
    remove_lines,
    singular_points,
    spectrum_of,
)
from negarr.catalog import gen_finite_field_full
from negarr.cli import main, read_input
from negarr.errors import EmptyResult
from negarr.negativity import h_full, main_bound_case, main_lower_bound
from negarr.search import search_removals


def reference_search(path, max_remove, reads=None):
    """The counts and the best removal; reads, when given, collects in walk
    order (spectrum, best H before it) for each candidate whose main bound
    the prunable count compares."""
    inc = singular_points(read_input(path).arrangement)
    best = None  # (h, subset, spectrum)
    evaluated = no_singular = prunable = 0
    for size in range(1, max_remove + 1):
        for combo in itertools.combinations(range(inc.d), size):
            try:
                restricted = remove_lines(inc, combo, RESTRICT_TO_NEW_SINGULAR)
            except EmptyResult:
                no_singular += 1
                continue
            sp = spectrum_of(restricted)
            h = h_full(sp).h
            evaluated += 1
            if best is not None and sp.field_order is None:
                if reads is not None:
                    reads.append((sp, best[0]))
                if main_lower_bound(sp).bound_value > best[0]:
                    prunable += 1
            if best is None or h < best[0] or (h == best[0] and combo < best[1]):
                best = (h, combo, sp)
    return evaluated, no_singular, prunable, best


def _assert_agrees(path, max_remove, reads=None):
    evaluated, no_singular, prunable, best = reference_search(path, max_remove, reads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = search_removals(read_input(path).arrangement, max_remove, 10**7)
    assert result["candidates"] == evaluated + no_singular
    assert result["evaluated"] == evaluated
    assert result["no_singular"] == no_singular
    assert result["prunable"] == prunable
    if best is None:
        assert result["best"] is None
        return result
    h, combo, sp = best
    assert result["best"]["removed"] == list(combo)
    assert result["best"]["d_new"] == sp.d
    assert result["best"]["h"] == h
    assert result["best"]["spectrum"] == sp
    return result


CATALOG = [
    ("generic:6", 3),       # every candidate ties with several others
    ("pencil:5", 4),        # no singular point left, pencil bounds
    ("pencil:2", 1),        # no removal keeps a singular point
    ("quasipencil:6", 5),   # quasi-pencil bounds, d' = 2 and d' = 1
    ("pg2:3", 3),           # GF(3)
    ("pg2:4", 3),           # GF(4), an extension field
    ("fermat:3", 3),        # Q(zeta_3)
    ("kgon:4", 4),          # rational, many prunable candidates
]


@pytest.mark.parametrize("item,max_remove", CATALOG)
def test_search_matches_reference_on_catalog(item, max_remove, tmp_path):
    path = tmp_path / "arr.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", item, "--format", "coords", "--out", str(path)]) == 0
    for r in range(1, max_remove + 1):
        _assert_agrees(path, r)


# The last line of each subset is read through the points where it meets the
# chosen lines; in these cases it often passes through a point that two or
# more chosen lines already hit, so some of those points coincide.
CONCURRENT = [
    ("pg2:3", 4),
    ("pg2:3", 5),
    ("pencil:6", 5),
]


@pytest.mark.parametrize("item,max_remove", CONCURRENT)
def test_search_matches_reference_where_chosen_lines_concur(item, max_remove, tmp_path):
    path = tmp_path / "arr.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", item, "--format", "coords", "--out", str(path)]) == 0
    _assert_agrees(path, max_remove)


def _random_rational_lines(rng, count, bound=3):
    lines = set()
    while len(lines) < count:
        c = [rng.randint(-bound, bound) for _ in range(3)]
        g = gcd(gcd(c[0], c[1]), c[2])
        if g == 0:
            continue
        c = [x // g for x in c]
        if next(x for x in c if x) < 0:
            c = [-x for x in c]
        lines.add(tuple(c))
    return "field Q\n" + "".join(f"line {a} {b} {c}\n" for a, b, c in sorted(lines))


@pytest.mark.parametrize("seed", range(10))
def test_search_matches_reference_on_random_rational(seed, tmp_path):
    rng = random.Random(seed)
    path = tmp_path / "arr.txt"
    path.write_text(_random_rational_lines(rng, rng.randint(5, 11)))
    for r in range(1, 5):
        _assert_agrees(path, r)


@pytest.mark.parametrize("seed", range(6))
def test_search_matches_reference_on_concurrent_rational(seed, tmp_path):
    # coefficients in [-1, 1]: 13 lines at most, with many concurrent triples
    rng = random.Random(seed)
    path = tmp_path / "arr.txt"
    path.write_text(_random_rational_lines(rng, rng.randint(7, 13), bound=1))
    for r in range(1, 5):
        _assert_agrees(path, r)


def _bound_counts(d, count):
    """The counts main_bound_case may read on d lines: t_2, t_3, t_d-1, t_d."""
    return {k: count(k) for k in (2, 3, d - 1, d)}


def _count_main_bound_calls(monkeypatch):
    """For each main_bound_case call the engine makes, its d' and s and the
    counts it may read, taken when it is called."""
    calls = []

    def counted(d, s, count):
        calls.append((d, s, _bound_counts(d, count)))
        return main_bound_case(d, s, count)

    monkeypatch.setattr("negarr.search.main_bound_case", counted)
    return calls


def _assert_bound_reads(calls, reads):
    """The engine's bound reads are, in walk order, the counts of the
    reference's rebuilt spectra at the candidates whose ceiling -3 + 2d'/s
    lies above the best before them."""
    expected = [(sp.d, sp.s, _bound_counts(sp.d, lambda k: sp.t.get(k, 0)))
                for sp, best_h in reads if Fraction(2 * sp.d - 3 * sp.s, sp.s) > best_h]
    assert calls == expected


# The engine computes the main bound only where its ceiling -3 + 2d'/s lies
# above the running best.  On inputs shaped like the benchmark's (20 random Q
# lines, coefficients in [-50, 50]) that ceiling is below the best at every
# leaf; on fermat:4 and quasipencil:12 it is above it at every leaf but the
# first, which has no best yet, and many bounds exceed the best.
@pytest.mark.parametrize("seed", range(3))
def test_search_matches_reference_where_the_ceiling_skips_every_bound(
        seed, tmp_path, monkeypatch):
    path = tmp_path / "arr.txt"
    path.write_text(_random_rational_lines(random.Random(seed), 20, bound=50))
    calls = _count_main_bound_calls(monkeypatch)
    for r in (1, 2):
        _assert_agrees(path, r)
    assert calls == []


@pytest.mark.parametrize("item", ["fermat:4", "quasipencil:12"])
def test_search_matches_reference_where_the_ceiling_skips_no_bound(
        item, tmp_path, monkeypatch):
    path = tmp_path / "arr.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", item, "--format", "coords", "--out", str(path)]) == 0
    calls, reads = _count_main_bound_calls(monkeypatch), []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = _assert_agrees(path, 3, reads)
    assert len(calls) == result["evaluated"] - 1
    assert result["prunable"] > 0
    _assert_bound_reads(calls, reads)


# Seed 5 of the concurrent rational inputs: the ceiling skips some of the
# leaves that have a best before them and passes the rest.
def test_search_bound_reads_match_reference_on_concurrent_rational(tmp_path, monkeypatch):
    rng = random.Random(5)
    path = tmp_path / "arr.txt"
    path.write_text(_random_rational_lines(rng, rng.randint(7, 13), bound=1))
    calls, reads = _count_main_bound_calls(monkeypatch), []
    _assert_agrees(path, 4, reads)
    assert 0 < len(calls) < len(reads)
    _assert_bound_reads(calls, reads)


# GF(17^2) is above ZECH_MAX_ORDER, so its lines meet on the generic
# ExtensionField path; the four lines with c = 0 concur at (0:0:1).
_GF289_LINES = """field EXT (GF 17) [3,0,1]
line [1,0] [0,0] [0,0]
line [0,0] [1,0] [0,0]
line [1,0] [1,0] [0,0]
line [1,0] [0,1] [0,0]
line [1,0] [0,0] [1,0]
line [0,0] [1,0] [1,0]
line [0,0] [0,0] [1,0]
line [1,0] [1,0] [1,0]
line [2,1] [0,3] [1,0]
line [1,0] [5,2] [0,7]
"""


def test_search_matches_reference_on_generic_extension_field(tmp_path):
    path = tmp_path / "arr.txt"
    path.write_text(_GF289_LINES)
    assert type(read_input(path).arrangement.field).__name__ == "ExtensionField"
    for r in range(1, 5):
        _assert_agrees(path, r)


def test_search_deep_walk_on_pg2_7():
    # 425,923 subsets, beyond the reference loop; the best removal is one
    # line, whose H is -q^2 (q + 1) / (q^2 + q + 1) at q = 7
    result = search_removals(gen_finite_field_full(7), 4, 10**7)
    assert result["candidates"] == result["evaluated"] == 425923
    assert sum(comb(57, j) for j in range(1, 5)) == 425923
    assert result["no_singular"] == result["prunable"] == 0
    best = result["best"]
    assert best["removed"] == [0]
    assert best["d_new"] == 56
    assert best["spectrum"].t == {7: 8, 8: 49}
    assert best["h"] == Fraction(-392, 57) == Fraction(-7**2 * 8, 7**2 + 7 + 1)
