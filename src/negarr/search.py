"""Exhaustive search over line removals for the least H on the new singular
locus."""

from fractions import Fraction
from math import comb

from .arrangement import RESTRICT_TO_NEW_SINGULAR, remove_lines, singular_points, spectrum_of
from .errors import InternalInconsistency, NegarrError
from .negativity import h_full, main_bound_case


def search_removals(arr, max_remove: int, budget: int) -> dict:
    """Minimize H over the new singular locus among the removals of
    1..max_remove lines (clamped to d - 1) from arr, within budget candidate
    subsets; both limits depend only on d, so they are checked before the
    locus is built.

    Subsets come size by size and, within a size, in lexicographic order: a
    depth-first walk over the locus lines, labelled 0..d-1 by
    singular_points.  For the lines that remain the walk keeps each point's
    multiplicity and: s points lie on two or more of them, with
    multiplicities summing to sum_m; pairs is the sum of C(m, 2) over all
    points; hist[m] counts the points on exactly m of them.  Dropping or
    restoring a line touches only the points on it.  H = (d' - sum_m) / s is
    compared by cross-multiplying; on ties the lexicographically smaller
    subset wins.  A candidate is counted as prunable when its main lower
    bound already exceeds the running best; nothing is skipped.

    Returns {"max_remove", "candidates", "evaluated", "no_singular",
    "prunable", "best"}, where best is None when no removal keeps a singular
    point, else {"removed", "d_new", "h", "spectrum"} of the best removal,
    rebuilt through remove_lines.
    """
    d = arr.d
    max_remove = min(max_remove, d - 1)
    if max_remove < 1:
        raise NegarrError("nothing to remove")
    total = sum(comb(d, j) for j in range(1, max_remove + 1))
    if total > budget:
        raise NegarrError(f"{total} candidate subsets exceed the budget of {budget}")
    inc = singular_points(arr)

    mult, on_line, bounded = inc.multiplicities(), inc.on_line, inc.field_order is None
    hist = [0] * (d + 1)
    for m in mult:
        hist[m] += 1
    s, sum_m, pairs = len(mult), sum(mult), sum(m * (m - 1) // 2 for m in mult)
    best = None  # the best removal so far, with H = num_best / s_best
    num_best = s_best = 0
    evaluated = no_singular = prunable = 0
    for size in range(1, max_remove + 1):
        d_new, pairs_new = d - size, comb(d - size, 2)
        chosen, line = [], 0  # line: the next candidate at the current depth
        while True:
            if len(chosen) < size and line <= d - size + len(chosen):
                for pid in on_line[line]:
                    m = mult[pid]
                    mult[pid] = m - 1
                    hist[m] -= 1
                    hist[m - 1] += 1
                    pairs -= m - 1
                    if m > 2:
                        sum_m -= 1
                    elif m == 2:
                        s -= 1
                        sum_m -= 2
                chosen.append(line)
                line += 1
                if len(chosen) < size:
                    continue
                if s == 0:
                    no_singular += 1
                    continue
                if pairs != pairs_new:
                    raise InternalInconsistency(
                        f"removing lines {chosen} breaks the pair-count identity")
                evaluated += 1
                num = d_new - sum_m
                if best is not None:
                    if bounded:
                        _, b_num, b_den = main_bound_case(d_new, s, hist.__getitem__)
                        if b_num * s_best > num_best * b_den:
                            prunable += 1
                    lhs, rhs = num * s_best, num_best * s
                    if lhs > rhs or (lhs == rhs and chosen >= best):
                        continue
                num_best, s_best, best = num, s, chosen[:]
                continue
            if not chosen:
                break
            line = chosen.pop()
            for pid in on_line[line]:
                m = mult[pid] + 1
                mult[pid] = m
                hist[m - 1] -= 1
                hist[m] += 1
                pairs += m - 1
                if m > 2:
                    sum_m += 1
                elif m == 2:
                    s += 1
                    sum_m += 2
            line += 1

    result = {"max_remove": max_remove, "candidates": total, "evaluated": evaluated,
              "no_singular": no_singular, "prunable": prunable, "best": None}
    if best is not None:
        sp = spectrum_of(remove_lines(inc, best, RESTRICT_TO_NEW_SINGULAR))
        h = h_full(sp).h
        if h != Fraction(num_best, s_best):
            raise InternalInconsistency(
                f"incremental H of removal {best} disagrees with its rebuilt locus")
        result["best"] = {"removed": best, "d_new": d - len(best), "h": h, "spectrum": sp}
    return result
