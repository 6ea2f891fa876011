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
    singular_points.  Its interior levels drop and restore lines: for the
    lines that remain the walk keeps each point's multiplicity and: s points
    lie on two or more of them, with multiplicities summing to sum_m; pairs
    is the sum of C(m, 2) over all points; hist[m] counts the points on
    exactly m of them.  Dropping or restoring a line touches only the points
    on it.  The last line of each subset is read, not dropped: per-line
    aggregates over the whole locus (the line's points by multiplicity, and
    what dropping it takes from s, sum_m and pairs) are corrected at the at
    most size - 1 points where it meets the chosen lines, which a meet-point
    table of the line pairs gives; two lines that share two points raise
    InternalInconsistency.  So a subset's last line costs O(size), whatever
    the number of points on it.  H = (d' - sum_m) / s is
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
    full = tuple(mult)  # the multiplicities in the whole locus
    hist = [0] * (d + 1)
    for m in mult:
        hist[m] += 1
    s, sum_m, pairs = len(mult), sum(mult), sum(m * (m - 1) // 2 for m in mult)
    # what a drop takes from s and from sum_m at a point of multiplicity m
    s_take = [int(m == 2) for m in range(d + 1)]
    sum_take = [2 if m == 2 else int(m > 2) for m in range(d + 1)]
    # per line, over the whole locus: its points by multiplicity, and what
    # dropping it takes from sum_m and pairs (from s: its count at 2)
    line_hist = [[0] * (d + 1) for _ in range(d)]
    line_sum, line_pairs = [0] * d, [0] * d
    for line, ids in on_line.items():
        by_m = line_hist[line]
        for pid in ids:
            by_m[full[pid]] += 1
        line_sum[line] = 2 * by_m[2] + sum(by_m[3:])
        line_pairs[line] = sum((m - 1) * c for m, c in enumerate(by_m))
    # meets[i][j]: the point where lines i and j meet, -1 if none
    meets = [[-1] * d for _ in range(d)]
    for pid, (_, members) in enumerate(inc.points):
        for i in members:
            row = meets[i]
            for j in members:
                if j != i:
                    if row[j] >= 0:
                        raise InternalInconsistency(f"lines {i} and {j} share two points")
                    row[j] = pid
    # touched[:n_touched]: the distinct points where the last line meets the
    # chosen lines, deduplicated by comparison
    touched = [-1] * max_remove

    def count(k):
        """hist[k] once the last line is dropped: its points, counted in
        last_counts, move down one, the touched ones from their live
        multiplicity m rather than m0."""
        c = hist[k] - last_counts[k] + last_counts[k + 1]
        for i in range(n_touched):
            pid = touched[i]
            m0, m = full[pid], mult[pid]
            c += (k == m0) - (k == m0 - 1) - (k == m) + (k == m - 1)
        return c

    best = None  # the best removal so far, with H = num_best / s_best
    num_best = s_best = 0
    evaluated = no_singular = prunable = 0
    for size in range(1, max_remove + 1):
        d_new, pairs_new = d - size, comb(d - size, 2)
        chosen, line = [], 0  # line: the next candidate at the current depth
        while True:
            if len(chosen) < size - 1:
                if line <= d - size + len(chosen):
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
                    continue
            else:  # read each last line: no multiplicity changes
                for last in range(line, d):
                    row, last_counts = meets[last], line_hist[last]
                    s_left = s - last_counts[2]
                    sum_left = sum_m - line_sum[last]
                    pairs_left = pairs - line_pairs[last]
                    n_touched = 0
                    for c in chosen:
                        pid = row[c]
                        if pid < 0:
                            continue
                        touched[n_touched] = pid
                        if touched.index(pid) < n_touched:
                            continue
                        n_touched += 1
                        m0, m = full[pid], mult[pid]
                        s_left += s_take[m0] - s_take[m]
                        sum_left += sum_take[m0] - sum_take[m]
                        pairs_left += m0 - m
                    if s_left == 0:
                        no_singular += 1
                        continue
                    if pairs_left != pairs_new:
                        raise InternalInconsistency(
                            f"removing lines {chosen + [last]} breaks the pair-count identity")
                    evaluated += 1
                    num = d_new - sum_left
                    if best is not None:
                        if bounded:
                            _, b_num, b_den = main_bound_case(d_new, s_left, count)
                            if b_num * s_best > num_best * b_den:
                                prunable += 1
                        lhs, rhs = num * s_best, num_best * s_left
                        if lhs > rhs or (lhs == rhs and chosen + [last] >= best):
                            continue
                    num_best, s_best, best = num, s_left, chosen + [last]
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
