"""Exhaustive search over line removals for the least H on the new singular
locus."""

from fractions import Fraction
from math import comb

from .arrangement import RESTRICT_TO_NEW_SINGULAR, remove_lines, singular_points, spectrum_of
from .errors import InternalInconsistency, NegarrError
from .negativity import h_full, main_bound_case, main_bound_ceiling


def search_removals(arr, max_remove: int, budget: int) -> dict:
    """Minimize H over the new singular locus among the removals of
    1..max_remove lines (clamped to d - 1) from arr, within budget candidate
    subsets; both limits depend only on d, so they are checked before the
    locus is built.

    Subsets come size by size and, within a size, in lexicographic order: a
    depth-first walk over the locus lines, labelled 0..d-1 by
    singular_points.  For the lines that remain, s points lie on two or more
    of them, with multiplicities summing to sum_m, and pairs is the sum of
    C(m, 2) over all points.  Every level reads its line the same way: it
    takes the line's own totals over the whole locus (what dropping it takes
    from s, sum_m and pairs) and corrects them at the distinct points where
    it meets the chosen lines, at their live multiplicity, which a
    meet-point table of the line pairs gives; two lines that share two
    points raise InternalInconsistency.  So reading H at a line costs
    O(size), whatever the number of points on it.  A level that is not the
    last passes the new s, sum_m and pairs down, and lowers the live
    multiplicity of each point on its line by one, with hist[m], the points
    on exactly m remaining lines, until the walk comes back.
    H = (d' - sum_m) / s is compared by cross-multiplying; on ties the
    lexicographically smaller subset wins.  A candidate is counted as
    prunable when its main lower bound already exceeds the running best; no
    candidate is skipped.  The bound is computed only when its ceiling
    -3 + 2d'/s (main_bound_ceiling) lies above the best, since otherwise the
    bound cannot exceed it either; then the leaf shifts its own line the
    same way and reads the bound's counts from hist, at a cost of
    O(points on the line).

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
    # what a drop takes from s and from sum_m at a point of multiplicity m;
    # from pairs it takes m - 1
    s_take = [int(m == 2) for m in range(d + 1)]
    sum_take = [2 if m == 2 else int(m > 2) for m in range(d + 1)]
    # per line, over the whole locus: what dropping it takes from s, sum_m
    # and pairs
    line_take = []
    for line in range(d):
        on = [full[pid] for pid in on_line[line]]
        line_take.append((sum(s_take[m] for m in on), sum(sum_take[m] for m in on),
                          sum(on) - len(on)))
    # meets[i][j]: the point where lines i and j meet; with no pair met twice
    # (checked here), the pair-count identity of the complete locus sets
    # every entry off the diagonal
    meets = [[-1] * d for _ in range(d)]
    for pid, (_, members) in enumerate(inc.points):
        for i in members:
            row = meets[i]
            for j in members:
                if j != i:
                    if row[j] >= 0:
                        raise InternalInconsistency(f"lines {i} and {j} share two points")
                    row[j] = pid

    def shift(line, step):
        """Move each point on line by step in its live multiplicity and hist."""
        for pid in on_line[line]:
            m = mult[pid]
            mult[pid] = m + step
            hist[m] -= 1
            hist[m + step] += 1

    def walk(first, chosen, s, sum_m, pairs):
        """Read each line from first on as the next one chosen; a level that
        is not the last recurses with the counts left, the last one
        evaluates the subset."""
        nonlocal best, num_best, s_best, evaluated, no_singular, prunable
        last = len(chosen) == size - 1
        for line in range(first, d - size + len(chosen) + 1):
            s_line, sum_line, pairs_line = line_take[line]
            s_left, sum_left, pairs_left = s - s_line, sum_m - sum_line, pairs - pairs_line
            row, touched = meets[line], []
            for c in chosen:
                pid = row[c]
                if pid in touched:
                    continue
                touched.append(pid)
                m0, m = full[pid], mult[pid]
                s_left += s_take[m0] - s_take[m]
                sum_left += sum_take[m0] - sum_take[m]
                pairs_left += m0 - m
            if not last:
                chosen.append(line)
                shift(line, -1)
                walk(line + 1, chosen, s_left, sum_left, pairs_left)
                shift(line, 1)
                chosen.pop()
                continue
            if s_left == 0:
                no_singular += 1
                continue
            if pairs_left != pairs_new:
                raise InternalInconsistency(
                    f"removing lines {chosen + [line]} breaks the pair-count identity")
            evaluated += 1
            num = d_new - sum_left
            if best is not None:
                if bounded:
                    c_num, c_den = main_bound_ceiling(d_new, s_left)
                    if c_num * s_best > num_best * c_den:
                        shift(line, -1)
                        _, b_num, b_den = main_bound_case(d_new, s_left, hist.__getitem__)
                        shift(line, 1)
                        if b_num * s_best > num_best * b_den:
                            prunable += 1
                lhs, rhs = num * s_best, num_best * s_left
                if lhs > rhs or (lhs == rhs and chosen + [line] >= best):
                    continue
            num_best, s_best, best = num, s_left, chosen + [line]

    best = None  # the best removal so far, with H = num_best / s_best
    num_best = s_best = 0
    evaluated = no_singular = prunable = 0
    s, sum_m, pairs = len(mult), sum(mult), sum(m * (m - 1) // 2 for m in mult)
    for size in range(1, max_remove + 1):
        d_new, pairs_new = d - size, comb(d - size, 2)
        walk(0, [], s, sum_m, pairs)

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
