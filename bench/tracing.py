"""The traced run: spans recorded from outside the program.

Nothing inside negarr is instrumented.  Each request is run through
`negarr.cli.main` as a `cli.main.<cmd>` span, then replayed through the
public functions of each module, in the order the command calls them, with
every call timed as a child span of a `replay` root.  Field and projective operations are timed in batches on the
request's own coefficients under a `microops` root, outside the replay.

A span records its name, start, end, parent span and request id.  Spans are
kept in memory and written out once, with their self time (duration minus
the time its child spans cover), when the run ends.
"""

from __future__ import annotations

import itertools
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from workloads import FIELD_KINDS

COMMANDS = ("analyze", "subconfig", "search", "generate")

# Per-layer metrics in output order, with their units.
PER_LAYER = (
    [(f"fields.{op}_us.{k}", "us") for op in ("element", "mul", "inv") for k in FIELD_KINDS]
    + [(f"projective.{op}_us.{k}", "us") for op in ("meet", "incident") for k in FIELD_KINDS]
    + [(f"arrangement.singular_points_ms.{k}", "ms") for k in FIELD_KINDS]
    + [("arrangement.meets", "count"), ("arrangement.points", "count"),
       ("arrangement.points_per_meet", "ratio"),
       ("arrangement.remove_lines_us", "us"), ("arrangement.spectrum_of_us", "us"),
       ("negativity.h_full_us", "us"), ("negativity.h_at_points_ms", "ms"),
       ("negativity.certificates_us", "us"), ("negativity.pair_removal_us", "us"),
       ("cli.search_us_per_subset", "us"), ("cli.search_subsets", "count"),
       ("cli.search_evaluated_ratio", "ratio"),
       ("cli.parse_input_ms", "ms"), ("cli.render_ms", "ms")]
    + [(f"cli.main_ms.{cmd}", "ms") for cmd in COMMANDS]
    + [("cli.unattributed_ms", "ms"), ("catalog.build_ms", "ms"), ("cli.warnings", "count"),
       ("trace.main_vs_untraced", "ratio"), ("trace.share.singular_points", "ratio"),
       ("trace.share.incidence", "ratio"), ("trace.share.search_loop", "ratio")]
)

# Metrics that always describe the workload's own requests, even when 0.
# Every other metric is a per-call figure: when the workload never makes that
# call, it is measured on the first pass of another workload (see run.py).
OWN_ONLY = {"arrangement.meets", "arrangement.points", "arrangement.points_per_meet",
            "cli.search_subsets", "cli.warnings", "catalog.build_ms",
            "trace.main_vs_untraced", "trace.share.singular_points",
            "trace.share.incidence", "trace.share.search_loop"}


@dataclass
class Traced:
    """What the tracer keeps about one request besides its spans."""

    label: str
    command: str
    own: bool                  # False for requests replayed to fill missing metrics
    pass_no: int
    main: int = -1             # span id of the traced main() call
    replay: int = -1           # span id of the replay root
    untraced_s: float = 0.0    # the same request's main() time in the plain pass
    subsets: int = 0
    evaluated: int = 0
    candidates: int = 0
    warnings: int = 0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Spans in flat arrays, so that keeping many of them costs little."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.ops = {}          # batch span id -> operations it covers
        self.requests = []     # request id -> Traced
        self.setup_roots = []

    @property
    def current(self) -> Traced:
        return self.requests[-1]

    def begin_request(self, info: Traced) -> None:
        self.requests.append(info)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.request.append(len(self.requests) - 1)
        return len(self.names) - 1

    def open(self, name: str, parent: int = -1) -> int:
        return self.add(name, perf_counter(), 0.0, parent)

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()

    def call(self, name: str, parent: int, fn, *args):
        sid = self.open(name, parent)
        try:
            return fn(*args)
        finally:
            self.end[sid] = perf_counter()

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]

    def descendants(self) -> list:
        """Number of spans below each span; children open after their parent."""
        below = [0] * len(self.names)
        for sid in range(len(self.names) - 1, -1, -1):
            parent = self.parent[sid]
            if parent >= 0:
                below[parent] += 1 + below[sid]
        return below

    def self_times(self) -> list:
        covered = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.duration(sid)
        return [self.duration(sid) - covered[sid] for sid in range(len(self.names))]

    def write(self, path: str) -> None:
        rows = ["# request\tlabel\tcommand\town\tpass"]
        rows += [f"# {i}\t{r.label}\t{r.command}\t{int(r.own)}\t{r.pass_no}"
                 for i, r in enumerate(self.requests)]
        rows.append("span\tname\trequest\tparent\tstart_us\tend_us\tself_us")
        origin = self.start[0] if self.names else 0.0
        for sid, self_s in enumerate(self.self_times()):
            rows.append(f"{sid}\t{self.names[sid]}\t{self.request[sid]}\t{self.parent[sid]}\t"
                        f"{(self.start[sid] - origin) * 1e6:.1f}\t"
                        f"{(self.end[sid] - origin) * 1e6:.1f}\t{self_s * 1e6:.1f}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


def span_overhead(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds a traced call adds to its parent span beyond the call itself.

    Shares and unattributed time subtract it once per descendant span, so
    that a loop of many short traced calls is not read as longer than the
    same loop in main()."""
    tr = Tracer()
    noop = lambda: None  # noqa: E731
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            tr.call("overhead", -1, noop)
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return max(0.0, statistics.median(costs))


# ---- replay ----

def count_meets(p, arr) -> int:
    """Calls of meet that singular_points makes on arr.  It runs once more,
    untimed, with the name negarr.arrangement.meet, through which it calls
    meet, bound to a counting wrapper."""
    module = p.arrangement_module
    real, calls = module.meet, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    module.meet = counted
    try:
        p.singular_points(arr)
    finally:
        module.meet = real
    return calls


def _singular_points(tr: Tracer, p, req, parent: int, arr):
    inc = tr.call(f"arrangement.singular_points.{req.field}", parent, p.singular_points, arr)
    if tr.current.pass_no == 0:  # the counts describe the first pass
        tr.current.counts["arrangement.meets"] += count_meets(p, arr)
        tr.current.counts["arrangement.points"] += inc.s
    return inc


def _locus_of(tr, p, req, root, inp):
    """Incidence data and spectrum, from coordinates or from the file."""
    if inp.kind != "coordinates":
        return None, inp.spectrum
    inc = _singular_points(tr, p, req, root, inp.arrangement)
    return inc, tr.call("arrangement.spectrum_of", root, p.spectrum_of, inc)


def _analyze(tr, p, req, root, inp):
    inc, sp = _locus_of(tr, p, req, root, inp)
    if inc is not None:
        tr.call("arrangement.equidistribution", root, p.equidistribution, inc)
    tr.call("negativity.h_full", root, p.h_full, sp)
    tr.call("negativity.h_curve", root, p.h_curve, sp)
    tr.call("negativity.mean_bound", root, p.mean_multiplicity_bound, sp)
    tr.call("negativity.certificates", root, p.cli.certificates_for, sp)


def _remove(tr, p, req, root, inp):
    arr = inp.arrangement
    inc, sp0 = _locus_of(tr, p, req, root, inp)
    removed = sorted(int(x) for x in req.argv[3].split(","))
    kept = tr.call("arrangement.remove_lines", root, p.remove_lines, inc, removed,
                   p.KEEP_ORIGINAL_POINTS)
    tr.call("negativity.h_quadratic", root, p.h_quadratic, kept)
    restricted = tr.call("arrangement.remove_lines", root, p.remove_lines, inc, removed,
                         p.RESTRICT_TO_NEW_SINGULAR)
    sp_new = tr.call("arrangement.spectrum_of", root, p.spectrum_of, restricted)
    tr.call("negativity.h_full", root, p.h_full, sp_new)
    sub = tr.call("arrangement.without", root, arr.without, removed)
    tr.call("negativity.h_at_points", root, p.h_at_points, sub, [key for key, _ in inc.points])
    if sub.d >= 2:
        _singular_points(tr, p, req, root, sub)
    per_line = tr.call("arrangement.equidistribution", root, p.equidistribution, inc)
    if per_line is not None:
        h0 = tr.call("negativity.h_full", root, p.h_full, sp0).h
        tr.call("negativity.subconfig_formula", root, p.subconfig_formula,
                h0, arr.d, sub.d, per_line, sp0.s)
    tr.call("negativity.certificates", root, p.cli.certificates_for, sp_new)


def _pairs(tr, p, req, root, inp):
    m = int(req.argv[3])
    inc, sp = _locus_of(tr, p, req, root, inp)
    rep = tr.call("negativity.pair_removal", root, p.pair_removal_from_profile, sp, m)
    if inc is not None:
        pair = next(sorted(members)[:2] for _, members in inc.points if len(members) == m)
        kept = tr.call("arrangement.remove_lines", root, p.remove_lines, inc, pair,
                       p.KEEP_ORIGINAL_POINTS)
        tr.call("negativity.h_quadratic", root, p.h_quadratic, kept)
        restricted = tr.call("arrangement.remove_lines", root, p.remove_lines, inc, pair,
                             p.RESTRICT_TO_NEW_SINGULAR)
        tr.call("arrangement.spectrum_of", root, p.spectrum_of, restricted)
    tr.call("negativity.certificates", root, p.cli.certificates_for, rep.new_spectrum)


def _formula(tr, p, req, root, inp):
    parts = [int(x) for x in req.argv[3].split(",")]
    inc, sp = _locus_of(tr, p, req, root, inp)
    if inc is not None:
        per_line = tr.call("arrangement.equidistribution", root, p.equidistribution, inc)
    else:
        per_line = sum(sp.profile.values()) if sp.profile else None
    h0 = tr.call("negativity.h_full", root, p.h_full, sp).h
    n = parts[1] if len(parts) == 2 else per_line
    tr.call("negativity.subconfig_formula", root, p.subconfig_formula, h0, sp.d, parts[0], n,
            sp.s)


def _search(tr, p, req, root, inp):
    """The candidate loop of cmd_search, with each call a child of one
    `cli.search_loop` span.  Returns (h, subset) of the best removal."""
    arr = inp.arrangement
    inc = _singular_points(tr, p, req, root, arr)
    max_remove = int(req.argv[req.argv.index("--max-remove") + 1])
    loop = tr.open("cli.search_loop", root)
    best = None
    for size in range(1, min(max_remove, arr.d - 1) + 1):
        for combo in itertools.combinations(range(arr.d), size):
            try:
                restricted = tr.call("arrangement.remove_lines", loop, p.remove_lines, inc, combo,
                                     p.RESTRICT_TO_NEW_SINGULAR)
            except p.NegarrError:
                continue
            sp2 = tr.call("arrangement.spectrum_of", loop, p.spectrum_of, restricted)
            h2 = tr.call("negativity.h_full", loop, p.h_full, sp2).h
            if best is not None and sp2.field_order is None:
                tr.call("negativity.main_lower_bound", loop, p.main_lower_bound, sp2)
            if best is None or h2 < best[0] or (h2 == best[0] and combo < best[1]):
                best = (h2, combo, sp2)
    tr.close(loop)
    tr.call("negativity.certificates", root, p.cli.certificates_for, best[2])
    return best[0], list(best[1])


def _generate(tr, p, req, root):
    name, params = req.catalog
    entry = p.catalog_entry(name)
    coords = "--format" in req.argv and req.argv[req.argv.index("--format") + 1] == "coords"
    builder = entry.coords if coords and entry.kind == "spectrum" else entry.build
    obj = tr.call("catalog.build", root, builder, *params)
    notes = [entry.note] if entry.note else []
    render = p.cli.render_spectrum if entry.kind == "spectrum" and not coords \
        else p.cli.render_coords
    tr.call("cli.render", root, render, obj, notes)


_SUBCONFIG = {"--remove": _remove, "--pairs-meeting": _pairs, "--formula": _formula}


def replay(tr: Tracer, p, req):
    """Replay one request under a `replay` root span; returns the search's
    best (h, subset) for a search request, else None."""
    root = tr.current.replay = tr.open("replay")
    try:
        if req.command == "generate":
            return _generate(tr, p, req, root)
        with open(req.path, encoding="utf-8") as fh:
            text = fh.read()
        inp = tr.call("cli.parse_input", root, p.cli.parse_input, text)
        if req.command == "analyze":
            return _analyze(tr, p, req, root, inp)
        if req.command == "search":
            return _search(tr, p, req, root, inp)
        return _SUBCONFIG[req.argv[2]](tr, p, req, root, inp)
    except p.NegarrError:
        if req.rc != 2:
            raise
        return None
    finally:
        tr.close(root)


def microops(tr: Tracer, p, req) -> None:
    """Field and projective operations on the coefficients of the request's
    coordinate input, timed in batches of one operation kind each."""
    if req.field is None:
        return
    with open(req.path, encoding="utf-8") as fh:
        arr = p.cli.parse_input(fh.read()).arrangement
    field_ = arr.field
    elems = [c for line in arr.lines for c in line.coeffs]
    reps = [e.value for e in elems]
    nonzero = [e for e in elems if e]
    lines = arr.lines
    root = tr.open("microops")

    def batch(name, ops, fn):
        sid = tr.open(f"{name}.{req.field}", root)
        result = fn()
        tr.close(sid)
        tr.ops[sid] = ops
        return result

    batch("fields.element", len(reps), lambda: [field_.element(r) for r in reps])
    batch("fields.mul", len(elems), lambda: [a * b for a, b in zip(elems, elems[1:] + elems[:1])])
    batch("fields.inv", len(nonzero), lambda: [e.inverse() for e in nonzero])
    points = batch("projective.meet", len(lines) - 1,
                   lambda: [p.meet(a, b) for a, b in zip(lines, lines[1:])])
    batch("projective.incident", len(points),
          lambda: [p.incident(pt, lines[(i + 3) % len(lines)]) for i, pt in enumerate(points)])
    tr.close(root)


# ---- per-layer metrics ----

def _median(values, scale):
    return statistics.median(values) * scale if values else None


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else None


def layer_metrics(tr: Tracer, own: bool, overhead: float = 0.0) -> dict:
    """Per-layer metrics over the spans of own requests (own=True) or of the
    requests replayed to fill metrics the workload never reaches.  overhead
    is span_overhead(), removed from spans that have children."""
    ids = {i for i, r in enumerate(tr.requests) if r.own == own}
    below = tr.descendants()
    durs, ops = {}, Counter()
    for sid, name in enumerate(tr.names):
        if tr.request[sid] in ids:
            durs.setdefault(name, []).append(tr.duration(sid) - overhead * below[sid])
            ops[name] += tr.ops.get(sid, 0)

    def total(name):
        return sum(durs.get(name, ()))

    reqs = [tr.requests[i] for i in sorted(ids)]
    mains = [r for r in reqs if r.main >= 0]
    main_s = sum(tr.duration(r.main) for r in mains)
    replay_children = Counter()
    for sid, parent in enumerate(tr.parent):
        if parent >= 0 and tr.names[parent] == "replay":
            replay_children[parent] += tr.duration(sid) - overhead * below[sid]
    first = [r for r in reqs if r.pass_no == 0]
    counts = sum((r.counts for r in first), Counter())
    searches = [r for r in mains if r.command == "search"]
    singular = sum(total(f"arrangement.singular_points.{k}") for k in FIELD_KINDS)

    out = {}
    for op, family in (("element", "fields"), ("mul", "fields"), ("inv", "fields"),
                       ("meet", "projective"), ("incident", "projective")):
        for k in FIELD_KINDS:
            name = f"{family}.{op}.{k}"
            out[f"{family}.{op}_us.{k}"] = _ratio(total(name), ops[name], 1e6)
    for k in FIELD_KINDS:
        out[f"arrangement.singular_points_ms.{k}"] = _median(
            durs.get(f"arrangement.singular_points.{k}"), 1e3)
    out["arrangement.meets"] = counts["arrangement.meets"]
    out["arrangement.points"] = counts["arrangement.points"]
    out["arrangement.points_per_meet"] = _ratio(counts["arrangement.points"],
                                                counts["arrangement.meets"])
    for name, scale, key in (("arrangement.remove_lines", 1e6, "arrangement.remove_lines_us"),
                             ("arrangement.spectrum_of", 1e6, "arrangement.spectrum_of_us"),
                             ("negativity.h_full", 1e6, "negativity.h_full_us"),
                             ("negativity.h_at_points", 1e3, "negativity.h_at_points_ms"),
                             ("negativity.certificates", 1e6, "negativity.certificates_us"),
                             ("negativity.pair_removal", 1e6, "negativity.pair_removal_us"),
                             ("cli.parse_input", 1e3, "cli.parse_input_ms"),
                             ("cli.render", 1e3, "cli.render_ms")):
        out[key] = _median(durs.get(name), scale)
    out["cli.search_us_per_subset"] = _ratio(sum(tr.duration(r.main) for r in searches),
                                             sum(r.subsets for r in searches), 1e6)
    out["cli.search_subsets"] = sum(r.subsets for r in first)
    out["cli.search_evaluated_ratio"] = _ratio(sum(r.evaluated for r in searches),
                                               sum(r.candidates for r in searches))
    for cmd in COMMANDS:
        out[f"cli.main_ms.{cmd}"] = _median(durs.get(f"cli.main.{cmd}"), 1e3)
    out["cli.unattributed_ms"] = _median(
        [tr.duration(r.main) - replay_children[r.replay] for r in mains if r.replay >= 0], 1e3)
    builds = dict.fromkeys(tr.setup_roots, 0.0)
    for sid, parent in enumerate(tr.parent):
        if parent in builds and tr.names[sid] == "catalog.build":
            builds[parent] += tr.duration(sid)
    out["catalog.build_ms"] = _median(list(builds.values()), 1e3)
    out["cli.warnings"] = sum(r.warnings for r in first)
    paired = [r for r in mains if r.untraced_s]
    out["trace.main_vs_untraced"] = _ratio(sum(tr.duration(r.main) for r in paired),
                                           sum(r.untraced_s for r in paired))
    out["trace.share.singular_points"] = _ratio(singular, main_s)
    out["trace.share.incidence"] = _ratio(singular + total("negativity.h_at_points"), main_s)
    out["trace.share.search_loop"] = _ratio(total("cli.search_loop"), main_s)
    return out
