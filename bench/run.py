"""Layered benchmark of negarr, driven in-process through negarr.cli.main.

    python3 bench/run.py --workload locus|search|reports [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--src DIR]
    python3 bench/run.py --workload W --record-digests

One closed-loop client on one thread: each request is sent when the previous
one has returned.  Each pass draws fresh inputs from the seed.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it also
replays every request through the public functions of each module and
reports the per-layer metrics (see tracing.py).  Every request goes through
the correctness gate (gate.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--quick shrinks the inputs so that a run takes a few seconds.  --src points
at the source tree whose negarr is measured (default: src next to bench/).
--record-digests writes the stdout digests of the first passes at the
default seed to bench/digests.json; do this only when report bytes change on
purpose.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from gate import Gate, digest
from tracing import (OWN_ONLY, PER_LAYER, Traced, Tracer, layer_metrics, microops, replay,
                     span_overhead)
from workloads import DEFAULT_SEED, FULL, QUICK, WORKLOADS, Inputs, line_count, search_subsets

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DIGESTS = os.path.join(BENCH, "digests.json")
SETUP_REPS = 5      # set-ups of an untraced run; a traced run makes one
DIGEST_PASSES = 3
# Median seconds of reference_job() inside runs at the reference host speed
# (the machine that recorded the baseline in README.md), and how often the
# job is timed between requests, at most.
REFERENCE_S = 0.004
REFERENCE_EVERY_S = 0.1
# When the shared host slows down, reference_job() slows more than negarr
# does: over requests with a steady job time on either side, the log of
# their time rises by 0.6-0.8 per unit of the log of the job's time (an
# underestimate, as the job's own noise flattens the fit).  So times are
# scaled by (REFERENCE_S / job time) to this power rather than the first.
HOST_EXPONENT = 0.85
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("request_p50_ms", "ms"),
              ("request_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class Program:
    """negarr, negarr.cli and negarr.arrangement imported afresh from one
    source tree; other attributes are looked up on the negarr package."""

    def __init__(self, src: str):
        for name in [m for m in sys.modules if m == "negarr" or m.startswith("negarr.")]:
            del sys.modules[name]
        if src not in sys.path:
            sys.path.insert(0, src)
        self.pkg = importlib.import_module("negarr")
        if not os.path.abspath(self.pkg.__file__).startswith(src + os.sep):
            raise ImportError(f"negarr was found at {self.pkg.__file__}, not under {src}")
        self.cli = importlib.import_module("negarr.cli")
        self.arrangement_module = importlib.import_module("negarr.arrangement")

    def __getattr__(self, name):
        return getattr(self.pkg, name)


@dataclass
class Result:
    rc: int | None
    out: str
    err: str
    t0: float
    t1: float
    warnings: int

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Runner:
    """One workload in one process: set-up, passes, gate and counters."""

    def __init__(self, args, warning_log: list):
        self.args = args
        self.log = warning_log
        self.sizes = QUICK if args.quick else FULL
        self.workdir = f"bench/work/{args.workload}"
        self.tracer = Tracer() if args.trace else None
        self.build_parent = -1      # span that catalog builds are recorded under
        self.attempted = self.failed = 0
        self.problems = []
        digests = {}
        if (args.seed == DEFAULT_SEED and not args.quick and not args.record_digests
                and os.path.exists(DIGESTS)):
            with open(DIGESTS, encoding="utf-8") as fh:
                digests = json.load(fh).get(args.workload, {})
        self.digests = digests

    # ---- one request ----

    def call(self, argv) -> Result:
        out, err = io.StringIO(), io.StringIO()
        main = self.program.cli.main
        before = len(self.log)
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed request, not a failed run
                rc = None
                err.write(traceback.format_exc())
            t1 = perf_counter()
        warnings = len(self.log) - before
        del self.log[before:]
        return Result(rc, out.getvalue(), err.getvalue(), t0, t1, warnings)

    def fail(self, label: str, problems: list) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def check(self, gate: Gate, req, pass_no: int, res: Result) -> bool:
        self.attempted += 1
        problems = gate.check(req, pass_no, res.rc, res.out, res.err)
        if problems:
            self.fail(f"pass {pass_no} {req.rid}", problems)
        return not problems

    # ---- set-up ----

    def _build(self, fn, *params):
        if self.tracer is None or self.build_parent < 0:
            return fn(*params)
        return self.tracer.call("catalog.build", self.build_parent, fn, *params)

    def setup(self, host: HostSpeed | None = None) -> list:
        """Import negarr, make the first pass's inputs and send one request of
        each kind.  Returns the timed segments as (start, end) pairs: the
        import with the input generation, then each warm-up request.  With
        a host, the reference job runs between segments, outside them.  The
        warm-up requests are checked after the last segment."""
        if host:
            host.sample()
        t0 = perf_counter()
        if self.tracer:
            self.build_parent = self.tracer.open("setup")
            self.tracer.setup_roots.append(self.build_parent)
        self.program = Program(self.args.src)
        self.gate = Gate(self.program, self.digests)
        self.inputs = Inputs(self.program, self.args.workload, self.args.seed, self.sizes,
                             self.workdir, build=self._build)
        reqs = self.inputs.requests(0)
        segments = [(t0, perf_counter())]
        warm, kinds = [], set()
        for req in reqs:
            if req.kind not in kinds:
                kinds.add(req.kind)
                if host:
                    host.sample()
                res = self.call(req.argv)
                warm.append((req, res))
                segments.append((res.t0, res.t1))
        if self.tracer:
            self.tracer.close(self.build_parent)
            self.build_parent = -1
        if host:
            host.sample()
        for req, res in warm:
            self.check(self.gate, req, 0, res)
        return segments

    # ---- runs ----

    def passes(self, run_pass):
        """Run passes until --seconds have gone by, at least one pass."""
        deadline = perf_counter() + self.args.seconds
        pass_no = 0
        while True:
            run_pass(self.inputs.requests(pass_no), pass_no)
            pass_no += 1
            if perf_counter() >= deadline:
                return pass_no

    def run_untraced(self) -> dict:
        host = HostSpeed()
        setups = [self.setup(host) for _ in range(SETUP_REPS)]
        gc.collect()
        timed = []      # (pass, start, end) of every request

        def run_pass(reqs, pass_no):
            for req in reqs:
                if host.due():
                    host.sample()
                res = self.call(req.argv)
                self.check(self.gate, req, pass_no, res)
                timed.append((pass_no, res.t0, res.t1))

        passes = self.passes(run_pass)
        host.sample()

        def times(seconds) -> dict:
            """The end-to-end times, with seconds(start, end) as the length
            of one timed interval."""
            latencies, pass_s = [], {}
            for pass_no, t0, t1 in timed:
                latencies.append(seconds(t0, t1))
                pass_s[pass_no] = pass_s.get(pass_no, 0.0) + latencies[-1]
            p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] \
                if len(latencies) > 1 else latencies[0]
            return {
                "setup_s": statistics.median(sum(seconds(*seg) for seg in setup)
                                             for setup in setups),
                "pass_s": statistics.median(pass_s.values()),
                "request_p50_ms": statistics.median(latencies) * 1e3,
                "request_p90_ms": p90 * 1e3,
            }

        print(f"{self.args.workload}: {passes} passes, {len(timed)} requests timed; "
              f"reference job {host.level():.3f} x REFERENCE_S over {len(host.values)} samples; "
              f"unscaled {json.dumps(times(lambda t0, t1: t1 - t0))}", file=sys.stderr)
        return {**times(host.scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def trace_pass(self, gate: Gate, inputs: Inputs, reqs: list, pass_no: int,
                   own: bool) -> None:
        """Each request as a main() span followed by its replay and
        micro-operations.  For the workload's own requests the pass also runs
        once plainly, as the untraced run sends it, before or after the traced
        requests, alternating by pass: so each traced main() follows the
        previous request's replay, and its untraced partner follows the
        previous untraced main()."""
        plain = {}

        def plain_pass():
            for req in reqs:
                res = self.call(req.argv)
                if self.check(gate, req, pass_no, res):
                    plain[req.rid] = res.seconds

        if own and pass_no % 2 == 0:
            plain_pass()
        traced = [(req, self.trace_request(gate, inputs, req, pass_no, own)) for req in reqs]
        if own and pass_no % 2 == 1:
            plain_pass()
        for req, info in traced:
            info.untraced_s = plain.get(req.rid, 0.0)

    def trace_request(self, gate: Gate, inputs: Inputs, req, pass_no: int, own: bool) -> Traced:
        tr = self.tracer
        info = Traced(f"{inputs.workload}/p{pass_no}/{req.rid}", req.command, own, pass_no)
        tr.begin_request(info)
        res = self.call(req.argv)
        info.main = tr.add(f"cli.main.{req.command}", res.t0, res.t1)
        info.warnings = res.warnings
        if not self.check(gate, req, pass_no, res):
            return info  # a failed request is counted; its replay would only fail again
        try:
            best = replay(tr, self.program, req)
            microops(tr, self.program, req)
        except Exception as exc:  # the replay disagrees with the program
            self.fail(f"replay pass {pass_no} {req.rid}", [repr(exc)])
            return info
        if req.command == "search":
            report = json.loads(res.out)
            info.evaluated, info.candidates = report["evaluated"], report["candidates"]
            info.subsets = search_subsets(line_count(req.path), report["max_remove"])
            h = report["best"]["h"]
            if best != (Fraction(h["num"], h["den"]), report["best"]["removed"]):
                self.fail(f"replay pass {pass_no} {req.rid}", ["replayed best removal differs"])
        return info

    def run_traced(self) -> dict:
        self.setup()
        overhead = span_overhead()
        gc.collect()
        self.passes(lambda reqs, pass_no: self.trace_pass(self.gate, self.inputs, reqs,
                                                          pass_no, True))
        metrics = layer_metrics(self.tracer, True, overhead)
        for other in WORKLOADS:
            missing = [k for k, v in metrics.items() if v is None and k not in OWN_ONLY]
            if not missing or other == self.args.workload:
                continue
            # Metrics of calls this workload never makes come from the first
            # pass of another workload, in WORKLOADS order.
            inputs = Inputs(self.program, other, self.args.seed, self.sizes,
                            f"{self.workdir}/probe-{other}")
            self.trace_pass(Gate(self.program), inputs, inputs.requests(0), 0, False)
            probe = layer_metrics(self.tracer, False, overhead)
            metrics.update({k: probe[k] for k in missing if probe[k] is not None})
        unmeasured = [k for k, v in metrics.items() if v is None]
        if unmeasured:
            raise RuntimeError(f"no workload measures {', '.join(unmeasured)}")
        os.makedirs("bench/out", exist_ok=True)
        self.tracer.write(f"bench/out/trace-{self.args.workload}.tsv")
        return metrics

    def record_digests(self) -> dict:
        self.setup()
        found = {}
        for pass_no in range(DIGEST_PASSES):
            for req in self.inputs.requests(pass_no):
                res = self.call(req.argv)
                self.check(self.gate, req, pass_no, res)
                found[f"{pass_no}/{req.rid}"] = digest(res.out)
        return found


class HostSpeed:
    """Samples of reference_job() over a run, to report times at the
    reference host speed.  A shared host runs the same code up to 2.2 times as
    slowly for seconds at a time, so each timed interval is scaled by the
    samples taken just before and just after it."""

    def __init__(self):
        self.ends = []      # perf_counter() at the end of each sample
        self.values = []

    def sample(self) -> None:
        self.values.append(reference_job())
        self.ends.append(perf_counter())

    def due(self) -> bool:
        return not self.ends or perf_counter() - self.ends[-1] >= REFERENCE_EVERY_S

    def level(self) -> float:
        """The host's median slowness over the run, 1 at the reference speed."""
        return statistics.median(self.values) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference host speed."""
        before = bisect.bisect_right(self.ends, t0)
        after = bisect.bisect_left(self.ends, t1)
        near = self.values[max(before - 1, 0):before] + self.values[after:after + 1]
        return (t1 - t0) * (REFERENCE_S / statistics.mean(near)) ** HOST_EXPONENT


def _reference_work() -> None:
    for _ in range(3):
        acc, x = {}, Fraction(0)
        for i in range(100):
            acc.setdefault(((i * 7919) % 1009, (i * 31) % 97, i % 13), set()).add(i % 7)
            x = Fraction(i % 17 + 1, i % 13 + 1) * Fraction(3, 7) + x / 2
            x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    points = [frozenset(range(i % 20, i % 20 + 5)) for i in range(2000)]
    sum(len(m) for m in (p - {3, 7} for p in points) if len(m) >= 2)


def reference_job() -> float:
    """Seconds for a fixed job that calls no negarr code, so that it measures
    the host's speed and nothing a change can alter.  Its work is shaped like
    negarr's: exact rationals, tuple keys and sets, then frozenset
    differences.  It runs once untimed, so that caches the previous request
    left cold do not count, and with the collector off."""
    gc.disable()
    try:
        _reference_work()
        t0 = perf_counter()
        _reference_work()
        return perf_counter() - t0
    finally:
        gc.enable()


def _hermetic() -> None:
    """Re-execute with a fixed string-hash seed and without NEGARR_BUDGET,
    which cmd_search reads, so that runs differ only by their arguments."""
    if os.environ.get("PYTHONHASHSEED") == "0" and "NEGARR_BUDGET" not in os.environ:
        return
    env = {k: v for k, v in os.environ.items() if k != "NEGARR_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.record_digests and (args.seed != DEFAULT_SEED or args.quick):
        ap.error("digests are recorded at full size for the default seed only")
    args.src = os.path.abspath(args.src)
    return args


def main(argv=None) -> int:
    _hermetic()
    args = parse_args(argv)
    os.chdir(ROOT)
    with warnings.catch_warnings(record=True) as log:
        # Record every warning instead of printing it once per location, so
        # each request pays the same for the warnings it raises.
        warnings.simplefilter("always")
        runner = Runner(args, log)
        try:
            if args.record_digests:
                found = runner.record_digests()
            else:
                values = runner.run_traced() if args.trace else runner.run_untraced()
        except ImportError as exc:
            print(f"bench: cannot import negarr from {args.src}: {exc}", file=sys.stderr)
            return 2
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.record_digests:
        if runner.failed:
            print("bench: digests not recorded", file=sys.stderr)
            return 1
        recorded = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                recorded = json.load(fh)
        recorded[args.workload] = found
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
