"""Seeded request lists for the three benchmark workloads.

Every pass of a run draws fresh inputs from (workload, seed, pass number), so
no result carries over from one pass to the next; the same triple always
gives the same files and the same requests.  Input files are written under
the workload's work directory, with one fixed name per request, so that the
paths printed in reports are the same on every pass and in every checkout.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import comb, gcd

WORKLOADS = ("locus", "search", "reports")
DEFAULT_SEED = 1
FIELD_KINDS = ("q", "gfp", "gfpk", "cyclo")


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  (catalog parameter, lines kept) for the finite and
    cyclotomic locus inputs; (lines, coefficient range) for rational ones."""

    gfp: tuple
    gfpk: tuple
    cyclo: tuple
    q: tuple
    search_pg2: int
    search_q: tuple
    max_remove: int


# Each locus input takes about the same time at the seed commit, so that no
# field kind dominates pass_s and the median request falls among them.
FULL = Sizes(gfp=(13, 140), gfpk=(9, 52), cyclo=(12, 24), q=(78, 6),
             search_pg2=5, search_q=(20, 50), max_remove=3)
QUICK = Sizes(gfp=(5, 20), gfpk=(4, 15), cyclo=(4, 9), q=(15, 6),
              search_pg2=3, search_q=(8, 50), max_remove=2)

_LOCUS_CATALOG = {"gfp": "pg2", "gfpk": "pg2", "cyclo": "fermat"}


@dataclass(frozen=True)
class Request:
    """One call of negarr.cli.main and what its output must satisfy."""

    rid: str            # stable name within a pass; keys the recorded digests
    kind: str           # warm-up group: set-up runs one request of each kind
    argv: tuple
    path: str | None = None     # input file the request reads
    rc: int = 0                 # expected exit code
    field: str | None = None    # q, gfp, gfpk or cyclo for coordinate inputs
    catalog: tuple | None = None  # (name, params): closed forms apply

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def json(self) -> bool:
        return "--json" in self.argv


def search_subsets(d: int, max_remove: int) -> int:
    """Removal subsets the search covers: sum of C(d, j) for j = 1..r."""
    return sum(comb(d, j) for j in range(1, min(max_remove, d - 1) + 1))


def line_count(path: str) -> int:
    """Lines of the arrangement in a coordinates file."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for row in fh if row.startswith("line "))


class Inputs:
    """Builds the request list of each pass and writes its input files.

    Catalog items are built through `program.catalog_entry` and rendered with
    the CLI's own writers; a built item is kept for later passes.  `build`
    is the hook that runs a catalog generator, so a traced run can time it.
    """

    def __init__(self, program, workload: str, seed: int, sizes: Sizes,
                 workdir: str, build=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.program = program
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.build = build or (lambda fn, *params: fn(*params))
        self._rendered = {}
        os.makedirs(workdir, exist_ok=True)

    def requests(self, pass_no: int) -> list:
        rng = random.Random(f"{self.workload}:{self.seed}:{pass_no}")
        return getattr(self, "_" + self.workload)(rng)

    # ---- helpers ----

    def _catalog_text(self, name: str, params=(), fmt: str | None = None) -> str:
        key = (name, params, fmt)
        if key not in self._rendered:
            cli = self.program.cli
            entry = self.program.catalog_entry(name)
            if fmt == "coords" and entry.kind == "spectrum":
                obj = self.build(entry.coords, *params)
            else:
                obj = self.build(entry.build, *params)
            render = cli.render_spectrum if entry.kind == "spectrum" and fmt != "coords" \
                else cli.render_coords
            self._rendered[key] = render(obj)
        return self._rendered[key]

    def _write(self, rid: str, text: str) -> str:
        path = f"{self.workdir}/{rid}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _shuffled_lines(self, rng, text: str, keep: int | None = None,
                        balanced: bool = False) -> str:
        """The file's lines in a seeded order, or `keep` of them.  balanced
        keeps the same number from each group of lines with zeros in the same
        places (the three families of fermat:n), so every seed draws the same
        mix of cheap and costly meets."""
        rows = text.splitlines()
        lines = [r for r in rows if r.startswith("line ")]
        other = [r for r in rows if not r.startswith("line ")]
        if balanced:
            groups = {}
            for row in lines:
                zeros = tuple(i for i, tok in enumerate(row.split()[1:]) if set(tok) <= set("[]0,"))
                groups.setdefault(zeros, []).append(row)
            picked = [row for key in sorted(groups)
                      for row in rng.sample(groups[key], keep // len(groups))]
            rng.shuffle(picked)
        else:
            picked = rng.sample(lines, len(lines) if keep is None else keep)
        return "\n".join(other[:1] + picked + other[1:]) + "\n"

    @staticmethod
    def _rational_lines(rng, count: int, bound: int) -> str:
        seen, rows = set(), ["field Q"]
        while len(seen) < count:
            a, b, c = (rng.randint(-bound, bound) for _ in range(3))
            g = gcd(gcd(a, b), c)
            if g == 0:
                continue
            a, b, c = a // g, b // g, c // g
            if next(x for x in (a, b, c) if x) < 0:
                a, b, c = -a, -b, -c
            if (a, b, c) not in seen:
                seen.add((a, b, c))
                rows.append(f"line {a} {b} {c}")
        return "\n".join(rows) + "\n"

    # ---- workloads ----

    def _locus(self, rng) -> list:
        """analyze --json on one input per field kind, plus one removal."""
        out = []
        for kind in FIELD_KINDS:
            if kind == "q":
                count, bound = self.sizes.q
                text = self._rational_lines(rng, count, bound)
            else:
                param, keep = getattr(self.sizes, kind)
                base = self._catalog_text(_LOCUS_CATALOG[kind], (param,))
                text = self._shuffled_lines(rng, base, keep, balanced=kind == "cyclo")
            path = self._write(kind, text)
            out.append(Request(f"analyze-{kind}", f"analyze-{kind}",
                               ("analyze", path, "--json"), path=path, field=kind))
        gfp = out[1]
        removed = sorted(rng.sample(range(self.sizes.gfp[1]), 2))
        out.append(Request("subconfig-gfp", "subconfig-gfp",
                           ("subconfig", gfp.path, "--remove", ",".join(map(str, removed)),
                            "--json"), path=gfp.path, field="gfp"))
        return out

    def _search(self, rng) -> list:
        """search --max-remove r on a symmetric input and on two inputs
        without symmetry.  Two of three requests are rational, so the median
        latency falls inside their group and the 90th percentile inside the
        symmetric one's, not in the gap between them."""
        r = str(self.sizes.max_remove)
        pg2 = self._shuffled_lines(rng, self._catalog_text("pg2", (self.sizes.search_pg2,)))
        count, bound = self.sizes.search_q
        out = []
        for rid, field, text in (("search-pg2", "gfp", pg2),
                                 ("search-q1", "q", self._rational_lines(rng, count, bound)),
                                 ("search-q2", "q", self._rational_lines(rng, count, bound))):
            path = self._write(rid, text)
            out.append(Request(rid, f"search-{field}",
                               ("search", path, "--max-remove", r, "--json"),
                               path=path, field=field))
        return out

    def _reports(self, rng) -> list:
        """Millisecond-scale requests: reports on spectra and small coordinate
        files, subconfigurations, generation, and two failing inputs."""
        k_bor = 6 * rng.randint(1, 8)
        k_cub, w_cub = self._cubic_params(rng)
        k_gon = rng.randint(3, 30)
        r_gen, d_pen, d_qp = rng.randint(4, 9), rng.randint(3, 12), rng.randint(4, 12)
        spectra = [("klein", ()), ("wiman", ()), ("boroczky", (k_bor,)),
                   ("cubicgroup", (k_cub, w_cub)), ("kgon", (k_gon,))]
        coords = [("pg2", (3,)), ("generic", (r_gen,)), ("pencil", (d_pen,)),
                  ("quasipencil", (d_qp,)), ("kgon", (4,))]
        out, paths = [], {}
        files = [(True, *x) for x in spectra] + [(False, *x) for x in coords]
        for is_spectrum, name, params in files:
            label = name if is_spectrum else f"{name}-coords"
            text = self._catalog_text(name, params, None if is_spectrum else "coords")
            if not is_spectrum:
                text = self._shuffled_lines(rng, text)
            path = paths[label] = self._write(label, text)
            field = None if is_spectrum else ("gfp" if name == "pg2" else "q")
            group = "spectrum" if is_spectrum else "coords"
            for mode in ("text", "json"):
                argv = ("analyze", path) + (("--json",) if mode == "json" else ())
                out.append(Request(f"analyze-{label}-{mode}", f"analyze-{group}-{mode}",
                                   argv, path=path, field=field, catalog=(name, params)))

        def sub(rid, label, flags, field=None, catalog=None):
            out.append(Request(rid, "subconfig-" + flags[0][2:],
                               ("subconfig", paths[label]) + flags + ("--json",),
                               path=paths[label], field=field, catalog=catalog))

        sub("pairs-klein", "klein", ("--pairs-meeting", str(rng.choice((3, 4)))))
        sub("pairs-wiman", "wiman", ("--pairs-meeting", str(rng.choice((3, 4, 5)))))
        sub("pairs-pg2", "pg2-coords", ("--pairs-meeting", "4"), "gfp")
        sub("pairs-generic", "generic-coords", ("--pairs-meeting", "2"), "q")
        sub("formula-klein", "klein", ("--formula", str(rng.randint(2, 20))),
            catalog=("klein", ()))
        sub("formula-wiman", "wiman", ("--formula", str(rng.randint(2, 44))),
            catalog=("wiman", ()))
        sub("formula-boroczky", "boroczky",
            ("--formula", f"{rng.randint(2, k_bor)},{rng.randint(1, k_bor)}"),
            catalog=("boroczky", (k_bor,)))
        sub("formula-kgon", "kgon",
            ("--formula", f"{rng.randint(2, 2 * k_gon)},{rng.randint(1, k_gon)}"),
            catalog=("kgon", (k_gon,)))
        sub("remove-pg2", "pg2-coords",
            ("--remove", ",".join(map(str, sorted(rng.sample(range(13), 2))))), "gfp")

        items = spectra + coords[:4] + [("dualhesse", ())]
        for name, params in items:
            item = name + (":" + ",".join(map(str, params)) if params else "")
            out.append(Request(f"generate-{name}", "generate", ("generate", item),
                               catalog=(name, params)))
        out.append(Request("generate-kgon-coords", "generate",
                           ("generate", "kgon:4", "--format", "coords"), catalog=("kgon", (4,))))

        klein = self.build(self.program.catalog_entry("klein").build)
        real_klein = self.program.abstract_spectrum(klein.d, klein.t, real=True,
                                                    complete=True, profile=klein.profile)
        path = self._write("klein-real", self.program.cli.render_spectrum(real_klein))
        out.append(Request("analyze-klein-real", "certificate-failure",
                           ("analyze", path, "--json"), path=path, rc=1,
                           catalog=("klein", ())))
        d_bad = rng.randint(5, 30)
        path = self._write("bad-identity", f"spectrum d={d_bad}\nt 2 {comb(d_bad, 2) - 1}\n")
        out.append(Request("analyze-bad-identity", "input-error", ("analyze", path),
                           path=path, rc=2))
        return out

    @staticmethod
    def _cubic_params(rng):
        while True:
            k, w = rng.randint(6, 40), rng.choice((1, 3, 9))
            if w <= k and (k * (k - 3) + 2 * w) % 6 == 0:
                return k, w
