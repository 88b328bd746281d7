"""The three benchmark workloads and the checks run on their outputs.

Each workload builds its inputs from the seed, runs one pass through the
package's public entry points, and checks what the pass produced against
``oracles`` and the properties the paper and the README promise. Checks
return a list of failures, empty when the outputs are correct; they run
after each pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

SU_METRICS = ("su_ecls", "su_icls", "su_milp", "su_analytic")
ROUTES = ("analytic", "ecls", "icls", "milp")
SIZE_REL = 6e-12  # CSV floats carry 12 significant digits


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    seconds: list = field(default_factory=list)  # wall time of each operation, in order

    def timed(self, operation, *args):
        """Call ``operation(*args)``, append its wall time and return its value."""
        t0 = time.perf_counter()
        try:
            return operation(*args)
        finally:
            self.seconds.append(time.perf_counter() - t0)


def run_cli(argv: list[str]) -> int:
    """Run one ``loadsizer`` command in-process and return its exit code."""
    from loadsizer import cli

    saved = sys.argv
    sys.argv = ["loadsizer"] + argv
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.entrypoint()  # looked up per call, so the tracer's wrapper is seen
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_year(seed: int, path: Path) -> None:
    from loadsizer.synth import synth_year_series, write_series_csv

    write_series_csv(synth_year_series(seed=seed), path)


class YearCompare:
    """``loadsizer compare --n-range 2-6 --clear-day CLEAR YEAR``: the paper's experiment."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.year = workdir / "year.csv"
        self.clear = workdir / "clear_day.csv"
        self.out = workdir / "compare"
        self.first_bytes: dict[str, bytes] | None = None
        self.su: dict[str, float] = {}

    def build_inputs(self) -> None:
        from loadsizer.synth import clear_day_series, write_series_csv

        write_year(self.seed, self.year)
        write_series_csv(clear_day_series(), self.clear)

    def prepare(self) -> None:
        self.values = {
            "year": oracles.read_power_csv(self.year)[1],
            "clear": oracles.read_power_csv(self.clear)[1],
        }

    def run_pass(self) -> PassResult:
        result = PassResult(attempted=1)
        code = result.timed(
            run_cli,
            ["compare", "--n-range", "2-6", "--clear-day", str(self.clear),
             "--output-dir", str(self.out), str(self.year)],
        )
        result.failed = int(code != 0)
        return result

    def parse(self) -> dict:
        rows = []
        for r in read_rows(self.out / "comparison.csv"):
            n = int(r["n"])
            rows.append(
                {"n": n, "method": r["method"], "SU": float(r["SU"]),
                 "x": [float(r[f"x{i + 1}"]) for i in range(n)]}
            )
        norm = [
            {"n": int(r["n"]), "method": r["method"], "SU": float(r["SU"]),
             "normalized_SU": float(r["normalized_SU"])}
            for r in read_rows(self.out / "normalized_su.csv")
        ]
        return {"rows": rows, "norm": norm}

    def check(self, result: PassResult) -> list[str]:
        if result.failed:
            return []
        blobs = {p.name: p.read_bytes() for p in sorted(self.out.glob("*.csv"))}
        if self.first_bytes is None:
            self.first_bytes = blobs
        errors = [] if blobs == self.first_bytes else ["CSVs differ from the first pass"]
        parsed = self.parse()
        errors += self.check_parsed(parsed)
        if not errors:
            self.su = {
                f"su_{m}": float(np.mean([r["SU"] for r in parsed["rows"] if r["method"] == m]))
                for m in ROUTES
            }
        return errors

    def check_parsed(self, parsed: dict) -> list[str]:
        rows, norm = parsed["rows"], parsed["norm"]
        errors = []
        expected = {(n, m) for n in range(2, 7) for m in ROUTES if m != "analytic" or n <= 4}
        if len(rows) != 18 or {(r["n"], r["method"]) for r in rows} != expected:
            errors.append(f"comparison.csv rows {[(r['n'], r['method']) for r in rows]}")
            return errors
        ecls = {r["n"]: r["SU"] for r in rows if r["method"] == "ecls"}
        for r in rows:
            tag = f"{r['method']} n={r['n']}"
            x = np.array(r["x"])
            if (x <= 0).any() or (np.diff(x) > 0).any():
                errors.append(f"{tag}: sizes not positive and non-increasing: {r['x']}")
            values = self.values["clear" if r["method"] == "analytic" else "year"]
            lo, hi = oracles.su_interval(values, x, SIZE_REL)
            if not lo - 1e-12 <= r["SU"] <= hi + 1e-12:
                errors.append(f"{tag}: SU {r['SU']!r} outside the oracle's [{lo!r}, {hi!r}]")
        for m in ROUTES:
            curve = [r["SU"] for r in sorted(rows, key=lambda r: r["n"]) if r["method"] == m]
            if any(b <= a for a, b in zip(curve, curve[1:])):
                errors.append(f"{m}: SU does not rise strictly in n: {curve}")
            if not 0.65 <= curve[0] <= 0.80:
                errors.append(f"{m}: SU at n=2 is {curve[0]}, outside [0.65, 0.80]")
            if m != "analytic" and curve[-1] < 0.95:
                errors.append(f"{m}: SU at n=6 is {curve[-1]}, below 0.95")
        su = {(r["n"], r["method"]): r["SU"] for r in rows}
        if sorted((r["n"], r["method"]) for r in norm) != sorted(su):
            errors.append("normalized_su.csv rows differ from comparison.csv")
        for r in norm:
            key = (r["n"], r["method"])
            ratio = su.get(key, np.nan) / ecls[r["n"]]
            if r["SU"] != su.get(key) or abs(r["normalized_SU"] - ratio) > 1e-11:
                errors.append(f"normalized_su.csv {key}: {r} against SU/ECLS SU {ratio!r}")
        return errors

    def self_check(self, result: PassResult) -> list[str]:
        parsed = self.parse()
        row = next(r for r in parsed["rows"] if r["method"] == "ecls")
        row["SU"] += 1e-6
        return [] if self.check_parsed(parsed) else ["an SU off by 1e-6 passed the checks"]


# Fixed sizings for schedule_year. All but the last take the exhaustive
# subset table in dispatch (n <= 12); n = 13 takes its per-step search.
# (0.5, 0.25, 0.25) has exact ties ({1} and {2, 3}; {1, 2} and {1, 3}),
# which the tie rule settles: fewest loads on, then lowest combo index.
SIZINGS = [
    (0.482499, 0.222565),
    (0.5, 0.25, 0.25),
    (0.500781, 0.246829, 0.126143, 0.061224, 0.031194, 0.015165),
    tuple(round(0.31 * 0.71**k, 6) for k in range(12)),
    tuple(round(0.29 * 0.73**k, 6) for k in range(13)),
]
HISTOGRAM_MAX_N = 12
BINS = 24


class ScheduleYear:
    """``loadsizer schedule`` (and ``histogram`` for n <= 12) on YEAR for fixed sizings."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.year = workdir / "year.csv"
        self.workdir = workdir

    def build_inputs(self) -> None:
        write_year(self.seed, self.year)

    def prepare(self) -> None:
        stamps, self.values = oracles.read_power_csv(self.year)
        seconds = np.array([t.hour * 3600 + t.minute * 60 + t.second for t in stamps])
        self.bin_of = seconds * BINS // 86400

    def outdir(self, x) -> Path:
        return self.workdir / f"schedule_n{len(x)}"  # one sizing per n

    def run_pass(self) -> PassResult:
        result = PassResult()
        for x in SIZINGS:
            sizes = ",".join(repr(v) for v in x)
            common = ["--sizes", sizes, "--output-dir", str(self.outdir(x)), str(self.year)]
            commands = [["schedule"] + common]
            if len(x) <= HISTOGRAM_MAX_N:
                commands.append(["histogram"] + common)
            for argv in commands:
                code = result.timed(run_cli, argv)
                result.attempted += 1
                result.failed += code != 0
                result.outputs[(argv[0], len(x))] = code
        return result

    def parse(self, x, with_histogram: bool) -> dict:
        with open(self.outdir(x) / "schedule.csv", newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            table = np.array([r[1:] for r in rows], dtype=float)
        parsed = {"header": header, "S": table[:, 0], "u": table[:, 1:-2].T,
                  "captured": table[:, -2], "mismatch": table[:, -1]}
        if with_histogram:
            rows = read_rows(self.outdir(x) / "histogram.csv")
            parsed["hist"] = np.array(
                [[int(v) for v in r.values()] for r in rows], dtype=np.int64
            ).reshape(-1, 3)
        return parsed

    def check(self, result: PassResult) -> list[str]:
        errors = []
        for x in SIZINGS:
            if result.outputs[("schedule", len(x))] == 0:
                with_histogram = result.outputs.get(("histogram", len(x))) == 0
                errors += self.check_parsed(x, self.parse(x, with_histogram))
        return errors

    def check_parsed(self, x, p: dict) -> list[str]:
        tag = f"n={len(x)}"
        n = len(x)
        want = ["timestamp", "S"] + [f"u_{i + 1}" for i in range(n)] + ["captured", "mismatch"]
        if p["header"] != want or p["S"].size != self.values.size:
            return [f"{tag}: schedule.csv header {p['header']} or length {p['S'].size}"]
        errors = []
        if np.abs(p["S"] - self.values).max() > 1e-12:
            errors.append(f"{tag}: S column differs from the normalized input")
        u = p["u"]
        if not np.isin(u, (0.0, 1.0)).all():
            return errors + [f"{tag}: u columns are not 0/1"]
        combo = oracles.combos_from_bits(u)
        bad, _ = oracles.dispatch_check(self.values, x, combo)
        if bad:
            errors.append(f"{tag}: {bad} steps differ from the oracle's dispatch")
        draw = np.asarray(x) @ u
        if (draw > self.values + oracles.FEAS_TOL).any():
            errors.append(f"{tag}: draw exceeds S")
        if np.abs(p["captured"] + p["mismatch"] - p["S"]).max() > 2e-12:
            errors.append(f"{tag}: captured + mismatch != S")
        if np.abs(p["captured"] - draw).max() > 1e-12:
            errors.append(f"{tag}: captured column differs from the draw of u")
        if "hist" in p:
            errors += self.check_histogram(tag, combo, p["hist"])
        return errors

    def check_histogram(self, tag: str, combo: np.ndarray, hist: np.ndarray) -> list[str]:
        day = self.values > 0
        counts = np.zeros((BINS, int(combo.max()) + 1), dtype=np.int64)
        np.add.at(counts, (self.bin_of[day], combo[day]), 1)
        daytime = np.bincount(self.bin_of[day], minlength=BINS)
        bins = np.unique(hist[:, 0])
        errors = []
        if set(bins.tolist()) != set(np.flatnonzero(daytime).tolist()):
            errors.append(f"{tag}: histogram bins {bins.tolist()} are not the daytime bins")
        for b in bins:
            mine = hist[hist[:, 0] == b]
            if mine[:, 2].sum() + counts[b, 0] != daytime[b]:
                errors.append(f"{tag}: bin {b} rows do not sum to its daytime samples")
            combos = mine[:, 1]
            have = np.zeros(counts.shape[1], dtype=np.int64)
            inside = combos < counts.shape[1]
            have[combos[inside]] = mine[inside, 2]
            if (mine[~inside, 2] != 0).any() or (have[1:] != counts[b, 1:]).any():
                errors.append(f"{tag}: bin {b} combination counts differ from the oracle's")
        return errors

    def self_check(self, result: PassResult) -> list[str]:
        x = SIZINGS[0]
        p = self.parse(x, with_histogram=False)
        step = int(np.flatnonzero(self.values > 0.5)[0])
        p["u"][0, step] = 1.0 - p["u"][0, step]
        return [] if self.check_parsed(x, p) else ["a flipped u bit passed the checks"]


# milp_exact's batch as (n, horizons T, instances per T), within criterion
# 6's ranges (n = 1..4, T <= 14, values round(uniform(0.05, 1.0), 4)).
# The deep trees, n = 3 at T = 4 and n = 2 at T = 6 and 7, take 30 to 650
# nodes each, and their cost varies by about half from one draw to the
# next: drawn from the run's seed, a handful of them moved the batch's
# node count by up to 29 % between seeds. So they are drawn from the fixed
# CORE_SEED, the same in every run, and the shallow trees from the run's
# seed, in enough numbers that their total varies little.
SEEDED_PLAN = [(1, range(1, 15), 6), (2, range(1, 6), 6), (3, range(1, 4), 2), (4, range(1, 4), 1)]
CORE_PLAN = [(2, [6], 4), (2, [7], 5), (3, [4], 5)]
CORE_SEED = 1


def draw_batch(rng: np.random.Generator, plan) -> list[tuple[int, np.ndarray]]:
    return [
        (n, np.round(rng.uniform(0.05, 1.0, size=T), 4))
        for n, horizons, per_t in plan
        for T in horizons
        for _ in range(per_t)
    ]


class MilpExact:
    """``branch_and_bound(..., gap_tol=0.0)`` on a batch of small instances."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.optimum: list[float] | None = None

    def build_inputs(self) -> None:
        self.batch = draw_batch(np.random.default_rng(self.seed), SEEDED_PLAN) + draw_batch(
            np.random.default_rng(CORE_SEED), CORE_PLAN
        )

    def prepare(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        from loadsizer import milp
        from loadsizer.errors import LoadSizerError

        def solve(n, s):
            try:
                return milp.branch_and_bound(milp.build_instance(s, n), gap_tol=0.0)
            except LoadSizerError:
                return None

        result = PassResult(attempted=len(self.batch))
        solutions = [result.timed(solve, n, s) for n, s in self.batch]
        result.failed = sum(sol is None for sol in solutions)
        result.outputs["solutions"] = solutions
        return result

    def check(self, result: PassResult) -> list[str]:
        if self.optimum is None:
            self.optimum = [oracles.milp_optimum(s, n) for n, s in self.batch]
        return self.check_solutions(result.outputs["solutions"])

    def check_solutions(self, solutions) -> list[str]:
        errors = []
        for k, ((n, s), sol, best) in enumerate(zip(self.batch, solutions, self.optimum)):
            if sol is None:
                continue
            tag = f"instance {k} (n={n}, T={s.size})"
            if sol.status != "optimal":
                errors.append(f"{tag}: status {sol.status}")
            if abs(sol.objective - best) > 1e-9:
                errors.append(f"{tag}: objective {sol.objective!r}, oracle {best!r}")
            if not np.array_equal(sol.y, sol.u * sol.x[:, None]):
                errors.append(f"{tag}: y != u * x")
        return errors

    def self_check(self, result: PassResult) -> list[str]:
        solutions = copy.deepcopy(result.outputs["solutions"])
        solutions[0].objective += 1e-6
        return [] if self.check_solutions(solutions) else ["an objective off by 1e-6 passed"]


WORKLOADS = {"year_compare": YearCompare, "milp_exact": MilpExact, "schedule_year": ScheduleYear}
