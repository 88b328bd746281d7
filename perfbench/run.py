"""Benchmark for loadsizer: one workload, a closed loop of passes, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload year_compare --seed 1 --seconds 25 --trace 0

One caller in one process runs one pass after another until the passes
have taken ``--seconds`` of timed work; the last pass always runs to its
end. With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` one more pass runs with the per-layer tracer
installed and the line holds the per-layer metrics. Outputs and the trace
go to ``perfbench/out/<workload>-<seed>/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import loadsizer.cli; "
    "print(time.perf_counter() - t0)"
)
PLACEHOLDER_SU = 1.0  # su_* on workloads where that route does not run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["year_compare", "milp_exact", "schedule_year"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_seconds(src: Path) -> float:
    """Seconds to import ``loadsizer.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(probe.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "loadsizer" / "__init__.py").is_file():
        print(f"perfbench: {src}/loadsizer not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads
    sys.path.insert(0, str(src))
    import loadsizer.cli  # noqa: F401  (numpy, click and every route, before any timed pass)
    import tracer as tracing
    import workloads

    workdir = root / "perfbench" / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds(src))
        t0 = time.perf_counter()
        workload.build_inputs()
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)
    workload.prepare()

    walls: list[float] = []
    op_seconds: list[list[float]] = []
    attempted = failed = 0
    errors: list[str] = []
    first = None
    peak_rss_mb = None
    while True:
        t0 = time.perf_counter()
        result = workload.run_pass()
        walls.append(time.perf_counter() - t0)
        op_seconds.append(result.seconds)
        if first is None:  # read before any check allocates
            first = result
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += result.attempted
        failed += result.failed
        errors += workload.check(result)
        if sum(walls) >= args.seconds:
            break
    # One pass's time with each operation at its median over the run's passes:
    # every pass contributes, and an operation slowed by a passing spell of the
    # machine does not carry the figure.
    wall_s = sum(statistics.median(times) for times in zip(*op_seconds))
    if not first.failed:
        errors += workload.self_check(first)

    metrics: dict[str, tuple[float, str]]
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            result = workload.run_pass()
            traced_s = time.perf_counter() - t0
        attempted += result.attempted
        failed += result.failed
        errors += workload.check(result)
        metrics = tracer.metrics(overhead_s=traced_s - wall_s)
        (workdir / "trace.json").write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "untraced_wall_s": walls,
                 "traced_wall_s": traced_s, "counters": dict(sorted(tracer.counts.items()))},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    else:
        su = getattr(workload, "su", {})
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for name in workloads.SU_METRICS:
            metrics[name] = (su.get(name, PLACEHOLDER_SU), "1")

    for line in errors:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
