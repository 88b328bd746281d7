"""Command-line front end: ingest, size, schedule, compare, report.

Every command reads the two-column ``timestamp,power_w`` CSV, works in
normalized units and writes deterministic CSV/JSON artifacts (re-running
with the same seed and inputs reproduces them byte for byte). Exit codes:
0 success, 1 data/numeric errors, 2 usage errors, 3 partial comparison.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analytic import MAX_LOADS as ANALYTIC_MAX_LOADS, solve_n_load
from .dispatch import (
    NO_LOAD_SIZE,
    SwitchSchedule,
    combo_histogram,
    dispatch_greedy,
    utilization,
    write_histogram_csv,
    write_schedule_csv,
)
from .ecls import DEFAULT_BLOCK_LENGTH, DEFAULT_C_STEPS
from .ecls import line_search_C, sensitivity_table, write_sensitivity_csv
from .errors import LoadSizerError, UsageError
from .icls import optimize_m
from .milp import branch_and_bound, build_instance
from .milp.sweep import DOWNSAMPLED_NODE_LIMIT
from .results import SizingResult, as_load_sizing, format_float, write_csv_columns
from .timeseries import (
    PowerSeries,
    downsample_uniform,
    fit_clear_day,
    load_series,
    normalize,
    sort_ascending,
)

METHODS = ("analytic", "ecls", "icls", "milp")


def read_config(path: str | Path) -> dict[str, str]:
    """Flat ``key=value`` file mirroring the long flag names; flags win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("["):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _load_config(ctx: click.Context, _param, path: str | None) -> str | None:
    """Make a ``--config`` file's values the command's defaults, before any
    other option is read; explicit flags still win.

    Keys are the long flag names with dashes as underscores (``n`` for
    ``--n``); a key that names no option of the command is ignored.
    """
    if path:
        names = {
            opt[2:].replace("-", "_"): param.name
            for param in ctx.command.params
            for opt in param.opts
            if opt.startswith("--")
        }
        defaults = {names[k]: v for k, v in read_config(path).items() if k in names}
        ctx.default_map = {**(ctx.default_map or {}), **defaults}
    return path


_COMMON_OPTIONS = [
    click.option("--seed", default=42, show_default=True, help="Seed for all randomized searches."),
    click.option(
        "--output-dir",
        default=".",
        show_default=True,
        type=click.Path(file_okay=False),
        help="Directory for result files.",
    ),
    click.option(
        "--config",
        default=None,
        type=click.Path(exists=True, dir_okay=False),
        is_eager=True,
        callback=_load_config,
        help="key=value defaults file; explicit flags win.",
    ),
    click.option("--resample", default=900, show_default=True, help="Resample interval [s]."),
]


def common_options(fn):
    for option in reversed(_COMMON_OPTIONS):
        fn = option(fn)
    return fn


def _ingest(path: str, resample: int) -> PowerSeries:
    return normalize(load_series(path, resample_seconds=resample))


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


@click.group()
@click.version_option(version=__version__, prog_name="loadsizer")
def main() -> None:
    """Size and schedule binary-switchable loads against a solar series."""


def _run_method(
    method: str, series: PowerSeries, n: int, p: dict
) -> tuple[SizingResult, SwitchSchedule]:
    """One full sizing pipeline: sort, optimize, dispatch, score.

    ``p`` is the command's parsed params: ``seed`` and the method knobs.
    Returns the result and the schedule its sizes were scored by.
    """
    t0 = time.perf_counter()
    diagnostics: dict = {}
    if method == "analytic":
        if n > ANALYTIC_MAX_LOADS:
            raise UsageError(f"the analytic route supports n <= {ANALYTIC_MAX_LOADS}")
        model = fit_clear_day(series)
        sol = solve_n_load(model, n, multistarts=p["multistarts"], seed=p["seed"])
        x = np.sort(np.asarray(sol.base_sizes))[::-1]
        objective = sol.area
        diagnostics = {
            "model": {"a": model.a, "b": model.b, "c": model.c},
            "analytic_solar_utilization": sol.solar_utilization,
            "levels": list(sol.levels),
            "switch_times": list(sol.switch_times),
        }
    elif method == "ecls":
        sorted_series = sort_ascending(series, remove_zeros=True)
        best = line_search_C(
            sorted_series, n, c_steps=p["c_steps"], block_length=p["block_length"]
        )
        x = best.x
        objective = best.residual_norm
        diagnostics = {"C": best.C, "lambda": best.lam, "residual_norm": best.residual_norm}
    elif method == "icls":
        sorted_series = sort_ascending(series, remove_zeros=True)
        best = optimize_m(sorted_series, n, restarts=p["restarts"], seed=p["seed"])
        x = best.x
        objective = best.residual_norm
        diagnostics = {
            "m": list(best.m.lengths),
            "offset": best.offset,
            "x_bar": list(best.x_bar),
            "restarts_used": best.restarts_used,
            "residual_norm": best.residual_norm,
            "qp_solves": best.qp_solves,
            "active_set_iterations": best.iterations,
            "warm_start_hits": best.warm_hits,
        }
    elif method == "milp":
        sorted_series = sort_ascending(series, remove_zeros=False)
        reduced = downsample_uniform(sorted_series, p["ratio"])
        instance = build_instance(reduced.values, n)
        sol = branch_and_bound(instance, gap_tol=p["gap"], node_limit=p["node_limit"])
        x = np.sort(sol.x)[::-1]
        objective = sol.objective
        diagnostics = {
            "gap": sol.gap,
            "nodes_explored": sol.nodes_explored,
            "status": sol.status,
            "ratio": p["ratio"],
            "downsampled_length": len(reduced),
        }
    else:
        raise UsageError(f"unknown method {method!r}")

    positive = x[x > NO_LOAD_SIZE]
    if positive.size == 0:
        raise LoadSizerError(f"{method} produced no positive load sizes")
    positive = as_load_sizing(positive)
    schedule = dispatch_greedy(series, positive)
    report = utilization(series, schedule, positive)
    runtime = time.perf_counter() - t0
    result = SizingResult(
        method=method,
        n=n,
        x=[float(v) for v in positive],
        objective=float(objective),
        solar_utilization=report.solar_utilization,
        diagnostics=diagnostics,
        runtime_seconds=runtime,
    )
    return result, schedule


_KNOB_OPTIONS = [
    click.option(
        "--c-steps", default=DEFAULT_C_STEPS, show_default=True, help="ECLS line-search grid size."
    ),
    click.option(
        "--block-length",
        default=DEFAULT_BLOCK_LENGTH,
        show_default=True,
        help="ECLS rows per combination.",
    ),
    click.option("--restarts", default=4, show_default=True, help="ICLS search restarts."),
    click.option("--ratio", default=200, show_default=True, help="MILP downsampling ratio."),
    click.option("--gap", default=1e-6, show_default=True, help="MILP relative gap tolerance."),
    click.option(
        "--node-limit", default=DOWNSAMPLED_NODE_LIMIT, show_default=True, help="MILP node budget."
    ),
    click.option("--multistarts", default=16, show_default=True, help="Analytic multistarts."),
]


def method_knob_options(fn):
    for option in reversed(_KNOB_OPTIONS):
        fn = option(fn)
    return fn


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@common_options
@click.pass_context
def fit(ctx, input_csv, **_):
    """Fit the clear-day model and write it as model.json."""
    series = _ingest(input_csv, ctx.params["resample"])
    model = fit_clear_day(series)
    out = _outdir(ctx.params["output_dir"]) / "model.json"
    out.write_text(model.to_json() + "\n", encoding="utf-8")
    click.echo(
        f"a={model.a:.6g} b={model.b:.6g} c={model.c:.6g} "
        f"t_max={model.t_max:.6g} y_max={model.y_max:.6g}"
    )
    click.echo(f"wrote {out}")


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(METHODS), required=True)
@click.option("--n", "n_loads", default=2, show_default=True, help="Number of loads.")
@click.option("--denormalize", is_flag=True, help="Also report sizes in source power units.")
@method_knob_options
@common_options
@click.pass_context
def size(ctx, input_csv, method, n_loads, denormalize, **_):
    """Optimal static sizes for one method, plus the dispatched schedule."""
    p = ctx.params
    if n_loads < 1:
        raise UsageError("--n must be >= 1")
    series = _ingest(input_csv, p["resample"])
    result, schedule = _run_method(method, series, n_loads, p)
    if denormalize:
        result.diagnostics["x_watts"] = [v * series.s_max for v in result.x]
        result.diagnostics["s_max_watts"] = series.s_max
    out = _outdir(p["output_dir"])
    result_path = out / f"result_{method}_n{n_loads}.json"
    result_path.write_text(result.to_json() + "\n", encoding="utf-8")
    x = np.asarray(result.x)
    schedule_path = write_schedule_csv(
        series, schedule, x, out / f"schedule_{method}_n{n_loads}.csv"
    )
    click.echo(
        f"{method} n={n_loads}: SU={result.solar_utilization:.4f} "
        f"x=[{', '.join(format_float(v) for v in result.x)}]"
    )
    click.echo(f"wrote {result_path}")
    click.echo(f"wrote {schedule_path}")


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--sizes", required=True, help="Comma-separated normalized load sizes.")
@common_options
@click.pass_context
def schedule(ctx, input_csv, sizes, **_):
    """Dispatch fixed sizes over the series and write the schedule CSV."""
    p = ctx.params
    x = _parse_sizes(sizes)
    series = _ingest(input_csv, p["resample"])
    sched = dispatch_greedy(series, x)
    report = utilization(series, sched, x)
    out = _outdir(p["output_dir"])
    path = write_schedule_csv(series, sched, x, out / "schedule.csv")
    click.echo(f"SU={report.solar_utilization:.4f} captured={report.captured_energy:.4f}")
    click.echo(f"wrote {path}")


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-range", default="2-6", show_default=True, help="Range like 2-6 or list 2,3,4.")
@click.option(
    "--clear-day",
    default=None,
    type=click.Path(exists=True, dir_okay=False),
    help=f"Clear-day CSV enabling the analytic route (n <= {ANALYTIC_MAX_LOADS}).",
)
@method_knob_options
@common_options
@click.pass_context
def compare(ctx, input_csv, n_range, clear_day, **_):
    """Run ECLS, ICLS and MILP (and analytic if a clear day is supplied)."""
    p = ctx.params
    ns = _parse_range(n_range)
    if min(ns) < 2 or max(ns) > 6:
        raise UsageError("comparison supports n in 2..6")
    series = _ingest(input_csv, p["resample"])
    clear_series = _ingest(clear_day, p["resample"]) if clear_day else None

    rows: list[SizingResult] = []
    failures: list[str] = []
    for n in ns:
        analytic = clear_series is not None and n <= ANALYTIC_MAX_LOADS
        for method in ("ecls", "icls", "milp") + (("analytic",) if analytic else ()):
            try:
                result, _ = _run_method(
                    method, clear_series if method == "analytic" else series, n, p
                )
                rows.append(result)
                stop = ""
                if method == "milp":
                    d = result.diagnostics
                    stop = f" ({d['status']}, gap {d['gap']:.3g})"
                click.echo(f"{method} n={n}: SU={result.solar_utilization:.4f}{stop}")
            except LoadSizerError as exc:
                failures.append(f"{method} n={n}: {exc}")
                click.echo(f"{method} n={n}: FAILED ({exc})", err=True)

    out = _outdir(p["output_dir"])
    comparison_path = out / "comparison.csv"
    _write_comparison(rows, max(ns), comparison_path)
    normalized_path = out / "normalized_su.csv"
    _write_normalized(rows, normalized_path)
    click.echo(f"wrote {comparison_path}")
    click.echo(f"wrote {normalized_path}")
    if failures:
        click.echo(f"{len(failures)} method run(s) failed", err=True)
        sys.exit(3)


def _parse_sizes(text: str) -> np.ndarray:
    try:
        x = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated numbers, got {text!r}") from None
    if x.size == 0:
        raise UsageError("--sizes must list at least one load")
    return x


def _parse_range(text: str) -> list[int]:
    text = text.strip()
    try:
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError:
        ns = []
    if not ns:
        raise UsageError(f"--n-range must be a range like 2-6 or a list like 2,3,4, got {text!r}")
    return ns


def _write_comparison(rows: list[SizingResult], n_max: int, path: Path) -> None:
    table = []
    for r in sorted(rows, key=lambda r: (r.n, r.method)):
        # sizes round-trip exactly: the optima sit where a subset draw
        # equals a sample, so a rounded size can re-dispatch to another SU
        xs = [repr(float(v)) for v in r.x] + [""] * (n_max - len(r.x))
        table.append(
            [str(r.n), r.method] + xs + [format_float(sum(r.x)), format_float(r.solar_utilization)]
        )
    header = ["n", "method"] + [f"x{i + 1}" for i in range(n_max)] + ["sum_x", "SU"]
    write_csv_columns(path, header, len(table), lambda block: zip(*table[block]))


def _write_normalized(rows: list[SizingResult], path: Path) -> None:
    baseline = {r.n: r.solar_utilization for r in rows if r.method == "ecls"}
    table = []
    for r in sorted(rows, key=lambda r: (r.n, r.method)):
        base = baseline.get(r.n)
        norm = r.solar_utilization / base if base else math.nan
        table.append([str(r.n), r.method, format_float(r.solar_utilization), format_float(norm)])
    header = ["n", "method", "SU", "normalized_SU"]
    write_csv_columns(path, header, len(table), lambda block: zip(*table[block]))


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--sizes", required=True, help="Comma-separated normalized load sizes.")
@click.option("--bins", default=24, show_default=True, help="Time-of-day bins per day.")
@common_options
@click.pass_context
def histogram(ctx, input_csv, sizes, bins, **_):
    """Occurrence counts of each switch combination per time-of-day bin."""
    p = ctx.params
    x = _parse_sizes(sizes)
    series = _ingest(input_csv, p["resample"])
    sched = dispatch_greedy(series, x)
    hist = combo_histogram(series, sched, bins_per_day=bins)
    out = _outdir(p["output_dir"])
    path = write_histogram_csv(hist, out / "histogram.csv")
    click.echo(f"wrote {path}")


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n_loads", default=3, show_default=True)
@click.option("--steps", default=DEFAULT_C_STEPS, show_default=True, help="C grid resolution.")
@click.option("--block-length", default=DEFAULT_BLOCK_LENGTH, show_default=True)
@common_options
@click.pass_context
def sensitivity(ctx, input_csv, n_loads, steps, block_length, **_):
    """Full ECLS C sweep: one row per grid value."""
    p = ctx.params
    series = _ingest(input_csv, p["resample"])
    sorted_series = sort_ascending(series, remove_zeros=True)
    table = sensitivity_table(
        sorted_series, n_loads, c_steps=p["steps"], block_length=p["block_length"]
    )
    out = _outdir(p["output_dir"])
    path = write_sensitivity_csv(table, out / "sensitivity.csv")
    click.echo(f"wrote {path}")


def entrypoint() -> None:
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except UsageError as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)
    except LoadSizerError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()
