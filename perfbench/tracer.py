"""Per-layer counters for the traced pass, recorded from outside the program.

The tracer replaces public functions of ``loadsizer`` modules with
wrappers that count calls and seconds and read work counts off the values
the functions return. A function imported by name into another module is
a separate binding there, so it is wrapped in every module that holds it;
the binding a call went through names its caller. Recursive or nested
calls of one function add to its call count but not twice to its
seconds. Nothing is written while the pass runs: the counters stay in
memory and the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import logging
import time
from collections import defaultdict
from pathlib import Path

# (metric prefix, defining module, function, other modules holding it by name)
WRAPPED = [
    ("timeseries.load_series", "timeseries", "load_series", ["cli", ""]),
    ("analytic.solve_n_load", "analytic", "solve_n_load", ["cli"]),
    ("ecls.line_search_C", "ecls", "line_search_C", ["cli"]),
    ("icls.optimize_m", "icls", "optimize_m", ["cli"]),
    ("dispatch.capture_best", "dispatch", "capture_best", ["icls", "ecls", "milp.bnb"]),
    ("dispatch.dispatch_greedy", "dispatch", "dispatch_greedy", ["cli"]),
    ("dispatch.utilization", "dispatch", "utilization", ["cli"]),
    ("dispatch.combo_histogram", "dispatch", "combo_histogram", ["cli"]),
    ("dispatch.write_schedule_csv", "dispatch", "write_schedule_csv", ["cli"]),
    ("dispatch.write_histogram_csv", "dispatch", "write_histogram_csv", ["cli"]),
    ("milp.branch_and_bound", "milp.bnb", "branch_and_bound", ["cli", "milp"]),
    ("milp.best_sizes_for_schedule", "milp.bnb", "best_sizes_for_schedule", []),
    (
        "milp.solve_lp_relaxation",
        "milp.relaxation",
        "solve_lp_relaxation",
        ["milp.bnb", "milp"],
    ),
    ("milp.solve_lp", "milp.simplex", "solve_lp", ["milp.relaxation", "milp.bnb", "milp"]),
    ("cli.entrypoint", "cli", "entrypoint", []),
]


# Every per-layer metric the traced run reports, in BENCHMARK.json's order.
# A layer that does not run on a workload reports 0 there.
PER_LAYER = [
    ("timeseries.load_series.calls", "count"),
    ("timeseries.load_series.s", "s"),
    ("analytic.solve_n_load.calls", "count"),
    ("analytic.solve_n_load.s", "s"),
    ("ecls.line_search_C.calls", "count"),
    ("ecls.line_search_C.s", "s"),
    ("ecls.c_rejected", "count"),
    ("icls.optimize_m.calls", "count"),
    ("icls.optimize_m.s", "s"),
    ("icls.optimize_m.s_n6", "s"),
    ("icls.scored_sizings", "count"),
    ("dispatch.capture_best.calls", "count"),
    ("dispatch.capture_best.s", "s"),
    ("dispatch.dispatch_greedy.calls", "count"),
    ("dispatch.dispatch_greedy.s", "s"),
    ("dispatch.utilization.s", "s"),
    ("dispatch.combo_histogram.s", "s"),
    ("dispatch.write_schedule_csv.calls", "count"),
    ("dispatch.write_schedule_csv.s", "s"),
    ("dispatch.write_schedule_csv.mb", "MB"),
    ("dispatch.write_histogram_csv.s", "s"),
    ("milp.branch_and_bound.calls", "count"),
    ("milp.branch_and_bound.s", "s"),
    ("milp.nodes", "count"),
    ("milp.node_limit_stops", "count"),
    ("milp.solve_lp_relaxation.calls", "count"),
    ("milp.solve_lp_relaxation.s", "s"),
    ("milp.solve_lp.calls", "count"),
    ("milp.solve_lp.s", "s"),
    ("milp.lp_pivots", "count"),
    ("milp.best_sizes_for_schedule.calls", "count"),
    ("milp.best_sizes_for_schedule.s", "s"),
    ("cli.entrypoint.calls", "count"),
    ("cli.entrypoint.s", "s"),
    ("trace.overhead_s", "s"),
]


def _module(name: str):
    return importlib.import_module("loadsizer" + (f".{name}" if name else ""))


class Tracer:
    """Counters keyed ``<module>.<function>.<quantity>``, plus calls per caller."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, binding: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._depth[key] == 0
            self._depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0 if outer else 0.0
                self._depth[key] -= 1
                self.counts[f"{key}.calls"] += 1
                self.counts[f"{key}.calls_from.{binding}"] += 1
                self.counts[f"{key}.s"] += dt
            self._work(key, args, kwargs, result, dt)
            return result

        return wrapper

    def _work(self, key, args, kwargs, result, dt) -> None:
        c = self.counts
        if key == "icls.optimize_m" and kwargs.get("n", args[1] if len(args) > 1 else None) == 6:
            c["icls.optimize_m.s_n6"] += dt
        elif key == "milp.branch_and_bound":
            c["milp.nodes"] += result.nodes_explored
            c["milp.node_limit_stops"] += result.status == "node_limit"
        elif key == "milp.solve_lp":
            c["milp.lp_pivots"] += result.iterations
        elif key == "dispatch.write_schedule_csv":
            c["dispatch.write_schedule_csv.mb"] += Path(result).stat().st_size / 1e6

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed binding for the duration of the block."""
        counter = _EclsRejections(self.counts)
        ecls_logger = logging.getLogger("loadsizer.ecls")
        ecls_logger.addHandler(counter)
        try:
            for key, home, name, holders in WRAPPED:
                fn = getattr(_module(home), name)
                for binding in [home] + holders:
                    module = _module(binding)
                    self._undo.append((module, name, getattr(module, name)))
                    setattr(module, name, self._wrap(key, fn, binding or "loadsizer"))
            yield self
        finally:
            for module, name, original in reversed(self._undo):
                setattr(module, name, original)
            self._undo.clear()
            ecls_logger.removeHandler(counter)

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every ``PER_LAYER`` metric as ``(value, unit)``."""
        values = dict(self.counts)
        values["icls.scored_sizings"] = values.get("dispatch.capture_best.calls_from.icls", 0.0)
        values["trace.overhead_s"] = overhead_s
        return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


class _EclsRejections(logging.Handler):
    """Adds up the C grid values the ECLS sweep reports it excluded.

    ``ecls._sweep`` logs ``(n, rejected, c_steps)`` as the arguments of
    one warning per sweep that rejected any value.
    """

    def __init__(self, counts) -> None:
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("C sweep") and len(record.args) == 3:
            self.counts["ecls.c_rejected"] += record.args[1]
