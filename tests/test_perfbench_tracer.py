"""The benchmark's tracer still finds every binding it wraps.

``perfbench/tracer.py`` replaces functions by name in the modules that
hold them and counts the ECLS sweep's rejection warning by its text. A
refactor that drops or renames one of those breaks the traced benchmark
pass; this test makes it break here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from loadsizer import dispatch, ecls, icls, milp
from loadsizer.timeseries import SortedSeries

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = load_tracer()
    original = ecls.capture_best
    # seed 0 rejects 3 of the 20 C values at n = 3
    values = np.sort(np.random.default_rng(0).uniform(0.01, 1.0, size=300) ** 2)
    series = SortedSeries(values=values)
    t = tracer.Tracer()
    with t.installed():
        assert ecls.capture_best is not original
        ecls.line_search_C(series, 3, c_steps=20, block_length=4)
    assert ecls.capture_best is original is dispatch.capture_best
    assert t.counts["ecls.line_search_C.calls"] == 1
    assert t.counts["ecls.c_rejected"] > 0
    assert t.counts["ecls.c_rejected"] + t.counts["dispatch.capture_best.calls_from.ecls"] == 20


def every_binding(tracer):
    """(module, name, function) for every binding the tracer wraps, as found now."""
    return [
        (module, name, getattr(module, name))
        for _, home, name, holders in tracer.WRAPPED
        for module in map(tracer._module, [home] + holders)
    ]


def test_tracer_sees_every_branch_and_bound_relaxation():
    tracer = load_tracer()
    bindings = every_binding(tracer)
    s = np.round(np.random.default_rng(1).uniform(0.05, 1.0, size=5), 4)
    t = tracer.Tracer()
    with t.installed():
        solution = milp.branch_and_bound(milp.build_instance(s, 2), gap_tol=0.0)
    assert all(getattr(module, name) is fn for module, name, fn in bindings)
    assert t.counts["milp.nodes"] == solution.nodes_explored > 1
    # one relaxation per node, each seen through a wrapped binding
    assert t.counts["milp.solve_lp_relaxation.calls"] == t.counts["milp.nodes"]
    assert t.counts["milp.best_sizes_for_schedule.calls"] > 0


def test_tracer_counts_every_icls_score():
    tracer = load_tracer()
    bindings = every_binding(tracer)
    # n = 2 over 150 samples is past the exhaustive lattice: a pattern search
    values = np.sort(np.random.default_rng(3).uniform(0.01, 1.0, size=150) ** 1.5)
    series = SortedSeries(values=values)
    t = tracer.Tracer()
    with t.installed():
        result = icls.optimize_m(series, 2)
    assert all(getattr(module, name) is fn for module, name, fn in bindings)
    assert t.counts["dispatch.capture_best.calls_from.icls"] >= result.qp_solves > 0
    assert t.counts["icls.optimize_m.calls"] == 1
