"""Integer arguments: every one is checked by ``errors.integer``, which
refuses a bool, a non-integer and a value below the argument's floor with
one message each, and truncates nothing."""

from __future__ import annotations

import re
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest

from loadsizer.analytic import solve_n_load
from loadsizer.dispatch import combo_histogram, dispatch_greedy
from loadsizer.ecls import line_search_C, select_points, sensitivity_table
from loadsizer.errors import DataError, integer
from loadsizer.icls import SwitchTimes, optimize_m, solve_icls_fixed_m
from loadsizer.milp import MilpInstance, branch_and_bound, build_instance, downsample_sweep
from loadsizer.synth import synth_year_values
from loadsizer.timeseries import PowerSeries, SortedSeries, downsample_uniform, load_series


def day_series(interval_seconds=900):
    """One day at 15 minutes: a sine arch over the middle half."""
    values = np.zeros(96)
    values[24:72] = np.sin(np.linspace(0.0, np.pi, 48))
    return PowerSeries(
        start=datetime(2021, 6, 1),
        values=values,
        interval_seconds=interval_seconds,
        s_max=1.0,
    )


@pytest.fixture(scope="module")
def inputs(clear_day_csv, ref_model):
    series = day_series()
    return SimpleNamespace(
        series=series,
        schedule=dispatch_greedy(series, [0.5]),
        sorted=SortedSeries(values=np.linspace(0.1, 1.0, 40)),
        instance=build_instance([0.3, 0.6, 0.9], 2),
        model=ref_model,
        csv=clear_day_csv,
    )


# (argument, call with the value, the floor's value, the floor's refusal);
# each call passes valid values for every other argument
ARGUMENTS = {
    "n of MilpInstance": (
        "n", lambda v, f: MilpInstance(s=[0.3, 0.6, 0.9], n=v), 0, "n must be >= 1"
    ),
    "bins_per_day": (
        "bins_per_day",
        lambda v, f: combo_histogram(f.series, f.schedule, bins_per_day=v),
        0,
        "bins_per_day must be >= 1",
    ),
    "block_length": (
        "block_length",
        lambda v, f: line_search_C(f.sorted, 2, c_steps=3, block_length=v),
        0,
        "block_length must be >= 1",
    ),
    "count": ("count", lambda v, f: select_points(f.sorted, v), 0, "count must be >= 1"),
    "c_steps": (
        "c_steps", lambda v, f: sensitivity_table(f.sorted, 2, c_steps=v), 1, "c_steps must be >= 2"
    ),
    "multistarts": (
        "multistarts",
        lambda v, f: solve_n_load(f.model, 2, multistarts=v),
        0,
        "multistarts must be >= 1",
    ),
    "restarts": (
        "restarts", lambda v, f: optimize_m(f.sorted, 2, restarts=v), -1, "restarts must be >= 0"
    ),
    "node_limit": (
        "node_limit",
        lambda v, f: branch_and_bound(f.instance, node_limit=v),
        0,
        "node_limit must be >= 1",
    ),
    "ratio of downsample_uniform": (
        "ratio", lambda v, f: downsample_uniform(f.sorted, v), 0, "ratio must be >= 1"
    ),
    "ratio of downsample_sweep": (
        "ratio", lambda v, f: downsample_sweep(f.sorted, 1, [v]), 0, "ratio must be >= 1"
    ),
    "seed of optimize_m": (
        "seed", lambda v, f: optimize_m(f.sorted, 2, seed=v), -1, "seed must be >= 0"
    ),
    "seed of solve_n_load": (
        "seed", lambda v, f: solve_n_load(f.model, 2, seed=v), -1, "seed must be >= 0"
    ),
    "seed of synth_year_values": (
        "seed", lambda v, f: synth_year_values(seed=v), -1, "seed must be >= 0"
    ),
    "block length of SwitchTimes": (
        "block length", lambda v, f: SwitchTimes((v, 2, 3)), 0, "block length must be >= 1"
    ),
    "block length of SwitchTimes.from_free": (
        "block length",
        lambda v, f: SwitchTimes.from_free((v, 2), total=9, n=2),
        0,
        "block length must be >= 1",
    ),
    # True is a valid offset at face value: 39 samples above offset 1
    "offset": (
        "offset",
        lambda v, f: solve_icls_fixed_m(f.sorted, SwitchTimes.equidistant(39, 2), 2, offset=v),
        -1,
        "offset must lie in [0, 40), got -1",
    ),
    "interval_seconds": (
        "interval_seconds",
        lambda v, f: day_series(interval_seconds=v),
        0,
        "interval_seconds must be positive",
    ),
    "resample_seconds": (
        "resample_seconds",
        lambda v, f: load_series(f.csv, resample_seconds=v),
        0,
        "resample_seconds must be positive",
    ),
}


@pytest.mark.parametrize("case", ["fraction", "bool", "floor"])
@pytest.mark.parametrize("argument", list(ARGUMENTS))
def test_every_integer_argument_is_refused_by_one_check(inputs, argument, case):
    name, call, floor, floor_message = ARGUMENTS[argument]
    value, message = {
        "fraction": (2.5, f"{name} must be an integer, got 2.5"),
        "bool": (True, f"{name} must be an integer, got True"),
        "floor": (floor, floor_message),
    }[case]
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call(value, inputs)


def test_integer_returns_an_int_and_takes_a_numpy_integer():
    assert integer(np.int64(3), "count", 1) == 3
    assert type(integer(np.int64(3), "count", 1)) is int
    assert integer(-4, "offset") == -4  # no floor, no range


def test_downsample_sweep_stores_the_checked_ratio_as_an_int():
    sorted_series = SortedSeries(values=np.linspace(0.1, 1.0, 40))
    (row,) = downsample_sweep(sorted_series, 1, [np.int64(4)], node_limit=5)
    assert row.ratio == 4 and type(row.ratio) is int


def test_switch_times_keeps_integer_lengths_as_ints():
    m = SwitchTimes((np.int64(2), 3, np.int32(4)))
    assert m.lengths == (2, 3, 4)
    assert all(type(length) is int for length in m.lengths)
