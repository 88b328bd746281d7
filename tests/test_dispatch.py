"""Dispatch: per-step subset optimality, utilization, histogram conservation."""

from __future__ import annotations

import csv
import tracemalloc
from datetime import datetime, timedelta, timezone
from itertools import product

import numpy as np
import pytest

from loadsizer import PowerSeries
from loadsizer.dispatch import (
    SwitchSchedule,
    _popcounts,
    capture_best,
    combo_draws,
    combo_histogram,
    combo_index,
    combo_states,
    dispatch_greedy,
    subset_table,
    utilization,
    write_histogram_csv,
    write_schedule_csv,
)
from loadsizer.ecls import build_switch_matrix
from loadsizer.errors import DataError
from loadsizer.results import CSV_BLOCK_ROWS, format_float
from loadsizer.synth import clear_day_series, synth_year_series


def make_series(values, interval=900, start=None):
    values = np.asarray(values, dtype=float)
    return PowerSeries(
        start=start or datetime(2021, 6, 1),
        values=values,
        interval_seconds=interval,
        s_max=1.0,
        normalized=bool(values.max() <= 1.0 and abs(values.max() - 1.0) < 1e-12),
    )


def exhaustive_best(s, x):
    """Independent per-step oracle: loop over all subsets with the tie rules."""
    n = len(x)
    best = (-1.0, 0, 0)  # (draw, -?) use explicit comparisons
    best = None
    for bits in product((0, 1), repeat=n):
        draw = sum(b * xi for b, xi in zip(bits, x))
        if draw > s + 1e-12:
            continue
        combo = sum(b << (n - 1 - i) for i, b in enumerate(bits))
        key = (-draw, sum(bits), combo)
        if best is None or key < best:
            best = key
    return -best[0], best[2]


def test_spec_examples():
    x = np.array([0.4, 0.2])
    series = make_series([0.5, 0.65, 0.1])
    sched = dispatch_greedy(series, x)
    assert sched.u[:, 0].tolist() == [1, 0]
    assert sched.u[:, 1].tolist() == [1, 1]
    assert sched.u[:, 2].tolist() == [0, 0]
    assert sched.combo_index.tolist() == [2, 3, 0]


def test_exact_levels_reach_full_utilization():
    series = make_series([0.3, 0.6, 0.9])
    x = np.array([0.6, 0.3])
    sched = dispatch_greedy(series, x)
    report = utilization(series, sched, x)
    assert report.solar_utilization == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(report.mismatch, 0.0)


def test_all_off_and_never_exceed():
    series = make_series([0.05, 0.01])
    x = np.array([0.4, 0.2])
    sched = dispatch_greedy(series, x)
    report = utilization(series, sched, x)
    assert report.solar_utilization == 0.0
    assert (report.mismatch >= -1e-12).all()


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_dispatch_rejects_non_positive_or_non_finite_sizes(bad):
    with pytest.raises(DataError, match="positive and finite"):
        dispatch_greedy(make_series([0.5, 0.9]), np.array([0.4, bad]))


def test_matches_exhaustive_oracle_random():
    rng = np.random.default_rng(123)
    for n in range(1, 7):
        x = rng.uniform(0.05, 0.5, size=n)
        values = rng.uniform(0.0, 1.2, size=200)
        sched = dispatch_greedy(make_series(values), x)
        for k in range(values.size):
            draw, combo = exhaustive_best(values[k], x)
            got = float(x @ sched.u[:, k])
            assert got == pytest.approx(draw, abs=1e-12)
            assert sched.combo_index[k] == combo


def test_tie_break_prefers_fewer_loads_then_low_combo():
    # x1 == x2 + x3, so draw 0.5 is reachable as {1} or {2,3}
    x = np.array([0.5, 0.3, 0.2])
    series = make_series([0.55])
    sched = dispatch_greedy(series, x)
    assert sched.combo_index.tolist() == [4]  # load 1 alone


def bit_matrix_oracle(s, x):
    """Independent best-subset choice per step from the (2^n, n) bit matrix.

    Draws are ``bits @ x`` as in acceptance criterion 10, taken in row
    chunks so that n = 20 stays small in memory; the rule is the largest
    draw <= S, then fewest loads on, then the lowest combo index.
    """
    n = x.size
    combos = np.arange(2**n)
    bits = ((combos[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1).astype(np.uint8)
    chunk = 1 << 14
    sums = np.concatenate(
        [bits[k : k + chunk].astype(float) @ x for k in range(0, 2**n, chunk)]
    )
    pops = bits.sum(axis=1)
    chosen = []
    for value in s:
        feas = sums <= value
        winners = feas & (sums == sums[feas].max())
        winners &= pops == pops[winners].min()
        chosen.append(combos[winners].min())
    return sums, np.array(chosen)


@pytest.mark.parametrize("n", [13, 20])
def test_wide_dispatch_matches_bit_matrix_oracle(n):
    rng = np.random.default_rng(n)
    # dyadic sizes: every draw is exact, so equal draws tie exactly and the
    # fewest-loads and lowest-combo rules decide
    x = rng.integers(1, 64, size=n) / 64.0
    s = rng.integers(0, int(64 * x.sum()) + 32, size=40) / 64.0
    s[:4] = [0.0, x.min(), x.sum(), x.sum() + 1.0]
    sched = dispatch_greedy(make_series(s), x)
    sums, combo = bit_matrix_oracle(s, x)
    assert (sched.combo_index == combo).all()
    assert (x @ sched.u == sums[combo]).all()


def test_wide_dispatch_matches_bit_matrix_oracle_real_sizes():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.01, 0.2, size=13)
    values = rng.uniform(0.0, 1.5, size=60)
    sched = dispatch_greedy(make_series(values), x)
    sums, combo = bit_matrix_oracle(values, x)
    assert (sched.combo_index == combo).all()
    assert np.allclose(x @ sched.u, sums[combo], rtol=0.0, atol=1e-12)


def oracle_capture(values, x):
    """``bit_matrix_oracle``'s (draw, combo) per value; a value below zero
    takes the all-off draw, as one at zero does."""
    sums, combo = bit_matrix_oracle(np.maximum(values, 0.0), x)
    return sums[combo], combo


@pytest.mark.parametrize("n", [1, 3, 6])
def test_capture_best_sorted_input_matches_bit_matrix_oracle(n):
    rng = np.random.default_rng(40 + n)
    # dyadic sizes and values: draws are exact, so values land on draws and
    # equal draws tie exactly
    x = rng.integers(1, 16, size=n) / 16.0
    draws = subset_table(x)[0]
    values = np.concatenate(
        [
            [-0.5, -1 / 16, 0.0, 0.0],  # negatives and leading zeros
            draws,
            rng.integers(0, int(16 * x.sum()) + 8, size=150) / 16.0,
        ]
    )
    values.sort()
    captured, mask = capture_best(values, x)
    want_captured, want_mask = oracle_capture(values, x)
    assert np.array_equal(captured, want_captured)
    assert np.array_equal(mask, want_mask)


def test_capture_best_single_sample():
    x = np.array([0.5, 0.25, 0.25])
    for value in (-1.0, 0.0, 0.25, 0.6, 0.75, 2.0):
        captured, mask = capture_best(np.array([value]), x)
        want_captured, want_mask = oracle_capture(np.array([value]), x)
        assert np.array_equal(captured, want_captured)
        assert np.array_equal(mask, want_mask)


def test_capture_best_sorted_runs_with_no_load_sizes():
    # sizes at or below NO_LOAD_SIZE leave one draw, 0.0, with no cut: a
    # single run covers every value; empty runs and a run up to the end
    # are counted from the cuts too
    values = np.array([0.0, 0.1, 0.25, 0.25, 0.7, 1.5])
    captured, mask = capture_best(values, np.array([1e-12, 0.0]))
    assert captured.tolist() == [0.0] * values.size
    assert mask.tolist() == [0] * values.size
    x = np.array([2.0, 0.25, 0.5])
    for trimmed in (values, values[:1], values[2:4], values[4:]):
        captured, mask = capture_best(trimmed, x)
        want_captured, want_mask = oracle_capture(trimmed, x)
        assert np.array_equal(captured, want_captured)
        assert np.array_equal(mask, want_mask)


def test_capture_best_unsorted_and_nan_take_general_path():
    rng = np.random.default_rng(44)
    x = rng.integers(1, 16, size=4) / 16.0
    values = rng.integers(-4, int(16 * x.sum()) + 8, size=120) / 16.0
    captured, mask = capture_best(values, x)
    want_captured, want_mask = oracle_capture(values, x)
    assert np.array_equal(captured, want_captured)
    assert np.array_equal(mask, want_mask)
    # a NaN anywhere fails the non-decreasing test; the general lookup
    # ranks it above every draw and keeps the other values' answers
    sums, masks = subset_table(x)
    for nan_at in (0, 60, 119):
        with_nan = np.sort(values)
        with_nan[nan_at] = np.nan
        captured, mask = capture_best(with_nan, x)
        finite = ~np.isnan(with_nan)
        want_captured, want_mask = oracle_capture(with_nan[finite], x)
        assert np.array_equal(captured[finite], want_captured)
        assert np.array_equal(mask[finite], want_mask)
        assert captured[nan_at] == sums[-1] and mask[nan_at] == masks[-1]


def test_subset_table_sorted_unique():
    sums, masks = subset_table(np.array([0.2, 0.1]))
    assert sums.tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]
    assert (np.diff(sums) > 0).all()


def test_more_than_twenty_loads_refused_before_the_table():
    x = np.full(21, 0.01)
    misses = _popcounts.cache_info().misses
    tracemalloc.start()
    try:
        for refused in (
            lambda: combo_draws(x),
            lambda: subset_table(x),
            lambda: capture_best(np.array([0.5, 0.9]), x),
            lambda: dispatch_greedy(make_series([0.5, 0.9]), x),
        ):
            with pytest.raises(DataError, match=r"need 1\.\.20 loads, got 21"):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _popcounts.cache_info().misses == misses  # no 2^21 popcount table
    assert peak < 2**20  # no 2^21 draw table either: that is 16 MiB


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_combo_draws_sum_each_subset_from_load_one(n):
    rng = np.random.default_rng(70 + n)
    x = rng.uniform(0.01, 1.0, n)
    draws = combo_draws(x)
    assert draws.shape == (2**n,) and draws[0] == 0.0
    for d, bits in enumerate(combo_states(np.arange(2**n), n).T):
        want = 0.0
        for size, on in zip(x, bits):
            if on:
                want += size
        assert draws[d] == want


@pytest.mark.parametrize("n", range(2, 14))
def test_reported_draw_is_the_dispatched_draw(tmp_path, n):
    """``utilization`` and the schedule CSV report, byte for byte, the draw
    that ``capture_best`` dispatched with."""
    rng = np.random.default_rng(80 + n)
    series = make_series(random_power(2000, seed=n))
    x = rng.uniform(0.02, 0.9, n) * (2.0 / n)
    captured, _ = capture_best(series.values, x)
    schedule = dispatch_greedy(series, x)
    report = utilization(series, schedule, x)
    assert report.mismatch.tobytes() == (series.values - captured).tobytes()
    assert report.captured_energy == float(captured.sum())
    path = write_schedule_csv(series, schedule, x, tmp_path / "schedule.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["captured"] for row in rows] == list(map(format_float, captured))
    assert [row["mismatch"] for row in rows] == list(map(format_float, series.values - captured))


def test_appending_tiny_unit_never_lowers_su():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 1, size=300)
    series = make_series(values)
    x = np.array([0.5, 0.25])
    base = utilization(series, dispatch_greedy(series, x), x).solar_utilization
    x2 = np.array([0.5, 0.25, 1e-9])
    refined = utilization(series, dispatch_greedy(series, x2), x2).solar_utilization
    assert refined >= base - 1e-15


def test_utilization_zero_total_is_error():
    series = PowerSeries(
        start=datetime(2021, 1, 1),
        values=np.array([0.0, 0.0]),
        interval_seconds=900,
        s_max=1.0,
        normalized=False,
    )
    sched = dispatch_greedy(make_series([0.5, 0.5]), [0.4])
    with pytest.raises(DataError, match="^total energy is zero$"):
        utilization(series, sched, [0.4])


def test_histogram_conserves_daytime_counts():
    rng = np.random.default_rng(2)
    values = np.concatenate([rng.uniform(0, 1, 48), np.zeros(48)])  # half-day dark
    series = make_series(values, interval=900, start=datetime(2021, 6, 1, 0, 0))
    x = np.array([0.4, 0.2])
    sched = dispatch_greedy(series, x)
    hist = combo_histogram(series, sched, bins_per_day=24)
    assert hist.bins.shape == (24, 4)
    assert hist.bins.sum() == int((values > 0).sum())


def test_histogram_clear_day_pattern(ref_model):
    from loadsizer.synth import trig_day_values

    # stretch one clear arch over a 96-sample day
    t = np.linspace(-ref_model.t_max, ref_model.t_max, 40)
    arch = np.asarray(ref_model.forward(t))
    values = np.concatenate([np.zeros(28), arch, np.zeros(28)])
    series = make_series(values, interval=900, start=datetime(2021, 6, 1, 0, 0))
    x = np.array([0.5, 0.3])
    sched = dispatch_greedy(series, x)
    hist = combo_histogram(series, sched, bins_per_day=24)
    daylight_bins = np.flatnonzero(hist.bins.sum(axis=1))
    assert hist.bins.sum() == int((values > 0).sum())
    # midday bins run both loads (combo 3); edges run smaller combos
    mid = daylight_bins[len(daylight_bins) // 2]
    assert hist.bins[mid].argmax() == 3
    first = daylight_bins[0]
    assert hist.bins[first, 3] == 0


def test_schedule_csv_round_trip(tmp_path):
    series = make_series([0.3, 0.6, 0.9])
    x = np.array([0.6, 0.3])
    sched = dispatch_greedy(series, x)
    path = write_schedule_csv(series, sched, x, tmp_path / "sched.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "timestamp,S,u_1,u_2,captured,mismatch"
    assert len(lines) == 4
    assert lines[1].endswith("0.3,0,1,0.3,0")


def test_histogram_csv_has_nonzero_combos_only(tmp_path):
    values = np.concatenate([np.zeros(40), np.full(16, 0.9), np.zeros(40)])
    series = make_series(values, interval=900, start=datetime(2021, 6, 1, 0, 0))
    x = np.array([0.5, 0.3])
    sched = dispatch_greedy(series, x)
    hist = combo_histogram(series, sched)
    path = write_histogram_csv(hist, tmp_path / "hist.csv")
    rows = path.read_text().strip().splitlines()[1:]
    combos = {int(r.split(",")[1]) for r in rows}
    assert combos == {1, 2, 3}


def test_schedule_stores_combo_indices_and_derives_u():
    sched = dispatch_greedy(make_series([0.5, 0.65, 0.1, 0.3]), [0.4, 0.2])
    assert (sched.n, len(sched)) == (2, 4)
    assert sched.combo_index.dtype == np.int64
    assert np.array_equal(sched.u, combo_states(sched.combo_index, 2))
    assert sched.u.dtype == np.uint8


@pytest.mark.parametrize(
    "combo, n, message",
    [
        (np.zeros((2, 3), dtype=int), 2, "combo_index must be a 1-D vector"),
        ([0, 3, 4], 2, r"combo_index values must lie in 0\.\.3"),
        ([-1, 0], 2, r"combo_index values must lie in 0\.\.3"),
        ([0, 1], 0, r"need 1\.\.20 loads, got 0"),
        ([0, 1], 21, r"need 1\.\.20 loads, got 21"),
    ],
    ids=["2d", "value_2_pow_n", "negative", "n_0", "n_21"],
)
def test_switch_schedule_refuses_malformed_combo_indices(combo, n, message):
    with pytest.raises(DataError, match=message):
        SwitchSchedule(combo, n)


def test_histogram_refuses_a_schedule_from_another_series():
    day = np.sin(np.linspace(0.0, np.pi, 96)).clip(0.0, None)
    sched = dispatch_greedy(make_series(np.tile(day, 2)), [0.6, 0.3])
    message = r"schedule shape \(2, 192\) does not match 2 loads x 96 steps"
    with pytest.raises(DataError, match=message):
        combo_histogram(make_series(day), sched)


def test_schedule_csv_refuses_a_schedule_longer_than_the_series(tmp_path):
    x = np.array([0.6, 0.3])
    sched = dispatch_greedy(make_series([0.3, 0.6, 0.9, 0.2, 0.5, 0.7]), x)
    message = r"schedule shape \(2, 6\) does not match 2 loads x 4 steps"
    with pytest.raises(DataError, match=message):
        write_schedule_csv(make_series([0.3, 0.6, 0.9, 0.2]), sched, x, tmp_path / "s.csv")


def test_schedule_csv_refuses_more_sizes_than_loads(tmp_path):
    series = make_series([0.3, 0.6, 0.9])
    sched = dispatch_greedy(series, [0.6, 0.3])
    message = r"schedule shape \(2, 3\) does not match 3 loads x 3 steps"
    with pytest.raises(DataError, match=message):
        write_schedule_csv(series, sched, [0.6, 0.3, 0.1], tmp_path / "s.csv")


# Oracles: the row-by-row writers the column writers replaced, kept to
# compare bytes with.


def row_schedule_csv(series, schedule, x, path):
    x = np.asarray(x, dtype=float).ravel()
    u = schedule.u
    draw = np.zeros(len(series))
    for k in range(len(series)):  # each step's draw, summed from load 1 onwards
        for i in range(x.size):
            if u[i, k]:
                draw[k] += x[i]
    step = timedelta(seconds=series.interval_seconds)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timestamp", "S"] + [f"u_{i + 1}" for i in range(x.size)] + ["captured", "mismatch"]
        )
        for k in range(len(series)):
            row = [(series.start + k * step).isoformat(), format_float(series.values[k])]
            row += [str(int(u[i, k])) for i in range(x.size)]
            row += [format_float(draw[k]), format_float(series.values[k] - draw[k])]
            writer.writerow(row)
    return path


def row_histogram_csv(hist, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin", "combo_index", "count"])
        for b in range(hist.bins_per_day):
            if hist.bins[b].sum() == 0:
                continue
            for d in range(1, 2**hist.n):
                writer.writerow([str(b), str(d), str(int(hist.bins[b, d]))])
    return path


def row_series_csv(series, path):
    step = timedelta(seconds=series.interval_seconds)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "power_w"])
        for k, v in enumerate(series.values):
            writer.writerow([(series.start + k * step).isoformat(), format(float(v), ".6f")])
    return path


WRITER_SIZINGS = {
    "n1": (0.37,),
    "n2": (0.482499, 0.222565),
    "tied": (0.5, 0.25, 0.25),
    "n12": tuple(round(0.31 * 0.71**k, 6) for k in range(12)),
    "n13": tuple(round(0.29 * 0.73**k, 6) for k in range(13)),
}
WRITER_STARTS = {
    "naive": datetime(2024, 2, 28, 22, 0),
    "plus_0200": datetime(2021, 3, 28, 0, 0, tzinfo=timezone(timedelta(hours=2))),
    "minus_0530": datetime(2021, 6, 1, 5, 15, tzinfo=timezone(-timedelta(hours=5, minutes=30))),
    "seconds_and_micros": datetime(2021, 12, 31, 23, 59, 58, 250000),
}


def random_power(size, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, size)
    values[rng.random(size) < 0.3] = 0.0
    return values / values.max()


def assert_same_schedule_bytes(tmp_path, series, x):
    sched = dispatch_greedy(series, x)
    mine = write_schedule_csv(series, sched, x, tmp_path / "columns.csv")
    oracle = row_schedule_csv(series, sched, x, tmp_path / "rows.csv")
    assert mine.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
@pytest.mark.parametrize("x", WRITER_SIZINGS.values(), ids=WRITER_SIZINGS.keys())
def test_schedule_csv_bytes_match_row_writer(tmp_path, x, extra):
    series = make_series(random_power(CSV_BLOCK_ROWS + extra), start=datetime(2021, 6, 1))
    assert_same_schedule_bytes(tmp_path, series, x)


@pytest.mark.parametrize("interval", [1, 60, 900, 3600])
@pytest.mark.parametrize("start", WRITER_STARTS.values(), ids=WRITER_STARTS.keys())
def test_schedule_csv_bytes_match_row_writer_over_starts(tmp_path, start, interval):
    series = make_series(random_power(CSV_BLOCK_ROWS + 1, seed=interval), interval, start)
    assert_same_schedule_bytes(tmp_path, series, WRITER_SIZINGS["tied"])


@pytest.mark.parametrize("bins", [1, 24, 96])
@pytest.mark.parametrize("n", range(1, 13))
def test_histogram_csv_bytes_match_row_writer(tmp_path, n, bins):
    rng = np.random.default_rng(n)
    arch = np.clip(np.sin(np.linspace(-0.6, np.pi + 0.6, 96)), 0.0, None)
    values = np.tile(arch, 3) * rng.uniform(0.2, 1.0, 3 * 96)
    series = make_series(values / values.max(), 900, datetime(2021, 6, 1, 0, 0))
    x = np.sort(rng.uniform(0.02, 0.6, n))[::-1]
    hist = combo_histogram(series, dispatch_greedy(series, x), bins_per_day=bins)
    mine = write_histogram_csv(hist, tmp_path / "columns.csv")
    oracle = row_histogram_csv(hist, tmp_path / "rows.csv")
    assert mine.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize(
    "fixture, series",
    [("year_csv", lambda: synth_year_series(seed=42)), ("clear_day_csv", clear_day_series)],
)
def test_series_csv_bytes_match_row_writer(request, tmp_path, fixture, series):
    oracle = row_series_csv(series(), tmp_path / "rows.csv")
    assert request.getfixturevalue(fixture).read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_combo_states_and_index_round_trip_every_combination(n):
    combos = np.arange(2**n)
    states = combo_states(combos, n)
    assert states.shape == (n, 2**n) and states.dtype == np.uint8
    assert np.array_equal(combo_index(states), combos)
    # load 1 is the most significant bit: d = sum_i u_i * 2^(n - i)
    weights = 2 ** (n - 1 - np.arange(n))
    assert np.array_equal(weights @ states.astype(np.int64), combos)


def test_combo_states_and_index_round_trip_n20():
    rng = np.random.default_rng(20)
    combos = rng.integers(0, 2**20, size=500)
    states = combo_states(combos, 20)
    assert np.array_equal(combo_index(states), combos)
    u = rng.integers(0, 2, size=(20, 300)).astype(np.uint8)
    assert np.array_equal(combo_states(combo_index(u), 20), u)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_combo_helpers_agree_with_switch_matrix_and_binary_order(n):
    rows = build_switch_matrix(n, 1).distinct_rows
    assert np.array_equal(rows, combo_states(np.arange(1, 2**n), n).T)
    # the binary order: a row's bits read as a binary numeral, load 1 first
    orders = [int("".join(str(int(bit)) for bit in row), 2) for row in rows]
    assert orders == combo_index(rows.T).tolist() == list(range(1, 2**n))
