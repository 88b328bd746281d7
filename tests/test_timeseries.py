"""Ingestion, normalization, sorting, downsampling and clear-day fitting."""

from __future__ import annotations

import builtins
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadsizer import (
    ClearSkyModel,
    DataError,
    ParseError,
    PowerSeries,
    downsample_uniform,
    fit_clear_day,
    load_series,
    model_inverse,
    model_inverse_derivative,
    normalize,
    sort_ascending,
)
from loadsizer.results import CSV_BLOCK_ROWS
from loadsizer.synth import REFERENCE_A, REFERENCE_B, REFERENCE_C, trig_day_values


def make_series(values, interval=900, normalized=False):
    values = np.asarray(values, dtype=float)
    return PowerSeries(
        start=datetime(2021, 1, 1),
        values=values,
        interval_seconds=interval,
        s_max=float(values.max()) if not normalized else 1.0,
        normalized=normalized,
    )


@pytest.mark.parametrize("interval", [1, 60, 900, 3600])
@pytest.mark.parametrize(
    "start",
    [
        datetime(2024, 2, 28, 22, 0),
        datetime(2021, 3, 28, 0, 0, tzinfo=timezone(timedelta(hours=2))),
        datetime(2021, 6, 1, 5, 15, tzinfo=timezone(-timedelta(hours=5, minutes=30))),
        datetime(2021, 12, 31, 23, 59, 58, 250000),
    ],
    ids=["naive", "plus_0200", "minus_0530", "seconds_and_micros"],
)
def test_timestamps_match_isoformat(start, interval):
    series = PowerSeries(
        start=start, values=np.ones(200), interval_seconds=interval, s_max=1.0, normalized=True
    )
    step = timedelta(seconds=interval)
    assert series.timestamps() == [(start + k * step).isoformat() for k in range(200)]


# ---------------------------------------------------------------------------
# load_series
# ---------------------------------------------------------------------------


def write_csv(path, rows, header="timestamp,power_w"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def test_load_series_resamples_by_mean(tmp_path):
    rows = [
        "2021-01-01T00:00:00,1",
        "2021-01-01T00:00:01,1",
        "2021-01-01T00:00:02,3",
        "2021-01-01T00:00:03,3",
    ]
    path = write_csv(tmp_path / "tiny.csv", rows)
    series = load_series(path, resample_seconds=2)
    assert series.values.tolist() == [1.0, 3.0]
    assert series.interval_seconds == 2


def test_load_series_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_series(path, resample_seconds=60)


def test_load_series_bad_row_reports_line_number(tmp_path):
    rows = ["2021-01-01T00:00:00,5", "not-a-date,3"]
    path = write_csv(tmp_path / "bad.csv", rows)
    with pytest.raises(ParseError, match="line 3"):
        load_series(path, resample_seconds=60)


def test_load_series_non_monotone_timestamps(tmp_path):
    rows = ["2021-01-01T00:01:00,5", "2021-01-01T00:00:00,3"]
    path = write_csv(tmp_path / "mono.csv", rows)
    with pytest.raises(DataError):
        load_series(path, resample_seconds=60)


def test_load_series_fills_gaps_with_zero(tmp_path, caplog):
    rows = [
        "2021-01-01T00:00:00,4",
        "2021-01-01T00:01:00,6",
        "2021-01-01T00:04:00,8",
    ]
    path = write_csv(tmp_path / "gap.csv", rows)
    with caplog.at_level("WARNING"):
        series = load_series(path, resample_seconds=60)
    assert series.values.tolist() == [4.0, 6.0, 0.0, 0.0, 8.0]
    assert "filled with 0" in caplog.text


def test_load_series_measures_time_across_utc_offsets(tmp_path):
    rows = [
        "2021-03-28T01:30:00+01:00,2",
        "2021-03-28T01:45:00+01:00,4",
        "2021-03-28T03:00:00+02:00,6",
        "2021-03-28T03:15:00+02:00,8",
    ]
    series = load_series(write_csv(tmp_path / "dst.csv", rows), resample_seconds=1800)
    assert series.values.tolist() == [3.0, 7.0]
    assert series.start.isoformat() == "2021-03-28T01:30:00+01:00"


def test_load_series_year_fixture_length(year_csv):
    series = load_series(year_csv, resample_seconds=900)
    assert len(series) == 35040


def test_load_series_rejects_misaligned_resample(tmp_path):
    rows = ["2021-01-01T00:00:00,4", "2021-01-01T00:01:00,8"]
    path = write_csv(tmp_path / "mis.csv", rows)
    with pytest.raises(DataError):
        load_series(path, resample_seconds=90)


# (id, file text, resample seconds, error class, message; {path} is the file)
LOAD_ERRORS = [
    ("empty_file", "", 60, ParseError, "{path}: empty file"),
    (
        "one_column_header",
        "timestamp\n2021-01-01T00:00:00\n",
        60,
        ParseError,
        "{path}: header must have two columns, got ['timestamp']",
    ),
    ("no_data_rows", "timestamp,power_w\n\n \n", 60, ParseError, "{path}: no data rows"),
    (
        "bad_timestamp",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n\nnot-a-date,3\n",
        60,
        ParseError,
        "line 4: bad timestamp 'not-a-date': Invalid isoformat string: 'not-a-date'",
    ),
    (
        "one_column_row",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00\n",
        60,
        ParseError,
        "line 3: expected two columns, got ['2021-01-01T00:01:00']",
    ),
    (
        "naive_then_offset",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00+00:00,3\n",
        60,
        ParseError,
        "line 3: timestamp '2021-01-01T00:01:00+00:00' mixes offset-aware and naive rows",
    ),
    (
        "offset_then_naive",
        "timestamp,power_w\n2021-01-01T00:00:00+02:00,5\n\n2021-01-01T00:01:00,3\n",
        60,
        ParseError,
        "line 4: timestamp '2021-01-01T00:01:00' mixes offset-aware and naive rows",
    ),
    (
        "bad_power",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00,abc\n",
        60,
        ParseError,
        "line 3: bad power value 'abc'",
    ),
    (
        "negative_power",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00,-1\n",
        60,
        ParseError,
        "line 3: power must be finite and >= 0, got -1.0",
    ),
    (
        "inf_power",
        "timestamp,power_w\n2021-01-01T00:00:00,inf\n",
        60,
        ParseError,
        "line 2: power must be finite and >= 0, got inf",
    ),
    (
        "nan_power",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00,nan\n",
        60,
        ParseError,
        "line 3: power must be finite and >= 0, got nan",
    ),
    (
        "first_bad_row_wins",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00\nbad,-1\n",
        60,
        ParseError,
        "line 3: expected two columns, got ['2021-01-01T00:01:00']",
    ),
    (
        "not_increasing",
        "timestamp,power_w\n2021-01-01T00:01:00,5\n\n2021-01-01T00:02:00,4\n"
        "2021-01-01T00:02:00,3\n",
        60,
        DataError,
        "timestamps not strictly increasing at line 5 (2021-01-01T00:02:00)",
    ),
    (
        "not_increasing_across_offsets",
        "timestamp,power_w\n2021-01-01T01:00:00+01:00,5\n2021-01-01T00:00:00+00:00,3\n",
        60,
        DataError,
        "timestamps not strictly increasing at line 3 (2021-01-01T00:00:00+00:00)",
    ),
    (
        "sub_second_interval",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:00:00.500000,3\n",
        60,
        DataError,
        "source interval must be positive",
    ),
    (
        "misaligned",
        "timestamp,power_w\n2021-01-01T00:00:00,5\n2021-01-01T00:01:00,4\n"
        "2021-01-01T00:02:30,3\n",
        60,
        DataError,
        "timestamps are not aligned to the source interval",
    ),
    (
        "resample_not_a_multiple",
        "timestamp,power_w\n2021-01-01T00:00:00,4\n2021-01-01T00:01:00,8\n",
        90,
        DataError,
        "resample_seconds=90 is not a multiple of the source interval 60s",
    ),
    (
        "all_zero",
        "timestamp,power_w\n2021-01-01T00:00:00,0\n2021-01-01T00:01:00,0.0\n",
        60,
        DataError,
        "{path}: series has no positive power samples",
    ),
    (
        "resample_not_positive",
        "timestamp,power_w\n",
        0,
        DataError,
        "resample_seconds must be positive",
    ),
]


@pytest.mark.parametrize(
    "text, resample, error, message",
    [case[1:] for case in LOAD_ERRORS],
    ids=[case[0] for case in LOAD_ERRORS],
)
def test_load_series_error_messages(tmp_path, text, resample, error, message):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        load_series(path, resample_seconds=resample)
    assert type(info.value) is error
    assert str(info.value) == message.format(path=path)


def minute_rows(count, offset=""):
    start = datetime(2021, 1, 1)
    return [f"{(start + timedelta(minutes=k)).isoformat()}{offset},1" for k in range(count)]


def test_load_series_reports_the_first_fault_in_file_order(tmp_path):
    rows = minute_rows(CSV_BLOCK_ROWS + 1000)
    rows[3] = rows[2]  # line 5 repeats line 4's stamp
    rows[4999] = rows[4999].replace(",1", ",abc")  # line 5001, in the second block
    path = write_csv(tmp_path / "two_faults.csv", rows)
    with pytest.raises(DataError) as info:
        load_series(path, resample_seconds=60)
    assert type(info.value) is DataError
    assert str(info.value) == "timestamps not strictly increasing at line 5 (2021-01-01T00:02:00)"


@pytest.mark.parametrize(
    "text, resample",
    [case[1:3] for case in LOAD_ERRORS] + [("timestamp,power_w\n2021-01-01T00:00:00,1\n", 60)],
    ids=[case[0] for case in LOAD_ERRORS] + ["valid"],
)
def test_load_series_opens_the_file_once(tmp_path, monkeypatch, text, resample):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    try:
        load_series(path, resample_seconds=resample)
    except (DataError, ParseError):
        pass
    assert opened.count(path) == (1 if resample > 0 else 0)


def test_load_series_naive_row_after_an_aware_block_is_a_parse_error(tmp_path):
    rows = minute_rows(CSV_BLOCK_ROWS + 10, offset="+01:00")
    rows[CSV_BLOCK_ROWS + 2] = rows[CSV_BLOCK_ROWS + 2].replace("+01:00", "")
    path = write_csv(tmp_path / "aware_then_naive.csv", rows)
    with pytest.raises(ParseError) as info:
        load_series(path, resample_seconds=60)
    stamp = rows[CSV_BLOCK_ROWS + 2].split(",")[0]
    assert str(info.value) == (
        f"line {CSV_BLOCK_ROWS + 4}: timestamp {stamp!r} mixes offset-aware and naive rows"
    )


# ---------------------------------------------------------------------------
# normalize / sort / downsample
# ---------------------------------------------------------------------------


def test_normalize_divides_by_peak():
    series = normalize(make_series([0.0, 50.0, 100.0]))
    assert series.values.tolist() == [0.0, 0.5, 1.0]
    assert series.s_max == 100.0
    assert series.normalized


def test_normalize_is_idempotent():
    series = normalize(make_series([0.0, 50.0, 100.0]))
    again = normalize(series)
    assert again is series


def test_normalize_singleton():
    series = normalize(make_series([25.0]))
    assert series.values.tolist() == [1.0]
    assert series.s_max == 25.0


def test_normalize_all_zero_is_error():
    with pytest.raises(DataError):
        PowerSeries(
            start=datetime(2021, 1, 1),
            values=np.zeros(3),
            interval_seconds=900,
            s_max=0.0,
        )


def test_sort_ascending_basic():
    series = normalize(make_series([0.9, 0.1, 0.5]))
    sorted_series = sort_ascending(series, remove_zeros=False)
    assert np.allclose(sorted_series.values, [1 / 9, 5 / 9, 1.0])


def test_sort_ascending_removes_zeros():
    series = normalize(make_series([0.0, 0.3, 0.0]))
    sorted_series = sort_ascending(series, remove_zeros=True)
    assert sorted_series.values.tolist() == [1.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=60))
def test_sort_is_permutation(values):
    if max(values) <= 0:
        values[0] = 1.0
    series = normalize(make_series(values))
    sorted_series = sort_ascending(series, remove_zeros=False)
    assert np.allclose(np.sort(series.values), sorted_series.values)


def test_downsample_stride_definition():
    series = normalize(make_series(list(range(1, 11))))
    sorted_series = sort_ascending(series, remove_zeros=False)
    out = downsample_uniform(sorted_series, 2)
    assert np.allclose(out.values * 10, [2, 4, 6, 8, 10])


def test_downsample_identity_and_bounds():
    series = normalize(make_series(list(range(1, 11))))
    sorted_series = sort_ascending(series, remove_zeros=False)
    assert downsample_uniform(sorted_series, 1).values.tolist() == sorted_series.values.tolist()
    with pytest.raises(DataError):
        downsample_uniform(sorted_series, 11)


def test_sort_year_fixture_matches_reference_sort(year_series):
    sorted_series = sort_ascending(year_series, remove_zeros=False)
    ref = sorted(year_series.values.tolist())
    assert len(sorted_series) == 35040
    assert sorted_series.values[0] == ref[0]
    assert sorted_series.values[-1] == ref[-1]
    assert np.allclose(sorted_series.values, ref)


# ---------------------------------------------------------------------------
# clear-day fit
# ---------------------------------------------------------------------------


def test_fit_recovers_reference_parameters(clear_day_csv):
    series = normalize(load_series(clear_day_csv, resample_seconds=900))
    model = fit_clear_day(series)
    assert model.a == pytest.approx(REFERENCE_A, rel=0.02)
    assert model.b == pytest.approx(REFERENCE_B, rel=0.02)
    assert model.c == pytest.approx(REFERENCE_C, rel=0.02)
    assert model.alpha == pytest.approx(143.8, rel=0.02)
    assert model.beta == pytest.approx(1.01, rel=0.02)
    assert model.gamma == pytest.approx(-226.1, rel=0.02)


def test_fit_self_consistency_exact():
    values = trig_day_values(a=1.0, b=0.01, c=math.pi / 2)
    series = make_series(values, normalized=True)
    model = fit_clear_day(series)
    assert model.a == pytest.approx(1.0, abs=1e-6)
    assert model.b == pytest.approx(0.01, abs=1e-6 * 0.01)
    assert model.c == pytest.approx(math.pi / 2, abs=1e-6)


def test_fit_quadratic_inverts_synthetic_parabola():
    t = np.arange(-200, 201, dtype=float)
    values = 1.0 - (t / 200.0) ** 2
    series = make_series(np.clip(values, 0, None), normalized=True)
    model = fit_clear_day(series)
    assert model.p1 == pytest.approx(-2.5e-5, abs=1e-8)
    assert model.p2 == pytest.approx(0.0, abs=1e-8)
    assert model.p3 == pytest.approx(1.0, abs=1e-8)


def test_fit_property_recovery_random_models():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.uniform(0.7, 1.0)
        b = rng.uniform(0.004, 0.02)
        values = trig_day_values(a=a, b=b, c=math.pi / 2)
        model = fit_clear_day(make_series(values))
        assert model.a == pytest.approx(a, rel=1e-6)
        assert model.b == pytest.approx(b, rel=1e-6)
        assert model.c == pytest.approx(math.pi / 2, rel=1e-6)


def test_fit_rejects_too_few_positive_samples():
    from loadsizer.errors import FitError

    with pytest.raises(FitError):
        fit_clear_day(make_series([0.0, 1.0, 0.0], normalized=True))


# ---------------------------------------------------------------------------
# inverse and derivative
# ---------------------------------------------------------------------------


def test_inverse_round_trip(ref_model):
    y = ref_model.y_max / 2
    t = model_inverse(ref_model, y)
    assert t < 0
    assert float(ref_model.forward(t)) == pytest.approx(y, abs=1e-3)


def test_inverse_reference_level_crossing(ref_model):
    t = model_inverse(ref_model, 0.6489)
    assert abs(t) == pytest.approx(123, abs=1.0)


def test_inverse_derivative_matches_finite_difference(ref_model):
    h = 1e-6
    y = 0.5
    fd = (model_inverse(ref_model, y + h) - model_inverse(ref_model, y - h)) / (2 * h)
    assert model_inverse_derivative(ref_model, y) == pytest.approx(fd, rel=1e-4)


def test_inverse_derivative_grid_property(ref_model):
    h = 1e-7
    for y in np.linspace(0.05 * ref_model.y_max, 0.95 * ref_model.y_max, 31):
        fd = (model_inverse(ref_model, y + h) - model_inverse(ref_model, y - h)) / (2 * h)
        assert model_inverse_derivative(ref_model, y) == pytest.approx(fd, rel=1e-4)


def test_inverse_domain_errors(ref_model):
    with pytest.raises(DataError):
        model_inverse(ref_model, 0.0)
    with pytest.raises(DataError):
        model_inverse(ref_model, ref_model.y_max + 0.01)


def test_model_json_round_trip(ref_model):
    text = ref_model.to_json()
    back = ClearSkyModel.from_json(text)
    assert back == ref_model
    for key in ("alpha", "beta", "gamma", "t_max", "y_max", "p1", "p2", "p3"):
        assert f'"{key}"' in text


def test_forward_inverse_identity_interval(ref_model):
    for y in np.linspace(0.01, ref_model.y_max * 0.999, 50):
        t = model_inverse(ref_model, y)
        assert float(ref_model.forward(t)) == pytest.approx(y, abs=1e-3)
