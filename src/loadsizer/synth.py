"""Synthetic solar power generators for tests, demos and benchmarks.

All generators are deterministic given a seed. Values are produced in watts
so the normal ingestion path (load -> normalize -> sort) applies unchanged.
"""

from __future__ import annotations

from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import integer
from .results import write_csv_columns
from .timeseries import PowerSeries

# Trig parameters of a fitted San Diego clear day: the reference arch of the
# synthetic fixtures and of the tests' clear-day model.
REFERENCE_A = 0.9903
REFERENCE_B = 0.006952
REFERENCE_C = 1.572

SAMPLES_PER_DAY = 96  # 15-minute sampling
DAYS_PER_YEAR = 365
INTERVAL_SECONDS = 900
S_MAX_WATTS = 100_000.0  # peak of every synthetic series
CLEAR_DAY_START = datetime(2021, 6, 21, 5, 0)
# share of clear and of scattered-cloud days in the year; the rest are overcast
CLEAR_FRACTION = 0.62
SCATTERED_FRACTION = 0.28


def trig_day_values(
    a: float = REFERENCE_A, b: float = REFERENCE_B, c: float = REFERENCE_C
) -> np.ndarray:
    """Sample ``a*sin(b*t + c)`` on the symmetric integer grid spanning its arch.

    The grid is t in [-T0, T0] with T0 = round(c/b) (the rising zero of the
    arch); for the reference parameters that is 453 samples. Values are
    clamped at zero.
    """
    t0 = int(round(c / b))
    t = np.arange(-t0, t0 + 1, dtype=float)
    return np.clip(a * np.sin(b * t + c), 0.0, None)


def clear_day_series() -> PowerSeries:
    """One clear day sampled from the reference arch, in watts."""
    values = trig_day_values() * S_MAX_WATTS
    return PowerSeries(
        start=CLEAR_DAY_START,
        values=values,
        interval_seconds=INTERVAL_SECONDS,
        s_max=float(values.max()),
        normalized=False,
    )


def _smooth_noise(rng: np.random.Generator, size: int, kernel: int) -> np.ndarray:
    raw = rng.normal(0.0, 1.0, size=size + kernel)
    window = np.hanning(kernel)
    window /= window.sum()
    smoothed = np.convolve(raw, window, mode="same")[:size]
    return smoothed


def _day_profile(day: int, amplitude: float) -> np.ndarray:
    """Half-sine daylight arch for one 96-sample day, seasonally modulated."""
    season = np.cos(2.0 * np.pi * (day - 172) / DAYS_PER_YEAR)
    width = 44.0 + 10.0 * season  # daylight span in samples (11 h to 13.5 h)
    center = 48.0
    j = np.arange(SAMPLES_PER_DAY, dtype=float)
    phase = (j - (center - width / 2.0)) / width
    arch = np.sin(np.pi * np.clip(phase, 0.0, 1.0))
    arch[(phase <= 0.0) | (phase >= 1.0)] = 0.0
    return amplitude * arch


def synth_year_values(seed: int = 42) -> np.ndarray:
    """One synthetic year (35040 samples at 15 min) of normalized power.

    Days are drawn as clear, scattered (clear arch with smooth cloud dips)
    or overcast (strongly attenuated arch). The mix leans clear so that the
    sizing trend with load count resembles a sunny site.
    """
    rng = np.random.default_rng(integer(seed, "seed", 0))
    out = np.zeros(DAYS_PER_YEAR * SAMPLES_PER_DAY)
    kinds = rng.choice(
        3,
        size=DAYS_PER_YEAR,
        p=[CLEAR_FRACTION, SCATTERED_FRACTION, 1.0 - CLEAR_FRACTION - SCATTERED_FRACTION],
    )
    for day in range(DAYS_PER_YEAR):
        season = np.cos(2.0 * np.pi * (day - 172) / DAYS_PER_YEAR)
        amplitude = 0.86 + 0.14 * season + rng.normal(0.0, 0.01)
        amplitude = float(np.clip(amplitude, 0.3, 1.0))
        arch = _day_profile(day, amplitude)
        kind = kinds[day]
        if kind == 1:  # scattered clouds
            dips = _smooth_noise(rng, SAMPLES_PER_DAY, kernel=9)
            depth = rng.uniform(0.25, 0.7)
            factor = 1.0 - depth * np.clip(dips, 0.0, None)
            arch = arch * np.clip(factor, 0.05, 1.0)
        elif kind == 2:  # overcast
            level = rng.uniform(0.12, 0.35)
            wobble = 1.0 + 0.15 * _smooth_noise(rng, SAMPLES_PER_DAY, kernel=17)
            arch = arch * level * np.clip(wobble, 0.5, 1.5)
        out[day * SAMPLES_PER_DAY : (day + 1) * SAMPLES_PER_DAY] = arch
    return np.clip(out, 0.0, None) / out.max()


def synth_year_series(seed: int = 42) -> PowerSeries:
    values = synth_year_values(seed=seed) * S_MAX_WATTS
    return PowerSeries(
        start=datetime(2021, 1, 1, 0, 0),
        values=values,
        interval_seconds=INTERVAL_SECONDS,
        s_max=float(values.max()),
        normalized=False,
    )


def write_series_csv(series: PowerSeries, path: str | Path) -> Path:
    """Write a series in the ``timestamp,power_w`` ingestion format."""
    stamps = series.timestamps()

    def columns(block: slice) -> list[list[str]]:
        return [stamps[block], [format(v, ".6f") for v in series.values[block].tolist()]]

    return write_csv_columns(path, ["timestamp", "power_w"], len(series), columns)
