"""Shared fixtures: reference clear-day model, synthetic CSV files."""

from __future__ import annotations

import pytest

from loadsizer import ClearSkyModel, normalize
from loadsizer.synth import (
    REFERENCE_A,
    REFERENCE_B,
    REFERENCE_C,
    clear_day_series,
    synth_year_series,
    write_series_csv,
)


@pytest.fixture(scope="session")
def ref_model():
    """Clear-day trig model with the reference San Diego parameters."""
    return ClearSkyModel(
        a=REFERENCE_A, b=REFERENCE_B, c=REFERENCE_C, p1=-2.001e-5, p2=0.0, p3=0.9708
    )


@pytest.fixture(scope="session")
def clear_day_csv(tmp_path_factory):
    series = clear_day_series()
    path = tmp_path_factory.mktemp("data") / "clear_day.csv"
    return write_series_csv(series, path)


@pytest.fixture(scope="session")
def year_csv(tmp_path_factory):
    series = synth_year_series(seed=42)
    path = tmp_path_factory.mktemp("data") / "year_15min.csv"
    return write_series_csv(series, path)


@pytest.fixture(scope="session")
def year_series():
    return normalize(synth_year_series(seed=42))
