"""Power time-series ingestion, normalization, sorting and clear-day fitting.

The CSV contract is two columns ``timestamp,power_w`` (ISO-8601 timestamps,
one header row, UTF-8). All downstream solvers work on normalized values in
[0, 1]; time is measured in sample units throughout.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import DataError, FitError, ParseError
from .results import CSV_BLOCK_ROWS

logger = logging.getLogger(__name__)

_EPS_NORM = 1e-12

_MICROSECOND = timedelta(microseconds=1)


@dataclass(frozen=True)
class PowerSeries:
    """Equispaced power samples plus the normalization scale.

    ``values[k]`` is the power at ``start + k * interval_seconds``. When
    ``normalized`` is true all values lie in [0, 1] and the peak equals 1;
    ``s_max`` then holds the original scale (typically the AC rating).
    """

    start: datetime
    values: np.ndarray = field(repr=False)
    interval_seconds: int
    s_max: float
    normalized: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DataError("values must be a non-empty 1-D array")
        if not np.isfinite(v).all() or (v < 0).any():
            raise DataError("values must be finite and >= 0")
        if int(self.interval_seconds) <= 0:
            raise DataError("interval_seconds must be positive")
        if self.s_max <= 0:
            raise DataError("s_max must be positive")
        if self.normalized:
            if v.max() > 1 + _EPS_NORM or abs(v.max() - 1.0) > _EPS_NORM:
                raise DataError("normalized series must have max 1 within 1e-12")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "interval_seconds", int(self.interval_seconds))

    def __len__(self) -> int:
        return self.values.size

    def timestamps(self) -> list[str]:
        """Each sample's time as ``datetime.isoformat`` writes it.

        An offset-aware ``start`` lends its UTC offset to every stamp.
        """
        naive = self.start.replace(tzinfo=None)
        unit = "us" if naive.microsecond else "s"
        offset = self.start.isoformat()[len(naive.isoformat()) :]
        first = np.datetime64(naive, unit)
        step = np.timedelta64(self.interval_seconds, "s")
        stamps: list[str] = []
        for lo in range(0, len(self), CSV_BLOCK_ROWS):
            k = np.arange(lo, min(lo + CSV_BLOCK_ROWS, len(self)))
            block = np.datetime_as_string(first + k * step, unit=unit).tolist()
            stamps += [stamp + offset for stamp in block] if offset else block
        return stamps


@dataclass(frozen=True)
class SortedSeries:
    """Normalized power values rearranged in non-decreasing order."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DataError("sorted values must be a non-empty 1-D array")
        if (np.diff(v) < 0).any():
            raise DataError("values must be non-decreasing")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _parse_timestamp(text: str, lineno: int) -> datetime:
    try:
        return datetime.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad timestamp {text!r}: {exc}") from exc


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _check_rows(rows, lineno: int, first: datetime | None, before: int) -> None:
    """Raise at the first faulty row of a block of rows starting at line ``lineno``.

    ``first`` is the file's first stamp (None before the first data row)
    and ``before`` the offset of the stamp just before the block, in
    microseconds from ``first`` (-1 before the first data row).
    """
    for lineno, row in enumerate(rows, start=lineno):
        if _is_blank(row):
            continue
        if len(row) < 2:
            raise ParseError(f"line {lineno}: expected two columns, got {row}")
        ts = _parse_timestamp(row[0], lineno)
        first = first or ts
        if (ts.tzinfo is None) != (first.tzinfo is None):
            raise ParseError(
                f"line {lineno}: timestamp {row[0]!r} mixes offset-aware and naive rows"
            )
        try:
            p = float(row[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad power value {row[1]!r}") from exc
        if not math.isfinite(p) or p < 0:
            raise ParseError(f"line {lineno}: power must be finite and >= 0, got {p}")
        offset = (ts - first) // _MICROSECOND
        if offset <= before:
            raise DataError(
                f"timestamps not strictly increasing at line {lineno} ({ts.isoformat()})"
            )
        before = offset


def _parse_rows(reader) -> tuple[datetime | None, list[np.ndarray], list[np.ndarray]]:
    """The first stamp, then per block the rows' microseconds from it and powers.

    Rows are parsed a block at a time, column by column; a block that is
    not clean goes to ``_check_rows``, which raises at its first bad row.
    """
    first = None
    before = -1  # offsets start at 0
    micros: list[np.ndarray] = []
    powers: list[np.ndarray] = []
    lineno = 2
    while rows := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
        if data := [row for row in rows if not _is_blank(row)]:
            try:
                stamps = list(map(datetime.fromisoformat, [row[0].strip() for row in data]))
                values = np.array(list(map(float, [row[1] for row in data])))
                first = first or stamps[0]
                # a naive stamp minus an offset-aware one raises TypeError
                offsets = np.array([(t - first) // _MICROSECOND for t in stamps], dtype=np.int64)
            except (IndexError, TypeError, ValueError):
                offsets = None
            if (
                offsets is None
                or not ((values >= 0) & (values < math.inf)).all()
                or not (np.diff(offsets, prepend=before) > 0).all()
            ):
                _check_rows(rows, lineno, first, before)
            before = int(offsets[-1])
            micros.append(offsets)
            powers.append(values)
        lineno += len(rows)
    return first, micros, powers


def load_series(path: str | Path, resample_seconds: int) -> PowerSeries:
    """Read a ``timestamp,power_w`` CSV and return a gap-free equispaced series.

    Resampling takes the arithmetic mean over each ``resample_seconds``
    window; windows with no source samples are filled with 0 and counted in
    a logged warning. ``resample_seconds`` must be a multiple of the source
    sampling interval.
    """
    path = Path(path)
    if resample_seconds <= 0:
        raise DataError("resample_seconds must be positive")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ParseError(f"{path}: header must have two columns, got {header}")
        t0, micro_blocks, power_blocks = _parse_rows(reader)
    if t0 is None:
        raise ParseError(f"{path}: no data rows")
    micros = np.concatenate(micro_blocks)

    steps = np.diff(micros)
    source_interval = int(steps.min()) // 1_000_000 if steps.size else resample_seconds
    if source_interval <= 0:
        raise DataError("source interval must be positive")
    if resample_seconds % source_interval != 0:
        raise DataError(
            f"resample_seconds={resample_seconds} is not a multiple of the "
            f"source interval {source_interval}s"
        )
    if (micros % (source_interval * 1_000_000)).any():
        raise DataError("timestamps are not aligned to the source interval")

    windows = micros // (resample_seconds * 1_000_000)
    sums = np.bincount(windows, weights=np.concatenate(power_blocks))
    counts = np.bincount(windows)
    filled = counts == 0
    values = np.where(filled, 0.0, sums / np.maximum(counts, 1))
    n_filled = int(filled.sum())
    if n_filled:
        logger.warning("%s: %d empty window(s) of %ds filled with 0", path, n_filled, resample_seconds)

    vmax = float(values.max())
    if vmax <= 0:
        raise DataError(f"{path}: series has no positive power samples")
    return PowerSeries(
        start=t0,
        values=values,
        interval_seconds=resample_seconds,
        s_max=vmax,
        normalized=False,
    )


def normalize(series: PowerSeries) -> PowerSeries:
    """Divide by the series peak, recording the scale in ``s_max``. Idempotent."""
    if series.normalized:
        return series
    vmax = float(series.values.max())
    if vmax <= 0:
        raise DataError("cannot normalize an all-zero series")
    return PowerSeries(
        start=series.start,
        values=series.values / vmax,
        interval_seconds=series.interval_seconds,
        s_max=vmax,
        normalized=True,
    )


def sort_ascending(series: PowerSeries, remove_zeros: bool = True) -> SortedSeries:
    """Rearrange the normalized series in non-decreasing order.

    ``remove_zeros`` drops zero entries (required by the least-squares
    sizers).
    """
    if not series.normalized:
        raise DataError("sort_ascending expects a normalized series")
    values = np.sort(series.values, kind="stable")
    if remove_zeros:
        values = values[values > 0]
        if values.size == 0:
            raise DataError("all values are zero after zero removal")
    return SortedSeries(values=values)


def downsample_uniform(sorted_series: SortedSeries, ratio: int) -> SortedSeries:
    """Take every ``ratio``-th element of the sorted vector, starting at
    index ``ratio - 1`` (deterministic stride)."""
    r = int(ratio)
    if r < 1:
        raise DataError("ratio must be >= 1")
    if r > len(sorted_series):
        raise DataError(f"ratio {r} exceeds series length {len(sorted_series)}")
    return SortedSeries(values=sorted_series.values[r - 1 :: r])


# ---------------------------------------------------------------------------
# Clear-day model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClearSkyModel:
    """Symmetric clear-day fit: a trigonometric arch; ``p1..p3`` report a quadratic fit.

    The forward map is ``S(t) = a*sin(b*t + c)`` with ``t`` in sample units
    on a time axis shifted so the peak sits at t = 0. The inverse returns
    the negative (morning) branch, ``t = alpha*arcsin(beta*y) + gamma`` with
    ``alpha = 1/b``, ``beta = 1/a``, ``gamma = -c/b``, which makes
    ``forward(inverse(y)) == y`` exact on (0, y_max).
    """

    a: float
    b: float
    c: float
    p1: float
    p2: float
    p3: float

    @property
    def alpha(self) -> float:
        return 1.0 / self.b

    @property
    def beta(self) -> float:
        return 1.0 / self.a

    @property
    def gamma(self) -> float:
        return -self.c / self.b

    @property
    def y_max(self) -> float:
        return self.a

    @property
    def t_max(self) -> float:
        """Positive zero crossing of the trig arch, in samples."""
        return (math.pi - self.c) / self.b

    def forward(self, t):
        """Clear-day power at time ``t`` (samples from peak), clamped at 0."""
        return np.maximum(self.a * np.sin(self.b * np.asarray(t, dtype=float) + self.c), 0.0)

    def half_width(self, y):
        """Positive half-width of the arch at level ``y`` (level 0 allowed)."""
        y = np.asarray(y, dtype=float)
        if (y < 0).any() or (y >= self.y_max).any():
            raise DataError(f"level outside [0, {self.y_max}): {y}")
        out = (self.c - np.arcsin(self.beta * y)) / self.b
        return float(out) if out.ndim == 0 else out

    def half_width_slope(self, y):
        """d/dy of :meth:`half_width` (negative: higher levels are narrower)."""
        y = np.asarray(y, dtype=float)
        if (y < 0).any() or (y >= self.y_max).any():
            raise DataError(f"level outside [0, {self.y_max}): {y}")
        out = -self.alpha * self.beta / np.sqrt(1.0 - (self.beta * y) ** 2)
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> str:
        keys = {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "p1": self.p1,
            "p2": self.p2,
            "p3": self.p3,
            "t_max": self.t_max,
            "y_max": self.y_max,
        }
        return json.dumps(keys, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClearSkyModel":
        d = json.loads(text)
        return cls(a=d["a"], b=d["b"], c=d["c"], p1=d["p1"], p2=d["p2"], p3=d["p3"])


def model_inverse(model: ClearSkyModel, y: float) -> float:
    """Negative-branch inverse of the trig arch: the (negative) time at which
    the rising clear-day curve crosses level ``y``, the arch's half-width
    there negated."""
    if not 0 < y < model.y_max:
        raise DataError(f"y must lie in (0, {model.y_max}), got {y}")
    return -model.half_width(y)


def model_inverse_derivative(model: ClearSkyModel, y: float) -> float:
    """d/dy of :func:`model_inverse`: the half-width's slope negated."""
    if not 0 < y < model.y_max:
        raise DataError(f"y must lie in (0, {model.y_max}), got {y}")
    return -model.half_width_slope(y)


def _daylight_window(values: np.ndarray) -> tuple[int, int]:
    """Contiguous strictly-positive run around the peak: [lo, hi) indices."""
    peak = int(np.argmax(values))
    lo = peak
    while lo > 0 and values[lo - 1] > 0:
        lo -= 1
    hi = peak + 1
    while hi < values.size and values[hi] > 0:
        hi += 1
    return lo, hi


def _fit_quadratic(t: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    coef = np.polynomial.polynomial.polyfit(t, v, 2)
    return float(coef[2]), float(coef[1]), float(coef[0])


def _trig_sse(omega: float, t: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Best (a1, a2) for v ~ a1*sin(wt) + a2*cos(wt) and the resulting SSE."""
    basis = np.column_stack([np.sin(omega * t), np.cos(omega * t)])
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    resid = v - basis @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def fit_clear_day(series: PowerSeries) -> ClearSkyModel:
    """Fit the symmetric clear-day model to a single-peaked day of data.

    The time axis is shifted so the fitted peak sits at t = 0, then a
    trigonometric arch ``a*sin(b*t + c)`` is fitted by variable projection
    (golden-section search over the rate b, linear solve for the sinusoid
    coefficients). A quadratic fit on the same shifted axis is reported as
    ``p1..p3``.
    """
    v_all = np.asarray(series.values, dtype=float)
    scale = float(v_all.max())
    if scale <= 0:
        raise FitError("series has no positive samples")
    v_all = v_all / scale  # condition the fit; amplitudes are rescaled below

    lo, hi = _daylight_window(v_all)
    if hi - lo < 3:
        raise FitError("positive values must span at least 3 samples")
    t_day = np.arange(lo, hi, dtype=float)
    v_day = v_all[lo:hi]

    # Initial peak estimate from the quadratic vertex.
    q1, q2, _ = _fit_quadratic(t_day, v_day)
    if q1 >= 0:
        raise FitError("quadratic fit is not concave; series is not single-peaked")
    shift = -q2 / (2.0 * q1)

    half_width = max((hi - lo) / 2.0, 1.0)
    a1 = a2 = omega = float("nan")
    for _ in range(2):  # one re-centering pass on the fitted peak
        tau = t_day - shift
        w0 = math.pi / (2.0 * half_width)
        grid = np.linspace(0.25 * w0, 4.0 * w0, 240)
        sses = [_trig_sse(w, tau, v_day)[2] for w in grid]
        j = int(np.argmin(sses))
        wl = grid[max(j - 1, 0)]
        wh = grid[min(j + 1, grid.size - 1)]
        # Golden-section refinement of the rate.
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = wh - invphi * (wh - wl)
        x2 = wl + invphi * (wh - wl)
        f1 = _trig_sse(x1, tau, v_day)[2]
        f2 = _trig_sse(x2, tau, v_day)[2]
        while wh - wl > 1e-13 * max(1.0, wh):
            if f1 < f2:
                wh, x2, f2 = x2, x1, f1
                x1 = wh - invphi * (wh - wl)
                f1 = _trig_sse(x1, tau, v_day)[2]
            else:
                wl, x1, f1 = x1, x2, f2
                x2 = wl + invphi * (wh - wl)
                f2 = _trig_sse(x2, tau, v_day)[2]
        omega = 0.5 * (wl + wh)
        a1, a2, _ = _trig_sse(omega, tau, v_day)
        amp = math.hypot(a1, a2)
        if amp <= 0 or not math.isfinite(amp):
            raise FitError("trigonometric fit collapsed to zero amplitude")
        phase = math.atan2(a2, a1)
        # Re-center so the fitted arch peaks at tau = 0.
        shift = shift + (math.pi / 2.0 - phase) / omega

    tau = t_day - shift
    a1, a2, sse = _trig_sse(omega, tau, v_day)
    a = math.hypot(a1, a2)
    c = math.atan2(a2, a1)
    if not (0 < c < math.pi):
        raise FitError(f"fitted phase {c:.4f} outside (0, pi); data is not a day arch")
    rms = math.sqrt(sse / v_day.size)
    if rms > 0.25:
        raise FitError(f"trigonometric fit did not converge (rms residual {rms:.3f})")

    p1, p2, p3 = _fit_quadratic(tau, v_day)
    return ClearSkyModel(
        a=a * scale,
        b=omega,
        c=c,
        p1=p1 * scale,
        p2=p2 * scale,
        p3=p3 * scale,
    )
