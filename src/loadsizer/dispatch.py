"""Schedule fixed-size loads over a power series and score utilization.

Each timestep independently switches on the subset of loads with the
largest total draw that still fits under the available power. Subsets are
indexed by the binary order ``d = sum_i u_i * 2^(n-i)`` (load 1 is the most
significant bit), so ``combo_index`` 0 means all off. Other modules pack
and unpack this encoding only through ``combo_states`` and ``combo_index``,
and read the table of nonzero combinations from ``nonzero_combo_rows``.
``combo_draws`` is the one place a draw is summed: dispatch decides with
its sums, and utilization, the schedule writer and the analytic staircase
read theirs from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, integer
from .results import format_floats, write_csv_columns
from .timeseries import PowerSeries

_MAX_LOADS = 20

_FEAS_TOL = 1e-12
NO_LOAD_SIZE = 1e-12  # a load sized at or below this is no load: dispatch keeps it off


@dataclass(frozen=True)
class SwitchSchedule:
    """Per-timestep combination of ``n`` loads, aligned to a series.

    The schedule is stored as its combo-index vector; the (n, T) on/off
    matrix ``u`` is derived from it on read.
    """

    combo_index: np.ndarray = field(repr=False)  # (T,)
    n: int

    def __post_init__(self) -> None:
        n = integer(self.n, "n")
        if not 1 <= n <= _MAX_LOADS:
            raise DataError(f"need 1..{_MAX_LOADS} loads, got {n}")
        combo = np.asarray(self.combo_index, dtype=np.int64)
        if combo.ndim != 1:
            raise DataError("combo_index must be a 1-D vector")
        if combo.size and (combo.min() < 0 or combo.max() >= 2**n):
            raise DataError(f"combo_index values must lie in 0..{2**n - 1}")
        object.__setattr__(self, "combo_index", combo)
        object.__setattr__(self, "n", n)

    @property
    def u(self) -> np.ndarray:
        """(n, T) uint8 on/off matrix; row i is load i + 1."""
        return combo_states(self.combo_index, self.n)

    def __len__(self) -> int:
        return self.combo_index.size


@dataclass(frozen=True)
class UtilizationReport:
    captured_energy: float
    total_energy: float
    solar_utilization: float
    mismatch: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ComboHistogram:
    """Occurrence counts of each combination per time-of-day bin.

    ``bins[b, d]`` counts daytime samples in bin ``b`` running combination
    ``d`` (including d = 0, all off, so each row sums to the bin's daytime
    sample count).
    """

    bins: np.ndarray = field(repr=False)  # (bins_per_day, 2^n)
    bins_per_day: int
    n: int


def combo_states(combo, n: int) -> np.ndarray:
    """(n, len(combo)) uint8 on/off matrix of combo indices; row i is load i + 1."""
    # shifting in the narrowest unsigned type keeps the (n, T) temporary small
    narrow = np.min_scalar_type(2**n - 1)
    shifts = np.arange(n - 1, -1, -1, dtype=narrow)
    states = np.asarray(combo).astype(narrow)[None, :] >> shifts[:, None]
    states &= 1
    return states.astype(np.uint8, copy=False)


def combo_index(u) -> np.ndarray:
    """Combo index of every column of an (n, T) on/off matrix."""
    u = np.asarray(u, dtype=np.int64)
    shifts = u.shape[0] - 1 - np.arange(u.shape[0])
    return (u << shifts[:, None]).sum(axis=0)


@functools.lru_cache(maxsize=32)
def nonzero_combo_rows(n: int) -> np.ndarray:
    """Read-only float (2^n - 1, n) on/off rows of combinations 1 .. 2^n - 1, ascending."""
    rows = np.ascontiguousarray(combo_states(np.arange(1, 2**n), n).T, dtype=float)
    rows.flags.writeable = False
    return rows


def combo_draws(x) -> np.ndarray:
    """The draw of every subset of the loads, indexed by combo index.

    Built by doubling (the list step of Horowitz & Sahni, JACM 1974): load
    i adds ``x_i`` to every subset of loads 1..i-1, so each draw is summed
    from load 1 onwards in one fixed order. More than 20 loads are refused
    before anything is allocated.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 1 or n > _MAX_LOADS:
        raise DataError(f"need 1..{_MAX_LOADS} loads, got {n}")
    sums = np.zeros(2**n)
    b = sums.size
    for size in x.tolist():
        # b is this load's bit: a subset whose last load on is this one is
        # the subset without it plus this size
        b >>= 1
        np.add(sums[:: 2 * b], size, out=sums[b :: 2 * b])
    return sums


@functools.lru_cache(maxsize=8)
def _popcounts(n: int) -> np.ndarray:
    """Loads on in every combo index: the draws of n unit loads."""
    pops = combo_draws(np.ones(n)).astype(np.int8)
    pops.flags.writeable = False
    return pops


def subset_table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n subset draws of ``combo_draws`` with the best representative
    per distinct draw.

    Returns ``(sums, masks)`` sorted by ascending draw; among subsets with an
    identical draw the one with fewest loads on, then lowest combo index,
    is kept (``lexsort`` is stable, so equal keys stay in index order).
    """
    sums = combo_draws(x)
    order = np.lexsort((_popcounts(np.size(x)), sums))
    ordered = sums[order]
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first], order[first]


def capture_best(values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-step best feasible draw for every value in ``values``.

    Returns ``(captured, mask)`` arrays: the largest subset draw with
    ``draw <= value`` and its combo index, by the rule of ``subset_table``.
    Values below the smallest draw get it too. Non-decreasing ``values``
    (the sorted series every solver scores on) are cut into runs per draw
    by locating the 2^n draws among them, not each value among the draws.

    A size at or below ``NO_LOAD_SIZE`` is no load: it counts as zero, so
    the tie rule (fewest loads on) never switches it on, and the draws are,
    byte for byte, those of the sizes without it.
    """
    x = np.asarray(x, dtype=float)
    sums, masks = subset_table(np.where(x > NO_LOAD_SIZE, x, 0.0))
    values = np.asarray(values, dtype=float)
    if (values[:-1] <= values[1:]).all():  # False if any value is NaN
        # draw k covers the values from the first >= sums[k] up to the
        # first >= sums[k + 1]; the values below sums[1] all take draw 0
        cuts = np.searchsorted(values, sums[1:], side="left")
        # run k is cuts[k] - cuts[k - 1], with 0 before the first cut and values.size after the last
        counts = np.empty(sums.size, dtype=cuts.dtype)
        counts[-1] = values.size
        counts[:-1] = cuts
        counts[1:] -= cuts
        return np.repeat(sums, counts), np.repeat(masks, counts)
    idx = np.searchsorted(sums, values, side="right") - 1
    idx = np.maximum(idx, 0)  # sums[0] == 0.0 is always feasible
    return sums[idx], masks[idx]


def dispatch_greedy(series: PowerSeries, x) -> SwitchSchedule:
    """Per-timestep maximal feasible subset of loads under the series."""
    x = np.asarray(x, dtype=float).ravel()
    if not (np.isfinite(x) & (x > 0)).all():
        raise DataError(f"load sizes must be positive and finite, got {x.tolist()}")
    _, chosen = capture_best(series.values, x)
    return SwitchSchedule(chosen, x.size)


def _matching_sizes(series: PowerSeries, schedule: SwitchSchedule, x=None) -> np.ndarray | None:
    """``x`` as a flat float vector, refused unless the schedule is
    (x.size, len(series)); with no ``x`` only the steps are checked."""
    if x is not None:
        x = np.asarray(x, dtype=float).ravel()
    shape = (schedule.n, len(schedule))
    want = (shape[0] if x is None else x.size, len(series))
    if shape != want:
        raise DataError(
            f"schedule shape {shape} does not match {want[0]} loads x {want[1]} steps"
        )
    return x


def available_energy(values: np.ndarray) -> float:
    """The sum of a profile: every route's SU divides by it. A profile
    with no energy is refused."""
    total = float(values.sum())
    if total <= 0:
        raise DataError("total energy is zero")
    return total


def _step_draws(series: PowerSeries, schedule: SwitchSchedule, x):
    """Each step's draw, read from `combo_draws`, and the mismatch
    ``S - draw``; sizes that do not match the schedule are refused."""
    draw = combo_draws(_matching_sizes(series, schedule, x))[schedule.combo_index]
    return draw, series.values - draw


def utilization(series: PowerSeries, schedule: SwitchSchedule, x) -> UtilizationReport:
    """Captured over `available_energy` plus the per-step mismatch vector."""
    draw, mismatch = _step_draws(series, schedule, x)
    total = available_energy(series.values)
    if (mismatch < -_FEAS_TOL).any():
        raise DataError("schedule draws more than the available power")
    captured = float(draw.sum())
    return UtilizationReport(
        captured_energy=captured,
        total_energy=total,
        solar_utilization=captured / total,
        mismatch=mismatch,
    )


def combo_histogram(
    series: PowerSeries, schedule: SwitchSchedule, bins_per_day: int = 24
) -> ComboHistogram:
    """Count combination occurrences per time-of-day bin, daytime samples only.

    The bins are the clock time of the first row's UTC offset: a step's
    time of day counts from ``series.start``, so after a daylight-saving
    change a sample is binned one hour off its local clock time.
    """
    bins_per_day = integer(bins_per_day, "bins_per_day", 1)
    if len(series) * series.interval_seconds < 86400:
        raise DataError("series must span at least one day")
    _matching_sizes(series, schedule)
    n = schedule.n
    seconds_of_day = (
        np.arange(len(series), dtype=np.int64) * series.interval_seconds
        + series.start.hour * 3600
        + series.start.minute * 60
        + series.start.second
    ) % 86400
    bin_idx = (seconds_of_day * bins_per_day) // 86400
    daytime = series.values > 0
    counts = np.zeros((bins_per_day, 2**n), dtype=np.int64)
    np.add.at(counts, (bin_idx[daytime], schedule.combo_index[daytime]), 1)
    return ComboHistogram(bins=counts, bins_per_day=bins_per_day, n=n)


def write_schedule_csv(
    series: PowerSeries, schedule: SwitchSchedule, x, path: str | Path
) -> Path:
    """Emit ``timestamp, S, u_1..u_n, captured, mismatch`` rows.

    The file is built column by column: each float column is formatted once
    per block of rows, and the ``u`` fields of each combination that occurs
    are joined once and looked up per row.
    """
    draw, mismatch = _step_draws(series, schedule, x)
    stamps = series.timestamps()
    combos, combo_of_step = np.unique(schedule.combo_index, return_inverse=True)
    u_text = np.array(
        [",".join(map(str, bits)) for bits in combo_states(combos, schedule.n).T.tolist()],
        dtype=object,
    )

    def columns(block: slice) -> list[list[str]]:
        return [
            stamps[block],
            format_floats(series.values[block]),
            u_text[combo_of_step[block]].tolist(),
            format_floats(draw[block]),
            format_floats(mismatch[block]),
        ]

    loads = [f"u_{i + 1}" for i in range(schedule.n)]
    header = ["timestamp", "S"] + loads + ["captured", "mismatch"]
    return write_csv_columns(path, header, len(series), columns)


def write_histogram_csv(hist: ComboHistogram, path: str | Path) -> Path:
    """Emit ``bin, combo_index, count`` rows.

    Every bin with daylight gets one row per combination 1..2^n - 1, zero
    counts included; all-dark bins and the all-off combination 0 get none.
    """
    lit = np.flatnonzero(hist.bins.sum(axis=1))
    combos = 2**hist.n - 1
    bins = np.repeat(lit, combos)
    combo = np.tile(np.arange(1, combos + 1), lit.size)
    counts = hist.bins[lit, 1:].ravel()

    def columns(block: slice) -> list[list[str]]:
        return [list(map(str, col[block].tolist())) for col in (bins, combo, counts)]

    return write_csv_columns(path, ["bin", "combo_index", "count"], len(bins), columns)
