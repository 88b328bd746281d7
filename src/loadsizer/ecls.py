"""Equality-constrained least squares sizing on sorted power data.

The switch-state matrix stacks all nonzero on/off combinations in
ascending binary order, each repeated in blocks of length L, so that the
ordering constraint on the sizes is implied by the sorted data. The sum
constraint ``sum(x) = C`` enters through a Lagrange multiplier in the
bordered KKT system; the best capacity fraction C is found by a line
search ranked on full-series dispatch utilization.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dispatch import available_energy, capture_best, nonzero_combo_rows
from .errors import DataError, NumericError, integer
from .results import format_floats, write_csv_columns
from .timeseries import SortedSeries

logger = logging.getLogger(__name__)

DEFAULT_BLOCK_LENGTH = 20
DEFAULT_C_STEPS = 100
MAX_LOADS = 12  # the most loads the least-squares routes size


@dataclass(frozen=True)
class SwitchMatrix:
    """Block matrix of all nonzero switch combinations, ascending by
    binary order, each combination repeated ``block_length`` times."""

    n: int
    block_length: int
    distinct_rows: np.ndarray = field(repr=False)  # (2^n - 1, n)

    @property
    def rows_used(self) -> int:
        return self.block_length * (2**self.n - 1)


def build_switch_matrix(n: int, block_length: int = DEFAULT_BLOCK_LENGTH) -> SwitchMatrix:
    """The switch matrix of ``n`` loads; ECLS and ICLS both size
    1..``MAX_LOADS`` (12) loads, and any other n, a non-integer or a bool
    included, raises ``DataError``."""
    n = integer(n, "n")
    if not 1 <= n <= MAX_LOADS:
        raise DataError(f"n must be in 1..{MAX_LOADS}, got {n}")
    block_length = integer(block_length, "block_length", 1)
    return SwitchMatrix(n=n, block_length=block_length, distinct_rows=nonzero_combo_rows(n))


def select_points(sorted_series: SortedSeries, count: int) -> np.ndarray:
    """``count`` values at uniform quantile positions of the sorted vector."""
    length = len(sorted_series)
    count = integer(count, "count", 1)
    if count > length:
        raise DataError(f"count {count} exceeds series length {length}")
    j = np.arange(1, count + 1)
    idx = np.ceil(j * length / count).astype(int) - 1
    return sorted_series.values[idx]


@dataclass(frozen=True)
class EclsResult:
    x: np.ndarray  # non-increasing presentation order
    lam: float
    C: float
    residual_norm: float
    solar_utilization: float
    n: int
    block_length: int
    negative_components: int = 0

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        total = x.sum()
        if abs(total - self.C) > 1e-10:
            raise DataError(f"sum(x) = {total} must equal C = {self.C} within 1e-10")


def solve_kkt(H, g, A, r):
    """Solve the bordered KKT system ``[[H, A^T], [A, 0]] [x; m] = [g; r]``.

    Its solution minimizes ``0.5 x^T H x - g^T x`` subject to ``A x = r``,
    with multipliers m. ``H``, ``g`` and ``r`` may carry the same leading
    stack axes, and ``A`` of shape (k, n) is shared by every system or
    carries them too, shape (..., k, n); each system of a stack gets the
    bytes it gets alone. More rows in ``A`` than unknowns make the matrix
    singular, which LAPACK reports only on an exactly zero pivot, so that
    case raises here; a rank-deficient ``A`` of at most n rows is not
    detected. Returns ``(x, m)``.
    """
    n = H.shape[-1]
    k = A.shape[-2]
    if k > n:
        raise np.linalg.LinAlgError(f"{k} constraint rows in {n} unknowns")
    kkt, rhs = H, g
    if k:
        kkt = np.zeros(H.shape[:-2] + (n + k, n + k))
        kkt[..., :n, :n] = H
        kkt[..., :n, n:] = A.swapaxes(-1, -2)
        kkt[..., n:, :n] = A
        rhs = np.concatenate([g, r], axis=-1)
    stacked = H.ndim > 2  # a stack takes its right-hand sides as one-column matrices
    sol = np.linalg.solve(kkt, rhs[..., None] if stacked else rhs)
    if stacked:
        sol = sol[..., 0]
    return sol[..., :n], sol[..., n:]


def solve_ecls(points, matrix: SwitchMatrix, C: float) -> EclsResult:
    """Solve the bordered KKT system of the sum-constrained least squares.

    ``[[U^T U, 1], [1^T, 0]] [x; lambda] = [U^T S; C]`` with S the selected
    sorted points. Negative components are possible for pathological data;
    they are counted in ``negative_components``, not clamped.
    """
    if not 0.5 <= C <= 1.0:
        raise DataError(f"C must lie in [0.5, 1], got {C}")
    s = np.asarray(points, dtype=float).ravel()
    n = matrix.n
    L = matrix.block_length
    N = 2**n - 1
    if s.size != L * N:
        raise DataError(f"expected {L * N} points for n={n}, L={L}, got {s.size}")
    rows = matrix.distinct_rows
    block_sums = s.reshape(N, L).sum(axis=1)
    try:
        x, lam = solve_kkt(L * rows.T @ rows, rows.T @ block_sums, np.ones((1, n)), np.array([C]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular KKT system for n={n}, L={L}: {exc}") from exc
    resid = s - np.repeat(rows @ x, L)
    return EclsResult(
        x=np.sort(x)[::-1],
        lam=float(lam[0]),
        C=float(C),
        residual_norm=float(np.linalg.norm(resid)),
        solar_utilization=math.nan,
        n=n,
        block_length=L,
        negative_components=int((x <= 0).sum()),
    )


def dispatch_su(values: np.ndarray, x: np.ndarray) -> float:
    """Utilization of sizes ``x`` dispatched over ``values`` (order-free),
    over `available_energy`'s total."""
    total = available_energy(values)
    captured, _ = capture_best(values, x)
    return float(captured.sum()) / total


def sensitivity_table(
    sorted_series: SortedSeries,
    n: int,
    c_steps: int = DEFAULT_C_STEPS,
    block_length: int = DEFAULT_BLOCK_LENGTH,
) -> list[EclsResult]:
    """Full C sweep, one row per grid value (NaN utilization where invalid)."""
    c_steps = integer(c_steps, "c_steps", 2)
    matrix = build_switch_matrix(n, block_length)
    points = select_points(sorted_series, matrix.rows_used)
    out = []
    skipped = 0
    for C in np.linspace(0.5, 1.0, c_steps):
        result = solve_ecls(points, matrix, float(C))
        if result.negative_components:
            skipped += 1
            out.append(result)  # utilization stays NaN; never ranked best
            continue
        su = dispatch_su(sorted_series.values, result.x)
        out.append(dataclasses.replace(result, solar_utilization=su))
    if skipped:
        logger.warning(
            "C sweep (n=%d): %d of %d grid values gave a non-positive size and were "
            "excluded from the ranking",
            n,
            skipped,
            c_steps,
        )
    return out


def line_search_C(
    sorted_series: SortedSeries,
    n: int,
    c_steps: int = DEFAULT_C_STEPS,
    block_length: int = DEFAULT_BLOCK_LENGTH,
) -> EclsResult:
    """Best-utilization ECLS solution over a uniform C grid on [0.5, 1].

    Ties break toward the smaller C; C values whose solution has a
    non-positive component are excluded from the ranking.
    """
    table = sensitivity_table(sorted_series, n, c_steps, block_length)
    best: EclsResult | None = None
    for result in table:
        if math.isnan(result.solar_utilization):
            continue
        if best is None or result.solar_utilization > best.solar_utilization:
            best = result
    if best is None:
        raise NumericError("no C value produced an all-positive sizing")
    return best


def write_sensitivity_csv(table: list[EclsResult], path: str | Path) -> Path:
    header = ["C"] + [f"x{i + 1}" for i in range(table[0].n)] + ["SU"]
    rows = [format_floats([row.C, *row.x, row.solar_utilization]) for row in table]
    return write_csv_columns(path, header, len(rows), lambda block: zip(*rows[block]))
