"""Inequality-constrained least squares sizing with variable switch blocks.

The sorted series is partitioned into an optional all-off dwell (the
``offset`` smallest samples, where no load runs) followed by 2^n - 1
contiguous blocks, one per switch combination in ascending binary order;
block k spans ``m_k`` samples and the final block absorbs the remainder.
The incremental transform ``x = T_upper @ x_bar`` turns the size-ordering
constraint into ``x_bar >= 0``, and keeping demand under the curve
collapses to one cap per block (the block's first, smallest sample). The
resulting small strictly convex QP is solved by a primal active-set
method; an outer integer search over the offset and block lengths
maximizes dispatch utilization. Without the dwell, the cap on the
smallest combination would be pinned to the smallest nonzero sample of
the whole series, which cripples the sizing on real dawn/dusk data.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dispatch import capture_best, nonzero_combo_rows
from .ecls import solve_kkt
from .errors import DataError, NumericError
from .timeseries import SortedSeries

logger = logging.getLogger(__name__)

_EXHAUSTIVE_LIMIT = 4500  # enumerate the (offset, m) lattice when this small
_MAX_SWEEPS = 400  # pattern-search sweeps per start
_KKT_TOL = 1e-10


@dataclass(frozen=True)
class SwitchTimes:
    """Block lengths for all 2^n - 1 switch combinations; they sum to T."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        lengths = tuple(map(int, self.lengths))
        if lengths and min(lengths) < 1:
            raise DataError(f"every block length must be >= 1, got {self.lengths}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def free(self) -> tuple[int, ...]:
        """The independently chosen lengths (the last block is the remainder)."""
        return self.lengths[:-1]

    @classmethod
    def from_free(cls, free, total: int, n: int) -> "SwitchTimes":
        free = tuple(map(int, free))
        blocks = 2**n - 1
        if len(free) != blocks - 1:
            raise DataError(f"expected {blocks - 1} free lengths for n={n}, got {len(free)}")
        rest = total - sum(free)
        if rest < 1:
            raise DataError(f"free lengths {free} leave no room in T={total}")
        return cls(lengths=free + (rest,))

    @classmethod
    def equidistant(cls, total: int, n: int) -> "SwitchTimes":
        blocks = 2**n - 1
        if total < blocks:
            raise DataError(f"need at least {blocks} samples, got {total}")
        base = total // blocks
        return cls.from_free((base,) * (blocks - 1), total, n)


def build_um(m: SwitchTimes, n: int) -> np.ndarray:
    """Dense switch-state matrix with block k repeated ``m_k`` times."""
    rows = nonzero_combo_rows(n)
    if len(m.lengths) != rows.shape[0]:
        raise DataError(f"{len(m.lengths)} blocks do not match n={n}")
    return np.repeat(rows, m.lengths, axis=0)


@functools.lru_cache(maxsize=32)
def upper_ones(n: int) -> np.ndarray:
    """Upper-triangular all-ones transform from incremental to total sizes."""
    out = np.triu(np.ones((n, n)))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class IclsResult:
    """One ICLS sizing.

    ``qp_solves``, ``iterations`` and ``warm_hits`` count the work behind
    the result: for a fixed-m solve that is its one QP; ``optimize_m``
    reports the totals over every QP of its search. ``iterations`` counts
    the EQPs solved: the warm working set's, when its stacked solve ran,
    and each of the active-set iteration's; a cold start solves none.
    A warm hit is a QP whose warm working set was optimal as given. Only
    the pattern search starts warm: on a lattice small enough to be
    solved whole, ``warm_hits`` is 0 and ``iterations`` counts cold EQPs.
    """

    x_bar: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)  # total sizes, non-increasing
    m: SwitchTimes
    residual_norm: float
    solar_utilization: float
    offset: int = 0  # leading sorted samples left all-off (below the first switch)
    restarts_used: int = 1
    working_set: tuple[int, ...] = ()
    multipliers: tuple[float, ...] = ()
    iterations: int = 0
    qp_solves: int = 1
    warm_hits: int = 0


def _active_set_qp(H, g, C, b, max_iter, x, working, mult):
    """Minimize 0.5 x'Hx - g'x subject to Cx <= b (H strictly convex).

    Classic primal active-set iteration (Nocedal & Wright, Numerical
    Optimization, ch. 16): solve the equality-constrained subproblem (EQP)
    on the working set, step to the first blocking constraint when the
    subproblem solution is infeasible, and drop the constraint with the
    most negative multiplier when it is stationary. The working set is
    kept sorted, so every KKT system is built in one canonical row order
    and the final working set fixes the answer, whatever path led to it.
    On degenerate data different starts can end on different working
    sets, whose points may differ by an ulp.

    It starts from ``x``, the feasible EQP point of the sorted ``working``
    set with multipliers ``mult``, and returns at once when they are all
    >= -``_KKT_TOL``. A full step lands on the EQP point just solved, so
    its multipliers are tested without solving that working set again.
    Returns ``(x, working, multipliers, EQPs solved)``.
    """
    working = list(working)
    x_eq, solves = x, 0
    while mult.size and mult.min() < -_KKT_TOL:
        working.pop(int(np.argmin(mult)))
        blocking = 0
        while blocking >= 0:  # until a full step or a stationary EQP point
            if solves == max_iter:
                raise NumericError(f"active set did not terminate; working set {working}")
            solves += 1
            try:
                x_eq, mult = solve_kkt(H, g, C[working], b[working])
            except np.linalg.LinAlgError as exc:
                raise NumericError(f"singular working-set system {working}: {exc}") from exc
            d = x_eq - x
            if np.abs(d).max() <= 1e-13:
                break
            rates = C @ d
            slack = b - C @ x
            # rows that can block a step of length < 1 - 1e-15, in index order;
            # the scan keeps the first row outside the working set that beats
            # the running ratio by 1e-15
            rows = np.flatnonzero(rates > 1e-14)
            ratios = slack[rows] / rates[rows]
            near = ratios < 1.0 - 1e-15
            blocking = -1
            alpha = 1.0
            for i, ratio in zip(rows[near].tolist(), ratios[near].tolist()):
                if ratio < alpha - 1e-15 and i not in working:
                    alpha = max(ratio, 0.0)
                    blocking = i
            x = x + alpha * d
            if blocking >= 0:
                bisect.insort(working, blocking)
    return x_eq, working, mult, solves


class _Fit(NamedTuple):
    """One QP's answer, before its residual and score are attached."""

    x_bar: np.ndarray
    x: np.ndarray
    working: tuple[int, ...]
    multipliers: np.ndarray
    iterations: int
    warm_hit: bool


class _FitContext:
    """Shared per-series geometry so an outer m search can solve cheaply."""

    def __init__(self, values: np.ndarray, n: int):
        if not 1 <= n <= 12:
            raise DataError(f"n must be in 1..12, got {n}")
        self.values = values
        self.n = n
        self.w = nonzero_combo_rows(n) @ upper_ones(n)
        self.prefix = np.concatenate([[0.0], np.cumsum(values)])
        self.total_power = float(values.sum())
        if self.total_power <= 0:
            raise DataError("total energy is zero")
        # constraint rows: x_bar >= 0, then one cap per block
        self.C = np.vstack([-np.eye(n), self.w])
        self.max_iter = 50 * (n + self.w.shape[0])

    def utilization(self, x: np.ndarray) -> float:
        captured, _ = capture_best(self.values, x)
        return float(captured.sum()) / self.total_power

    def fits(
        self, offsets: np.ndarray, lengths: np.ndarray, warm: tuple[int, ...] = ()
    ) -> list[_Fit]:
        """Solve the QP of every row of ``lengths`` above its offset, from ``warm``.

        A lone fit is a stack of one. Every QP starts at the exact EQP point
        of a working set: the warm one, solved for the whole stack in one
        `solve_kkt`, where that point is feasible; else the nonnegativity
        rows, whose point x_bar = 0 with multipliers -g is feasible as
        b >= 0 and is written down, not solved. A warm stack whose
        `solve_kkt` raises starts cold as a whole: only more rows than
        unknowns do that, as final working sets are linearly independent
        and H is positive definite. `_active_set_qp` then runs from every
        start. ``iterations`` counts the fit's EQPs, its row of the warm
        stack included. Every fit gets the bytes it gets alone.
        """
        n = self.n
        count = len(offsets)
        ends = offsets[:, None] + np.cumsum(lengths, axis=1)
        starts = ends - lengths
        block_sums = self.prefix[ends] - self.prefix[starts]
        # H has integer entries, so its stacked product is exact; each
        # stacked matrix-vector product runs the single fit's BLAS call per row
        H = np.matmul(self.w.T * lengths[:, None, :], self.w)
        g = np.matmul(self.w.T, block_sums[:, :, None])[:, :, 0]
        b = np.zeros((count, self.C.shape[0]))
        b[:, n:] = self.values[starts]
        # each QP's start: (x_bar, working set, multipliers, warm)
        first = [(np.zeros(n), list(range(n)), -row_g, False) for row_g in g]
        warm_solves = 0
        warm_rows = sorted(warm)
        if warm_rows:
            rows = np.array(warm_rows)
            try:
                x_bar, mult = solve_kkt(H, g, self.C[rows], b[:, rows])
            except np.linalg.LinAlgError:
                pass  # more rows than unknowns: the whole stack starts cold
            else:
                warm_solves = 1
                outside = np.ones(self.C.shape[0], dtype=bool)
                outside[rows] = False
                drawn = np.matmul(self.C[outside], x_bar[:, :, None])[:, :, 0]
                feasible = (drawn <= b[:, outside]).all(axis=1).tolist()
                for i in itertools.compress(range(count), feasible):
                    first[i] = (x_bar[i], warm_rows, mult[i], True)
        solved = [  # (x_bar, working set, multipliers, EQPs solved)
            _active_set_qp(H[i], g[i], self.C, b[i], self.max_iter, *start[:3])
            for i, start in enumerate(first)
        ]
        x_bar = np.array([row[0] for row in solved])
        x_bar = np.where(np.abs(x_bar) < 1e-14, 0.0, x_bar)
        x = np.matmul(upper_ones(n), x_bar[:, :, None])[:, :, 0]
        return [
            _Fit(
                row_x_bar, row_x, tuple(working), mult, warm_solves + solves, start[3] and not solves
            )
            for row_x_bar, row_x, (_, working, mult, solves), start in zip(x_bar, x, solved, first)
        ]

    def result(self, offset: int, m: SwitchTimes, fit: _Fit, su: float) -> IclsResult:
        """``fit`` with its residual over the samples above ``offset`` and its SU."""
        levels = self.w @ fit.x_bar
        residual = self.values[offset:] - np.repeat(levels, m.lengths)
        return IclsResult(
            x_bar=fit.x_bar,
            x=fit.x,
            m=m,
            residual_norm=float(np.linalg.norm(residual)),
            solar_utilization=su,
            offset=offset,
            working_set=fit.working,
            multipliers=tuple(float(v) for v in fit.multipliers),
            iterations=fit.iterations,
            warm_hits=int(fit.warm_hit),
        )

    def solve(self, m: SwitchTimes, offset: int, warm: tuple[int, ...] = ()) -> IclsResult:
        """Fit fixed block lengths; ``warm`` is a working set to try first."""
        size = self.values.size
        if offset < 0 or offset >= size:
            raise DataError(f"offset must lie in [0, {size}), got {offset}")
        if m.total != size - offset:
            raise DataError(
                f"block lengths sum to {m.total}, series has {size - offset} after offset {offset}"
            )
        (fit,) = self.fits(np.array([offset]), np.array([m.lengths]), warm)
        return self.result(offset, m, fit, self.utilization(fit.x))


def solve_icls_fixed_m(
    sorted_series: SortedSeries, m: SwitchTimes, n: int, offset: int = 0
) -> IclsResult:
    """Best incremental sizes for fixed block lengths.

    Minimizes ``||S - U(m) T x_bar||_2`` over the samples above ``offset``
    subject to ``x_bar >= 0`` and the per-block under-the-curve caps;
    utilization is then scored by dispatching the resulting sizes over the
    whole series. ``offset`` counts leading (smallest) sorted samples during
    which every load stays off; without it the cap on the smallest
    combination would be pinned to the very smallest nonzero sample.
    """
    return _FitContext(sorted_series.values, n).solve(m, offset)


def _lattice(total: int, blocks: int) -> np.ndarray:
    """Every point (offset, free lengths) with offset >= 0, lengths >= 1 and
    room left, one row each in lexicographic order: the gaps between
    ``blocks`` ascending cuts in ``range(total)``."""
    cuts = np.array(list(itertools.combinations(range(total), blocks)), dtype=np.int64)
    return np.diff(cuts, axis=1, prepend=0)


def _lattice_size(total: int, blocks: int) -> int:
    # sum over offsets of comb(width - 1, blocks - 1) telescopes
    return math.comb(total, blocks)


def _result_key(result: IclsResult):
    """Maximize utilization, break ties by residual then deterministically."""
    return (
        -result.solar_utilization,
        result.residual_norm,
        result.offset,
        result.m.lengths,
    )


def _random_point(rng: np.random.Generator, total: int, blocks: int):
    k0 = int(rng.integers(0, total - blocks + 1))
    width = total - k0
    if blocks == 1:
        return k0, ()
    cuts = np.sort(rng.choice(np.arange(1, width), size=blocks - 1, replace=False))
    free = np.diff(np.concatenate([[0], cuts]))
    return k0, tuple(int(v) for v in free)


def optimize_m(
    sorted_series: SortedSeries,
    n: int,
    restarts: int = 4,
    seed: int = 42,
) -> IclsResult:
    """Integer search over the all-off dwell and switch blocks, maximizing
    dispatch utilization.

    A lattice of at most ``_EXHAUSTIVE_LIMIT`` points is solved cold as
    one batch, so every point gets the bytes `solve_icls_fixed_m` gives
    it. Otherwise a deterministic pattern search (all single-coordinate
    moves on the offset and the free block lengths, step halving from
    T/16 down to 1) runs from ``max(restarts, 1) + 1`` starts: equidistant
    ones, then seeded random ones. Only strict improvements are accepted,
    so the utilization sequence is non-decreasing. Warm starts are used
    only here: each move's QP starts from the current point's working
    set. The final working set fixes a QP's answer, but on degenerate data
    a warm and a cold start can end on different working sets one ulp
    apart, and the exact ``draw <= S`` test of dispatch can turn that ulp
    into SU.

    Both searches pick their leader one way: a batch of points is solved
    from one warm set and scored in order, and a point whose SU is below
    the leader's is never built into a result. The search remembers each
    scored point's SU (and the warm set it was solved from), not its
    result: a revisited move that can win is solved again from the same
    warm set.
    """
    if restarts < 0:
        raise DataError("restarts must be >= 0")
    values = sorted_series.values
    total = values.size
    blocks = 2**n - 1
    if total < blocks:
        raise DataError(f"need at least {blocks} samples for n={n}, got {total}")
    context = _FitContext(values, n)
    work = [0, 0, 0]  # QPs solved, active-set iterations, warm hits

    def tally(iterations: int, warm_hit: bool) -> None:
        work[0] += 1
        work[1] += iterations
        work[2] += int(warm_hit)

    # a point is its offset followed by its free lengths; int32 keys halve the table
    scores: dict[bytes, tuple[float, tuple[int, ...]]] = {}  # point -> (SU, warm set)

    def lengths_of(points: np.ndarray) -> np.ndarray:
        return np.column_stack([points[:, 1:], total - points.sum(axis=1)])

    def score(points: np.ndarray, warm: tuple[int, ...]):
        """Solve and score the rows of ``points`` not scored yet, all from ``warm``.

        Returns every row's key and the fits of the rows solved now, by row.
        """
        keys = [row.tobytes() for row in points.astype(np.int32)]
        new = [i for i, key in enumerate(keys) if key not in scores]
        fits = context.fits(points[new, 0], lengths_of(points[new]), warm) if new else []
        for i, fit in zip(new, fits):
            scores[keys[i]] = (context.utilization(fit.x), warm)
            tally(fit.iterations, fit.warm_hit)
        return keys, dict(zip(new, fits))

    def result_at(point: np.ndarray, key: bytes, fit: _Fit | None) -> IclsResult:
        su, warm = scores[key]
        lengths = lengths_of(point[None])
        if fit is None:  # a revisit: the same solve as its first, not counted again
            (fit,) = context.fits(point[:1], lengths, warm)
        return context.result(int(point[0]), SwitchTimes(tuple(lengths[0].tolist())), fit, su)

    def lead(
        points: np.ndarray,
        warm: tuple[int, ...],
        leader: IclsResult | None = None,
        at: np.ndarray | None = None,
    ):
        """The best of ``leader`` (at point ``at``) and the rows of ``points``
        solved from ``warm``, by `_result_key`, and its point."""
        keys, fits = score(points, warm)
        for i, key in enumerate(keys):
            if leader is not None and scores[key][0] < leader.solar_utilization:
                continue  # loses on SU, which _result_key compares first
            trial = result_at(points[i], key, fits.get(i))
            if leader is None or _result_key(trial) < _result_key(leader):
                leader, at = trial, points[i]
        return leader, at

    if _lattice_size(total, blocks) <= _EXHAUSTIVE_LIMIT:
        best, _ = lead(_lattice(total, blocks), ())
        return _with_search_totals(best, 1, *work)

    rng = np.random.default_rng(seed)
    starts = [(0, SwitchTimes.equidistant(total, n).free)]
    k0_mid = total // (blocks + 1)
    if total - k0_mid >= blocks:
        starts.append((k0_mid, SwitchTimes.equidistant(total - k0_mid, n).free))
    while len(starts) < max(restarts, 1) + 1:
        starts.append(_random_point(rng, total, blocks))

    # row 2c moves coordinate c (0 is the offset) up, row 2c + 1 down
    moves = np.repeat(np.eye(blocks, dtype=np.int64), 2, axis=0)
    moves[1::2] *= -1
    best: IclsResult | None = None
    for k0, free in starts:
        current, point = lead(np.array([(k0,) + free], dtype=np.int64), ())
        step = max(total // 16, 1)
        sweeps = 0
        while step >= 1 and sweeps < _MAX_SWEEPS:
            trials = point + step * moves
            valid = (
                (trials[:, 0] >= 0)
                & (trials[:, 1:] >= 1).all(axis=1)  # the other lengths are >= 1 already
                & (trials.sum(axis=1) <= total - 1)
            )
            leader, point = lead(trials[valid], current.working_set, current, point)
            sweeps += 1
            if leader is current:
                step //= 2
            current = leader
        if best is None or _result_key(current) < _result_key(best):
            best = current
    return _with_search_totals(best, len(starts), *work)


def _with_search_totals(
    result: IclsResult, restarts: int, qp_solves: int, iterations: int, warm_hits: int
) -> IclsResult:
    """``result`` carrying the restart count and the work of every QP solved."""
    return dataclasses.replace(
        result,
        restarts_used=restarts,
        qp_solves=qp_solves,
        iterations=iterations,
        warm_hits=warm_hits,
    )
