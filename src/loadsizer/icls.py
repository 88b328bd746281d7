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

from .dispatch import available_energy, capture_best
from .ecls import build_switch_matrix, solve_kkt
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


@functools.lru_cache(maxsize=32)
def upper_ones(n: int) -> np.ndarray:
    """Upper-triangular all-ones transform from incremental to total sizes."""
    out = np.triu(np.ones((n, n)))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _constraint_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only block rows ``w`` (each combination's draw in ``x_bar``)
    and the QP's constraint rows: ``x_bar >= 0``, then one cap per block."""
    w = build_switch_matrix(n, 1).distinct_rows @ upper_ones(n)
    C = np.vstack([-np.eye(n), w])
    w.flags.writeable = C.flags.writeable = False
    return w, C


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


def _ratio_scan(rates, slack, working):
    """The ratio test's scalar rule, for one QP: of the rows that can block
    a step of length < 1 - 1e-15, in index order, keep the first row
    outside ``working`` that beats the running ratio by 1e-15. Returns
    ``(step length, blocking row or -1)``."""
    rows = np.flatnonzero(rates > 1e-14)
    ratios = slack[rows] / rates[rows]
    near = ratios < 1.0 - 1e-15
    alpha, blocking = 1.0, -1
    for i, ratio in zip(rows[near].tolist(), ratios[near].tolist()):
        if ratio < alpha - 1e-15 and i not in working:
            alpha = max(ratio, 0.0)
            blocking = i
    return alpha, blocking


def _active_set_qps(H, g, C, b, max_iter, x, working, mult):
    """Minimize 0.5 x'Hx - g'x subject to Cx <= b for every QP of a stack
    (each H strictly convex), all in lockstep.

    Each QP runs the classic primal active-set iteration (Nocedal & Wright,
    Numerical Optimization, ch. 16): solve the equality-constrained
    subproblem (EQP) on the working set, step to the first blocking
    constraint when the subproblem solution is infeasible, and drop the
    constraint with the most negative multiplier when it is stationary.
    Working sets are kept sorted, so every KKT system is built in one
    canonical row order and the final working set fixes the answer,
    whatever path led to it. On degenerate data different starts can end
    on different working sets, whose points may differ by an ulp.

    QP i starts from ``x[i]``, the feasible EQP point of the sorted
    ``working[i]`` with multipliers ``mult[i]``, and returns at once when
    they are all >= -``_KKT_TOL``. A full step lands on the EQP point just
    solved, so its multipliers are tested without solving that working
    set again.

    Each round solves one EQP for every QP still running: the QPs are
    grouped by working-set size, and each group is one stacked
    `solve_kkt`. A QP whose EQP point lies within 1e-13 of its current
    point does not step; the ratio test runs for the rest of the group at
    once. Where a QP's smallest ratio is >= 0, belongs to a row outside
    its working set and beats every other ratio by 1e-15, that row is the
    one the scalar rule (`_ratio_scan`) picks; any other QP runs
    `_ratio_scan` itself. Every QP gets the bytes it gets alone. Returns
    one ``(x, working, multipliers, EQPs solved)`` per QP.
    """
    count = len(working)
    points = np.array(x, dtype=float)  # each QP's current feasible point
    working = [list(rows) for rows in working]
    solves = [0] * count
    out: list = [None] * count
    running: list[int] = []
    lanes = np.arange(count)[:, None]

    def settle(members, x_eq, mult):
        """QPs at a stationary point: return, or drop the most negative multiplier."""
        if mult.shape[1]:
            lowest = mult.min(axis=1).tolist()
            drops = mult.argmin(axis=1).tolist()
        for p, i in enumerate(members):
            if mult.shape[1] and lowest[p] < -_KKT_TOL:
                working[i].pop(drops[p])
                running.append(i)
            else:
                out[i] = (x_eq[p], working[i], mult[p], solves[i])

    def solve_round(members):
        """One EQP and ratio test for each of the ascending ``members``,
        whose working sets share a size."""
        size = len(members)
        at = slice(None) if size == count else np.array(members)
        rows = np.array([working[i] for i in members], dtype=np.intp)  # (QPs, set size)
        x_now, b_now = points[at], b[at]
        try:
            x_eq, mult = solve_kkt(H[at], g[at], C[rows], b_now[lanes[:size], rows])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular working-set system among {rows.tolist()}: {exc}") from exc
        d = x_eq - x_now
        shifts = np.abs(d).max(axis=1).tolist()
        still = [p for p, shift in enumerate(shifts) if shift <= 1e-13]
        stationary = list(still)
        if len(still) < size:  # the others step: the ratio test
            rates = np.matmul(C, d[:, :, None])[:, :, 0]
            slack = b_now - np.matmul(C, x_now[:, :, None])[:, :, 0]
            ratios = np.where(rates > 1e-14, slack / np.maximum(rates, 1e-14), np.inf)
            first = ratios.argmin(axis=1).tolist()
            ratios.partition(1, axis=1)
            two = ratios[:, :2].tolist()  # the smallest ratio, then the second
            alpha = [1.0] * size
            for p, (i, shift, (low, second)) in enumerate(zip(members, shifts, two)):
                if shift <= 1e-13:
                    continue
                blocking = -1  # a full step
                if low < 1.0 - 1e-15:
                    if (
                        low < second - 1e-15
                        and math.copysign(1.0, low) > 0
                        and first[p] not in working[i]
                    ):
                        alpha[p], blocking = low, first[p]
                    else:  # a negative or tied minimum, or a working row's
                        alpha[p], blocking = _ratio_scan(rates[p], slack[p], working[i])
                if blocking >= 0:
                    bisect.insort(working[i], blocking)
                    running.append(i)
                else:
                    stationary.append(p)
            x_next = x_now + np.array(alpha)[:, None] * d
            if still:
                x_next[still] = x_now[still]
            points[at] = x_next
        if len(stationary) < size:
            members = [members[p] for p in stationary]
            x_eq, mult = x_eq[stationary], mult[stationary]
        settle(members, x_eq, mult)

    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(working):
        by_size.setdefault(len(rows), []).append(i)
    for members in by_size.values():
        settle(members, [x[i] for i in members], np.array([mult[i] for i in members]))
    while running:
        by_size = {}
        for i in sorted(running):  # ascending: a group of every QP is the stack itself
            if solves[i] == max_iter:
                raise NumericError(f"active set did not terminate; working set {working[i]}")
            solves[i] += 1
            by_size.setdefault(len(working[i]), []).append(i)
        running = []
        for members in by_size.values():
            solve_round(members)
    return out


class _Fit(NamedTuple):
    """One QP's answer, before its residual and score are attached."""

    x_bar: np.ndarray
    x: np.ndarray
    working: tuple[int, ...]
    multipliers: np.ndarray
    iterations: int
    warm_hit: bool


class _FitContext:
    """Shared per-series geometry so an outer m search can solve cheaply.
    Its block rows and load range are ECLS's switch matrix's; its SU
    divides by `available_energy`."""

    def __init__(self, values: np.ndarray, n: int):
        self.values = values
        self.n = build_switch_matrix(n, 1).n
        self.w, self.C = _constraint_rows(self.n)
        self.prefix = np.concatenate([[0.0], np.cumsum(values)])
        self.total_power = available_energy(values)
        self.max_iter = 50 * self.C.shape[0]

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
        and H is positive definite. `_active_set_qps` then runs every QP
        from its start in lockstep: each round solves one EQP per QP still
        running, one stacked `solve_kkt` per working-set size, and runs the
        ratio test for the whole group; a QP whose smallest ratio is
        negative, a working row's, or within 1e-15 of another falls back to
        the scalar scan. ``iterations`` counts the fit's EQPs, its row of
        the warm stack included. Every fit gets the bytes it gets alone.
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
        # each QP starts cold: the nonnegativity rows, at x_bar = 0 with multipliers -g
        start = np.zeros((count, n))
        working = [list(range(n))] * count
        mult = list(-g)
        warm_start = [False] * count
        warm_solves = 0
        warm_rows = sorted(warm)
        if warm_rows:
            rows = np.array(warm_rows)
            try:
                x_bar, warm_mult = solve_kkt(H, g, self.C[rows], b[:, rows])
            except np.linalg.LinAlgError:
                pass  # more rows than unknowns: the whole stack starts cold
            else:
                warm_solves = 1
                outside = np.ones(self.C.shape[0], dtype=bool)
                outside[rows] = False
                drawn = np.matmul(self.C[outside], x_bar[:, :, None])[:, :, 0]
                feasible = (drawn <= b[:, outside]).all(axis=1)
                start[feasible] = x_bar[feasible]
                for i in np.flatnonzero(feasible).tolist():
                    working[i], mult[i], warm_start[i] = warm_rows, warm_mult[i], True
        solved = _active_set_qps(H, g, self.C, b, self.max_iter, start, working, mult)
        x_bar = np.array([row[0] for row in solved])
        x_bar = np.where(np.abs(x_bar) < 1e-14, 0.0, x_bar)
        x = np.matmul(upper_ones(n), x_bar[:, :, None])[:, :, 0]
        return [
            _Fit(row_x_bar, row_x, tuple(rows), mult, warm_solves + solves, warm and not solves)
            for row_x_bar, row_x, (_, rows, mult, solves), warm in zip(x_bar, x, solved, warm_start)
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
    context = _FitContext(values, n)
    n = context.n
    blocks = 2**n - 1
    if total < blocks:
        raise DataError(f"need at least {blocks} samples for n={n}, got {total}")
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
