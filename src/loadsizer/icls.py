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

import numpy as np

from .dispatch import capture_best
from .ecls import build_switch_matrix
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
    rows = build_switch_matrix(n, block_length=1).distinct_rows
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
    reports the totals over every QP of its search. A warm hit is a QP
    whose warm working set was optimal as given.
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


def _solve_working_set(H, g, C, b, working):
    """Equality-constrained QP on the working set; returns (x, multipliers).

    More rows than unknowns make the KKT matrix singular, which LAPACK
    reports only on an exactly zero pivot, so that case raises here. A
    rank-deficient set of at most n rows is not detected.
    """
    n = H.shape[0]
    k = len(working)
    if k > n:
        raise np.linalg.LinAlgError(f"{k} working-set rows in {n} unknowns")
    if k == 0:
        return np.linalg.solve(H, g), np.array([])
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    cw = C[working]
    kkt[:n, n:] = cw.T
    kkt[n:, :n] = cw
    rhs = np.concatenate([g, b[working]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def _warm_point(H, g, C, b, warm):
    """The EQP point on ``warm`` if it is primal feasible, else None."""
    try:
        x, mult = _solve_working_set(H, g, C, b, warm)
    except np.linalg.LinAlgError:
        return None
    outside = np.ones(C.shape[0], dtype=bool)
    outside[warm] = False
    if not (C[outside] @ x <= b[outside]).all():
        return None
    return x, mult


def _active_set_qp(H, g, C, b, max_iter, warm=()):
    """Minimize 0.5 x'Hx - g'x subject to Cx <= b (H strictly convex).

    Classic primal active-set iteration (Nocedal & Wright, Numerical
    Optimization, ch. 16): solve the equality-constrained subproblem (EQP)
    on the working set, step to the first blocking constraint when the
    subproblem solution is infeasible, and drop the constraint with the
    most negative multiplier when it is stationary. The working set is
    kept sorted, so every KKT system is built in one canonical row order
    and the answer does not depend on the path taken to its working set.

    The start is the EQP point of a ``warm`` working set (a neighbouring
    QP's) if it is feasible, else of the nonnegativity rows, whose point
    x = 0 is feasible as b >= 0. It is returned if no multiplier is
    negative (a warm hit if ``warm`` gave it), else iterated from.

    Returns ``(x, working, multipliers, iterations, warm_hit)``.
    """
    working = sorted(warm)
    start = _warm_point(H, g, C, b, working) if working else None
    warm_hit = start is not None
    if not warm_hit:
        working = list(range(H.shape[0]))
        start = _solve_working_set(H, g, C, b, working)
    x, mult = start
    if mult.size == 0 or mult.min() >= -_KKT_TOL:
        return x, working, mult, 1, warm_hit
    working.pop(int(np.argmin(mult)))
    iteration = 1
    while iteration < max_iter:
        iteration += 1
        try:
            x_eq, mult = _solve_working_set(H, g, C, b, working)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"singular working-set system {working}: {exc}") from exc
        if np.abs(x_eq - x).max() <= 1e-13:
            if mult.size == 0 or mult.min() >= -_KKT_TOL:
                return x_eq, working, mult, iteration, False
            working.pop(int(np.argmin(mult)))
            continue
        d = x_eq - x
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
        # alpha == 1 with no blocking constraint loops back to the
        # stationarity test on the same working set
    raise NumericError(f"active set did not terminate; working set {working}")


class _FitContext:
    """Shared per-series geometry so an outer m search can solve cheaply."""

    def __init__(self, values: np.ndarray, n: int):
        self.values = values
        self.n = n
        rows = build_switch_matrix(n, block_length=1).distinct_rows
        self.w = rows @ upper_ones(n)
        self.prefix = np.concatenate([[0.0], np.cumsum(values)])
        self.total_power = float(values.sum())
        # constraint rows: x_bar >= 0, then one cap per block
        self.C = np.vstack([-np.eye(n), self.w])
        self.b_zeros = np.zeros(n)

    def utilization(self, x: np.ndarray) -> float:
        positive = x[x > 1e-12]
        if positive.size == 0:
            return 0.0
        captured, _ = capture_best(self.values, positive)
        return float(captured.sum()) / self.total_power

    def solve(self, m: SwitchTimes, offset: int, warm: tuple[int, ...] = ()) -> IclsResult:
        """Fit fixed block lengths; ``warm`` is a working set to try first."""
        full = self.values
        if offset < 0 or offset >= full.size:
            raise DataError(f"offset must lie in [0, {full.size}), got {offset}")
        width = full.size - offset
        if m.total != width:
            raise DataError(
                f"block lengths sum to {m.total}, series has {width} after offset {offset}"
            )
        n = self.n
        w = self.w
        lengths = np.asarray(m.lengths, dtype=float)
        starts = offset + np.concatenate([[0], np.cumsum(m.lengths)[:-1]]).astype(int)
        ends = starts + np.asarray(m.lengths)
        block_sums = self.prefix[ends] - self.prefix[starts]
        caps = full[starts]
        H = (w * lengths[:, None]).T @ w
        g = w.T @ block_sums
        b = np.concatenate([self.b_zeros, caps])
        max_iter = 50 * (n + len(m.lengths))
        x_bar, working, mult, iterations, warm_hit = _active_set_qp(
            H, g, self.C, b, max_iter, warm
        )
        x_bar = np.where(np.abs(x_bar) < 1e-14, 0.0, x_bar)
        x = upper_ones(n) @ x_bar
        levels = w @ x_bar
        residual = full[offset:] - np.repeat(levels, m.lengths)
        return IclsResult(
            x_bar=x_bar,
            x=x,
            m=m,
            residual_norm=float(np.linalg.norm(residual)),
            solar_utilization=self.utilization(x),
            offset=offset,
            working_set=tuple(working),
            multipliers=tuple(float(v) for v in mult),
            iterations=iterations,
            warm_hits=int(warm_hit),
        )


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


def _lattice(total: int, blocks: int):
    """All (offset, free lengths) with offset >= 0, lengths >= 1, room left."""
    if blocks == 1:
        for k0 in range(total):
            yield k0, ()
        return
    k = blocks - 1
    for k0 in range(0, total - blocks + 1):
        width = total - k0
        for cuts in itertools.combinations(range(1, width), k):
            free = []
            prev = 0
            for c in cuts:
                free.append(c - prev)
                prev = c
            yield k0, tuple(free)


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

    Small lattices are enumerated exhaustively; otherwise a deterministic
    pattern search (all single-coordinate moves on the offset and the free
    block lengths, step halving from T/16 down to 1) runs from equidistant
    starts plus seeded random restarts. Only strict improvements are
    accepted, so the utilization sequence is non-decreasing. Each QP
    warm-starts from the current (or previous lattice) point's working set;
    with the working set kept in canonical order that changes only the work,
    not the answer.
    """
    values = sorted_series.values
    total = values.size
    blocks = 2**n - 1
    if total < blocks:
        raise DataError(f"need at least {blocks} samples for n={n}, got {total}")
    context = _FitContext(values, n)
    cache: dict[tuple, IclsResult] = {}

    def evaluate(k0: int, free: tuple[int, ...], warm: tuple[int, ...] = ()) -> IclsResult:
        key = (k0, free)
        if key not in cache:
            m = SwitchTimes.from_free(free, total - k0, n)
            cache[key] = context.solve(m, k0, warm)
        return cache[key]

    if _lattice_size(total, blocks) <= _EXHAUSTIVE_LIMIT:
        warm = ()
        for k0, free in _lattice(total, blocks):
            warm = evaluate(k0, free, warm).working_set
        return _with_search_totals(min(cache.values(), key=_result_key), 1, cache.values())

    rng = np.random.default_rng(seed)
    starts = [(0, SwitchTimes.equidistant(total, n).free)]
    k0_mid = total // (blocks + 1)
    if total - k0_mid >= blocks:
        starts.append((k0_mid, SwitchTimes.equidistant(total - k0_mid, n).free))
    while len(starts) < max(restarts, 1) + 1:
        starts.append(_random_point(rng, total, blocks))

    best: IclsResult | None = None
    for k0, free in starts:
        current = evaluate(k0, free)
        step = max(total // 16, 1)
        sweeps = 0
        while step >= 1 and sweeps < _MAX_SWEEPS:
            improved = None
            for coord in range(blocks):  # coord 0 is the offset
                for delta in (step, -step):
                    ck0 = current.offset + (delta if coord == 0 else 0)
                    cand = list(current.m.free)
                    if coord > 0:
                        cand[coord - 1] += delta
                    if ck0 < 0 or (coord > 0 and cand[coord - 1] < 1):
                        continue  # the other lengths are >= 1 already
                    if ck0 + sum(cand) > total - 1:
                        continue
                    trial = evaluate(ck0, tuple(cand), current.working_set)
                    if _result_key(trial) < _result_key(improved or current):
                        improved = trial
            sweeps += 1
            if improved is None:
                step //= 2
            else:
                current = improved
        if best is None or _result_key(current) < _result_key(best):
            best = current
    return _with_search_totals(best, len(starts), cache.values())


def _with_search_totals(result: IclsResult, restarts: int, solved) -> IclsResult:
    """``result`` carrying the restart count and the work of every QP solved."""
    solved = list(solved)
    return dataclasses.replace(
        result,
        restarts_used=restarts,
        qp_solves=len(solved),
        iterations=sum(r.iterations for r in solved),
        warm_hits=sum(r.warm_hits for r in solved),
    )
