"""Semianalytic sizing for symmetric clear-day power curves.

Captured energy for a set of combination levels under the arch is the
staircase area ``2 * sum_i t(l_i) * (l_i - l_{i-1})`` where ``t(y)`` is the
positive half-width of the arch at level ``y`` and the levels are the
sorted nonzero subset sums of the unit sizes. The single-load optimum
solves the stationarity condition ``t(y) + y * t'(y) = 0`` by bisection;
two loads use projected gradient ascent with the closed-form Jacobian;
general n uses multistart projected ascent with finite-difference
gradients.

All routines accept any arch exposing ``forward``, ``half_width``,
``half_width_slope``, ``t_max`` and ``y_max`` in the shape of
:class:`~loadsizer.timeseries.ClearSkyModel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dispatch import combo_states
from .errors import DataError, NumericError

_EDGE_GUARD = 1e-6  # fraction of y_max kept away from the arcsin edge
_TWO_LOAD_MAX_ITER = 20000


@dataclass(frozen=True)
class AnalyticSolution:
    """Sizing result on the clear-day arch, all in normalized units.

    ``levels`` are the sorted nonzero combination levels (for n units there
    are 2^n - 1 of them); ``switch_times`` are the arch half-widths at each
    level, in samples.
    """

    base_sizes: tuple[float, ...]
    levels: tuple[float, ...]
    switch_times: tuple[float, ...]
    area: float
    total_energy: float
    solar_utilization: float
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lv = np.asarray(self.levels)
        if (np.diff(lv) < -1e-12).any():
            raise DataError("combined levels must be non-decreasing")
        # total_energy is an integer-grid sum, so allow one sample of slop
        # against the continuous staircase area on very narrow arches
        slack = max(lv[-1], 0.0) if lv.size else 0.0
        if self.area > self.total_energy * (1 + 1e-9) + slack:
            raise DataError("captured area cannot exceed total energy")


def total_energy(model) -> float:
    """Sum the arch over integer sample times in [-t_max, t_max], clamped at 0."""
    tm = model.t_max
    t = np.arange(math.ceil(-tm), math.floor(tm) + 1, dtype=float)
    return float(np.sum(model.forward(t)))


def _guard_band(model) -> tuple[float, float]:
    eps = _EDGE_GUARD * model.y_max
    return eps, model.y_max - eps


def _solution(model, base_sizes, iterations: int, diagnostics: dict) -> AnalyticSolution:
    sizes = np.sort(np.asarray(base_sizes, dtype=float))
    levels = combination_levels(sizes)
    widths = np.asarray(model.half_width(levels), dtype=float).ravel()
    prev = np.concatenate([[0.0], levels[:-1]])
    area = float(2.0 * np.sum(widths * (levels - prev)))
    total = total_energy(model)
    return AnalyticSolution(
        base_sizes=tuple(float(v) for v in sizes),
        levels=tuple(float(v) for v in levels),
        switch_times=tuple(float(v) for v in widths),
        area=area,
        total_energy=total,
        solar_utilization=area / total,
        iterations=iterations,
        diagnostics=diagnostics,
    )


def combination_levels(unit_sizes) -> np.ndarray:
    """Sorted nonzero combination levels: the subset sums of the units."""
    sizes = np.asarray(unit_sizes, dtype=float).ravel()
    n = sizes.size
    states = np.ascontiguousarray(combo_states(np.arange(1, 2**n), n).T, dtype=float)
    return np.sort(states @ sizes)


def solve_single_load(model) -> AnalyticSolution:
    """Optimal single rectangle under the arch.

    Bisects the area stationarity condition on a guarded bracket. If the
    area is still increasing at the top of the bracket (flat arches), the
    boundary level is returned instead of failing.
    """
    lo, hi = _guard_band(model)

    def grad(y: float) -> float:
        return model.half_width(y) + y * model.half_width_slope(y)

    g_lo, g_hi = grad(lo), grad(hi)
    if g_lo < 0:
        raise NumericError(f"no sign change on bracket: grad({lo:.3g}) = {g_lo:.3g} < 0")
    iterations = 0
    if g_hi > 0:  # area increasing everywhere: boundary optimum
        y_bar = hi
    else:
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if grad(mid) > 0:
                lo = mid
            else:
                hi = mid
            iterations += 1
        y_bar = 0.5 * (lo + hi)
    t_bar = model.half_width(y_bar)
    return _solution(
        model,
        [y_bar],
        iterations,
        {"switch_time_rounded": int(round(t_bar))},
    )


def line_search_single(model, grid_size: int = 1000) -> AnalyticSolution:
    """Single-load optimum by brute scan of ``2*t(y)*y`` on a uniform y grid."""
    if grid_size < 10:
        raise DataError("grid_size must be >= 10")
    lo, hi = _guard_band(model)
    ys = np.linspace(lo, hi, grid_size)
    widths = np.asarray(model.half_width(ys), dtype=float)
    areas = 2.0 * widths * ys
    j = int(np.argmax(areas))
    return _solution(model, [ys[j]], grid_size, {"grid_size": grid_size})


def area_n(model, unit_sizes) -> float:
    """Staircase area captured by all nonzero on/off combinations of the units.

    Equal levels merge into zero-width slabs; any level reaching y_max is a
    domain error.
    """
    sizes = np.asarray(unit_sizes, dtype=float).ravel()
    if sizes.size == 0:
        raise DataError("need at least one unit size")
    if (sizes <= 0).any():
        raise DataError(f"unit sizes must be positive, got {sizes.tolist()}")
    levels = combination_levels(sizes)
    if levels[-1] >= model.y_max:
        raise DataError(
            f"combination level {levels[-1]:.6g} reaches y_max {model.y_max:.6g}"
        )
    widths = np.asarray(model.half_width(levels), dtype=float).ravel()
    prev = np.concatenate([[0.0], levels[:-1]])
    return float(2.0 * np.sum(widths * (levels - prev)))


def _area2(model, y1: float, y2: float) -> float:
    t1 = model.half_width(y1)
    t2 = model.half_width(y2)
    t3 = model.half_width(y1 + y2)
    return 2.0 * (y1 * t1 + (y2 - y1) * t2 + y1 * t3)


def two_load_gradient(model, y1: float, y2: float) -> np.ndarray:
    """Closed-form gradient of the two-load staircase area at (y1, y2)."""
    t1 = model.half_width(y1)
    t2 = model.half_width(y2)
    t3 = model.half_width(y1 + y2)
    d1 = model.half_width_slope(y1)
    d2 = model.half_width_slope(y2)
    d3 = model.half_width_slope(y1 + y2)
    g1 = t1 + y1 * d1 - t2 + t3 + y1 * d3
    g2 = (y2 - y1) * d2 + t2 + y1 * d3
    return 2.0 * np.array([g1, g2])


def _project_two(y: np.ndarray, y_cap: float) -> np.ndarray:
    """Euclidean projection onto {0 <= y1 <= y2 <= cap, y1 + y2 <= cap}."""
    y1, y2 = float(y[0]), float(y[1])
    if y1 > y2:  # ordering plane first
        y1 = y2 = 0.5 * (y1 + y2)
    y1 = min(max(y1, 0.0), y_cap)
    y2 = min(max(y2, y1), y_cap)
    if y1 + y2 > y_cap:
        shift = 0.5 * (y1 + y2 - y_cap)
        y1, y2 = y1 - shift, y2 - shift
        if y1 < 0:
            y1, y2 = 0.0, y_cap
        if y1 > y2:
            y1 = y2 = 0.5 * (y1 + y2)
    return np.array([y1, y2])


def solve_two_load(
    model,
    init: tuple[float, float] = (0.2, 0.5),
    tol: float = 1e-7,
) -> AnalyticSolution:
    """Two-load optimum by projected gradient ascent on the staircase area.

    The step length self-tunes by backtracking and modest growth. The
    ascent stops when the gradient norm drops below ``tol``, or when
    backtracking shrinks the step below 1e-16 without any gain in area:
    the area is then flat to rounding at the iterate, either on a
    constraint face or at an interior maximum. On the reference arch the
    second rule ends the ascent from any of 16 random starts, at an
    interior point whose gradient norm (7e-7 to 1.4e-5, reported in
    ``diagnostics``) is still above the default ``tol``. Which rule fired
    is ``diagnostics["stop"]``: ``"tol"`` or ``"stall"``.
    """
    y_cap = model.y_max * (1 - _EDGE_GUARD)
    y = _project_two(np.asarray(init, dtype=float), y_cap)
    s = 1e-4
    area = _area2(model, y[0], y[1])
    stop = None
    for iterations in range(1, _TWO_LOAD_MAX_ITER + 1):
        g = two_load_gradient(model, y[0], y[1])
        if np.linalg.norm(g) < tol:
            stop = "tol"
            break
        cand = _project_two(y + s * g, y_cap)
        cand_area = _area2(model, cand[0], cand[1])
        if cand_area > area:
            y, area = cand, cand_area
            s = min(s * 1.5, 1e-2)
        else:
            s *= 0.5
            if s < 1e-16:
                # no step gains area in floating point: a constraint face
                # with nonzero free gradient, or an interior maximum whose
                # gradient norm is still above tol
                stop = "stall"
                break
    if stop is None:
        raise NumericError(
            f"two-load ascent did not converge in {_TWO_LOAD_MAX_ITER} iterations; "
            f"last iterate {y.tolist()}"
        )
    y1, y2 = float(y[0]), float(y[1])
    return _solution(
        model,
        [y1, y2],
        iterations,
        {
            "gradient_norm": float(np.linalg.norm(two_load_gradient(model, y1, y2))),
            "stop": stop,
        },
    )


def _project_simplex_cap(y: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {y >= 0, sum(y) <= cap}."""
    p = np.maximum(y, 0.0)
    if p.sum() <= cap:
        return p
    u = np.sort(p)[::-1]
    css = np.cumsum(u) - cap
    idx = np.arange(1, p.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(p - theta, 0.0)


def _fd_gradient(model, sizes: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(sizes)
    for i in range(sizes.size):
        up = sizes.copy()
        dn = sizes.copy()
        up[i] += h
        dn[i] = max(dn[i] - h, 1e-12)
        g[i] = (area_n(model, up) - area_n(model, dn)) / (up[i] - dn[i])
    return g


def _ascend_n(model, start: np.ndarray, cap: float):
    y = np.maximum(_project_simplex_cap(start.copy(), cap), 1e-9)
    h = 1e-7 * model.y_max
    s = 1e-4
    area = area_n(model, y)
    for _ in range(5000):
        g = _fd_gradient(model, y, h)
        if np.linalg.norm(g) < 1e-6:
            break
        cand = np.maximum(_project_simplex_cap(y + s * g, cap), 1e-12)
        cand_area = area_n(model, cand)
        if cand_area > area:
            y, area = cand, cand_area
            s = min(s * 1.5, 1e-2)
        else:
            s *= 0.5
            if s < 1e-15:
                break
    return y, area


def solve_n_load(
    model,
    n: int,
    multistarts: int = 16,
    seed: int = 42,
) -> AnalyticSolution:
    """Multistart projected gradient ascent over n unit sizes (n <= 4).

    Starts include an equal split, the previous (n-1)-load optimum padded
    with a small extra unit (which keeps utilization non-decreasing in n),
    and seeded uniform draws from the feasible simplex. Ties between starts
    break toward the lexicographically smallest sorted size vector.

    Each level's sizes are memoized on ``(model, n, multistarts, seed)``,
    so solving n = 2, 3, 4 in turn ascends each level once; the arch must
    therefore be hashable and is taken as immutable.
    """
    if not 1 <= n <= 4:
        raise DataError(f"n must be in 1..4, got {n}")
    if multistarts < 1:
        raise DataError("multistarts must be >= 1")
    sizes, n_starts = _n_load_sizes(model, n, multistarts, seed)
    return _solution(model, sizes, n_starts, {"multistarts": n_starts, "seed": seed})


@functools.lru_cache(maxsize=32)
def _n_load_sizes(
    model, n: int, multistarts: int, seed: int
) -> tuple[tuple[float, ...], int]:
    """Sorted best unit sizes of ``solve_n_load`` and the number of starts."""
    cap = model.y_max * (1 - _EDGE_GUARD)
    starts: list[np.ndarray] = [np.full(n, 0.8 * cap / n)]
    if n > 1:
        prev, _ = _n_load_sizes(model, n - 1, multistarts, seed)
        pad = min(1e-4 * model.y_max, 0.5 * (cap - sum(prev)))
        starts.append(np.array(sorted(list(prev) + [max(pad, 1e-9)])))
    rng = np.random.default_rng(seed + 1000 * n)
    while len(starts) < multistarts:
        cuts = rng.dirichlet(np.ones(n + 1))
        starts.append(cuts[:n] * cap * rng.uniform(0.5, 1.0))

    best: tuple[float, tuple[float, ...], np.ndarray] | None = None
    for start in starts:
        y, area = _ascend_n(model, start, cap)
        key = (-area, tuple(np.sort(y)))
        if best is None or key < best[:2]:
            best = (key[0], key[1], y)
    return tuple(float(v) for v in np.sort(best[2])), len(starts)
