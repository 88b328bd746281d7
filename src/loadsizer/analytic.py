"""Semianalytic sizing for symmetric clear-day power curves.

Captured energy for a set of combination levels under the arch is the
staircase area ``2 * sum_i t(l_i) * (l_i - l_{i-1})`` where ``t(y)`` is the
positive half-width of the arch at level ``y`` and the levels are the
sorted nonzero subset sums of the unit sizes. The single-load optimum
solves the stationarity condition ``t(y) + y * t'(y) = 0`` by bisection.
Two or more loads use one projected gradient ascent with the exact
gradient of the staircase area, which for two loads is the closed-form
Jacobian; ``solve_n_load`` runs it from several starts.

All routines accept any arch exposing ``forward``, ``half_width``,
``half_width_slope``, ``t_max`` and ``y_max`` in the shape of
:class:`~loadsizer.timeseries.ClearSkyModel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dispatch import combo_draws, nonzero_combo_rows
from .errors import DataError, NumericError, load_count

_EDGE_GUARD = 1e-6  # fraction of y_max kept away from the arcsin edge
_ASCENT_MAX_ITER = 20000

MAX_LOADS = 4  # the most loads the analytic route sizes


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
    levels, _, widths, area = _staircase(model, sizes)
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


def _combinations(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero subset sums of the units (their `combo_draws`), ascending, and
    each one's on/off row.

    Equal sums put the higher combination index first: for two equal units,
    load 1's level first, as in the closed-form two-load Jacobian.
    """
    states = nonzero_combo_rows(sizes.size)
    sums = combo_draws(sizes)[1:]
    order = sums.size - 1 - np.argsort(sums[::-1], kind="stable")
    return sums[order], states[order]


def _staircase(model, sizes: np.ndarray):
    """Levels, their on/off rows, half-widths and the staircase area."""
    levels, members = _combinations(sizes)
    widths = np.asarray(model.half_width(levels), dtype=float).ravel()
    area = float(2.0 * np.sum(widths * np.diff(levels, prepend=0.0)))
    return levels, members, widths, area


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


def _area_gradient(model, sizes: np.ndarray) -> np.ndarray:
    """Exact gradient of the staircase area with respect to the unit sizes.

    Over the sorted levels, ``d area / d l_k = 2 * (t'(l_k) * (l_k - l_{k-1})
    + t(l_k) - t(l_{k+1}))`` with ``t(l_{N+1}) = 0``; a unit's gradient sums
    that over the levels it is on in.
    """
    levels, members, widths, _ = _staircase(model, sizes)
    slopes = np.asarray(model.half_width_slope(levels), dtype=float).ravel()
    above = np.append(widths[1:], 0.0)
    per_level = 2.0 * (slopes * np.diff(levels, prepend=0.0) + widths - above)
    return per_level @ members


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


def _ascend(model, start, cap: float, tol: float):
    """Projected gradient ascent of the staircase area over the unit sizes.

    The step grows by 1.5 (up to 1e-2) on a gain in area and halves
    otherwise. The ascent stops when the gradient norm drops below ``tol``
    (``"tol"``), or when the step falls below 1e-16 without a gain
    (``"stall"``): the area is then flat to rounding, on a constraint face
    or at an interior maximum. Returns the sizes, their area, the iteration
    count and the ``gradient_norm`` and ``stop`` diagnostics.
    """
    y = np.maximum(_project_simplex_cap(np.asarray(start, dtype=float), cap), 1e-12)
    area = _staircase(model, y)[3]
    g = _area_gradient(model, y)
    norm = float(np.linalg.norm(g))
    s = 1e-4
    for iterations in range(1, _ASCENT_MAX_ITER + 1):
        if norm < tol:
            stop = "tol"
            break
        cand = np.maximum(_project_simplex_cap(y + s * g, cap), 1e-12)
        cand_area = _staircase(model, cand)[3]
        if cand_area > area:
            y, area = cand, cand_area
            g = _area_gradient(model, y)
            norm = float(np.linalg.norm(g))
            s = min(s * 1.5, 1e-2)
        else:
            s *= 0.5
            if s < 1e-16:
                stop = "stall"
                break
    else:
        raise NumericError(
            f"analytic ascent did not converge in {_ASCENT_MAX_ITER} iterations; "
            f"last iterate {y.tolist()}"
        )
    return y, area, iterations, {"gradient_norm": norm, "stop": stop}


def solve_two_load(
    model,
    init: tuple[float, float] = (0.2, 0.5),
    tol: float = 1e-7,
) -> AnalyticSolution:
    """Two-load optimum by projected gradient ascent on the staircase area.

    On the reference arch the ascent ends by ``_ascend``'s stall rule from
    any of 16 random starts, at an interior point whose gradient norm
    (8e-7 to 6.1e-6) is still above the default ``tol``. ``diagnostics``
    reports ``stop`` (``"tol"`` or ``"stall"``) and ``gradient_norm``.
    """
    cap = model.y_max * (1 - _EDGE_GUARD)
    y, _, iterations, diagnostics = _ascend(model, init, cap, tol)
    return _solution(model, y, iterations, diagnostics)


def solve_n_load(
    model,
    n: int,
    multistarts: int = 16,
    seed: int = 42,
) -> AnalyticSolution:
    """Multistart projected gradient ascent over n unit sizes, n in
    1..``MAX_LOADS`` (4); any other n, a non-integer or a bool included,
    raises ``DataError``.

    Starts include an equal split, the previous (n-1)-load optimum padded
    with a small extra unit (which keeps utilization non-decreasing in n),
    and seeded uniform draws from the feasible simplex. Ties between starts
    break toward the lexicographically smallest sorted size vector.

    Each level's sizes are memoized on ``(model, n, multistarts, seed)``,
    so solving n = 2, 3, 4 in turn ascends each level once; the arch must
    therefore be hashable and is taken as immutable.
    """
    n = load_count(n)
    if not 1 <= n <= MAX_LOADS:
        raise DataError(f"n must be in 1..{MAX_LOADS}, got {n}")
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
        y, area, _, _ = _ascend(model, start, cap, 1e-6)
        key = (-area, tuple(np.sort(y)))
        if best is None or key < best[:2]:
            best = (key[0], key[1], y)
    return tuple(float(v) for v in np.sort(best[2])), len(starts)
