"""Semianalytic sizing: reference-arch reproduction plus closed-form oracles.

The parabola arch S(t) = 1 - t^2 has closed-form single-load optimum
y = 2/3, t = 1/sqrt(3), area 4/(3*sqrt(3)); it doubles as the oracle for
the two-load grid search and the n-load monotonicity property.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from loadsizer.analytic import (
    _area_gradient,
    _combinations,
    _staircase,
    solve_n_load,
    solve_single_load,
    solve_two_load,
    total_energy,
)
from loadsizer.dispatch import combo_draws, combo_index
from loadsizer.errors import DataError
from oracles import line_search_single


class ParabolaArch:
    """Unit parabola arch 1 - t^2 on [-1, 1]."""

    y_max = 1.0
    t_max = 1.0

    def forward(self, t):
        return np.clip(1.0 - np.asarray(t, dtype=float) ** 2, 0.0, None)

    def half_width(self, y):
        y = np.asarray(y, dtype=float)
        out = np.sqrt(1.0 - y)
        return float(out) if out.ndim == 0 else out

    def half_width_slope(self, y):
        y = np.asarray(y, dtype=float)
        out = -0.5 / np.sqrt(1.0 - y)
        return float(out) if out.ndim == 0 else out


class WideParabolaArch(ParabolaArch):
    """1 - (t/10)^2 on [-10, 10]."""

    t_max = 10.0

    def forward(self, t):
        return np.clip(1.0 - (np.asarray(t, dtype=float) / 10.0) ** 2, 0.0, None)

    def half_width(self, y):
        y = np.asarray(y, dtype=float)
        out = 10.0 * np.sqrt(1.0 - y)
        return float(out) if out.ndim == 0 else out

    def half_width_slope(self, y):
        y = np.asarray(y, dtype=float)
        out = -5.0 / np.sqrt(1.0 - y)
        return float(out) if out.ndim == 0 else out


class ConstantArch:
    """Flat arch of height c on [-T, T] (limiting case for boundary optima)."""

    def __init__(self, c=1.0, T=10.0):
        self.y_max = c
        self.t_max = T

    def forward(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= self.t_max, self.y_max, 0.0)

    def half_width(self, y):
        y = np.asarray(y, dtype=float)
        out = np.full_like(y, self.t_max)
        return float(out) if out.ndim == 0 else out

    def half_width_slope(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# total energy
# ---------------------------------------------------------------------------


def test_total_energy_reference(ref_model):
    assert total_energy(ref_model) == pytest.approx(284.8962, abs=0.5)


def test_total_energy_constant_counts_integers():
    assert total_energy(ConstantArch(c=1.0, T=10.0)) == 21.0


def test_total_energy_wide_parabola_direct_summation():
    # direct summation oracle: sum_{t=-10..10} (1 - (t/10)^2) = 21 - 7.7
    expected = sum(1.0 - (t / 10.0) ** 2 for t in range(-10, 11))
    assert expected == pytest.approx(13.3, abs=1e-9)
    assert total_energy(WideParabolaArch()) == pytest.approx(expected, abs=0.1)


# ---------------------------------------------------------------------------
# single load
# ---------------------------------------------------------------------------


def test_single_load_reference(ref_model):
    sol = solve_single_load(ref_model)
    assert sol.levels[0] == pytest.approx(0.6489, rel=0.01)
    assert sol.switch_times[0] == pytest.approx(123, abs=2)
    assert sol.solar_utilization == pytest.approx(0.5603, abs=0.005)
    assert sol.area == pytest.approx(2 * sol.switch_times[0] * sol.levels[0], rel=1e-12)


def test_single_load_parabola_closed_form():
    sol = solve_single_load(ParabolaArch())
    assert sol.levels[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert sol.switch_times[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    assert sol.area == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), abs=1e-6)


def test_single_load_parabola_grid_cross_check():
    ys = np.linspace(1e-6, 1 - 1e-6, 20001)
    areas = 2.0 * np.sqrt(1.0 - ys) * ys
    sol = solve_single_load(ParabolaArch())
    assert sol.area == pytest.approx(float(areas.max()), abs=1e-7)


def test_single_load_constant_boundary_optimum():
    arch = ConstantArch(c=0.7, T=50.0)
    sol = solve_single_load(arch)
    assert sol.levels[0] == pytest.approx(0.7, rel=1e-5)
    assert sol.switch_times[0] == 50.0
    # integer-grid total is (2T+1)*c, so SU approaches 1 from below
    assert sol.solar_utilization == pytest.approx(1.0, abs=0.02)


def test_line_search_agrees_with_bisection(ref_model):
    ls = line_search_single(ref_model, grid_size=4000)
    exact = solve_single_load(ref_model)
    assert ls.area <= exact.area + 1e-9
    assert ls.area == pytest.approx(exact.area, rel=0.002)


def test_line_search_constant_boundary():
    arch = ConstantArch(c=1.0, T=10.0)
    ls = line_search_single(arch, grid_size=500)
    exact = solve_single_load(arch)
    assert ls.area == pytest.approx(exact.area, rel=1e-2)


def test_line_search_parabola_matches_closed_form():
    ls = line_search_single(ParabolaArch(), grid_size=2000)
    assert ls.area == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1.0 / 2000)


def test_line_search_rejects_small_grid(ref_model):
    with pytest.raises(DataError):
        line_search_single(ref_model, grid_size=5)


# ---------------------------------------------------------------------------
# two loads
# ---------------------------------------------------------------------------


def test_two_load_reference_values(ref_model):
    sol = solve_two_load(ref_model)
    # frozen against the 2-D grid-search oracle of acceptance criterion 2
    # (tests/test_acceptance.py::_continuous_oracle)
    assert sol.base_sizes[0] == pytest.approx(0.27891, abs=5e-4)
    assert sol.base_sizes[1] == pytest.approx(0.58110, abs=5e-4)
    assert sol.levels[2] == pytest.approx(sum(sol.base_sizes), rel=1e-12)
    assert sol.solar_utilization == pytest.approx(0.7949, abs=0.01)


def test_two_load_gradient_matches_finite_differences(ref_model):
    h = 1e-6
    for y1, y2 in [(0.2, 0.5), (0.3, 0.55), (0.1, 0.7), (0.25, 0.25)]:
        g = _area_gradient(ref_model, np.array([y1, y2]))
        fd1 = (_area2_safe(ref_model, y1 + h, y2) - _area2_safe(ref_model, y1 - h, y2)) / (2 * h)
        fd2 = (_area2_safe(ref_model, y1, y2 + h) - _area2_safe(ref_model, y1, y2 - h)) / (2 * h)
        assert g[0] == pytest.approx(fd1, rel=1e-4)
        assert g[1] == pytest.approx(fd2, rel=1e-4)


def _area2_safe(model, y1, y2):
    t1 = model.half_width(y1)
    t2 = model.half_width(y2)
    t3 = model.half_width(y1 + y2)
    return 2.0 * (y1 * t1 + (y2 - y1) * t2 + y1 * t3)


def test_two_load_parabola_matches_grid_search():
    arch = ParabolaArch()
    grid = np.linspace(1e-4, 1 - 1e-4, 200)
    best = (-1.0, 0.0, 0.0)
    for y1 in grid:
        y2s = grid[(grid >= y1) & (grid + y1 < 1.0)]
        if y2s.size == 0:
            continue
        areas = [_area2_safe(arch, y1, y2) for y2 in y2s]
        j = int(np.argmax(areas))
        if areas[j] > best[0]:
            best = (areas[j], y1, float(y2s[j]))
    sol = solve_two_load(arch)
    res = 1.0 / 200
    assert sol.base_sizes[0] == pytest.approx(best[1], abs=res)
    assert sol.base_sizes[1] == pytest.approx(best[2], abs=res)
    assert sol.area >= best[0] - 1e-9


def test_two_load_degenerate_equal_init(ref_model):
    sol = solve_two_load(ref_model, init=(0.4, 0.4))
    assert sol.base_sizes[0] <= sol.base_sizes[1]
    assert sol.solar_utilization == pytest.approx(0.7949, abs=0.01)


def test_two_load_reports_stop_reason(ref_model):
    # criterion 2's 16 seeded starts: each ends by the backtracking stall,
    # with the gradient norm still above the default tol
    cap = ref_model.y_max * (1 - 1e-6)
    rng = np.random.default_rng(42)
    for _ in range(16):
        y1 = rng.uniform(0.01, cap / 2)
        y2 = rng.uniform(y1, cap - y1)
        sol = solve_two_load(ref_model, init=(y1, y2))
        assert sol.diagnostics["stop"] == "stall"
        assert sol.diagnostics["gradient_norm"] >= 1e-7
    # a tol above the starting gradient norm stops on the first iteration
    sol = solve_two_load(ref_model, tol=1e3)
    assert sol.diagnostics["stop"] == "tol"
    assert sol.iterations == 1


# ---------------------------------------------------------------------------
# n loads and the staircase area
# ---------------------------------------------------------------------------


def staircase_area(model, sizes) -> float:
    """The staircase area of the units, as the ascent scores it; a combined
    level at or above ``y_max`` raises ``DataError`` from ``half_width``."""
    return _staircase(model, np.asarray(sizes, dtype=float))[3]


def test_area_n_single_term_reduces_to_rectangle(ref_model):
    y = 0.5
    rectangle = 2 * ref_model.half_width(y) * y
    assert staircase_area(ref_model, [y]) == pytest.approx(rectangle, rel=1e-12)


def test_area_n_reference_two_load_levels(ref_model):
    area = staircase_area(ref_model, [0.2727, 0.5758])
    assert area / total_energy(ref_model) == pytest.approx(0.7949, abs=0.01)


def test_area_n_tie_matches_staircase_integration(ref_model):
    sizes = [0.3, 0.3]
    area = staircase_area(ref_model, sizes)
    # trapezoid-style oracle: fine time grid, best feasible level per step
    levels = np.unique(_combinations(np.array(sizes))[0])
    dt = 0.01
    t = np.arange(-ref_model.t_max, ref_model.t_max, dt) + dt / 2
    s = ref_model.forward(t)
    chosen = np.zeros_like(s)
    for lv in levels:
        chosen[s >= lv] = lv
    oracle = float((chosen * dt).sum())
    assert area == pytest.approx(oracle, rel=0.005)


def test_area_n_rejects_level_at_ymax(ref_model):
    with pytest.raises(DataError):
        staircase_area(ref_model, [0.6, 0.6])  # combined level 1.2 > y_max


def test_area_n_never_exceeds_total(ref_model):
    rng = np.random.default_rng(3)
    total = total_energy(ref_model)
    for _ in range(50):
        sizes = rng.uniform(0.02, 0.4, size=3)
        if sizes.sum() >= ref_model.y_max:
            continue
        assert staircase_area(ref_model, sizes) <= total


@pytest.mark.parametrize("n", [1, 3, 4])
def test_area_gradient_matches_finite_differences(ref_model, n):
    h = 1e-6
    rng = np.random.default_rng(20 + n)
    for _ in range(4):
        sizes = rng.uniform(0.02, 0.9 / n, size=n)
        assert np.diff(_combinations(sizes)[0], prepend=0.0).min() > 2 * h  # no kink in reach
        g = _area_gradient(ref_model, sizes)
        for i in range(n):
            up, dn = sizes.copy(), sizes.copy()
            up[i] += h
            dn[i] -= h
            fd = (staircase_area(ref_model, up) - staircase_area(ref_model, dn)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4)


def test_combination_levels_bit_convention():
    levels = _combinations(np.array([0.1, 0.4]))[0]
    assert np.allclose(levels, [0.1, 0.4, 0.5])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_combination_levels_are_the_dispatch_draws(n):
    """Each level is its row's ``combo_draws`` draw, byte for byte, so the
    staircase and dispatch sum a subset in one order; equal levels put the
    higher combination index first."""
    rng = np.random.default_rng(60 + n)
    tied = 0
    for case in range(40):
        # every other case dyadic with repeats, so equal levels tie exactly
        sizes = rng.integers(1, 4, n) / 8.0 if case % 2 else rng.uniform(0.01, 0.3, n)
        levels, members = _combinations(sizes)
        draws = combo_draws(sizes)
        combos = combo_index(members.T)
        assert levels.tobytes() == np.sort(draws[1:]).tobytes()
        assert levels.tobytes() == draws[combos].tobytes()
        ties = levels[1:] == levels[:-1]
        assert (combos[1:][ties] < combos[:-1][ties]).all()
        tied += int(ties.sum())
    assert tied > 0 or n == 1


def test_solve_n1_matches_single(ref_model):
    a = solve_n_load(ref_model, 1, multistarts=4)
    b = solve_single_load(ref_model)
    assert a.area == pytest.approx(b.area, rel=0.01)


def test_solve_n2_matches_two_load(ref_model):
    a = solve_n_load(ref_model, 2, multistarts=8)
    b = solve_two_load(ref_model)
    assert a.area == pytest.approx(b.area, rel=0.01)
    assert np.allclose(a.base_sizes, b.base_sizes, rtol=0.02)


def test_solve_n3_beats_two_on_parabola():
    arch = ParabolaArch()
    a3 = solve_n_load(arch, 3, multistarts=6)
    a2 = solve_n_load(arch, 2, multistarts=6)
    assert a3.area >= a2.area - 1e-9


def test_su_monotone_in_n(ref_model):
    sus = [solve_n_load(ref_model, n, multistarts=6, seed=11).solar_utilization for n in (1, 2, 3)]
    assert sus[1] >= sus[0] - 1e-9
    assert sus[2] >= sus[1] - 1e-9


def test_levels_strictly_below_ymax(ref_model):
    sol = solve_n_load(ref_model, 3, multistarts=6)
    assert all(0 < lv < ref_model.y_max for lv in sol.levels)
    assert list(sol.levels) == sorted(sol.levels)
