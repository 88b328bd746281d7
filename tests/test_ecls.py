"""ECLS: binary ordering, block matrix, KKT solve and the C line search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from loadsizer.ecls import (
    binary_order,
    build_switch_matrix,
    dispatch_su,
    line_search_C,
    select_points,
    sensitivity_table,
    solve_ecls,
    solve_kkt,
    write_sensitivity_csv,
)
from loadsizer.errors import DataError
from loadsizer.timeseries import SortedSeries


def sorted_series(values):
    return SortedSeries(values=np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# ordering and matrix construction
# ---------------------------------------------------------------------------


def test_binary_order_examples():
    assert binary_order([1, 0]) == 2
    assert binary_order([1, 1, 1]) == 7
    assert binary_order([0, 0]) == 0


def test_binary_order_rejects_non_binary():
    with pytest.raises(DataError):
        binary_order([0, 2])


def test_build_switch_matrix_shapes():
    m1 = build_switch_matrix(1, block_length=1)
    assert m1.dense().tolist() == [[1.0]]
    m2 = build_switch_matrix(2, block_length=1)
    assert m2.dense().tolist() == [[0, 1], [1, 0], [1, 1]]
    m3 = build_switch_matrix(3, block_length=20)
    assert m3.dense().shape == (140, 3)


def test_switch_matrix_blocks_strictly_increase():
    m = build_switch_matrix(4, block_length=3)
    orders = [binary_order(row) for row in m.distinct_rows]
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)


def test_select_points_quantile_stride():
    series = sorted_series(np.arange(1.0, 101.0) / 100.0)
    picked = select_points(series, 4)
    assert np.allclose(picked * 100, [25, 50, 75, 100])
    assert np.allclose(select_points(series, 100), series.values)


def test_select_points_properties_year_like():
    rng = np.random.default_rng(0)
    values = np.sort(rng.uniform(0.01, 1.0, size=5000))
    series = sorted_series(values)
    picked = select_points(series, 140)
    assert picked.size == 140
    assert (np.diff(picked) >= 0).all()
    assert picked.min() >= values.min()
    assert picked.max() == values.max()
    with pytest.raises(DataError):
        select_points(sorted_series([0.5]), 2)


# ---------------------------------------------------------------------------
# KKT solve
# ---------------------------------------------------------------------------


def test_hand_solved_instance():
    matrix = build_switch_matrix(2, block_length=1)
    result = solve_ecls([0.2, 0.5, 0.9], matrix, C=0.8)
    assert result.x[0] == pytest.approx(0.55, abs=1e-9)
    assert result.x[1] == pytest.approx(0.25, abs=1e-9)
    assert result.x.sum() == pytest.approx(0.8, abs=1e-12)
    assert result.lam == pytest.approx(0.05, abs=1e-9)


def test_constant_points_single_load():
    matrix = build_switch_matrix(1, block_length=3)
    result = solve_ecls([0.7, 0.7, 0.7], matrix, C=0.7)
    assert result.x[0] == pytest.approx(0.7, abs=1e-12)
    assert result.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert result.lam == pytest.approx(0.0, abs=1e-12)


def kkt_residual(points, matrix, result):
    s = np.asarray(points, dtype=float)
    n = matrix.n
    u = matrix.dense()
    # undo the presentation sort: the KKT x is recovered by re-solving in
    # column order, so check the system on the best column permutation
    from itertools import permutations

    best = math.inf
    for perm in permutations(range(n)):
        x = result.x[list(perm)]
        kkt_top = u.T @ u @ x + result.lam * np.ones(n) - u.T @ s
        kkt_bot = x.sum() - result.C
        best = min(best, max(np.abs(kkt_top).max(), abs(kkt_bot)))
    return best


def test_kkt_residual_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        L = int(rng.integers(1, 8))
        points = np.sort(rng.uniform(0.01, 1.0, size=L * (2**n - 1)))
        matrix = build_switch_matrix(n, block_length=L)
        C = float(rng.uniform(0.5, 1.0))
        result = solve_ecls(points, matrix, C)
        assert result.x.sum() == pytest.approx(C, abs=1e-10)
        assert kkt_residual(points, matrix, result) <= 1e-8


def test_ecls_is_constrained_minimizer():
    rng = np.random.default_rng(7)
    matrix = build_switch_matrix(2, block_length=5)
    points = np.sort(rng.uniform(0.05, 1.0, size=15))
    result = solve_ecls(points, matrix, C=0.8)
    u = matrix.dense()
    # recover column-order x (x1 is the MSB column)
    x = result.x.copy()
    base = np.linalg.norm(points - u @ x)
    assert result.residual_norm == pytest.approx(base, abs=1e-12)
    for _ in range(100):
        delta = rng.normal(size=2)
        delta -= delta.mean()  # keep sum(x) = C
        perturbed = np.linalg.norm(points - u @ (x + 1e-3 * delta))
        assert perturbed >= base - 1e-12


def test_unconstrained_residual_never_larger():
    rng = np.random.default_rng(11)
    matrix = build_switch_matrix(3, block_length=4)
    points = np.sort(rng.uniform(0.05, 1.0, size=28))
    u = matrix.dense()
    x_free, *_ = np.linalg.lstsq(u, points, rcond=None)
    free_resid = np.linalg.norm(points - u @ x_free)
    result = solve_ecls(points, matrix, C=0.8)
    assert free_resid <= result.residual_norm + 1e-12


@pytest.mark.parametrize("k", [0, 1, 3])
def test_solve_kkt_stacked_matches_alone_bit_for_bit(k):
    rng = np.random.default_rng(50 + k)
    n, count = 4, 9
    G = rng.normal(size=(count, 7, n))
    H = np.matmul(G.transpose(0, 2, 1), G)
    g = rng.normal(size=(count, n))
    A = rng.normal(size=(k, n))
    r = rng.normal(size=(count, k))
    x, m = solve_kkt(H, g, A, r)
    assert x.shape == (count, n) and m.shape == (count, k)
    for i in range(count):
        x_alone, m_alone = solve_kkt(H[i], g[i], A, r[i])
        assert x_alone.tobytes() == x[i].tobytes()
        assert m_alone.tobytes() == m[i].tobytes()
        assert (np.abs(H[i] @ x_alone + A.T @ m_alone - g[i]) <= 1e-9).all()
        assert (np.abs(A @ x_alone - r[i]) <= 1e-9).all()


def bordered_ecls(points, matrix, C):
    """``solve_ecls``'s own bordered KKT build from before `solve_kkt`, kept as an oracle."""
    s = np.asarray(points, dtype=float).ravel()
    n, L = matrix.n, matrix.block_length
    rows = matrix.distinct_rows
    block_sums = s.reshape(2**n - 1, L).sum(axis=1)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = L * rows.T @ rows
    kkt[:n, n] = 1.0
    kkt[n, :n] = 1.0
    sol = np.linalg.solve(kkt, np.concatenate([rows.T @ block_sums, [C]]))
    x = sol[:n]
    resid = s - np.repeat(rows @ x, L)
    return np.sort(x)[::-1], float(sol[n]), float(np.linalg.norm(resid))


def test_solve_ecls_matches_bordered_build_bit_for_bit():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        L = int(rng.integers(1, 21))
        points = np.sort(rng.uniform(0.01, 1.0, size=L * (2**n - 1)) ** 1.5)
        matrix = build_switch_matrix(n, block_length=L)
        C = float(rng.uniform(0.5, 1.0))
        result = solve_ecls(points, matrix, C)
        x, lam, residual = bordered_ecls(points, matrix, C)
        assert result.x.tobytes() == x.tobytes()
        assert result.lam.hex() == lam.hex()
        assert result.residual_norm.hex() == residual.hex()


def test_c_out_of_range_rejected():
    matrix = build_switch_matrix(1, block_length=1)
    with pytest.raises(DataError):
        solve_ecls([0.5], matrix, C=0.3)


# ---------------------------------------------------------------------------
# line search over C
# ---------------------------------------------------------------------------


def test_two_level_series_line_search():
    values = np.sort(np.array([0.3] * 30 + [0.9] * 30))
    series = sorted_series(values)
    best = line_search_C(series, n=2, c_steps=101, block_length=10)
    assert best.solar_utilization == pytest.approx(1.0, abs=1e-9)
    assert best.x[0] == pytest.approx(0.6, abs=1e-6)
    assert best.x[1] == pytest.approx(0.3, abs=1e-6)
    # oracle: enumerate the same C grid by hand and dispatch each solution
    matrix = build_switch_matrix(2, block_length=10)
    points = select_points(series, matrix.rows_used)
    best_su = -1.0
    for C in np.linspace(0.5, 1.0, 101):
        r = solve_ecls(points, matrix, float(C))
        if (r.x <= 0).any():
            continue
        best_su = max(best_su, dispatch_su(values, r.x))
    assert best.solar_utilization == pytest.approx(best_su, abs=1e-12)
    # beats the best single load on the same data
    single = line_search_C(series, n=1, c_steps=101, block_length=10)
    assert best.solar_utilization > single.solar_utilization


def test_line_search_tie_breaks_to_smaller_c():
    values = np.full(30, 0.75)
    series = sorted_series(values)
    best = line_search_C(series, n=1, c_steps=11, block_length=30)
    # every C >= 0.75 dispatches identically; C < 0.75 wastes power
    assert best.C == pytest.approx(0.75, abs=1e-9)


def test_sensitivity_table_shape_and_consistency(tmp_path):
    rng = np.random.default_rng(3)
    values = np.sort(rng.uniform(0.02, 1.0, size=400))
    series = sorted_series(values)
    table = sensitivity_table(series, n=3, c_steps=42, block_length=4)
    assert len(table) == 42
    best = line_search_C(series, n=3, c_steps=42, block_length=4)
    sus = [r.solar_utilization for r in table if not math.isnan(r.solar_utilization)]
    assert best.solar_utilization == pytest.approx(max(sus), abs=1e-12)
    path = write_sensitivity_csv(table, tmp_path / "sens.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "C,x1,x2,x3,SU"
    assert len(lines) == 43
