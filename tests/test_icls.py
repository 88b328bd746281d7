"""ICLS: block matrix, active-set QP correctness, integer search over m."""

from __future__ import annotations

import numpy as np
import pytest

from loadsizer import icls
from loadsizer.ecls import solve_kkt
from loadsizer.errors import DataError
from loadsizer.icls import (
    _EXHAUSTIVE_LIMIT,
    _KKT_TOL,
    _MAX_SWEEPS,
    IclsResult,
    _FitContext,
    _lattice,
    _lattice_size,
    _random_point,
    _result_key,
    SwitchTimes,
    optimize_m,
    solve_icls_fixed_m,
    upper_ones,
)
from loadsizer.timeseries import SortedSeries
from oracles import active_set_qp, build_um


def sorted_series(values):
    return SortedSeries(values=np.asarray(values, dtype=float))


def kkt_check(series, result, n, tol=1e-8):
    """Independent KKT verification rebuilt from the dense matrices.

    Constraint indexing mirrors the solver: n nonnegativity rows, then one
    under-the-curve cap per block (its first, smallest sample). The fit
    spans the samples above the all-off offset.
    """
    u = build_um(result.m, n)
    G = u @ upper_ones(n)
    s = series.values[result.offset :]
    H = G.T @ G
    g = G.T @ s
    from loadsizer.ecls import build_switch_matrix

    w = build_switch_matrix(n, block_length=1).distinct_rows @ upper_ones(n)
    starts = np.concatenate([[0], np.cumsum(result.m.lengths)[:-1]]).astype(int)
    C = np.vstack([-np.eye(n), w])
    b = np.concatenate([np.zeros(n), s[starts]])
    x = result.x_bar
    # primal feasibility: x_bar >= 0 and U(m) x <= S componentwise
    assert (x >= -1e-12).all()
    assert (G @ x <= s + 1e-9).all()
    assert (C @ x <= b + 1e-9).all()
    # stationarity with the reported working set and multipliers
    grad = H @ x - g
    if result.working_set:
        cw = C[list(result.working_set)]
        mult = np.asarray(result.multipliers)
        assert mult.min() >= -tol
        assert np.abs(grad + cw.T @ mult).max() <= tol
    else:
        assert np.abs(grad).max() <= tol


# ---------------------------------------------------------------------------
# switch times and U(m)
# ---------------------------------------------------------------------------


def test_switch_times_validation():
    with pytest.raises(DataError):
        SwitchTimes(lengths=(0, 2, 1))
    with pytest.raises(DataError):
        SwitchTimes.from_free((2, 2), total=4, n=2)  # leaves nothing for block 3
    m = SwitchTimes.from_free((1, 1), total=4, n=2)
    assert m.lengths == (1, 1, 2)
    assert m.free == (1, 1)


def test_build_um_degenerate_single_load():
    m = SwitchTimes.from_free((), total=5, n=1)
    u = build_um(m, 1)
    assert u.shape == (5, 1)
    assert (u == 1).all()


def test_build_um_last_block_absorbs_remainder():
    m = SwitchTimes.from_free((1, 1), total=4, n=2)
    assert build_um(m, 2).tolist() == [[0, 1], [1, 0], [1, 1], [1, 1]]


def test_equidistant_matches_kron_blocks():
    m = SwitchTimes.equidistant(9, 2)
    assert m.lengths == (3, 3, 3)
    u = build_um(m, 2)
    expected = np.repeat(np.array([[0, 1], [1, 0], [1, 1]]), 3, axis=0)
    assert (u == expected).all()


# ---------------------------------------------------------------------------
# fixed-m active-set solve
# ---------------------------------------------------------------------------


def test_hand_instance_active_set_trace():
    series = sorted_series([0.2, 0.5, 0.9])
    m = SwitchTimes.from_free((1, 1), total=3, n=2)
    result = solve_icls_fixed_m(series, m, 2)
    assert result.x[0] == pytest.approx(0.5, abs=1e-9)
    assert result.x[1] == pytest.approx(0.2, abs=1e-9)
    kkt_check(series, result, 2)


def test_hand_instance_grid_cross_check():
    # brute 1e-3 grid over feasible (x1, x2): x1 >= x2 >= 0, x2 <= 0.2,
    # x1 <= 0.5, x1 + x2 <= 0.9
    series = sorted_series([0.2, 0.5, 0.9])
    best = (np.inf, None)
    for x1 in np.arange(0.0, 0.5001, 1e-3):
        for x2 in np.arange(0.0, min(x1, 0.2) + 1e-12, 1e-3):
            if x1 + x2 > 0.9:
                continue
            sse = (0.2 - x2) ** 2 + (0.5 - x1) ** 2 + (0.9 - x1 - x2) ** 2
            if sse < best[0]:
                best = (sse, (x1, x2))
    m = SwitchTimes.from_free((1, 1), total=3, n=2)
    result = solve_icls_fixed_m(series, m, 2)
    assert result.x[0] == pytest.approx(best[1][0], abs=2e-3)
    assert result.x[1] == pytest.approx(best[1][1], abs=2e-3)
    assert result.residual_norm**2 <= best[0] + 1e-9


def test_constant_series_fills_all_ones_block():
    series = sorted_series([0.6] * 6)
    m = SwitchTimes.from_free((2, 2), total=6, n=2)
    result = solve_icls_fixed_m(series, m, 2)
    assert result.x.sum() == pytest.approx(0.6, abs=1e-9)  # all-on level hits the curve
    resid_last_block = 0.6 - result.x.sum()
    assert resid_last_block == pytest.approx(0.0, abs=1e-9)
    kkt_check(series, result, 2)


def test_exact_fit_equals_unconstrained_ls():
    series = sorted_series([0.2, 0.5, 0.7, 0.7])
    m = SwitchTimes.from_free((1, 1), total=4, n=2)
    result = solve_icls_fixed_m(series, m, 2)
    u = build_um(m, 2)
    G = u @ upper_ones(2)
    free, *_ = np.linalg.lstsq(G, series.values, rcond=None)
    assert np.abs(result.x_bar - free).max() <= 1e-10
    assert result.residual_norm <= 1e-10


def test_feasibility_and_kkt_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        blocks = 2**n - 1
        total = int(rng.integers(blocks, 40))
        values = np.sort(rng.uniform(0.01, 1.0, size=total))
        series = sorted_series(values)
        free = []
        remaining = total - (blocks - 1) - 1
        for _ in range(blocks - 1):
            take = int(rng.integers(0, remaining + 1))
            free.append(1 + take)
            remaining -= take
        m = SwitchTimes.from_free(tuple(free), total, n)
        result = solve_icls_fixed_m(series, m, n)
        kkt_check(series, result, n)


# ---------------------------------------------------------------------------
# warm-started active set
# ---------------------------------------------------------------------------


def random_lattice_point(rng, total, n):
    blocks = 2**n - 1
    k0 = int(rng.integers(0, total // 4))
    cuts = np.sort(rng.choice(np.arange(1, total - k0), size=blocks - 1, replace=False))
    return k0, tuple(int(v) for v in np.diff(np.concatenate([[0], cuts])))


def neighbour_of(rng, k0, free, total):
    """A single-coordinate move, as the pattern search makes, or None."""
    coord = int(rng.integers(0, len(free) + 1))
    delta = int(rng.choice([-1, 1])) * int(rng.choice([1, 2, 5, 12]))
    k0_new, free_new = k0, list(free)
    if coord == 0:
        k0_new += delta
    else:
        free_new[coord - 1] += delta
    if k0_new < 0 or min(free_new) < 1 or k0_new + sum(free_new) > total - 1:
        return None
    return k0_new, tuple(free_new)


@pytest.mark.parametrize("n", [3, 4])
def test_warm_start_matches_cold_start_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    total = 240
    values = np.sort(rng.uniform(0.01, 1.0, size=total) ** 1.5)
    context = _FitContext(values, n)

    def fixed(k0, free):
        return SwitchTimes.from_free(free, total - k0, n), k0

    pairs = hits = 0
    while pairs < 60:
        k0, free = random_lattice_point(rng, total, n)
        moved = neighbour_of(rng, k0, free, total)
        if moved is None:
            continue
        neighbour = context.solve(*fixed(*moved))
        cold = context.solve(*fixed(k0, free))
        warm = context.solve(*fixed(k0, free), warm=neighbour.working_set)
        assert warm.x_bar.tobytes() == cold.x_bar.tobytes()
        assert warm.working_set == cold.working_set
        assert warm.multipliers == cold.multipliers
        assert cold.warm_hits == 0
        pairs += 1
        hits += warm.warm_hits
    assert 0 < hits < pairs  # both the one-solve hit and the longer paths ran


def test_degenerate_ties_can_end_warm_and_cold_starts_on_different_sets():
    # the final working set fixes a QP's answer, but a tie lets two starts
    # end on different sets one ulp apart, and dispatch's exact draw <= S
    # test turns that ulp into SU
    series = sorted_series([0.1, 0.1, 0.4, 0.5, 0.6, 0.6, 0.6, 0.8, 0.9])
    context = _FitContext(series.values, 3)
    m = SwitchTimes((1, 1, 1, 2, 1, 1, 1))
    cold = context.solve(m, 1)
    warm = context.solve(m, 1, warm=(8, 9))
    kkt_check(series, cold, 3)
    kkt_check(series, warm, 3)
    assert np.abs(cold.x - warm.x).max() <= 1e-15
    assert (cold.working_set, warm.working_set) == ((7, 8, 9), (8, 9))
    assert cold.x[0] == 0.5000000000000001 and warm.x[0] == 0.5
    assert cold.solar_utilization == pytest.approx(0.847826, abs=1e-6)
    assert warm.solar_utilization == 1.0


def test_cold_start_is_the_exact_nonnegativity_point(monkeypatch):
    # x_bar = 0 with multipliers -g solves the EQP on the nonnegativity
    # rows exactly; a LAPACK solve of it leaves components of order -1e-15
    starts = []
    real = icls._active_set_qps

    def spy(H, g, C, b, max_iter, x, working, mult):
        starts.extend(zip(g, x, map(tuple, working), mult))
        return real(H, g, C, b, max_iter, x, working, mult)

    monkeypatch.setattr(icls, "_active_set_qps", spy)
    rng = np.random.default_rng(90)
    total = 150
    for n in (2, 3, 4):
        values = np.sort(rng.uniform(0.01, 1.0, size=total) ** 1.5)
        context = _FitContext(values, n)
        for _ in range(10):
            k0, free = random_lattice_point(rng, total, n)
            context.solve(SwitchTimes.from_free(free, total - k0, n), k0)
    assert len(starts) == 30
    for g, x, working, mult in starts:
        assert working == tuple(range(g.size))
        assert x.tobytes() == np.zeros(g.size).tobytes()
        assert mult.tobytes() == (-g).tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_each_qp_solves_a_working_set_once_in_a_row(monkeypatch, n):
    # a full step lands on the EQP point just solved, so its multipliers
    # are tested without solving that working set again; the iterations
    # a fit reports are exactly the KKT systems solved for it
    systems = []

    def recording(H, g, A, r):
        systems.append(A.tobytes())
        return solve_kkt(H, g, A, r)

    monkeypatch.setattr(icls, "solve_kkt", recording)
    rng = np.random.default_rng(70 + n)
    total = 240
    values = np.sort(rng.uniform(0.01, 1.0, size=total) ** 1.5)
    context = _FitContext(values, n)
    for _ in range(40):
        k0, free = random_lattice_point(rng, total, n)
        moved = neighbour_of(rng, k0, free, total)
        if moved is None:
            continue
        m = SwitchTimes.from_free(free, total - k0, n)
        neighbour = context.solve(SwitchTimes.from_free(moved[1], total - moved[0], n), moved[0])
        for warm in ((), neighbour.working_set):
            systems.clear()
            result = context.solve(m, k0, warm)
            assert result.iterations == len(systems)
            assert all(a != b for a, b in zip(systems, systems[1:]))


def qp_matrices(values, m, offset, n):
    """The solver's QP rebuilt from dense matrices, as in ``kkt_check``."""
    from loadsizer.ecls import build_switch_matrix

    G = build_um(m, n) @ upper_ones(n)
    s = values[offset:]
    w = build_switch_matrix(n, block_length=1).distinct_rows @ upper_ones(n)
    starts = np.concatenate([[0], np.cumsum(m.lengths)[:-1]]).astype(int)
    C = np.vstack([-np.eye(n), w])
    b = np.concatenate([np.zeros(n), s[starts]])
    return G.T @ G, G.T @ s, C, b


def test_warm_start_falls_back_to_cold_start():
    n = 3
    rng = np.random.default_rng(71)
    total = 120
    values = np.sort(rng.uniform(0.01, 1.0, size=total))
    context = _FitContext(values, n)
    m = SwitchTimes.from_free((10, 12, 20, 15, 18, 22), total - 5, n)
    cold = context.solve(m, 5)
    # n + 1 rows in n unknowns: the KKT matrix is singular
    singular = context.solve(m, 5, warm=tuple(range(n + 1)))
    assert singular.x_bar.tobytes() == cold.x_bar.tobytes()
    assert singular.warm_hits == 0
    # a working set whose equality-constrained point breaks another row
    H, g, C, b = qp_matrices(values, m, 5, n)
    infeasible = None
    for row in range(n, C.shape[0]):
        kkt = np.block([[H, C[[row]].T], [C[[row]], np.zeros((1, 1))]])
        x = np.linalg.solve(kkt, np.concatenate([g, b[[row]]]))[:n]
        others = np.arange(C.shape[0]) != row
        if (C[others] @ x > b[others] + 1e-9).any():
            infeasible = (row,)
            break
    assert infeasible is not None
    fallback = context.solve(m, 5, warm=infeasible)
    assert fallback.x_bar.tobytes() == cold.x_bar.tobytes()
    assert fallback.warm_hits == 0
    kkt_check(sorted_series(values), fallback, n)


def same_fit(a, b):
    """Bitwise equality of everything a QP and its score decide."""
    return (
        a.x_bar.tobytes() == b.x_bar.tobytes()
        and a.working_set == b.working_set
        and a.multipliers == b.multipliers
        and a.iterations == b.iterations
        and a.warm_hits == b.warm_hits
        and a.solar_utilization == b.solar_utilization
        and a.residual_norm == b.residual_norm
    )


@pytest.mark.parametrize("n", [3, 4])
def test_batched_sweep_matches_single_solves_bit_for_bit(n):
    rng = np.random.default_rng(80 + n)
    total = 240
    values = np.sort(rng.uniform(0.01, 1.0, size=total) ** 1.5)
    context = _FitContext(values, n)
    blocks = 2**n - 1
    kinds = dict(hit=0, negative=0, infeasible=0, too_many_rows=0, empty=0)
    for sweep in range(30):
        k0, free = random_lattice_point(rng, total, n)
        warm = context.solve(SwitchTimes.from_free(free, total - k0, n), k0).working_set
        if sweep == 0:
            warm = tuple(range(n + 1))
        elif sweep == 1:
            warm = ()
        step = int(rng.choice([1, 3, 9, 25]))
        points = []
        for coord in range(blocks):
            for delta in (step, -step):
                point = [k0, *free]
                point[coord] += delta
                if point[0] >= 0 and min(point[1:]) >= 1 and sum(point) <= total - 1:
                    points.append(point)
        points = np.array(points)
        lengths = np.column_stack([points[:, 1:], total - points.sum(axis=1)])
        fits = context.fits(points[:, 0], lengths, warm)
        assert len(fits) == len(points)
        for (offset, *_), row, fit in zip(points.tolist(), lengths.tolist(), fits):
            m = SwitchTimes(tuple(row))
            batched = context.result(offset, m, fit, context.utilization(fit.x))
            single = context.solve(m, offset, warm)
            assert same_fit(batched, single), (n, sweep, offset, row)
            if len(warm) > n:
                kinds["too_many_rows"] += 1
            elif not warm:
                kinds["empty"] += 1
            elif fit.warm_hit:
                kinds["hit"] += 1
            else:
                H, g, C, b = qp_matrices(values, m, offset, n)
                rows = sorted(warm)
                x, mult = solve_kkt(H, g, C[rows], b[rows])
                outside = np.setdiff1d(np.arange(C.shape[0]), rows)
                if (C[outside] @ x > b[outside]).any():
                    kinds["infeasible"] += 1
                elif mult.min() < -_KKT_TOL:
                    kinds["negative"] += 1
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lockstep_batches_match_the_scalar_oracle_bit_for_bit(monkeypatch, n):
    # every QP of a lockstep batch ends with the bytes of the scalar
    # active-set iteration run alone from the same start: x, working set,
    # multipliers and EQP count
    batches = []
    lockstep = icls._active_set_qps

    def recording(H, g, C, b, max_iter, x, working, mult):
        out = lockstep(H, g, C, b, max_iter, x, working, mult)
        batches.append(((H, g, C, b, max_iter, x, working, mult), out))
        return out

    scans = []
    scan = icls._ratio_scan

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(icls, "_active_set_qps", recording)
    monkeypatch.setattr(icls, "_ratio_scan", counting)
    rng = np.random.default_rng(40 + n)
    total = 60
    blocks = 2**n - 1
    kinds = dict(cold=0, hit=0, negative=0, infeasible=0, too_many_rows=0)
    for data in ("smooth", "tied", "large"):
        values = np.sort(rng.uniform(0.05, 1.0, size=total))
        if data == "tied":  # a 0.1 grid: blocks share first samples, and ratios tie
            values = np.round(values, 1)
        elif data == "large":  # rounding lets working rows' rates pass 1e-14
            values *= 1000.0
        context = _FitContext(values, n)
        for sweep in range(12):
            k0, free = random_lattice_point(rng, total, n)
            warm = context.solve(SwitchTimes.from_free(free, total - k0, n), k0).working_set
            if sweep == 0:
                warm = tuple(range(n + 1))
            elif sweep == 1:
                warm = ()
            step = int(rng.choice([1, 2, 5]))
            points = []
            for coord in range(blocks):
                for delta in (step, -step):
                    point = [k0, *free]
                    point[coord] += delta
                    if point[0] >= 0 and min(point[1:]) >= 1 and sum(point) <= total - 1:
                        points.append(point)
            points = np.array(points)
            lengths = np.column_stack([points[:, 1:], total - points.sum(axis=1)])
            context.fits(points[:, 0], lengths, warm)
            (_, _, _, _, _, _, working, _), out = batches[-1]
            for start, (_, _, _, solves) in zip(working, out):
                if not warm:
                    kinds["cold"] += 1
                elif len(warm) > n:
                    kinds["too_many_rows"] += 1
                elif list(warm) == list(range(n)):
                    continue  # a warm set that is the cold one
                elif list(start) != sorted(warm):
                    kinds["infeasible"] += 1
                else:
                    kinds["hit" if solves == 0 else "negative"] += 1
    assert min(kinds.values()) > 0, kinds
    assert scans, "no QP took the scalar ratio scan"
    compared = 0
    for (H, g, C, b, max_iter, x, working, mult), out in batches:
        assert len(out) == len(working)
        for i, (x_qp, rows, mult_qp, solves) in enumerate(out):
            alone = active_set_qp(H[i], g[i], C, b[i], max_iter, x[i], working[i], mult[i])
            assert x_qp.tobytes() == alone[0].tobytes()
            assert list(rows) == alone[1]
            assert mult_qp.tobytes() == alone[2].tobytes()
            assert solves == alone[3]
            compared += 1
    assert compared > len(batches)  # batches of more than one QP were compared


def test_working_set_with_more_rows_than_unknowns_raises():
    n = 3
    rng = np.random.default_rng(71)
    total = 120
    values = np.sort(rng.uniform(0.01, 1.0, size=total))
    m = SwitchTimes.from_free((10, 12, 20, 15, 18, 22), total - 5, n)
    H, g, C, b = qp_matrices(values, m, 5, n)
    # the KKT matrix is singular, but LAPACK meets no exactly zero pivot
    # and would return multipliers of order 1e16
    with pytest.raises(np.linalg.LinAlgError):
        solve_kkt(H, g, C[: n + 1], b[: n + 1])
    with pytest.raises(np.linalg.LinAlgError):  # in a stack too
        solve_kkt(H[None], g[None], C[: n + 1], b[None, : n + 1])


# ---------------------------------------------------------------------------
# integer search over m
# ---------------------------------------------------------------------------


def enumerate_offset_lattice(total, n):
    """Independent enumeration of every (offset, free lengths) point."""
    blocks = 2**n - 1
    for k0 in range(total - blocks + 1):
        width = total - k0
        if blocks == 1:
            yield k0, ()
            continue

        def rec(prefix, remaining_blocks, budget):
            if remaining_blocks == 0:
                yield tuple(prefix)
                return
            for v in range(1, budget - remaining_blocks + 2):
                yield from rec(prefix + [v], remaining_blocks - 1, budget - v)

        for free in rec([], blocks - 1, width - 1):
            yield k0, free


def lattice_oracle(series, n):
    """Every lattice point's cold fixed-m solve."""
    total = series.values.size
    return [
        solve_icls_fixed_m(series, SwitchTimes.from_free(free, total - k0, n), n, offset=k0)
        for k0, free in enumerate_offset_lattice(total, n)
    ]


def test_optimize_m_matches_exhaustive_small():
    rng = np.random.default_rng(4)
    values = np.sort(rng.uniform(0.05, 1.0, size=14))
    series = sorted_series(values)
    best = optimize_m(series, 2, restarts=4, seed=1)
    sus = [r.solar_utilization for r in lattice_oracle(series, 2)]
    assert best.solar_utilization == pytest.approx(max(sus), abs=1e-12)


@pytest.mark.parametrize("total, n", [(5, 1), (9, 2), (14, 3), (30, 2), (17, 4), (40, 1)])
def test_lattice_rows_are_the_enumeration_in_order(total, n):
    rows = _lattice(total, 2**n - 1)
    assert rows.dtype == np.int64
    assert [tuple(row) for row in rows.tolist()] == [
        (k0,) + free for k0, free in enumerate_offset_lattice(total, n)
    ]


def test_exhaustive_branch_finds_the_tied_lattice_optimum():
    # a chain of warm starts, each point from the previous point's working
    # set, ended a tied QP one ulp away from its cold answer and missed this
    series = sorted_series([0.2, 0.2, 0.3, 0.4, 0.7, 0.7, 0.9, 1.0])
    found = optimize_m(series, 3)
    best = max(r.solar_utilization for r in lattice_oracle(series, 3))
    assert found.solar_utilization == best == 0.9545454545454545
    assert (found.offset, found.m.lengths) == (1, (1,) * 7)


SMALL_LATTICES = [
    (1, 1), (1, 2), (1, 17), (1, 60), (2, 3), (2, 4), (2, 7), (2, 12), (3, 7), (3, 8), (3, 10)
]


@pytest.mark.parametrize("grid", [False, True], ids=["uniform", "grid"])
@pytest.mark.parametrize("n, total", SMALL_LATTICES)
def test_small_lattice_result_is_its_cold_fixed_m_solve(n, total, grid):
    # a lattice small enough to be solved whole is solved cold, point by
    # point as solve_icls_fixed_m solves it, on tied (0.1-grid) data too
    rng = np.random.default_rng(100 * n + total)
    for _ in range(3):
        values = rng.integers(1, 11, size=total) / 10 if grid else rng.uniform(0.01, 1.0, total)
        series = sorted_series(np.sort(values))
        found = optimize_m(series, n)
        oracle = lattice_oracle(series, n)
        assert found.solar_utilization == max(r.solar_utilization for r in oracle)
        (chosen,) = [r for r in oracle if (r.offset, r.m) == (found.offset, found.m)]
        assert found.x.tobytes() == chosen.x.tobytes()
        assert found.working_set == chosen.working_set
        assert (found.qp_solves, found.warm_hits) == (len(oracle), 0)
        assert found.iterations == sum(r.iterations for r in oracle)


def test_optimize_m_single_load_threshold():
    # linspace data: dwells 4 and 5 tie on utilization (0.5*6 == 0.6*5);
    # the residual tie-break picks the tighter fit at offset 5
    series = sorted_series(np.linspace(0.1, 1.0, 10))
    result = optimize_m(series, 1, restarts=2)
    assert result.offset == 5
    assert result.x[0] == pytest.approx(0.6, abs=1e-12)
    assert result.solar_utilization == pytest.approx(3.0 / 5.5, abs=1e-12)


def test_pattern_search_beats_equidistant():
    rng = np.random.default_rng(17)
    values = np.sort(rng.uniform(0.02, 1.0, size=90))  # lattice > exhaustive limit
    series = sorted_series(values)
    equi = solve_icls_fixed_m(series, SwitchTimes.equidistant(90, 2), 2)
    found = optimize_m(series, 2, restarts=1, seed=3)
    assert found.solar_utilization >= equi.solar_utilization - 1e-12


def test_pattern_search_near_exhaustive_medium():
    rng = np.random.default_rng(8)
    values = np.sort(rng.uniform(0.02, 1.0, size=60))
    series = sorted_series(values)
    found = optimize_m(series, 2, restarts=6, seed=5)
    best_su = max(r.solar_utilization for r in lattice_oracle(series, 2))
    assert found.solar_utilization >= best_su - 5e-3


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_pattern_search_ends_where_no_unit_move_improves(seed):
    # above the exhaustive limit the search must end at a point that no
    # valid +-1 move of the offset or of one free length improves
    for n, total in [(2, 60), (2, 150), (3, 120), (3, 200)]:
        assert _lattice_size(total, 2**n - 1) > _EXHAUSTIVE_LIMIT
        values = np.sort(np.random.default_rng(seed).uniform(0.01, 1.0, size=total) ** 1.5)
        found = optimize_m(sorted_series(values), n)
        context = _FitContext(values, n)
        point = (found.offset,) + found.m.free
        for coord in range(len(point)):
            for delta in (1, -1):
                k0, *free = point[:coord] + (point[coord] + delta,) + point[coord + 1 :]
                if k0 < 0 or min(free) < 1 or k0 + sum(free) > total - 1:
                    continue
                trial = context.solve(SwitchTimes.from_free(free, total - k0, n), k0)
                assert _result_key(trial) > _result_key(found), (n, total, coord, delta)


def sequential_search(series, n, restarts=4, seed=42):
    """The pattern search as it ran before sweeps were batched, kept as an oracle.

    Every point is solved alone and its full result cached.
    """
    values = series.values
    total = values.size
    blocks = 2**n - 1
    context = _FitContext(values, n)
    cache = {}

    def evaluate(k0, free, warm=()):
        key = (k0, free)
        if key not in cache:
            m = SwitchTimes.from_free(free, total - k0, n)
            cache[key] = context.solve(m, k0, warm)
        return cache[key]

    rng = np.random.default_rng(seed)
    starts = [(0, SwitchTimes.equidistant(total, n).free)]
    k0_mid = total // (blocks + 1)
    if total - k0_mid >= blocks:
        starts.append((k0_mid, SwitchTimes.equidistant(total - k0_mid, n).free))
    while len(starts) < max(restarts, 1) + 1:
        starts.append(_random_point(rng, total, blocks))

    best = None
    for k0, free in starts:
        current = evaluate(k0, free)
        step = max(total // 16, 1)
        sweeps = 0
        while step >= 1 and sweeps < _MAX_SWEEPS:
            improved = None
            for coord in range(blocks):
                for delta in (step, -step):
                    ck0 = current.offset + (delta if coord == 0 else 0)
                    cand = list(current.m.free)
                    if coord > 0:
                        cand[coord - 1] += delta
                    if ck0 < 0 or (coord > 0 and cand[coord - 1] < 1):
                        continue
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
    solved = list(cache.values())
    return best, len(solved), sum(r.iterations for r in solved), sum(r.warm_hits for r in solved)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_batched_pattern_search_matches_sequential_oracle(seed):
    for n, total in [(2, 150), (3, 200)]:
        assert _lattice_size(total, 2**n - 1) > _EXHAUSTIVE_LIMIT
        values = np.sort(np.random.default_rng(seed).uniform(0.01, 1.0, size=total) ** 1.5)
        series = sorted_series(values)
        found = optimize_m(series, n, restarts=4, seed=seed)
        best, solves, iterations, hits = sequential_search(series, n, restarts=4, seed=seed)
        assert repr(found) == repr(
            IclsResult(**{**vars(best), "restarts_used": found.restarts_used,
                          "qp_solves": solves, "iterations": iterations, "warm_hits": hits})
        ), (n, total)
        assert found.x_bar.tobytes() == best.x_bar.tobytes()


def test_optimize_m_refuses_negative_restarts():
    series = sorted_series(np.linspace(0.1, 1.0, 40))
    with pytest.raises(DataError, match="restarts must be >= 0"):
        optimize_m(series, 2, restarts=-3)


@pytest.mark.parametrize(
    "route", ["optimize_m", "solve_icls_fixed_m", "line_search_C", "dispatch_su"]
)
def test_all_zero_series_is_refused_by_both_least_squares_routes(route):
    from loadsizer.ecls import dispatch_su, line_search_C

    series = SortedSeries(values=np.zeros(200))
    m = SwitchTimes.equidistant(200, 2)
    solve = {
        "optimize_m": lambda: optimize_m(series, 2),
        "solve_icls_fixed_m": lambda: solve_icls_fixed_m(series, m, 2),
        "line_search_C": lambda: line_search_C(series, 2),
        "dispatch_su": lambda: dispatch_su(series.values, np.array([0.4, 0.2])),
    }[route]
    with pytest.raises(DataError, match="total energy is zero"):
        solve()


@pytest.mark.parametrize("n", [0, 13])
@pytest.mark.parametrize(
    "route", ["build_switch_matrix", "optimize_m", "solve_icls_fixed_m", "line_search_C"]
)
def test_both_least_squares_routes_refuse_n_outside_their_range(route, n):
    from loadsizer.ecls import build_switch_matrix, line_search_C

    # 2^13 - 1 samples, so that n = 13 is not refused for too few samples first
    series = sorted_series(np.linspace(0.1, 1.0, 8191))
    solve = {
        "build_switch_matrix": lambda: build_switch_matrix(n, 1),
        "optimize_m": lambda: optimize_m(series, n),
        "solve_icls_fixed_m": lambda: solve_icls_fixed_m(series, SwitchTimes.equidistant(40, 2), n),
        "line_search_C": lambda: line_search_C(series, n),
    }[route]
    with pytest.raises(DataError, match=rf"^n must be in 1\.\.12, got {n}$"):
        solve()


@pytest.mark.parametrize("n", [2.5, True])
@pytest.mark.parametrize(
    "route",
    [
        "build_switch_matrix",
        "optimize_m",
        "solve_icls_fixed_m",
        "line_search_C",
        "solve_n_load",
        "SwitchSchedule",
    ],
)
def test_both_least_squares_routes_refuse_a_non_integer_n(route, n, ref_model):
    from loadsizer.analytic import solve_n_load
    from loadsizer.dispatch import SwitchSchedule
    from loadsizer.ecls import build_switch_matrix, line_search_C

    # a bool is refused too, though 1 <= True <= 12 and True hashes as 1; the
    # analytic route and a schedule refuse n the same way, before range checks
    # that True (1 <= True <= 4) and 2.5 (index 3 < 2**2.5) would pass
    series = sorted_series(np.linspace(0.1, 1.0, 40))
    solve = {
        "build_switch_matrix": lambda: build_switch_matrix(n, 1),
        "optimize_m": lambda: optimize_m(series, n),
        "solve_icls_fixed_m": lambda: solve_icls_fixed_m(series, SwitchTimes.equidistant(40, 2), n),
        "line_search_C": lambda: line_search_C(series, n),
        "solve_n_load": lambda: solve_n_load(ref_model, n),
        "SwitchSchedule": lambda: SwitchSchedule(np.array([0, 1, 3]), n),
    }[route]
    with pytest.raises(DataError, match=rf"^n must be an integer, got {n!r}$"):
        solve()


def test_icls_beats_ecls_on_random_data():
    from loadsizer.ecls import line_search_C

    rng = np.random.default_rng(30)
    values = np.sort(rng.uniform(0.02, 1.0, size=120))
    series = sorted_series(values)
    icls = optimize_m(series, 2, restarts=4, seed=2)
    ecls = line_search_C(series, 2, c_steps=40, block_length=40)
    assert icls.solar_utilization >= ecls.solar_utilization - 1e-9
