"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else; independent oracles
(exhaustive enumeration, dispatch replays, vertex candidates) are built
inside this module so they cannot drift with the implementation.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from datetime import datetime

import numpy as np
import pytest
from click.testing import CliRunner

from loadsizer import PowerSeries, normalize, sort_ascending
from loadsizer.analytic import solve_single_load, solve_two_load, total_energy
from loadsizer.cli import main as cli_main
from loadsizer.dispatch import dispatch_greedy
from loadsizer.ecls import build_switch_matrix, dispatch_su, line_search_C, solve_ecls
from loadsizer.icls import SwitchTimes, optimize_m, solve_icls_fixed_m, upper_ones
from loadsizer.milp import branch_and_bound, build_instance, downsample_sweep
from loadsizer.synth import clear_day_series
from loadsizer.timeseries import SortedSeries, downsample_uniform
from oracles import build_um, line_search_single


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL [criterion {num:2d}] {text}")
        raise
    print(f"PASS [criterion {num:2d}] {text}")


@pytest.fixture(scope="module")
def year_sorted(year_series):
    return sort_ascending(year_series, remove_zeros=True)


@pytest.fixture(scope="module")
def year_sorted_with_zeros(year_series):
    return sort_ascending(year_series, remove_zeros=False)


# ---------------------------------------------------------------------------
# 1. analytic single load on the printed reference model
# ---------------------------------------------------------------------------


def test_criterion_01_analytic_single_load(ref_model):
    with criterion(1, "analytic single load reproduces the reference values in < 1 s"):
        t0 = time.perf_counter()
        sol = solve_single_load(ref_model)
        energy = total_energy(ref_model)
        runtime = time.perf_counter() - t0
        assert abs(sol.levels[0] - 0.6489) / 0.6489 <= 0.01
        assert abs(sol.switch_times[0] - 123) <= 2
        assert abs(sol.solar_utilization - 0.5603) <= 0.005
        assert abs(energy - 284.8962) <= 0.5
        assert runtime < 1.0


# ---------------------------------------------------------------------------
# 2. analytic two loads from 16 seeded starts
# ---------------------------------------------------------------------------

# The published two-load sizes (0.2727, 0.5758) are (9/33, 19/33): the best
# pair on a 1/33 size lattice, not the continuous optimum, whose first
# component lies 2.3% away. A start reproduces them when it rounds onto that
# lattice point, captures at least its area, and sits on the continuous
# optimum found by an independent grid search.
_LATTICE = 33
_LATTICE_HIT = (9, 19)


def _oracle_area2(model, y1, y2):
    """Two-load staircase area straight from the arch half-width:
    levels y1 <= y2 <= y1 + y2, each slab 2 * t(level) wide."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    levels = (y1, y2, y1 + y2)
    below = (0.0, y1, y2)
    return 2.0 * sum(model.half_width(lv) * (lv - lo) for lv, lo in zip(levels, below))


def _grid_argmax2(model, y1s, y2s):
    """Best (y1, y2) over a product grid, restricted to 0 < y1 <= y2, y1 + y2 < y_max."""
    g1, g2 = np.meshgrid(y1s, y2s, indexing="ij")
    ok = (g1 > 0) & (g1 <= g2) & (g1 + g2 < model.y_max)
    areas = np.full(g1.shape, -np.inf)
    areas[ok] = _oracle_area2(model, g1[ok], g2[ok])
    k = np.unravel_index(int(np.argmax(areas)), areas.shape)
    return k, float(areas[k])


def _lattice_oracle(model, k):
    """Argmax (i, j) of the area over sizes (i/k, j/k) and its area."""
    steps = np.arange(1, k)
    (i, j), area = _grid_argmax2(model, steps / k, steps / k)
    return (int(steps[i]), int(steps[j])), area


def _continuous_oracle(model):
    """Continuous two-load optimum: a 1e-3 grid over the feasible triangle,
    refined on a 1e-5 grid within +-2e-3 of the coarse argmax."""
    coarse = np.arange(1, 1000) * 1e-3
    (i, j), _ = _grid_argmax2(model, coarse, coarse)
    offsets = np.arange(-200, 201) * 1e-5
    (a, b), area = _grid_argmax2(model, coarse[i] + offsets, coarse[j] + offsets)
    # the fine argmax must be interior to the refinement window
    assert 0 < a < offsets.size - 1 and 0 < b < offsets.size - 1
    return np.array([coarse[i] + offsets[a], coarse[j] + offsets[b]]), area


def test_criterion_02_analytic_two_loads(ref_model):
    with criterion(2, "analytic two loads match the reference sizes/SU from 16 seeded starts"):
        t0 = time.perf_counter()
        cap = ref_model.y_max * (1 - 1e-6)
        rng = np.random.default_rng(42)
        results = []
        for _ in range(16):
            y1 = rng.uniform(0.01, cap / 2)
            y2 = rng.uniform(y1, cap - y1)
            results.append(solve_two_load(ref_model, init=(y1, y2)))
        runtime = time.perf_counter() - t0

        lattice_best, lattice_area = _lattice_oracle(ref_model, _LATTICE)
        assert lattice_best == _LATTICE_HIT
        assert round(_LATTICE_HIT[0] / _LATTICE, 4) == 0.2727
        assert round(_LATTICE_HIT[1] / _LATTICE, 4) == 0.5758
        grid_best, grid_area = _continuous_oracle(ref_model)
        assert grid_area >= lattice_area

        hits = [
            r
            for r in results
            if tuple(round(_LATTICE * v) for v in r.base_sizes) == _LATTICE_HIT
            and r.area >= lattice_area
            and np.abs(np.asarray(r.base_sizes) - grid_best).max() <= 5e-4
            and abs(r.solar_utilization - 0.7949) <= 0.01
        ]
        best = max(results, key=lambda r: r.solar_utilization)
        print(
            f"\n  two-load converged sizes {np.round(best.base_sizes, 5).tolist()} "
            f"SU={best.solar_utilization:.4f}; grid oracle {np.round(grid_best, 5).tolist()}; "
            f"reference [0.2727, 0.5758] = {list(_LATTICE_HIT)}/{_LATTICE} SU=0.7949; "
            f"{len(hits)}/16 starts inside tolerance"
        )
        assert runtime < 5.0
        assert len(hits) >= 1


# ---------------------------------------------------------------------------
# 3. line-search cross-check of the Jacobian solution
# ---------------------------------------------------------------------------


def test_criterion_03_line_search_cross_check(ref_model):
    with criterion(3, "single-load line search agrees with the stationarity solve to 0.2%"):
        exact = solve_single_load(ref_model)
        scan = line_search_single(ref_model, grid_size=1000)
        rel = abs(scan.area - exact.area) / exact.area
        assert rel <= 0.002


# ---------------------------------------------------------------------------
# 4. ECLS hand instance and KKT residuals on random instances
# ---------------------------------------------------------------------------


def test_criterion_04_ecls_exactness():
    with criterion(4, "ECLS hand instance exact to 1e-9; KKT residual <= 1e-8 on 1000 instances"):
        matrix = build_switch_matrix(2, block_length=1)
        hand = solve_ecls([0.2, 0.5, 0.9], matrix, C=0.8)
        assert abs(hand.x[0] - 0.55) <= 1e-9
        assert abs(hand.x[1] - 0.25) <= 1e-9
        rng = np.random.default_rng(4242)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            max_block = max(200 // (2**n - 1), 1)
            L = int(rng.integers(1, max_block + 1))
            count = L * (2**n - 1)
            points = np.sort(rng.uniform(1e-3, 1.0, size=count))
            mat = build_switch_matrix(n, block_length=L)
            C = float(rng.uniform(0.5, 1.0))
            res = solve_ecls(points, mat, C)
            u = np.repeat(mat.distinct_rows, mat.block_length, axis=0)
            # KKT residual in the solver's column order: recover by matching
            # the sorted output against all column permutations
            best = math.inf
            for perm in itertools.permutations(range(n)):
                x = res.x[list(perm)]
                top = u.T @ u @ x + res.lam - u.T @ points
                bot = x.sum() - C
                best = min(best, max(np.abs(top).max(), abs(bot)))
            assert best <= 1e-8
            assert abs(res.x.sum() - C) <= 1e-10


# ---------------------------------------------------------------------------
# 5. ICLS equivalence with exhaustive enumeration over (offset, m)
# ---------------------------------------------------------------------------


def _icls_kkt_ok(series_values: np.ndarray, result, n: int, tol: float = 1e-8) -> bool:
    u = build_um(result.m, n)
    G = u @ upper_ones(n)
    s = series_values[result.offset :]
    H = G.T @ G
    g = G.T @ s
    w = build_switch_matrix(n, block_length=1).distinct_rows @ upper_ones(n)
    starts = np.concatenate([[0], np.cumsum(result.m.lengths)[:-1]]).astype(int)
    cmat = np.vstack([-np.eye(n), w])
    x = result.x_bar
    if (x < -1e-12).any() or (G @ x > s + 1e-9).any():
        return False
    grad = H @ x - g
    if result.working_set:
        cw = cmat[list(result.working_set)]
        mult = np.asarray(result.multipliers)
        if mult.size and mult.min() < -tol:
            return False
        return bool(np.abs(grad + cw.T @ mult).max() <= tol)
    return bool(np.abs(grad).max() <= tol)


def test_criterion_05_icls_oracle_equivalence():
    with criterion(5, "ICLS search matches exhaustive (offset, m) enumeration on 200 instances"):
        rng = np.random.default_rng(777)
        for case in range(200):
            T = int(rng.integers(7, 31))
            values = np.sort(rng.uniform(0.01, 1.0, size=T))
            series = SortedSeries(values=values)
            found = optimize_m(series, 2, restarts=8, seed=case)
            assert _icls_kkt_ok(values, found, 2)
            best_su = -1.0
            for k0 in range(T - 2):
                width = T - k0
                for m1 in range(1, width - 1):
                    for m2 in range(1, width - m1):
                        m = SwitchTimes.from_free((m1, m2), width, 2)
                        r = solve_icls_fixed_m(series, m, 2, offset=k0)
                        best_su = max(best_su, r.solar_utilization)
            assert abs(found.solar_utilization - best_su) <= 1e-9


# ---------------------------------------------------------------------------
# 6. MILP exactness against the vertex-candidate oracle
# ---------------------------------------------------------------------------


def _subset_bits(n: int) -> np.ndarray:
    masks = np.arange(2**n)
    shifts = n - 1 - np.arange(n)
    return ((masks[:, None] >> shifts[None, :]) & 1).astype(float)


def _oracle_capture(s: np.ndarray, xs: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Dispatch capture for a batch of candidate sizings (K, n)."""
    sums = xs @ bits.T  # (K, 2^n)
    caps = np.zeros(xs.shape[0])
    for v in s:
        feas = np.where(sums <= v + 1e-12, sums, -np.inf)
        caps += feas.max(axis=1)
    return caps


def _milp_oracle(s: np.ndarray, n: int) -> float:
    """Exhaustive optimum via vertex candidates: any optimal sizing solves
    n independent tight constraints (subset level = sample value or size
    pinned to zero)."""
    bits = _subset_bits(n)
    patterns = bits[1:]
    eq_rows = []
    eq_rhs = []
    for p in patterns:
        for v in np.unique(s):
            eq_rows.append(p)
            eq_rhs.append(v)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        eq_rows.append(e)
        eq_rhs.append(0.0)
    eq_rows = np.asarray(eq_rows)
    eq_rhs = np.asarray(eq_rhs)
    combos = np.array(list(itertools.combinations(range(len(eq_rows)), n)))
    a = eq_rows[combos]  # (K, n, n)
    b = eq_rhs[combos]
    dets = np.abs(np.linalg.det(a)) > 1e-12
    a, b = a[dets], b[dets]
    xs = np.linalg.solve(a, b[..., None])[..., 0]
    valid = (xs >= -1e-12).all(axis=1)
    xs = np.clip(xs[valid], 0.0, None)
    if xs.size == 0:
        return float(s.sum())
    best_capture = float(_oracle_capture(s, xs, bits).max())
    return float(s.sum() - best_capture)


def test_criterion_06_milp_exactness():
    with criterion(6, "MILP equals exhaustive enumeration on 500 small instances in < 60 s"):
        t0 = time.perf_counter()
        inst = build_instance([0.3, 0.6, 0.9], 1)
        sol = branch_and_bound(inst, gap_tol=0.0)
        assert abs(sol.objective - 0.6) <= 1e-9
        assert abs(sol.x[0] - 0.6) <= 1e-9
        inst2 = build_instance([0.3, 0.6, 0.9], 2)
        sol2 = branch_and_bound(inst2, gap_tol=0.0)
        assert abs(sol2.objective - 0.0) <= 1e-9

        rng = np.random.default_rng(99)
        plan = [(1, 14, 200), (2, 7, 200), (3, 4, 90), (4, 3, 10)]
        cases = 0
        for n, t_max, count in plan:
            for _ in range(count):
                T = int(rng.integers(1, t_max + 1))
                s = np.round(rng.uniform(0.05, 1.0, size=T), 4)
                instance = build_instance(s, n)
                found = branch_and_bound(instance, gap_tol=0.0)
                expected = _milp_oracle(s, n)
                assert found.status == "optimal"
                assert abs(found.objective - expected) <= 1e-9
                assert np.abs(found.y - found.u * found.x[:, None]).max() <= 1e-6
                cases += 1
        runtime = time.perf_counter() - t0
        print(f"\n  {cases} random instances + 2 pinned cases in {runtime:.1f} s")
        assert cases >= 500
        assert runtime < 60.0


# ---------------------------------------------------------------------------
# 7. cross-method sanity on the synthetic clear day
# ---------------------------------------------------------------------------


def test_criterion_07_cross_method_clear_day(ref_model):
    with criterion(7, "MILP (ratio 1, 453 samples) and ICLS within 2 pp of analytic, n in {1, 2}"):
        series = normalize(clear_day_series())
        assert len(series) == 453
        sorted_all = sort_ascending(series, remove_zeros=False)
        sorted_nz = sort_ascending(series, remove_zeros=True)
        targets = {
            1: solve_single_load(ref_model).solar_utilization,
            2: solve_two_load(ref_model).solar_utilization,
        }
        for n in (1, 2):
            inst = build_instance(sorted_all.values, n)
            sol = branch_and_bound(inst, gap_tol=1e-6, node_limit=100)
            su_milp = dispatch_su(series.values, sol.x[sol.x > 1e-12])
            assert abs(su_milp - targets[n]) <= 0.02, f"MILP n={n}: {su_milp} vs {targets[n]}"
            icls = optimize_m(sorted_nz, n, restarts=4, seed=42)
            assert abs(icls.solar_utilization - targets[n]) <= 0.02


# ---------------------------------------------------------------------------
# 8. trend reproduction on the synthetic year
# ---------------------------------------------------------------------------


def test_criterion_08_year_trend(year_series, year_sorted, year_sorted_with_zeros):
    with criterion(8, "SU strictly increases n=2..6 per method; bands and <5 pp spread hold"):
        sus: dict[str, list[float]] = {"ecls": [], "icls": [], "milp": []}
        milp_reduced = downsample_uniform(year_sorted_with_zeros, 200)
        for n in range(2, 7):
            e = line_search_C(year_sorted, n)
            sus["ecls"].append(dispatch_su(year_series.values, e.x))
            i = optimize_m(year_sorted, n, restarts=4, seed=42)
            sus["icls"].append(i.solar_utilization)
            instance = build_instance(milp_reduced.values, n)
            m = branch_and_bound(instance, gap_tol=1e-6, node_limit=200)
            sus["milp"].append(dispatch_su(year_series.values, m.x[m.x > 1e-12]))
        print()
        for method, curve in sus.items():
            print(f"  {method}: {[round(v, 4) for v in curve]}")
            assert all(b > a for a, b in zip(curve, curve[1:])), method
            assert 0.65 <= curve[0] <= 0.80, method
            assert curve[-1] >= 0.95, method
        for k in range(5):
            spread = max(s[k] for s in sus.values()) - min(s[k] for s in sus.values())
            assert spread < 0.05, f"n={k + 2} spread {spread}"


# ---------------------------------------------------------------------------
# 9. downsampling stability
# ---------------------------------------------------------------------------


def test_criterion_09_downsampling_stability(year_sorted):
    with criterion(9, "MILP SU varies < 1 pp across ratios {50,100,200}; runtime decreases"):
        rows = downsample_sweep(year_sorted, 3, ratios=[50, 100, 200], node_limit=200)
        sus = [r.solar_utilization for r in rows]
        times = [r.runtime_seconds for r in rows]
        print(f"\n  SU by ratio: {[round(v, 4) for v in sus]}; runtimes {[round(t, 2) for t in times]}")
        assert max(sus) - min(sus) < 0.01
        assert times[0] > times[1] > times[2]
        assert rows[0].nodes_explored >= rows[1].nodes_explored >= rows[2].nodes_explored


# ---------------------------------------------------------------------------
# 10. dispatch fuzzing against the exhaustive per-step oracle
# ---------------------------------------------------------------------------


def test_criterion_10_dispatch_fuzz():
    with criterion(10, "100k fuzzed dispatch steps: never exceed, always match the oracle"):
        rng = np.random.default_rng(1234)
        total_cases = 0
        for n in range(1, 10):
            bits = _subset_bits(n)
            pops = bits.sum(axis=1)
            combos = np.arange(2**n)
            for _ in range(100):
                x = rng.uniform(0.02, 0.6, size=n)
                s = rng.uniform(0.0, 1.2, size=100)
                series = PowerSeries(
                    start=datetime(2021, 1, 1),
                    values=s,
                    interval_seconds=900,
                    s_max=1.0,
                    normalized=False,
                )
                sched = dispatch_greedy(series, x)
                draws = x @ sched.u
                assert (draws <= s + 1e-12).all()
                sums = bits @ x
                for k in range(s.size):
                    feas = sums <= s[k] + 1e-12
                    best = sums[feas].max()
                    winners = feas & (sums == best)
                    pmin = pops[winners].min()
                    winners &= pops == pmin
                    combo = combos[winners].min()
                    # score the scheduler's pick with the oracle's arithmetic
                    assert sums[sched.combo_index[k]] == best
                    assert sched.combo_index[k] == combo
                total_cases += s.size
        # dyadic sizes force exact draw ties and exercise the tie rules
        for _ in range(100):
            x = rng.integers(1, 32, size=6) / 64.0
            s = rng.integers(0, 96, size=100) / 64.0
            series = PowerSeries(
                start=datetime(2021, 1, 1),
                values=s.astype(float),
                interval_seconds=900,
                s_max=1.0,
                normalized=False,
            )
            sched = dispatch_greedy(series, x)
            draws = x @ sched.u
            bits = _subset_bits(6)
            pops = bits.sum(axis=1)
            combos = np.arange(64)
            sums = bits @ x
            for k in range(s.size):
                feas = sums <= s[k] + 1e-12
                best = sums[feas].max()
                winners = feas & (sums == best)
                pmin = pops[winners].min()
                winners &= pops == pmin
                assert sums[sched.combo_index[k]] == best
                assert sched.combo_index[k] == combos[winners].min()
            total_cases += s.size
        print(f"\n  {total_cases} fuzzed steps checked")
        assert total_cases >= 100_000


# ---------------------------------------------------------------------------
# 11. byte-identical reproducibility of the compare command
# ---------------------------------------------------------------------------


def test_criterion_11_reproducibility(year_csv, tmp_path):
    with criterion(11, "two `compare --seed 42` runs emit byte-identical CSVs"):
        runner = CliRunner()
        outputs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            result = runner.invoke(
                cli_main,
                [
                    "compare", "--seed", "42", "--n-range", "2-3",
                    str(year_csv), "--output-dir", str(outdir),
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append(
                (
                    (outdir / "comparison.csv").read_bytes(),
                    (outdir / "normalized_su.csv").read_bytes(),
                )
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
