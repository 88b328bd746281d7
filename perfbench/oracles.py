"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``loadsizer``: subset sums, dispatch choices and the
exact MILP optimum are rebuilt from numpy alone, so a fault in the
program's own evaluator cannot hide itself by agreeing with its checker.
"""

from __future__ import annotations

import csv
import itertools
from datetime import datetime

import numpy as np

FEAS_TOL = 1e-12  # the draw may exceed the available power by this much
NEAR = 1e-11  # subset sums closer than this to each other or to S are ambiguous


def read_power_csv(path) -> tuple[list[datetime], np.ndarray]:
    """Timestamps and peak-normalized power of a ``timestamp,power_w`` CSV."""
    stamps: list[datetime] = []
    watts: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for stamp, power in rows:
            stamps.append(datetime.fromisoformat(stamp))
            watts.append(float(power))
    values = np.array(watts)
    return stamps, values / values.max()


def subsets(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw, combo index and load count of all 2^n subsets, built by doubling.

    Load 1 is the most significant bit of the combo index, as in the
    schedule CSV; each doubling step appends load i to every subset so far.
    """
    sums = np.zeros(1)
    masks = np.zeros(1, dtype=np.int64)
    pops = np.zeros(1, dtype=np.int64)
    for xi in np.asarray(x, dtype=float):
        sums = np.concatenate([sums, sums + xi])
        masks = np.concatenate([masks << 1, (masks << 1) | 1])
        pops = np.concatenate([pops, pops + 1])
    return sums, masks, pops


def su_interval(values: np.ndarray, x, rel: float) -> tuple[float, float]:
    """Bounds on the dispatched utilization of every size vector within ``rel``
    (relative) of ``x``.

    A CSV rounds sizes, and the optimal sizes of ICLS and MILP sit on
    capture discontinuities, where a subset's draw equals a sample exactly;
    the bounds hold whatever the unrounded sizes were. At each step the
    lower bound keeps only subsets that fit at the largest sizes in the box
    and counts their smallest draw; the upper bound admits every subset
    that fits at the smallest sizes and counts its largest draw.
    """
    x = np.asarray(x, dtype=float)
    lo, _, _ = subsets(x * (1.0 - rel))
    hi, _, _ = subsets(x * (1.0 + rel))
    total = float(values.sum())

    def best(keys, gains):
        order = np.argsort(keys, kind="stable")
        keys, gains = keys[order], np.maximum.accumulate(gains[order])
        idx = np.searchsorted(keys, values, side="right") - 1
        return float(gains[np.maximum(idx, 0)].sum())  # the empty subset always fits

    return best(hi, lo) / total, best(lo, hi) / total


def dispatch_check(values: np.ndarray, x, combo: np.ndarray) -> tuple[int, int]:
    """Check a per-step combo choice against the best-subset rule.

    The rule: the largest draw that fits under S, and among equal draws the
    fewest loads on, then the lowest combo index. Returns
    ``(bad_steps, ambiguous_steps)``. A step is ambiguous when another
    subset's draw lies within ``NEAR`` of the best one or of S: there the
    summation order of the draws decides, so any subset in that band is
    accepted. An exact tie clear of S is not ambiguous; the tie rule
    decides it.
    """
    sums, masks, pops = subsets(x)
    order = np.lexsort((masks, pops, sums))
    sums = sums[order]
    rank = np.empty(order.size, dtype=np.int64)
    rank[masks[order]] = np.arange(order.size)
    chosen = rank[np.asarray(combo, dtype=np.int64)]

    top = sums[np.searchsorted(sums, values, side="right") - 1]  # sums[0] == 0 always fits
    winner = np.searchsorted(sums, top, side="left")  # first of its equal-draw group
    first = np.searchsorted(sums, top - NEAR, side="left")
    last = np.searchsorted(sums, values + NEAR, side="right")
    exact_tie = (sums[first] == top) & (sums[last - 1] == top) & (top < values - NEAR)
    strict = (last - first == 1) | exact_tie
    ok = np.where(strict, chosen == winner, (chosen >= first) & (chosen < last))
    return int((~ok).sum()), int((~strict).sum())


def combos_from_bits(u: np.ndarray) -> np.ndarray:
    """Combo index per step from an (n, T) 0/1 matrix, load 1 most significant."""
    combo = np.zeros(u.shape[1], dtype=np.int64)
    for row in u:
        combo = (combo << 1) | row.astype(np.int64)
    return combo


def milp_optimum(s, n: int) -> float:
    """Exact minimum total mismatch of the sizing problem on profile ``s``.

    Capture as a function of the sizes is piecewise linear, and each piece
    is bounded by hyperplanes "the draw of subset S equals sample v" and
    "size i is zero", so some optimum is a vertex where n independent ones
    meet. Every vertex is solved for and scored by direct dispatch.
    """
    s = np.asarray(s, dtype=float)
    sums_bits = np.array(
        [[(mask >> (n - 1 - i)) & 1 for i in range(n)] for mask in range(2**n)], dtype=float
    )
    planes = [(sums_bits[mask], v) for mask in range(1, 2**n) for v in np.unique(s)]
    planes += [(np.eye(n)[i], 0.0) for i in range(n)]
    normals = np.array([p[0] for p in planes])
    levels = np.array([p[1] for p in planes])
    picks = np.array(list(itertools.combinations(range(len(planes)), n)))
    a = normals[picks]
    b = levels[picks]
    keep = np.abs(np.linalg.det(a)) > 1e-9
    x = np.linalg.solve(a[keep], b[keep][..., None])[..., 0]
    x = x[(x >= -1e-12).all(axis=1)].clip(min=0.0)
    draws = x @ sums_bits.T  # (K, 2^n)
    capture = np.zeros(x.shape[0])
    for v in s:
        capture += np.where(draws <= v + 1e-9, np.minimum(draws, v), 0.0).max(axis=1)
    return float(s.sum() - capture.max()) if capture.size else float(s.sum())
