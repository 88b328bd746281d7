"""Downsampling sweep: solve the instance per ratio and score on full data."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..ecls import dispatch_su
from ..errors import integer
from ..timeseries import SortedSeries, downsample_uniform
from .bnb import branch_and_bound
from .instance import build_instance

DOWNSAMPLED_NODE_LIMIT = 200  # the node budget of a downsampled year's tree


@dataclass(frozen=True)
class SweepRow:
    ratio: int
    solar_utilization: float
    runtime_seconds: float
    nodes_explored: int
    objective: float
    x: tuple[float, ...]


def downsample_sweep(
    sorted_series: SortedSeries,
    n: int,
    ratios,
    node_limit: int = DOWNSAMPLED_NODE_LIMIT,
) -> list[SweepRow]:
    """Build and solve one instance per downsampling ratio, each tree
    within ``node_limit`` nodes (also the CLI's ``--node-limit`` default).

    Utilization is always computed by dispatching the resulting sizes over
    the full-resolution series (`dispatch_su`), so rows compare across ratios.
    """
    rows = []
    for ratio in ratios:
        ratio = integer(ratio, "ratio", 1)
        reduced = downsample_uniform(sorted_series, ratio)
        t0 = time.perf_counter()
        instance = build_instance(reduced.values, n)
        solution = branch_and_bound(instance, node_limit=node_limit)
        runtime = time.perf_counter() - t0
        rows.append(
            SweepRow(
                ratio=ratio,
                solar_utilization=dispatch_su(sorted_series.values, solution.x),
                runtime_seconds=runtime,
                nodes_explored=solution.nodes_explored,
                objective=solution.objective,
                x=tuple(float(v) for v in np.sort(solution.x)[::-1]),
            )
        )
    return rows
