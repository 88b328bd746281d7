"""Shared result containers, JSON helpers and CSV column writers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError


def as_load_sizing(x) -> np.ndarray:
    """Validate and return a static load size vector: positive, non-increasing."""
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise DataError("load sizing must have at least one unit")
    if (arr <= 0).any():
        raise DataError(f"load sizes must be positive, got {arr.tolist()}")
    if (np.diff(arr) > 1e-12).any():
        raise DataError(f"load sizes must be non-increasing, got {arr.tolist()}")
    return arr


@dataclass
class SizingResult:
    """Uniform record of one sizing run, whichever method produced it."""

    method: str
    n: int
    x: list[float]
    objective: float
    solar_utilization: float
    diagnostics: dict[str, Any] = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "n": self.n,
            "x": [float(v) for v in self.x],
            "objective": float(self.objective),
            "solar_utilization": float(self.solar_utilization),
            "diagnostics": _jsonable(self.diagnostics),
            "runtime_seconds": float(self.runtime_seconds),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


_FLOAT_FORMAT = ".12g"


def format_float(v: float) -> str:
    """Deterministic float formatting used by all CSV emitters."""
    return format(float(v), _FLOAT_FORMAT)


def format_floats(values) -> list[str]:
    """:func:`format_float` of every element of ``values``, as one column."""
    return [format(v, _FLOAT_FORMAT) for v in np.asarray(values, dtype=float).tolist()]


# Rows parsed, formatted or written at a time by the CSV readers and
# writers: the intermediates of one block are held in memory, never those
# of the whole file.
CSV_BLOCK_ROWS = 4096


def write_csv_columns(path, header: list[str], size: int, columns) -> Path:
    """Write ``header`` and ``size`` rows, one block of rows at a time.

    ``columns(block)`` returns the text of every column over the rows in the
    slice ``block``. Rows end in ``\\r\\n`` as the ``csv`` module writes them;
    fields are not quoted, so none may hold a comma, quote or line break.
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, size, CSV_BLOCK_ROWS):
            rows = zip(*columns(slice(lo, lo + CSV_BLOCK_ROWS)))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
    return path
