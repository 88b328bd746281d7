"""Big-M instance of the sizing problem.

Variables: sizes ``x_i``, binaries ``u_i(t)`` and committed demands
``y_i(t)``. Constraints per timestep: ``sum_i y_i(t) <= s_t`` plus, per
load and timestep, ``y <= u*M``, ``y >= 0``, ``y <= x`` and
``y >= x + (u - 1)*M``; the objective minimizes the total mismatch
``sum_t (s_t - sum_i y_i(t))``. Any ``M >= max(s)`` is exact, and no
solver reads M: the relaxation eliminates y and u (see ``relaxation``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class MilpInstance:
    s: np.ndarray = field(repr=False)  # profile values, any order
    n: int

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float).ravel()
        object.__setattr__(self, "s", s)

    @property
    def horizon(self) -> int:
        return self.s.size

    @property
    def total_power(self) -> float:
        return float(self.s.sum())


def build_instance(values, n: int) -> MilpInstance:
    """Validate the profile and the load count, an integer >= 1 (a
    NumPy integer is taken as its ``int``).

    The instance carries no big-M constant: with sizes capped at
    ``max(values)``, which some optimum always satisfies, every
    ``M >= max(values)`` gives the same relaxation and the same optimum.
    """
    s = np.asarray(values, dtype=float).ravel()
    if s.size < 1:
        raise DataError("instance needs at least one sample")
    if not np.isfinite(s).all() or (s < 0).any():
        raise DataError("profile values must be finite and >= 0")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DataError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise DataError("n must be >= 1")
    return MilpInstance(s=s, n=int(n))
