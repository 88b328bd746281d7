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
    """A profile and its load count, checked on construction: at least one
    sample, every value finite and >= 0, and an integer n >= 1 (a NumPy
    integer is stored as its ``int``); anything else raises ``DataError``.

    The instance carries no big-M constant: with sizes capped at
    ``max(s)``, which some optimum always satisfies, every ``M >= max(s)``
    gives the same relaxation and the same optimum.
    """

    s: np.ndarray = field(repr=False)  # profile values, any order
    n: int

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float).ravel()
        if s.size < 1:
            raise DataError("instance needs at least one sample")
        if not np.isfinite(s).all() or (s < 0).any():
            raise DataError("profile values must be finite and >= 0")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise DataError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DataError("n must be >= 1")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n", int(self.n))

    @property
    def horizon(self) -> int:
        return self.s.size

    @property
    def total_power(self) -> float:
        return float(self.s.sum())


build_instance = MilpInstance  # its older name, which the CLI, perfbench and the README call
