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

from ..errors import DataError, integer
from ..timeseries import profile_values


@dataclass(frozen=True)
class MilpInstance:
    """A profile and its load count, checked on construction: the profile
    by `timeseries.profile_values` and n by `errors.integer`, an integer
    >= 1 (a NumPy integer is stored as its ``int``).

    The instance carries no big-M constant: with sizes capped at
    ``max(s)``, which some optimum always satisfies, every ``M >= max(s)``
    gives the same relaxation and the same optimum.
    """

    s: np.ndarray = field(repr=False)  # profile values, any order
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", profile_values(self.s))
        object.__setattr__(self, "n", integer(self.n, "n", 1))

    @property
    def horizon(self) -> int:
        return self.s.size

    @property
    def total_power(self) -> float:
        return float(self.s.sum())

    def fix_masks(self, fixes) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (n, T) masks of the binaries ``fixes`` pins to 1 and to 0."""
        n, T = self.n, self.horizon
        fixed_on = np.zeros((n, T), dtype=bool)
        fixed_off = np.zeros((n, T), dtype=bool)
        for (i, t), value in (fixes or {}).items():
            if not (0 <= i < n and 0 <= t < T):
                raise DataError(f"fix ({i}, {t}) is outside the {n} x {T} binaries")
            if value not in (0, 1):
                raise DataError(f"fix ({i}, {t}) must be 0 or 1, got {value!r}")
            (fixed_on if value == 1 else fixed_off)[i, t] = True
        return fixed_on, fixed_off


build_instance = MilpInstance  # its older name, which the CLI, perfbench and the README call
