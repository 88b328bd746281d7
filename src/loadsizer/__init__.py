"""loadsizer: optimal static sizing and scheduling of binary-switchable loads
tracking a variable (solar) power time series.

Four sizing routes are provided and cross-validated: a semianalytic solver
for symmetric clear-day curves, equality-constrained least squares (ECLS),
inequality-constrained least squares with variable switch blocks (ICLS),
and a big-M mixed-integer formulation solved by in-house LP relaxation
branch and bound (MILP). Solar utilization of any sizing is evaluated by
per-timestep dispatch over the full-resolution series.
"""

from .errors import (
    DataError,
    FitError,
    LoadSizerError,
    NumericError,
    ParseError,
    UsageError,
)
from .timeseries import (
    ClearSkyModel,
    PowerSeries,
    SortedSeries,
    downsample_uniform,
    fit_clear_day,
    load_series,
    model_inverse,
    model_inverse_derivative,
    normalize,
    sort_ascending,
)

__version__ = "0.1.0"

__all__ = [
    "ClearSkyModel",
    "DataError",
    "FitError",
    "LoadSizerError",
    "NumericError",
    "ParseError",
    "PowerSeries",
    "SortedSeries",
    "UsageError",
    "downsample_uniform",
    "fit_clear_day",
    "load_series",
    "model_inverse",
    "model_inverse_derivative",
    "normalize",
    "sort_ascending",
    "__version__",
]
