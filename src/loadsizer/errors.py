"""Exception hierarchy shared by all loadsizer modules, and ``integer``, the
one check of every integer argument: a count, length, budget, ratio or seed.

Exit-code mapping used by the CLI: data/parse/domain/numeric errors exit
with 1, usage errors with 2, partial multi-method failures with 3.
"""

import numbers


class LoadSizerError(Exception):
    """Base class for all loadsizer errors."""


class ParseError(LoadSizerError):
    """Input file could not be parsed (bad row, bad header, empty file)."""


class DataError(LoadSizerError):
    """Input data violates a precondition (domain errors included)."""


class FitError(LoadSizerError):
    """A model fit did not converge or is ill-posed."""


class NumericError(LoadSizerError):
    """A numerical routine failed (no bracket, singular system, cycling)."""


class UsageError(LoadSizerError):
    """Inconsistent options or knobs outside their documented ranges."""


def integer(value, name: str, low: int | None = None) -> int:
    """The argument ``name`` as an ``int``. A bool or a non-integer (a
    NumPy integer is accepted) raises ``DataError``, and so does a value
    below ``low``; nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise DataError(f"{name} must be >= {low}")
    return value
