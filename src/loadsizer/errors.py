"""Exception hierarchy shared by all loadsizer modules, and the one check
of a load count that every route refuses a bad ``n`` with.

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


def load_count(n) -> int:
    """A load count ``n`` as an ``int``. A bool or a non-integer (a NumPy
    integer is accepted) raises ``DataError``; every route that takes an
    ``n`` refuses one here."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DataError(f"n must be an integer, got {n!r}")
    return int(n)
