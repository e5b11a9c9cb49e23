"""Argument-validation helpers with uniform error messages.

These raise :class:`repro.errors.ConfigurationError` (a ``ValueError``
subclass) so user-facing constructors fail fast with a message naming the
offending parameter.
"""

from __future__ import annotations

from numbers import Integral, Real

import numpy as np

from repro.errors import ConfigurationError


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an integer > 0 and return it as ``int``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return int(value)


def check_nonnegative_int(value, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_index(value, name: str, bound: int) -> int:
    """Validate that ``value`` is an integer in ``[0, bound)`` and return it
    as ``int`` — no bools, no floats, no negative (wrap-around) indices."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < bound:
        raise ConfigurationError(f"{name} must be in [0, {bound}), got {value}")
    return int(value)


def check_positive(value, name: str) -> float:
    """Validate that ``value`` is a real number > 0 and return it as float."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return float(value)


def check_probability(value, name: str) -> float:
    """Validate ``0 <= value <= 1``."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def check_fraction(value, name: str, *, open_left: bool = False, open_right: bool = False) -> float:
    """Validate a fraction in [0, 1] with optionally open endpoints."""
    v = check_probability(value, name)
    if open_left and v == 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if open_right and v == 1.0:
        raise ConfigurationError(f"{name} must be < 1, got {value}")
    return v


def check_finite_array(
    arr: np.ndarray, name: str, *, nonnegative: bool = False
) -> np.ndarray:
    """Validate every entry of ``arr`` is finite (and optionally >= 0).

    On failure the error names the first offending index *and* its
    value, so a NaN read count or an ``inf`` link cost in a thousand-row
    matrix is immediately locatable instead of propagating silently into
    the benefit math.  Returns ``arr`` unchanged.
    """
    arr = np.asarray(arr)
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        pos = idx[0] if len(idx) == 1 else idx
        raise ConfigurationError(
            f"{name} must be finite, but entry {pos} is {float(arr[idx])!r} "
            f"— check the generator or input file that produced it"
        )
    if nonnegative:
        neg = arr < 0
        if neg.any():
            idx = tuple(int(i) for i in np.argwhere(neg)[0])
            pos = idx[0] if len(idx) == 1 else idx
            raise ConfigurationError(
                f"{name} must be non-negative, but entry {pos} is "
                f"{float(arr[idx])!r} — check the generator or input file "
                f"that produced it"
            )
    return arr
