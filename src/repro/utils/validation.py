"""Argument-validation helpers used by public constructors.

Centralizing the checks keeps error messages consistent and the
constructors readable.  All raise :class:`repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..constants import MAX_KEY, MAX_VALUE, VALID_GROUP_SIZES
from ..errors import ConfigurationError

__all__ = [
    "check_group_size",
    "check_integral",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_load_factor",
    "check_probability",
    "check_keys",
    "check_values",
    "check_same_length",
    "check_choice",
]


def check_group_size(g: int) -> int:
    """Validate a coalesced-group size |g| (paper: divisors of the warp)."""
    if g not in VALID_GROUP_SIZES:
        raise ConfigurationError(
            f"group size must be one of {VALID_GROUP_SIZES}, got {g!r}"
        )
    return int(g)


def check_integral(name: str, value: object) -> int:
    """Reject non-integer counts (``128.5``, ``None``, a topology, ...)."""
    if not isinstance(value, numbers.Integral):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__}"
        )
    return int(value)


def check_positive(name: str, value: float | int) -> float | int:
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float | int) -> float | int:
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str, value: float, lo: float, hi: float, *, inclusive: bool = True
) -> float:
    ok = lo <= value <= hi if inclusive else lo < value < hi
    if not ok:
        bounds = f"[{lo}, {hi}]" if inclusive else f"({lo}, {hi})"
        raise ConfigurationError(f"{name} must be in {bounds}, got {value!r}")
    return value


def check_load_factor(alpha: float) -> float:
    """Target load factor α = n/c must lie in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"load factor must be in (0, 1], got {alpha!r}")
    return float(alpha)


def check_probability(name: str, p: float) -> float:
    return float(check_in_range(name, p, 0.0, 1.0))


def check_keys(keys: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a key array to uint32 within [0, MAX_KEY]."""
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ConfigurationError(f"keys must be 1-D, got shape {arr.shape}")
    if arr.size and (
        not np.issubdtype(arr.dtype, np.integer)
        or int(arr.min(initial=0)) < 0
        or int(arr.max(initial=0)) > MAX_KEY
    ):
        raise ConfigurationError(
            f"keys must be integers in [0, {MAX_KEY}] (two top values are "
            f"reserved for EMPTY/TOMBSTONE sentinels)"
        )
    return arr.astype(np.uint32, copy=False)


def check_values(values: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a value array to uint32."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ConfigurationError(f"values must be 1-D, got shape {arr.shape}")
    if arr.size and (
        not np.issubdtype(arr.dtype, np.integer)
        or int(arr.min(initial=0)) < 0
        or int(arr.max(initial=0)) > MAX_VALUE
    ):
        raise ConfigurationError(f"values must be integers in [0, {MAX_VALUE}]")
    return arr.astype(np.uint32, copy=False)


def check_same_length(a_name: str, a: Sequence | np.ndarray, b_name: str, b) -> None:
    if len(a) != len(b):
        raise ConfigurationError(
            f"{a_name} and {b_name} must have equal length "
            f"({len(a)} != {len(b)})"
        )


def check_choice(name: str, value: Any, choices: Sequence[Any]) -> Any:
    if value not in choices:
        raise ConfigurationError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value
