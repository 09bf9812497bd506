"""Small argument-validation helpers used across the library.

These helpers raise ``ValueError``/``TypeError`` with consistent messages so
that configuration mistakes surface at construction time rather than deep
inside a simulation run.
"""

from __future__ import annotations

from typing import Any, Iterable


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if not value >= 0:  # also rejects NaN
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1)``)."""
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_in(value: Any, options: Iterable[Any], name: str) -> Any:
    """Validate that ``value`` is one of ``options`` and return it."""
    options = tuple(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")
    return value


def check_type(value: Any, expected: type | tuple[type, ...], name: str) -> Any:
    """Validate that ``value`` is an instance of ``expected`` and return it."""
    if not isinstance(value, expected):
        raise TypeError(f"{name} must be {expected!r}, got {type(value)!r}")
    return value
