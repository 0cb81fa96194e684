"""Exception types shared across the package, and the argument checks that raise them."""

import math
from typing import Optional


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(ArithmeticError):
    """The integrator could not reach the requested tolerance.

    Carries the best available estimate together with its error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


def _integer(value, name: str, least: int = 1, most: Optional[int] = None) -> int:
    """``value`` as an int; DomainError unless it is an integer in [least, most]."""
    try:
        integral = int(value) == value
    except (ValueError, OverflowError, TypeError):  # NaN, infinity, non-numbers
        integral = False
    if not integral or value < least or (most is not None and value > most):
        if most is not None:
            what = f"an integer in [{least}, {most}]"
        else:
            what = "a positive integer" if least == 1 else f"an integer of at least {least}"
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _finite_real(value, name: str, what: str = "real", holds=None) -> float:
    """``value`` as a float; DomainError unless it is finite and ``holds`` for it."""
    try:
        real = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError):  # not a number
        real = math.nan
    if not math.isfinite(real) or (holds is not None and not holds(real)):
        raise DomainError(f"{name} must be a finite {what}, got {value!r}")
    return real


def _positive_real(value, name: str) -> float:
    return _finite_real(value, name, "positive real", lambda v: v > 0.0)


def _nonzero_real(value, name: str) -> float:
    return _finite_real(value, name, "nonzero real", lambda v: v != 0.0)
