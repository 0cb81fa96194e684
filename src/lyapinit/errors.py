"""Exception types shared across the package, and the argument checks that raise them."""

import math
import sys
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


def _shown(value) -> str:
    """``repr(value)``, or its order of magnitude for an int past 1e300,
    which ``repr`` refuses from 4300 digits on."""
    if isinstance(value, int) and abs(value) > 1e300:
        return f"about {'-' if value < 0 else ''}10**{math.log10(abs(value)):.2f}"
    return repr(value)


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
        raise DomainError(f"{name} must be {what}, got {_shown(value)}")
    return int(value)


def _width(value) -> int:
    """``value`` as a width d; DomainError unless it is a positive integer up to 1e300.

    From about 1e307 the quadrature's d * log(bracket) leaves the float range.
    """
    d = _integer(value, "width d")
    if d > 1e300:
        raise DomainError(f"width d must be at most 1e300, got {_shown(d)}")
    return d


def _addressable(floats: int, what: str) -> int:
    """``floats``; DomainError if that many float64 exceed ``sys.maxsize`` bytes, numpy's array limit."""
    if floats > sys.maxsize // 8:
        raise DomainError(f"{what} would hold about 10**{math.log10(floats):.1f} floats, past numpy's array limit")
    return floats


def _finite_real(value, name: str, what: str = "real", holds=None) -> float:
    """``value`` as a float; DomainError unless it is finite and ``holds`` for it."""
    try:
        real = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):  # not a number, or an int past the float range
        real = math.nan
    if not math.isfinite(real) or (holds is not None and not holds(real)):
        raise DomainError(f"{name} must be a finite {what}, got {_shown(value)}")
    return real


def _positive_real(value, name: str) -> float:
    return _finite_real(value, name, "positive real", lambda v: v > 0.0)


def _nonzero_real(value, name: str) -> float:
    return _finite_real(value, name, "nonzero real", lambda v: v != 0.0)
