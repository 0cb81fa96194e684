"""Quadrature for the log-norm integrals behind the exponent formulas.

The central quantity is the expected log length of the activated standard
Gaussian vector in R^d, where the activation max(a1*x, a2*x) acts
componentwise.  Frullani's integral representation of the logarithm turns
that expectation into a one-dimensional improper integral over t in
(0, infinity) whose integrand involves the chi-squared moment generating
function; this module evaluates it to near machine precision.

All integrals run on a logarithmic axis (t = e^s).  For small slopes the
integrand keeps mass out to t ~ 1/min(a_i^2), and for large ones it starts
in at t ~ 1/max(a_i^2); the substitution compresses both into a bounded
interval that adaptive Gauss-Kronrod panels handle comfortably.
"""

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import AccuracyError, DomainError

__all__ = [
    "ActivationSlopes",
    "activation_log_norm",
    "frullani_log",
]


# Error control of the adaptive integrator, read at call time.
_REL_TOL = 1e-12
_ABS_TOL = 1e-11
_MAX_SUBDIVISIONS = 2000

# Slope magnitudes the log-norm integral accepts; squares stay normal floats.
_SLOPE_MIN, _SLOPE_MAX = 1e-100, 1e100


@dataclass(frozen=True)
class ActivationSlopes:
    """Slope pair (alpha1, alpha2) of the activation max(alpha1*x, alpha2*x).

    Both slopes must be nonzero reals.  The canonical single-slope form is
    (1, alpha), built by :meth:`leaky_relu`.
    """

    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise DomainError(f"{name} must be a real number") from None
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.alpha1 == 0.0 or self.alpha2 == 0.0:
            raise DomainError("activation slopes must be nonzero")

    @classmethod
    def leaky_relu(cls, alpha: float) -> "ActivationSlopes":
        """Canonical form (1, alpha)."""
        return cls(1.0, alpha)

    @classmethod
    def relu(cls) -> "ActivationSlopes":
        # (1, 0) deliberately bypasses the nonzero check.  A zero slope makes
        # the exponent ill-defined, so the zero-absorption experiment in the
        # dynamics module is the only supported consumer.
        obj = object.__new__(cls)
        object.__setattr__(obj, "alpha1", 1.0)
        object.__setattr__(obj, "alpha2", 0.0)
        return obj


def _positive_int(value, name: str) -> int:
    """``value`` as an int; DomainError unless it is a positive integer."""
    try:
        integral = int(value) == value
    except (ValueError, OverflowError, TypeError):  # NaN, infinity, non-numbers
        integral = False
    if not integral or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _numerator(t: float, d: int, a1_sq: float, a2_sq: float) -> float:
    # e^{-t} minus the d-th power of the bracket, with the power taken as
    # exp(d * log(.)) so that large d underflows to zero instead of raising.
    bracket = 0.5 * (
        (1.0 + 2.0 * a1_sq * t) ** -0.5 + (1.0 + 2.0 * a2_sq * t) ** -0.5
    )
    power = d * math.log(bracket)
    return math.exp(-t) - (math.exp(power) if power > -745.0 else 0.0)


def _log_axis_quad(transformed, s_min: float, s_max: float):
    """Integrate a log-axis integrand g(s) over [s_min, s_max].

    Returns (value, error_bound); raises AccuracyError when the adaptive
    panels exhaust _MAX_SUBDIVISIONS without meeting the tolerance.
    """
    out = integrate.quad(
        transformed,
        s_min,
        s_max,
        epsabs=_ABS_TOL,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
    )
    value, error_bound = out[0], out[1]
    if len(out) > 3 and error_bound > max(_ABS_TOL, _REL_TOL * abs(value)):
        raise AccuracyError(
            f"quadrature did not converge within {_MAX_SUBDIVISIONS} "
            f"subdivisions (estimate {value!r}, error bound {error_bound!r})",
            best_estimate=value,
            error_bound=error_bound,
        )
    return value, error_bound


def _truncation_tail(d: int, a1_sq: float, a2_sq: float, s_max: float) -> float:
    # First-order closed form of the integral beyond T = e^{s_max}, where the
    # bracket has decayed to its power law.  Without it the truncated piece
    # reaches ~1.5e-9 at d = 1, far above _ABS_TOL.
    log_c = math.log((2.0 * a1_sq) ** -0.5 + (2.0 * a2_sq) ** -0.5)
    exponent = d * (log_c - math.log(2.0)) - 0.5 * d * s_max - math.log(d)
    return -math.exp(exponent) if exponent > -745.0 else 0.0


def activation_log_norm(d: int, slopes: ActivationSlopes) -> float:
    """Expected log length of the activated standard Gaussian d-vector.

    Absolute error is at most ``max(1e-11, 1e-12 * |result|)``.  The
    integration runs over s in [min(-40, -40 - log(max(a_i^2))),
    max(40, 40 + log(1/min(a_i^2)))]: the integrand only starts decaying
    past t ~ 1/min(a_i^2), and only starts growing near t ~ 1/max(a_i^2).
    Slope magnitudes outside [1e-100, 1e100] raise DomainError.
    """
    d = _positive_int(d, "width d")
    for a in (slopes.alpha1, slopes.alpha2):
        if not _SLOPE_MIN <= abs(a) <= _SLOPE_MAX:
            raise DomainError(
                f"slope magnitudes must lie in [{_SLOPE_MIN!r}, {_SLOPE_MAX!r}], got {a!r}"
            )
    a1_sq = slopes.alpha1 * slopes.alpha1
    a2_sq = slopes.alpha2 * slopes.alpha2
    s_min = min(-40.0, -40.0 - math.log(max(a1_sq, a2_sq)))
    s_max = max(40.0, 40.0 + math.log(1.0 / min(a1_sq, a2_sq)))

    def transformed(s: float) -> float:
        # g(s) = integrand(e^s) * e^s = numerator(e^s) / 2
        return 0.5 * _numerator(math.exp(s), d, a1_sq, a2_sq)

    value, _ = _log_axis_quad(transformed, s_min, s_max)
    return value + _truncation_tail(d, a1_sq, a2_sq, s_max)


def frullani_log(x: float) -> float:
    """log(x) evaluated through its exponential-difference integral.

    Serves as the engine's self test: the same panel machinery that powers
    the exponent integrals must reproduce the built-in logarithm.
    """
    if not isinstance(x, (int, float)) or not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be a finite positive real, got {x!r}")
    x = float(x)
    # Left tail behaves like (x-1) e^s, right tail needs t out to ~40/x.
    s_min = -40.0 - max(0.0, math.log1p(abs(x - 1.0)))
    s_max = 40.0 + max(0.0, -math.log(x))

    def transformed(s: float) -> float:
        t = math.exp(s)
        return math.exp(-t) - math.exp(-x * t)

    value, _ = _log_axis_quad(transformed, s_min, s_max)
    return value
