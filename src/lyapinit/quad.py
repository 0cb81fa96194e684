"""Quadrature for the log-norm integrals behind the exponent formulas.

The central quantity is the expected log length of the activated standard
Gaussian vector in R^d, where the activation max(a1*x, a2*x) acts
componentwise.  Frullani's integral representation of the logarithm turns
that expectation into a one-dimensional improper integral over t in
(0, infinity) whose integrand involves the chi-squared moment generating
function; this module evaluates it to near machine precision.

All integrals run on a logarithmic axis (t = e^s).  For small slopes the
integrand keeps mass out to t ~ 1/min(a_i^2), which the substitution
compresses into a bounded interval that adaptive Gauss-Kronrod panels
handle comfortably.
"""

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import AccuracyError, DomainError

__all__ = [
    "ActivationSlopes",
    "activation_log_norm_integrand",
    "activation_log_norm",
    "frullani_log",
]


# Error control of the adaptive integrator, read at call time.
_REL_TOL = 1e-12
_ABS_TOL = 1e-11
_MAX_SUBDIVISIONS = 2000


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

    def min_slope_sq(self) -> float:
        return min(self.alpha1 * self.alpha1, self.alpha2 * self.alpha2)


def _validate_width(d) -> int:
    if int(d) != d or d < 1:
        raise DomainError(f"width d must be a positive integer, got {d!r}")
    return int(d)


def _numerator(t: float, d: int, a1_sq: float, a2_sq: float) -> float:
    # e^{-t} minus the d-th power of the bracket, with the power taken as
    # exp(d * log(.)) so that large d underflows to zero instead of raising.
    bracket = 0.5 * (
        (1.0 + 2.0 * a1_sq * t) ** -0.5 + (1.0 + 2.0 * a2_sq * t) ** -0.5
    )
    power = d * math.log(bracket)
    return math.exp(-t) - (math.exp(power) if power > -745.0 else 0.0)


def activation_log_norm_integrand(t: float, d: int, slopes: ActivationSlopes) -> float:
    """Integrand of the log-norm integral at abscissa ``t >= 0``.

    At t = 0 the 0/0 form is replaced by its Taylor limit
    ``(d*(a1^2 + a2^2)/2 - 1)/2``, which keeps the origin panel smooth.
    """
    d = _validate_width(d)
    if not isinstance(t, (int, float)) or not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t must be a finite nonnegative real, got {t!r}")
    a1_sq = slopes.alpha1 * slopes.alpha1
    a2_sq = slopes.alpha2 * slopes.alpha2
    if t == 0.0:
        return (d * (a1_sq + a2_sq) / 2.0 - 1.0) / 2.0
    return _numerator(t, d, a1_sq, a2_sq) / (2.0 * t)


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
    integration runs over s in [-40, max(40, 40 + log(1/min(a_i^2)))]; the
    upper limit stretches with small slopes because the integrand only
    starts decaying past t ~ 1/min(a_i^2).
    """
    d = _validate_width(d)
    a1_sq = slopes.alpha1 * slopes.alpha1
    a2_sq = slopes.alpha2 * slopes.alpha2
    s_min = -40.0
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
