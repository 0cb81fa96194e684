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
interval that composite Gauss-Legendre panels of fixed width handle as one
numpy evaluation.  Equal slope magnitudes need no quadrature: the activation
is then |a| times the identity, and E log|g| = (psi(d/2) + log 2) / 2.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, _nonzero_real, _width

__all__ = [
    "ActivationSlopes",
    "activation_log_norm",
]


# Error control of the panel rule, read at call time (the widths key the
# memo of slope terms).
_REL_TOL = 1e-12
_ABS_TOL = 1e-11
# Widest panel on the log axis for the returned rule, and for the coarser
# rule whose difference from it is the error estimate.
_PANEL_WIDTH = 3.0
_CHECK_WIDTH = 4.0

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)

# Slope magnitudes the log-norm integral accepts; squares stay normal floats.
_SLOPE_MIN, _SLOPE_MAX = 1e-100, 1e100

# psi(1) = -gamma and psi(1/2) = -gamma - 2 log 2, correctly rounded.
_PSI_ONE, _PSI_HALF = -0.5772156649015329, -1.9635100260214235


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
            object.__setattr__(self, name, _nonzero_real(getattr(self, name), name))

    @classmethod
    def leaky_relu(cls, alpha: float) -> "ActivationSlopes":
        """Canonical form (1, alpha)."""
        return cls(1.0, _nonzero_real(alpha, "slope alpha"))

    @classmethod
    def relu(cls) -> "ActivationSlopes":
        # (1, 0) deliberately bypasses the nonzero check.  A zero slope makes
        # the exponent ill-defined, so the zero-absorption experiment in the
        # dynamics module is the only supported consumer.
        obj = object.__new__(cls)
        object.__setattr__(obj, "alpha1", 1.0)
        object.__setattr__(obj, "alpha2", 0.0)
        return obj


def _half_digamma(d: int) -> float:
    """psi(d/2) for a positive integer d."""
    if d < 40:
        # psi(x + 1) = psi(x) + 1/x, up from psi(1/2) or psi(1)
        if d % 2:
            return math.fsum([_PSI_HALF] + [2.0 / (2 * k + 1) for k in range(d // 2)])
        return math.fsum([_PSI_ONE] + [1.0 / k for k in range(1, d // 2)])
    # Asymptotic series through x^-12; its next term is below 1e-17 at x = 20.
    x = 0.5 * d
    z = 1.0 / (x * x)
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (1 / 132 - z * (691 / 32760))))))
    return math.log(x) - 0.5 / x - series


def _slope_terms(s, a1_sq: float, a2_sq: float):
    """(e^{-t} - 1, log bracket(t)) at t = e^s: the integrand's terms that do
    not depend on the width.

    ``bracket = ((1 + 2 a1^2 t)^{-1/2} + (1 + 2 a2^2 t)^{-1/2}) / 2``.  Both
    terms are formed as ``expm1``/``log1p`` of their distance from 1, so the
    difference in ``_width_term`` keeps full relative accuracy where it is
    small, and ``2 a^2 t`` is capped at e^700, where its term is already
    negligible against the other one, so nothing overflows.
    """
    y1 = np.expm1(-0.5 * np.log1p(np.exp(np.minimum(s + math.log(2.0 * a1_sq), 700.0))))
    y2 = np.expm1(-0.5 * np.log1p(np.exp(np.minimum(s + math.log(2.0 * a2_sq), 700.0))))
    # where both terms hit the cap the bracket is 0, and its log -inf is exact
    with np.errstate(divide="ignore"):
        return np.expm1(-np.exp(s)), np.log1p(0.5 * (y1 + y2))


def _width_term(d: int, exp_term, log_bracket):
    """g(s) = (e^{-t} - bracket(t)^d) / 2 at t = e^s, the integrand on the
    log axis, from the ``_slope_terms`` at s."""
    return 0.5 * (exp_term - np.expm1(d * log_bracket))


def _panel_nodes(s_min: float, s_max: float, width: float):
    """Nodes, one row per panel, and half panel width of 20-point
    Gauss-Legendre panels at most ``width`` wide."""
    n = math.ceil((s_max - s_min) / width)
    h = (s_max - s_min) / n
    return (s_min + h * (np.arange(n) + 0.5))[:, None] + (0.5 * h) * _NODES, 0.5 * h


def _rule_nodes(s_min: float, s_max: float, panel_width: float, check_width: float):
    """Nodes on [s_min, s_max] of the returned rule, then of the coarser
    check rule, as one array, and the rule that ``_rule_sum`` reads."""
    fine, fine_half = _panel_nodes(s_min, s_max, panel_width)
    check, check_half = _panel_nodes(s_min, s_max, check_width)
    rule = (fine.shape, fine_half, check.shape, check_half, panel_width)
    return np.concatenate((fine.ravel(), check.ravel())), rule


def _rule_sum(g, rule):
    """Integrate from the integrand's values ``g`` at the nodes of ``rule``.

    Returns (value, error_estimate).  The estimate is the difference from the
    check rule; AccuracyError is raised when it exceeds
    ``max(_ABS_TOL, _REL_TOL * |value|)``.
    """
    fine_shape, fine_half, check_shape, check_half, panel_width = rule
    split = fine_shape[0] * fine_shape[1]
    value = fine_half * float(g[:split].reshape(fine_shape).sum(axis=0) @ _WEIGHTS)
    check_value = check_half * float(g[split:].reshape(check_shape).sum(axis=0) @ _WEIGHTS)
    error = abs(value - check_value)
    if not error <= max(_ABS_TOL, _REL_TOL * abs(value)):
        raise AccuracyError(
            f"quadrature missed its tolerance with panels {panel_width!r} wide "
            f"(estimate {value!r}, error estimate {error!r})",
            best_estimate=value,
            error_bound=error,
        )
    return value, error


def _truncation_tail(d: int, a1_sq: float, a2_sq: float, s_max: float) -> float:
    # First-order closed form of the integral beyond T = e^{s_max}, where the
    # bracket has decayed to its power law.  Without it the truncated piece
    # reaches ~1.5e-9 at d = 1, far above _ABS_TOL.
    log_c = math.log((2.0 * a1_sq) ** -0.5 + (2.0 * a2_sq) ** -0.5)
    exponent = d * (log_c - math.log(2.0)) - 0.5 * d * s_max - math.log(d)
    return -math.exp(exponent) if exponent > -745.0 else 0.0


@functools.lru_cache(maxsize=8)
def _log_norm_rule(a1_sq: float, a2_sq: float, panel_width: float, check_width: float, reach: float = 1.0):
    """Upper limit, rule and read-only ``_slope_terms`` at its nodes for one
    pair of slope squares: all of the log-norm quadrature but its width.

    ``reach = max(1, d / 1e5)`` moves the lower limit down with the width,
    whose integrand near t = 0 is about d (a1^2 + a2^2) t / 4, so every
    width up to 1e5 shares one entry.  ``table`` asks for 35 widths at one
    slope pair, so the memo leaves one ``expm1`` pass per width.  An entry
    holds two arrays of at most 6340 floats (slopes 1 and 1e-100) at
    widths up to 1e5.
    """
    s_min = min(-40.0, -40.0 - math.log(max(a1_sq, a2_sq)) - math.log(reach))
    s_max = max(40.0, 40.0 + math.log(1.0 / min(a1_sq, a2_sq)))
    s, rule = _rule_nodes(s_min, s_max, panel_width, check_width)
    terms = _slope_terms(s, a1_sq, a2_sq)
    for array in terms:
        array.setflags(write=False)
    return (s_max, rule, *terms)


def _quad_log_norm(d: int, a1_sq: float, a2_sq: float) -> float:
    """The log-norm integral by quadrature, for any slope squares in range."""
    reach = max(1.0, d / 1e5)
    s_max, rule, exp_term, log_bracket = _log_norm_rule(a1_sq, a2_sq, _PANEL_WIDTH, _CHECK_WIDTH, reach)
    value, _ = _rule_sum(_width_term(d, exp_term, log_bracket), rule)
    return value + _truncation_tail(d, a1_sq, a2_sq, s_max)


def activation_log_norm(d: int, slopes: ActivationSlopes) -> float:
    """Expected log length of the activated standard Gaussian d-vector.

    Absolute error is at most ``max(1e-11, 1e-12 * |result|)``.  Equal slope
    magnitudes |a| take the closed form ``log|a| + (psi(d/2) + log 2) / 2``.
    Otherwise the integration runs over s in [min(-40, -40 - log(max(a_i^2)
    * max(1, d / 1e5))), max(40, 40 + log(1/min(a_i^2)))]: the integrand
    only starts decaying past t ~ 1/min(a_i^2), and only starts growing
    near t ~ 1/max(a_i^2), or near t ~ 1/(d max(a_i^2)) at large d.
    Slope magnitudes outside [1e-100, 1e100] raise DomainError.
    """
    d = _width(d)
    for a in (slopes.alpha1, slopes.alpha2):
        if not _SLOPE_MIN <= abs(a) <= _SLOPE_MAX:
            raise DomainError(
                f"slope magnitudes must lie in [{_SLOPE_MIN!r}, {_SLOPE_MAX!r}], got {a!r}"
            )
    if abs(slopes.alpha1) == abs(slopes.alpha2):
        return math.log(abs(slopes.alpha1)) + 0.5 * (_half_digamma(d) + math.log(2.0))
    return _quad_log_norm(d, slopes.alpha1 * slopes.alpha1, slopes.alpha2 * slopes.alpha2)
