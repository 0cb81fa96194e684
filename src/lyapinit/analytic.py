"""Closed forms built on the log-norm integral.

Exponents for the two supported weight ensembles, the critical scales that
zero them, the variance-preserving Gaussian baseline, and the large-width
expansion.
"""

import math
from dataclasses import asdict, dataclass, field

from .errors import DomainError, _nonzero_real, _positive_real, _width
from .quad import ActivationSlopes, activation_log_norm

GAUSSIAN = "gaussian"
ORTHOGONAL = "orthogonal"
_KINDS = (GAUSSIAN, ORTHOGONAL)


@dataclass(frozen=True)
class EnsembleSpec:
    """Weight-matrix distribution.

    ``gaussian`` draws every entry independently from N(0, scale^2);
    ``orthogonal`` draws a Haar orthogonal matrix and multiplies by scale.
    """

    kind: str
    d: int
    scale: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"ensemble kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "d", _width(self.d))
        object.__setattr__(self, "scale", _positive_real(self.scale, "scale"))


def lyapunov(spec: EnsembleSpec, alpha: float) -> float:
    """Exponent of an ensemble spec: log(scale) plus the slope-alpha integral.

    The orthogonal exponent also subtracts the slope-one integral, which
    removes the length distortion a Gaussian column carries relative to an
    orthogonal one.  The Gaussian one never evaluates it.
    """
    exponent = math.log(spec.scale) + activation_log_norm(spec.d, ActivationSlopes.leaky_relu(alpha))
    if spec.kind == ORTHOGONAL:
        exponent -= activation_log_norm(spec.d, ActivationSlopes.leaky_relu(1.0))
    return exponent


def lyapunov_gaussian(d: int, alpha: float, sigma: float) -> float:
    """Exponent of i.i.d. N(0, sigma^2) weights: log(sigma) plus the integral."""
    return lyapunov(EnsembleSpec(GAUSSIAN, d, sigma), alpha)


def lyapunov_orthogonal(d: int, alpha: float, eta: float) -> float:
    """Exponent of eta times Haar orthogonal weights: log(eta) plus the
    slope-alpha integral minus the slope-one integral."""
    return lyapunov(EnsembleSpec(ORTHOGONAL, d, eta), alpha)


def _critical_scale(kind: str, d: int, alpha: float) -> float:
    """Zero-exponent scale of the ``kind`` ensemble: sigma or eta."""
    return math.exp(-lyapunov(EnsembleSpec(kind, d, 1.0), alpha))


def critical_sigma(d: int, alpha: float) -> float:
    """Gaussian entry scale with exponent exactly zero."""
    return _critical_scale(GAUSSIAN, d, alpha)


def critical_eta(d: int, alpha: float) -> float:
    """Orthogonal scale with exponent exactly zero."""
    return _critical_scale(ORTHOGONAL, d, alpha)


def _he_spread(d: int, alpha: float) -> float:
    """d (1 + alpha^2) as a float; DomainError where it leaves the float range."""
    alpha = _nonzero_real(alpha, "slope alpha")
    d = _width(d)
    spread = d * (1.0 + alpha * alpha)
    if not math.isfinite(spread):
        raise DomainError(f"d (1 + alpha^2) must be a finite float, got d = {d:g} and alpha = {alpha!r}")
    return spread


def he_sigma(d: int, alpha: float) -> float:
    """Entry scale sqrt(2 / (d (1 + alpha^2))) preserving mean squared norms."""
    return math.sqrt(2.0 / _he_spread(d, alpha))


@dataclass(frozen=True)
class ActivationSquareMoments:
    """Mean and variance of the squared scalar activation of a standard normal.

    ``squared_cv`` is variance over mean squared; it drives the first
    correction term of the large-width expansion.
    """

    mean: float
    variance: float
    squared_cv: float


def activation_square_moments(alpha: float) -> ActivationSquareMoments:
    alpha = _nonzero_real(alpha, "slope alpha")
    a_sq = alpha * alpha
    mean = 0.5 * (1.0 + a_sq)
    variance = 0.25 * (5.0 - 2.0 * a_sq + 5.0 * a_sq * a_sq)
    if not math.isfinite(variance):  # alpha^4 overflows from |alpha| near 1e77
        raise DomainError(f"slope alpha must have a finite fourth power, got {alpha!r}")
    return ActivationSquareMoments(mean, variance, variance / (mean * mean))


def asymptotic_activation_log_norm(d: int, alpha: float) -> float:
    """Large-width approximation of the log-norm integral.

    Returns ``log(d (1+alpha^2) / 2) / 2 - C / (4 d)`` with C the squared
    coefficient of variation of the squared activation; the residual
    against quadrature is O(1/d^2).
    """
    d = _width(d)
    c = activation_square_moments(alpha).squared_cv
    return 0.5 * math.log(_he_spread(d, alpha) / 2.0) - c / (4 * d)


def asymptotic_lyapunov_orthogonal(d: int, alpha: float, eta: float) -> float:
    """Large-width approximation of the scaled-orthogonal exponent.

    This is ``log(eta^2 (1+alpha^2) / 2) / 2 - (C - 2) / (4 d)``; the
    slope-one integral contributes its own C = 2 term, which partially
    cancels.
    """
    eta = _positive_real(eta, "eta")
    value = asymptotic_activation_log_norm(d, alpha)
    linear = asymptotic_activation_log_norm(d, 1.0)
    return math.log(eta) + value - linear


@dataclass(frozen=True)
class LyapunovReport:
    """Exponent of one ensemble with every derived scale, all from two integrals.

    ``activation_log_norm`` is I(d, alpha), ``linear_log_norm`` the
    slope-one I(d, 1) that the orthogonal formula subtracts; the other
    fields derive from them.  The exponent is log(scale) plus the integral
    (Gaussian) or log(scale) plus the integral difference (orthogonal).
    """

    kind: str
    d: int
    alpha: float
    scale: float
    lyapunov_exponent: float = field(init=False)
    activation_log_norm: float
    linear_log_norm: float
    critical_sigma: float = field(init=False)
    critical_eta: float = field(init=False)
    he_sigma: float = field(init=False)
    he_lyapunov: float = field(init=False)
    unscaled_orthogonal_lyapunov: float = field(init=False)

    def __post_init__(self):
        EnsembleSpec(self.kind, self.d, self.scale)  # DomainError for a kind, width or scale it refuses
        value, linear = self.activation_log_norm, self.linear_log_norm
        # as in lyapunov(); x - 0.0 == x, so the Gaussian bits match it
        exponent = math.log(self.scale) + value - (linear if self.kind == ORTHOGONAL else 0.0)
        sig_he = he_sigma(self.d, self.alpha)
        object.__setattr__(self, "lyapunov_exponent", exponent)
        object.__setattr__(self, "critical_sigma", math.exp(-value))
        object.__setattr__(self, "critical_eta", math.exp(linear - value))
        object.__setattr__(self, "he_sigma", sig_he)
        object.__setattr__(self, "he_lyapunov", math.log(sig_he) + value)
        object.__setattr__(self, "unscaled_orthogonal_lyapunov", value - linear)

    def as_dict(self) -> dict:
        return asdict(self)


def exponent_report(spec: EnsembleSpec, alpha: float) -> LyapunovReport:
    """Compute the exponent of ``spec`` and all companion quantities."""
    alpha = _nonzero_real(alpha, "slope alpha")
    value = activation_log_norm(spec.d, ActivationSlopes.leaky_relu(alpha))
    linear = activation_log_norm(spec.d, ActivationSlopes.leaky_relu(1.0))
    return LyapunovReport(spec.kind, spec.d, alpha, spec.scale, value, linear)
