"""Closed forms built on the log-norm integral.

Exponents for the two supported weight ensembles, the critical scales that
zero them, the variance-preserving Gaussian baseline, the large-width
expansion, and the moment generating function of the squared scalar
activation.
"""

import math
from dataclasses import asdict, dataclass

from .errors import DomainError
from .quad import ActivationSlopes, activation_log_norm

__all__ = [
    "GAUSSIAN",
    "ORTHOGONAL",
    "EnsembleSpec",
    "LyapunovReport",
    "ActivationSquareMoments",
    "lyapunov_gaussian",
    "lyapunov_orthogonal",
    "lyapunov",
    "critical_sigma",
    "critical_eta",
    "he_sigma",
    "he_lyapunov",
    "activation_square_moments",
    "asymptotic_activation_log_norm",
    "asymptotic_lyapunov_orthogonal",
    "mgf_phi_squared",
    "exponent_report",
]

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
        if int(self.d) != self.d or self.d < 1:
            raise DomainError(f"width d must be a positive integer, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        scale = float(self.scale)
        if not math.isfinite(scale) or scale <= 0.0:
            raise DomainError(f"scale must be a finite positive real, got {self.scale!r}")
        object.__setattr__(self, "scale", scale)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha == 0.0:
        raise DomainError(f"slope alpha must be a finite nonzero real, got {alpha!r}")
    return alpha


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")
    return value


def lyapunov_gaussian(d: int, alpha: float, sigma: float) -> float:
    """Exponent of i.i.d. N(0, sigma^2) weights: log(sigma) plus the integral."""
    alpha = _check_alpha(alpha)
    sigma = _check_positive("sigma", sigma)
    return math.log(sigma) + activation_log_norm(d, ActivationSlopes.leaky_relu(alpha))


def lyapunov_orthogonal(d: int, alpha: float, eta: float) -> float:
    """Exponent of scaled Haar orthogonal weights.

    log(eta) plus the slope-alpha integral minus the slope-one integral;
    the linear term removes the length distortion a Gaussian column carries
    relative to an orthogonal one.
    """
    alpha = _check_alpha(alpha)
    eta = _check_positive("eta", eta)
    value = activation_log_norm(d, ActivationSlopes.leaky_relu(alpha))
    linear = activation_log_norm(d, ActivationSlopes.leaky_relu(1.0))
    return math.log(eta) + value - linear


def lyapunov(spec: EnsembleSpec, alpha: float) -> float:
    """Exponent of an ensemble spec, dispatching on its kind."""
    if spec.kind == GAUSSIAN:
        return lyapunov_gaussian(spec.d, alpha, spec.scale)
    return lyapunov_orthogonal(spec.d, alpha, spec.scale)


def critical_sigma(d: int, alpha: float) -> float:
    """Gaussian entry scale with exponent exactly zero."""
    alpha = _check_alpha(alpha)
    return math.exp(-activation_log_norm(d, ActivationSlopes.leaky_relu(alpha)))


def critical_eta(d: int, alpha: float) -> float:
    """Orthogonal scale with exponent exactly zero."""
    alpha = _check_alpha(alpha)
    value = activation_log_norm(d, ActivationSlopes.leaky_relu(alpha))
    linear = activation_log_norm(d, ActivationSlopes.leaky_relu(1.0))
    return math.exp(linear - value)


def he_sigma(d: int, alpha: float) -> float:
    """Entry scale sqrt(2 / (d (1 + alpha^2))) preserving mean squared norms."""
    alpha = _check_alpha(alpha)
    if int(d) != d or d < 1:
        raise DomainError(f"width d must be a positive integer, got {d!r}")
    return math.sqrt(2.0 / (d * (1.0 + alpha * alpha)))


def he_lyapunov(d: int, alpha: float) -> float:
    """Exponent of the variance-preserving Gaussian baseline, by composition."""
    return lyapunov_gaussian(d, alpha, he_sigma(d, alpha))


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
    alpha = _check_alpha(alpha)
    a_sq = alpha * alpha
    mean = 0.5 * (1.0 + a_sq)
    variance = 0.25 * (5.0 - 2.0 * a_sq + 5.0 * a_sq * a_sq)
    return ActivationSquareMoments(mean, variance, variance / (mean * mean))


def asymptotic_activation_log_norm(
    d: int, alpha: float, correction_divisor: int = 4
) -> float:
    """Large-width approximation of the log-norm integral.

    Returns ``log(d (1+alpha^2) / 2) / 2 - C / (correction_divisor * d)``
    with C the squared coefficient of variation of the squared activation.
    The default divisor 4 leaves an O(1/d^2) residual against quadrature;
    divisor 2 reproduces an alternative form whose residual only decays as
    1/d, kept for diagnostic comparison.
    """
    alpha = _check_alpha(alpha)
    if int(d) != d or d < 1:
        raise DomainError(f"width d must be a positive integer, got {d!r}")
    if correction_divisor not in (2, 4):
        raise DomainError("correction_divisor must be 2 or 4")
    c = activation_square_moments(alpha).squared_cv
    return 0.5 * math.log(d * (1.0 + alpha * alpha) / 2.0) - c / (correction_divisor * d)


def asymptotic_lyapunov_orthogonal(
    d: int, alpha: float, eta: float, correction_divisor: int = 4
) -> float:
    """Large-width approximation of the scaled-orthogonal exponent.

    With the default divisor this is
    ``log(eta^2 (1+alpha^2) / 2) / 2 - (C - 2) / (4 d)``; the slope-one
    integral contributes its own C = 2 term, which partially cancels.
    """
    eta = _check_positive("eta", eta)
    value = asymptotic_activation_log_norm(d, alpha, correction_divisor)
    linear = asymptotic_activation_log_norm(d, 1.0, correction_divisor)
    return math.log(eta) + value - linear


def mgf_phi_squared(t: float, slopes: ActivationSlopes) -> float:
    """Moment generating function of the squared scalar activation.

    Defined for ``t < min(1/(2 a1^2), 1/(2 a2^2))``; equals the average of
    two rescaled chi-squared moment generating functions because the two
    slope branches are taken with probability one half each.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    a1_sq = slopes.alpha1 * slopes.alpha1
    a2_sq = slopes.alpha2 * slopes.alpha2
    bound = min(1.0 / (2.0 * a1_sq), 1.0 / (2.0 * a2_sq))
    if t >= bound:
        raise DomainError(f"t must be below {bound!r}, got {t!r}")
    return 0.5 * ((1.0 - 2.0 * a1_sq * t) ** -0.5 + (1.0 - 2.0 * a2_sq * t) ** -0.5)


@dataclass(frozen=True)
class LyapunovReport:
    """Exponent of one ensemble with every derived scale alongside it.

    ``activation_log_norm`` is the integral at the requested slope,
    ``linear_log_norm`` the slope-one value that the orthogonal formula
    subtracts.  The exponent reconstructs as log(scale) plus the integral
    (Gaussian) or log(scale) plus the integral difference (orthogonal).
    """

    kind: str
    d: int
    alpha: float
    scale: float
    lyapunov_exponent: float
    activation_log_norm: float
    linear_log_norm: float
    critical_sigma: float
    critical_eta: float
    he_sigma: float
    he_lyapunov: float
    unscaled_orthogonal_lyapunov: float

    def as_dict(self) -> dict:
        return asdict(self)


def exponent_report(spec: EnsembleSpec, alpha: float) -> LyapunovReport:
    """Compute the exponent of ``spec`` and all companion quantities."""
    alpha = _check_alpha(alpha)
    value = activation_log_norm(spec.d, ActivationSlopes.leaky_relu(alpha))
    linear = activation_log_norm(spec.d, ActivationSlopes.leaky_relu(1.0))
    if spec.kind == GAUSSIAN:
        exponent = math.log(spec.scale) + value
    else:
        exponent = math.log(spec.scale) + value - linear
    sig_he = he_sigma(spec.d, alpha)
    return LyapunovReport(
        kind=spec.kind,
        d=spec.d,
        alpha=alpha,
        scale=spec.scale,
        lyapunov_exponent=exponent,
        activation_log_norm=value,
        linear_log_norm=linear,
        critical_sigma=math.exp(-value),
        critical_eta=math.exp(linear - value),
        he_sigma=sig_he,
        he_lyapunov=math.log(sig_he) + value,
        unscaled_orthogonal_lyapunov=value - linear,
    )
