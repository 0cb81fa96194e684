"""Exact CLT variance of the log norm, by the chi-square/Beta split.

For either ensemble ``W s`` is isotropic for every unit ``s``, so the
per-layer log gains of the chain are i.i.d. and the variance ``gamma`` of
``(log|X_depth| - depth * lambda) / sqrt(depth)`` is the variance of one
gain, at every depth:

    gaussian:    gamma = Var log|phi(g)|
    orthogonal:  gamma = Var(log|phi(g)| - log|g|)      g ~ N(0, I_d)

(the scale only shifts the gain).  With ``a = alpha`` and ``K`` the number
of positive coordinates of ``g``, ``|phi(g)|^2 = S * (a^2 + (1 - a^2) B_K)``,
where ``S = |g|^2 ~ chi2_d`` is independent of ``K ~ Bin(d, 1/2)`` and of
``B_K ~ Beta(K/2, (d-K)/2)`` (``B_0 = 0``, ``B_d = 1``).  So with
``L = log(a^2 + (1 - a^2) B_K)`` and ``Var log S = psi'(d/2)``:

    gaussian:    gamma = (psi'(d/2) + Var L) / 4
    orthogonal:  gamma = Var L / 4

``E[L]`` and ``E[L^2]`` are mixtures over ``K`` of 1-D Beta integrals.  This
uses no lyapinit code, so it is an independent oracle for ``estimate_clt``.
"""

import math

from scipy.integrate import quad
from scipy.special import betaln, polygamma


def _beta_mean(f, p: float, q: float) -> float:
    """E f(B), B ~ Beta(p, q).

    The density is a peak of width about ``sqrt(m (1 - m) / d)`` at its mean
    ``m``, with ``d = 2 (p + q)``, which one rule over [0, 1] can step over:
    at d = 128, alpha = 0.001 QUADPACK warned of roundoff and ``gamma`` came
    out 5.6e-12 high.  So, as in ``log_norm_oracle``, the interval is cut at
    ``m`` and ``m +- 8`` widths, and the density is formed in log space.
    The end pieces take the endpoint powers as QUADPACK's algebraic weight.
    """
    m = p / (p + q)
    spread = math.sqrt(m * (1.0 - m) / (2.0 * (p + q)))
    cuts = [0.0] + [x for x in (m - 8.0 * spread, m, m + 8.0 * spread) if 0.0 < x < 1.0] + [1.0]
    log_norm = betaln(p, q)
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):

        def piece(x, lo=lo, hi=hi):
            log_density = -log_norm
            if lo > 0.0:
                log_density += (p - 1.0) * math.log(x)
            if hi < 1.0:
                log_density += (q - 1.0) * math.log1p(-x)
            return f(x) * math.exp(log_density)

        powers = (p - 1.0 if lo == 0.0 else 0.0, q - 1.0 if hi == 1.0 else 0.0)
        total += quad(piece, lo, hi, weight="alg", wvar=powers, epsabs=0.0, epsrel=1e-13)[0]
    return total


def clt_variance(d: int, alpha: float, kind: str) -> float:
    """Exact ``gamma`` for the ``"gaussian"`` or ``"orthogonal"`` ensemble."""
    a2 = float(alpha) ** 2
    mean = second = 0.0
    for k in range(d + 1):
        weight = math.comb(d, k) / 2.0**d
        if k == 0:
            l1, l2 = math.log(a2), math.log(a2) ** 2
        elif k == d:
            l1 = l2 = 0.0
        else:
            p, q = k / 2.0, (d - k) / 2.0
            l1 = _beta_mean(lambda t: math.log(a2 + (1.0 - a2) * t), p, q)
            l2 = _beta_mean(lambda t: math.log(a2 + (1.0 - a2) * t) ** 2, p, q)
        mean += weight * l1
        second += weight * l2
    var_l = second - mean * mean
    var_log_s = float(polygamma(1, d / 2.0)) if kind == "gaussian" else 0.0
    return (var_log_s + var_l) / 4.0
