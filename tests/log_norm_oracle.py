"""The log-norm integral to 30 digits, by the chi-square/Beta split.

With ``a = alpha`` and ``K`` the number of positive coordinates of
``g ~ N(0, I_d)``, ``|phi(g)|^2 = S * (a^2 + (1 - a^2) B_K)``, where
``S = |g|^2 ~ chi2_d`` is independent of ``K ~ Bin(d, 1/2)`` and of
``B_K ~ Beta(K/2, (d-K)/2)`` (``B_0 = 0``, ``B_d = 1``).  So

    I(d, alpha) = E log|phi(g)| = (psi(d/2) + log 2 + E log(a^2 + (1 - a^2) B_K)) / 2,

a mixture over ``K`` of 1-D Beta integrals, here done by mpmath's
tanh-sinh rule, which takes the endpoint powers of the Beta density in its
stride.  This uses no lyapinit code and no Frullani integral, so it is an
independent oracle for ``quad.activation_log_norm``.

At large d the Beta(k/2, (d-k)/2) density is a peak of width about
``sqrt(m (1 - m) / d)`` around its mean ``m = k/d``, which a rule over the
whole of [0, 1] steps over (from d = 200 on it did, by 1e-3 and more).  So
each integral is cut at ``m + j sqrt(m (1 - m) / d)`` for j = 0 and +-8,
which holds the peak in two pieces that each end at its mean, and the
density is formed in log space (formed from its powers, with the same
cuts, it was off by 2.4e-6 at d = 200).  The oracle then agrees with
``activation_log_norm`` to 3.1e-15 up to d = 1024; more cuts (j = +-2, +-4
too) gave the same values and cost half as much again.
"""

import mpmath as mp

# Binomial weights below this are skipped.  Every term's mean
# E log(a^2 + (1 - a^2) B_k) lies between log(a^2) and 0, so the skipped
# terms move the mixture by less than (d + 1) * 1e-40 * |log a^2|: below
# 1e-33 for d <= 10^4 and 1e-100 <= alpha <= 1e100, far under double
# precision.
_MIN_WEIGHT = mp.mpf("1e-40")

_CUTS = (-8, 0, 8)


def _beta_log_mean(k: int, d: int, a2) -> mp.mpf:
    """E log(a2 + (1 - a2) B) for B ~ Beta(k/2, (d-k)/2), 0 < k < d."""
    p, q = mp.mpf(k) / 2, mp.mpf(d - k) / 2
    log_norm = mp.log(mp.beta(p, q))

    def integrand(x):
        density = mp.exp((p - 1) * mp.log(x) + (q - 1) * mp.log1p(-x) - log_norm)
        return mp.log(a2 + (1 - a2) * x) * density

    m = mp.mpf(k) / d
    spread = mp.sqrt(m * (1 - m) / d)
    inner = [m + j * spread for j in _CUTS]
    return mp.quad(integrand, [0] + sorted(x for x in inner if 0 < x < 1) + [1])


def log_norm_oracle(d: int, alpha: float) -> float:
    """``I(d, alpha)`` for the slopes (1, alpha), exact to double precision."""
    with mp.workdps(30):
        a2 = mp.mpf(alpha) ** 2
        mixture = mp.mpf(0)
        for k in range(d + 1):
            weight = mp.binomial(d, k) / mp.mpf(2) ** d
            if weight < _MIN_WEIGHT:
                continue
            if k == 0:
                mean = mp.log(a2)
            elif k == d:
                mean = mp.mpf(0)
            else:
                mean = _beta_log_mean(k, d, a2)
            mixture += weight * mean
        return float((mp.digamma(mp.mpf(d) / 2) + mp.log(2) + mixture) / 2)
