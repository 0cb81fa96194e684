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
"""

import mpmath as mp


def log_norm_oracle(d: int, alpha: float) -> float:
    """``I(d, alpha)`` for the slopes (1, alpha), exact to double precision."""
    with mp.workdps(30):
        a2 = mp.mpf(alpha) ** 2
        mixture = mp.mpf(0)
        for k in range(d + 1):
            if k == 0:
                mean = mp.log(a2)
            elif k == d:
                mean = mp.mpf(0)
            else:
                p, q = mp.mpf(k) / 2, mp.mpf(d - k) / 2
                density = lambda x: x ** (p - 1) * (1 - x) ** (q - 1)
                mean = mp.quad(lambda x: mp.log(a2 + (1 - a2) * x) * density(x), [0, 1]) / mp.beta(p, q)
            mixture += mp.binomial(d, k) * mean / mp.mpf(2) ** d
        return float((mp.digamma(mp.mpf(d) / 2) + mp.log(2) + mixture) / 2)
