"""The chi-square/Beta oracle for the CLT variance of the log norm."""

import math

import pytest
from scipy.integrate import quad
from scipy.special import polygamma

from clt_variance import clt_variance

DIMS = (1, 2, 3, 8, 64)


def test_pinned_value_d2_alpha_tenth():
    assert clt_variance(2, 0.1, "gaussian") == pytest.approx(1.36000, abs=1e-5)


@pytest.mark.parametrize("d", DIMS)
def test_equal_slopes_leave_only_the_radius(d):
    # phi is the identity: the gain is log|g|, and log|g| - log|g| = 0
    assert clt_variance(d, 1.0, "gaussian") == pytest.approx(float(polygamma(1, d / 2.0)) / 4.0, rel=1e-12)
    assert clt_variance(d, 1.0, "orthogonal") == 0.0


@pytest.mark.parametrize("alpha", (0.01, 0.1, 0.5))
def test_one_dimension_is_a_fair_coin(alpha):
    # log|phi(u)| is 0 or log alpha with probability 1/2 each
    coin = math.log(alpha) ** 2 / 4.0
    assert clt_variance(1, alpha, "orthogonal") == pytest.approx(coin, rel=1e-12)
    assert clt_variance(1, alpha, "gaussian") == pytest.approx(math.pi**2 / 8.0 + coin, rel=1e-12)


@pytest.mark.parametrize("alpha", (0.01, 0.1, 0.5))
def test_two_dimensions_match_an_angle_integral(alpha):
    # at d = 2, u = (cos t, sin t) with t uniform; phi scales the negative
    # coordinates by alpha, so 4 gamma = Var log(|phi(u)|^2)
    def log_gain_sq(t):
        c, s = math.cos(t), math.sin(t)
        return math.log((c if c > 0 else alpha * c) ** 2 + (s if s > 0 else alpha * s) ** 2)

    breaks = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]

    def mean(f):
        pieces = (quad(f, lo, hi, epsrel=1e-12)[0] for lo, hi in zip(breaks, breaks[1:]))
        return sum(pieces) / (2 * math.pi)

    m1 = mean(log_gain_sq)
    m2 = mean(lambda t: log_gain_sq(t) ** 2)
    angle = (m2 - m1 * m1) / 4.0
    assert clt_variance(2, alpha, "orthogonal") == pytest.approx(angle, rel=1e-10)
    assert clt_variance(2, alpha, "gaussian") == pytest.approx(math.pi**2 / 24.0 + angle, rel=1e-10)


def test_wide_small_slope_matches_the_30_digit_value():
    # Var L = 0.024486182337040110 at d = 128, alpha = 0.001, from a 30-digit
    # mpmath evaluation with each Beta integral cut around its peak; the
    # orthogonal gamma is Var L / 4.  One rule over [0, 1] was 5.6e-12 high
    # here and warned; the cut rule is within 4e-17.
    assert clt_variance(128, 0.001, "orthogonal") == pytest.approx(0.024486182337040110 / 4.0, abs=1e-15)
