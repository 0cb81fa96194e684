"""Quadrature engine tests.

Expected values come from five independent routes: direct evaluation of
the integrand formula, classical closed forms of the d = 1 integral, a
30-digit mpmath oracle (``log_norm_oracle``), the large-width expansion
past d = 1e7, and the built-in logarithm for the Frullani self test.  The integrand on the log axis is the private
``_width_term(d, *_slope_terms(s, a1^2, a2^2)) = numerator(e^s) / 2``.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from frullani import frullani_log
from log_norm_oracle import log_norm_oracle
from lyapinit import quad
from lyapinit.analytic import asymptotic_activation_log_norm
from lyapinit.cli import DEFAULT_TABLE_DIMS
from lyapinit.errors import AccuracyError, DomainError
from lyapinit.quad import ActivationSlopes, activation_log_norm

EULER_GAMMA = float(np.euler_gamma)


class TestActivationSlopes:
    def test_leaky_relu_canonical_form(self):
        s = ActivationSlopes.leaky_relu(0.1)
        assert (s.alpha1, s.alpha2) == (1.0, 0.1)

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_zero_or_nonfinite(self, bad):
        with pytest.raises(DomainError):
            ActivationSlopes(*bad)

    def test_relu_escape_hatch_carries_zero_slope(self):
        s = ActivationSlopes.relu()
        assert (s.alpha1, s.alpha2) == (1.0, 0.0)


class TestIntegrand:
    def test_value_at_t_one(self):
        # direct formula evaluation: (e^-1 - 3^-1/2) / 2
        expected = (math.exp(-1.0) - 3.0 ** -0.5) / 2.0
        assert expected == pytest.approx(-0.10473541400909172, abs=1e-15)
        got = quad._width_term(1, *quad._slope_terms(0.0, 1.0, 1.0))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_large_d_underflows_to_exponential_term(self):
        # the bracketed power underflows harmlessly; e^-t survives
        got = quad._width_term(4096, *quad._slope_terms(math.log(10.0), 1.0, 1.0))
        assert got == pytest.approx(math.exp(-10.0) / 2.0, rel=1e-12)


class TestIntegral:
    def test_reference_value_d2_alpha_01(self):
        got = activation_log_norm(2, ActivationSlopes.leaky_relu(0.1))
        assert got == pytest.approx(-0.816599, abs=1e-6)

    def test_closed_form_d1_slope_one(self):
        # -(euler_gamma + log 2) / 2, from the log moment of |N(0,1)|
        expected = -(EULER_GAMMA + math.log(2.0)) / 2.0
        got = activation_log_norm(1, ActivationSlopes.leaky_relu(1.0))
        assert got == pytest.approx(expected, abs=1e-8)
        assert got == pytest.approx(-0.6351814, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.1, 0.01, 0.001, 10.0, 1e3, 1e6, 1e10, -1e6])
    def test_closed_form_d1_general_slope(self, alpha):
        # the second slope contributes log|alpha|/2 on top of the slope-one
        # value; at 1e10 a lower limit fixed at -40 was off by 1.36
        expected = -(EULER_GAMMA + math.log(2.0)) / 2.0 + 0.5 * math.log(abs(alpha))
        got = activation_log_norm(1, ActivationSlopes.leaky_relu(alpha))
        assert abs(got - expected) <= 1e-11

    @pytest.mark.parametrize("a", [1e4, 1e10])
    def test_large_slope_scaling_identity(self, a):
        # phi_(1, a) = a * phi_(1/a, 1), so I(d, (1, a)) = I(d, (1/a, 1)) + log a
        big = activation_log_norm(3, ActivationSlopes(1.0, a))
        small = activation_log_norm(3, ActivationSlopes(1.0 / a, 1.0))
        assert abs(big - (small + math.log(a))) <= 1e-11

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 1024])
    def test_two_large_slopes_keep_the_scaling_identity(self, d):
        # both 2 a^2 t terms reach the e^700 cap, so the bracket is exactly
        # 0 there; under filterwarnings = error a divide warning would fail
        got = activation_log_norm(d, ActivationSlopes(1e100, 1e99))
        expected = math.log(1e100) + activation_log_norm(d, ActivationSlopes.leaky_relu(0.1))
        assert abs(got - expected) <= max(1e-11, 1e-12 * abs(expected))

    @pytest.mark.parametrize("slopes", [
        ActivationSlopes(1.0, 1e-101), ActivationSlopes(1.0, -1e-300),
        ActivationSlopes(1e101, 1.0), ActivationSlopes(-1e300, 0.5), ActivationSlopes.relu(),
    ])
    def test_slopes_outside_range_are_domain_errors(self, slopes):
        with pytest.raises(DomainError, match="slope magnitudes"):
            activation_log_norm(2, slopes)

    def test_range_ends_are_accepted(self):
        # finite and without warnings: 2 a^2 t reaches e^962 at the top of the
        # (1e-100, 1e100) axis, and a numpy overflow warning fails the test
        for pair in [(1.0, 1e-100), (1e100, 1.0), (-1e-100, -1e100), (1e100, 1e100)]:
            for d in (1, 2, 3, 64, 1024):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert math.isfinite(activation_log_norm(d, ActivationSlopes(*pair)))

    def test_reference_value_d1_alpha_0001(self):
        got = activation_log_norm(1, ActivationSlopes.leaky_relu(0.001))
        assert got == pytest.approx(-4.0890591, abs=1e-6)

    def test_symmetry_and_sign_invariance(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            a, b = rng.uniform(0.01, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            d = int(rng.integers(1, 6))
            ab = activation_log_norm(d, ActivationSlopes(a, b))
            ba = activation_log_norm(d, ActivationSlopes(b, a))
            pos = activation_log_norm(d, ActivationSlopes(abs(a), abs(b)))
            assert ab == pytest.approx(ba, abs=2 * quad._ABS_TOL)
            assert ab == pytest.approx(pos, abs=2 * quad._ABS_TOL)

    def test_scaling_identity_equal_slopes(self):
        base = activation_log_norm(3, ActivationSlopes(1.0, 1.0))
        rng = np.random.default_rng(5)
        for a in rng.uniform(0.05, 4.0, size=5):
            got = activation_log_norm(3, ActivationSlopes(a, a))
            assert got == pytest.approx(math.log(a) + base, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.1, 0.01, 0.001])
    def test_monotone_in_width(self, alpha):
        slopes = ActivationSlopes.leaky_relu(alpha)
        values = [activation_log_norm(d, slopes) for d in (1, 2, 3, 4, 5, 8, 16, 64)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.1, 0.001, 10.0])
    @pytest.mark.parametrize("d", [10**7, 10**9, 10**12])
    def test_large_widths_follow_the_expansion(self, d, alpha):
        # the expansion's residual is O(1/d^2); near t = 0 the integrand is
        # about d (1 + alpha^2) t / 4, so a lower limit fixed at s = -40
        # dropped ~1e-18 d (1e-6 at d = 1e12)
        got = activation_log_norm(d, ActivationSlopes.leaky_relu(alpha))
        assert abs(got - asymptotic_activation_log_norm(d, alpha)) <= 1e-12

    def test_width_validation(self):
        for d in (0, -2, 1.5, math.nan, math.inf, 10**400, 10**5000):
            with pytest.raises(DomainError):
                activation_log_norm(d, ActivationSlopes(1, 1))

    def test_starved_panels_raise_accuracy_error(self, monkeypatch):
        # panels far wider than the integrand's features: the two rules disagree
        monkeypatch.setattr(quad, "_PANEL_WIDTH", 30.0)
        monkeypatch.setattr(quad, "_CHECK_WIDTH", 45.0)
        with pytest.raises(AccuracyError) as err:
            activation_log_norm(2, ActivationSlopes.leaky_relu(0.001))
        assert math.isfinite(err.value.best_estimate)
        assert err.value.error_bound > max(quad._ABS_TOL, quad._REL_TOL * abs(err.value.best_estimate))


class TestSlopeMemo:
    """``table`` evaluates 35 widths at one slope pair; the width-free terms
    are memoised per slope pair and panel widths."""

    @pytest.mark.parametrize("alpha", [0.1, 0.001, 1e-100])
    def test_warm_cache_gives_the_cold_bits(self, alpha):
        slopes = ActivationSlopes.leaky_relu(alpha)
        cold = {}
        for d in DEFAULT_TABLE_DIMS:
            quad._log_norm_rule.cache_clear()
            cold[d] = activation_log_norm(d, slopes)
        quad._log_norm_rule.cache_clear()
        warm = {d: activation_log_norm(d, slopes) for d in reversed(DEFAULT_TABLE_DIMS)}
        assert warm == cold
        info = quad._log_norm_rule.cache_info()
        assert (info.misses, info.hits) == (1, len(DEFAULT_TABLE_DIMS) - 1)

    def test_patched_panel_widths_miss_the_warm_entry(self, monkeypatch):
        slopes = ActivationSlopes.leaky_relu(0.001)
        activation_log_norm(2, slopes)
        monkeypatch.setattr(quad, "_PANEL_WIDTH", 30.0)
        monkeypatch.setattr(quad, "_CHECK_WIDTH", 45.0)
        with pytest.raises(AccuracyError, match="panels 30.0 wide"):
            activation_log_norm(2, slopes)

    def test_cached_terms_are_read_only(self):
        activation_log_norm(3, ActivationSlopes.leaky_relu(0.1))
        _, _, *terms = quad._log_norm_rule(1.0, 0.1 * 0.1, quad._PANEL_WIDTH, quad._CHECK_WIDTH)
        for array in terms:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestOracle:
    """Against 30-digit values; the bar is 4e-15, where the cancellation in
    ``e^{-t} - bracket^d`` levels the error off however fine the panels."""

    @pytest.mark.parametrize("alpha", [0.1, 0.001])
    def test_worst_error_on_the_oracle_grid(self, alpha):
        worst = max(
            abs(activation_log_norm(d, ActivationSlopes.leaky_relu(alpha)) - log_norm_oracle(d, alpha))
            for d in (1, 2, 3, 8, 32)
        )
        assert worst <= 4e-15

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha", [0.1, 0.001])
    @pytest.mark.parametrize("d", [200, 256, 1024])
    def test_large_width_cell(self, d, alpha):
        error = abs(activation_log_norm(d, ActivationSlopes.leaky_relu(alpha)) - log_norm_oracle(d, alpha))
        assert error <= 4e-15

    @pytest.mark.parametrize("slope", [1.0, 0.3])
    def test_quadrature_at_equal_slopes_meets_the_closed_form(self, slope):
        # the closed form bypasses the panels; here they run anyway
        for d in DEFAULT_TABLE_DIMS:
            closed = activation_log_norm(d, ActivationSlopes(slope, slope))
            panels = quad._quad_log_norm(d, slope * slope, slope * slope)
            assert abs(panels - closed) <= 2e-15 * max(1.0, abs(closed)), d

    def test_closed_form_slope_one(self):
        # at equal slopes the Beta mixture vanishes and the oracle is its chi-square half
        for d in (1, 2, 3, 8, 32, 39, 40, 41, 1024, 10**5):
            with mpmath.workdps(30):
                expected = float((mpmath.digamma(mpmath.mpf(d) / 2) + mpmath.log(2)) / 2)
            assert activation_log_norm(d, ActivationSlopes(1.0, -1.0)) == pytest.approx(expected, abs=1e-15)

    def test_half_digamma_matches_scipy(self):
        # a finite sum below d = 40, the asymptotic series above it
        for d in range(1, 40):
            expected = float(digamma(d / 2.0))
            assert abs(quad._half_digamma(d) - expected) <= 2 * math.ulp(max(1.0, abs(expected))), d
        for d in [*range(40, 400), 1023, 1024, 4097, 65536, 100000]:
            assert quad._half_digamma(d) == float(digamma(d / 2.0)), d


class TestFrullani:
    def test_log_one_is_zero(self):
        assert frullani_log(1.0) == pytest.approx(0.0, abs=1e-10)

    def test_log_two(self):
        assert frullani_log(2.0) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_wide_support_argument(self):
        assert frullani_log(1e6) == pytest.approx(13.815510557964274, abs=1e-8)

    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 2.0, 10.0, 1e6])
    def test_agrees_with_builtin_log(self, x):
        assert frullani_log(x) == pytest.approx(math.log(x), rel=1e-8, abs=1e-10)
