"""Quadrature engine tests.

Expected values come from three independent routes: direct evaluation of
the integrand formula, classical closed forms of the d = 1 integral, and
the built-in logarithm for the Frullani self test.
"""

import math

import numpy as np
import pytest

from lyapinit import quad
from lyapinit.errors import AccuracyError, DomainError
from lyapinit.quad import (
    ActivationSlopes,
    activation_log_norm,
    activation_log_norm_integrand,
    frullani_log,
)

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
    def test_origin_limit_d1_equal_slopes(self):
        assert activation_log_norm_integrand(0.0, 1, ActivationSlopes(1, 1)) == 0.0

    def test_origin_limit_d2_equal_slopes(self):
        # Taylor limit (d (a1^2 + a2^2) / 2 - 1) / 2 = (2 - 1) / 2
        assert activation_log_norm_integrand(0.0, 2, ActivationSlopes(1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_value_at_t_one(self):
        # direct formula evaluation: (e^-1 - 3^-1/2) / 2
        expected = (math.exp(-1.0) - 3.0 ** -0.5) / 2.0
        assert expected == pytest.approx(-0.10473541400909172, abs=1e-15)
        got = activation_log_norm_integrand(1.0, 1, ActivationSlopes(1, 1))
        assert got == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_domain_errors(self, t):
        with pytest.raises(DomainError):
            activation_log_norm_integrand(t, 1, ActivationSlopes(1, 1))

    def test_large_d_underflows_to_exponential_term(self):
        # the bracketed power underflows harmlessly; e^-t survives
        got = activation_log_norm_integrand(10.0, 4096, ActivationSlopes(1, 1))
        assert got == pytest.approx(math.exp(-10.0) / 20.0, rel=1e-12)


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

    @pytest.mark.parametrize("alpha", [0.1, 0.01, 0.001])
    def test_closed_form_d1_general_slope(self, alpha):
        # the second slope contributes log(alpha)/2 on top of the slope-one value
        expected = -(EULER_GAMMA + math.log(2.0)) / 2.0 + 0.5 * math.log(alpha)
        got = activation_log_norm(1, ActivationSlopes.leaky_relu(alpha))
        assert got == pytest.approx(expected, abs=1e-8)

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

    def test_width_validation(self):
        with pytest.raises(DomainError):
            activation_log_norm(0, ActivationSlopes(1, 1))

    def test_exhausted_subdivisions_raise_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(quad, "_REL_TOL", 1e-13)
        monkeypatch.setattr(quad, "_ABS_TOL", 1e-13)
        monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 1)
        with pytest.raises(AccuracyError) as err:
            activation_log_norm(2, ActivationSlopes.leaky_relu(0.001))
        assert math.isfinite(err.value.best_estimate)
        assert err.value.error_bound > 0


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

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_domain_errors(self, x):
        with pytest.raises(DomainError):
            frullani_log(x)
