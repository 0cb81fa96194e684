"""Closed-form exponents, critical scales, and the large-width expansion."""

import dataclasses
import math

import pytest

from lyapinit.analytic import (
    EnsembleSpec,
    LyapunovReport,
    activation_square_moments,
    asymptotic_activation_log_norm,
    asymptotic_lyapunov_orthogonal,
    critical_eta,
    critical_sigma,
    exponent_report,
    he_sigma,
    lyapunov_gaussian,
    lyapunov_orthogonal,
)
from lyapinit.errors import DomainError
from lyapinit.quad import ActivationSlopes, activation_log_norm


class TestGaussianExponent:
    def test_he_scale_d2(self):
        got = lyapunov_gaussian(2, 0.1, 0.9950372)
        assert got == pytest.approx(-0.8215742, abs=1e-5)

    def test_he_scale_d1024(self):
        got = lyapunov_gaussian(1024, 0.1, he_sigma(1024, 0.1))
        assert got == pytest.approx(-0.0011938, abs=1e-6)

    @pytest.mark.parametrize("d,alpha", [(2, 0.1), (7, 0.01), (64, 0.5)])
    def test_zero_at_critical_scale(self, d, alpha):
        got = lyapunov_gaussian(d, alpha, critical_sigma(d, alpha))
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_scale_enters_only_through_log_term(self):
        for sigma in (0.3, 1.7, 12.0):
            diff = lyapunov_gaussian(5, 0.1, sigma) - lyapunov_gaussian(5, 0.1, 1.0)
            assert diff == pytest.approx(math.log(sigma), abs=1e-12)

    @pytest.mark.parametrize("sigma,alpha", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0)])
    def test_domain_errors(self, sigma, alpha):
        with pytest.raises(DomainError):
            lyapunov_gaussian(2, alpha, sigma)


class TestOrthogonalExponent:
    def test_unscaled_d2(self):
        assert lyapunov_orthogonal(2, 0.1, 1.0) == pytest.approx(-0.8745648, abs=1e-5)

    def test_unscaled_d10_alpha_001(self):
        assert lyapunov_orthogonal(10, 0.01, 1.0) == pytest.approx(-0.452173, abs=1e-5)

    @pytest.mark.parametrize("d,alpha", [(3, 0.1), (16, 0.001)])
    def test_zero_at_critical_scale(self, d, alpha):
        got = lyapunov_orthogonal(d, alpha, critical_eta(d, alpha))
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lyapunov_orthogonal(2, 0.1, 0.0)


class TestCriticalScales:
    def test_reference_values(self):
        assert critical_sigma(2, 0.1) == pytest.approx(2.262791, abs=1e-5)
        assert critical_eta(10, 0.1) == pytest.approx(1.5442064, abs=1e-5)
        assert he_sigma(2, 0.1) == pytest.approx(0.9950372, abs=1e-6)

    def test_he_sigma_formula(self):
        assert he_sigma(2, 0.1) == pytest.approx(math.sqrt(2.0 / (2 * 1.01)), abs=1e-15)

    def test_zero_exponent_grid(self):
        # the tight 1e-9 zero check across the full grid of widths and slopes
        for d in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 64, 512]:
            for alpha in (0.001, 0.01, 0.1, 0.5, 1.0):
                assert lyapunov_gaussian(d, alpha, critical_sigma(d, alpha)) == pytest.approx(0.0, abs=1e-9)
                assert lyapunov_orthogonal(d, alpha, critical_eta(d, alpha)) == pytest.approx(0.0, abs=1e-9)

    def test_he_exponent_negative_and_vanishing(self):
        values = [lyapunov_gaussian(d, 0.1, he_sigma(d, 0.1)) for d in (1, 2, 4, 8, 16, 64, 256, 1024)]
        assert all(v < 0 for v in values)
        assert abs(values[-1]) < 2e-3


class TestAsymptotics:
    def test_squared_cv_at_slope_one(self):
        assert activation_square_moments(1.0).squared_cv == pytest.approx(2.0, abs=1e-15)

    def test_moment_fields(self):
        m = activation_square_moments(0.1)
        assert m.mean == pytest.approx(0.505, abs=1e-15)
        assert m.variance == pytest.approx((5 - 0.02 + 5e-4) / 4, abs=1e-15)
        assert m.squared_cv == pytest.approx(m.variance / m.mean**2, abs=1e-15)

    def test_expansion_d1024_alpha_01(self):
        approx = asymptotic_activation_log_norm(1024, 0.1)
        assert approx == pytest.approx(3.1229455, abs=1e-6)
        exact = activation_log_norm(1024, ActivationSlopes.leaky_relu(0.1))
        assert abs(exact - approx) == pytest.approx(1.8e-6, abs=1e-6)

    def test_expansion_d1024_slope_one(self):
        approx = asymptotic_activation_log_norm(1024, 1.0)
        assert approx == pytest.approx(0.5 * math.log(1024.0) - 2.0 / 4096.0, abs=1e-12)
        assert abs(approx - 3.4652474) < 2e-6

    def test_orthogonal_expansion_values(self):
        assert asymptotic_lyapunov_orthogonal(1024, 0.1, 1.0) == pytest.approx(-0.3423025, abs=1e-6)
        assert asymptotic_lyapunov_orthogonal(512, 0.1, 1.0) == pytest.approx(-0.3430059, abs=1e-6)

    def test_orthogonal_expansion_limit(self):
        # the 1/d correction dies off, leaving log(eta^2 (1+alpha^2)/2)/2
        limit = 0.5 * math.log(1.01 / 2.0)
        assert asymptotic_lyapunov_orthogonal(10**6, 0.1, 1.0) == pytest.approx(limit, abs=1e-5)

    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    def test_quarter_coefficient_residual_is_second_order(self, alpha):
        widths = (64, 128, 256, 512, 1024)
        scaled = []
        for d in widths:
            exact = activation_log_norm(d, ActivationSlopes.leaky_relu(alpha))
            scaled.append(abs(exact - asymptotic_activation_log_norm(d, alpha)) * d * d)
        assert max(scaled) < 4 * min(scaled)


class TestFloatRange:
    """Closed forms whose value or intermediate leaves the float range refuse
    the input; they never return 0.0, infinity or NaN."""

    @pytest.mark.parametrize("call", [
        lambda: he_sigma(2, 1e200),
        lambda: he_sigma(10**120, 1e100),
        lambda: he_sigma(10**300, 1e5),
        lambda: activation_square_moments(1e100),
        lambda: asymptotic_activation_log_norm(8, 1e100),
        lambda: asymptotic_activation_log_norm(8, 1e77),
        lambda: asymptotic_activation_log_norm(10**300, 1e10),
        lambda: asymptotic_lyapunov_orthogonal(8, 1e100, 1.0),
        lambda: exponent_report(EnsembleSpec("gaussian", 10**120, 1.0), 1e100),
        lambda: EnsembleSpec("gaussian", int(1e300) + 1, 1.0),
    ], ids=[
        "he-slope", "he-width-times-slope", "he-width", "moments", "asymptotic-1e100",
        "asymptotic-1e77", "asymptotic-width", "asymptotic-orthogonal", "report", "spec-width",
    ])
    def test_values_past_the_float_range_are_domain_errors(self, call):
        with pytest.raises(DomainError):
            call()

    def test_largest_accepted_inputs_keep_the_formulas(self):
        assert he_sigma(10**300, 1.0) == math.sqrt(2.0 / (10**300 * 2.0)) > 0.0
        assert he_sigma(2, 1e150) == math.sqrt(2.0 / (2 * (1.0 + 1e300))) > 0.0
        m = activation_square_moments(1e76)
        assert all(math.isfinite(v) and v > 0.0 for v in (m.mean, m.variance, m.squared_cv))
        assert m.squared_cv == pytest.approx(5.0, rel=1e-15)
        big = asymptotic_activation_log_norm(10**300, 0.1)
        assert big == 0.5 * math.log(10**300 * 1.01 / 2.0) - activation_square_moments(0.1).squared_cv / (4 * 10**300)
        assert math.isfinite(asymptotic_lyapunov_orthogonal(10**300, 0.1, 1.0))


class TestEnsembleSpecAndReport:
    @pytest.mark.parametrize(
        "kind,d,scale", [("banana", 2, 1.0), ("gaussian", 0, 1.0), ("gaussian", 2, -1.0)]
    )
    def test_spec_validation(self, kind, d, scale):
        with pytest.raises(DomainError):
            EnsembleSpec(kind, d, scale)

    def test_report_reconstruction_gaussian(self):
        report = exponent_report(EnsembleSpec("gaussian", 3, 1.7), 0.1)
        rebuilt = math.log(report.scale) + report.activation_log_norm
        assert report.lyapunov_exponent == pytest.approx(rebuilt, abs=1e-10)
        assert report.critical_sigma == pytest.approx(math.exp(-report.activation_log_norm), abs=1e-12)
        assert report.critical_eta > 0 and report.critical_sigma > 0

    def test_report_reconstruction_orthogonal(self):
        report = exponent_report(EnsembleSpec("orthogonal", 5, 0.8), 0.01)
        rebuilt = math.log(report.scale) + report.activation_log_norm - report.linear_log_norm
        assert report.lyapunov_exponent == pytest.approx(rebuilt, abs=1e-10)
        assert report.unscaled_orthogonal_lyapunov == pytest.approx(
            report.activation_log_norm - report.linear_log_norm, abs=1e-12
        )

    @pytest.mark.parametrize(
        "kind,d,alpha,scale",
        [("banana", 2, 0.1, 1.0), ("gaussian", 0, 0.1, 1.0), ("gaussian", 2, 0.1, -1.0), ("gaussian", 2, 0.0, 1.0)],
    )
    def test_report_validation(self, kind, d, alpha, scale):
        with pytest.raises(DomainError):
            LyapunovReport(kind, d, alpha, scale, 0.5, 0.7)

    def test_report_is_its_two_integrals(self):
        report = exponent_report(EnsembleSpec("orthogonal", 5, 0.8), 0.01)
        value, linear = report.activation_log_norm, report.linear_log_norm
        assert LyapunovReport("orthogonal", 5, 0.01, 0.8, value, linear) == report
        assert dataclasses.replace(report, kind="gaussian").lyapunov_exponent == math.log(0.8) + value
        with pytest.raises(TypeError):
            LyapunovReport("orthogonal", 5, 0.01, 0.8, value, linear, lyapunov_exponent=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.critical_eta = 1.0

    def test_report_round_trips_through_dict(self):
        report = exponent_report(EnsembleSpec("gaussian", 2, 1.0), 0.1)
        payload = report.as_dict()
        assert payload["kind"] == "gaussian"
        assert payload["lyapunov_exponent"] == report.lyapunov_exponent
