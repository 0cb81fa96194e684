"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every Monte Carlo run is seeded, block-deterministic, and compared at the
tolerance stated in its criterion.  Criterion 9 compares the direction chain
with its exact stationary moments, the law of phi(g)/|phi(g)| for a standard
Gaussian g, computed by 1-D quadrature in ``stationary_moments.py``.  That law
is uniform on the sphere only when the two slopes are equal; at alpha = 0.1
the activation shrinks negative coordinates and pulls the mean into the
positive orthant by about 0.217 per coordinate at d = 3.
"""

import math
import time
from dataclasses import asdict

import numpy as np

from lyapinit import jsonio
from lyapinit.analytic import (
    EnsembleSpec,
    activation_square_moments,
    asymptotic_activation_log_norm,
    critical_eta,
    critical_sigma,
    he_sigma,
    lyapunov_gaussian,
    lyapunov_orthogonal,
)
from lyapinit.dynamics import (
    counterexample_positive_cone,
    counterexample_relu,
    estimate_clt,
    estimate_lambda_deep,
    estimate_lambda_single_step,
    stationarity_check,
)
from lyapinit.ensembles import RngStream
from lyapinit.quad import ActivationSlopes, activation_log_norm

from frullani import frullani_log
from reference_tables import REFERENCE_TABLES
from stationary_moments import stationary_moments

EULER_GAMMA = float(np.euler_gamma)
TABLE_TOLERANCE = 2e-7  # two units in the seventh printed decimal


def _gate(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label}: {detail}"


def test_criterion_01_lookup_table_reproduction():
    start = time.perf_counter()
    worst = 0.0
    worst_cell = None
    linear_cache = {}
    for alpha, rows in REFERENCE_TABLES.items():
        slopes = ActivationSlopes.leaky_relu(alpha)
        for row in rows:
            d = row[0]
            value = activation_log_norm(d, slopes)
            if d not in linear_cache:
                linear_cache[d] = activation_log_norm(d, ActivationSlopes.leaky_relu(1.0))
            linear = linear_cache[d]
            sig_he = he_sigma(d, alpha)
            computed = (
                value,
                linear,
                math.log(sig_he) + value,
                value - linear,
                sig_he,
                math.exp(-value),
                math.exp(linear - value),
            )
            for got, expected in zip(computed, row[1:]):
                deviation = abs(got - expected)
                if deviation > worst:
                    worst, worst_cell = deviation, (alpha, d)
    elapsed = time.perf_counter() - start
    ok = worst <= TABLE_TOLERANCE and elapsed < 60.0
    _gate(
        "1 lookup tables",
        ok,
        f"735 cells, worst deviation {worst:.2e} at {worst_cell}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_form_spot_checks():
    base = -(EULER_GAMMA + math.log(2.0)) / 2.0
    worst = abs(activation_log_norm(1, ActivationSlopes.leaky_relu(1.0)) - base)
    for alpha in (0.1, 0.01, 0.001):
        got = activation_log_norm(1, ActivationSlopes.leaky_relu(alpha))
        worst = max(worst, abs(got - (base + 0.5 * math.log(alpha))))
    _gate("2 closed forms", worst <= 1e-8, f"worst width-1 deviation {worst:.2e}")


def test_criterion_03_frullani_self_test():
    worst = 0.0
    for x in (0.01, 0.5, 2.0, 10.0, 1e6):
        worst = max(worst, abs(frullani_log(x) - math.log(x)) / abs(math.log(x)))
    _gate("3 frullani", worst <= 1e-8, f"worst relative deviation {worst:.2e}")


def test_criterion_04_mc_quadrature_agreement():
    start = time.perf_counter()
    failures = []
    worst_pull = 0.0
    for i, d in enumerate((2, 4, 10)):
        for j, alpha in enumerate((0.1, 0.01, 0.5)):
            slopes = ActivationSlopes.leaky_relu(alpha)
            for k, kind in enumerate(("gaussian", "orthogonal")):
                spec = EnsembleSpec(kind, d, 1.0)
                if kind == "gaussian":
                    lam = lyapunov_gaussian(d, alpha, 1.0)
                else:
                    lam = lyapunov_orthogonal(d, alpha, 1.0)
                est = estimate_lambda_single_step(
                    spec, slopes, 100_000, RngStream(4001, 100 * i + 10 * j + k)
                )
                pull = abs(est.mean - lam) / est.std_error
                worst_pull = max(worst_pull, pull)
                if pull > 3.0:
                    failures.append((kind, d, alpha, pull))
    slopes = ActivationSlopes.leaky_relu(0.1)
    for k, sigma in enumerate((he_sigma(2, 0.1), critical_sigma(2, 0.1))):
        lam = lyapunov_gaussian(2, 0.1, sigma)
        est = estimate_lambda_deep(
            EnsembleSpec("gaussian", 2, sigma), slopes, 500, 200, RngStream(4002, k)
        )
        pull = abs(est.mean - lam) / est.std_error
        worst_pull = max(worst_pull, pull)
        if pull > 3.0:
            failures.append(("deep", 2, sigma, pull))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _gate(
        "4 mc vs quadrature",
        ok,
        f"20 runs, worst pull {worst_pull:.2f} sigma, {elapsed:.1f}s"
        + (f", failures {failures}" if failures else ""),
    )


def test_criterion_05_critical_construction():
    slopes = ActivationSlopes.leaky_relu(0.1)
    failures = []
    worst_pull = 0.0
    for i, kind in enumerate(("gaussian", "orthogonal")):
        for j, d in enumerate((2, 8)):
            scale = critical_sigma(d, 0.1) if kind == "gaussian" else critical_eta(d, 0.1)
            spec = EnsembleSpec(kind, d, scale)
            est = estimate_lambda_deep(spec, slopes, 1000, 200, RngStream(4005, 10 * i + j))
            pull = abs(est.mean) / est.std_error
            worst_pull = max(worst_pull, pull)
            if pull > 3.0:
                failures.append((kind, d, pull))
    _gate(
        "5 critical construction",
        not failures,
        f"4 ensembles at depth 1000, worst pull {worst_pull:.2f} sigma"
        + (f", failures {failures}" if failures else ""),
    )


def test_criterion_06_clt_shape():
    d, alpha = 2, 0.1
    sigma = critical_sigma(d, alpha)
    spec = EnsembleSpec("gaussian", d, sigma)
    slopes = ActivationSlopes.leaky_relu(alpha)
    lam = lyapunov_gaussian(d, alpha, sigma)
    gammas = {}
    shape = None
    for depth in (128, 256, 512):
        report = estimate_clt(spec, slopes, depth, 100_000, lam, RngStream(4006, depth))
        gammas[depth] = report.details["gamma_hat"]
        if depth == 256:
            shape = report.details
    spread = (max(gammas.values()) - min(gammas.values())) / min(gammas.values())
    ok = abs(shape["skewness"]) < 0.05 and abs(shape["excess_kurtosis"]) < 0.1 and spread < 0.05
    _gate(
        "6 clt shape",
        ok,
        f"skew {shape['skewness']:+.4f} (|.|<0.05), excess kurtosis "
        f"{shape['excess_kurtosis']:+.4f} (|.|<0.1), gamma spread {spread:.3%} (<5%)",
    )


def test_criterion_07_asymptotic_expansion_coefficient():
    widths = (64, 128, 256, 512, 1024)
    ok = True
    details = []
    for alpha in (0.1, 1.0):
        slopes = ActivationSlopes.leaky_relu(alpha)
        exact = {d: activation_log_norm(d, slopes) for d in widths}
        scaled = [abs(exact[d] - asymptotic_activation_log_norm(d, alpha)) * d * d for d in widths]
        ratio = max(scaled) / min(scaled)
        ok = ok and ratio < 4.0
        c = activation_square_moments(alpha).squared_cv
        floor = c / 8.0
        # the alternative form with divisor 2 leaves a first-order residual C/(4d)
        stated = [
            abs(exact[d] - (0.5 * math.log(d * (1.0 + alpha * alpha) / 2.0) - c / (2 * d))) * d
            for d in widths
        ]
        ok = ok and min(stated) >= floor
        details.append(
            f"alpha={alpha}: r*d^2 ratio {ratio:.2f} (<4), divisor-2 residual*d "
            f">= {min(stated):.3f} (floor {floor:.3f})"
        )
    _gate("7 expansion coefficient", ok, "; ".join(details))


def test_criterion_08_counterexamples():
    failures = []
    for i, d in enumerate((2, 4)):
        report = counterexample_relu(d, 1.0, 10, 100_000, RngStream(4008, i))
        pull = abs(report.mean - 2.0 ** -d) / report.std_error
        if pull > 3.0:
            failures.append(("relu", d, pull))
    for j, alpha in enumerate((0.1, 0.5)):
        report = counterexample_positive_cone(2, 1.0, alpha, 300, 200, RngStream(4009, j))
        pull = abs(report.mean - math.log(1.0 / alpha)) / report.std_error
        if pull > 3.0:
            failures.append(("cone", alpha, pull))
    _gate(
        "8 counterexamples",
        not failures,
        "absorption at 2^-d and cone gap at log(1/alpha), all within 3 sigma"
        if not failures
        else f"failures {failures}",
    )


def test_criterion_09_stationarity_uniform_moments():
    # W s is isotropic for every unit s, so from its first step the chain has
    # the law of phi(g)/|phi(g)|, g ~ N(0, I_d), at steps 1 and 10 alike.  At
    # alpha = 0.1 the targets are that law's exact moments from quadrature;
    # at alpha = 1 the law is uniform and the targets are 0 and I/d.
    d = 3
    spec = EnsembleSpec("gaussian", d, 1.0)
    exact = stationary_moments(d, 0.1)
    off_diagonal = ~np.eye(d, dtype=bool)
    worst_mean = worst_second = worst_uniform_mean = worst_uniform_iso = 0.0
    measured = []
    for i, steps in enumerate((1, 10)):
        report = stationarity_check(spec, ActivationSlopes.leaky_relu(0.1), steps, 100_000, RngStream(4010, i))
        mean, second = np.asarray(report.details["mean_vector"]), np.asarray(report.details["second_moment"])
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - exact.mean))))
        worst_second = max(worst_second, float(np.max(np.abs(second - exact.second_moment()))))
        measured.append(f"{mean.mean():.4f}/{second[off_diagonal].mean():.4f}")
        uniform = stationarity_check(spec, ActivationSlopes.leaky_relu(1.0), steps, 100_000, RngStream(4010, i))
        mean, second = np.asarray(uniform.details["mean_vector"]), np.asarray(uniform.details["second_moment"])
        worst_uniform_mean = max(worst_uniform_mean, float(np.max(np.abs(mean))))
        worst_uniform_iso = max(worst_uniform_iso, float(np.max(np.abs(second - np.eye(d) / d))))
    ok = max(worst_mean, worst_second, worst_uniform_mean, worst_uniform_iso) < 0.01
    _gate(
        "9 stationarity",
        ok,
        f"alpha 0.1: E[S_i]/E[S_iS_j] measured {' and '.join(measured)} (steps 1 and 10), "
        f"exact {exact.mean:.6f}/{exact.off_diagonal:.6f}; max mean error {worst_mean:.4f}, "
        f"max second-moment error {worst_second:.4f}; alpha 1: max |E[S]| {worst_uniform_mean:.4f}, "
        f"max |E[SS^T]-I/3| {worst_uniform_iso:.4f} (all bounds 0.01)",
    )


def test_criterion_10_worker_count_determinism():
    slopes = ActivationSlopes.leaky_relu(0.1)
    sigma_c = critical_sigma(2, 0.1)
    lam = lyapunov_gaussian(2, 0.1, sigma_c)
    gauss1 = EnsembleSpec("gaussian", 2, 1.0)
    gauss_c = EnsembleSpec("gaussian", 2, sigma_c)
    orth_c = EnsembleSpec("orthogonal", 2, critical_eta(2, 0.1))

    def payloads(workers):
        single = estimate_lambda_single_step(
            gauss1, slopes, 100_000, RngStream(4011, 0), n_workers=workers
        )
        deep = estimate_lambda_deep(
            gauss_c, slopes, 500, 200, RngStream(4011, 1), n_workers=workers
        )
        crit = estimate_lambda_deep(
            orth_c, slopes, 1000, 200, RngStream(4011, 2), n_workers=workers
        )
        clt = estimate_clt(gauss_c, slopes, 128, 100_000, lam, RngStream(4011, 3), n_workers=workers)
        station = stationarity_check(gauss1, slopes, 10, 100_000, RngStream(4011, 4), n_workers=workers)
        relu = counterexample_relu(2, 1.0, 10, 100_000, RngStream(4011, 5), n_workers=workers)
        cone = counterexample_positive_cone(2, 1.0, 0.5, 300, 200, RngStream(4011, 6), n_workers=workers)
        return {
            "single": asdict(single),
            "deep": asdict(deep),
            "crit": asdict(crit),
            "clt": asdict(clt),
            "stationarity": asdict(station),
            "relu": asdict(relu),
            "cone": asdict(cone),
        }

    serial = jsonio.dumps(payloads(1))
    threaded = jsonio.dumps(payloads(4))
    _gate(
        "10 determinism",
        serial == threaded,
        f"seven experiment records, {len(serial)} JSON bytes, identical across worker counts",
    )
