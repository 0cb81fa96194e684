"""A size that is not an integer is a DomainError, never a raw TypeError
or a silent truncation, wherever the library takes one."""

import numpy as np
import pytest

from lyapinit.analytic import EnsembleSpec
from lyapinit.dynamics import (
    counterexample_positive_cone,
    counterexample_relu,
    estimate_clt,
    estimate_lambda_deep,
    estimate_lambda_single_step,
    stationarity_check,
)
from lyapinit.ensembles import RngStream, sample_haar_orthogonal, weight_stack_from_dict
from lyapinit.errors import DomainError
from lyapinit.initgen import sampled_lyapunov_init
from lyapinit.quad import ActivationSlopes

SPEC = EnsembleSpec("gaussian", 2, 1.0)
TENTH = ActivationSlopes.leaky_relu(0.1)

CALLS = {
    "deep-depth": lambda: estimate_lambda_deep(SPEC, TENTH, 2.5, 100, RngStream(1)),
    "deep-trials": lambda: estimate_lambda_deep(SPEC, TENTH, 2, 100.5, RngStream(1)),
    "deep-workers": lambda: estimate_lambda_deep(SPEC, TENTH, 2, 100, RngStream(1), n_workers=1.5),
    "stationarity-steps": lambda: stationarity_check(SPEC, TENTH, 1.5, 100, RngStream(1)),
    "relu-depth": lambda: counterexample_relu(2, 1.0, 1.5, 100, RngStream(1)),
    "cone-trials": lambda: counterexample_positive_cone(2, 1.0, 0.5, 3, 2.5, RngStream(1)),
    "sampled-probes": lambda: sampled_lyapunov_init(2, 4, 0.1, "gaussian", RngStream(1), probe_inputs=1.5),
    "sampled-candidates": lambda: sampled_lyapunov_init(2, 4, 0.1, "gaussian", RngStream(1), candidate_count=1.5),
    "stream-offset": lambda: RngStream(1).offset(1.5),
    "haar-width": lambda: sample_haar_orthogonal(2.5, 1.0, np.random.default_rng(1)),
    "single-step-trials": lambda: estimate_lambda_single_step(SPEC, TENTH, 150.5, RngStream(1)),
    "stack-from-dict-width": lambda: weight_stack_from_dict({
        "d": 1.5, "depth": 1, "matrices": [[1.0]], "ensemble": {"kind": "gaussian", "scale": 1.0},
        "seed": {"master": 1, "stream": 0},
    }),
}


@pytest.mark.parametrize("name", CALLS)
def test_non_integer_size_is_a_domain_error(name):
    with pytest.raises(DomainError, match="integer"):
        CALLS[name]()


@pytest.mark.parametrize("make, name", [
    (lambda: RngStream(10**5000), "master_seed"),
    (lambda: RngStream(1).offset(10**5000), "offset k"),
    (lambda: RngStream(1).offset(-(10**5000)), "offset k"),
    (lambda: ActivationSlopes(1.0, 10**5000), "alpha2"),
], ids=["seed", "offset", "negative-offset", "slope"])
def test_int_too_long_to_print_is_a_domain_error(make, name):
    # repr refuses ints of more than 4300 digits; the message names the
    # argument and the value's order of magnitude
    with pytest.raises(DomainError, match=name) as caught:
        make()
    assert "10**5000.00" in str(caught.value)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_non_finite_clt_exponent_is_a_domain_error(lam):
    with pytest.raises(DomainError, match="lam"):
        estimate_clt(SPEC, TENTH, 2, 1000, lam, RngStream(1))


@pytest.mark.parametrize("bad", ["0.5", None, float("nan"), 0.0])
def test_non_real_slope_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="alpha2"):
        ActivationSlopes(1.0, bad)
