"""A size that is not an integer, or an array numpy cannot read as reals,
is a DomainError, never a raw TypeError or ValueError or a silent
truncation, wherever the library takes one."""

import functools
import warnings

import numpy as np
import pytest

from lyapinit.analytic import EnsembleSpec
from lyapinit.dynamics import (
    counterexample_positive_cone,
    counterexample_relu,
    estimate_clt,
    estimate_lambda_deep,
    estimate_lambda_single_step,
    MCEstimate,
    forward,
    stationarity_check,
)
from lyapinit.ensembles import RngStream, WeightStack, sample_haar_orthogonal, weight_stack_from_dict
from lyapinit.errors import DomainError
from lyapinit.initgen import InputDistribution, sampled_lyapunov_init
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


def _payload(matrices):
    return {"d": 1, "depth": 1, "matrices": matrices, "ensemble": {"kind": "gaussian", "scale": 1.0},
            "seed": {"master": 1, "stream": 0}}


# Each reader takes one entry of an array argument, and the name its message gives.
READERS = {
    "estimate": (lambda v: MCEstimate([v, 1.0, 2.0]), "per_trial_values"),
    "weights": (lambda v: forward([[[v]]], [1.0], TENTH), "weights"),
    "input": (lambda v: forward([[[1.0]]], [v], TENTH), "input"),
    "stack": (lambda v: WeightStack([[[v]]], EnsembleSpec("gaussian", 1, 1.0), RngStream(1)), "matrices"),
    "box": (lambda v: InputDistribution.uniform_box([0.0], [v]), "high"),
    "fixed-set": (lambda v: InputDistribution.fixed_set([[v, 2.0]]), "fixed-set vectors"),
    "stack-from-dict": (lambda v: weight_stack_from_dict(_payload([[v]])), "matrices"),
}
# numpy would read None as NaN and "1.5" as 1.5; 10**400 overflows float64
NOT_REAL = {"none": None, "numeric-text": "1.5", "past-float": 10**400}


@pytest.mark.parametrize("make, name", [
    (lambda: forward([[[1.0, 0.0], [0.0]]], [1.0, 0.0], TENTH), "weights"),
    (lambda: forward(np.eye(2)[None], ["a", "b"], TENTH), "input"),
    (lambda: WeightStack([[[1.0, 0.0], [0.0]]], SPEC, RngStream(1)), "matrices"),
    (lambda: InputDistribution.uniform_box(["a"], [1.0]), "low"),
    (lambda: InputDistribution.fixed_set([[1.0, 2.0], [3.0]]), "fixed-set vectors"),
    *[(functools.partial(read, value), name) for read, name in READERS.values() for value in NOT_REAL.values()],
], ids=["ragged-weights", "text-input", "ragged-stack", "text-box", "ragged-set",
        *[f"{reader}-{value}" for reader in READERS for value in NOT_REAL]])
def test_an_array_numpy_cannot_read_is_a_domain_error(make, name):
    with pytest.raises(DomainError, match=f"{name} must be a rectangular array of real numbers"):
        make()


def test_bools_and_ints_in_the_float_range_are_reals():
    # 2**70 makes numpy read an object array; each entry is still a real number
    assert MCEstimate([True, 2, 2**70]).per_trial_values.tolist() == [1.0, 2.0, 2.0**70]
    assert InputDistribution.fixed_set([[False, 2**70]]).vectors.tolist() == [[0.0, 2.0**70]]
    assert weight_stack_from_dict(_payload([[2**70]])).matrices.tolist() == [[[2.0**70]]]
    assert forward(np.eye(2, dtype=bool)[None], [1, 0], TENTH).log_norm == 0.0


COMPLEX = np.array([[1.0 + 1.0j, 2.0]])


@pytest.mark.parametrize("make, name", [
    (lambda: MCEstimate(np.array([1.0 + 2.0j, 3.0 + 0.0j])), "per_trial_values"),
    (lambda: MCEstimate(np.array([1.0 + 0.0j, 3.0 + 0.0j])), "per_trial_values"),
    (lambda: forward((np.eye(2) + 0.0j)[None], [1.0, 0.0], TENTH), "weights"),
    (lambda: forward(np.eye(2)[None], COMPLEX[0], TENTH), "input"),
    (lambda: WeightStack(np.eye(2, dtype=np.complex64)[None], SPEC, RngStream(1)), "matrices"),
    (lambda: InputDistribution.fixed_set(COMPLEX), "fixed-set vectors"),
], ids=["estimate", "estimate-real-valued", "weights", "input", "stack", "fixed-set"])
def test_a_complex_array_is_a_domain_error(make, name):
    # numpy would cast it with a ComplexWarning and drop the imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{name} must be a rectangular array of real numbers"):
            make()


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
