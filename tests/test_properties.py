"""Property tests: serialization, replay, the forward pass's invariants, and
the command line's exit contract."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lyapinit import analytic, cli, jsonio
from lyapinit.analytic import EnsembleSpec
from lyapinit.dynamics import forward
from lyapinit.ensembles import RngStream, sample_stack, weight_stack_from_dict, weight_stack_to_dict
from lyapinit.errors import DomainError
from lyapinit.quad import ActivationSlopes

FEW = settings(max_examples=25, deadline=None)

seeds = st.integers(0, 2**64 - 1)
widths = st.integers(1, 6)
depths = st.integers(1, 12)
kinds = st.sampled_from(["gaussian", "orthogonal"])
scales = st.floats(1e-3, 1e3)
alphas = st.floats(-2.0, 2.0).filter(lambda a: abs(a) >= 1e-3)


def _stack(kind, d, scale, depth, seed, stream=0):
    return sample_stack(EnsembleSpec(kind, d, scale), depth, RngStream(seed, stream))


def _vector(d):
    return st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d).map(np.array)


@FEW
@given(kinds, widths, scales, depths, seeds, st.integers(0, 2**64 - 1))
def test_stack_json_round_trip_is_exact(kind, d, scale, depth, seed, stream):
    stack = _stack(kind, d, scale, depth, seed, stream)
    back = weight_stack_from_dict(json.loads(jsonio.dumps(weight_stack_to_dict(stack))))
    assert np.array_equal(back.matrices, stack.matrices)
    assert back.ensemble == stack.ensemble
    assert back.seed_info == stack.seed_info


@FEW
@given(kinds, widths, scales, depths, seeds)
def test_replay_from_the_same_seed_is_exact(kind, d, scale, depth, seed):
    first = _stack(kind, d, scale, depth, seed)
    again = _stack(kind, d, scale, depth, first.seed_info.master_seed, first.seed_info.stream_id)
    assert np.array_equal(first.matrices, again.matrices)


@FEW
@given(st.data(), kinds, widths, depths, seeds, alphas)
def test_forward_increments_sum_to_log_norm(data, kind, d, depth, seed, alpha):
    x0 = data.draw(_vector(d))
    assume(np.linalg.norm(x0) > 1e-3)
    traj = forward(_stack(kind, d, 1.0, depth, seed), x0, ActivationSlopes.leaky_relu(alpha))
    total = math.log(np.linalg.norm(x0))
    for gain in traj.increments:
        total += gain
    assert traj.log_norm == total
    assert len(traj.increments) == depth


@FEW
@given(st.data(), kinds, widths, depths, seeds, alphas, st.floats(1e-6, 1e6))
def test_forward_is_positively_homogeneous_in_x0(data, kind, d, depth, seed, alpha, c):
    x0 = data.draw(_vector(d))
    assume(np.linalg.norm(x0) > 1e-3)
    stack = _stack(kind, d, 1.0, depth, seed)
    slopes = ActivationSlopes.leaky_relu(alpha)
    base = forward(stack, x0, slopes)
    scaled = forward(stack, c * x0, slopes)
    assert scaled.log_norm == pytest.approx(base.log_norm + math.log(c), abs=1e-9)
    assert np.allclose(scaled.increments, base.increments, rtol=0.0, atol=1e-9)
    assert np.allclose(scaled.final_direction, base.final_direction, rtol=0.0, atol=1e-9)


# Either sign, magnitude 10**u with u uniform on [-300, 300].
_log_uniform = st.builds(lambda u, sign: repr(sign * 10.0**u),
                         st.floats(-300.0, 300.0), st.sampled_from([-1.0, 1.0]))
_small = st.integers(1, 3).map(str)
_kind = st.sampled_from(["gaussian", "orthogonal"])
_seed = st.integers(0, 2**64 - 1).map(str)

_cli_argv = st.one_of(
    st.tuples(st.just("exponent"), st.just("--d"), _small, st.just("--alpha"), _log_uniform,
              st.just("--ensemble"), _kind, st.just("--scale"), _log_uniform),
    st.tuples(st.just("table"), st.just("--alpha"), _log_uniform, st.just("--dims"), _small,
              st.just("--format"), st.just("json")),
    st.tuples(st.just("simulate"), st.just("--experiment"), st.sampled_from(cli.EXPERIMENTS),
              st.just("--d"), _small, st.just("--alpha"), _log_uniform, st.just("--ensemble"), _kind,
              st.just("--scale"), st.one_of(st.sampled_from(["crit", "he"]), _log_uniform),
              st.just("--depth"), _small, st.just("--trials"), st.sampled_from(["2", "100", "1000"]),
              st.just("--seed"), _seed),
    st.tuples(st.just("init"), st.just("--d"), _small, st.just("--alpha"), _log_uniform,
              st.just("--depth"), _small, st.just("--kind"), _kind, st.just("--seed"), _seed)
    .flatmap(lambda argv: st.sampled_from([
        argv, argv + ("--sampled", "--candidates", "2", "--probe-inputs", "4"),
    ])),
)


def _finite_floats(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_floats(v) for v in obj)
    return True


@settings(max_examples=50, deadline=None)
@given(_cli_argv)
def test_cli_ends_in_finite_json_or_a_typed_exit(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))  # must not raise, whatever the slopes and scales
    out = stdout.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert _finite_floats(json.loads(out))
    else:
        assert out == ""


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(1, 2**64), st.integers(1, int(1e300))),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda a: a != 0.0),
)
def test_closed_forms_are_finite_or_refused(d, alpha):
    # the He scale, the square moments and the large-width expansion give a
    # finite value (nonzero where it must be) or a DomainError, at any width
    # and slope they accept
    calls = {
        "he_sigma": lambda: analytic.he_sigma(d, alpha),
        "moments": lambda: analytic.activation_square_moments(alpha),
        "asymptotic": lambda: analytic.asymptotic_activation_log_norm(d, alpha),
        "orthogonal": lambda: analytic.asymptotic_lyapunov_orthogonal(d, alpha, 1.0),
    }
    for name, call in calls.items():
        try:
            value = call()
        except DomainError:
            continue
        if name == "moments":
            assert all(math.isfinite(v) and v > 0.0 for v in (value.mean, value.variance, value.squared_cv))
        else:
            assert math.isfinite(value)
            assert name != "he_sigma" or value > 0.0
