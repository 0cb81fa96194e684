"""Property tests: serialization, replay, and the forward pass's invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lyapinit import jsonio
from lyapinit.analytic import EnsembleSpec
from lyapinit.dynamics import forward
from lyapinit.ensembles import RngStream, sample_stack, weight_stack_from_dict, weight_stack_to_dict
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
