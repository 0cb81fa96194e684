"""Forward dynamics, Monte Carlo estimators, and the counterexamples."""

import math
import os
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lyapinit import dynamics
from lyapinit.analytic import (
    EnsembleSpec,
    critical_sigma,
    he_sigma,
    lyapunov_gaussian,
)
from lyapinit.dynamics import (
    TRIAL_BLOCK,
    MCEstimate,
    counterexample_positive_cone,
    counterexample_relu,
    estimate_clt,
    estimate_lambda_deep,
    estimate_lambda_single_step,
    forward,
    stationarity_check,
)
from lyapinit.ensembles import HaarReflectors, RngStream, _trials_last, haar_orthogonal_batch, unit_sphere_batch
from lyapinit.errors import AccuracyError, DomainError
from lyapinit.quad import ActivationSlopes

from clt_variance import clt_variance
from stationary_moments import stationary_moments
from test_ensembles import materialised, reflectors

ONE = ActivationSlopes.leaky_relu(1.0)
TENTH = ActivationSlopes.leaky_relu(0.1)


def identity_stack(depth, d):
    return np.broadcast_to(np.eye(d), (depth, d, d)).copy()


class TestForward:
    def test_identity_stack_is_exactly_neutral(self):
        x0 = np.array([1.0, 0.0, 0.0])
        traj = forward(identity_stack(50, 3), x0, ONE)
        assert np.all(traj.increments == 0.0)
        assert traj.log_norm == 0.0
        assert traj.hit_zero_at is None

    def test_log_norm_records_input_length(self):
        x0 = np.array([0.0, 7.5])
        traj = forward(identity_stack(3, 2), x0, ONE)
        assert traj.log_norm == pytest.approx(math.log(7.5), abs=1e-12)

    @pytest.mark.parametrize("length", [1e-200, 1e200])
    def test_input_beyond_float64_squares_is_accepted(self, length):
        traj = forward(identity_stack(3, 2), np.array([0.0, length]), ONE)
        assert traj.log_norm == pytest.approx(math.log(length), rel=1e-14)

    def test_single_doubling_layer(self):
        traj = forward(2.0 * identity_stack(1, 4), np.array([1.0, 0, 0, 0]), ONE)
        assert traj.increments[0] == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("w", [1.7, -1.7])
    def test_scalar_layer_picks_slope_by_sign(self, w):
        slopes = ActivationSlopes.leaky_relu(0.1)
        traj = forward(np.array([[[w]]]), np.array([1.0]), slopes)
        expected = math.log(w) if w > 0 else math.log(0.1 * abs(w))
        assert traj.increments[0] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_is_usage_error(self):
        with pytest.raises(DomainError):
            forward(identity_stack(2, 3), np.array([1.0, 0.0]), ONE)

    def test_non_stack_array_is_usage_error(self):
        with pytest.raises(DomainError, match="must be a \\(depth, d, d\\) stack"):
            forward(np.zeros((2, 3)), np.array([1.0, 0.0, 0.0]), ONE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_are_usage_errors(self, bad):
        # bad input, not a layer that overflows float64
        with pytest.raises(DomainError, match="weight matrices must be finite"):
            forward(np.full((2, 2, 2), bad), np.array([1.0, 0.0]), ONE)

    def test_overflowing_product_names_its_layer(self):
        # every entry fits float64, but each row of W x sums four of them
        with pytest.raises(AccuracyError, match="layer 1 overflows float64"):
            forward(np.full((2, 4, 4), 1e308), np.full(4, 0.5), ONE)

    def test_zero_input_rejected(self):
        with pytest.raises(DomainError):
            forward(identity_stack(2, 2), np.zeros(2), ONE)

    def test_increments_reconstruct_log_norm(self):
        gen = RngStream(50).generator()
        stack = gen.standard_normal((200, 4, 4))
        x0 = gen.standard_normal(4)
        traj = forward(stack, x0, TENTH)
        rebuilt = math.log(np.linalg.norm(x0)) + traj.increments.sum()
        assert traj.log_norm == pytest.approx(rebuilt, abs=1e-9)
        assert np.linalg.norm(traj.final_direction) == pytest.approx(1.0, abs=1e-9)

    def test_deep_vanishing_network_stays_finite(self):
        # at the He scale with alpha = 0.01 the norm decays like e^{-1.43 l};
        # after 1e4 layers the raw norm is ~e^{-14350}, far below any float
        d, alpha = 2, 0.01
        spec = EnsembleSpec("gaussian", d, he_sigma(d, alpha))
        gen = RngStream(51).generator()
        stack = spec.scale * gen.standard_normal((10_000, d, d))
        traj = forward(stack, np.array([1.0, 0.0]), ActivationSlopes.leaky_relu(alpha))
        assert math.isfinite(traj.log_norm)
        assert traj.log_norm < -10_000
        assert np.linalg.norm(traj.final_direction) == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def _through_scaled_layer(scale):
        # the squares of the layer-2 output over- or underflow float64; the
        # norm is taken after scaling by the largest entry, so it is exact
        stack = np.stack([np.eye(2), scale * np.eye(2), np.eye(2)])
        traj = forward(stack, np.array([1.0, 0.0]), TENTH)
        assert traj.hit_zero_at is None
        assert np.array_equal(traj.final_direction, [1.0, 0.0])
        return traj.log_norm

    def test_overflowing_layer_keeps_its_log_norm(self):
        assert self._through_scaled_layer(1e200) == pytest.approx(math.log(1e200), rel=1e-14)

    def test_underflowing_layer_keeps_its_log_norm(self):
        # about -460.5, not an absorption
        assert self._through_scaled_layer(1e-200) == pytest.approx(math.log(1e-200), rel=1e-14)

    def test_exactly_zero_layer_output_is_absorption(self):
        stack = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
        traj = forward(stack, np.array([1.0, 0.0]), TENTH)
        assert traj.hit_zero_at == 2
        assert traj.log_norm == -math.inf
        assert np.array_equal(traj.increments, [0.0])

    def test_relu_absorption_sets_marker(self):
        stack = -np.ones((3, 2, 2))
        traj = forward(stack, np.array([1.0, 1.0]), ActivationSlopes.relu())
        assert traj.hit_zero_at == 1
        assert traj.log_norm == -math.inf
        assert np.all(traj.final_direction == 0.0)

    def test_positive_homogeneity_of_activation(self):
        gen = RngStream(52).generator()
        for _ in range(25):
            v = gen.standard_normal(6)
            c = float(gen.uniform(0.1, 50.0))
            left = np.linalg.norm(np.maximum(1.0 * (c * v), 0.1 * (c * v)))
            right = c * np.linalg.norm(np.maximum(1.0 * v, 0.1 * v))
            assert left == pytest.approx(right, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_reflectors_advance_like_their_matrices(d):
    gen = RngStream(60, d).generator()
    start = unit_sphere_batch(100, d, gen)
    draws = [haar_orthogonal_batch(100, d, gen) for _ in range(5)]
    layers = [reflectors(draw, d, 1.3) for draw in draws]
    matrices = [materialised(draw, d, 1.3).transpose(1, 2, 0) for draw in draws]  # trials last
    acc, directions = dynamics._advance(start, layers, TENTH)
    acc_w, directions_w = dynamics._advance(start, matrices, TENTH)
    assert np.max(np.abs(acc - acc_w)) < 1e-13
    assert np.max(np.abs(directions - directions_w)) < 1e-13


def _index_order_sum(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@pytest.mark.parametrize("rows", [1, 2, 65])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 64])
def test_chain_sums_run_in_index_order(d, rows):
    # a per-trial W x sums over j, and a norm its squares, in index order; a
    # numpy that reorders either (as einsum and a row norm do past d = 2 and
    # d = 7, and a one-row reduction does) fails here, not as digest drift
    gen = RngStream(62, d).generator()
    w = gen.standard_normal((d, d, rows))
    x = unit_sphere_batch(rows, d, gen)
    y = _index_order_sum([w[:, j] * x[:, j] for j in range(d)])
    v = np.maximum(y, 0.1 * y)
    norms = np.sqrt(_index_order_sum([v[i] * v[i] for i in range(d)]))
    acc, directions = dynamics._advance(x, [w], TENTH)
    assert np.array_equal(acc, np.log(norms))
    assert np.array_equal(directions, (v / norms).T)


@pytest.mark.parametrize("d", [3, 9])
def test_each_column_of_a_mixed_group_keeps_its_own_bits(d):
    # normal columns beside ones whose squares under- or overflow (the scaled
    # path), a plain-ReLU column that is exactly zero, and one holding inf
    gen = RngStream(64, d).generator()
    y = gen.standard_normal((d, 8))
    y[0] = np.abs(y[0])  # so that plain ReLU keeps every column but one
    y[:, 1] *= 1e200
    y[:, 2] *= 1e-200
    y[:, 3] = -np.abs(y[:, 3])  # phi(y) = 0 under plain ReLU
    y[:, 5] *= 1e-170
    y[0, 6] = np.inf
    y[:, 7] = np.abs(y[:, 7]) * 1e160
    relu = ActivationSlopes.relu()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_norms, directions = dynamics._activate(y, relu.alpha1, relu.alpha2)
        for k in range(y.shape[1]):
            alone, direction = dynamics._activate(y[:, [k]], relu.alpha1, relu.alpha2)
            assert np.array_equal(log_norms[[k]], alone, equal_nan=True), k
            assert np.array_equal(directions[:, [k]], direction, equal_nan=True), k
    assert log_norms[3] == -math.inf and np.all(np.isnan(directions[:, 3]))
    assert np.isnan(log_norms[6]) and np.all(np.isnan(directions[:, 6]))
    finite = [0, 1, 2, 4, 5, 7]
    assert np.all(np.isfinite(log_norms[finite]))
    v = np.maximum(y[:, finite], 0.0)
    peak = np.max(v, axis=0)
    exact = np.log(peak) + np.log(np.linalg.norm(v / peak, axis=0))
    assert np.max(np.abs(log_norms[finite] - exact)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(directions[:, finite], axis=0) - 1.0)) < 1e-14


class TestMCEstimate:
    def test_statistics_are_numpys_on_the_samples(self):
        values = RngStream(63).generator().standard_normal(1000)
        est = MCEstimate(values, {"note": 1})
        assert est.mean == float(np.mean(values))
        assert est.std_error == float(np.std(values, ddof=1) / math.sqrt(1000))
        assert (est.trials, est.details) == (1000, {"note": 1})
        assert est.per_trial_values is values

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_raise(self, bad):
        values = np.ones(10)
        values[3] = bad
        with pytest.raises(AccuracyError, match="1 of 10 Monte Carlo values"):
            MCEstimate(values)

    def test_one_sample_has_no_standard_error(self):
        with pytest.raises(DomainError, match="trials must be an integer of at least 2"):
            MCEstimate(np.ones(1))

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.ones((3, 2)), "a"], ids=["scalar", "matrix", "text"])
    def test_the_samples_must_be_one_row_of_reals(self, bad):
        with pytest.raises(DomainError, match="per_trial_values"):
            MCEstimate(bad)

    def test_a_list_of_samples_is_read_as_an_array(self):
        est = MCEstimate([1.0, 2.0])
        assert (est.mean, est.trials) == (1.5, 2)
        assert est.per_trial_values.dtype == np.float64

    def test_the_samples_are_the_only_source(self):
        # the headline cannot be passed in, so it cannot disagree with the samples
        with pytest.raises(TypeError):
            MCEstimate(np.ones(10), {}, 1.0)
        assert not hasattr(dynamics, "_to_estimate")


class TestSingleStep:
    def test_zero_at_critical_scale(self):
        spec = EnsembleSpec("gaussian", 2, critical_sigma(2, 0.1))
        est = estimate_lambda_single_step(spec, TENTH, 100_000, RngStream(60))
        assert abs(est.mean) <= 3 * est.std_error

    def test_gaussian_reference_value(self):
        spec = EnsembleSpec("gaussian", 3, 1.0)
        est = estimate_lambda_single_step(spec, ActivationSlopes.leaky_relu(0.01), 100_000, RngStream(61))
        assert abs(est.mean - (-0.6949542)) <= 3 * est.std_error

    def test_orthogonal_reference_value(self):
        spec = EnsembleSpec("orthogonal", 5, 1.0)
        est = estimate_lambda_single_step(spec, TENTH, 100_000, RngStream(62))
        assert abs(est.mean - (-0.5591124)) <= 3 * est.std_error

    def test_trial_floor(self):
        with pytest.raises(DomainError):
            estimate_lambda_single_step(EnsembleSpec("gaussian", 2, 1.0), TENTH, 99, RngStream(1))


class TestDeep:
    def test_zero_at_critical_scale(self):
        spec = EnsembleSpec("gaussian", 2, critical_sigma(2, 0.1))
        est = estimate_lambda_deep(spec, TENTH, 1000, 200, RngStream(63))
        assert abs(est.mean) <= 3 * est.std_error

    def test_he_scale_reference_value(self):
        spec = EnsembleSpec("gaussian", 2, he_sigma(2, 0.1))
        est = estimate_lambda_deep(spec, TENTH, 500, 200, RngStream(64))
        assert abs(est.mean - (-0.8215742)) <= 3 * est.std_error

    def test_agrees_with_single_step(self):
        # the per-layer gain has the same expectation at every depth, so the
        # two estimators target one number and differ only by noise
        spec = EnsembleSpec("gaussian", 3, 1.0)
        deep = estimate_lambda_deep(spec, TENTH, 50, 400, RngStream(65))
        single = estimate_lambda_single_step(spec, TENTH, 20_000, RngStream(66))
        combined = math.hypot(deep.std_error, single.std_error)
        assert abs(deep.mean - single.mean) <= 3 * combined

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)  # four groups on the pool
        spec = EnsembleSpec("orthogonal", 3, 1.0)
        a = estimate_lambda_deep(spec, TENTH, 20, 300, RngStream(67), n_workers=1)
        b = estimate_lambda_deep(spec, TENTH, 20, 300, RngStream(67), n_workers=4)
        assert np.array_equal(a.per_trial_values, b.per_trial_values)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_a_lone_trial_in_its_own_group_keeps_its_bits(self, monkeypatch):
        # 2 blocks + 1 trial: with 3 threads the last trial is a one-row
        # group, where numpy would sum the reflector dots in another order
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 3)
        spec = EnsembleSpec("orthogonal", 12, 1.0)
        a = estimate_lambda_deep(spec, TENTH, 5, 2 * TRIAL_BLOCK + 1, RngStream(70), n_workers=1)
        b = estimate_lambda_deep(spec, TENTH, 5, 2 * TRIAL_BLOCK + 1, RngStream(70), n_workers=3)
        assert np.array_equal(a.per_trial_values, b.per_trial_values)

    def test_pool_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        pools = []

        class RecordingPool(dynamics.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        spec = EnsembleSpec("gaussian", 2, 1.0)
        serial = estimate_lambda_deep(spec, TENTH, 5, 5 * TRIAL_BLOCK, RngStream(69), n_workers=1)
        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        wide = estimate_lambda_deep(spec, TENTH, 5, 5 * TRIAL_BLOCK, RngStream(69), n_workers=10**6)
        assert pools == [2]
        assert np.array_equal(serial.per_trial_values, wide.per_trial_values)

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        # platforms without an affinity mask (macOS, Windows)
        monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
        assert dynamics._usable_cpus() == os.cpu_count()

    def test_groups_follow_the_threads_that_run_them(self, monkeypatch):
        # 5 blocks in one chunk of layers: one group per thread, however
        # many workers are asked for
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        groups, plain_advance = [], dynamics._advance

        def advance(directions, layers, slopes):
            groups.append(len(directions))
            return plain_advance(directions, layers, slopes)

        monkeypatch.setattr(dynamics, "_advance", advance)
        spec = EnsembleSpec("gaussian", 2, 1.0)
        estimate_lambda_deep(spec, TENTH, 5, 5 * TRIAL_BLOCK, RngStream(69), n_workers=10**6)
        assert sorted(groups) == [2 * TRIAL_BLOCK, 3 * TRIAL_BLOCK]

    def test_draws_run_ahead_of_the_chain_on_the_pool(self, monkeypatch):
        # one group of 3 blocks, 13 layers per chunk, 4 chunks
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        draws, applies, plain_apply = [], set(), HaarReflectors.apply

        def draw(count, d, gen):
            draws.append(threading.get_ident())
            return haar_orthogonal_batch(count, d, gen)

        def apply(self, rows):
            applies.add(threading.get_ident())
            return plain_apply(self, rows)

        spec = EnsembleSpec("orthogonal", 8, 1.0)
        serial = estimate_lambda_deep(spec, TENTH, 50, 3 * TRIAL_BLOCK, RngStream(71), n_workers=1)
        monkeypatch.setattr(dynamics, "haar_orthogonal_batch", draw)
        monkeypatch.setattr(dynamics.HaarReflectors, "apply", apply)
        ahead = estimate_lambda_deep(spec, TENTH, 50, 3 * TRIAL_BLOCK, RngStream(71), n_workers=2)
        assert np.array_equal(serial.per_trial_values, ahead.per_trial_values)
        (chain,) = applies
        assert len(draws) == 12
        assert draws[:3] == [chain] * 3  # the first chunk is drawn by the chain
        assert chain not in draws[3:]

    def test_a_failed_draw_on_the_pool_propagates(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        calls, raised = [], []

        def draw(count, d, gen):
            calls.append(count)
            if len(calls) == 3:  # chunk 1's first draw, made on the pool
                raised.append(MemoryError("no room for the normals"))
                raise raised[0]
            return haar_orthogonal_batch(count, d, gen)

        monkeypatch.setattr(dynamics, "haar_orthogonal_batch", draw)
        before = threading.active_count()
        spec = EnsembleSpec("orthogonal", 8, 1.0)
        with pytest.raises(MemoryError) as caught:
            estimate_lambda_deep(spec, TENTH, 50, 2 * TRIAL_BLOCK, RngStream(72), n_workers=2)
        assert caught.value is raised[0]
        assert len(calls) == 3
        assert threading.active_count() == before

    def test_pool_runs_the_groups_where_there_is_nothing_to_draw_ahead(self, monkeypatch):
        pools = []

        class RecordingPool(dynamics.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
        spec = EnsembleSpec("gaussian", 2, 1.0)
        estimate_lambda_single_step(spec, TENTH, 5 * TRIAL_BLOCK, RngStream(74), n_workers=2)
        estimate_lambda_deep(spec, TENTH, 5, 5 * TRIAL_BLOCK, RngStream(74), n_workers=2)  # one chunk
        assert pools == [2, 2]  # one group per worker, as many threads
        estimate_lambda_deep(spec, TENTH, 500, 5 * TRIAL_BLOCK, RngStream(74), n_workers=2)
        assert pools == [2, 2, 1]  # one group, chained here, drawn ahead on one thread
        estimate_lambda_deep(spec, TENTH, 500, 5 * TRIAL_BLOCK, RngStream(74), n_workers=3)
        assert pools == [2, 2, 1, 3]  # above two threads, one group per worker

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    def test_draw_ahead_keeps_bits_under_fast_thread_switching(self, kind, monkeypatch):
        # one handoff per layer in each of eight groups, the interpreter
        # switching threads often
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
        spec = EnsembleSpec(kind, 3, 1.0)
        serial = estimate_lambda_deep(spec, TENTH, 30, 7 * TRIAL_BLOCK + 5, RngStream(73), n_workers=1)
        monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = estimate_lambda_deep(spec, TENTH, 30, 7 * TRIAL_BLOCK + 5, RngStream(73), n_workers=2)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.per_trial_values, ahead.per_trial_values)

    def test_blocks_cover_awkward_trial_counts(self):
        spec = EnsembleSpec("gaussian", 2, 1.0)
        est = estimate_lambda_deep(spec, TENTH, 5, TRIAL_BLOCK + 7, RngStream(68))
        assert len(est.per_trial_values) == TRIAL_BLOCK + 7


def _refuse(*args):
    raise AssertionError("nothing may run before the plan is accepted")


def _record_plan(trials, workers, cpus, layer_floats, depth):
    """Groups, draws and pool sizes of one ``_run_blocks`` call on cheap draws.

    Block j's generator is j itself, and each draw of n layers for a block
    of count rows is n * count zeros.
    """
    groups, draws, pools = [], [], []

    class RecordingPool(dynamics.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    def draw(count, block):
        draws.append((block, count, threading.get_ident()))
        return np.zeros((count, 1))

    def group(parts, layers):
        rows = sum(count for count, _ in parts)
        groups.append(([block for _, block in parts], rows, threading.get_ident()))
        assert sum(1 for _ in layers) == depth
        return (np.zeros(rows),)

    stream = SimpleNamespace(offset=lambda j: SimpleNamespace(generator=lambda: j))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "ThreadPoolExecutor", RecordingPool)
        patch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        (out,) = dynamics._run_blocks(group, trials, stream, workers, draw, _trials_last, layer_floats, depth)
    assert len(out) == trials
    return sorted(groups), draws, pools


@st.composite
def _run_sizes(draw):
    # at most about 20 000 draws, so each example stays cheap
    trials = draw(st.integers(1, 100 * TRIAL_BLOCK))
    blocks = -(-trials // TRIAL_BLOCK)
    depth = draw(st.integers(1, min(1000, 20_000 // blocks)))
    layer_floats = draw(st.one_of(st.integers(1, 64), st.integers(1, 10**6)))
    return trials, layer_floats, depth


class TestPlan:
    @settings(max_examples=60, deadline=None)
    @given(sizes=_run_sizes(), workers=st.integers(1, 8), cpus=st.integers(1, 8))
    def test_the_plan_keeps_its_invariants(self, sizes, workers, cpus):
        trials, layer_floats, depth = sizes
        groups, draws, pools = _record_plan(trials, workers, cpus, layer_floats, depth)
        blocks = -(-trials // TRIAL_BLOCK)
        # groups of consecutive blocks cover every block in order
        assert [block for group, _, _ in groups for block in group] == list(range(blocks))
        assert all(len(group) <= dynamics._GROUP_BLOCKS for group, _, _ in groups)
        layers = {}  # block -> layers of each of its chunks, and their threads
        for block, count, thread in draws:
            rows = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
            assert count % rows == 0
            layers.setdefault(block, []).append((count // rows, thread))
        threads = min(workers, cpus)
        for group, rows, chain in groups:
            chunks = [n for n, _ in layers[group[0]]]
            assert sum(chunks) == depth
            assert all(rows * n * layer_floats <= dynamics._CHUNK_FLOATS or n == 1 for n in chunks)
            for block in group:
                assert [n for n, _ in layers[block]] == chunks
                # the first chunk is drawn by the chain; later ones leave its
                # thread exactly where two threads draw ahead
                for k, (_, thread) in enumerate(layers[block]):
                    assert (thread != chain) == (threads == 2 and k > 0)
        assert all(size <= min(workers, cpus, len(groups)) for size in pools)

    def test_a_chunk_numpy_cannot_address_is_refused_first(self):
        stream = SimpleNamespace(offset=_refuse)
        with pytest.raises(DomainError, match="numpy's array limit"):
            dynamics._run_blocks(_refuse, TRIAL_BLOCK, stream, 1, _refuse, _refuse, 10**40, 1)

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    def test_a_width_numpy_cannot_address_is_refused_before_any_stream(self, kind, monkeypatch):
        monkeypatch.setattr(RngStream, "generator", _refuse)
        spec = EnsembleSpec(kind, 10**20, 1.0)
        with pytest.raises(DomainError, match="numpy's array limit"):
            estimate_lambda_deep(spec, TENTH, 1, TRIAL_BLOCK, RngStream(1))
        with pytest.raises(DomainError, match="numpy's array limit"):
            estimate_lambda_single_step(spec, TENTH, 100, RngStream(1))


class TestCLT:
    def test_gamma_positive_and_depth_consistent(self):
        d, alpha = 2, 0.1
        sigma = critical_sigma(d, alpha)
        spec = EnsembleSpec("gaussian", d, sigma)
        lam = lyapunov_gaussian(d, alpha, sigma)
        gammas = []
        for depth in (32, 64):
            report = estimate_clt(spec, TENTH, depth, 20_000, lam, RngStream(70, depth))
            assert report.details["gamma_hat"] > 0
            gammas.append(report.details["gamma_hat"])
        assert abs(gammas[0] - gammas[1]) / gammas[1] < 0.05

    def test_shape_tightens_with_depth(self):
        d, alpha = 2, 0.1
        sigma = critical_sigma(d, alpha)
        spec = EnsembleSpec("gaussian", d, sigma)
        lam = lyapunov_gaussian(d, alpha, sigma)
        report = estimate_clt(spec, TENTH, 64, 20_000, lam, RngStream(71))
        assert abs(report.details["skewness"]) < 0.15
        assert abs(report.details["excess_kurtosis"]) < 0.15
        assert len(report.per_trial_values) == 20_000

    def test_trial_floor(self):
        spec = EnsembleSpec("gaussian", 2, 1.0)
        with pytest.raises(DomainError):
            estimate_clt(spec, TENTH, 8, 999, 0.0, RngStream(1))

    def test_degenerate_ensemble_is_a_usage_error(self):
        # unscaled rotations with equal slopes never change the norm, so the
        # normalized statistic collapses to a point mass
        spec = EnsembleSpec("orthogonal", 3, 1.0)
        with pytest.raises(DomainError):
            estimate_clt(spec, ONE, 8, 1000, 0.0, RngStream(2))

    def test_exact_point_mass_raises_without_warning(self):
        # at d = 1 an unscaled rotation is +-1, so every log norm is exactly
        # 0 and the shape moments divide zero by zero
        spec = EnsembleSpec("orthogonal", 1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                estimate_clt(spec, ONE, 8, 1000, 0.0, RngStream(3))

    @pytest.mark.parametrize("kind, d, seed", [
        ("gaussian", 2, 74), ("orthogonal", 2, 75), ("gaussian", 8, 76), ("orthogonal", 5, 77),
    ])
    def test_gamma_hat_matches_the_exact_variance(self, kind, d, seed):
        # the per-layer gains are i.i.d., so gamma is the variance of one gain
        # at every depth; a sample variance of n draws has standard error
        # gamma * sqrt((excess kurtosis + 2) / n)
        trials = 50_000
        report = estimate_clt(EnsembleSpec(kind, d, 1.0), TENTH, 8, trials, 0.0, RngStream(seed))
        exact = clt_variance(d, 0.1, kind)
        std_error = exact * math.sqrt((report.details["excess_kurtosis"] + 2.0) / trials)
        assert abs(report.details["gamma_hat"] - exact) <= 5 * std_error

    def test_shape_moments_equal_scipy_stats(self):
        # the numpy moments keep scipy.stats' operation order, so they agree
        # to the last bit, not just to rounding
        spec = EnsembleSpec("gaussian", 2, critical_sigma(2, 0.1))
        report = estimate_clt(spec, TENTH, 16, 2000, 0.0, RngStream(73))
        assert report.details["skewness"] == stats.skew(report.per_trial_values)
        assert report.details["excess_kurtosis"] == stats.kurtosis(report.per_trial_values)


def _moments(est):
    """The empirical mean vector and second-moment matrix of a stationarity estimate."""
    return np.asarray(est.details["mean_vector"]), np.asarray(est.details["second_moment"])


class TestStationarity:
    # For ANY unit s and either ensemble, W s is isotropic, so the direction
    # chain reaches its stationary law after a single step.  Moments are
    # therefore step-invariant; they match the uniform law only when the two
    # slopes coincide (phi shrinks negative coordinates otherwise, which
    # drags the stationary mean into the positive orthant).

    def test_moments_are_step_invariant(self):
        spec = EnsembleSpec("gaussian", 3, 1.0)
        one = _moments(stationarity_check(spec, TENTH, 1, 100_000, RngStream(80)))
        ten = _moments(stationarity_check(spec, TENTH, 10, 100_000, RngStream(81)))
        assert np.max(np.abs(one[0] - ten[0])) < 0.01
        assert np.max(np.abs(one[1] - ten[1])) < 0.01

    def test_slope_one_gaussian_is_uniform(self):
        spec = EnsembleSpec("gaussian", 3, 1.0)
        mean, second = _moments(stationarity_check(spec, ONE, 3, 100_000, RngStream(83)))
        assert np.max(np.abs(mean)) < 0.01
        assert np.max(np.abs(second - np.eye(3) / 3)) < 0.01

    def test_orthogonal_slope_one_rotations(self):
        # norm-preserving maps of the sphere keep the uniform law on the nose
        spec = EnsembleSpec("orthogonal", 3, 1.0)
        mean, second = _moments(stationarity_check(spec, ONE, 5, 100_000, RngStream(82)))
        assert np.max(np.abs(mean)) < 0.01
        assert np.max(np.abs(second - np.eye(3) / 3)) < 0.01

    def test_unequal_slopes_bias_the_stationary_mean(self):
        # at alpha = 0.1 the pull is about 0.217 per coordinate; the exact
        # moments of phi(g)/|phi(g)| come from the quadrature oracle
        spec = EnsembleSpec("gaussian", 3, 1.0)
        est = stationarity_check(spec, TENTH, 1, 100_000, RngStream(84))
        exact = stationary_moments(3, 0.1)
        mean, second = _moments(est)
        assert np.max(np.abs(mean - exact.mean)) < 0.01
        assert np.max(np.abs(second - exact.second_moment())) < 0.01
        assert abs(est.mean - exact.mean) < 5 * est.std_error


class TestReluAbsorption:
    def test_layer1_fraction_d2(self):
        report = counterexample_relu(2, 1.0, 10, 100_000, RngStream(90))
        band = 3 * math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(report.mean - 0.25) < band

    def test_layer1_fraction_d4(self):
        report = counterexample_relu(4, 1.0, 10, 100_000, RngStream(91))
        assert abs(report.mean - 0.0625) <= 3 * report.std_error

    def test_absorption_is_monotone(self):
        for seed in (92, 93, 94):
            report = counterexample_relu(3, 0.8, 12, 5_000, RngStream(seed))
            assert report.details["zero_fraction_final"] >= report.mean


class TestPositiveCone:
    def test_gap_matches_slope_ratio(self):
        report = counterexample_positive_cone(2, 1.0, 0.1, 300, 200, RngStream(95))
        assert abs(report.mean - math.log(10.0)) <= 3 * report.std_error

    def test_gap_at_half_slope(self):
        report = counterexample_positive_cone(2, 1.0, 0.5, 300, 200, RngStream(96))
        assert abs(report.mean - math.log(2.0)) <= 3 * report.std_error

    def test_positive_cone_is_invariant(self):
        gen = RngStream(97).generator()
        x = np.ones(3) / math.sqrt(3.0)
        for _ in range(40):
            w = gen.uniform(0.0, 1.0, size=(3, 3))
            y = np.maximum(w @ x, 0.1 * (w @ x))
            assert np.all(y > 0)
            x = y / np.linalg.norm(y)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            counterexample_positive_cone(2, 1.0, 1.5, 10, 10, RngStream(1))


# Depths longer than the layers one default (128 Ki float) chunk holds, and
# no multiple of it.
GROUPING_DEPTHS = {1: 403, 2: 103, 3: 47, 8: 13, 64: 2}


def _experiment_outputs(experiment, d, depth, workers):
    """Raw outputs of one experiment, for both ensembles where it has a choice."""
    trials, rng = 5 * TRIAL_BLOCK + 7, RngStream(88, d)
    if experiment == "relu-zero":
        report = counterexample_relu(d, 1.1, depth, trials, rng, workers)
        return [report.per_trial_values, report.details["zero_fraction_final"]]
    if experiment == "positive-cone":
        report = counterexample_positive_cone(d, 1.0, 0.3, depth, trials, rng, workers)
        names = ("limit_pos", "limit_neg", "limit_pos_std_error", "limit_neg_std_error")
        return [report.per_trial_values, *(report.details[name] for name in names)]
    outputs = []
    for kind in ("gaussian", "orthogonal"):
        spec = EnsembleSpec(kind, d, 1.3)
        if experiment == "single-step":
            est = estimate_lambda_single_step(spec, TENTH, trials, rng, workers)
            outputs.append(est.per_trial_values)
        elif experiment == "lln":
            est = estimate_lambda_deep(spec, TENTH, depth, trials, rng, workers)
            outputs.append(est.per_trial_values)
        elif experiment == "clt":  # fluctuation statistics need 1000 trials
            report = estimate_clt(spec, TENTH, depth, 16 * TRIAL_BLOCK + 7, 0.0, rng, workers)
            outputs.append(report.per_trial_values)
        else:
            est = stationarity_check(spec, TENTH, depth, trials, rng, workers)
            outputs += [est.per_trial_values, *_moments(est)]
    return outputs


# Each experiment at each width's long depth, and the two that split their
# layer stream at depth 1: relu-zero's stream ends at layer 1, and
# positive-cone's negative cone starts at layer 2 of each block.
GROUPING_CASES = [
    pytest.param(experiment, d, GROUPING_DEPTHS[d], id=f"{experiment}-{d}")
    for experiment in ("single-step", "lln", "clt", "stationarity", "relu-zero", "positive-cone")
    for d in sorted(GROUPING_DEPTHS)
] + [
    pytest.param(experiment, d, 1, id=f"{experiment}-{d}-depth1")
    for experiment in ("relu-zero", "positive-cone")
    for d in sorted(GROUPING_DEPTHS)
]


@pytest.mark.parametrize("experiment, d, depth", GROUPING_CASES)
def test_outputs_do_not_depend_on_grouping(experiment, d, depth, monkeypatch):
    # at 2 workers the layers are drawn ahead on a second thread where a
    # group's layers take more than one chunk (otherwise it splits like 3),
    # at 3 the pool runs three groups at once
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
    # one block per group and one layer per draw is the plain per-block loop
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_GROUP_BLOCKS", 1)
        patch.setattr(dynamics, "_CHUNK_FLOATS", 1)
        per_block = _experiment_outputs(experiment, d, depth, 1)
    for workers in (1, 2, 3):
        grouped = _experiment_outputs(experiment, d, depth, workers)
        assert all(np.array_equal(a, b) for a, b in zip(per_block, grouped, strict=True)), workers


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "orthogonal"]),
    d=st.integers(1, 70),
    trials=st.sampled_from([1, 2, 63, 65, 129]),
    depth=st.integers(1, 3),
)
def test_chain_bytes_do_not_depend_on_workers_or_group_size(kind, d, trials, depth):
    # 1 trial, and the last block of 65 or 129, is a one-row group wherever
    # a group holds one block, where numpy would sum along the coordinate axis
    # in another order; 2, 63 and 129 leave short or odd last groups
    spec = EnsembleSpec(kind, d, 1.3)

    def outputs(workers):
        return dynamics._uniform_chains(spec, TENTH, depth, trials, RngStream(89, d), workers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_usable_cpus", lambda: 4)
        with patch.context() as plain:
            plain.setattr(dynamics, "_GROUP_BLOCKS", 1)
            plain.setattr(dynamics, "_CHUNK_FLOATS", 1)
            per_block = outputs(1)
        runs = [outputs(workers) for workers in (1, 2, 3)]
        patch.setattr(dynamics, "_GROUP_BLOCKS", 2)
        runs.append(outputs(1))
    for run in runs:
        assert all(np.array_equal(a, b) for a, b in zip(per_block, run, strict=True))


# Orthogonal per-trial values 0, 100 and 128 of 2 * TRIAL_BLOCK + 1 trials
# (seed (14, d), scale 1.3), as the per-block reflector layout with unit
# vectors gave them; the joint layout with c = 2 / |u|^2 moves roundoff only.
REFLECTOR_DEPTHS = {1: 300, 2: 100, 8: 13, 12: 13}
REFLECTOR_VALUES = {
    1: (-0.7814743110231401, -0.8966035656728432, -0.796824878309767),
    2: (-0.32953481306244325, -0.8403433813244974, -0.6056458495135489),
    8: (-0.0726985776936271, -0.4362499920755579, -0.08608918264003886),
    12: (-0.06670652052716905, -0.15472058807126612, -0.203641479974911),
}


@pytest.mark.parametrize("d", sorted(REFLECTOR_DEPTHS))
def test_reflector_chain_does_not_depend_on_grouping_or_chunking(d, monkeypatch):
    spec = EnsembleSpec("orthogonal", d, 1.3)

    def values(workers):
        est = estimate_lambda_deep(
            spec, TENTH, REFLECTOR_DEPTHS[d], 2 * TRIAL_BLOCK + 1, RngStream(14, d), workers
        )
        return est.per_trial_values

    # at 2 workers the draws run one chunk ahead; at 3 and 4, groups in parallel
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
    base = values(1)
    for workers in (2, 3, 4):
        assert np.array_equal(values(workers), base), workers
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_CHUNK_FLOATS", 1)  # one layer per chunk
        for workers in (1, 2):  # at 2, one handoff per layer
            assert np.array_equal(values(workers), base), workers
    assert np.max(np.abs(base[[0, 100, 128]] - REFLECTOR_VALUES[d])) <= 1e-12
