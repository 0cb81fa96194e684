"""Stack generation at the critical scale, plain and candidate-sampled."""

import math
import weakref

import numpy as np
import pytest

from lyapinit import jsonio
from lyapinit.dynamics import estimate_lambda_deep
from lyapinit.ensembles import RngStream, weight_stack_to_dict
from lyapinit.errors import AccuracyError, DomainError
from lyapinit.initgen import InputDistribution, _mean_output_norm, lyapunov_init, sampled_lyapunov_init
from lyapinit.quad import ActivationSlopes


class TestLyapunovInit:
    def test_gaussian_scale_matches_reference(self):
        stack = lyapunov_init(2, 8, 0.1, "gaussian", RngStream(200))
        assert stack.ensemble.scale == pytest.approx(2.262791, abs=1e-5)
        assert stack.matrices.shape == (8, 2, 2)

    def test_orthogonal_scale_matches_reference(self):
        stack = lyapunov_init(3, 8, 0.001, "orthogonal", RngStream(201))
        assert stack.ensemble.scale == pytest.approx(3.8688187, abs=1e-5)
        target = stack.ensemble.scale ** 2 * np.eye(3)
        for m in stack.matrices:
            assert np.max(np.abs(m.T @ m - target)) < 1e-9

    def test_fresh_stacks_at_this_scale_have_zero_exponent(self):
        stack = lyapunov_init(2, 4, 0.1, "gaussian", RngStream(202))
        est = estimate_lambda_deep(
            stack.ensemble, ActivationSlopes.leaky_relu(0.1), 400, 150, RngStream(203)
        )
        assert abs(est.mean) <= 3 * est.std_error

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            lyapunov_init(2, 4, 0.1, "laplace", RngStream(1))


class TestInputDistribution:
    def test_sphere_samples_are_unit(self):
        dist = InputDistribution.uniform_sphere(4)
        rows = dist.sample(100, RngStream(210).generator())
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_box_samples_respect_bounds(self):
        dist = InputDistribution.uniform_box([1.0, 2.0], [2.0, 5.0])
        rows = dist.sample(500, RngStream(211).generator())
        assert np.all(rows >= [1.0, 2.0]) and np.all(rows <= [2.0, 5.0])

    def test_fixed_set_draws_from_given_vectors(self):
        vectors = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        dist = InputDistribution.fixed_set(vectors)
        rows = dist.sample(200, RngStream(212).generator())
        assert all(any(np.array_equal(r, v) for v in vectors) for r in rows)

    def test_fixed_set_rejects_zero_vector(self):
        with pytest.raises(DomainError):
            InputDistribution.fixed_set([[0.0, 0.0], [1.0, 1.0]])

    def test_fixed_set_takes_a_vector_whose_norm_underflows(self):
        # |v|^2 = 2e-340 underflows to 0, yet v is not the zero vector; as a
        # probe its norm does not fit in float64, which the sampled init says
        tiny = InputDistribution.fixed_set([[1e-170, 1e-170]])
        assert tiny.d == 2
        with pytest.raises(DomainError, match="norms that fit in float64"):
            sampled_lyapunov_init(2, 3, 0.1, "gaussian", RngStream(1), input_dist=tiny, candidate_count=2)

    @pytest.mark.parametrize("make, message", [
        (lambda: InputDistribution.uniform_box([0.0, 0.0], [1.0]), "matching 1-d arrays"),
        (lambda: InputDistribution.fixed_set(np.empty((0, 2))), "nonempty"),
        (lambda: InputDistribution.fixed_set([[1.0, math.nan]]), "finite"),
        (lambda: InputDistribution.fixed_set([[1.0, math.inf]]), "finite"),
    ], ids=["box-shapes", "empty-set", "nan-set", "inf-set"])
    def test_malformed_laws_are_rejected(self, make, message):
        with pytest.raises(DomainError, match=message):
            make()

    def test_box_bound_validation(self):
        with pytest.raises(DomainError):
            InputDistribution.uniform_box([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError, match="widths"):  # high - low overflows float64
            InputDistribution.uniform_box([-1e308, 0.0], [1e308, 1.0])


class TestSampledInit:
    def test_overflowing_stack_scores_an_infinite_norm(self):
        # log norm 100 log(1e10) ~ 2303 is past the guard: the candidate's
        # estimate is inf, which cli turns into exit status 2
        mats = 1e10 * np.broadcast_to(np.eye(2), (100, 2, 2))
        probes = np.array([[1.0, 0.0], [0.6, -0.8]])
        assert _mean_output_norm(mats, probes, ActivationSlopes.leaky_relu(0.1)) == math.inf

    def test_default_candidate_count_rule(self):
        _, diag = sampled_lyapunov_init(2, 40, 0.1, "gaussian", RngStream(220))
        assert diag.candidate_count == 13  # ceil(2 sqrt(40))

    def test_selected_score_is_the_minimum(self):
        _, diag = sampled_lyapunov_init(2, 30, 0.1, "gaussian", RngStream(221))
        assert diag.selection_score <= np.min(diag.per_candidate_score) + 0.0
        assert diag.selected_index == int(np.argmin(diag.per_candidate_score))

    def test_serialization_is_byte_identical_across_runs(self):
        a, _ = sampled_lyapunov_init(2, 25, 0.1, "orthogonal", RngStream(222))
        b, _ = sampled_lyapunov_init(2, 25, 0.1, "orthogonal", RngStream(222))
        assert jsonio.dumps(weight_stack_to_dict(a)) == jsonio.dumps(weight_stack_to_dict(b))

    def test_orthogonal_candidates_keep_the_ensemble_invariant(self):
        stack, _ = sampled_lyapunov_init(3, 10, 0.1, "orthogonal", RngStream(223))
        target = stack.ensemble.scale ** 2 * np.eye(3)
        for m in stack.matrices:
            assert np.max(np.abs(m.T @ m - target)) < 1e-9

    def test_selection_beats_the_first_candidate_in_median(self):
        # order statistics: the min over 13 candidates sits below a single
        # draw; compare medians over repeated runs
        selected, first = [], []
        for rep in range(50):
            _, diag = sampled_lyapunov_init(
                2, 40, 0.1, "gaussian", RngStream(224, rep * 1000), probe_inputs=128
            )
            selected.append(diag.selection_score)
            first.append(diag.per_candidate_score[0])
        assert np.median(selected) < np.median(first)

    def test_score_ignores_probe_input_scale(self):
        # positive homogeneity plus unit normalization: scaling every probe
        # vector by a constant cannot move the score
        vectors = np.array([[1.0, 0.5], [-0.3, 2.0], [0.9, -1.1]])
        _, diag_small = sampled_lyapunov_init(
            2, 12, 0.1, "gaussian", RngStream(225),
            input_dist=InputDistribution.fixed_set(vectors), candidate_count=5,
        )
        _, diag_large = sampled_lyapunov_init(
            2, 12, 0.1, "gaussian", RngStream(225),
            input_dist=InputDistribution.fixed_set(100.0 * vectors), candidate_count=5,
        )
        assert np.allclose(diag_small.per_candidate_score, diag_large.per_candidate_score, atol=1e-12)
        assert diag_small.selected_index == diag_large.selected_index
        assert np.allclose(
            diag_large.per_candidate_raw_norm_mean,
            100.0 * diag_small.per_candidate_raw_norm_mean,
            rtol=1e-12,
        )

    def test_linear_metric_flag(self):
        _, diag = sampled_lyapunov_init(
            2, 12, 0.1, "gaussian", RngStream(226), candidate_count=4, linear_metric=True
        )
        assert diag.metric == "linear"
        assert np.allclose(
            diag.per_candidate_score, np.abs(diag.per_candidate_norm_estimate - 1.0), atol=1e-15
        )

    def test_diagnostics_are_embedded_in_the_stack(self):
        stack, diag = sampled_lyapunov_init(2, 12, 0.1, "gaussian", RngStream(227), candidate_count=3)
        assert stack.diagnostics["candidate_count"] == 3
        assert stack.diagnostics["selected_index"] == diag.selected_index
        payload = weight_stack_to_dict(stack)
        assert payload["diagnostics"]["selection_score"] == diag.selection_score

    def test_probe_floor(self):
        with pytest.raises(DomainError):
            sampled_lyapunov_init(2, 12, 0.1, "gaussian", RngStream(1), probe_inputs=0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            sampled_lyapunov_init(
                3, 12, 0.1, "gaussian", RngStream(1),
                input_dist=InputDistribution.uniform_sphere(2),
            )

    def test_all_candidates_nonfinite_is_internal_error(self, monkeypatch):
        # a typed numerical error (exit 2 on the command line), not a bare crash
        import lyapinit.initgen as initgen_module

        monkeypatch.setattr(initgen_module, "_mean_output_norm", lambda *a: math.inf)
        with pytest.raises(AccuracyError):
            sampled_lyapunov_init(2, 12, 0.1, "gaussian", RngStream(230), candidate_count=3)

    @pytest.mark.parametrize("estimates, selected", [
        ([math.nan, 2.0, 0.5, 1.5], 3),  # |log m|: nan, 0.69, 0.69, 0.41; NaN never wins
        ([2.0, 0.5, 4.0], 0),  # |log 2| == |log 0.5|: the lower index wins the tie
        ([4.0, math.nan, 2.0, 0.5], 2),
        ([math.inf, math.nan, 8.0], 2),
    ])
    def test_nan_never_wins_and_ties_keep_the_lower_index(self, monkeypatch, estimates, selected):
        import lyapinit.initgen as initgen_module

        values = iter(estimates)
        monkeypatch.setattr(initgen_module, "_mean_output_norm", lambda *a: next(values))
        stack, diag = sampled_lyapunov_init(
            2, 6, 0.1, "gaussian", RngStream(233), candidate_count=len(estimates)
        )
        assert diag.selected_index == selected
        assert stack.seed_info == RngStream(233).offset(selected)
        # without NaN scores the rule is np.argmin's
        if not np.any(np.isnan(diag.per_candidate_score)):
            assert selected == int(np.argmin(diag.per_candidate_score))

    def test_only_nan_scores_is_an_accuracy_error(self, monkeypatch):
        import lyapinit.initgen as initgen_module

        monkeypatch.setattr(initgen_module, "_mean_output_norm", lambda *a: math.nan)
        with pytest.raises(AccuracyError):
            sampled_lyapunov_init(2, 6, 0.1, "gaussian", RngStream(234), candidate_count=3)

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    def test_at_most_two_stacks_are_alive_at_each_draw(self, monkeypatch, kind):
        # the best candidate so far and the one being scored; the others are freed
        import lyapinit.initgen as initgen_module

        drawn, alive_at_draw = [], []
        draw = initgen_module.draw_stack_matrices

        def watched(*args):
            mats = draw(*args)
            drawn.append(weakref.ref(mats))
            alive_at_draw.append(sum(ref() is not None for ref in drawn))
            return mats

        monkeypatch.setattr(initgen_module, "draw_stack_matrices", watched)
        stack, diag = sampled_lyapunov_init(3, 16, 0.1, kind, RngStream(235), candidate_count=8)
        assert len(alive_at_draw) == 8
        assert max(alive_at_draw) <= 2
        assert stack.matrices is drawn[diag.selected_index]()

    @pytest.mark.parametrize("low,high", [(1e200, 2e200), (0.0, 1e-320)])
    def test_probe_norms_must_fit_in_float64(self, low, high):
        # squares that over- or underflow would score every candidate as garbage
        box = InputDistribution.uniform_box([low, low], [high, high])
        with pytest.raises(DomainError, match="probe inputs"):
            sampled_lyapunov_init(2, 4, 0.1, "gaussian", RngStream(232), input_dist=box,
                                  candidate_count=2)

    @pytest.mark.parametrize("kind", ["gaussian", "orthogonal"])
    @pytest.mark.parametrize("depth", [0, -4])
    def test_nonpositive_depth_is_a_domain_error(self, kind, depth):
        with pytest.raises(DomainError, match="depth"):
            sampled_lyapunov_init(2, depth, 0.1, kind, RngStream(231), candidate_count=2)
