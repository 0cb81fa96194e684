"""Sampler distribution checks, determinism, and stack serialization."""

import math

import numpy as np
import pytest
from scipy import stats

from lyapinit import jsonio
from lyapinit.analytic import EnsembleSpec
from lyapinit.ensembles import (
    HaarReflectors,
    RngStream,
    WeightStack,
    draw_stack_matrices,
    haar_orthogonal_batch,
    sample_haar_orthogonal,
    sample_stack,
    unit_sphere_batch,
    weight_stack_from_dict,
    weight_stack_to_dict,
)
from lyapinit.errors import DomainError


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = RngStream(123, 5).generator().standard_normal(16)
        b = RngStream(123, 5).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).generator().standard_normal(16)
        b = RngStream(123, 6).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_offset_wraps_at_64_bits(self):
        top = RngStream(1, (1 << 64) - 1)
        assert top.offset(1).stream_id == 0

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5])
    def test_validation(self, seed):
        with pytest.raises(DomainError):
            RngStream(seed)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_seed_or_stream_is_a_domain_error(self, value):
        # int() raises ValueError for NaN and OverflowError for infinity
        with pytest.raises(DomainError):
            RngStream(value)
        with pytest.raises(DomainError):
            RngStream(1, value)


class TestGaussianMatrix:
    def test_replay(self):
        spec = EnsembleSpec("gaussian", 4, 1.0)
        a = draw_stack_matrices(spec, 1, RngStream(9, 3).generator())
        b = draw_stack_matrices(spec, 1, RngStream(9, 3).generator())
        assert np.array_equal(a, b)

    def test_mean_of_many_entries(self):
        gen = RngStream(100).generator()
        entries = draw_stack_matrices(EnsembleSpec("gaussian", 4, 1.0), 62500, gen).ravel()
        assert abs(entries.mean()) < 3e-3  # 3 sigma / sqrt(1e6)

    def test_variance_of_many_entries(self):
        gen = RngStream(101).generator()
        entries = draw_stack_matrices(EnsembleSpec("gaussian", 8, 0.5), 15625, gen).ravel()
        tol = 3 * math.sqrt(2) * 0.25 / 1e3  # sd of the sample variance of 1e6 normals
        assert abs(entries.var() - 0.25) < tol

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            EnsembleSpec("gaussian", 2, 0.0)


class _ZeroFirstDraw(np.random.Generator):
    """Philox generator whose first normal draw has ``zeroed`` set to zero."""

    def __init__(self, seed, zeroed=Ellipsis):
        super().__init__(np.random.Philox(seed))
        self.zeroed = zeroed
        self.draws = []

    def standard_normal(self, size=None, *args, **kwargs):
        out = super().standard_normal(size, *args, **kwargs)
        if not self.draws:
            out[self.zeroed] = 0.0
        self.draws.append(size)
        return out


def reflectors(draw):
    """The reflector set of one draw's layers."""
    (layers,) = HaarReflectors.join([draw], 1)
    return layers


def materialised(draw):
    """The (count, d, d) matrices of a draw's layers: each applied to e_1, ..., e_d."""
    layers, count = reflectors(draw), len(draw.normals)
    columns = [layers.apply(np.broadcast_to(e, (count, draw.d))) for e in np.eye(draw.d)]
    return np.stack(columns, axis=2)


class TestHaarOrthogonal:
    def test_zero_pivot_single_matrix_is_redrawn(self):
        gen = _ZeroFirstDraw(12)
        m = sample_haar_orthogonal(3, 2.0, gen)
        assert len(gen.draws) == 2
        assert np.max(np.abs(m.T @ m - 4.0 * np.eye(3))) < 1e-12

    def test_zero_pivot_in_batch_redraws_only_that_matrix(self):
        # a zero Gaussian vector leaves its reflector undefined, like a zero pivot
        gen = _ZeroFirstDraw(13, zeroed=1)
        batch = haar_orthogonal_batch(4, 3, 0.5, gen)
        assert gen.draws == [(4, 6), (1, 6)]
        w = materialised(batch)
        gram = np.einsum("bji,bjk->bik", w, w)
        assert np.max(np.abs(gram - 0.25 * np.eye(3))) < 1e-12
        # the other matrices keep their first draw, and the redrawn one differs
        plain = haar_orthogonal_batch(4, 3, 0.5, np.random.Generator(np.random.Philox(13)))
        assert np.array_equal(batch.normals[[0, 2, 3]], plain.normals[[0, 2, 3]])
        assert not np.array_equal(batch.normals[1], plain.normals[1])
        layers, plain_layers = reflectors(batch), reflectors(plain)
        for field in ("signs", "u", "c"):
            kept, other = getattr(layers, field), getattr(plain_layers, field)
            assert np.array_equal(kept[:, [0, 2, 3]], other[:, [0, 2, 3]])

    @pytest.mark.parametrize("zeroed, draws", [
        ((1, 0), [(4, 6)]),  # one zero in a nonzero segment leaves the reflector defined
        ((1, 4), [(4, 6)]),
        ((1, slice(3, 5)), [(4, 6), (1, 6)]),  # the second vector is all zero
        ((2, 5), [(4, 6), (1, 6)]),  # the last sign would be undefined
    ])
    def test_only_an_all_zero_segment_is_redrawn(self, zeroed, draws):
        gen = _ZeroFirstDraw(13, zeroed=zeroed)
        batch = haar_orthogonal_batch(4, 3, 0.5, gen)
        assert gen.draws == draws
        assert np.all(np.isfinite(materialised(batch)))

    def test_batch_follows_the_haar_law(self):
        # For j <= d the moments of tr W are those of N(0, 1) (Diaconis and
        # Shahshahani, J. Appl. Probab. 1994); E tr W^2 = 1, and half the
        # draws are reflections.  Each mean must lie within 5 of its own
        # standard errors.
        d, chunks, per_chunk = 8, 10, 20_000
        gen = RngStream(16).generator()
        traces, squares, dets = [], [], []
        for _ in range(chunks):
            w = materialised(haar_orthogonal_batch(per_chunk, d, 1.0, gen))
            gram = np.einsum("bji,bjk->bik", w, w)
            assert np.max(np.abs(gram - np.eye(d))) < 1e-12
            traces.append(np.trace(w, axis1=1, axis2=2))
            squares.append(np.einsum("bij,bji->b", w, w))
            dets.append(np.linalg.det(w))
        n = chunks * per_chunk
        trace = np.concatenate(traces)
        for j in range(1, d + 1):
            normal_moment = 0 if j % 2 else math.prod(range(1, j, 2))
            powers = trace**j
            assert abs(powers.mean() - normal_moment) <= 5 * powers.std() / math.sqrt(n), j
        square = np.concatenate(squares)
        assert abs(square.mean() - 1.0) <= 5 * square.std() / math.sqrt(n)
        assert abs(np.mean(np.concatenate(dets) < 0) - 0.5) <= 5 * 0.5 / math.sqrt(n)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_orthogonality(self, d):
        gen = RngStream(7, d).generator()
        for _ in range(100):
            q = sample_haar_orthogonal(d, 1.0, gen)
            assert np.max(np.abs(q.T @ q - np.eye(d))) < 1e-10

    def test_scale_is_applied(self):
        m = sample_haar_orthogonal(3, 2.5, RngStream(8).generator())
        assert np.max(np.abs(m.T @ m - 6.25 * np.eye(3))) < 1e-9

    def test_determinant_signs_split_evenly(self):
        gen = RngStream(11).generator()
        signs = [np.linalg.det(sample_haar_orthogonal(3, 1.0, gen)) > 0 for _ in range(10_000)]
        assert abs(np.mean(signs) - 0.5) < 0.015

    def test_rotated_fixed_vector_is_isotropic(self):
        d = 3
        x = np.zeros(d)
        x[0] = 1.0
        gen = RngStream(12).generator()
        acc = np.zeros((d, d))
        n = 100_000
        for _ in range(n):
            y = sample_haar_orthogonal(d, 1.0, gen) @ x
            acc += np.outer(y, y)
        assert np.max(np.abs(acc / n - np.eye(d) / d)) < 5e-3

    def test_right_invariance_of_gaussian_law(self):
        # first column of W Q0 should be distributed like the first column of W
        d = 3
        q0 = sample_haar_orthogonal(d, 1.0, RngStream(13).generator())
        gen = RngStream(14).generator()
        plain, rotated = [], []
        for _ in range(10_000):
            w = gen.standard_normal((d, d))
            plain.append(w[:, 0].copy())
            rotated.append((w @ q0)[:, 0])
        statistic = stats.ks_2samp(np.ravel(plain), np.ravel(rotated)).statistic
        critical_1pct = 1.628 * math.sqrt(2.0 / (3 * 10_000))
        assert statistic < critical_1pct

    def test_frobenius_norm_preserved_under_rotation(self):
        gen = RngStream(15).generator()
        q0 = sample_haar_orthogonal(5, 1.0, gen)
        for _ in range(20):
            w = gen.standard_normal((5, 5))
            assert abs(np.linalg.norm(w @ q0) - np.linalg.norm(w)) < 1e-10


class TestUnitSphere:
    def test_unit_norm(self):
        gen = RngStream(20).generator()
        for d in (1, 2, 3, 8):
            norms = np.linalg.norm(unit_sphere_batch(50, d, gen), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_mean_is_zero(self):
        gen = RngStream(21).generator()
        d, n = 3, 100_000
        total = unit_sphere_batch(n, d, gen).sum(axis=0)
        assert np.max(np.abs(total / n)) < 3.0 / math.sqrt(n * d)

    def test_isotropy(self):
        gen = RngStream(22).generator()
        d, n = 3, 100_000
        x = unit_sphere_batch(n, d, gen)
        assert np.max(np.abs(x.T @ x / n - np.eye(d) / d)) < 5e-3

    def test_all_zero_row_is_redrawn(self):
        gen = _ZeroFirstDraw(23, zeroed=1)
        rows = unit_sphere_batch(4, 3, gen)
        assert gen.draws == [(4, 3), (1, 3)]
        plain = np.random.Generator(np.random.Philox(23))
        first, redraw = plain.standard_normal((4, 3)), plain.standard_normal((1, 3))
        first[1] = redraw[0]
        assert np.array_equal(rows, first / np.linalg.norm(first, axis=1, keepdims=True))


class TestWeightStack:
    def test_orthogonal_stack_invariant(self):
        spec = EnsembleSpec("orthogonal", 4, 1.3)
        stack = sample_stack(spec, 12, RngStream(40))
        target = 1.3**2 * np.eye(4)
        for m in stack.matrices:
            assert np.max(np.abs(m.T @ m - target)) < 1e-9

    def test_shape_validation(self):
        spec = EnsembleSpec("gaussian", 3, 1.0)
        with pytest.raises(DomainError, match="nonempty"):
            WeightStack(np.zeros((2, 2, 2)), spec, RngStream(1))

    def test_non_finite_entry_is_rejected(self):
        mats = np.eye(2)[None].copy()
        mats[0, 1, 0] = math.nan
        with pytest.raises(DomainError, match="finite"):
            WeightStack(mats, EnsembleSpec("gaussian", 2, 1.0), RngStream(1))

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("seed"), "payload has no 'seed' entry"),
        (lambda p: p.update(ensemble=["gaussian", 1.0]), "malformed weight-stack payload"),
        (lambda p: p.update(matrices=[[1.0, 0.0, 0.0, 1.0]]), "cannot reshape"),
        (lambda p: p.update(diagnostics=[1, 2]), "diagnostics must be a dict, got list"),
        (lambda p: p.update(d=0), "^width d must be a positive integer"),
        (lambda p: p.update(ensemble={"kind": "laplace", "scale": 1.0}), "^ensemble kind must be"),
    ], ids=["missing-key", "list-ensemble", "bad-shape", "list-diagnostics", "bad-width", "bad-kind"])
    def test_malformed_payload_is_a_domain_error(self, edit, message):
        payload = weight_stack_to_dict(sample_stack(EnsembleSpec("gaussian", 2, 1.0), 3, RngStream(43)))
        payload["matrices"] = payload["matrices"].tolist()
        edit(payload)
        with pytest.raises(DomainError, match=message):
            weight_stack_from_dict(payload)

    def test_json_round_trip_is_exact(self):
        spec = EnsembleSpec("gaussian", 3, 2.262791)
        drawn = sample_stack(spec, 5, RngStream(41, 7))
        stack = WeightStack(drawn.matrices, spec, drawn.seed_info, diagnostics={"note": 1})
        payload = weight_stack_to_dict(stack)
        text = jsonio.dumps(payload)
        back = weight_stack_from_dict(__import__("json").loads(text))
        assert np.array_equal(back.matrices, stack.matrices)
        assert back.ensemble == stack.ensemble
        assert back.seed_info == stack.seed_info
        assert back.diagnostics == {"note": 1}

    def test_serialization_is_deterministic(self):
        spec = EnsembleSpec("orthogonal", 2, 1.0)
        a = jsonio.dumps(weight_stack_to_dict(sample_stack(spec, 4, RngStream(42))))
        b = jsonio.dumps(weight_stack_to_dict(sample_stack(spec, 4, RngStream(42))))
        assert a == b
