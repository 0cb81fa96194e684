"""Seeded, stream-splittable samplers for weight matrices and directions.

Every sampler is a pure function of its stream and parameters: replaying
the same (master_seed, stream_id) reproduces the draw bit for bit, while
distinct stream ids under one master seed give statistically independent
sequences.  Monte Carlo drivers hand each unit of work its own stream so
results never depend on worker count or scheduling.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import GAUSSIAN, EnsembleSpec
from .errors import DomainError, _integer, _positive_real

__all__ = [
    "RngStream",
    "WeightStack",
    "sample_haar_orthogonal",
    "draw_stack_matrices",
    "sample_stack",
    "weight_stack_to_dict",
    "weight_stack_from_dict",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-addressed random stream.

    The pair (master_seed, stream_id) keys a Philox counter generator, so
    trial k of an experiment can own stream ``base.offset(k)`` and merged
    results are independent of execution order.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, _MASK64))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = self.master_seed | (self.stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def offset(self, k: int) -> "RngStream":
        """Stream k slots further along the counter axis (wraps at 2^64)."""
        k = _integer(k, "offset k", 0, _MASK64)
        return RngStream(self.master_seed, (self.stream_id + k) & _MASK64)

    def as_dict(self) -> dict:
        return {"master": self.master_seed, "stream": self.stream_id}


def _sign_corrected(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Fold the sign of R's diagonal into Q's columns.  Plain QR of a Gaussian
    # matrix is biased toward one sign convention; the correction restores
    # exact Haar measure on the full orthogonal group, both determinant signs.
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(diag < 0.0, -1.0, 1.0)[..., None, :]


def _haar_from_gaussian(g: np.ndarray, eta: float, gen: np.random.Generator) -> np.ndarray:
    """eta times the sign-corrected Q factors of the (..., d, d) Gaussian draws ``g``.

    A matrix whose R has a zero pivot (its Q is then not Haar) is redrawn
    from ``gen``, never patched.
    """
    q, r = np.linalg.qr(g)
    while np.any(bad := np.any(np.diagonal(r, axis1=-2, axis2=-1) == 0.0, axis=-1)):
        g[bad] = gen.standard_normal(g[bad].shape)
        q[bad], r[bad] = np.linalg.qr(g[bad])
    return eta * _sign_corrected(q, r)


def sample_haar_orthogonal(d: int, eta: float, gen: np.random.Generator) -> np.ndarray:
    """eta times a Haar-distributed orthogonal d x d matrix."""
    d = _integer(d, "width d")
    eta = _positive_real(eta, "eta")
    return _haar_from_gaussian(gen.standard_normal((d, d)), eta, gen)


def haar_orthogonal_batch(count: int, d: int, eta: float, gen: np.random.Generator) -> np.ndarray:
    """(count, d, d) stack of independent scaled Haar orthogonal matrices."""
    return _haar_from_gaussian(gen.standard_normal((count, d, d)), eta, gen)


def unit_sphere_batch(count: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """(count, d) rows uniform on the unit sphere, each a normalized Gaussian draw."""
    v = gen.standard_normal((count, d))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    bad = norms[:, 0] <= 1e-150
    while np.any(bad):  # an underflowing draw is redrawn, never rescaled
        v[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        bad = norms[:, 0] <= 1e-150
    return v / norms


@dataclass
class WeightStack:
    """Ordered layer matrices with provenance for exact replay."""

    d: int
    depth: int
    matrices: np.ndarray
    ensemble: EnsembleSpec
    seed_info: RngStream
    diagnostics: Optional[dict] = None

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=np.float64)
        if self.matrices.shape != (self.depth, self.d, self.d):
            raise DomainError(
                f"matrices must have shape ({self.depth}, {self.d}, {self.d}), "
                f"got {self.matrices.shape}"
            )
        if not np.all(np.isfinite(self.matrices)):
            raise DomainError("weight matrices must be finite")


def draw_stack_matrices(spec: EnsembleSpec, depth: int, gen: np.random.Generator) -> np.ndarray:
    """(depth, d, d) matrices drawn in layer order from a live generator."""
    if spec.kind == GAUSSIAN:
        return spec.scale * gen.standard_normal((depth, spec.d, spec.d))
    return np.stack([sample_haar_orthogonal(spec.d, spec.scale, gen) for _ in range(depth)])


def sample_stack(spec: EnsembleSpec, depth: int, stream: RngStream) -> WeightStack:
    """Draw ``depth`` layer matrices from one stream, in layer order."""
    depth = _integer(depth, "depth")
    mats = draw_stack_matrices(spec, depth, stream.generator())
    return WeightStack(d=spec.d, depth=depth, matrices=mats, ensemble=spec, seed_info=stream)


def weight_stack_to_dict(stack: WeightStack) -> dict:
    """Wire format: matrices as row-major flat lists, one per layer."""
    return {
        "d": stack.d,
        "depth": stack.depth,
        "ensemble": {"kind": stack.ensemble.kind, "scale": stack.ensemble.scale},
        "seed": stack.seed_info.as_dict(),
        "matrices": [m.reshape(-1).tolist() for m in stack.matrices],
        "diagnostics": stack.diagnostics if stack.diagnostics is not None else {},
    }


def weight_stack_from_dict(payload: dict) -> WeightStack:
    d = _integer(payload["d"], "width d")
    depth = _integer(payload["depth"], "depth")
    mats = np.array(payload["matrices"], dtype=np.float64).reshape(depth, d, d)
    spec = EnsembleSpec(payload["ensemble"]["kind"], d, payload["ensemble"]["scale"])
    seed = RngStream(payload["seed"]["master"], payload["seed"]["stream"])
    diagnostics = payload.get("diagnostics") or None
    return WeightStack(d, depth, mats, spec, seed, diagnostics)
