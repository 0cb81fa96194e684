"""Seeded, stream-splittable samplers for weight matrices and directions.

Every sampler is a pure function of its stream and parameters: replaying
the same (master_seed, stream_id) reproduces the draw bit for bit, while
distinct stream ids under one master seed give statistically independent
sequences.  Monte Carlo drivers hand each unit of work its own stream so
results never depend on worker count or scheduling.
"""

import numbers
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .analytic import GAUSSIAN, EnsembleSpec
from .errors import DomainError, _addressable, _integer, _positive_real, _width

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


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float64 array; DomainError naming ``name`` unless it holds real numbers only.

    Bools, ints, floats and object arrays of ``numbers.Real`` (numpy's reading of ints past 64 bits)
    are cast; a string, None, a complex number or an int past the float range is refused.
    """
    try:
        array = np.asarray(value)
        real = array.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in array.flat)
        if real or array.dtype.kind in "biuf":
            return array.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a rectangular array of real numbers")


def sample_haar_orthogonal(d: int, eta: float, gen: np.random.Generator) -> np.ndarray:
    """eta times a Haar-distributed orthogonal d x d matrix.

    The Q factor of a Gaussian draw, with the sign of R's diagonal folded
    into its columns: plain QR is biased toward one sign convention, and
    the correction restores exact Haar measure on the full orthogonal
    group, both determinant signs.  A draw whose R has a zero pivot (its Q
    is then not Haar) is redrawn, never patched.
    """
    d = _width(d)
    eta = _positive_real(eta, "eta")
    q, r = np.linalg.qr(gen.standard_normal((d, d)))
    while np.any(np.diagonal(r) == 0.0):
        q, r = np.linalg.qr(gen.standard_normal((d, d)))
    return q * np.where(np.diagonal(r) < 0.0, -eta, eta)


def _column_sums(p: np.ndarray) -> np.ndarray:
    """Sums over axis -2, adding in index order whatever the shape or layout of ``p``.

    numpy sums along a slow axis in order, but where axis -2 is the fast
    one (a single column, or a column-major array such as a boolean
    selection of columns) it sums pairwise; the running sum keeps such a
    column's bits equal to its bits among others.
    """
    if p.shape[-1] == 1 or not p.flags.c_contiguous:
        return np.add.accumulate(p, axis=-2)[..., -1, :]
    return np.add.reduce(p, axis=-2)


def _trials_last(blocks: List[np.ndarray], n: int) -> np.ndarray:
    """(n, *shape, rows): n layers of all rows, each block copied once, transposed.

    A block of ``n * count`` weights of one ``shape`` holds layer after
    layer, ``count`` each; its rows follow those of the blocks before it.
    """
    shape = blocks[0].shape[1:]
    size = int(np.prod(shape))
    rows = sum(len(w) for w in blocks) // n
    out = np.empty((n, size, rows))
    at = 0
    for w in blocks:
        count = len(w) // n
        out[:, :, at:at + count] = w.reshape(n, count, size).transpose(0, 2, 1)
        at += count
    return out.reshape(n, *shape, rows)


def _segment_starts(d: int) -> np.ndarray:
    """Where the segments of lengths d, ..., 1 of a layer's normals start."""
    lengths = np.arange(d, 0, -1)
    return np.cumsum(lengths) - lengths


@dataclass(frozen=True, eq=False)
class HaarReflectors:
    """Scaled Haar orthogonal layers kept as Householder reflectors, never formed.

    Column b of each array is layer b, ``H_1 ... H_{d-1} diag(signs)``:
    ``signs`` (d, rows) is ``eta`` times d random signs, and H_k is the
    reflector ``I - c_k u_k u_k^T`` on the last d - k + 1 coordinates, with
    u_1, ..., u_{d-1} of lengths d, ..., 2 stacked in ``u`` (d(d+1)/2, rows;
    its last row is unused) and ``c`` (d - 1, rows) = 2 / |u_k|^2.  Layers
    run along the last axis, as trials do everywhere in the chain, so that
    every numpy call of ``apply`` works on long contiguous rows and sums
    over coordinates in index order.
    """

    signs: np.ndarray
    u: np.ndarray
    c: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Layer b times column b of the (d, rows) ``x``, in O(d^2) per row."""
        d = len(self.signs)
        y = self.signs * x
        end = len(self.u) - 1
        for k in range(d - 2, -1, -1):  # H_{d-1} acts first
            u = self.u[end - (d - k):end]
            end -= d - k
            tail = y[k:]
            tail -= u * (self.c[k] * _column_sums(u * tail))
        return y

    @classmethod
    def join(cls, draws: List[np.ndarray], n: int, d: int, eta: float) -> List["HaarReflectors"]:
        """n layers for all rows, from draws that each hold n layers for their own rows.

        A draw holds the normals of ``n * count`` layers of width d, layer
        after layer, ``count`` each; the layers, scaled by eta, come out joined
        on the row axis in the order of ``draws``.  Each draw is copied once,
        transposed (``_trials_last``), and its heads are replaced in place.
        """
        u = _trials_last(draws, n)
        starts = _segment_starts(d)
        heads = u[:, starts]
        signs = np.copysign(eta, heads)  # the last sign is a fair coin
        norms = np.empty((n, d - 1, u.shape[-1]))
        for k in range(d - 1):
            v = u[:, starts[k]:starts[k] + d - k]
            norms[:, k] = _column_sums(v * v)
        np.sqrt(norms, out=norms)
        # u = v + sign(v_1) |v| e_1 has |u|^2 = 2 |v| (|v| + |v_1|), with no cancellation
        heads = heads[:, :-1]
        reach = norms + np.abs(heads)
        u[:, starts[:-1]] = np.copysign(reach, heads)
        norms *= reach
        c = np.divide(1.0, norms, out=norms)
        return [cls(*layer) for layer in zip(signs, u, c)]


def _layer_floats(spec: EnsembleSpec) -> int:
    """Floats one row of a chain layer holds: a Gaussian d x d matrix, or a
    ``HaarReflectors`` column of d signs, d(d+1)/2 reflector entries and
    d - 1 normalisers."""
    d = spec.d
    return d * d if spec.kind == GAUSSIAN else d * (d + 5) // 2 - 1


def haar_orthogonal_batch(count: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """(count, d(d+1)/2) normals behind ``count`` independent Haar orthogonal layers.

    Stewart's construction (SIAM J. Numer. Anal. 17, 1980): Householder QR
    of a Gaussian matrix turns column k into an independent Gaussian vector
    v_k of length d - k + 1, whose reflector sends e_k to -sign(v_k1) v_k /
    |v_k|; with R's diagonal signs the product is Haar.  Here the signs are
    negated, which keeps the law.  Row b holds layer b's v_1, ..., v_{d-1},
    then one normal whose sign is the last, drawn matrix-major in a single
    call, so a layer's bits do not depend on how many are drawn together.
    A row with an all-zero segment (a reflector, or the last sign, is then
    undefined) is redrawn whole, never patched.
    """
    z = gen.standard_normal((count, d * (d + 1) // 2))
    # A nonzero numpy normal is a 52-bit integer times a fixed ziggurat
    # width, so it lies far above 1e-154 in magnitude and its square never
    # underflows: a segment's sum of squares is 0 only if every entry is 0,
    # and only a draw holding an exact zero needs the segment check.
    while not z.all():
        bad = ~np.logical_or.reduceat(z != 0.0, _segment_starts(d), axis=1).all(axis=1)
        if not bad.any():
            break
        z[bad] = gen.standard_normal((int(bad.sum()), z.shape[1]))
    return z


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


@dataclass(eq=False)
class WeightStack:
    """Ordered layer matrices with provenance for exact replay; ``d`` is the
    ensemble's width and ``depth`` the number of matrices."""

    d: int = field(init=False)
    depth: int = field(init=False)
    matrices: np.ndarray
    ensemble: EnsembleSpec
    seed_info: RngStream
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrices = _float_array(self.matrices, "matrices")
        self.d = self.ensemble.d
        self.depth = len(self.matrices) if self.matrices.ndim else 0  # a 0-d array has no len
        if self.matrices.shape != (self.depth, self.d, self.d) or self.depth == 0:
            raise DomainError(
                f"matrices must be a nonempty (depth, {self.d}, {self.d}) stack, "
                f"got shape {self.matrices.shape}"
            )
        if not np.all(np.isfinite(self.matrices)):
            raise DomainError("weight matrices must be finite")
        if not isinstance(self.diagnostics, dict):
            raise DomainError(f"diagnostics must be a dict, got {type(self.diagnostics).__name__}")


def draw_stack_matrices(spec: EnsembleSpec, depth: int, gen: np.random.Generator) -> np.ndarray:
    """(depth, d, d) matrices drawn in layer order from a live generator.

    DomainError, before any draw, if the stack is more than numpy can address.
    """
    _addressable(depth * spec.d * spec.d, "the weight stack")
    if spec.kind == GAUSSIAN:
        mats = gen.standard_normal((depth, spec.d, spec.d))
        mats *= spec.scale
        return mats
    mats = np.empty((depth, spec.d, spec.d))
    for layer in mats:
        layer[...] = sample_haar_orthogonal(spec.d, spec.scale, gen)
    return mats


def sample_stack(spec: EnsembleSpec, depth: int, stream: RngStream) -> WeightStack:
    """Draw ``depth`` layer matrices from one stream, in layer order."""
    depth = _integer(depth, "depth")
    mats = draw_stack_matrices(spec, depth, stream.generator())
    return WeightStack(mats, spec, stream)


def weight_stack_to_dict(stack: WeightStack) -> dict:
    """Wire format: matrices as row-major flat rows, one per layer.

    ``matrices`` is a (depth, d * d) float64 view of the stack, not nested
    lists, so render the dict with ``jsonio``, which writes it a row at a
    time; the stdlib ``json`` cannot serialize it.
    """
    return {
        "d": stack.d,
        "depth": stack.depth,
        "ensemble": {"kind": stack.ensemble.kind, "scale": stack.ensemble.scale},
        "seed": stack.seed_info.as_dict(),
        "matrices": stack.matrices.reshape(stack.depth, stack.d * stack.d),
        "diagnostics": stack.diagnostics,
    }


def weight_stack_from_dict(payload: dict) -> WeightStack:
    """The stack ``weight_stack_to_dict`` wrote; DomainError if ``payload`` is not one, as when
    an entry of ``matrices`` is not a real number (``_float_array``)."""
    try:
        spec = EnsembleSpec(payload["ensemble"]["kind"], payload["d"], payload["ensemble"]["scale"])
        depth = _integer(payload["depth"], "depth")
        mats = _float_array(payload["matrices"], "matrices").reshape(depth, spec.d, spec.d)
        seed = RngStream(payload["seed"]["master"], payload["seed"]["stream"])
        return WeightStack(mats, spec, seed, payload.get("diagnostics") or {})
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"weight-stack payload has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed weight-stack payload: {exc}") from None
