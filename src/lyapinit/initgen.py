"""Critical-scale weight-stack generation, plain and candidate-sampled.

The plain generator computes the zero-exponent scale for the requested
ensemble and draws one stack.  The sampled variant draws several candidate
stacks at that scale and keeps the one whose expected output norm over the
probe inputs sits closest to one; even at the critical scale the finite-depth
log norm fluctuates on the order of sqrt(depth), and picking the best of
roughly 2*sqrt(depth) candidates collapses most of that spread.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple

import numpy as np

from .analytic import EnsembleSpec, _critical_scale
from .dynamics import _advance
from .ensembles import RngStream, WeightStack, draw_stack_matrices, sample_stack, unit_sphere_batch
from .errors import AccuracyError, DomainError, _addressable, _integer, _width
from .quad import ActivationSlopes

__all__ = [
    "InputDistribution",
    "CandidateDiagnostics",
    "lyapunov_init",
    "sampled_lyapunov_init",
]

# Per-probe log norms beyond this are folded into the score as +-infinity
# rather than overflowing the norm-domain average.
_LOG_NORM_GUARD = 700.0


@dataclass(frozen=True)
class InputDistribution:
    """Probe-input law used by the candidate-selection step."""

    kind: str
    d: int
    low: Optional[np.ndarray] = None
    high: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None

    @classmethod
    def uniform_sphere(cls, d: int) -> "InputDistribution":
        return cls(kind="sphere", d=_width(d))

    @classmethod
    def uniform_box(cls, low, high) -> "InputDistribution":
        low = np.atleast_1d(np.asarray(low, dtype=np.float64))
        high = np.atleast_1d(np.asarray(high, dtype=np.float64))
        if low.shape != high.shape or low.ndim != 1:
            raise DomainError("box bounds must be matching 1-d arrays")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.all(np.isfinite(high - low))  # false too for infinite or NaN bounds
        if not finite:
            raise DomainError("box bounds and their widths high - low must be finite")
        if np.any(low >= high):
            raise DomainError("box bounds must satisfy low < high per coordinate")
        return cls(kind="box", d=len(low), low=low, high=high)

    @classmethod
    def fixed_set(cls, vectors) -> "InputDistribution":
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise DomainError("fixed set must be a nonempty (n, d) array of vectors")
        if not np.all(np.isfinite(vectors)):
            raise DomainError("fixed-set vectors must be finite")
        if np.any(np.all(vectors == 0.0, axis=1)):
            raise DomainError("fixed-set vectors must be nonzero")
        return cls(kind="fixed", d=vectors.shape[1], vectors=vectors)

    def sample(self, count: int, gen: np.random.Generator) -> np.ndarray:
        if self.kind == "sphere":
            return unit_sphere_batch(count, self.d, gen)
        if self.kind == "box":
            return gen.uniform(self.low, self.high, size=(count, self.d))
        picks = gen.integers(0, len(self.vectors), size=count)
        return self.vectors[picks]


@dataclass
class CandidateDiagnostics:
    """Selection record of one sampled-initialization run.

    ``per_candidate_norm_estimate`` holds the mean output norm of each
    candidate over unit-normalized probes; ``per_candidate_raw_norm_mean``
    keeps the average raw probe-input norm so the unnormalized scale of the
    inputs is not lost.  The count and the selected score are read off the scores.
    """

    candidate_count: int = field(init=False)
    per_candidate_norm_estimate: np.ndarray
    per_candidate_score: np.ndarray
    per_candidate_raw_norm_mean: np.ndarray
    selected_index: int
    selection_score: float = field(init=False)
    probe_inputs: int
    metric: str

    def __post_init__(self):
        self.candidate_count = len(self.per_candidate_score)
        self.selection_score = float(self.per_candidate_score[self.selected_index])

    def as_dict(self) -> dict:
        return asdict(self)


def lyapunov_init(d: int, depth: int, alpha: float, kind: str, rng: RngStream) -> WeightStack:
    """One stack of ``depth`` matrices at the zero-exponent scale.

    Biases are implicitly zero; the stack stores none.
    """
    spec = EnsembleSpec(kind, d, _critical_scale(kind, d, alpha))
    return sample_stack(spec, depth, rng)


def _mean_output_norm(
    matrices: np.ndarray,
    probes_unit: np.ndarray,
    slopes: ActivationSlopes,
) -> float:
    """E[|X_depth|] over unit probes, accumulated in log space."""
    acc, _ = _advance(probes_unit, matrices, slopes)
    clipped = np.clip(acc, -_LOG_NORM_GUARD, _LOG_NORM_GUARD)
    mean = float(np.mean(np.exp(clipped)))
    if np.any(acc > _LOG_NORM_GUARD):
        return math.inf
    return mean


def sampled_lyapunov_init(
    d: int,
    depth: int,
    alpha: float,
    kind: str,
    rng: RngStream,
    input_dist: Optional[InputDistribution] = None,
    candidate_count: Optional[int] = None,
    probe_inputs: int = 256,
    linear_metric: bool = False,
) -> Tuple[WeightStack, CandidateDiagnostics]:
    """Best of several critical-scale stacks by expected output norm.

    Candidate i owns stream ``rng.offset(i)`` and draws its matrices first,
    probe inputs second.  Probes are normalized to unit length before the
    forward pass (the network is positively homogeneous, so the score would
    otherwise just absorb the input scale); raw norms are kept in the
    diagnostics.  The default score |log m| treats overshoot and undershoot
    symmetrically; ``linear_metric`` switches to |m - 1|.

    The best candidate so far is kept as the others are scored, so at most
    two stacks are alive at once.  A NaN score never wins and a tie keeps
    the lower index: the pick is ``np.argmin(per_candidate_score)`` wherever
    no score is NaN.  AccuracyError if no score is finite.
    """
    depth = _integer(depth, "depth")
    probe_inputs = _integer(probe_inputs, "probe_inputs")
    if input_dist is None:
        input_dist = InputDistribution.uniform_sphere(d)
    if input_dist.d != d:
        raise DomainError(f"input distribution is {input_dist.d}-dimensional, expected {d}")
    if candidate_count is None:
        candidate_count = math.ceil(2.0 * math.sqrt(depth))
    candidate_count = _addressable(_integer(candidate_count, "candidate_count"), "the candidate scores")
    _addressable(probe_inputs * input_dist.d, "the probe inputs")

    spec = EnsembleSpec(kind, d, _critical_scale(kind, d, alpha))
    slopes = ActivationSlopes.leaky_relu(alpha)

    norm_estimates = np.empty(candidate_count)
    raw_norm_means = np.empty(candidate_count)
    scores = np.empty(candidate_count)
    selected = None
    for i in range(candidate_count):
        stream = rng.offset(i)
        gen = stream.generator()
        mats = draw_stack_matrices(spec, depth, gen)
        probes = input_dist.sample(probe_inputs, gen)
        with np.errstate(over="ignore"):
            raw_norms = np.linalg.norm(probes, axis=1)
        if not np.all((raw_norms > 0.0) & (raw_norms < math.inf)):
            raise DomainError("probe inputs need nonzero norms that fit in float64")
        probes_unit = probes / raw_norms[:, None]
        norm_estimates[i] = _mean_output_norm(mats, probes_unit, slopes)
        raw_norm_means[i] = float(raw_norms.mean())
        with np.errstate(divide="ignore"):
            if linear_metric:
                scores[i] = np.abs(norm_estimates[i] - 1.0)
            else:
                scores[i] = np.abs(np.log(norm_estimates[i]))
        # A NaN score never wins, and a tie keeps the lower index.
        if not math.isnan(scores[i]) and (selected is None or scores[i] < scores[selected]):
            selected, chosen_matrices = i, mats
        del mats  # a losing candidate goes before the next draw: two stacks at most

    if selected is None or not math.isfinite(scores[selected]):
        raise AccuracyError(
            "every candidate produced a non-finite norm estimate",
            best_estimate=math.nan,
            error_bound=math.nan,
        )

    diagnostics = CandidateDiagnostics(
        per_candidate_norm_estimate=norm_estimates,
        per_candidate_score=scores,
        per_candidate_raw_norm_mean=raw_norm_means,
        selected_index=selected,
        probe_inputs=probe_inputs,
        metric="linear" if linear_metric else "log",
    )
    chosen = WeightStack(
        matrices=chosen_matrices,
        ensemble=spec,
        seed_info=rng.offset(selected),
        diagnostics=diagnostics.as_dict(),
    )
    return chosen, diagnostics
