"""Simulation of deep activations in (direction, log-norm) coordinates.

The chain renormalizes the running direction after every layer and
accumulates the log of each post-activation norm, so arbitrarily deep
stacks never overflow or underflow: magnitudes live entirely in log space.
Positive homogeneity of the activation is what makes the per-layer gain a
function of the unit direction alone.

Monte Carlo drivers split trials into fixed-size blocks, one random stream
per block, and reduce in block order.  Outputs are therefore bit-identical
for a given master seed no matter how many workers execute the blocks.
"""

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

from .analytic import GAUSSIAN, EnsembleSpec
from .ensembles import (
    RngStream,
    WeightStack,
    haar_orthogonal_batch,
    unit_sphere_batch,
)
from .errors import DomainError
from .quad import ActivationSlopes

__all__ = [
    "TRIAL_BLOCK",
    "WORKERS_ENV_VAR",
    "Trajectory",
    "MCEstimate",
    "CLTReport",
    "DirectionMoments",
    "AbsorptionReport",
    "ConeSplitReport",
    "forward",
    "estimate_lambda_single_step",
    "estimate_lambda_deep",
    "estimate_clt",
    "stationarity_check",
    "counterexample_relu",
    "counterexample_positive_cone",
]

# Trials per random stream.  Part of the result definition, like the seed:
# changing it changes the draws, changing the worker count does not.
TRIAL_BLOCK = 64

WORKERS_ENV_VAR = "LYAPINIT_WORKERS"


def _resolve_workers(n_workers: Optional[int]) -> int:
    if n_workers is None:
        n_workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    if n_workers < 1:
        raise DomainError(f"worker count must be positive, got {n_workers}")
    return n_workers


def _phi(y: np.ndarray, a1: float, a2: float) -> np.ndarray:
    return np.maximum(a1 * y, a2 * y)


def _advance(
    directions: np.ndarray,
    layers: Iterable[np.ndarray],
    slopes: ActivationSlopes,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the unit rows of ``directions`` through ``x -> phi(W x)``.

    Each item of ``layers`` is a (count, d, d) block with one matrix per
    row, or one (d, d) matrix shared by all rows; it may be a lazy
    generator, so draws happen one layer at a time.  Returns the summed log
    gains and the final unit directions.  With a zero slope a row that
    reaches the origin gets a -inf gain there, and NaN after it.
    """
    a1, a2 = slopes.alpha1, slopes.alpha2
    acc = np.zeros(len(directions))
    absorbing = a1 == 0.0 or a2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore") if absorbing else contextlib.nullcontext():
        for w in layers:
            if w.ndim == 3:
                y = np.einsum("bij,bj->bi", w, directions)
            else:
                y = directions @ w.T
            v = _phi(y, a1, a2)
            norms = np.linalg.norm(v, axis=1)
            acc += np.log(norms)
            directions = v / norms[:, None]
    return acc, directions


@dataclass
class Trajectory:
    """Per-layer log-norm gains and the final unit direction of one run.

    ``log_norm`` is log|x0| plus the summed gains.  ``hit_zero_at`` is only
    ever set for a zero slope (plain ReLU), where the chain can be absorbed
    at the origin; the direction is then the zero vector and log_norm -inf.
    """

    depth: int
    increments: np.ndarray
    final_direction: np.ndarray
    log_norm: float
    hit_zero_at: Optional[int] = None


def forward(
    weights: Union[WeightStack, np.ndarray],
    x0: np.ndarray,
    slopes: ActivationSlopes,
) -> Trajectory:
    """Run ``x -> phi(W x)`` through every layer of ``weights``."""
    mats = weights.matrices if isinstance(weights, WeightStack) else np.asarray(weights, dtype=np.float64)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DomainError(f"weights must be a (depth, d, d) stack, got shape {mats.shape}")
    d = mats.shape[1]
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (d,):
        raise DomainError(f"input must have shape ({d},) to match the weights, got {x0.shape}")
    norm0 = float(np.linalg.norm(x0))
    if not math.isfinite(norm0) or norm0 == 0.0:
        raise DomainError("input vector must be nonzero and finite")

    direction = (x0 / norm0)[None, :]
    log_norm = math.log(norm0)
    gains = np.empty(len(mats))
    for k, w in enumerate(mats):
        (gain,), direction = _advance(direction, (w,), slopes)
        if gain == -math.inf:
            return Trajectory(
                depth=len(mats),
                increments=gains[:k].copy(),
                final_direction=np.zeros(d),
                log_norm=float("-inf"),
                hit_zero_at=k + 1,
            )
        gains[k] = gain
        log_norm += gain
    return Trajectory(
        depth=len(mats),
        increments=gains,
        final_direction=direction[0],
        log_norm=log_norm,
    )


@dataclass
class MCEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    trials: int
    per_trial_values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.trials < 2:
            raise DomainError("an estimate needs at least 2 trials")

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "trials": self.trials}


def _to_estimate(values: np.ndarray, keep_values: bool) -> MCEstimate:
    return MCEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(len(values))),
        trials=len(values),
        per_trial_values=values if keep_values else None,
    )


def _run_blocks(
    block_fn: Callable[[int, np.random.Generator], np.ndarray],
    trials: int,
    stream: RngStream,
    n_workers: Optional[int],
) -> np.ndarray:
    """Evaluate ``block_fn(count, gen)`` over fixed-size trial blocks.

    Block j draws from ``stream.offset(j)``; results concatenate in block
    order, so the output is invariant under the worker count.
    """
    n_workers = _resolve_workers(n_workers)
    n_blocks = (trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK

    def run(j: int) -> np.ndarray:
        count = min(TRIAL_BLOCK, trials - j * TRIAL_BLOCK)
        return block_fn(count, stream.offset(j).generator())

    if n_workers == 1 or n_blocks == 1:
        parts = [run(j) for j in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(run, range(n_blocks)))
    return np.concatenate(parts, axis=0)


def _draw_weight_block(spec: EnsembleSpec, count: int, gen: np.random.Generator) -> np.ndarray:
    if spec.kind == GAUSSIAN:
        return spec.scale * gen.standard_normal((count, spec.d, spec.d))
    return haar_orthogonal_batch(count, spec.d, spec.scale, gen)


def _chain_log_norms(
    spec: EnsembleSpec,
    slopes: ActivationSlopes,
    depth: int,
    count: int,
    gen: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Final log norms and directions of ``count`` fresh chains.

    Inputs are drawn uniformly on the sphere first, then one weight block
    per layer; the fixed draw order is what makes replays exact.
    """
    directions = unit_sphere_batch(count, spec.d, gen)
    layers = (_draw_weight_block(spec, count, gen) for _ in range(depth))
    return _advance(directions, layers, slopes)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def estimate_lambda_single_step(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    trials: int,
    rng: RngStream,
    n_workers: Optional[int] = None,
    keep_values: bool = False,
) -> MCEstimate:
    """Mean of log|phi(W u)| over fresh weight draws at a fixed unit input.

    One layer suffices: for both supported ensembles the expectation is the
    same at every unit input, so this estimates the exponent directly.
    """
    _require(trials >= 100, "single-step estimation needs at least 100 trials")
    d = ensemble.d
    a1, a2 = slopes.alpha1, slopes.alpha2

    def block(count: int, gen: np.random.Generator) -> np.ndarray:
        if ensemble.kind == GAUSSIAN:
            # W e1 is the first weight column: d i.i.d. normals.
            col = ensemble.scale * gen.standard_normal((count, d))
        else:
            # The first column of a Haar orthogonal matrix is uniform on the sphere.
            col = ensemble.scale * unit_sphere_batch(count, d, gen)
        return np.log(np.linalg.norm(_phi(col, a1, a2), axis=1))

    values = _run_blocks(block, trials, rng, n_workers)
    return _to_estimate(values, keep_values)


def estimate_lambda_deep(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: Optional[int] = None,
    keep_values: bool = False,
) -> MCEstimate:
    """Depth-averaged log-norm gain over fresh stacks and sphere inputs."""
    _require(depth >= 1, "depth must be at least 1")
    _require(trials >= 2, "deep estimation needs at least 2 trials")

    def block(count: int, gen: np.random.Generator) -> np.ndarray:
        return _chain_log_norms(ensemble, slopes, depth, count, gen)[0] / depth

    values = _run_blocks(block, trials, rng, n_workers)
    return _to_estimate(values, keep_values)


@dataclass
class CLTReport:
    """Depth-normalized fluctuation statistics of the log norm."""

    depth: int
    trials: int
    normalized_samples: np.ndarray
    gamma_hat: float
    skewness: float
    excess_kurtosis: float

    def __post_init__(self):
        # norm-preserving deterministic inputs leave only roundoff variance
        # (~1e-32); any genuinely random ensemble sits many orders above
        if not self.gamma_hat > 1e-24:
            raise DomainError(
                "normalized samples are degenerate; fluctuation statistics "
                "need a genuinely random ensemble"
            )

    def as_dict(self) -> dict:
        return {
            "depth": self.depth,
            "trials": self.trials,
            "gamma_hat": self.gamma_hat,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
        }


def _shape_moments(x: np.ndarray) -> Tuple[float, float]:
    """Biased skewness and excess kurtosis, in the operation order of
    ``scipy.stats.skew`` and ``scipy.stats.kurtosis``, so the bits agree.

    A point mass gives NaN here; ``CLTReport`` rejects it as degenerate.
    """
    c = x - x.mean(keepdims=True)
    sq = c**2
    m2 = np.mean(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.mean(sq * c) / m2**1.5), float(np.mean(sq**2) / m2**2.0 - 3)


def estimate_clt(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    depth: int,
    trials: int,
    lam: float,
    rng: RngStream,
    n_workers: Optional[int] = None,
) -> CLTReport:
    """Distribution of (log|X_depth| - depth * lam) / sqrt(depth).

    ``lam`` is the exponent from the closed-form side; the report carries
    the empirical variance of the normalized statistic plus its shape
    moments.
    """
    _require(depth >= 1, "depth must be at least 1")
    _require(trials >= 1000, "fluctuation statistics need at least 1000 trials")

    def block(count: int, gen: np.random.Generator) -> np.ndarray:
        return _chain_log_norms(ensemble, slopes, depth, count, gen)[0]

    log_norms = _run_blocks(block, trials, rng, n_workers)
    normalized = (log_norms - depth * lam) / math.sqrt(depth)
    skewness, excess_kurtosis = _shape_moments(normalized)
    return CLTReport(
        depth=depth,
        trials=trials,
        normalized_samples=normalized,
        gamma_hat=float(normalized.var(ddof=1)),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
    )


@dataclass
class DirectionMoments:
    """Empirical first and second moments of the direction chain."""

    steps: int
    trials: int
    mean: np.ndarray
    second_moment: np.ndarray

    def max_mean_deviation(self) -> float:
        """Largest |mean| coordinate: the distance from the uniform law's zero mean.

        The chain's stationary law is uniform only at equal slopes, so at
        unequal slopes this is large on correct output (about 0.22 at
        ``alpha = 0.1, d = 3``).
        """
        return float(np.max(np.abs(self.mean)))

    def max_isotropy_deviation(self) -> float:
        """Largest entry of |second moment - I/d|: the distance from the uniform law.

        Like :meth:`max_mean_deviation`, nonzero at unequal slopes on
        correct output (about 0.05 at ``alpha = 0.1, d = 3``).
        """
        d = self.second_moment.shape[0]
        return float(np.max(np.abs(self.second_moment - np.eye(d) / d)))

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "trials": self.trials,
            "mean": self.mean.tolist(),
            "second_moment": self.second_moment.tolist(),
            "max_mean_deviation": self.max_mean_deviation(),
            "max_isotropy_deviation": self.max_isotropy_deviation(),
        }


def stationarity_check(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    steps: int,
    trials: int,
    rng: RngStream,
    n_workers: Optional[int] = None,
) -> DirectionMoments:
    """Moments of the direction after ``steps`` chain steps from uniform starts.

    For either ensemble ``W s`` is isotropic for every unit ``s``, so the
    chain reaches its stationary law after one step and keeps it: the law of
    ``phi(g) / |phi(g)|`` with ``g ~ N(0, I_d)``, whatever the step count.
    That law is uniform on the sphere (mean zero, second moment identity
    over d) only when the two slopes are equal; otherwise the mean is pulled
    into the positive orthant.
    """
    _require(steps >= 1, "steps must be at least 1")
    _require(trials >= 2, "moment estimation needs at least 2 trials")

    def block(count: int, gen: np.random.Generator) -> np.ndarray:
        return _chain_log_norms(ensemble, slopes, steps, count, gen)[1]

    rows = _run_blocks(block, trials, rng, n_workers)
    return DirectionMoments(
        steps=steps,
        trials=trials,
        mean=rows.mean(axis=0),
        second_moment=rows.T @ rows / len(rows),
    )


@dataclass
class AbsorptionReport:
    """Fraction of plain-ReLU chains absorbed at the origin."""

    d: int
    sigma: float
    depth: int
    trials: int
    zero_fraction_layer1: float
    zero_fraction_final: float
    std_error_layer1: float
    std_error_final: float

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "sigma": self.sigma,
            "depth": self.depth,
            "trials": self.trials,
            "zero_fraction_layer1": self.zero_fraction_layer1,
            "zero_fraction_final": self.zero_fraction_final,
            "std_error_layer1": self.std_error_layer1,
            "std_error_final": self.std_error_final,
        }


def counterexample_relu(
    d: int,
    sigma: float,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: Optional[int] = None,
) -> AbsorptionReport:
    """Absorption frequencies of the zero-slope chain started at e1.

    With a zero second slope the origin is absorbing, so no finite growth
    rate exists; the layer-1 absorption probability is 2^-d exactly.
    """
    _require(sigma > 0 and math.isfinite(sigma), "sigma must be a finite positive real")
    _require(depth >= 1, "depth must be at least 1")
    _require(trials >= 2, "absorption estimation needs at least 2 trials")

    relu = ActivationSlopes.relu()

    def block(count: int, gen: np.random.Generator) -> np.ndarray:
        start = np.zeros((count, d))
        start[:, 0] = 1.0
        layers = (sigma * gen.standard_normal((count, d, d)) for _ in range(depth))
        # an absorbed row's direction is NaN from its absorbing layer on
        _, directions = _advance(start, (next(layers),), relu)
        absorbed_layer1 = np.isnan(directions[:, 0])
        _, directions = _advance(directions, layers, relu)
        return np.stack([absorbed_layer1, np.isnan(directions[:, 0])], axis=1).astype(float)

    flags = _run_blocks(block, trials, rng, n_workers)
    fractions = flags.mean(axis=0)
    errors = np.sqrt(fractions * (1.0 - fractions) / trials)
    return AbsorptionReport(
        d=d,
        sigma=sigma,
        depth=depth,
        trials=trials,
        zero_fraction_layer1=float(fractions[0]),
        zero_fraction_final=float(fractions[1]),
        std_error_layer1=float(errors[0]),
        std_error_final=float(errors[1]),
    )


@dataclass
class ConeSplitReport:
    """Growth rates from the two sign cones under entrywise-positive weights."""

    d: int
    a: float
    alpha: float
    depth: int
    trials: int
    limit_pos: float
    limit_pos_std_error: float
    limit_neg: float
    limit_neg_std_error: float
    gap: float
    gap_std_error: float

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "a": self.a,
            "alpha": self.alpha,
            "depth": self.depth,
            "trials": self.trials,
            "limit_pos": self.limit_pos,
            "limit_pos_std_error": self.limit_pos_std_error,
            "limit_neg": self.limit_neg,
            "limit_neg_std_error": self.limit_neg_std_error,
            "gap": self.gap,
            "gap_std_error": self.gap_std_error,
        }


def counterexample_positive_cone(
    d: int,
    a: float,
    alpha: float,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: Optional[int] = None,
) -> ConeSplitReport:
    """Growth-rate gap between all-positive and all-negative starting vectors.

    Entrywise-positive weights preserve both sign cones, so the chain picks
    up the first slope on one cone and the second on the other; the two
    runs use independent stacks and the gap estimate carries a joint
    standard error.
    """
    _require(0.0 < alpha < 1.0, "alpha must lie strictly between 0 and 1")
    _require(a > 0 and math.isfinite(a), "a must be a finite positive real")
    _require(depth >= 1, "depth must be at least 1")
    _require(trials >= 2, "gap estimation needs at least 2 trials")
    slopes = ActivationSlopes.leaky_relu(alpha)

    def run_cone(count: int, gen: np.random.Generator, sign: float) -> np.ndarray:
        start = np.full((count, d), sign / math.sqrt(d))
        layers = (gen.uniform(0.0, a, size=(count, d, d)) for _ in range(depth))
        return _advance(start, layers, slopes)[0] / depth

    def block(count: int, gen: np.random.Generator) -> np.ndarray:
        pos = run_cone(count, gen, 1.0)
        neg = run_cone(count, gen, -1.0)
        return np.stack([pos, neg], axis=1)

    values = _run_blocks(block, trials, rng, n_workers)
    pos_est = _to_estimate(values[:, 0], keep_values=False)
    neg_est = _to_estimate(values[:, 1], keep_values=False)
    return ConeSplitReport(
        d=d,
        a=a,
        alpha=alpha,
        depth=depth,
        trials=trials,
        limit_pos=pos_est.mean,
        limit_pos_std_error=pos_est.std_error,
        limit_neg=neg_est.mean,
        limit_neg_std_error=neg_est.std_error,
        gap=pos_est.mean - neg_est.mean,
        gap_std_error=math.hypot(pos_est.std_error, neg_est.std_error),
    )
