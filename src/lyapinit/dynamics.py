"""Simulation of deep activations in (direction, log-norm) coordinates.

The chain renormalizes the running direction after every layer and
accumulates the log of each post-activation norm, so arbitrarily deep
stacks never overflow or underflow: magnitudes live entirely in log space.
Positive homogeneity of the activation is what makes the per-layer gain a
function of the unit direction alone.

Monte Carlo drivers split trials into fixed-size blocks, one random stream
per block, run groups of consecutive blocks through the chain together, and
reduce in block order.  Each block still draws only from its own stream, in
the same order, so outputs are bit-identical for a given master seed no
matter how the blocks are grouped or how many workers execute the groups.
"""

import contextlib
import functools
import itertools
import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .analytic import GAUSSIAN, EnsembleSpec
from .ensembles import (
    HaarReflectors,
    RngStream,
    WeightStack,
    _column_sums,
    _float_array,
    _layer_floats,
    _trials_last,
    draw_stack_matrices,
    haar_orthogonal_batch,
    unit_sphere_batch,
)
from .errors import AccuracyError, DomainError, _addressable, _finite_real, _integer, _positive_real, _width
from .quad import ActivationSlopes

# Trials per random stream.  Part of the result definition, like the seed:
# changing it changes the draws, changing the worker count does not.
TRIAL_BLOCK = 64

# Fewest trials the single-step mean and the CLT's fluctuation statistics take.
MIN_SINGLE_STEP_TRIALS = 100
MIN_CLT_TRIALS = 1000

# Blocks run through the chain as one set of rows, and floats per chunk of
# jointly drawn layers.  Neither changes a bit of any result: they trade
# numpy call overhead against memory.
_GROUP_BLOCKS = 64
_CHUNK_FLOATS = 128 * 1024

# One block of a group: its trial count and its stream's generator.
Part = Tuple[int, np.random.Generator]
# Weights of one chain layer: per row (trials last), shared, or Haar reflectors per row.
Layer = Union[np.ndarray, HaarReflectors]


def _phi(y: np.ndarray, a1: float, a2: float) -> np.ndarray:
    return np.maximum(a1 * y, a2 * y)


def _peak_scaled(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columns of ``u`` over their largest magnitude, and its log (0 for a zero column)."""
    peak = np.max(np.abs(u), axis=0)
    peak[~(peak > 0.0)] = 1.0
    return u / peak, np.log(peak)


def _activate(y: np.ndarray, a1: float, a2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Log norms and unit directions of the columns of ``phi(y)``, ``y`` (d, rows).

    Squares sum in index order, so no column's bits depend on its neighbours.
    A column whose plain norm lies in [1e-150, 1e150] takes it bit for bit.
    Any other column is scaled to a largest entry of 1 before ``phi``, which
    is positively homogeneous, and again before the norm, so neither ``phi``
    nor the squares under- or overflow.  A column with ``phi(y)`` exactly
    zero (a zero slope) keeps log norm -inf and a NaN direction, and a
    column holding inf or NaN ends as NaN.  Callers ignore floating-point
    warnings.
    """
    v = _phi(y, a1, a2)
    norms = np.sqrt(_column_sums(v * v))
    if 1e-150 <= norms.min() <= norms.max() <= 1e150:  # false with a NaN too
        return np.log(norms), v / norms
    bad = ~((norms >= 1e-150) & (norms <= 1e150))
    u, log_peak = _peak_scaled(y[:, bad])
    v[:, bad], log_top = _peak_scaled(_phi(u, a1, a2))
    norms[bad] = np.sqrt(_column_sums(v[:, bad] ** 2))
    log_norms = np.log(norms)
    log_norms[bad] += log_peak + log_top
    return log_norms, v / norms


def _advance(
    directions: np.ndarray,
    layers: Iterable[Layer],
    slopes: ActivationSlopes,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the (count, d) unit rows of ``directions`` through ``x -> phi(W x)``.

    ``x`` is transposed once and runs trials last, (d, count), through every
    layer.  Each item of ``layers`` is a (d, d, count) block with one matrix
    per trial, whose ``W x`` sums over j in index order, one (d, d) matrix
    shared by all trials, or a ``HaarReflectors`` set with one layer per
    trial; it may be a lazy generator such as ``_joint_layers``, so draws
    follow the chain.  Returns the summed log gains and the final unit
    directions as (count, d) rows.  With a zero slope a trial that reaches
    the origin gets a -inf gain there, and NaN after it.
    """
    a1, a2 = slopes.alpha1, slopes.alpha2
    x = np.ascontiguousarray(directions.T)
    acc = np.zeros(len(directions))
    # W x overflowing to inf (weights near 1e308) ends in NaN; the Monte
    # Carlo drivers turn that into AccuracyError
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for w in layers:
            if isinstance(w, HaarReflectors):
                y = w.apply(x)
            elif w.ndim == 3:
                y = _column_sums(w * x)
            else:
                y = w @ x
            log_norms, x = _activate(y, a1, a2)
            acc += log_norms
    return acc, x.T.copy()  # row-major, so callers' sums over trials keep their order


@dataclass(eq=False)
class Trajectory:
    """Per-layer log-norm gains and the final unit direction of one run.

    ``log_norm`` is log|x0| plus the summed gains.  ``hit_zero_at`` is only
    set when ``phi(W x)`` is exactly zero, which needs a zero slope (plain
    ReLU) or a singular layer; the direction is then the zero vector and
    log_norm -inf.
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
    """Run ``x -> phi(W x)`` through every layer of ``weights``.

    Non-finite weights are a DomainError.  A layer whose ``W x`` overflows
    float64 raises AccuracyError; only an exactly zero ``phi(W x)`` counts
    as absorption.
    """
    mats = weights.matrices if isinstance(weights, WeightStack) else _float_array(weights, "weights")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DomainError(f"weights must be a (depth, d, d) stack, got shape {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise DomainError("weight matrices must be finite")
    d = mats.shape[1]
    x0 = _float_array(x0, "input")
    if x0.shape != (d,):
        raise DomainError(f"input must have shape ({d},) to match the weights, got {x0.shape}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (log_norm,), column = _activate(x0[:, None], 1.0, 1.0)  # the chain's own log-norm rule
    direction = column.T
    if not math.isfinite(log_norm):
        raise DomainError("input vector must be nonzero and finite")
    gains = np.empty(len(mats))
    for k, w in enumerate(mats):
        (gain,), direction = _advance(direction, (w,), slopes)
        if math.isnan(gain):
            raise AccuracyError(f"layer {k + 1} overflows float64")
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
    return Trajectory(depth=len(mats), increments=gains, final_direction=direction[0], log_norm=log_norm)


@dataclass(eq=False)
class MCEstimate:
    """Monte Carlo estimate: a headline mean with its standard error.

    ``per_trial_values`` are the samples behind the mean, one per trial: a
    sample that is not a real number (None, a string) raises DomainError,
    and one that is not finite AccuracyError.  ``mean``, ``std_error`` (the
    sample one) and ``trials`` are derived from them.  ``details`` holds the
    experiment's statistics that the rest of a ``simulate`` record does not.
    """

    per_trial_values: np.ndarray
    details: dict = field(default_factory=dict)
    mean: float = field(init=False)
    std_error: float = field(init=False)
    trials: int = field(init=False)

    def __post_init__(self):
        values = self.per_trial_values = _float_array(self.per_trial_values, "per_trial_values")
        if values.ndim != 1:
            raise DomainError(f"per_trial_values must be 1-d, got shape {values.shape}")
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise AccuracyError(
                f"{bad} of {values.size} Monte Carlo values are not finite; float64 "
                "under- or overflowed, so the weight scale is too extreme"
            )
        self.trials = _integer(len(values), "trials", 2)
        self.mean = float(values.mean())
        self.std_error = float(values.std(ddof=1) / math.sqrt(len(values)))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(
    group_fn: Callable[[List[Part], Iterator[Layer]], Tuple[np.ndarray, ...]],
    trials: int,
    stream: RngStream,
    n_workers: int,
    draw: Callable[[int, np.random.Generator], np.ndarray],
    join: Callable[[List[np.ndarray], int], Iterable[Layer]],
    layer_floats: int,
    depth: int,
) -> Tuple[np.ndarray, ...]:
    """Evaluate ``group_fn(parts, layers)`` over groups of fixed-size trial blocks.

    ``parts`` holds one ``(count, gen)`` pair per block of a group, and
    block j draws from ``stream.offset(j)``.  ``layers`` lazily yields the
    group's ``depth`` layers from ``draw`` and ``join`` (``_joint_layers``),
    drawing nothing before it is read.  Every size is fixed here, before any draw.
    A group has at most ``_GROUP_BLOCKS`` consecutive blocks, and few enough
    that one layer of its rows fits in ``_CHUNK_FLOATS`` unless one block
    alone does not; a chunk holds the layers a full group's rows fit in it,
    or one, and DomainError refuses a chunk numpy cannot address.

    The thread budget is ``n_workers`` capped at the usable CPUs.  At two
    threads, when a group's ``depth`` layers take more than one chunk, the
    groups run in turn on the calling thread and a second thread draws each
    group's next chunk.  Otherwise the groups are also few enough that
    every thread gets one: one thread runs them in turn, more run them on a
    pool of up to that many threads.  Each group returns a tuple of arrays
    with one row per trial, and each array concatenates over the groups in
    block order, so the output is invariant under the grouping and the
    worker count.
    """
    threads = min(_integer(n_workers, "worker count"), _usable_cpus())
    n_blocks = (trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK
    size = max(1, min(_GROUP_BLOCKS, _CHUNK_FLOATS // (TRIAL_BLOCK * layer_floats)))
    rows = min(trials, size * TRIAL_BLOCK)
    # draw-ahead was measured, and pays, with one chain beside one draw
    # thread; other thread counts keep the per-thread split
    ahead = threads == 2 and depth > 1 and depth * rows * layer_floats > _CHUNK_FLOATS
    if not ahead:
        size = min(size, (n_blocks + threads - 1) // threads)
        rows = min(trials, size * TRIAL_BLOCK)
    per_chunk = max(1, _CHUNK_FLOATS // (rows * layer_floats))
    _addressable(per_chunk * rows * layer_floats, "one chunk of layers")

    def run(first: int, pool: Optional[Executor] = None) -> Tuple[np.ndarray, ...]:
        parts = [
            (min(TRIAL_BLOCK, trials - j * TRIAL_BLOCK), stream.offset(j).generator())
            for j in range(first, min(first + size, n_blocks))
        ]
        return group_fn(parts, _joint_layers(parts, depth, draw, join, per_chunk, pool))

    firsts = range(0, n_blocks, size)
    threads = min(threads, len(firsts))
    if threads > 1 and not ahead:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, firsts))
    else:
        with ThreadPoolExecutor(max_workers=1) if ahead else contextlib.nullcontext() as pool:
            results = [run(first, pool) for first in firsts]
    return tuple(np.concatenate(arrays) for arrays in zip(*results))


def _rows(parts: List[Part]) -> int:
    return sum(count for count, _ in parts)


def _joint_layers(
    parts: List[Part],
    depth: int,
    draw: Callable[[int, np.random.Generator], np.ndarray],
    join: Callable[[List[np.ndarray], int], Iterable[Layer]],
    per_chunk: int,
    pool: Optional[Executor],
) -> Iterator[Layer]:
    """Lazily yield ``depth`` layers, one weight per row, for the blocks of ``parts``.

    Each block draws n layers per call from its own generator, as
    ``draw(n * count, gen)``: an array of n * count weights (matrices,
    single-step's columns, or Haar normals).  ``join(draws, n)`` joins the
    blocks' draws trials last, in one transposed copy: a layer of weights
    of shape s is (*s, rows), and a reflector layer's arrays are (., rows).
    Sampling fills layer after layer in generator order, so every row gets
    the bits that one ``draw(count, gen)`` per layer would give.  A chunk
    holds ``per_chunk`` layers, the last one what is left.

    With a ``pool``, the next chunk's draws run there as one task while
    this chunk is joined and chained, and the chunk after that is submitted
    only once they are in, so each generator is still used in order.
    Without one, every chunk is drawn here.
    """
    firsts = range(0, depth, per_chunk)

    def draw_chunk(first: int) -> Tuple[int, List[np.ndarray]]:
        n = min(per_chunk, depth - first)
        return n, [draw(n * count, gen) for count, gen in parts]

    ahead = None
    for k, first in enumerate(firsts):
        n, draws = draw_chunk(first) if ahead is None else ahead.result()
        ahead = None
        if pool is not None and k + 1 < len(firsts):
            ahead = pool.submit(draw_chunk, firsts[k + 1])
        layers = join(draws, n)
        del draws  # the joined chunk is a copy
        yield from layers


def _uniform_chains(
    spec: EnsembleSpec,
    slopes: ActivationSlopes,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Final log norms and unit directions of ``trials`` fresh chains.

    Each block draws its inputs uniformly on the sphere first, then one
    weight block per layer; the fixed draw order is what makes replays
    exact.
    """
    def group(parts: List[Part], layers: Iterator[Layer]) -> Tuple[np.ndarray, np.ndarray]:
        directions = np.concatenate([unit_sphere_batch(count, spec.d, gen) for count, gen in parts])
        return _advance(directions, layers, slopes)

    if spec.kind == GAUSSIAN:
        draw, join = functools.partial(draw_stack_matrices, spec), _trials_last
    else:
        def draw(count: int, gen: np.random.Generator) -> np.ndarray:
            return haar_orthogonal_batch(count, spec.d, gen)
        join = functools.partial(HaarReflectors.join, d=spec.d, eta=spec.scale)
    return _run_blocks(group, trials, rng, n_workers, draw, join, _layer_floats(spec), depth)


def estimate_lambda_single_step(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    trials: int,
    rng: RngStream,
    n_workers: int = 1,
) -> MCEstimate:
    """Mean of log|phi(W u)| over fresh weight draws at a fixed unit input.

    One layer suffices: for both supported ensembles the expectation is the
    same at every unit input, so this estimates the exponent directly.
    """
    trials = _integer(trials, "trials", MIN_SINGLE_STEP_TRIALS)
    d = ensemble.d
    a1, a2 = slopes.alpha1, slopes.alpha2

    def column(count: int, gen: np.random.Generator) -> np.ndarray:
        if ensemble.kind == GAUSSIAN:
            # W e1 is the first weight column: d i.i.d. normals.
            return ensemble.scale * gen.standard_normal((count, d))
        # The first column of a Haar orthogonal matrix is uniform on the sphere.
        return ensemble.scale * unit_sphere_batch(count, d, gen)

    def group(parts: List[Part], layers: Iterator[Layer]) -> Tuple[np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # see _advance
            return (_activate(next(layers), a1, a2)[0],)

    return MCEstimate(*_run_blocks(group, trials, rng, n_workers, column, _trials_last, d, 1))


def estimate_lambda_deep(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: int = 1,
) -> MCEstimate:
    """Depth-averaged log-norm gain over fresh stacks and sphere inputs."""
    depth = _integer(depth, "depth")
    trials = _integer(trials, "trials", 2)
    log_norms, _ = _uniform_chains(ensemble, slopes, depth, trials, rng, n_workers)
    return MCEstimate(log_norms / depth)


def _shape_moments(x: np.ndarray) -> Tuple[float, float]:
    """Biased skewness and excess kurtosis, in the operation order of
    ``scipy.stats.skew`` and ``scipy.stats.kurtosis``, so the bits agree.

    A point mass gives NaN here; ``estimate_clt`` rejects it first.
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
    n_workers: int = 1,
) -> MCEstimate:
    """Distribution of (log|X_depth| - depth * lam) / sqrt(depth).

    ``lam`` is the exponent from the closed-form side.  The estimate's
    samples are the normalized statistics; its details carry their
    empirical variance ``gamma_hat``, their shape moments and ``lam``.
    """
    depth = _integer(depth, "depth")
    trials = _integer(trials, "trials", MIN_CLT_TRIALS)
    lam = _finite_real(lam, "lam")
    log_norms, _ = _uniform_chains(ensemble, slopes, depth, trials, rng, n_workers)
    est = MCEstimate((log_norms - depth * lam) / math.sqrt(depth))
    gamma_hat = float(est.per_trial_values.var(ddof=1))
    # norm-preserving deterministic inputs leave only roundoff variance
    # (~1e-32); any genuinely random ensemble sits many orders above
    if not gamma_hat > 1e-24:
        raise DomainError(
            "normalized samples are degenerate; fluctuation statistics "
            "need a genuinely random ensemble"
        )
    skewness, excess_kurtosis = _shape_moments(est.per_trial_values)
    est.details = {
        "gamma_hat": gamma_hat,
        "skewness": skewness,
        "excess_kurtosis": excess_kurtosis,
        "lambda": lam,
    }
    return est


def stationarity_check(
    ensemble: EnsembleSpec,
    slopes: ActivationSlopes,
    steps: int,
    trials: int,
    rng: RngStream,
    n_workers: int = 1,
) -> MCEstimate:
    """Mean coordinate of the direction after ``steps`` chain steps from uniform starts.

    For either ensemble ``W s`` is isotropic for every unit ``s``, so the
    chain reaches its stationary law after one step and keeps it: the law of
    ``phi(g) / |phi(g)|`` with ``g ~ N(0, I_d)``, whatever the step count.
    Each trial's value is the mean of its final direction's coordinates,
    which by exchangeability estimates ``E[S_i]``: zero when the two slopes
    are equal (the law is then uniform on the sphere), and pulled into the
    positive orthant otherwise (about 0.2166 at ``alpha = 0.1, d = 3``).
    The details add the empirical mean vector and second-moment matrix.
    """
    steps = _integer(steps, "steps")
    trials = _integer(trials, "trials", 2)
    _, rows = _uniform_chains(ensemble, slopes, steps, trials, rng, n_workers)
    details = {
        "mean_vector": rows.mean(axis=0),
        "second_moment": rows.T @ rows / len(rows),
    }
    return MCEstimate(rows.mean(axis=1), details)


def counterexample_relu(
    d: int,
    sigma: float,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: int = 1,
) -> MCEstimate:
    """Absorption frequencies of the zero-slope chain started at e1.

    With a zero second slope the origin is absorbing, so no finite growth
    rate exists; the layer-1 absorption probability is 2^-d exactly.  Each
    trial's value is 1.0 if layer 1 absorbed it and 0.0 otherwise, so the
    mean is the layer-1 fraction; the details add the fraction absorbed by
    the last layer, with its standard error.
    """
    spec = EnsembleSpec(GAUSSIAN, d, _positive_real(sigma, "sigma"))
    depth = _integer(depth, "depth")
    trials = _integer(trials, "trials", 2)
    relu = ActivationSlopes.relu()
    draw = functools.partial(draw_stack_matrices, spec)

    def group(parts: List[Part], layers: Iterator[Layer]) -> Tuple[np.ndarray, np.ndarray]:
        start = np.zeros((_rows(parts), spec.d))
        start[:, 0] = 1.0
        # an absorbed row's direction is NaN from its absorbing layer on
        _, directions = _advance(start, (next(layers),), relu)
        absorbed_layer1 = np.isnan(directions[:, 0])
        _, directions = _advance(directions, layers, relu)
        return absorbed_layer1, np.isnan(directions[:, 0])

    layer1, last = _run_blocks(group, trials, rng, n_workers, draw, _trials_last, _layer_floats(spec), depth)
    final = MCEstimate(last.astype(float))
    details = {"zero_fraction_final": final.mean, "std_error_final": final.std_error}
    return MCEstimate(layer1.astype(float), details)


def counterexample_positive_cone(
    d: int,
    a: float,
    alpha: float,
    depth: int,
    trials: int,
    rng: RngStream,
    n_workers: int = 1,
) -> MCEstimate:
    """Growth-rate gap between all-positive and all-negative starting vectors.

    Entrywise-positive weights preserve both sign cones, so the chain picks
    up the first slope on one cone and the second on the other; the two
    runs use independent stacks.  Each trial's value is its gap, the
    positive run's rate minus the negative run's; the details add each
    cone's own rate with its standard error.
    """
    d = _width(d)
    alpha = _finite_real(alpha, "alpha", "slope in (0, 1)", lambda v: 0.0 < v < 1.0)
    a = _positive_real(a, "a")
    depth = _integer(depth, "depth")
    trials = _integer(trials, "trials", 2)
    slopes = ActivationSlopes.leaky_relu(alpha)

    def draw(count: int, gen: np.random.Generator) -> np.ndarray:
        return gen.uniform(0.0, a, size=(count, d, d))

    def group(parts: List[Part], layers: Iterator[Layer]) -> Tuple[np.ndarray, np.ndarray]:
        start = np.full((_rows(parts), d), 1.0 / math.sqrt(d))
        pos = _advance(start, itertools.islice(layers, depth), slopes)[0]
        return pos / depth, _advance(-start, layers, slopes)[0] / depth

    # one stream of 2 * depth layers: the positive cone's, then the negative's
    pos_rates, neg_rates = _run_blocks(group, trials, rng, n_workers, draw, _trials_last, d * d, 2 * depth)
    pos, neg = MCEstimate(pos_rates), MCEstimate(neg_rates)
    return MCEstimate(pos_rates - neg_rates, {
        "limit_pos": pos.mean,
        "limit_pos_std_error": pos.std_error,
        "limit_neg": neg.mean,
        "limit_neg_std_error": neg.std_error,
    })
