"""Command-line front end.

Subcommands: ``exponent`` (closed-form report for one ensemble), ``table``
(the seven-column lookup grid over a width list), ``simulate`` (Monte Carlo
experiments), and ``init`` (weight-stack files at the critical scale).

Exit status: 0 success, 1 usage error, 2 numerical error (an accuracy
failure, a non-finite value in a record, or memory exhausted), 3
input/output error.
"""

import argparse
import json
import math
import secrets
import sys
from contextlib import nullcontext

import numpy as np

from . import analytic, dynamics, initgen, jsonio
from .analytic import GAUSSIAN, ORTHOGONAL, EnsembleSpec
from .ensembles import RngStream, weight_stack_to_dict
from .errors import AccuracyError, DomainError, _integer
from .quad import ActivationSlopes, activation_log_norm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Width list of the reference tables: 1-10, then coarser steps to 1024.
DEFAULT_TABLE_DIMS = (
    list(range(1, 11))
    + [16, 20, 30, 32, 40, 50, 60, 64, 70, 80, 90, 100]
    + [128, 200, 256, 300, 400, 500, 512, 600, 700, 800, 900, 1000, 1024]
)

TABLE_COLUMNS = (
    "d",
    "activation_log_norm",
    "linear_log_norm",
    "he_lyapunov",
    "orthogonal_lyapunov",
    "he_sigma",
    "critical_sigma",
    "critical_eta",
)

EXPERIMENTS = ("lln", "clt", "single-step", "stationarity", "relu-zero", "positive-cone")

# init's candidate-search flags, by their sampled_lyapunov_init keyword.  They
# need --sampled; one left out takes that function's default.
_SEARCH_FLAGS = {
    "candidate_count": "--candidates",
    "probe_inputs": "--probe-inputs",
    "input_dist": "--input-dist",
    "linear_metric": "--linear-metric",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the artifact contract
    # reserves 2 for numerical errors, so remap to 1.
    def error(self, message):
        raise _UsageError(message)


def _fresh_seed() -> int:
    return secrets.randbits(64)


def _table_row(d: int, alpha: float) -> dict:
    value = activation_log_norm(d, ActivationSlopes.leaky_relu(alpha))
    linear = activation_log_norm(d, ActivationSlopes.leaky_relu(1.0))
    report = analytic.LyapunovReport(GAUSSIAN, d, alpha, 1.0, value, linear)
    return {
        "d": d,
        "activation_log_norm": value,
        "linear_log_norm": linear,
        "he_lyapunov": report.he_lyapunov,
        "orthogonal_lyapunov": report.unscaled_orthogonal_lyapunov,
        "he_sigma": report.he_sigma,
        "critical_sigma": report.critical_sigma,
        "critical_eta": report.critical_eta,
    }


def _format_cell(x) -> str:
    # Seven-decimal rounding with trailing zeros dropped, the layout the
    # reference tables use.  A nonzero cell that rounds to 0 keeps seven
    # significant digits instead, so it never reads as a zero.
    if isinstance(x, int):
        return str(x)
    rounded = round(x, 7)
    if rounded == 0 and x != 0:
        return f"{x:.7g}"
    return repr(rounded)


def _output(path):
    return open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout)


def _write_text(text: str, path) -> None:
    """``text`` and a newline to stdout or to the file ``path``."""
    with _output(path) as fh:
        fh.write(text + "\n")


def _write_json(record, path) -> None:
    """``record`` as JSON and a newline to stdout or to the file ``path``.

    The record is streamed as it renders.  A NaN or infinity in it is an
    AccuracyError raised before the file is opened, so such a run neither
    creates nor truncates the file.
    """
    found = jsonio.first_non_finite(record)
    if found is not None:
        where, value = found
        raise AccuracyError(
            f"the record holds a non-finite value at {where}",
            best_estimate=value,
            error_bound=math.nan,
        )
    with _output(path) as fh:
        jsonio.dump(record, fh)
        fh.write("\n")


def _cmd_exponent(args) -> int:
    spec = EnsembleSpec(args.ensemble, args.d, args.scale)
    report = analytic.exponent_report(spec, args.alpha)
    _write_json(report.as_dict(), None)
    return EXIT_OK


def _cmd_table(args) -> int:
    dims = args.dims if args.dims else DEFAULT_TABLE_DIMS
    rows = [_table_row(d, args.alpha) for d in dims]
    if args.format == "json":
        _write_json({"alpha": args.alpha, "rows": rows}, args.out)
        return EXIT_OK
    cells = [TABLE_COLUMNS] + [[_format_cell(row[c]) for c in TABLE_COLUMNS] for row in rows]
    if args.format == "csv":
        text = "\n".join(",".join(line) for line in cells)
    else:
        lines = ["| " + " | ".join(line) + " |" for line in cells]
        lines.insert(1, "|" + "|".join(["---"] * len(TABLE_COLUMNS)) + "|")
        text = "\n".join(lines)
    _write_text(text, args.out)
    return EXIT_OK


def _resolve_scale(args) -> float:
    token = args.scale
    if token == "crit":
        return analytic._critical_scale(args.ensemble, args.d, args.alpha)
    if token == "he":
        if args.ensemble != GAUSSIAN:
            raise _UsageError("--scale he applies to the gaussian ensemble only")
        return analytic.he_sigma(args.d, args.alpha)
    try:
        return float(token)
    except ValueError:
        raise _UsageError(f"--scale must be a number, 'crit', or 'he', got {token!r}") from None


def _numeric_scale(args, name: str) -> float:
    try:
        return float(args.scale)
    except ValueError:
        raise _UsageError(f"{args.experiment} needs a numeric --scale ({name})") from None


def _check_sizes(args) -> None:
    # The estimator's own size checks, run first so that a usage error
    # costs no quadrature.
    if args.experiment != "single-step":
        _integer(args.depth, "steps" if args.experiment == "stationarity" else "depth")
    least = {"single-step": dynamics.MIN_SINGLE_STEP_TRIALS, "clt": dynamics.MIN_CLT_TRIALS}
    _integer(args.trials, "trials", least.get(args.experiment, 2))
    _integer(args.workers, "worker count")


def _cmd_simulate(args) -> int:
    if args.seed is None:
        args.seed = _fresh_seed()
    stream = RngStream(args.seed, args.stream)
    params = {
        "d": args.d,
        "alpha": args.alpha,
        "ensemble": args.ensemble,
        "scale": args.scale,
        "depth": args.depth,
        "trials": args.trials,
    }

    if args.experiment in ("lln", "clt", "single-step", "stationarity"):
        _check_sizes(args)
        slopes = ActivationSlopes.leaky_relu(args.alpha)
        scale = _resolve_scale(args)
        params["scale_value"] = scale
        spec = EnsembleSpec(args.ensemble, args.d, scale)

    if args.experiment == "single-step":
        est = dynamics.estimate_lambda_single_step(spec, slopes, args.trials, stream, args.workers)
    elif args.experiment == "lln":
        est = dynamics.estimate_lambda_deep(spec, slopes, args.depth, args.trials, stream, args.workers)
    elif args.experiment == "clt":
        lam = analytic.lyapunov(spec, args.alpha)
        if args.scale == "crit":
            # 0 by construction; the closed form gives log(exp(-I)) + I,
            # which can round an ulp away from it
            lam = 0.0
        est = dynamics.estimate_clt(spec, slopes, args.depth, args.trials, lam, stream, args.workers)
    elif args.experiment == "stationarity":
        est = dynamics.stationarity_check(spec, slopes, args.depth, args.trials, stream, args.workers)
    elif args.experiment == "relu-zero":
        if args.ensemble != GAUSSIAN:
            raise _UsageError("relu-zero runs Gaussian weights; drop --ensemble orthogonal")
        params["scale_value"] = sigma = _numeric_scale(args, "sigma")
        est = dynamics.counterexample_relu(args.d, sigma, args.depth, args.trials, stream, args.workers)
    else:  # positive-cone
        if args.ensemble != GAUSSIAN:
            raise _UsageError("positive-cone draws Uniform[0, a] weights; drop --ensemble orthogonal")
        params["scale_value"] = a = _numeric_scale(args, "a, the upper bound of the uniform entries")
        est = dynamics.counterexample_positive_cone(
            args.d, a, args.alpha, args.depth, args.trials, stream, args.workers
        )

    record = {
        "experiment": args.experiment,
        "params": params,
        "mean": est.mean,
        "std_error": est.std_error,
        "trials": est.trials,
        "seed": stream.as_dict(),
        "details": est.details,
    }
    _write_json(record, args.out)
    if args.per_trial_csv is not None:
        header = "normalized_log_norm" if args.experiment == "clt" else "value"
        np.savetxt(args.per_trial_csv, est.per_trial_values, fmt="%.17g", header=header, comments="")
    return EXIT_OK


def _parse_input_dist(token: str, d: int) -> initgen.InputDistribution:
    if token == "sphere":
        return initgen.InputDistribution.uniform_sphere(d)
    if token.startswith("box:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise _UsageError("--input-dist box takes the form box:LOW:HIGH")
        try:
            low, high = float(parts[1]), float(parts[2])
        except ValueError:
            raise _UsageError("box bounds must be numbers") from None
        return initgen.InputDistribution.uniform_box([low] * d, [high] * d)
    if token.startswith("file:"):
        try:
            with open(token[len("file:"):], encoding="utf-8") as fh:
                vectors = np.asarray(json.load(fh), dtype=np.float64)
        except (TypeError, ValueError) as exc:  # malformed JSON, ragged or non-numeric rows
            raise _UsageError(f"--input-dist file must hold a JSON list of vectors: {exc}") from None
        return initgen.InputDistribution.fixed_set(vectors)
    raise _UsageError(f"--input-dist must be sphere, box:LOW:HIGH, or file:PATH, got {token!r}")


def _cmd_init(args) -> int:
    search = {key: getattr(args, key) for key in _SEARCH_FLAGS if getattr(args, key) is not None}
    if search and not args.sampled:
        raise _UsageError(f"{_SEARCH_FLAGS[next(iter(search))]} applies to --sampled only")
    if args.seed is None:
        args.seed = _fresh_seed()
    stream = RngStream(args.seed, args.stream)
    if args.sampled:
        if "input_dist" in search:
            search["input_dist"] = _parse_input_dist(search["input_dist"], args.d)
        stack, _ = initgen.sampled_lyapunov_init(args.d, args.depth, args.alpha, args.kind, stream, **search)
    else:
        stack = initgen.lyapunov_init(args.d, args.depth, args.alpha, args.kind, stream)
    _write_json(weight_stack_to_dict(stack), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lyapinit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponent", help="closed-form exponent report for one ensemble")
    p_exp.add_argument("--d", type=int, required=True, help="network width")
    p_exp.add_argument("--alpha", type=float, required=True, help="second activation slope")
    p_exp.add_argument("--ensemble", choices=(GAUSSIAN, ORTHOGONAL), required=True)
    p_exp.add_argument("--scale", type=float, required=True, help="sigma or eta of the ensemble")
    p_exp.set_defaults(func=_cmd_exponent)

    p_table = sub.add_parser("table", help="seven-column lookup grid over a width list")
    p_table.add_argument("--alpha", type=float, required=True)
    p_table.add_argument(
        "--dims", type=int, nargs="+", default=None, help="widths (default: the reference list)"
    )
    p_table.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    p_table.add_argument("--out", default=None, help="output file (default stdout)")
    p_table.set_defaults(func=_cmd_table)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments")
    p_sim.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    p_sim.add_argument("--d", type=int, default=2)
    p_sim.add_argument("--alpha", type=float, default=0.1)
    p_sim.add_argument("--ensemble", choices=(GAUSSIAN, ORTHOGONAL), default=GAUSSIAN)
    p_sim.add_argument(
        "--scale",
        default="crit",
        help="ensemble scale: a number, 'crit', or 'he' (for relu-zero: sigma; "
        "for positive-cone: the uniform upper bound a)",
    )
    p_sim.add_argument("--depth", type=int, default=100, help="layers (steps for stationarity)")
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=None, help="64-bit master seed (default: entropy)")
    p_sim.add_argument("--stream", type=int, default=0, help="base stream id")
    p_sim.add_argument("--workers", type=int, default=1, help="threads (default 1)")
    p_sim.add_argument("--out", default=None, help="result JSON file (default stdout)")
    p_sim.add_argument("--per-trial-csv", default=None, help="also write per-trial values as CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_init = sub.add_parser("init", help="write a critical-scale weight stack")
    p_init.add_argument("--d", type=int, required=True)
    p_init.add_argument("--alpha", type=float, required=True)
    p_init.add_argument("--depth", type=int, required=True)
    p_init.add_argument("--kind", choices=(GAUSSIAN, ORTHOGONAL), required=True)
    p_init.add_argument("--sampled", action="store_true", help="pick the best of several candidates")
    p_init.add_argument(
        "--candidates", dest="candidate_count", type=int, help="candidate count (default ceil(2 sqrt(depth)))"
    )
    p_init.add_argument("--probe-inputs", type=int, help="probe inputs per candidate (default 256)")
    p_init.add_argument("--input-dist", help="sphere | box:LOW:HIGH | file:PATH (default sphere)")
    p_init.add_argument(
        "--linear-metric", action="store_true", default=None, help="score candidates by |m - 1| instead of |log m|"
    )
    p_init.add_argument("--seed", type=int, default=None)
    p_init.add_argument("--stream", type=int, default=0)
    p_init.add_argument("--out", default=None, help="weight-stack JSON file (default stdout)")
    p_init.set_defaults(func=_cmd_init)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"lyapinit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"lyapinit: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(
            f"lyapinit: accuracy failure: {exc} "
            f"(best estimate {exc.best_estimate!r}, bound {exc.error_bound!r})",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"lyapinit: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"lyapinit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
