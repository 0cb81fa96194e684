"""lyapinit benchmark: one workload, timed end to end, or traced by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload mc-clt --seed 1 --seconds 20 --trace 0

Workloads: mc-clt, mc-orth-w2, init-sampled, table-sweep (see workloads.py;
why each was chosen is in BENCHMARK.json).

The program is imported from ``src/`` of the checkout and driven in this
process through ``lyapinit.cli.main``, one call at a time by one caller.
Each run first measures ``setup_s`` (the median time of ``import lyapinit``
in fresh interpreters), then makes one untimed warm-up iteration, then times
iterations until ``--seconds`` have passed.  Every output is checked: the
warm-up output by the workload's checks, every later one by its SHA-256,
which must equal the warm-up's.

With ``--trace 0`` the result holds the end-to-end metrics.  Their times are
scaled to a fixed machine speed: the speed gauge of speed.py is read before
the first import or iteration and after each, and each time is multiplied by
``speed.REFERENCE_S`` over the mean of the readings on either side of it.
The host's speed swings by up to half within a run, and this takes most of
the swing out; the raw times are in the detail record.  With ``--trace 1``
the timed iterations alternate between untraced and traced, their times are
raw, and the result holds the per-layer metrics of the traced ones.

The last line of standard output is the result as JSON; the line before it
is a detail record with the samples, digests, check results and provenance.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
MODULES = ("quad", "analytic", "ensembles", "dynamics", "initgen", "jsonio", "cli")
SETUP_SAMPLES = 3
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import lyapinit; t = time.perf_counter() - t; print(t, lyapinit.__file__)"
)


def _fresh_imports(*flags, gauge=None) -> list:
    """``import lyapinit`` in SETUP_SAMPLES fresh interpreters: (seconds, stderr) of each.

    With a ``gauge``, it is read before the first import and after each.
    """
    samples = []
    if gauge is not None:
        gauge.read()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", *flags, "-c", IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported lyapinit from {path}, not from {SRC}")
        samples.append((float(seconds), proc.stderr))
        if gauge is not None:
            gauge.read()
    return samples


def _cumulative_import_s(report: str, module: str) -> float:
    for line in report.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    raise LookupError(f"{module} missing from -X importtime output")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lyapinit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(lyapinit) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lyapinit": getattr(lyapinit, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "trial_block": getattr(lyapinit.dynamics, "TRIAL_BLOCK", None),
    }


class Runner:
    """Makes the CLI calls of a workload and keeps the record of every operation."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.ops = []  # (key, problem or None), one per CLI call
        self.baseline = {}  # key -> (digest, path) of the warm-up output, None if it failed

    def iteration(self, out_dir: Path, warmup: bool = False) -> float:
        """Make one iteration's calls and return their wall time."""
        calls = self.workload.calls(self.seed, out_dir, warmup)
        status = []
        # Each call of the CLI normally gets a fresh process: start every
        # iteration without the garbage of the one before.
        gc.collect()
        start = time.perf_counter()
        for call in calls:
            try:
                # Looked up on every call so that the tracer's wrapper is seen.
                rc = self.cli.main(call.argv)
                status.append(None if rc == 0 else f"exit status {rc}")
            except Exception as exc:  # any raise is a failed operation, not a crash
                traceback.print_exc()
                status.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        for call, problem in zip(calls, status):
            digest = None if problem else _digest(call.out)
            if warmup:
                self.baseline[call.key] = (digest, call.out) if digest else None
            elif digest and self.baseline.get(call.key) and digest != self.baseline[call.key][0]:
                problem = "output bytes differ from the warm-up's"
            self.ops.append((call.key, problem))
        return elapsed

    def failures(self) -> list:
        """One message per failed operation.

        The workload's checks run on the warm-up outputs; every later output
        of a key has the same bytes or has failed already, so a failed check
        counts against each operation of that key.
        """
        bad = {}
        for key, entry in self.baseline.items():
            if entry is None:
                bad[key] = "the warm-up call failed"
                continue
            try:
                problems = self.workload.check(key, entry[1].read_text(encoding="utf-8"))
            except Exception as exc:
                traceback.print_exc()
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                bad[key] = "; ".join(problems)
        return [f"{key}: {problem or bad[key]}" for key, problem in self.ops
                if problem or key in bad]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "lyapinit" / "__init__.py").is_file():
        print(f"bench: no lyapinit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lyapinit
    from lyapinit import cli

    if not Path(lyapinit.__file__).resolve().is_relative_to(SRC):
        print(f"bench: lyapinit imported from {lyapinit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, ROOT)
    modules = {name: getattr(lyapinit, name) for name in MODULES}

    if args.trace:
        reports = [stderr for _, stderr in _fresh_imports("-X", "importtime")]
        setup = {f"setup.{name}_s": statistics.median(
                     _cumulative_import_s(r, f"lyapinit.{name}") for r in reports)
                 for name in ("quad", "dynamics")}
    else:
        gauge = speed.Gauge()
        setup_samples = [seconds for seconds, _ in _fresh_imports(gauge=gauge)]
        setup_readings, gauge.readings = gauge.readings, []

    run_dir = SCRATCH / f"{args.workload}-{os.getpid()}"
    warm_dir, timed_dir = run_dir / "warmup", run_dir / "timed"
    warm_dir.mkdir(parents=True, exist_ok=True)
    timed_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    try:
        runner = Runner(cli, workload, args.seed)
        runner.iteration(warm_dir, warmup=True)
        # A user's process makes one CLI call: its peak is the warm-up's.  Later
        # iterations in this process can only raise it, by how the allocator
        # reuses what earlier ones freed, which depends on the seed.
        peak_rss_mb = _peak_rss_mb()
        if args.trace:
            tracer.install(modules)
        else:
            gauge.read()
        walls, traced_walls, layer_samples = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(runner.iteration(timed_dir))
            if args.trace:
                tracer.recording = True
                try:
                    traced_walls.append(runner.iteration(timed_dir))
                finally:
                    tracer.recording = False
                layer_samples.append(tracing.layer_metrics(tracer.take()))
            else:
                gauge.read()
        failures = runner.failures()
    finally:
        tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_sample_count": len(walls),
        "wall_samples_s": walls,
        "fail_ratio": len(failures) / len(runner.ops),
        "peak_rss_mb_whole_run": _peak_rss_mb(),
        "digests": {key: entry[0] if entry else None for key, entry in runner.baseline.items()},
        "failures": failures[:20],
        "provenance": _provenance(lyapinit),
    }
    if args.trace:
        kind = "per_layer"
        metrics, unstable = tracing.combine(layer_samples)
        metrics.update(setup)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        mismatched = {name: {"expected": want, "measured": metrics[name]}
                      for name, want in workload.expected_counts.items() if metrics[name] != want}
        detail.update(traced_wall_samples_s=traced_walls, count_mismatches=mismatched,
                      unrepeated_counts=unstable)
        correct = not failures and not mismatched and not unstable
    else:
        kind = "end_to_end"
        setup_scaled = speed.scaled(setup_samples, setup_readings)
        walls_scaled = speed.scaled(walls, gauge.readings)
        wall_s = statistics.median(walls_scaled)
        detail.update(setup_samples_s=setup_samples, setup_gauge_s=setup_readings,
                      setup_scaled_s=setup_scaled, wall_gauge_s=gauge.readings,
                      wall_scaled_s=walls_scaled,
                      raw_medians_s={"setup": statistics.median(setup_samples),
                                     "wall": statistics.median(walls)})
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": wall_s,
            "trial_steps_per_s": workload.steps_per_iteration / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        correct = not failures

    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(declared) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(declared)}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
