"""The four benchmark workloads: the CLI calls of one iteration, the checks
on their outputs, and the layer counts each iteration must produce.

One iteration is a list of CLI calls made in order by one caller.  Every
call writes its output to a file through ``--out``; the checks read that
file after the timed region.  A workload's inputs depend only on the seed.
"""

import ast
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lyapinit import jsonio
from lyapinit.analytic import critical_eta
from lyapinit.ensembles import weight_stack_from_dict, weight_stack_to_dict

ALPHA = "0.1"
TABLE_TOLERANCE = 2e-7  # two units in the seventh printed decimal, as the tables are printed


@dataclass(frozen=True)
class Call:
    """One CLI call writing to ``out``; ``key`` names it within the iteration."""

    key: str
    args: list
    out: Path

    @property
    def argv(self) -> list:
        return [*self.args, "--out", str(self.out)]


class Workload:
    name = ""
    # Work per iteration behind ``trial_steps_per_s``.
    steps_per_iteration = 0
    # Exact per-iteration layer counts the traced run asserts.
    expected_counts: dict = {}

    def calls(self, seed: int, out_dir: Path, warmup: bool) -> list:
        raise NotImplementedError

    def check(self, key: str, text: str) -> list:
        """Failure messages for one call's output (empty when it passes)."""
        raise NotImplementedError


def _simulate(experiment, d, ensemble, depth, trials, workers, seed):
    return [
        "simulate", "--experiment", experiment, "--d", str(d), "--alpha", ALPHA,
        "--ensemble", ensemble, "--scale", "crit", "--depth", str(depth),
        "--trials", str(trials), "--workers", str(workers), "--seed", str(seed),
    ]


def _mean_within_five_sigma(record) -> list:
    if abs(record["mean"]) > 5.0 * record["std_error"]:
        return [f"|mean| {abs(record['mean'])!r} exceeds 5 std_error {5.0 * record['std_error']!r}"]
    return []


class McClt(Workload):
    name = "mc-clt"
    trials, depth = 32768, 256
    steps_per_iteration = trials * depth
    gamma_exact = 1.36000  # CLT variance at d=2, alpha=0.1 from the chi-square/beta split
    expected_counts = {"quad.calls": 2, "ensembles.haar_batch.matrices": 0,
                       "ensembles.haar_single.calls": 0}

    def calls(self, seed, out_dir, warmup):
        args = _simulate("clt", 2, "gaussian", self.depth, self.trials, 1, seed)
        return [Call("clt", args, out_dir / "clt.json")]

    def check(self, key, text):
        record = json.loads(text)
        failures = _mean_within_five_sigma(record)
        if record["details"]["lambda"] != 0.0:
            failures.append(f"lambda at the critical scale is {record['details']['lambda']!r}, not 0")
        gamma = record["details"]["gamma_hat"]
        limit = 5.0 * self.gamma_exact * math.sqrt(2.0 / self.trials)
        if abs(gamma - self.gamma_exact) > limit:
            failures.append(f"gamma_hat {gamma!r} is more than {limit!r} from {self.gamma_exact}")
        return failures


class McOrthW2(Workload):
    name = "mc-orth-w2"
    trials, depth = 512, 1000
    steps_per_iteration = trials * depth
    expected_counts = {"quad.calls": 2, "ensembles.haar_batch.matrices": trials * depth,
                       "ensembles.haar_single.calls": 0}

    def calls(self, seed, out_dir, warmup):
        args = _simulate("lln", 8, "orthogonal", self.depth, self.trials, 1 if warmup else 2, seed)
        return [Call("lln", args, out_dir / "lln.json")]

    def check(self, key, text):
        return _mean_within_five_sigma(json.loads(text))


class InitSampled(Workload):
    name = "init-sampled"
    d, depth = 64, 100
    # 20 candidates (the default ceil(2 sqrt(depth))) x 256 probes x 100 layers.
    steps_per_iteration = 20 * 256 * depth
    expected_counts = {"quad.calls": 2, "ensembles.haar_batch.matrices": 0,
                       "ensembles.haar_single.calls": 20 * depth}

    def calls(self, seed, out_dir, warmup):
        args = ["init", "--d", str(self.d), "--alpha", ALPHA, "--depth", str(self.depth),
                "--kind", "orthogonal", "--sampled", "--seed", str(seed)]
        return [Call("stack", args, out_dir / "stack.json")]

    def check(self, key, text):
        payload = json.loads(text)
        stack = weight_stack_from_dict(payload)
        failures = []
        if jsonio.dumps(weight_stack_to_dict(stack)) + "\n" != text:
            failures.append("stack does not round-trip through weight_stack_from_dict")
        if stack.matrices.shape != (self.depth, self.d, self.d):
            failures.append(f"stack shape {stack.matrices.shape}")
            return failures
        eta = critical_eta(self.d, float(ALPHA))
        if stack.ensemble.scale != eta:
            failures.append(f"scale {stack.ensemble.scale!r} != critical_eta {eta!r}")
        gram = stack.matrices @ stack.matrices.transpose(0, 2, 1)
        error = np.abs(gram - eta * eta * np.eye(self.d)).max(axis=(1, 2)) / (eta * eta)
        if not np.all(error <= 1e-12):
            failures.append(f"W W^T deviates from eta^2 I by {error.max()!r} (relative)")
        diag = payload["diagnostics"]
        if not diag["selected_index"] < diag["candidate_count"]:
            failures.append(f"selected_index {diag['selected_index']} out of range")
        return failures


def _reference_tables(root: Path) -> dict:
    """REFERENCE_TABLES from tests/reference_tables.py, read without importing it."""
    source = (root / "tests" / "reference_tables.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCE_TABLES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("REFERENCE_TABLES not found in tests/reference_tables.py")


class TableSweep(Workload):
    name = "table-sweep"
    # 12 per decade from 0.001 to about 0.83; holds 0.001, 0.01 and 0.1 exactly.
    alphas = [10 ** (i / 12 - 3) for i in range(36)]
    steps_per_iteration = 36 * 35 * 2
    expected_counts = {"quad.calls": 36 * 35 * 2, "ensembles.haar_batch.matrices": 0,
                       "ensembles.haar_single.calls": 0}

    def __init__(self, root: Path):
        self.reference = _reference_tables(root)
        missing = set(self.reference) - set(self.alphas)
        if missing:
            raise ValueError(f"reference alphas {sorted(missing)} are not on the sweep grid")

    def calls(self, seed, out_dir, warmup):
        # The seed fixes the order of the sweep; the work is the same for every seed.
        order = list(self.alphas)
        random.Random(seed).shuffle(order)
        return [
            Call(repr(a), ["table", "--alpha", repr(a), "--format", "json"],
                 out_dir / f"table-{i:02d}.json")
            for i, a in enumerate(order)
        ]

    def check(self, key, text):
        record = json.loads(text)
        alpha = float(key)
        failures = []
        if record["alpha"] != alpha:
            failures.append(f"alpha {record['alpha']!r} != {alpha!r}")
        rows = record["rows"]
        if len(rows) != 35:
            failures.append(f"{len(rows)} rows, expected 35")
        for row in rows:
            cells = [v for k, v in row.items() if k != "d"]
            if not all(isinstance(v, float) and math.isfinite(v) for v in cells):
                failures.append(f"non-finite cell at d={row['d']}")
            if row["critical_sigma"] != math.exp(-row["activation_log_norm"]):
                failures.append(f"critical_sigma != exp(-activation_log_norm) at d={row['d']}")
        if alpha in self.reference:
            by_d = {row["d"]: row for row in rows}
            columns = ("activation_log_norm", "linear_log_norm", "he_lyapunov",
                       "orthogonal_lyapunov", "he_sigma", "critical_sigma", "critical_eta")
            for ref in self.reference[alpha]:
                row = by_d.get(ref[0])
                if row is None:
                    failures.append(f"no row for d={ref[0]}")
                    continue
                worst = max(abs(row[c] - v) for c, v in zip(columns, ref[1:]))
                if worst > TABLE_TOLERANCE:
                    failures.append(f"alpha={alpha} d={ref[0]} off the reference by {worst!r}")
        return failures


def make(name: str, root: Path) -> Workload:
    if name == TableSweep.name:
        return TableSweep(root)
    for cls in (McClt, McOrthW2, InitSampled):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (McClt.name, McOrthW2.name, InitSampled.name, TableSweep.name)
