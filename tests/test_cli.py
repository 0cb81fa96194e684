"""Command-line behavior: outputs, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lyapinit import analytic, cli, dynamics, initgen, jsonio, quad
from lyapinit.analytic import EnsembleSpec, lyapunov_gaussian
from lyapinit.ensembles import RngStream
from lyapinit.initgen import InputDistribution
from lyapinit.errors import AccuracyError
from lyapinit.quad import ActivationSlopes, activation_log_norm


# Library calls with the arguments of ``simulate --d 2 --alpha 0.5 --scale 1.5
# --depth 6 --trials 1000``, one per experiment whose result is an estimate.
SPEC = EnsembleSpec("gaussian", 2, 1.5)
HALF = ActivationSlopes.leaky_relu(0.5)
LIBRARY_RUNS = {
    "single-step": lambda rng: dynamics.estimate_lambda_single_step(SPEC, HALF, 1000, rng),
    "lln": lambda rng: dynamics.estimate_lambda_deep(SPEC, HALF, 6, 1000, rng),
    "clt": lambda rng: dynamics.estimate_clt(SPEC, HALF, 6, 1000, analytic.lyapunov(SPEC, 0.5), rng),
    "stationarity": lambda rng: dynamics.stationarity_check(SPEC, HALF, 6, 1000, rng),
    "relu-zero": lambda rng: dynamics.counterexample_relu(2, 1.5, 6, 1000, rng),
    "positive-cone": lambda rng: dynamics.counterexample_positive_cone(2, 1.5, 0.5, 6, 1000, rng),
}


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExponent:
    def test_gaussian_he_scale(self, capsys):
        code, out, _ = run(capsys, [
            "exponent", "--d", "2", "--alpha", "0.1",
            "--ensemble", "gaussian", "--scale", "0.9950372",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["lyapunov_exponent"] == pytest.approx(-0.8215742, abs=1e-5)

    def test_orthogonal_unscaled(self, capsys):
        code, out, _ = run(capsys, [
            "exponent", "--d", "2", "--alpha", "0.1",
            "--ensemble", "orthogonal", "--scale", "1",
        ])
        assert code == 0
        assert json.loads(out)["lyapunov_exponent"] == pytest.approx(-0.8745648, abs=1e-5)

    def test_critical_scale_gives_zero(self, capsys):
        code, out, _ = run(capsys, [
            "exponent", "--d", "2", "--alpha", "0.1",
            "--ensemble", "gaussian", "--scale", "2.262791019666658",
        ])
        assert code == 0
        assert json.loads(out)["lyapunov_exponent"] == pytest.approx(0.0, abs=1e-9)

    def test_bad_flag_exits_one(self, capsys):
        code, _, err = run(capsys, [
            "exponent", "--d", "2", "--alpha", "0.1", "--ensemble", "cauchy", "--scale", "1",
        ])
        assert code == 1
        assert "error" in err

    def test_zero_alpha_exits_one(self, capsys):
        code, _, _ = run(capsys, [
            "exponent", "--d", "2", "--alpha", "0", "--ensemble", "gaussian", "--scale", "1",
        ])
        assert code == 1


class TestTable:
    def test_reference_row_d10(self, capsys):
        code, out, _ = run(capsys, ["table", "--alpha", "0.1", "--dims", "10", "--format", "csv"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        expected = ["10", "0.6651223", "1.0996324", "-0.1445718", "-0.4345101",
                    "0.4449942", "0.5142106", "1.5442064"]
        assert row == expected

    def test_reference_cell_alpha_001(self, capsys):
        code, out, _ = run(capsys, ["table", "--alpha", "0.01", "--dims", "1", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["activation_log_norm"] == pytest.approx(-2.9377665, abs=1e-6)

    def test_reference_cell_alpha_0001(self, capsys):
        code, out, _ = run(capsys, ["table", "--alpha", "0.001", "--dims", "1024", "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"][0]["critical_eta"] == pytest.approx(1.4152515, abs=1e-6)

    def test_default_dims_are_the_reference_list(self, capsys):
        code, out, _ = run(capsys, ["table", "--alpha", "0.5", "--dims", "1", "2", "--format", "md"])
        assert code == 0
        assert out.startswith("| d |")
        assert cli.DEFAULT_TABLE_DIMS[0] == 1 and cli.DEFAULT_TABLE_DIMS[-1] == 1024
        assert len(cli.DEFAULT_TABLE_DIMS) == 35

    def test_row_identities_hold(self, capsys):
        code, out, _ = run(capsys, ["table", "--alpha", "0.3", "--dims", "6", "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["he_lyapunov"] == pytest.approx(
            math.log(row["he_sigma"]) + row["activation_log_norm"], abs=1e-9
        )
        assert row["critical_eta"] == pytest.approx(
            math.exp(row["linear_log_norm"] - row["activation_log_norm"]), abs=1e-9
        )

    @pytest.mark.parametrize("fmt", ["csv", "md"])
    @pytest.mark.parametrize("alpha, d, cells", [
        # critical scales far below 1e-7 once printed as 0.0
        ("1e100", 1, {"he_sigma": "1.414214e-100", "critical_sigma": "1.887365e-50",
                      "critical_eta": "1e-50"}),
        ("1e100", 3, {"he_sigma": "8.164966e-101", "critical_sigma": "3.58423e-88"}),
        # a slope next to 1 once printed its orthogonal exponent as -0.0
        ("0.999999999", 1, {"orthogonal_lyapunov": "-5.000002e-10", "critical_eta": "1.0"}),
    ])
    def test_tiny_nonzero_cells_keep_significant_digits(self, capsys, fmt, alpha, d, cells):
        code, out, _ = run(capsys, ["table", "--alpha", alpha, "--dims", str(d), "--format", fmt])
        assert code == 0
        lines = out.strip().splitlines()
        if fmt == "csv":
            header, row = (line.split(",") for line in (lines[0], lines[1]))
        else:
            header, row = (line.strip("| ").split(" | ") for line in (lines[0], lines[2]))
        got = dict(zip(header, row))
        assert {name: got[name] for name in cells} == cells

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run(capsys, [
            "table", "--alpha", "0.1", "--dims", "2", "--format", "csv", "--out", str(target),
        ])
        assert code == 0
        assert target.read_text().splitlines()[1].startswith("2,")


class TestSimulate:
    def test_lln_record_schema_and_determinism(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)  # two groups on the pool at 3
        argv = [
            "simulate", "--experiment", "lln", "--d", "2", "--alpha", "0.1",
            "--ensemble", "gaussian", "--scale", "crit", "--depth", "50",
            "--trials", "100", "--seed", "77", "--workers", "1",
        ]
        code, out1, _ = run(capsys, argv)
        assert code == 0
        code, out2, _ = run(capsys, argv + ["--workers", "3"])
        assert code == 0
        assert out1 == out2  # worker count must not touch the record
        record = json.loads(out1)
        assert set(record) == {"experiment", "params", "mean", "std_error", "trials", "seed", "details"}
        assert record["seed"] == {"master": 77, "stream": 0}
        assert abs(record["mean"]) < 0.2

    def test_workers_default_to_the_usable_cpus(self, monkeypatch):
        assert cli.build_parser().parse_args(["simulate", "--experiment", "lln"]).workers == (
            dynamics._usable_cpus()
        )
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 3)
        assert cli.build_parser().parse_args(["simulate", "--experiment", "lln"]).workers == 3

    def test_missing_seed_is_drawn_and_recorded(self, capsys):
        argv = [
            "simulate", "--experiment", "single-step", "--d", "2", "--alpha", "0.1",
            "--scale", "1", "--trials", "200",
        ]
        code, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code == 0 and code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert isinstance(a["seed"]["master"], int)
        assert a["seed"] != b["seed"]

    def test_per_trial_csv(self, capsys, tmp_path):
        target = tmp_path / "vals.csv"
        code, _, _ = run(capsys, [
            "simulate", "--experiment", "lln", "--depth", "10", "--trials", "64",
            "--seed", "5", "--per-trial-csv", str(target),
        ])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 65

    def test_stationarity_csv_holds_each_trials_mean_coordinate(self, capsys, tmp_path):
        target = tmp_path / "directions.csv"
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "stationarity", "--d", "3", "--scale", "1",
            "--depth", "2", "--trials", "100", "--seed", "5", "--per-trial-csv", str(target),
        ])
        assert code == 0
        header, *lines = target.read_text().splitlines()
        assert header == "value"
        est = dynamics.stationarity_check(
            EnsembleSpec("gaussian", 3, 1.0), ActivationSlopes.leaky_relu(0.1), 2, 100, RngStream(5)
        )
        assert [float(v) for v in lines] == est.per_trial_values.tolist()
        assert json.loads(out)["mean"] == est.mean

    def test_clt_csv_of_normalized_samples(self, capsys, tmp_path):
        target = tmp_path / "clt.csv"
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "clt", "--d", "2", "--alpha", "0.1",
            "--scale", "crit", "--depth", "16", "--trials", "1000",
            "--seed", "6", "--per-trial-csv", str(target),
        ])
        assert code == 0
        record = json.loads(out)
        assert record["details"]["gamma_hat"] > 0
        assert len(target.read_text().strip().splitlines()) == 1001

    @pytest.mark.parametrize("ensemble", ["gaussian", "orthogonal"])
    @pytest.mark.parametrize("d, alpha", [(1, "0.5"), (2, "0.1"), (3, "0.01"), (4, "-0.3"), (8, "2")])
    def test_clt_exponent_at_the_critical_scale_is_exactly_zero(self, capsys, ensemble, d, alpha):
        # the closed form at the rounded critical scale is off by an ulp in
        # several of these cells (gaussian, d = 2, alpha = 0.1 among them)
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "clt", "--d", str(d), "--alpha", alpha,
            "--ensemble", ensemble, "--scale", "crit", "--depth", "2", "--trials", "1000",
            "--seed", "3",
        ])
        assert code == 0
        assert json.loads(out)["details"]["lambda"] == 0.0

    def test_clt_exponent_at_a_numeric_scale_is_the_closed_form(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "clt", "--d", "2", "--alpha", "0.1",
            "--scale", "1.5", "--depth", "2", "--trials", "1000", "--seed", "3",
        ])
        assert code == 0
        assert json.loads(out)["details"]["lambda"] == lyapunov_gaussian(2, 0.1, 1.5)

    def test_relu_zero_fraction(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "relu-zero", "--d", "2", "--scale", "1",
            "--depth", "5", "--trials", "20000", "--seed", "9",
        ])
        assert code == 0
        record = json.loads(out)
        assert record["mean"] == pytest.approx(0.25, abs=0.01)

    def test_stationarity_details(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "stationarity", "--d", "3", "--alpha", "1.0",
            "--scale", "1", "--depth", "2", "--trials", "20000", "--seed", "10",
        ])
        assert code == 0
        details = json.loads(out)["details"]
        # equal slopes keep the uniform direction law, so moments sit at it
        mean, second = np.asarray(details["mean_vector"]), np.asarray(details["second_moment"])
        assert np.max(np.abs(mean)) < 0.02
        assert np.max(np.abs(second - np.eye(3) / 3)) < 0.02
        assert second.shape == (3, 3)

    def test_positive_cone_gap(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "positive-cone", "--d", "2", "--alpha", "0.5",
            "--scale", "1", "--depth", "100", "--trials", "100", "--seed", "11",
        ])
        assert code == 0
        record = json.loads(out)
        assert record["mean"] == pytest.approx(math.log(2.0), abs=0.05)

    @pytest.mark.parametrize("experiment", ["relu-zero", "positive-cone"])
    def test_counterexample_csv_holds_the_library_per_trial_values(self, capsys, tmp_path, experiment):
        target = tmp_path / "vals.csv"
        code, out, _ = run(capsys, [
            "simulate", "--experiment", experiment, "--d", "2", "--alpha", "0.5",
            "--scale", "1.5", "--depth", "6", "--trials", "1000", "--seed", "41", "--stream", "3",
            "--per-trial-csv", str(target),
        ])
        assert code == 0
        header, *lines = target.read_text().splitlines()
        assert header == "value"
        values = np.array([float(v) for v in lines])
        est = LIBRARY_RUNS[experiment](RngStream(41, 3))
        assert len(values) == 1000
        assert np.array_equal(values, est.per_trial_values)
        assert values.mean() == json.loads(out)["mean"]

    @pytest.mark.parametrize("experiment", list(LIBRARY_RUNS))
    def test_record_is_the_library_estimate(self, capsys, experiment):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", experiment, "--d", "2", "--alpha", "0.5",
            "--scale", "1.5", "--depth", "6", "--trials", "1000", "--seed", "41", "--stream", "3",
        ])
        assert code == 0
        record = json.loads(out)
        est = LIBRARY_RUNS[experiment](RngStream(41, 3))
        assert record["mean"] == est.mean and record["std_error"] == est.std_error
        assert record["trials"] == est.trials
        assert record["details"] == json.loads(jsonio.dumps(est.details))
        # details hold only what the rest of the record does not
        assert record["params"]["scale_value"] == 1.5
        assert not set(record["details"]) & (set(record["params"]) | set(record))

    def test_inconsistent_flags_exit_one(self, capsys):
        code, _, err = run(capsys, [
            "simulate", "--experiment", "relu-zero", "--ensemble", "orthogonal",
            "--scale", "1", "--trials", "100", "--seed", "1",
        ])
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("flags, message", [
        (["--experiment", "lln", "--scale", "abc"], "--scale must be a number, 'crit', or 'he', got 'abc'"),
        (["--experiment", "relu-zero", "--scale", "crit"], "relu-zero needs a numeric --scale (sigma)"),
        (["--experiment", "positive-cone", "--ensemble", "orthogonal", "--scale", "1"],
         "positive-cone draws Uniform[0, a] weights; drop --ensemble orthogonal"),
    ], ids=["non-numeric-scale", "relu-zero-crit", "positive-cone-orthogonal"])
    def test_scale_and_ensemble_errors_exit_one(self, capsys, flags, message):
        code, out, err = run(capsys, ["simulate", *flags, "--depth", "3", "--trials", "10", "--seed", "1"])
        assert (code, out) == (1, "")
        assert message in err

    def test_he_scale_resolves_he_sigma(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "lln", "--d", "4", "--alpha", "0.1", "--scale", "he",
            "--depth", "20", "--trials", "1000", "--seed", "3", "--workers", "1",
        ])
        assert code == 0
        record = json.loads(out)
        sigma = analytic.he_sigma(4, 0.1)
        assert record["params"]["scale_value"] == sigma
        assert abs(record["mean"] - lyapunov_gaussian(4, 0.1, sigma)) < 5 * record["std_error"]

    def test_he_scale_for_orthogonal_exits_one(self, capsys):
        code, _, _ = run(capsys, [
            "simulate", "--experiment", "lln", "--ensemble", "orthogonal",
            "--scale", "he", "--depth", "5", "--trials", "10", "--seed", "1",
        ])
        assert code == 1


class TestInit:
    def test_plain_init_writes_reference_scale(self, capsys, tmp_path):
        target = tmp_path / "stack.json"
        code, _, _ = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "40",
            "--kind", "gaussian", "--seed", "3", "--out", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["ensemble"]["scale"] == pytest.approx(2.262791, abs=1e-5)
        assert len(payload["matrices"]) == 40
        assert len(payload["matrices"][0]) == 4

    def test_missing_seed_is_drawn_and_recorded(self, capsys):
        argv = ["init", "--d", "2", "--alpha", "0.1", "--depth", "3", "--kind", "gaussian"]
        code, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code == 0 and code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert isinstance(a["seed"]["master"], int)
        assert a["seed"] != b["seed"]

    def test_sampled_init_diagnostics(self, capsys, tmp_path):
        target = tmp_path / "stack.json"
        code, _, _ = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "40",
            "--kind", "orthogonal", "--sampled", "--seed", "4", "--out", str(target),
        ])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["diagnostics"]["candidate_count"] == 13

    def test_replay_is_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["init", "--d", "3", "--alpha", "0.01", "--depth", "12", "--kind", "gaussian", "--seed", "8"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "4",
            "--kind", "gaussian", "--seed", "1",
            "--out", str(tmp_path / "missing_dir" / "stack.json"),
        ])
        assert code == 3
        assert "i/o error" in err

    def test_box_input_dist_parses(self, capsys):
        code, out, _ = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", "box:-1:1", "--candidates", "3",
            "--probe-inputs", "32", "--seed", "12",
        ])
        assert code == 0
        assert json.loads(out)["diagnostics"]["candidate_count"] == 3

    @pytest.mark.parametrize("text", [
        "[[1.0, 2.0], [3.0", "[[1.0, 2.0], [3.0]]", '[["a", "b"]]',
        pytest.param('[["1.5", "2"]]', id="numeric-text"), pytest.param(f"[[{10**400}, 1]]", id="past-float"),
    ])
    def test_malformed_input_file_exits_one(self, capsys, tmp_path, text):
        path = tmp_path / "probes.json"
        path.write_text(text)
        code, out, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", f"file:{path}", "--seed", "12",
        ])
        assert (code, out) == (1, "")
        assert err.startswith("lyapinit: usage error: ") and err.count("\n") == 1

    def test_missing_input_file_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", f"file:{tmp_path / 'absent.json'}", "--seed", "12",
        ])
        assert code == 3
        assert "i/o error" in err

    @pytest.mark.parametrize("flags", [
        ["--candidates", "5"], ["--probe-inputs", "7"], ["--input-dist", "box:0:1"], ["--linear-metric"],
    ])
    def test_search_flag_without_sampled_exits_one(self, capsys, tmp_path, monkeypatch, flags):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a stack")

        monkeypatch.setattr(initgen, "lyapunov_init", no_draw)
        target = tmp_path / "stack.json"
        code, out, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "3", "--kind", "gaussian",
            "--seed", "1", "--out", str(target), *flags,
        ])
        assert (code, out) == (1, "")
        assert f"{flags[0]} applies to --sampled only" in err
        assert not target.exists()

    def test_linear_metric_reaches_the_candidate_search(self, capsys):
        code, out, _ = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--linear-metric", "--candidates", "3", "--probe-inputs", "8", "--seed", "12",
        ])
        assert code == 0
        _, diagnostics = initgen.sampled_lyapunov_init(
            2, 9, 0.1, "gaussian", RngStream(12), candidate_count=3, probe_inputs=8, linear_metric=True
        )
        assert json.loads(out)["diagnostics"] == json.loads(jsonio.dumps(diagnostics.as_dict()))

    @pytest.mark.parametrize("token, law", [
        ("sphere", lambda path: InputDistribution.uniform_sphere(2)),
        ("file:{path}", lambda path: InputDistribution.fixed_set([[1.0, 2.0], [-3.0, 0.5]])),
    ], ids=["sphere", "file"])
    def test_input_dist_reaches_the_candidate_search(self, capsys, tmp_path, token, law):
        path = tmp_path / "probes.json"
        path.write_text("[[1.0, 2.0], [-3.0, 0.5]]")
        code, out, _ = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian", "--sampled",
            "--input-dist", token.format(path=path), "--candidates", "3", "--probe-inputs", "8", "--seed", "12",
        ])
        assert code == 0
        _, diagnostics = initgen.sampled_lyapunov_init(
            2, 9, 0.1, "gaussian", RngStream(12), input_dist=law(path), candidate_count=3, probe_inputs=8
        )
        assert json.loads(out)["diagnostics"] == json.loads(jsonio.dumps(diagnostics.as_dict()))

    @pytest.mark.parametrize("token, message", [
        ("box:1", "--input-dist box takes the form box:LOW:HIGH"),
        ("box:a:b", "box bounds must be numbers"),
    ])
    def test_malformed_box_exits_one(self, capsys, token, message):
        code, out, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", token, "--seed", "12",
        ])
        assert (code, out) == (1, "")
        assert message in err

    def test_bad_input_dist_exits_one(self, capsys):
        code, _, _ = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", "pyramid", "--seed", "12",
        ])
        assert code == 1


# SHA-256 of the stdout of small fixed-seed runs, recorded with numpy 2.4.6
# and scipy 1.17.1 on x86-64.  A refactor of the chain, the samplers or the
# reductions must keep every one; other numpy builds may round differently.
GOLDEN_DIGESTS = {
    "clt": (
        ["simulate", "--experiment", "clt", "--d", "2", "--alpha", "0.1",
         "--depth", "16", "--trials", "1000", "--seed", "21"],
        "49a799c280c9fb28cae6df709374fee9e8ea0e61a7fc01f07d984f496db8792f",
    ),
    "lln-gaussian": (
        ["simulate", "--experiment", "lln", "--d", "2", "--alpha", "0.1",
         "--depth", "20", "--trials", "200", "--seed", "22", "--workers", "2"],
        "aca29a59f7e347ba37197e98dd676860018a60431fca2121f30320debe7cdca3",
    ),
    "lln-orthogonal": (
        ["simulate", "--experiment", "lln", "--d", "4", "--alpha", "0.1",
         "--ensemble", "orthogonal", "--depth", "20", "--trials", "200",
         "--seed", "23", "--workers", "2"],
        "4e8fdc1c2776cbf7980e706601930ada334b5c6c1f8eb74f7adcf0a00623ffa9",
    ),
    "single-step": (
        ["simulate", "--experiment", "single-step", "--d", "3", "--alpha", "0.1",
         "--scale", "1", "--trials", "500", "--seed", "24"],
        "19e151c1196650ff898a808ff922e743f6f3ba73f352c9bc8ad413dc587b5c84",
    ),
    "stationarity": (
        ["simulate", "--experiment", "stationarity", "--d", "3", "--alpha", "0.1",
         "--scale", "1", "--depth", "3", "--trials", "500", "--seed", "25"],
        "de56e26746036f48d00bad611a7c4c930a951e79302de8af4577ab93d4231586",
    ),
    "relu-zero-d1": (
        ["simulate", "--experiment", "relu-zero", "--d", "1", "--scale", "1",
         "--depth", "6", "--trials", "500", "--seed", "26"],
        "c2a1c198a1e31627bfddc4488d1dcd8c87209d0af5a96af6bec375b42c34e50d",
    ),
    "relu-zero-d2": (
        ["simulate", "--experiment", "relu-zero", "--d", "2", "--scale", "1",
         "--depth", "6", "--trials", "500", "--seed", "27"],
        "98ae3709d95341919926d8827127aa247585b36cd7543eb1e1ca42a8f21d6791",
    ),
    "positive-cone": (
        ["simulate", "--experiment", "positive-cone", "--d", "2", "--alpha", "0.5",
         "--scale", "1", "--depth", "20", "--trials", "100", "--seed", "28"],
        "c82d8e8f0d8495f938a92ae68c7bed0c97c1dfedc74b7adc0c5682667ad293c6",
    ),
    "init": (
        ["init", "--d", "3", "--alpha", "0.1", "--depth", "5", "--kind", "gaussian",
         "--seed", "29"],
        "be5f83f5f4afefa75323f152668ccae2f58e8df797e93afaa1622273cdc31b41",
    ),
    "init-sampled-sphere": (
        ["init", "--d", "3", "--alpha", "0.1", "--depth", "9", "--kind", "orthogonal",
         "--sampled", "--probe-inputs", "32", "--seed", "30"],
        "45c11c3e7ccf58864d87d826d30cb18fbc083b7f4ddc332a6cd3ef1489521abd",
    ),
    "init-sampled-box": (
        ["init", "--d", "3", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
         "--sampled", "--input-dist", "box:-1:1", "--probe-inputs", "32", "--seed", "31"],
        "a009152dddc94f39d5913c7e76375296b391354f039a5da727ac1170553a3138",
    ),
    "table-0.1": (
        ["table", "--alpha", "0.1", "--format", "json"],
        "5b2dbc98791b555c5c3b1ad792ff12fd8c3c9c3bf55d68b515471565eed0b9e0",
    ),
    "table-0.001": (
        ["table", "--alpha", "0.001", "--format", "json"],
        "4f80474d32126428cba8096f4cffa299b7de11123d15f9e4cdc363fd7f096d08",
    ),
    "exponent-gaussian": (
        ["exponent", "--d", "64", "--alpha", "0.001", "--ensemble", "gaussian", "--scale", "1.3"],
        "d2e967579092a54d1f148da49fa6a5baea927da90ffbcc9fc641dd51473696d5",
    ),
    "exponent-orthogonal": (
        ["exponent", "--d", "64", "--alpha", "0.001", "--ensemble", "orthogonal", "--scale", "1.3"],
        "55aa04b72b61295b1a2617263ec0c607690a9cab2c479d8f9462f1af21379379",
    ),
}


def test_outputs_match_recorded_digests(capsys):
    mismatched = []
    for name, (argv, digest) in GOLDEN_DIGESTS.items():
        code, out, _ = run(capsys, argv)
        assert code == 0, name
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if got != digest:
            mismatched.append(f"{name}: {got}")
    assert not mismatched, "outputs changed bytes; new digests:\n" + "\n".join(mismatched)


class TestExitCodes:
    def test_accuracy_error_maps_to_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AccuracyError("synthetic", best_estimate=1.0, error_bound=0.5)

        monkeypatch.setattr(cli, "_table_row", boom)
        code, _, err = run(capsys, ["table", "--alpha", "0.1", "--dims", "2"])
        assert code == 2
        assert "accuracy failure" in err

    @pytest.mark.parametrize("experiment, sizes, message", [
        ("clt", ["--depth", "4", "--trials", "100"], "trials must be an integer of at least 1000"),
        ("single-step", ["--depth", "0", "--trials", "99"], "trials must be an integer of at least 100"),
        ("lln", ["--depth", "0", "--trials", "64"], "depth must be a positive integer"),
        ("stationarity", ["--depth", "0", "--trials", "64"], "steps must be a positive integer"),
        ("lln", ["--depth", "4", "--trials", "1"], "trials must be an integer of at least 2"),
        ("lln", ["--depth", "4", "--trials", "64", "--workers", "0"], "worker count must be a positive integer"),
        ("relu-zero", ["--depth", "0", "--trials", "64"], "depth must be a positive integer"),
        ("relu-zero", ["--depth", "4", "--trials", "1"], "trials must be an integer of at least 2"),
        ("relu-zero", ["--depth", "4", "--trials", "64", "--workers", "0"], "worker count must be a positive integer"),
        ("positive-cone", ["--depth", "0", "--trials", "64"], "depth must be a positive integer"),
        ("positive-cone", ["--depth", "4", "--trials", "1"], "trials must be an integer of at least 2"),
        ("positive-cone", ["--depth", "4", "--trials", "64", "--workers", "0"],
         "worker count must be a positive integer"),
    ])
    def test_size_errors_name_the_estimators_rule(self, capsys, monkeypatch, experiment, sizes, message):
        calls = []

        def counted(*args):
            calls.append(args)
            return activation_log_norm(*args)

        monkeypatch.setattr(analytic, "activation_log_norm", counted)
        numeric = experiment in ("relu-zero", "positive-cone")  # sigma or a, never a resolved scale
        argv = ["simulate", "--experiment", experiment, "--d", "2", "--alpha", "0.1",
                "--scale", "1" if numeric else "crit", *sizes, "--seed", "3"]
        code, _, err = run(capsys, argv)
        assert code == 1
        assert f"lyapinit: invalid argument: {message}" in err
        # the same run at valid sizes resolves a crit scale, and clt its exponent
        argv[argv.index("--trials") + 1] = "1000"
        argv[argv.index("--depth") + 1] = "2"
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1"
        calls.clear()
        code, _, _ = run(capsys, argv)
        assert (code, len(calls)) == (0, {"clt": 2, "relu-zero": 0, "positive-cone": 0}.get(experiment, 1))

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    @pytest.mark.parametrize("ensemble", ["gaussian", "orthogonal"])
    @pytest.mark.parametrize("experiment", ["lln", "clt"])
    def test_non_finite_monte_carlo_exits_two(self, capsys, experiment, ensemble, scale):
        # The squares of every layer output under- or overflow float64 at
        # these scales, which once ended in exit status 2 (hence the name);
        # the chain's scaled norms now give a finite, correct answer.
        code, out, err = run(capsys, [
            "simulate", "--experiment", experiment, "--d", "2", "--alpha", "0.1",
            "--ensemble", ensemble, "--scale", scale, "--depth", "20", "--trials", "1000",
            "--seed", "5",
        ])
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert math.isfinite(record["mean"]) and math.isfinite(record["std_error"])
        if experiment == "lln":
            exact = analytic.lyapunov(EnsembleSpec(ensemble, 2, float(scale)), 0.1)
            assert abs(record["mean"] - exact) < 5 * record["std_error"]
        else:
            assert math.isfinite(record["details"]["lambda"])
            assert math.isfinite(record["details"]["gamma_hat"])

    @pytest.mark.parametrize("d", ["0", "-2"])
    @pytest.mark.parametrize("experiment", ["relu-zero", "positive-cone"])
    def test_bad_width_in_counterexamples_exits_one(self, capsys, experiment, d):
        code, out, err = run(capsys, [
            "simulate", "--experiment", experiment, "--d", d, "--alpha", "0.5",
            "--scale", "1", "--depth", "3", "--trials", "10", "--seed", "1",
        ])
        assert (code, out) == (1, "")
        assert "width d must be a positive integer" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_relu_zero_refuses_a_non_finite_alpha_before_any_draw(self, capsys, tmp_path, monkeypatch, alpha):
        # relu-zero ignores alpha but records it, so a non-finite one is a
        # usage error, not a non-finite record after the whole run
        def no_run(*args, **kwargs):
            raise AssertionError("ran the Monte Carlo")

        monkeypatch.setattr(dynamics, "counterexample_relu", no_run)
        target = tmp_path / "record.json"
        code, out, err = run(capsys, [
            "simulate", "--experiment", "relu-zero", f"--alpha={alpha}", "--scale", "1", "--d", "2",
            "--trials", "10", "--depth", "2", "--seed", "1", "--out", str(target),
        ])
        assert (code, out) == (1, "")
        assert err.startswith("lyapinit: invalid argument: ") and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ["table", "--alpha", "1e-300", "--dims", "2"],
        ["table", "--alpha", "1e160"],
        ["exponent", "--d", "2", "--alpha", "1e-170", "--ensemble", "orthogonal", "--scale", "1"],
        ["exponent", "--d", "2", "--alpha", "1e-160", "--ensemble", "gaussian", "--scale", "1"],
        ["exponent", "--d", "2", "--alpha", "1e300", "--ensemble", "gaussian", "--scale", "1"],
        ["simulate", "--experiment", "lln", "--alpha", "1e-170", "--seed", "1"],
    ])
    def test_slope_outside_quadrature_range_exits_one(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert "slope magnitudes must lie in" in err

    @pytest.mark.parametrize("argv", [
        ["table", "--alpha", "0.1", "--dims", str(10**400), "--format", "csv"],
        ["exponent", "--d", str(10**400), "--alpha", "0.1", "--ensemble", "gaussian", "--scale", "1"],
        ["init", "--d", str(10**400), "--alpha", "0.1", "--depth", "1", "--kind", "gaussian", "--seed", "1"],
        ["table", "--alpha", "1e100", "--dims", str(10**120), "--format", "csv"],
        ["exponent", "--d", str(10**120), "--alpha", "1e100", "--ensemble", "gaussian", "--scale", "1"],
        ["simulate", "--experiment", "lln", "--alpha", "1e200", "--scale", "he", "--seed", "1"],
    ], ids=["table-width", "exponent-width", "init-width", "table-spread", "exponent-spread", "he-slope"])
    def test_past_the_float_range_exits_one(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("lyapinit: invalid argument: ") and err.count("\n") == 1
        assert "scale must be" not in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--experiment", "lln", "--d", str(10**20), "--scale", "1", "--depth", "1",
         "--trials", "64", "--seed", "1"],
        ["simulate", "--experiment", "single-step", "--d", str(10**20), "--scale", "1", "--depth", "1",
         "--trials", "100", "--seed", "1"],
        ["simulate", "--experiment", "relu-zero", "--d", str(10**20), "--scale", "1", "--depth", "1",
         "--trials", "64", "--seed", "1"],
        ["init", "--d", "3000000000", "--alpha", "0.1", "--depth", "1", "--kind", "gaussian", "--seed", "1"],
        ["init", "--d", "2", "--alpha", "0.1", "--depth", str(10**19), "--kind", "gaussian", "--seed", "1"],
        ["init", "--d", "2", "--alpha", "0.1", "--depth", "1", "--kind", "gaussian", "--seed", "1",
         "--sampled", "--candidates", str(10**19)],
        ["init", "--d", "2", "--alpha", "0.1", "--depth", "1", "--kind", "gaussian", "--seed", "1",
         "--sampled", "--probe-inputs", str(10**19)],
    ], ids=["lln-width", "single-step-width", "relu-zero-width", "init-width", "init-depth",
            "init-candidates", "init-probes"])
    def test_sizes_numpy_cannot_address_exit_one(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("lyapinit: invalid argument: ") and err.count("\n") == 1
        assert "numpy's array limit" in err

    def test_numeric_scale_monte_carlo_ignores_quadrature_range(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "lln", "--d", "2", "--alpha", "1e-150", "--scale", "1",
            "--depth", "5", "--trials", "64", "--seed", "1",
        ])
        assert code == 0
        assert math.isfinite(json.loads(out)["mean"])

    def test_extreme_slope_monte_carlo_is_finite(self, capsys):
        # at alpha = 1e-170 the squares of a negative row underflow to 0
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "lln", "--d", "2", "--alpha", "1e-170", "--scale", "1",
            "--depth", "5", "--trials", "64", "--seed", "1",
        ])
        assert code == 0
        assert math.isfinite(json.loads(out)["mean"])

    def test_overflowed_candidate_exits_two_and_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        # One candidate's norm estimate overflows, as at --d 1 --depth 300000:
        # the stack is fine, but its diagnostics cannot be written as JSON.
        estimates = iter([1.25, math.inf, 0.5])
        monkeypatch.setattr(initgen, "_mean_output_norm", lambda *a: next(estimates))
        target = tmp_path / "stack.json"
        code, out, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "6", "--kind", "gaussian",
            "--sampled", "--candidates", "3", "--probe-inputs", "4", "--seed", "1",
            "--out", str(target),
        ])
        assert (code, out) == (2, "")
        assert "accuracy failure" in err and ".diagnostics.per_candidate_norm_estimate[1]" in err
        assert not target.exists()

    def test_quadrature_failure_names_its_estimate_once(self, capsys, monkeypatch):
        # panels ten times too wide starve the rule at a small slope, as in test_quad
        monkeypatch.setattr(quad, "_PANEL_WIDTH", 30.0)
        monkeypatch.setattr(quad, "_CHECK_WIDTH", 45.0)
        code, out, err = run(capsys, [
            "exponent", "--d", "2", "--alpha", "0.001", "--ensemble", "gaussian", "--scale", "1",
        ])
        assert (code, out) == (2, "")
        with pytest.raises(AccuracyError) as caught:
            activation_log_norm(2, ActivationSlopes.leaky_relu(0.001))
        estimate, error = caught.value.best_estimate, caught.value.error_bound
        assert err == (
            "lyapinit: accuracy failure: quadrature missed its tolerance with panels 30.0 wide "
            f"(estimate {estimate!r}, error estimate {error!r})\n"
        )

    @pytest.mark.parametrize("estimates, message", [
        ([1.25, math.inf, 0.5],
         "the record holds a non-finite value at .diagnostics.per_candidate_norm_estimate[1]: inf"),
        ([math.nan, math.nan, math.nan], "every candidate produced a non-finite norm estimate"),
    ], ids=["record", "candidates"])
    def test_accuracy_failure_is_its_message_alone(self, capsys, monkeypatch, estimates, message):
        estimates = iter(estimates)
        monkeypatch.setattr(initgen, "_mean_output_norm", lambda *a: next(estimates))
        code, out, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "6", "--kind", "gaussian",
            "--sampled", "--candidates", "3", "--probe-inputs", "4", "--seed", "1",
        ])
        assert (code, out, err) == (2, "", f"lyapinit: accuracy failure: {message}\n")

    def test_non_finite_record_leaves_an_existing_file_as_it_was(self, capsys, monkeypatch, tmp_path):
        estimates = iter([1.25, math.nan])
        monkeypatch.setattr(initgen, "_mean_output_norm", lambda *a: next(estimates))
        target = tmp_path / "stack.json"
        target.write_text("previous run\n")
        code, _, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "6", "--kind", "gaussian",
            "--sampled", "--candidates", "2", "--seed", "1", "--out", str(target),
        ])
        assert code == 2
        assert "non-finite value at .diagnostics.per_candidate_norm_estimate[1]" in err
        assert target.read_text() == "previous run\n"

    def test_memory_error_exits_two_with_one_line(self, capsys, monkeypatch, tmp_path):
        numpy_reason = "Unable to allocate 7.45 GiB for an array with shape (1000000000,)"
        # a bare MemoryError() is how Python's own allocator raises it
        for error, reason in [(MemoryError(numpy_reason), numpy_reason), (MemoryError(), "an allocation failed")]:
            def exhausted(*args, **kwargs):
                raise error

            monkeypatch.setattr(initgen, "sampled_lyapunov_init", exhausted)
            target = tmp_path / "stack.json"
            code, out, err = run(capsys, [
                "init", "--d", "2", "--alpha", "0.1", "--depth", "6", "--kind", "gaussian",
                "--sampled", "--seed", "1", "--out", str(target),
            ])
            assert (code, out) == (2, "")
            assert err == f"lyapinit: out of memory: {reason}\n"
            assert not target.exists()

    def test_module_entry_point_writes_what_main_writes(self, capsys):
        argv = ["exponent", "--d", "3", "--alpha", "0.1", "--ensemble", "gaussian", "--scale", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "lyapinit.cli", *argv], capture_output=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")
        wide = ["exponent", "--d", str(10**400), "--alpha", "0.1", "--ensemble", "gaussian", "--scale", "1"]
        done = subprocess.run([sys.executable, "-m", "lyapinit.cli", *wide], capture_output=True, env=env)
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr.startswith(b"lyapinit: invalid argument: ") and done.stderr.count(b"\n") == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize("argv, built", [
        (["exponent", "--d", "3", "--alpha", "0.1", "--ensemble", "gaussian", "--scale", "1"], ("exponent",)),
        (["table", "--alpha", "x"], ("table",)),
        (["table", "--help"], ("table",)),
        (["simulate", "--help"], ("simulate",)),
        (["init", "--d", "2", "--alpha", "0.1", "--depth", "2", "--kind", "gaussian", "--seed", "3"], ("init",)),
        (["--help"], ()),
        (["frobnicate"], ()),
        ([], ()),
    ], ids=["exponent", "table-error", "table-help", "simulate-help", "init", "help", "unknown", "none"])
    def test_a_call_builds_only_the_subcommand_it_names(self, capsys, monkeypatch, argv, built):
        # and gives what the parser of every subcommand gives
        def outcome():
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
            return (code, *capsys.readouterr())

        full, calls = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda *commands: calls.append(commands) or full(*commands))
        got = outcome()
        monkeypatch.setattr(cli, "build_parser", lambda *commands: full())
        assert calls == [built] and got == outcome()
