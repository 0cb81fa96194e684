"""Command-line behavior: outputs, determinism, exit codes."""

import hashlib
import json
import math

import pytest

from lyapinit import analytic, cli, dynamics
from lyapinit.analytic import EnsembleSpec, lyapunov_gaussian
from lyapinit.ensembles import RngStream
from lyapinit.errors import AccuracyError
from lyapinit.quad import ActivationSlopes


# Library calls with the arguments of ``simulate --d 2 --alpha 0.5 --scale 1.5
# --depth 6 --trials 1000``, one per experiment whose result is an estimate.
SPEC = EnsembleSpec("gaussian", 2, 1.5)
HALF = ActivationSlopes.leaky_relu(0.5)
LIBRARY_RUNS = {
    "single-step": lambda rng: dynamics.estimate_lambda_single_step(SPEC, HALF, 1000, rng),
    "lln": lambda rng: dynamics.estimate_lambda_deep(SPEC, HALF, 6, 1000, rng),
    "clt": lambda rng: dynamics.estimate_clt(SPEC, HALF, 6, 1000, analytic.lyapunov(SPEC, 0.5), rng),
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

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run(capsys, [
            "table", "--alpha", "0.1", "--dims", "2", "--format", "csv", "--out", str(target),
        ])
        assert code == 0
        assert target.read_text().splitlines()[1].startswith("2,")


class TestSimulate:
    def test_lln_record_schema_and_determinism(self, capsys, tmp_path):
        argv = [
            "simulate", "--experiment", "lln", "--d", "2", "--alpha", "0.1",
            "--ensemble", "gaussian", "--scale", "crit", "--depth", "50",
            "--trials", "100", "--seed", "77",
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
        assert record["details"]["zero_fraction_layer1"] == pytest.approx(0.25, abs=0.01)

    def test_stationarity_details(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "stationarity", "--d", "3", "--alpha", "1.0",
            "--scale", "1", "--depth", "2", "--trials", "20000", "--seed", "10",
        ])
        assert code == 0
        details = json.loads(out)["details"]
        # equal slopes keep the uniform direction law, so moments sit at it
        assert details["max_mean_deviation"] < 0.02
        assert details["max_isotropy_deviation"] < 0.02
        assert len(details["second_moment"]) == 3

    def test_positive_cone_gap(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--experiment", "positive-cone", "--d", "2", "--alpha", "0.5",
            "--scale", "1", "--depth", "100", "--trials", "100", "--seed", "11",
        ])
        assert code == 0
        record = json.loads(out)
        assert record["mean"] == pytest.approx(math.log(2.0), abs=0.05)

    @pytest.mark.parametrize("experiment", ["stationarity", "relu-zero", "positive-cone"])
    def test_per_trial_csv_without_per_trial_values_fails_before_the_run(
        self, capsys, tmp_path, experiment
    ):
        target = tmp_path / "vals.csv"
        code, out, err = run(capsys, [
            "simulate", "--experiment", experiment, "--d", "2", "--alpha", "0.5", "--scale", "1",
            "--depth", "3", "--trials", "100", "--seed", "1", "--per-trial-csv", str(target),
        ])
        assert (code, out) == (1, "")
        assert "has no per-trial values" in err
        assert not target.exists()

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
        assert record["details"] == est.details

    def test_inconsistent_flags_exit_one(self, capsys):
        code, _, err = run(capsys, [
            "simulate", "--experiment", "relu-zero", "--ensemble", "orthogonal",
            "--scale", "1", "--trials", "100", "--seed", "1",
        ])
        assert code == 1
        assert "usage error" in err

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

    @pytest.mark.parametrize("text", ["[[1.0, 2.0], [3.0", "[[1.0, 2.0], [3.0]]", '[["a", "b"]]'])
    def test_malformed_input_file_exits_one(self, capsys, tmp_path, text):
        path = tmp_path / "probes.json"
        path.write_text(text)
        code, out, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", f"file:{path}", "--seed", "12",
        ])
        assert (code, out) == (1, "")
        assert "usage error" in err

    def test_missing_input_file_exits_three(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "init", "--d", "2", "--alpha", "0.1", "--depth", "9", "--kind", "gaussian",
            "--sampled", "--input-dist", f"file:{tmp_path / 'absent.json'}", "--seed", "12",
        ])
        assert code == 3
        assert "i/o error" in err

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
        "e193e9748756465d2592e57c240d8a1c13bb8ca1a13d8710f09b241781389b9e",
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
        "84b47f55a2dc471f8073b6d894624af41d703cbfcf90a1a2c4281cbb528e2235",
    ),
    "single-step": (
        ["simulate", "--experiment", "single-step", "--d", "3", "--alpha", "0.1",
         "--scale", "1", "--trials", "500", "--seed", "24"],
        "19e151c1196650ff898a808ff922e743f6f3ba73f352c9bc8ad413dc587b5c84",
    ),
    "stationarity": (
        ["simulate", "--experiment", "stationarity", "--d", "3", "--alpha", "0.1",
         "--scale", "1", "--depth", "3", "--trials", "500", "--seed", "25"],
        "0917b18dc26443cea69f01fc979f1bd771b4230bc29b8d80ff53dfbdeecb9234",
    ),
    "relu-zero-d1": (
        ["simulate", "--experiment", "relu-zero", "--d", "1", "--scale", "1",
         "--depth", "6", "--trials", "500", "--seed", "26"],
        "57ca06f71d31b1b127b751240bb3ec70ce8af07e0c69d19ed630e4b9e9260b5a",
    ),
    "relu-zero-d2": (
        ["simulate", "--experiment", "relu-zero", "--d", "2", "--scale", "1",
         "--depth", "6", "--trials", "500", "--seed", "27"],
        "c87f52a4cdd635ac8682b37d037c6ac29bba54d23992f5c5ac3c928e6ed9c12a",
    ),
    "positive-cone": (
        ["simulate", "--experiment", "positive-cone", "--d", "2", "--alpha", "0.5",
         "--scale", "1", "--depth", "20", "--trials", "100", "--seed", "28"],
        "19a9a417373e31655638e37bccb8c29bdede7c55f669a9b65fd189f8d3bd3416",
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
}


def test_outputs_match_recorded_digests(capsys):
    mismatched = []
    for name, (argv, digest) in GOLDEN_DIGESTS.items():
        code, out, _ = run(capsys, argv)
        assert code == 0, name
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            mismatched.append(name)
    assert not mismatched, f"outputs changed bytes: {mismatched}"


class TestExitCodes:
    def test_accuracy_error_maps_to_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AccuracyError("synthetic", best_estimate=1.0, error_bound=0.5)

        monkeypatch.setattr(cli, "_table_row", boom)
        code, _, err = run(capsys, ["table", "--alpha", "0.1", "--dims", "2"])
        assert code == 2
        assert "accuracy failure" in err

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

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1
