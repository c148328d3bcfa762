import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from uncertain_eval import (
    FeedbackDataset,
    InputError,
    McConfig,
    ObservationSet,
    PopulationSpec,
    PredictionSet,
    RatingScale,
    denoise_preprocess,
    fit_uncertainty,
    predictor_noise_deviation,
)
from uncertain_eval.cli import _load_population_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_uniform_feedback(path, n=2000, sigma=1.0):
    lines = ["user_id,item_id,mu,sigma"]
    lines.extend(f"u{i:05d},i1,3.0,{sigma}" for i in range(n))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_toy_observations(path):
    rows = ["user_id,item_id,trial,rating"]
    for trial, value in enumerate([4.0, 5.0, 4.0, 3.0, 4.0]):
        rows.append(f"alice,trailer,{trial},{value}")
    for trial, value in enumerate([2.0, 2.0, 3.0, 2.0, 1.0]):
        rows.append(f"bob,trailer,{trial},{value}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


SPEC_JSON = {
    "n_users": 2,
    "n_items": 2,
    "scale": {"min_value": 1.0, "max_value": 5.0, "discrete_step": 1.0},
    "sigma_lo": 0.3,
    "sigma_hi": 0.8,
    "density": 1.0,
    "seed": 77,
}


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import uncertain_eval.cli, sys; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_imports_no_third_party_module_but_numpy():
    # modules a bare interpreter loads (``site`` may pull in packages
    # through ``.pth`` files) are loaded before the import and not counted
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; bare = set(sys.modules); import uncertain_eval.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "uncertain_eval"}


def _python(*args, **kwargs):
    """A fresh interpreter run with the package's sources on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, UNCERTAIN_EVAL_THREADS="2")
    return subprocess.run([sys.executable, *map(str, args)], env=env, **kwargs)


# What loads only where it is used: the Monte Carlo pool, a generated seed,
# and a normal quantile other than the pinned 95% one.
LAZY_PROBE = """
import sys
import uncertain_eval.cli as cli
lazy = ("concurrent.futures", "secrets", "statistics")
print(*[name in sys.modules for name in lazy])
import os
import numpy as np
from uncertain_eval import (
    FeedbackDataset, GaussianDistribution, McConfig, PredictionSet, confidence_interval,
    rmse_distribution,
)
print(*confidence_interval(GaussianDistribution(1.0, 4.0), 0.9))
users = [f"u{k}" for k in range(40)]
data = FeedbackDataset.from_ids(users, ["i"] * 40, np.linspace(1, 5, 40), np.linspace(0, 1, 40))
predictions = PredictionSet.from_ids(users, ["i"] * 40, np.full(40, 3.0))
cfg = McConfig(sample_count=4096, seed=11)
pooled = rmse_distribution(data, predictions, cfg).samples
os.environ["UNCERTAIN_EVAL_THREADS"] = "1"
alone = rmse_distribution(data, predictions, cfg).samples
print(pooled.tobytes() == alone.tobytes(), 0 <= cli._generate_seed() < 2**63)
print(*[name in sys.modules for name in lazy])
"""


def test_cli_imports_the_pool_seed_and_quantile_modules_only_when_used():
    proc = _python("-c", LAZY_PROBE, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, interval, same, after = proc.stdout.splitlines()
    assert before == "False False False"
    z = 1.6448536269514722  # the two-sided 90% quantile, scipy's norm.ppf(0.95)
    low, high = map(float, interval.split())
    assert (low, high) == pytest.approx((1.0 - 2.0 * z, 1.0 + 2.0 * z), rel=1e-15, abs=0)
    assert same == "True True"
    assert after == "True True True"


# ``fit`` and ``strategies`` run through ``main``; numpy loads ``numpy.ma``
# only on demand, and neither command needs it.
MASKED_PROBE = """
import sys
from uncertain_eval.cli import main
obs, pred, out = sys.argv[1:]
assert main(["fit", "--obs", obs, "--out", out]) == 0
assert main(["strategies", "--obs", obs, "--pred", pred, "--denoise-threshold", "1.0",
             "--tau", "1.0", "--omit-alpha", "0.05"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_fit_and_strategies_do_not_load_numpy_ma(tmp_path):
    obs, pred = tmp_path / "obs.csv", tmp_path / "pred.csv"
    write_toy_observations(obs)
    pred.write_text(PRED_HEADER + "alice,trailer,4.0\nbob,trailer,2.5\n", encoding="utf-8")
    proc = _python("-c", MASKED_PROBE, obs, pred, tmp_path / "out.csv", capture_output=True,
                   text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


class TestHardExit:
    """A command run as a program ends without interpreter teardown, its output whole."""

    def test_stdout_to_a_file_holds_the_whole_result(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        write_toy_observations(obs)
        _, expected, _ = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "a.csv"))
        with open(tmp_path / "stdout.json", "wb") as stdout:
            proc = _python(
                "-m", "uncertain_eval.cli", "fit", "--obs", obs, "--out", tmp_path / "b.csv",
                stdout=stdout, stderr=subprocess.PIPE,
            )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "stdout.json").read_bytes() == expected.encode()
        assert proc.stderr == f"wrote {tmp_path / 'b.csv'}\n".encode()
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_bad_input_exits_2_with_its_message(self, tmp_path):
        missing = tmp_path / "missing.csv"
        proc = _python(
            "-m", "uncertain_eval.cli", "distinguish", "--feedback", missing,
            "--s1", "1", "--s2", "2", capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot read {missing}: ")
        assert proc.stderr.count("\n") == 1

    def test_stdout_closed_before_the_write_exits_1_silently(self, tmp_path):
        feedback = tmp_path / "fb.csv"
        write_uniform_feedback(feedback, n=3)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python(
                "-m", "uncertain_eval.cli", "distinguish", "--feedback", feedback, "--s1", "1",
                "--s2", "2", stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_no_stdout_at_all(self, tmp_path):
        missing = tmp_path / "missing.csv"
        argv = ["distinguish", "--feedback", str(missing), "--s1", "1", "--s2", "2"]
        code = (
            "import sys; sys.stdout = None; from uncertain_eval.cli import entrypoint; "
            f"sys.argv[1:] = {argv!r}; entrypoint()"
        )
        proc = _python("-c", code, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot read {missing}: ")
        assert proc.stderr.count("\n") == 1


class TestFit:
    def test_two_group_toy_file(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        out = tmp_path / "feedback.csv"
        write_toy_observations(obs)
        code, stdout, _ = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(out)
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["n"] == 2
        assert summary["pooled_sigma"] > 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3
        assert (tmp_path / "feedback.csv.manifest.json").exists()

    def test_single_trial_pairs_with_zero_fallback(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "user_id,item_id,trial,rating\nu1,i1,0,3.0\nu2,i1,0,4.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "feedback.csv"
        code, stdout, _ = run_cli(
            capsys, "fit", "--obs", str(obs), "--fallback", "zero", "--out", str(out)
        )
        assert code == 0
        body = out.read_text(encoding="utf-8").splitlines()[1:]
        assert all(line.endswith(",0.0") for line in body)
        assert json.loads(stdout)["pooled_sigma"] is None

    def test_fixed_negative_zero_fallback_writes_what_zero_writes(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "user_id,item_id,trial,rating\nu1,i1,0,3.0\nu2,i1,0,4.0\nu2,i1,1,5.0\n",
            encoding="utf-8",
        )
        written = {}
        for fallback in ("zero", "fixed:-0"):
            out = tmp_path / "feedback.csv"
            code, _, _ = run_cli(
                capsys, "fit", "--obs", str(obs), "--fallback", fallback, "--out", str(out)
            )
            assert code == 0
            written[fallback] = out.read_bytes()
        assert written["fixed:-0"] == written["zero"]

    def test_missing_column_exits_2(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("user_id,item_id,rating\nu,i,3.0\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert "trial" in stderr

    def test_empty_input_exits_2(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("user_id,item_id,trial,rating\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2


class TestDistinguish:
    def test_close_scores_indistinguishable(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback)
        code, stdout, _ = run_cli(
            capsys,
            "distinguish",
            "--feedback", str(feedback),
            "--s1", "0.86",
            "--s2", "0.90",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["distinguishable"] is False
        assert report["barrier_mean"] == pytest.approx(1.0)
        assert report["barrier_variance"] == pytest.approx(0.00025, rel=1e-12)

    def test_wide_scores_distinguishable_with_exit_0(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback)
        code, stdout, _ = run_cli(
            capsys,
            "distinguish",
            "--feedback", str(feedback),
            "--s1", "0.80",
            "--s2", "0.90",
        )
        assert code == 0
        assert json.loads(stdout)["distinguishable"] is True

    def test_equal_scores(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=10)
        code, stdout, _ = run_cli(
            capsys,
            "distinguish",
            "--feedback", str(feedback),
            "--s1", "0.87",
            "--s2", "0.87",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["distinguishable"] is False
        assert report["z_gap"] == 0.0

    def test_report_schema(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=10)
        _, stdout, _ = run_cli(
            capsys,
            "distinguish",
            "--feedback", str(feedback),
            "--s1", "0.1",
            "--s2", "0.2",
        )
        assert list(json.loads(stdout)) == [
            "s1", "s2", "barrier_mean", "barrier_variance", "shift_mean",
            "ci_low", "ci_high", "distinguishable", "z_gap",
        ]

    def test_degenerate_floor_reports_infinite_z_gap(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=5, sigma=0.0)
        code, stdout, _ = run_cli(
            capsys,
            "distinguish",
            "--feedback", str(feedback),
            "--s1", "0.5",
            "--s2", "0.6",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["distinguishable"] is True
        assert report["z_gap"] == float("inf")


class TestRmseDist:
    def test_bad_tau_exits_2_before_reading(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(tmp_path / "missing_feedback.csv"),
            "--pred", str(tmp_path / "missing_pred.csv"),
            "--tau", "-1",
        )
        assert code == 2
        assert stderr == "error: tau must be finite and >= 0, got -1.0\n"

    def _write_inputs(self, tmp_path, n=200):
        feedback = tmp_path / "feedback.csv"
        pred = tmp_path / "pred.csv"
        write_uniform_feedback(feedback, n=n, sigma=0.5)
        lines = ["user_id,item_id,prediction"]
        lines.extend(f"u{i:05d},i1,3.0" for i in range(n))
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return feedback, pred

    def test_summary_fields(self, capsys, tmp_path):
        feedback, pred = self._write_inputs(tmp_path)
        code, stdout, _ = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--samples", "500",
            "--seed", "9",
        )
        assert code == 0
        summary = json.loads(stdout)
        assert list(summary) == ["mean", "variance", "sample_count", "seed"]
        assert summary["sample_count"] == 500
        assert summary["seed"] == 9

    def test_zero_sigma_zero_variance(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=20, sigma=0.0)
        pred = tmp_path / "pred.csv"
        lines = ["user_id,item_id,prediction"]
        lines.extend(f"u{i:05d},i1,3.0" for i in range(20))
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--samples", "200",
            "--seed", "1",
        )
        assert code == 0
        assert json.loads(stdout)["variance"] == 0.0

    def test_sample_count_below_minimum_exits_2(self, capsys, tmp_path):
        feedback, pred = self._write_inputs(tmp_path, n=10)
        code, _, stderr = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--samples", "10",
            "--seed", "1",
        )
        assert code == 2
        assert "sample_count" in stderr

    def test_sample_count_above_maximum_exits_2(self, capsys, tmp_path):
        feedback, pred = self._write_inputs(tmp_path, n=10)
        code, _, stderr = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--samples", str(10**13),
            "--seed", "1",
        )
        assert code == 2
        assert "sample_count" in stderr

    def test_key_mismatch_exits_2_naming_key(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=3)
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "user_id,item_id,prediction\nu00000,i1,3.0\nu00001,i1,3.0\n",
            encoding="utf-8",
        )
        code, _, stderr = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--samples", "200",
            "--seed", "1",
        )
        assert code == 2
        assert "u00002" in stderr

    def test_extra_predictions_are_not_scored(self, capsys, tmp_path):
        # a prediction file may hold pairs the feedback lacks; only the
        # feedback's pairs are scored, so the result equals that of the exact file
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=20, sigma=0.5)
        rows = [f"u{i:05d},i1,{3.0 + i / 10}" for i in range(20)]
        exact, superset = tmp_path / "exact.csv", tmp_path / "superset.csv"
        exact.write_text(PRED_HEADER + "\n".join(rows) + "\n", encoding="utf-8")
        extra = ["a,i1,9.0", "u00005,i0,9.0", "u00019,i2,9.0", "z,i1,9.0"]
        superset.write_text(PRED_HEADER + "\n".join(extra + rows[::-1]) + "\n", encoding="utf-8")
        outputs = []
        for pred in (exact, superset):
            code, stdout, _ = run_cli(
                capsys, "rmse-dist", "--feedback", str(feedback), "--pred", str(pred),
                "--samples", "200", "--seed", "3",
            )
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_dump_writes_samples_and_manifest(self, capsys, tmp_path):
        feedback, pred = self._write_inputs(tmp_path, n=20)
        dump = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys,
            "rmse-dist",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--samples", "150",
            "--seed", "2",
            "--dump", str(dump),
        )
        assert code == 0
        lines = dump.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sample_index,score"
        assert len(lines) == 151
        manifest = json.loads(
            (tmp_path / "samples.csv.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["seed"] == 2
        assert manifest["command"] == "rmse-dist"


class TestStrategies:
    def test_identity_denoise(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        write_toy_observations(obs)
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "user_id,item_id,prediction\nalice,trailer,4.0\nbob,trailer,2.0\n",
            encoding="utf-8",
        )
        code, stdout, _ = run_cli(
            capsys,
            "strategies",
            "--obs", str(obs),
            "--pred", str(pred),
            "--denoise-threshold", "inf",
        )
        assert code == 0
        (report,) = json.loads(stdout)
        assert report["strategy"] == "denoise"
        assert report["score_after"] == report["score_before"]
        assert report["distinguishable"] is False

    def test_null_omission_calibration(self, capsys, tmp_path):
        rng = np.random.default_rng(4242)
        n = 10000
        sigmas = rng.uniform(0.3, 1.2, n)
        deviations = rng.standard_normal(n) * sigmas
        feedback = tmp_path / "feedback.csv"
        lines = ["user_id,item_id,mu,sigma"]
        lines.extend(f"u{i:05d},i1,3.0,{float(sigmas[i])!r}" for i in range(n))
        feedback.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        lines = ["user_id,item_id,prediction"]
        lines.extend(f"u{i:05d},i1,{float(3.0 - deviations[i])!r}" for i in range(n))
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")

        code, stdout, _ = run_cli(
            capsys,
            "strategies",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--omit-alpha", "0.05",
        )
        assert code == 0
        (report,) = json.loads(stdout)
        assert 0.04 <= report["retained_fraction"] <= 0.06

    def test_tau_on_zero_sigma_dataset(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback, n=10, sigma=0.0)
        pred = tmp_path / "pred.csv"
        lines = ["user_id,item_id,prediction"]
        lines.extend(f"u{i:05d},i1,3.0" for i in range(10))
        pred.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys,
            "strategies",
            "--feedback", str(feedback),
            "--pred", str(pred),
            "--tau", "1.0",
        )
        assert code == 0
        (report,) = json.loads(stdout)
        assert report["strategy"] == "predictor_noise"
        assert report["mean_deviation_variance"] == pytest.approx(1.0)

    def test_bad_alpha_exits_2_before_reading(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys,
            "strategies",
            "--obs", str(tmp_path / "missing_obs.csv"),
            "--pred", str(tmp_path / "missing_pred.csv"),
            "--omit-alpha", "2",
        )
        assert code == 2
        assert stderr == "error: alpha must lie in (0, 1), got 2.0\n"

    def test_bad_tau_exits_2_before_reading(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys,
            "strategies",
            "--obs", str(tmp_path / "missing_obs.csv"),
            "--pred", str(tmp_path / "missing_pred.csv"),
            "--tau", "-1",
        )
        assert code == 2
        assert stderr == "error: tau must be finite and >= 0, got -1.0\n"

    def test_no_strategy_exits_2_before_reading(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys,
            "strategies",
            "--obs", str(tmp_path / "missing_obs.csv"),
            "--pred", str(tmp_path / "missing_pred.csv"),
        )
        assert code == 2
        assert stderr == "error: no strategy requested\n"

    def test_requires_some_input(self, capsys, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text("user_id,item_id,prediction\nu,i,3.0\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "strategies", "--pred", str(pred), "--tau", "1.0"
        )
        assert code == 2


class TestSimulate:
    def test_writes_expected_rows(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, stdout, _ = run_cli(
            capsys,
            "simulate",
            "--spec", json.dumps(SPEC_JSON),
            "--trials", "5",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["pairs"] == 4
        assert summary["observation_rows"] == 20
        obs_lines = (out_dir / "observations.csv").read_text(encoding="utf-8")
        assert len(obs_lines.splitlines()) == 21
        assert (out_dir / "feedback.csv").exists()
        assert (out_dir / "predictions.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 77

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_JSON), encoding="utf-8")
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out_dir in (first, second):
            code, _, _ = run_cli(
                capsys,
                "simulate",
                "--spec", str(spec_path),
                "--trials", "5",
                "--out-dir", str(out_dir),
            )
            assert code == 0
        for name in ("observations.csv", "feedback.csv", "predictions.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_simulate_and_fit_bytes_are_pinned(self, capsys, tmp_path):
        # the spec of the CLI determinism criterion; digests of the files
        # csv.writer wrote before the columnar writer replaced it
        spec = dict(SPEC_JSON, n_users=20, n_items=10, sigma_lo=0.3, sigma_hi=1.0,
                    density=0.8, seed=4242)
        digests = {
            "observations.csv": "e1c024b365829ddd35b2ca4478be8c7bfd98e29aa69b7a645a4de7af9ad16ec1",
            "feedback.csv": "57afb8e10ca5c70302b520202b5ba325e8e90d3a58243c26e4904b2bb5eaf820",
            "predictions.csv": "60179c44f737db81be0f061a7a95655ba1f1abdd8aea273aee0f886378d0acb9",
            "fitted.csv": "e0f6ec2c36e5852206dfe6940888844096d059462a21a718fffd6deb5697ca43",
        }
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--spec", json.dumps(spec), "--trials", "5", "--out-dir", str(out)
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "fit", "--obs", str(out / "observations.csv"), "--out", str(out / "fitted.csv")
        )
        assert code == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_analysis_outputs_are_pinned(self, capsys, tmp_path):
        # stdout of distinguish, strategies and rmse-dist, and the sample
        # dump, for the spec of the test above
        spec = dict(SPEC_JSON, n_users=20, n_items=10, sigma_lo=0.3, sigma_hi=1.0,
                    density=0.8, seed=4242)
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--spec", json.dumps(spec), "--trials", "5", "--out-dir", str(out)
        )
        assert code == 0
        obs, feedback, pred = (
            str(out / name) for name in ("observations.csv", "feedback.csv", "predictions.csv")
        )
        commands = {
            "distinguish": ["--feedback", feedback, "--s1", "0.5", "--s2", "0.55"],
            "strategies": [
                "--obs", obs, "--pred", pred, "--denoise-threshold", "1.0", "--tau", "1.0",
                "--omit-alpha", "0.05",
            ],
            "rmse-dist": [
                "--feedback", feedback, "--pred", pred, "--samples", "4096", "--seed", "99",
                "--dump", str(out / "dump.csv"),
            ],
        }
        digests = {
            "distinguish": "db238f3341006893d8a8116a3a67ea62e0dc92cb598b4938031aff4841c51603",
            "strategies": "9d6ad79b729fb33628b72e9e9cdf06599bb796718a24a8573e41e77d062132d6",
            "rmse-dist": "e1f79ff18e7fddb88555bea82e44cb8b9efdf45584a568a56778dedec1000cf4",
            "dump.csv": "7b0723f15bcb4474bc30b0987cf341b688587ad6010c9e949bc24832f6a8f9b1",
        }
        got = {}
        for command, argv in commands.items():
            code, stdout, _ = run_cli(capsys, command, *argv)
            assert code == 0, command
            got[command] = hashlib.sha256(stdout.encode()).hexdigest()
        got["dump.csv"] = hashlib.sha256((out / "dump.csv").read_bytes()).hexdigest()
        assert got == digests

    def test_zero_density_exits_2_naming_field(self, capsys, tmp_path):
        bad = dict(SPEC_JSON, density=0.0)
        code, _, stderr = run_cli(
            capsys,
            "simulate",
            "--spec", json.dumps(bad),
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "density" in stderr

    def test_unknown_field_exits_2_naming_field(self, capsys, tmp_path):
        bad = dict(SPEC_JSON, typo_field=1)
        code, _, stderr = run_cli(
            capsys,
            "simulate",
            "--spec", json.dumps(bad),
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "typo_field" in stderr

    def test_missing_field_exits_2_naming_field(self, capsys, tmp_path):
        bad = {k: v for k, v in SPEC_JSON.items() if k != "sigma_lo"}
        code, _, stderr = run_cli(
            capsys,
            "simulate",
            "--spec", json.dumps(bad),
            "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "sigma_lo" in stderr


def test_readme_spec_example_matches_schema():
    # the README's population-spec example loads and names every field
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A population spec looks like:", 1)[1]
    block = block.split("```json\n", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    spec = _load_population_spec(block)
    assert list(raw) == [f.name for f in fields(PopulationSpec)]
    assert list(raw["scale"]) == [f.name for f in fields(RatingScale)]
    assert asdict(spec) == raw


def _without(mapping, name):
    return {k: v for k, v in mapping.items() if k != name}


def _with_scale(**changes):
    return dict(SPEC_JSON, scale=dict(SPEC_JSON["scale"], **changes))


SPEC_FAULTS = [
    ("not_an_object", [1, 2], "spec must be a JSON object"),
    ("unknown_field", dict(SPEC_JSON, typo_field=1), "unknown spec field 'typo_field'"),
    *[
        (f"missing_{name}", _without(SPEC_JSON, name),
         f"spec is missing required field {name!r}")
        for name in ("n_users", "n_items", "scale", "sigma_lo", "sigma_hi")
    ],
    ("scale_not_an_object", dict(SPEC_JSON, scale=5),
     "spec field 'scale' must be a JSON object"),
    ("unknown_scale_field", _with_scale(step=1), "unknown scale field 'step'"),
    *[
        (f"missing_{name}", dict(SPEC_JSON, scale=_without(SPEC_JSON["scale"], name)),
         f"scale is missing required field {name!r}")
        for name in ("min_value", "max_value")
    ],
    ("non_numeric_int", dict(SPEC_JSON, n_users="two"),
     "bad spec value: invalid literal for int() with base 10: 'two'"),
    ("non_numeric_float", dict(SPEC_JSON, sigma_lo="low"),
     "bad spec value: could not convert string to float: 'low'"),
    ("non_numeric_scale", _with_scale(max_value="top"),
     "bad spec value: could not convert string to float: 'top'"),
    ("null_float", dict(SPEC_JSON, density=None),
     "bad spec value: float() argument must be a string or a real number, not 'NoneType'"),
    ("scale_value_error", _with_scale(min_value=5.0, max_value=1.0),
     "rating scale needs min_value < max_value, got [5.0, 1.0]"),
    ("fractional_int", dict(SPEC_JSON, n_users=2.7),
     "bad spec value: n_users must be an integer, got 2.7"),
    ("fractional_seed", dict(SPEC_JSON, seed=77.5),
     "bad spec value: seed must be an integer, got 77.5"),
    ("boolean_int", dict(SPEC_JSON, n_items=True),
     "bad spec value: n_items must be a number, got true"),
    ("boolean_float", dict(SPEC_JSON, sigma_lo=False),
     "bad spec value: sigma_lo must be a number, got false"),
    ("boolean_scale", _with_scale(discrete_step=True),
     "bad spec value: discrete_step must be a number, got true"),
    ("zero_users", dict(SPEC_JSON, n_users=0), "n_users must be >= 1, got 0"),
    ("zero_items", dict(SPEC_JSON, n_items=0), "n_items must be >= 1, got 0"),
    ("inverted_bias", dict(SPEC_JSON, bias_lo=0.5, bias_hi=0.1),
     "bias prior needs bias_lo <= bias_hi, got [0.5, 0.1]"),
    # JSON text -Infinity, which Python's JSON reader accepts
    ("infinite_scale_bound", _with_scale(min_value=-math.inf),
     "rating scale bounds must be finite"),
]


class TestPopulationSpec:
    """The spec loader: each single fault exits 2 with one line naming it."""

    def _simulate(self, capsys, tmp_path, spec, *extra):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        return run_cli(
            capsys, "simulate", "--spec", str(spec_path), "--out-dir", str(tmp_path / "run"),
            *extra,
        )

    @pytest.mark.parametrize(
        "spec, message", [f[1:] for f in SPEC_FAULTS], ids=[f[0] for f in SPEC_FAULTS]
    )
    def test_single_fault_exits_2(self, capsys, tmp_path, spec, message):
        code, stdout, stderr = self._simulate(capsys, tmp_path, spec)
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            (dict(SPEC_JSON, n_users=1e400), "cannot convert float infinity to integer"),
            (dict(SPEC_JSON, sigma_hi=10**400), "int too large to convert to float"),
        ],
        ids=["infinite_int", "huge_float"],
    )
    def test_overflowing_value_exits_2(self, capsys, tmp_path, spec, message):
        code, _, stderr = self._simulate(capsys, tmp_path, spec)
        assert code == 2
        assert stderr == f"error: bad spec value: {message}\n"

    def test_population_above_bound_exits_2(self, capsys, tmp_path):
        code, _, stderr = self._simulate(
            capsys, tmp_path, dict(SPEC_JSON, n_users=10**6, n_items=10**6)
        )
        assert code == 2
        assert stderr.startswith("error: n_users * n_items must be <= ")

    def test_trials_above_bound_exits_2(self, capsys, tmp_path):
        code, _, stderr = self._simulate(capsys, tmp_path, SPEC_JSON, "--trials", str(10**12))
        assert code == 2
        assert stderr.startswith(f"error: 4 pairs x {10**12} trials exceed ")
        assert not (tmp_path / "run").exists()

    def test_null_discrete_step_is_continuous(self, capsys, tmp_path):
        code, _, _ = self._simulate(capsys, tmp_path, _with_scale(discrete_step=None))
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["spec"]["scale"]["discrete_step"] is None

    def test_omitted_seed_is_generated_and_recorded(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("uncertain_eval.cli._generate_seed", lambda: 123456789)
        code, _, _ = self._simulate(capsys, tmp_path, _without(SPEC_JSON, "seed"))
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 123456789
        assert "seed" not in manifest["config"]["spec"]

    def test_manifest_bytes(self, capsys, tmp_path, monkeypatch):
        from uncertain_eval import __version__

        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "simulate", "--spec", json.dumps(SPEC_JSON), "--trials", "3",
            "--discretise", "--out-dir", "run",
        )
        assert code == 0
        assert (tmp_path / "run" / "manifest.json").read_text(encoding="utf-8") == (
            "{\n"
            '  "command": "simulate",\n'
            '  "inputs": {},\n'
            '  "config": {\n'
            '    "spec": {\n'
            '      "n_users": 2,\n'
            '      "n_items": 2,\n'
            '      "scale": {\n'
            '        "min_value": 1.0,\n'
            '        "max_value": 5.0,\n'
            '        "discrete_step": 1.0\n'
            "      },\n"
            '      "sigma_lo": 0.3,\n'
            '      "sigma_hi": 0.8,\n'
            '      "density": 1.0,\n'
            '      "bias_lo": 0.0,\n'
            '      "bias_hi": 0.0\n'
            "    },\n"
            '    "trials": 3,\n'
            '    "discretise": true\n'
            "  },\n"
            '  "seed": 77,\n'
            f'  "tool_version": "{__version__}",\n'
            '  "outputs": [\n'
            '    "run/observations.csv",\n'
            '    "run/feedback.csv",\n'
            '    "run/predictions.csv"\n'
            "  ]\n"
            "}\n"
        )


OBS_HEADER = "user_id,item_id,trial,rating\n"
FEEDBACK_HEADER = "user_id,item_id,mu,sigma\n"
PRED_HEADER = "user_id,item_id,prediction\n"


class TestMalformedInput:
    """Each malformed input exits 2 with one line naming the file line or pair."""

    def _fit(self, capsys, tmp_path, body):
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_HEADER + body, encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        return code, stderr.replace(str(obs), "OBS")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_rating(self, capsys, tmp_path, text):
        code, stderr = self._fit(capsys, tmp_path, f"u,i,0,3.0\nu,i,1,{text}\n")
        assert code == 2
        assert stderr == f"error: OBS:3: rating value must be finite, got {text}\n"

    def test_negative_trial(self, capsys, tmp_path):
        code, stderr = self._fit(capsys, tmp_path, "u,i,0,3.0\nu,i,-1,3.0\n")
        assert code == 2
        assert stderr == "error: OBS:3: trial must be non-negative, got -1\n"

    def test_trial_beyond_64_bits(self, capsys, tmp_path):
        code, stderr = self._fit(capsys, tmp_path, f"u,i,{2**63},3.0\n")
        assert code == 2
        assert stderr == f"error: OBS:2: trial must be below 2**63, got {2**63}\n"

    def test_first_row_error_wins(self, capsys, tmp_path):
        # line 3 is short and has a bad trial: cells are read in column order,
        # so the trial is reported, and line 4 is never reached
        code, stderr = self._fit(capsys, tmp_path, "u,i,0,3.0\nu,i,x\nu,i,1,nan\n")
        assert code == 2
        assert stderr == "error: OBS:3: bad trial value 'x'\n"

    def test_duplicate_trial_reports_first_repeat_in_input_order(self, capsys, tmp_path):
        body = "u2,i,0,1.0\nu1,i,0,1.0\nu2,i,0,2.0\nu1,i,0,2.0\n"
        code, stderr = self._fit(capsys, tmp_path, body)
        assert code == 2
        assert stderr == "error: duplicate observation for u2/i trial 0\n"

    def test_non_finite_mu_in_feedback(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        feedback.write_text(FEEDBACK_HEADER + "u,i,3.0,0.5\nv,i,nan,0.5\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "distinguish", "--feedback", str(feedback), "--s1", "1", "--s2", "2"
        )
        assert code == 2
        assert stderr == f"error: {feedback}:3: mu must be finite, got nan\n"

    def _strategies(self, capsys, tmp_path, pred_body):
        feedback = tmp_path / "feedback.csv"
        feedback.write_text(FEEDBACK_HEADER + "u,a,3.0,0.5\nu,b,3.0,0.5\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text(PRED_HEADER + pred_body, encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "strategies", "--feedback", str(feedback), "--pred", str(pred), "--tau", "1"
        )
        return code, stderr.replace(str(pred), "PRED")

    def test_duplicate_prediction(self, capsys, tmp_path):
        code, stderr = self._strategies(capsys, tmp_path, "u,a,3.0\nu,b,3.0\nu,a,4.0\n")
        assert code == 2
        assert stderr == "error: PRED:4: duplicate prediction for u/a\n"

    def test_non_finite_prediction_names_line(self, capsys, tmp_path):
        code, stderr = self._strategies(capsys, tmp_path, "u,a,3.0\nu,b,nan\n")
        assert code == 2
        assert stderr == "error: PRED:3: prediction must be finite, got nan\n"

    def test_duplicate_prediction_with_bad_value(self, capsys, tmp_path):
        # the value is converted before the pair is checked for a repeat
        code, stderr = self._strategies(capsys, tmp_path, "u,a,3.0\nu,b,3.0\nu,a,x\n")
        assert code == 2
        assert stderr == "error: PRED:4: bad prediction value 'x'\n"

    def test_missing_prediction_names_pair(self, capsys, tmp_path):
        code, stderr = self._strategies(capsys, tmp_path, "u,b,3.0\nu,c,3.0\n")
        assert code == 2
        assert stderr == "error: missing prediction for u/a\n"

    def test_duplicate_feedback_names_line_and_pair(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        body = "u,a,3.0,0.5\nu,b,3.0,0.5\nu,a,4.0,0.5\nu,b,4.0,0.5\n"
        feedback.write_text(FEEDBACK_HEADER + body, encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "distinguish", "--feedback", str(feedback), "--s1", "1", "--s2", "2"
        )
        assert code == 2
        assert stderr == f"error: {feedback}:4: duplicate feedback for u/a\n"

    @pytest.mark.parametrize(
        "header, command",
        [
            ("user_id,item_id,trial,rating,rating", "fit"),
            ("user_id,item_id,mu,sigma,user_id", "distinguish"),
            ("prediction,user_id,item_id,prediction", "strategies"),
        ],
    )
    def test_duplicate_header_column(self, capsys, tmp_path, header, command):
        feedback = tmp_path / "feedback.csv"
        feedback.write_text(FEEDBACK_HEADER + "u,a,3.0,0.5\n", encoding="utf-8")
        bad = tmp_path / "bad.csv"
        width = header.count(",") + 1
        bad.write_text(header + "\n" + ",".join(["1"] * width) + "\n", encoding="utf-8")
        argv = {
            "fit": ["fit", "--obs", str(bad), "--out", str(tmp_path / "out.csv")],
            "distinguish": ["distinguish", "--feedback", str(bad), "--s1", "1", "--s2", "2"],
            "strategies": [
                "strategies", "--feedback", str(feedback), "--pred", str(bad), "--tau", "1",
            ],
        }[command]
        code, _, stderr = run_cli(capsys, *argv)
        column = header.rsplit(",", 1)[1]
        assert code == 2
        assert stderr == f"error: {bad}: duplicate column {column!r} in header\n"

    # Row faults of an observation file, each with the line reported first.
    ROW_FAULTS = [
        ("u,i,0,3.0\nu,i,1,nan\n", "3: rating value must be finite, got nan"),
        ("u,i,0,3.0\nu,i,-1,3.0\n", "3: trial must be non-negative, got -1"),
        (f"u,i,{2**63},3.0\n", f"2: trial must be below 2**63, got {2**63}"),
        ("u,i,0,3.0\nu,i,x\nu,i,1,nan\n", "3: bad trial value 'x'"),
        ("u,i,0,3.0\nu,i\n", "3: row has too few fields"),
        ("u,i,0,3.0\nu,i,1,3.0,4.0\n", "3: row has too many fields"),
        ("u,i,0,3.0\n\n", "3: row has too few fields"),
        ("u,i,0,3.0\nu,i,1,nan", "3: rating value must be finite, got nan"),
        ("", " no data rows"),
        # two faults in one row: every field is read before the value rule runs
        ("u,i,0,3.0\nu,i,-1,x\n", "3: bad rating value 'x'"),
        ("u,i,0,3.0\nu,i,-1\n", "3: row has too few fields"),
        # a short row and a long one: the field count is a multiple of the
        # width, but a line ends inside a row
        ("u,i,0\nu,i,1,3.0,4.0\n", "2: row has too few fields"),
    ]

    @staticmethod
    def _encode(text, tokeniser):
        """``text`` as written, quoted for csv.reader, or with CRLF line ends."""
        if tokeniser == "quoted":
            return "\n".join(
                ",".join(f'"{f}"' for f in line.split(",")) if line else line
                for line in text.split("\n")
            )
        return text.replace("\n", "\r\n") if tokeniser == "crlf" else text

    @pytest.mark.parametrize("tokeniser", ["plain", "quoted", "crlf"])
    @pytest.mark.parametrize("body, message", ROW_FAULTS)
    def test_row_fault_on_each_tokeniser(self, capsys, tmp_path, body, message, tokeniser):
        obs = tmp_path / "obs.csv"
        obs.write_text(self._encode(OBS_HEADER + body, tokeniser), encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert stderr == f"error: {obs}:{message}\n"

    # Faults of a command's arguments; {obs}, {feedback}, {pred} and {dir} name
    # valid inputs and the test's directory.
    ARGUMENT_FAULTS = [
        (["simulate", "--spec", json.dumps(SPEC_JSON), "--trials", "0", "--out-dir", "{dir}/run"],
         "--trials must be >= 1, got 0"),
        (["simulate", "--spec", "{dir}/missing.json", "--out-dir", "{dir}/run"],
         "spec file not found: {dir}/missing.json"),
        (["simulate", "--spec", "{bad", "--out-dir", "{dir}/run"],
         "spec is not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["strategies", "--obs", "{obs}", "--pred", "{pred}", "--denoise-threshold", "0"],
         "denoise threshold must be > 0, got 0.0"),
        (["strategies", "--obs", "{obs}", "--pred", "{pred}", "--denoise-threshold", "1",
          "--denoise-max-iterations", "0"],
         "max_iterations must be >= 1, got 0"),
        (["strategies", "--feedback", "{feedback}", "--pred", "{pred}", "--denoise-threshold",
          "1"],
         "de-noising needs raw repeated-trial observations"),
        (["strategies", "--obs", "{obs}", "--pred", "{pred}", "--tau", "1",
          "--denoise-resampler", "mean"],
         "unknown resampler 'mean'; expected median or redraw"),
        (["distinguish", "--feedback", "{feedback}", "--s1", "nan", "--s2", "1"],
         "scores must be finite, got s1=nan, s2=1.0"),
    ]

    @pytest.mark.parametrize("argv, message", ARGUMENT_FAULTS)
    def test_argument_fault(self, capsys, tmp_path, argv, message):
        names = {"obs": tmp_path / "obs.csv", "feedback": tmp_path / "feedback.csv",
                 "pred": tmp_path / "pred.csv", "dir": tmp_path}
        write_toy_observations(names["obs"])
        names["feedback"].write_text(
            FEEDBACK_HEADER + "alice,trailer,4.0,0.5\nbob,trailer,2.0,0.5\n", encoding="utf-8"
        )
        names["pred"].write_text(PRED_HEADER + "alice,trailer,4.0\nbob,trailer,2.5\n",
                                 encoding="utf-8")

        def filled(text):
            for name, path in names.items():
                text = text.replace(f"{{{name}}}", str(path))
            return text

        code, stdout, stderr = run_cli(capsys, *map(filled, argv))
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {filled(message)}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("tokeniser", ["plain", "crlf"])
    def test_bad_row_beyond_the_first_piece(self, capsys, tmp_path, tokeniser):
        # 70k rows of 16 characters fill more than 1 MiB, so the plain
        # tokeniser cuts the file into several pieces before line 65002
        rows = [f"u{n:05d},i,0,3.0\n" for n in range(70_000)]
        rows[65_000] = "u65000,i,0,bad\n"
        obs = tmp_path / "obs.csv"
        obs.write_text(self._encode(OBS_HEADER + "".join(rows), tokeniser), encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert stderr == f"error: {obs}:65002: bad rating value 'bad'\n"

    def test_file_without_trailing_newline(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_HEADER + "u,i,0,3.0\nu,i,1,4.0", encoding="utf-8")
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "u,i,3.5,0.7071067811865476"

    def test_id_with_carriage_return_exits_2(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_HEADER + "u,i,0,3.0\nu\rv,i,0,3.0\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert stderr == f"error: {obs}:3: row has too few fields\n"

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_bytes(OBS_HEADER.encode() + b"u\xff,i,0,3.0\n")
        code, _, stderr = run_cli(
            capsys, "fit", "--obs", str(obs), "--out", str(tmp_path / "out.csv")
        )
        assert code == 2
        assert stderr.startswith(f"error: cannot read {obs}: 'utf-8' codec can't decode")


IDS = (["u"], ["i"])


def _denoise(threshold=1.0, **settings):
    """``denoise_preprocess`` of one observation with the given settings."""
    return denoise_preprocess(ObservationSet.from_ids(*IDS, [0], [3.0]), None, threshold, **settings)


# Each value rule: (library call, CLI command, input file header, input file row).
VALUE_RULES = {
    "negative trial": (
        lambda: ObservationSet.from_ids(*IDS, [-1], [3.0]), "fit", OBS_HEADER, "u,i,-1,3.0"
    ),
    "trial 2**63": (
        lambda: ObservationSet.from_ids(*IDS, [2**63], [3.0]), "fit", OBS_HEADER, f"u,i,{2**63},3.0"
    ),
    "non-finite rating": (
        lambda: ObservationSet.from_ids(*IDS, [0], [math.inf]), "fit", OBS_HEADER, "u,i,0,inf"
    ),
    "non-finite mu": (
        lambda: FeedbackDataset.from_ids(*IDS, [math.nan], [0.5]),
        "distinguish", FEEDBACK_HEADER, "u,i,nan,0.5",
    ),
    "negative sigma": (
        lambda: FeedbackDataset.from_ids(*IDS, [3.0], [-0.5]),
        "distinguish", FEEDBACK_HEADER, "u,i,3.0,-0.5",
    ),
    "tau of McConfig": (
        lambda: McConfig(sample_count=100, seed=1, predictor_tau=-1.0),
        "rmse-dist", FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "tau of strategies": (
        lambda: predictor_noise_deviation(3.0, 0.5, 3.0, -1.0),
        "strategies --tau -1", FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "denoise threshold 0": (
        lambda: _denoise(0.0), "strategies --denoise-threshold 0", FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "denoise threshold nan": (
        lambda: _denoise(math.nan),
        "strategies --denoise-threshold nan", FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "denoise max iterations": (
        lambda: _denoise(max_iterations=0),
        "strategies --denoise-threshold 1 --denoise-max-iterations 0",
        FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "denoise resampler": (
        lambda: _denoise(resampler="mean"),
        "strategies --denoise-threshold 1 --denoise-resampler mean",
        FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "denoise seed": (
        lambda: _denoise(seed=-1),
        "strategies --denoise-threshold 1 --denoise-seed -1", FEEDBACK_HEADER, "u,i,3.0,0.5",
    ),
    "fixed fallback": (
        lambda: fit_uncertainty(ObservationSet.from_ids(*IDS, [0], [3.0]), -1.0),
        "fit --fallback fixed:-1", OBS_HEADER, "u,i,0,3.0",
    ),
}


class TestOneMessagePerRule:
    """A value rule reads the same from the library and from a file or the CLI."""

    @pytest.mark.parametrize("rule", VALUE_RULES)
    def test_library_and_cli_agree(self, capsys, tmp_path, rule):
        call, command, header, row = VALUE_RULES[rule]
        command, *options = command.split()
        with pytest.raises(InputError) as info:
            call()
        data = tmp_path / "data.csv"
        data.write_text(header + row + "\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text(PRED_HEADER + "u,i,3.0\n", encoding="utf-8")
        argv = {
            "fit": ["--obs", str(data), "--out", str(tmp_path / "out.csv")],
            "distinguish": ["--feedback", str(data), "--s1", "1", "--s2", "2"],
            "rmse-dist": ["--feedback", str(data), "--pred", str(pred), "--tau", "-1"],
            "strategies": ["--feedback", str(data), "--pred", str(pred)],
        }[command]
        code, _, stderr = run_cli(capsys, command, *argv, *options)
        assert code == 2
        assert re.sub(rf"^error: ({re.escape(str(data))}:\d+: )?", "", stderr) == f"{info.value}\n"


    def test_prediction_rule_agrees(self, capsys, tmp_path):
        # the data set, the deviation law and the file reader share one message
        messages = []
        for call in (
            lambda: PredictionSet.from_ids(*IDS, [math.nan]),
            lambda: predictor_noise_deviation(3.0, 0.5, math.nan, 1.0),
        ):
            with pytest.raises(InputError) as info:
                call()
            messages.append(str(info.value))
        feedback = tmp_path / "feedback.csv"
        feedback.write_text(FEEDBACK_HEADER + "u,i,3.0,0.5\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text(PRED_HEADER + "u,i,nan\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "rmse-dist", "--feedback", str(feedback), "--pred", str(pred)
        )
        assert code == 2
        messages.append(stderr.removeprefix(f"error: {pred}:2: ").removesuffix("\n"))
        assert messages == ["prediction must be finite, got nan"] * 3


class TestSquareOverflow:
    """A square beyond float64 exits 2 with one line and prints nothing."""

    @pytest.mark.parametrize(
        "command, tau",
        [("strategies", "1e200"), ("strategies", "1e160"), ("rmse-dist", "1e160")],
    )
    def test_tau_is_rejected_before_reading(self, tmp_path, command, tau):
        missing = str(tmp_path / "missing.csv")
        source = "--obs" if command == "strategies" else "--feedback"
        proc = _python(
            "-m", "uncertain_eval", command, source, missing, "--pred", missing, "--tau", tau,
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: tau squared must be finite, got tau = {float(tau)}\n"

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("distinguish", ["--s1", "1", "--s2", "2"],
             "sigma 1e+200 is too large: the noise floor overflows float64"),
            ("strategies", ["--omit-alpha", "0.05"],
             "sigma 1e+200 is too large: the noise floor overflows float64"),
            ("rmse-dist", ["--samples", "4096", "--seed", "3"],
             "squared deviations overflow float64: |mu - prediction| up to 0.5, "
             "deviation std up to 1e+200"),
        ],
        ids=["distinguish", "strategies", "rmse-dist"],
    )
    def test_sigma_beyond_the_floor(self, tmp_path, command, options, message):
        feedback, pred = tmp_path / "feedback.csv", tmp_path / "pred.csv"
        feedback.write_text(FEEDBACK_HEADER + "u1,i,3.0,0.5\nu2,i,3.0,1e200\n", encoding="utf-8")
        pred.write_text(PRED_HEADER + "u1,i,3.0\nu2,i,3.5\n", encoding="utf-8")
        argv = ["--feedback", feedback] + ([] if command == "distinguish" else ["--pred", pred])
        proc = _python(
            "-m", "uncertain_eval", command, *argv, *options, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {message}\n"


class TestUnwritableOutput:
    """An output that cannot be written exits 2 and names the path."""

    @staticmethod
    def _under_a_file(tmp_path, name):
        parent = tmp_path / "f.txt"
        parent.write_text("", encoding="utf-8")
        return parent / name

    def _assert_cannot_write(self, result, path):
        code, stdout, stderr = result
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: cannot write {path}: ")
        assert stderr.count("\n") == 1

    def test_fit_out(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        write_toy_observations(obs)
        out = self._under_a_file(tmp_path, "fb.csv")
        result = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(out))
        self._assert_cannot_write(result, out)

    def test_fit_manifest(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        write_toy_observations(obs)
        out = tmp_path / "fb.csv"
        manifest = tmp_path / "fb.csv.manifest.json"
        manifest.mkdir()
        result = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(out))
        self._assert_cannot_write(result, manifest)

    def test_rmse_dist_dump(self, capsys, tmp_path):
        feedback, pred = tmp_path / "fb.csv", tmp_path / "pred.csv"
        write_uniform_feedback(feedback, n=3)
        pred.write_text(
            PRED_HEADER + "".join(f"u{i:05d},i1,3.0\n" for i in range(3)), encoding="utf-8"
        )
        dump = self._under_a_file(tmp_path, "x.csv")
        result = run_cli(
            capsys, "rmse-dist", "--feedback", str(feedback), "--pred", str(pred),
            "--samples", "100", "--seed", "1", "--dump", str(dump),
        )
        self._assert_cannot_write(result, dump)

    def test_simulate_out_dir(self, capsys, tmp_path):
        out_dir = self._under_a_file(tmp_path, "run")
        result = run_cli(
            capsys, "simulate", "--spec", json.dumps(SPEC_JSON), "--out-dir", str(out_dir)
        )
        self._assert_cannot_write(result, out_dir)

    def test_simulate_file_in_out_dir(self, capsys, tmp_path):
        (tmp_path / "run" / "feedback.csv").mkdir(parents=True)
        result = run_cli(
            capsys, "simulate", "--spec", json.dumps(SPEC_JSON), "--out-dir", str(tmp_path / "run")
        )
        self._assert_cannot_write(result, tmp_path / "run" / "feedback.csv")
