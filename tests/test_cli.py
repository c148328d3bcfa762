import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
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
    draw_trials,
    fit_uncertainty,
    omit_insignificant,
    resolve_thread_count,
    run_strategy_comparison,
)
from uncertain_eval import cli
from uncertain_eval.cli import _load_population_spec, main
from uncertain_eval.rng import validate_seed

from conftest import child_env
from oracles import predictor_noise_deviation


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
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import uncertain_eval.cli, sys; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_imports_no_third_party_module_but_numpy():
    # modules a bare interpreter loads (``site`` may pull in packages
    # through ``.pth`` files) are loaded before the import and not counted
    code = (
        "import sys; bare = set(sys.modules); import uncertain_eval.cli; "
        "print(' '.join(sorted(set(sys.modules) - bare)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "uncertain_eval"}


def _python(*args, **kwargs):
    """A fresh interpreter run with the package's sources on its path."""
    env = child_env(UNCERTAIN_EVAL_THREADS="2")
    return subprocess.run([sys.executable, *map(str, args)], env=env, **kwargs)


# What loads only where it is used: the Monte Carlo pool and a generated
# seed, which a spec that holds a seed does not need. No normal quantile is
# computed, so ``statistics`` never loads.
LAZY_PROBE = """
import sys
import uncertain_eval.cli as cli
lazy = ("concurrent.futures", "secrets", "statistics")
print(*[name in sys.modules for name in lazy])
print(cli._load_population_spec(sys.argv[1]).seed, "secrets" in sys.modules)
import os
import numpy as np
from uncertain_eval import FeedbackDataset, McConfig, PredictionSet, rmse_distribution
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
    proc = _python("-c", LAZY_PROBE, json.dumps(SPEC_JSON), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, seeded, same, after = proc.stdout.splitlines()
    assert before == "False False False"
    assert seeded == "77 False"
    assert same == "True True"
    assert after == "True True False"


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

    def test_all_single_trial_pairs_with_pooled_fallback_exits_2(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "user_id,item_id,trial,rating\nu1,i1,0,3.0\nu2,i1,0,4.0\n", encoding="utf-8"
        )
        out = tmp_path / "feedback.csv"
        code, stdout, stderr = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "error: pooled sigma fallback needs at least one pair with >= 2 trials\n"
        assert list(tmp_path.iterdir()) == [obs]

    # Two 2-trial pairs rated +-7.07e153 would have sigma 9.998e153, whose
    # square overflows float64; the ratings lie outside the domain.
    BIG_SPREAD = "u1,i1,0,7.07e153\nu1,i1,1,-7.07e153\nu2,i1,0,7.07e153\nu2,i1,1,-7.07e153\n"

    @pytest.mark.parametrize("single", ["", "u3,i1,0,1.0\n"], ids=["multi", "with single"])
    def test_spread_beyond_the_square_of_float64_exits_2(self, capsys, tmp_path, single):
        obs = tmp_path / "obs.csv"
        obs.write_text(OBS_HEADER + self.BIG_SPREAD + single, encoding="utf-8")
        out = tmp_path / "feedback.csv"
        code, stdout, stderr = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(out))
        assert (code, stdout) == (2, "")
        message = "rating value must lie in [-1e+50, 1e+50], got 7.07e+153"
        assert stderr == f"error: {obs}:2: {message}\n"
        assert list(tmp_path.iterdir()) == [obs]

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

    def test_midpoint_beyond_float64_is_taken_in_halves(self, capsys, tmp_path):
        # s1 + s2 overflows float64; the sum of their halves does not
        feedback = tmp_path / "feedback.csv"
        write_uniform_feedback(feedback)
        code, stdout, stderr = run_cli(
            capsys, "distinguish", "--feedback", str(feedback), "--s1", "1.7e308", "--s2", "1.7e308"
        )
        assert (code, stderr) == (0, "")
        report = json.loads(stdout)
        assert (report["shift_mean"], report["z_gap"]) == (1.7e308, 0.0)
        assert report["distinguishable"] is False


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
        assert stderr == "error: tau must lie in [0, 1e+50], got -1.0\n"

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
        assert stderr == "error: tau must lie in [0, 1e+50], got -1.0\n"

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


class TestDrawsBeyondFloat64:
    """Trial draws at the domain's edge: rejected where they leave it, clamped where discretised."""

    def _simulate(self, tmp_path, spec, *options):
        return _python(
            "-m", "uncertain_eval", "simulate", "--spec", json.dumps(spec), "--trials", "4",
            "--out-dir", tmp_path / "run", *options, capture_output=True, text=True,
        )

    def test_spread_beyond_the_domain_exits_2(self, tmp_path):
        # a spread whose draws would overflow float64 is refused with the spec
        spec = dict(SPEC_JSON, sigma_lo=1e308, sigma_hi=1.7e308, seed=1)
        proc = self._simulate(tmp_path, spec)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: sigma_lo must lie in [0, 1e+50], got 1e+308\n"
        assert not (tmp_path / "run").exists()

    def test_draw_beyond_the_domain_exits_2(self, tmp_path):
        # the spec lies in the domain; some of its draws do not
        scale = {"min_value": 9e49, "max_value": 1e50}
        spec = dict(SPEC_JSON, scale=scale, sigma_lo=1e50, sigma_hi=1e50, seed=1)
        proc = self._simulate(tmp_path, spec)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: rating value must lie in [-1e+50, 1e+50], got 3.4555836647504996e+50\n"
        )
        assert not (tmp_path / "run").exists()

    def test_discretising_beyond_float64_clamps_to_the_scale(self, tmp_path):
        # some draws lie so far above the scale's minimum that discretising
        # them overflows float64; no draw is beyond float64 itself
        scale = {"min_value": -1e50, "max_value": 0.0, "discrete_step": 1e-258}
        spec = dict(SPEC_JSON, scale=scale, sigma_lo=5e49, sigma_hi=5e49, seed=1)
        proc = self._simulate(tmp_path, spec, "--discretise")
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        rows = (tmp_path / "run" / "observations.csv").read_text(encoding="utf-8").splitlines()
        ratings = [float(row.split(",")[3]) for row in rows[1:]]
        assert len(ratings) == 16
        assert min(ratings) >= -1e50 and max(ratings) == 0.0


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
     "n_users must be an integer, got str"),
    ("non_numeric_float", dict(SPEC_JSON, sigma_lo="low"),
     "sigma_lo must be a number, got str"),
    ("non_numeric_scale", _with_scale(max_value="top"),
     "max_value must be a number, got str"),
    ("null_float", dict(SPEC_JSON, density=None),
     "density must be a number, got NoneType"),
    # a number in a JSON string is still a string
    ("numeric_string_int", dict(SPEC_JSON, n_users="3"),
     "n_users must be an integer, got str"),
    ("numeric_string_float", dict(SPEC_JSON, sigma_lo="0.3"),
     "sigma_lo must be a number, got str"),
    ("numeric_string_seed", dict(SPEC_JSON, seed="12"),
     "seed must be an integer, got str"),
    ("scale_value_error", _with_scale(min_value=5.0, max_value=1.0),
     "rating scale needs min_value < max_value, got [5.0, 1.0]"),
    ("fractional_int", dict(SPEC_JSON, n_users=2.7),
     "n_users must be an integer, got float"),
    ("fractional_seed", dict(SPEC_JSON, seed=77.5),
     "seed must be an integer, got float"),
    ("boolean_int", dict(SPEC_JSON, n_items=True),
     "n_items must be an integer, got bool"),
    ("boolean_float", dict(SPEC_JSON, sigma_lo=False),
     "sigma_lo must be a number, got bool"),
    ("boolean_scale", _with_scale(discrete_step=True),
     "discrete_step must be a number, got bool"),
    ("zero_users", dict(SPEC_JSON, n_users=0), "n_users must be >= 1, got 0"),
    ("zero_items", dict(SPEC_JSON, n_items=0), "n_items must be >= 1, got 0"),
    ("inverted_bias", dict(SPEC_JSON, bias_lo=0.5, bias_hi=0.1),
     "bias prior needs bias_lo <= bias_hi, got [0.5, 0.1]"),
    # values whose span or sum would overflow float64 lie outside the domain
    ("scale_span_beyond_float64", _with_scale(min_value=-1.7e308, max_value=1.7e308),
     "min_value must lie in [-1e+50, 1e+50], got -1.7e+308"),
    ("continuous_scale_span_beyond_float64",
     dict(SPEC_JSON, scale={"min_value": -1.7e308, "max_value": 1.7e308}),
     "min_value must lie in [-1e+50, 1e+50], got -1.7e+308"),
    ("bias_span_beyond_float64", dict(SPEC_JSON, bias_lo=-1e308, bias_hi=1e308),
     "bias_lo must lie in [-1e+50, 1e+50], got -1e+308"),
    ("predictions_beyond_float64",
     dict(SPEC_JSON, scale={"min_value": 1e308, "max_value": 1.7e308},
          bias_lo=1e308, bias_hi=1e308),
     "min_value must lie in [-1e+50, 1e+50], got 1e+308"),
    # the spec lies in the domain; the predictions it makes do not
    ("predictions_beyond_the_domain",
     dict(SPEC_JSON, scale={"min_value": 9e49, "max_value": 1e50}, bias_lo=1e50, bias_hi=1e50),
     "prediction must lie in [-1e+50, 1e+50], got 1.9009047747647157e+50"),
    # JSON text -Infinity, which Python's JSON reader accepts
    ("infinite_scale_bound", _with_scale(min_value=-math.inf),
     "min_value must lie in [-1e+50, 1e+50], got -inf"),
    ("infinite_sigma_bound", dict(SPEC_JSON, sigma_hi=math.inf),
     "sigma_hi must lie in [0, 1e+50], got inf"),
    ("negative_sigma_bound", dict(SPEC_JSON, sigma_lo=-0.1),
     "sigma_lo must lie in [0, 1e+50], got -0.1"),
    ("inverted_sigma", dict(SPEC_JSON, sigma_lo=0.8, sigma_hi=0.3),
     "sigma prior needs sigma_lo <= sigma_hi, got [0.8, 0.3]"),
    ("infinite_bias_bound", dict(SPEC_JSON, bias_lo=-math.inf),
     "bias_lo must lie in [-1e+50, 1e+50], got -inf"),
    ("step_count_beyond_float64", _with_scale(discrete_step=1e-320),
     "rating scale step count overflows float64: 4.0 / 1e-320"),
]


def _spec_file(data: bytes):
    def write(directory, monkeypatch):
        path = directory / "spec.json"
        path.write_bytes(data)
        return str(path)

    return write


def _unreadable_spec(directory, monkeypatch):
    # a mode bit would not stop a suite that runs as root
    def denied(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

    monkeypatch.setattr(Path, "read_text", denied)
    return str(directory / "spec.json")


def _os_fault(code):
    return f"cannot read {{spec}}: [Errno {code}] {os.strerror(code)}: '{{spec}}'"


# Each spec file or text that breaks the read or JSON rules: (id, writer of
# the --spec argument in a directory, message with {spec} for that argument).
HOSTILE_SPECS = [
    ("name_beyond_255_bytes", lambda directory, _: str(directory / ("s" * 300)),
     _os_fault(errno.ENAMETOOLONG)),
    ("not_utf8", _spec_file(b'{"n_users": "\xff"}'),
     "cannot read {spec}: 'utf-8' codec can't decode byte 0xff in position 13: "
     "invalid start byte"),
    ("unreadable", _unreadable_spec, _os_fault(errno.EACCES)),
    ("directory", lambda directory, _: str(directory), _os_fault(errno.EISDIR)),
    ("deep_nesting", _spec_file(b"[" * 200_000),
     "spec is not valid JSON: maximum recursion depth exceeded while decoding a JSON array "
     "from a unicode string"),
    ("integer_beyond_4300_digits", _spec_file(b'{"n_users": ' + b"1" * 5000 + b"}"),
     "spec is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
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
            (dict(SPEC_JSON, n_users=1e400), "n_users must be an integer, got float"),
            (dict(SPEC_JSON, sigma_hi=10**400), "sigma_hi must lie in [0, 1e+50], got inf"),
        ],
        ids=["infinite_int", "huge_float"],
    )
    def test_overflowing_value_exits_2(self, capsys, tmp_path, spec, message):
        code, _, stderr = self._simulate(capsys, tmp_path, spec)
        assert code == 2
        assert stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "write, message", [f[1:] for f in HOSTILE_SPECS], ids=[f[0] for f in HOSTILE_SPECS]
    )
    def test_hostile_spec_exits_2(self, capsys, tmp_path, monkeypatch, write, message):
        spec = write(tmp_path, monkeypatch)
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--spec", spec, "--out-dir", str(tmp_path / "run")
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message.replace('{spec}', spec)}\n"
        assert not (tmp_path / "run").exists()

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, monkeypatch):
        # a spec file is read as the CSV readers read theirs
        runs = []
        for name, mark in (("plain", b""), ("marked", "\ufeff".encode())):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            Path("spec.json").write_bytes(mark + json.dumps(SPEC_JSON).encode())
            result = run_cli(capsys, "simulate", "--spec", "spec.json", "--out-dir", "run")
            files = {path.name: path.read_bytes() for path in sorted(Path("run").iterdir())}
            runs.append((result, files))
        assert runs[0][0][0] == 0
        assert runs[1] == runs[0]

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

    def test_draw_size_is_checked_before_the_population_is_drawn(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "generate_population", lambda spec: calls.append(spec))
        spec = dict(SPEC_JSON, n_users=10_000, n_items=1000)
        code, stdout, stderr = self._simulate(capsys, tmp_path, spec, "--trials", "6")
        assert (code, stdout, calls) == (2, "", [])
        assert stderr == "error: 10000000 pairs x 6 trials exceed 50000000 observation rows\n"

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

    def test_json_int_and_float_are_one_number(self, capsys, tmp_path, monkeypatch):
        # JSON has one number type: 2 and 2.0 load alike in an int or a float field
        specs = {
            "floats": dict(SPEC_JSON, n_users=2.0, seed=77.0, sigma_lo=0),
            "ints": dict(SPEC_JSON, n_users=2, seed=77, sigma_lo=0.0),
        }
        runs = []
        for name, spec in specs.items():
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            result = run_cli(
                capsys, "simulate", "--spec", json.dumps(spec), "--trials", "3", "--out-dir", "run"
            )
            files = {path.name: path.read_bytes() for path in sorted(Path("run").iterdir())}
            runs.append((result, files))
        assert runs[0] == runs[1]
        (code, _, _), files = runs[0]
        assert code == 0
        assert sorted(files) == [
            "feedback.csv", "manifest.json", "observations.csv", "predictions.csv"
        ]


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
        assert stderr == f"error: OBS:3: rating value must lie in [-1e+50, 1e+50], got {text}\n"

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
        assert stderr == "error: OBS:4: duplicate observation for u2/i trial 0\n"

    def test_non_finite_mu_in_feedback(self, capsys, tmp_path):
        feedback = tmp_path / "feedback.csv"
        feedback.write_text(FEEDBACK_HEADER + "u,i,3.0,0.5\nv,i,nan,0.5\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "distinguish", "--feedback", str(feedback), "--s1", "1", "--s2", "2"
        )
        assert code == 2
        assert stderr == f"error: {feedback}:3: mu must lie in [-1e+50, 1e+50], got nan\n"

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
        assert stderr == "error: PRED:3: prediction must lie in [-1e+50, 1e+50], got nan\n"

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
        ("u,i,0,3.0\nu,i,1,nan\n", "3: rating value must lie in [-1e+50, 1e+50], got nan"),
        ("u,i,0,3.0\nu,i,-1,3.0\n", "3: trial must be non-negative, got -1"),
        (f"u,i,{2**63},3.0\n", f"2: trial must be below 2**63, got {2**63}"),
        ("u,i,0,3.0\nu,i,x\nu,i,1,nan\n", "3: bad trial value 'x'"),
        ("u,i,0,3.0\nu,i\n", "3: row has too few fields"),
        ("u,i,0,3.0\nu,i,1,3.0,4.0\n", "3: row has too many fields"),
        ("u,i,0,3.0\n\n", "3: row has too few fields"),
        ("u,i,0,3.0\nu,i,1,nan", "3: rating value must lie in [-1e+50, 1e+50], got nan"),
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
         "trials per pair must be >= 1, got 0"),
        (["simulate", "--spec", "{dir}/missing.json", "--out-dir", "{dir}/run"],
         "cannot read {dir}/missing.json: "
         "[Errno 2] No such file or directory: '{dir}/missing.json'"),
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
         "s1 must be finite, got nan"),
        (["distinguish", "--feedback", "{feedback}", "--s1", "1", "--s2", "inf"],
         "s2 must be finite, got inf"),
        # missing files: de-noising without --obs is refused before any read
        (["strategies", "--feedback", "{dir}/nope.csv", "--pred", "{dir}/nope.csv",
          "--denoise-threshold", "1"],
         "de-noising needs raw repeated-trial observations"),
        (["strategies", "--pred", "{dir}/nope.csv", "--tau", "1"],
         "need --obs and/or --feedback"),
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
    # the column rules, given the numpy columns a file reader builds
    "trial column (index rule)": (
        lambda: ObservationSet.from_ids(*IDS, np.array([-1]), np.array([3.0])),
        "fit", OBS_HEADER, "u,i,-1,3.0",
    ),
    "rating column (bounded)": (
        lambda: ObservationSet.from_ids(*IDS, np.array([0]), np.array([math.nan])),
        "fit", OBS_HEADER, "u,i,0,nan",
    ),
    "mu column (bounded)": (
        lambda: FeedbackDataset.from_ids(*IDS, np.array([-math.inf]), np.array([0.5])),
        "distinguish", FEEDBACK_HEADER, "u,i,-inf,0.5",
    ),
    "sigma column (bounded, >= 0)": (
        lambda: FeedbackDataset.from_ids(*IDS, np.array([3.0]), np.array([math.inf])),
        "distinguish", FEEDBACK_HEADER, "u,i,3.0,inf",
    ),
}


# Each bad strategy setting: (library settings, `strategies` flags, message).
STRATEGY_SETTINGS = {
    "threshold 0": (
        {"denoise_threshold": 0.0}, "--denoise-threshold 0",
        "denoise threshold must be > 0, got 0.0",
    ),
    "threshold nan": (
        {"denoise_threshold": math.nan}, "--denoise-threshold nan",
        "denoise threshold must be > 0, got nan",
    ),
    "max iterations 0": (
        {"denoise_threshold": 1.0, "denoise_max_iterations": 0},
        "--denoise-threshold 1 --denoise-max-iterations 0", "max_iterations must be >= 1, got 0",
    ),
    "resampler mean": (
        {"denoise_threshold": 1.0, "denoise_resampler": "mean"},
        "--denoise-threshold 1 --denoise-resampler mean",
        "unknown resampler 'mean'; expected median or redraw",
    ),
    "seed -1": (
        {"denoise_threshold": 1.0, "denoise_seed": -1}, "--denoise-threshold 1 --denoise-seed -1",
        "seed must be >= 0, got -1",
    ),
    "alpha 0": ({"omit_alpha": 0.0}, "--omit-alpha 0", "alpha must lie in (0, 1), got 0.0"),
    "alpha 1": ({"omit_alpha": 1.0}, "--omit-alpha 1", "alpha must lie in (0, 1), got 1.0"),
    "alpha nan": ({"omit_alpha": math.nan}, "--omit-alpha nan", "alpha must lie in (0, 1), got nan"),
    "tau -1": ({"predictor_tau": -1.0}, "--tau -1", "tau must lie in [0, 1e+50], got -1.0"),
    "no strategy": ({}, "", "no strategy requested"),
}


def _strategy_calls(settings):
    """The library calls with ``settings``: the comparison always, de-noising
    and omission when they take every setting given (both take none)."""
    obs = ObservationSet.from_ids(*IDS, [0], [3.0])
    data = FeedbackDataset.from_ids(*IDS, [3.0], [0.5])
    pred = PredictionSet.from_ids(*IDS, [3.0])
    calls = [lambda: run_strategy_comparison(pred, observations=obs, **settings)]
    if "omit_alpha" not in settings and "predictor_tau" not in settings:
        denoise = {name.removeprefix("denoise_"): value for name, value in settings.items()}
        calls.append(lambda: denoise_preprocess(obs, data, **{"threshold": None, **denoise}))
    if not settings.keys() - {"omit_alpha"}:
        calls.append(lambda: omit_insignificant(data, pred, settings.get("omit_alpha")))
    return calls


def _spec(**values):
    """``PopulationSpec`` of ``SPEC_JSON`` with the given field values."""
    scale = RatingScale(**SPEC_JSON["scale"])
    return PopulationSpec(**{**SPEC_JSON, "scale": scale, **values})


# Each bad count, each bad real setting of a spec given as an int to the
# library, and each spec value of the wrong kind: (library call, command and
# options, spec field values, UNCERTAIN_EVAL_THREADS, message).
COUNT_RULES = {
    "samples 99": (
        lambda: McConfig(sample_count=99, seed=1), "rmse-dist --samples 99", {}, None,
        "sample_count must be >= 100, got 99",
    ),
    "samples 10000001": (
        lambda: McConfig(sample_count=10_000_001, seed=1), "rmse-dist --samples 10000001", {},
        None, "sample_count must be <= 10000000, got 10000001",
    ),
    "trials 0": (
        lambda: draw_trials(FeedbackDataset.from_ids(*IDS, [3.0], [0.5]), 0),
        "simulate --trials 0", {}, None, "trials per pair must be >= 1, got 0",
    ),
    "n_users 0": (
        lambda: _spec(n_users=0), "simulate", {"n_users": 0}, None, "n_users must be >= 1, got 0",
    ),
    "n_items 0": (
        lambda: _spec(n_items=0), "simulate", {"n_items": 0}, None, "n_items must be >= 1, got 0",
    ),
    "threads -1": (
        resolve_thread_count, "rmse-dist", {}, "-1", "UNCERTAIN_EVAL_THREADS must be >= 0, got -1",
    ),
    "threads 257": (
        resolve_thread_count, "rmse-dist", {}, "257",
        "UNCERTAIN_EVAL_THREADS must be <= 256, got 257",
    ),
    "density 0": (
        lambda: _spec(density=0), "simulate", {"density": 0}, None,
        "density must lie in (0, 1], got 0.0",
    ),
    "discrete_step 0": (
        lambda: RatingScale(**dict(SPEC_JSON["scale"], discrete_step=0)), "simulate",
        {"scale": dict(SPEC_JSON["scale"], discrete_step=0)}, None,
        "discrete_step must lie in (0, 1e+50], got 0.0",
    ),
    "string n_users": (
        lambda: _spec(n_users="two"), "simulate", {"n_users": "two"}, None,
        "n_users must be an integer, got str",
    ),
    "string max_value": (
        lambda: RatingScale(**dict(SPEC_JSON["scale"], max_value="top")), "simulate",
        {"scale": dict(SPEC_JSON["scale"], max_value="top")}, None,
        "max_value must be a number, got str",
    ),
    "boolean n_items": (
        lambda: _spec(n_items=True), "simulate", {"n_items": True}, None,
        "n_items must be an integer, got bool",
    ),
    "boolean sigma_lo": (
        lambda: _spec(sigma_lo=False), "simulate", {"sigma_lo": False}, None,
        "sigma_lo must be a number, got bool",
    ),
    "null density": (
        lambda: _spec(density=None), "simulate", {"density": None}, None,
        "density must be a number, got NoneType",
    ),
    "fraction n_users": (
        lambda: _spec(n_users=2.5), "simulate", {"n_users": 2.5}, None,
        "n_users must be an integer, got float",
    ),
    "fraction seed": (
        lambda: _spec(seed=77.5), "simulate", {"seed": 77.5}, None,
        "seed must be an integer, got float",
    ),
}


# Each bounded input at 2e50, one past the domain: (library call, command
# with {obs}, {feedback}, {pred} and {dir} for its files, the file row or
# spec field values that hold 2e50, message). A file names its line first.
BOUNDED_INPUTS = {
    "rating": (
        lambda: ObservationSet.from_ids(*IDS, [0], [2e50]),
        "fit --obs {obs} --out {dir}/out.csv", {"obs": "u,i,0,2e50"},
        "rating value must lie in [-1e+50, 1e+50], got 2e+50",
    ),
    "mu": (
        lambda: FeedbackDataset.from_ids(*IDS, [2e50], [0.5]),
        "distinguish --feedback {feedback} --s1 1 --s2 2", {"feedback": "u,i,2e50,0.5"},
        "mu must lie in [-1e+50, 1e+50], got 2e+50",
    ),
    "sigma": (
        lambda: FeedbackDataset.from_ids(*IDS, [3.0], [2e50]),
        "distinguish --feedback {feedback} --s1 1 --s2 2", {"feedback": "u,i,3.0,2e50"},
        "sigma must lie in [0, 1e+50], got 2e+50",
    ),
    "prediction": (
        lambda: PredictionSet.from_ids(*IDS, [2e50]),
        "rmse-dist --feedback {feedback} --pred {pred}", {"pred": "u,i,2e50"},
        "prediction must lie in [-1e+50, 1e+50], got 2e+50",
    ),
    "tau of McConfig": (
        lambda: McConfig(sample_count=100, seed=1, predictor_tau=2e50),
        "rmse-dist --feedback {feedback} --pred {pred} --tau 2e50", {},
        "tau must lie in [0, 1e+50], got 2e+50",
    ),
    "tau of strategies": (
        lambda: run_strategy_comparison(
            PredictionSet.from_ids(*IDS, [3.0]),
            data=FeedbackDataset.from_ids(*IDS, [3.0], [0.5]), predictor_tau=2e50,
        ),
        "strategies --feedback {feedback} --pred {pred} --tau 2e50", {},
        "tau must lie in [0, 1e+50], got 2e+50",
    ),
    "fixed fallback": (
        lambda: fit_uncertainty(ObservationSet.from_ids(*IDS, [0], [3.0]), 2e50),
        "fit --obs {obs} --out {dir}/out.csv --fallback fixed:2e50", {},
        "fixed sigma fallback must lie in [0, 1e+50], got 2e+50",
    ),
    "scale bound": (
        lambda: RatingScale(**dict(SPEC_JSON["scale"], max_value=2e50)),
        "simulate", {"scale": dict(SPEC_JSON["scale"], max_value=2e50)},
        "max_value must lie in [-1e+50, 1e+50], got 2e+50",
    ),
    "sigma_hi": (
        lambda: _spec(sigma_hi=2e50), "simulate", {"sigma_hi": 2e50},
        "sigma_hi must lie in [0, 1e+50], got 2e+50",
    ),
    "bias_lo": (
        lambda: _spec(bias_lo=2e50), "simulate", {"bias_lo": 2e50},
        "bias_lo must lie in [-1e+50, 1e+50], got 2e+50",
    ),
    "discrete_step": (
        lambda: RatingScale(**dict(SPEC_JSON["scale"], discrete_step=2e50)),
        "simulate", {"scale": dict(SPEC_JSON["scale"], discrete_step=2e50)},
        "discrete_step must lie in (0, 1e+50], got 2e+50",
    ),
}



def _no_thread(thread):
    raise AssertionError(f"thread {thread.name} started")


class TestOneMessagePerRule:
    """A value rule reads the same from the library and from a file or the CLI."""

    @pytest.mark.parametrize("setting", STRATEGY_SETTINGS)
    def test_strategy_setting_reads_the_same_everywhere(self, capsys, tmp_path, setting):
        settings, flags, message = STRATEGY_SETTINGS[setting]
        messages = []
        for call in _strategy_calls(settings):
            with pytest.raises(InputError) as info:
                call()
            messages.append(str(info.value))
        # the files are missing: the setting is checked before any is read
        code, stdout, stderr = run_cli(
            capsys, "strategies", "--obs", str(tmp_path / "obs.csv"),
            "--pred", str(tmp_path / "pred.csv"), *flags.split(),
        )
        assert (code, stdout) == (2, "")
        messages.append(stderr.removeprefix("error: ").removesuffix("\n"))
        assert messages == [message] * len(messages)

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


    @pytest.mark.parametrize("rule", COUNT_RULES)
    def test_count_reads_the_same_everywhere(self, capsys, tmp_path, monkeypatch, rule):
        call, command, values, threads, message = COUNT_RULES[rule]
        if threads is not None:
            monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", threads)
        # every count is rejected before any thread starts
        monkeypatch.setattr(threading.Thread, "start", _no_thread)
        with pytest.raises(InputError) as info:
            call()
        feedback = tmp_path / "feedback.csv"
        feedback.write_text(FEEDBACK_HEADER + "u,i,3.0,0.5\n", encoding="utf-8")
        pred = tmp_path / "pred.csv"
        pred.write_text(PRED_HEADER + "u,i,3.0\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC_JSON, **values}), encoding="utf-8")
        command, *options = command.split()
        argv = {
            "rmse-dist": ["--feedback", str(feedback), "--pred", str(pred)],
            "simulate": ["--spec", str(spec), "--out-dir", str(tmp_path / "run")],
        }[command]
        code, stdout, stderr = run_cli(capsys, command, *argv, *options)
        assert (code, stdout) == (2, "")
        assert [str(info.value), stderr] == [message, f"error: {message}\n"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be >= 0, got -1"), (2**64, f"seed must be <= {2**64 - 1}, got {2**64}")],
        ids=["-1", "2**64"],
    )
    def test_seed_reads_the_same_everywhere(self, capsys, tmp_path, seed, message):
        messages = []
        for call in (
            lambda: validate_seed(seed),
            lambda: McConfig(sample_count=100, seed=seed),
            lambda: _spec(seed=seed),
        ):
            with pytest.raises(InputError) as info:
                call()
            messages.append(str(info.value))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SPEC_JSON, seed=seed)), encoding="utf-8")
        # the data files are missing: the seed is checked before any is read
        missing = str(tmp_path / "missing.csv")
        for argv in (
            ["rmse-dist", "--feedback", missing, "--pred", missing, "--seed", str(seed)],
            ["strategies", "--obs", missing, "--pred", missing, "--denoise-threshold", "1",
             "--denoise-seed", str(seed)],
            ["simulate", "--spec", str(spec), "--out-dir", str(tmp_path / "run")],
        ):
            code, stdout, stderr = run_cli(capsys, *argv)
            assert (code, stdout) == (2, "")
            messages.append(stderr.removeprefix("error: ").removesuffix("\n"))
        assert messages == [message] * 6
        assert not (tmp_path / "run").exists()

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
        assert messages == ["prediction must lie in [-1e+50, 1e+50], got nan"] * 3

    @pytest.mark.parametrize("bounded", BOUNDED_INPUTS)
    def test_bound_reads_the_same_everywhere(self, capsys, tmp_path, bounded):
        call, command, values, message = BOUNDED_INPUTS[bounded]
        with pytest.raises(InputError) as info:
            call()
        rows = {"obs": "u,i,0,3.0", "feedback": "u,i,3.0,0.5", "pred": "u,i,3.0"}
        headers = {"obs": OBS_HEADER, "feedback": FEEDBACK_HEADER, "pred": PRED_HEADER}
        paths = {name: tmp_path / f"{name}.csv" for name in rows}
        for name, path in paths.items():
            path.write_text(headers[name] + values.get(name, rows[name]) + "\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPEC_JSON, **values}), encoding="utf-8")
        argv = command.format(dir=tmp_path, **paths).split()
        if argv[0] == "simulate":
            argv += ["--spec", str(spec), "--out-dir", str(tmp_path / "run")]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (2, "")
        line = "".join(f"{paths[name]}:2: " for name in values if name in paths)
        assert [str(info.value), stderr] == [message, f"error: {line}{message}\n"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "feedback.csv", "obs.csv", "pred.csv", "spec.json"
        ]


class TestSquareOverflow:
    """An input whose square would overflow float64 lies outside the domain: it
    exits 2 with one line naming it, its file line or its setting, and prints
    nothing."""

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
        assert proc.stderr == f"error: tau must lie in [0, 1e+50], got {float(tau)}\n"

    @pytest.mark.parametrize(
        "command, options",
        [
            ("distinguish", ["--s1", "1", "--s2", "2"]),
            ("strategies", ["--omit-alpha", "0.05"]),
            ("rmse-dist", ["--samples", "4096", "--seed", "3"]),
        ],
        ids=["distinguish", "strategies", "rmse-dist"],
    )
    def test_sigma_beyond_the_floor(self, tmp_path, command, options):
        feedback, pred = tmp_path / "feedback.csv", tmp_path / "pred.csv"
        feedback.write_text(FEEDBACK_HEADER + "u1,i,3.0,0.5\nu2,i,3.0,1e200\n", encoding="utf-8")
        pred.write_text(PRED_HEADER + "u1,i,3.0\nu2,i,3.5\n", encoding="utf-8")
        argv = ["--feedback", feedback] + ([] if command == "distinguish" else ["--pred", pred])
        proc = _python(
            "-m", "uncertain_eval", command, *argv, *options, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {feedback}:3: sigma must lie in [0, 1e+50], got 1e+200\n"

    OBSERVATIONS = "".join(f"u{u},i,{t},{3.0 + t / 2}\n" for u in (1, 2) for t in range(3))
    FEEDBACK = "u1,i,3.0,0.5\nu2,i,3.0,0.5\n"

    def _strategies(self, tmp_path, predictions, *options, observations=OBSERVATIONS):
        obs, feedback, pred = (tmp_path / name for name in ("obs.csv", "feedback.csv", "pred.csv"))
        obs.write_text(OBS_HEADER + observations, encoding="utf-8")
        feedback.write_text(FEEDBACK_HEADER + self.FEEDBACK, encoding="utf-8")
        pred.write_text(PRED_HEADER + predictions, encoding="utf-8")
        options = [{"{obs}": obs, "{feedback}": feedback}.get(o, o) for o in options]
        return _python(
            "-m", "uncertain_eval", "strategies", "--pred", pred, *options,
            capture_output=True, text=True,
        )

    @pytest.mark.parametrize(
        "options",
        [
            ["--feedback", "{feedback}", "--omit-alpha", "0.05"],
            ["--obs", "{obs}", "--denoise-threshold", "1"],
            ["--obs", "{obs}", "--tau", "0.5"],
        ],
        ids=["omission", "denoise", "tau"],
    )
    def test_point_score(self, tmp_path, options):
        proc = self._strategies(tmp_path, "u1,i,3.0\nu2,i,-1e200\n", *options)
        assert (proc.returncode, proc.stdout) == (2, "")
        pred = tmp_path / "pred.csv"
        message = "prediction must lie in [-1e+50, 1e+50], got -1e+200"
        assert proc.stderr == f"error: {pred}:3: {message}\n"

    def test_score_with_predictor_noise(self, tmp_path):
        # every square is finite; the mean square plus tau squared is not
        proc = self._strategies(
            tmp_path, "u1,i,-4e153\nu2,i,-4e153\n", "--feedback", "{feedback}", "--tau", "1.3e154"
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: tau must lie in [0, 1e+50], got 1.3e+154\n"

    def test_deviation_beyond_float64(self, tmp_path):
        feedback, pred = tmp_path / "feedback.csv", tmp_path / "pred.csv"
        feedback.write_text(FEEDBACK_HEADER + "u1,i,1e308,0.5\nu2,i,3.0,0.5\n", encoding="utf-8")
        pred.write_text(PRED_HEADER + "u1,i,-1e308\nu2,i,3.0\n", encoding="utf-8")
        proc = _python(
            "-m", "uncertain_eval", "rmse-dist", "--feedback", feedback, "--pred", pred,
            "--samples", "1024", "--seed", "3", capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {feedback}:2: mu must lie in [-1e+50, 1e+50], got 1e+308\n"

    # ratings whose sigma or mu would overflow float64 name their line, and
    # ratings at the domain's edge whose sigma lies beyond it name the column
    @pytest.mark.parametrize(
        "ratings, message",
        [(("1e200", "-1e200"), "{obs}:2: rating value must lie in [-1e+50, 1e+50], got 1e+200"),
         (("1.5e308", "1.5e308"),
          "{obs}:2: rating value must lie in [-1e+50, 1e+50], got 1.5e+308"),
         (("1e50", "1e50", "-1e50"),
          "sigma must lie in [0, 1e+50], got 1.1547005383792515e+50")],
        ids=["sigma", "mu", "edge"],
    )
    @pytest.mark.parametrize("command", ["fit", "strategies"])
    def test_fit_beyond_the_domain_exits_2(self, tmp_path, command, ratings, message):
        rows = self.OBSERVATIONS.splitlines(keepends=True)
        rows[: len(ratings)] = [f"u1,i,{t},{r}\n" for t, r in enumerate(ratings)]
        observations = "".join(rows)
        if command == "fit":
            obs = tmp_path / "obs.csv"
            obs.write_text(OBS_HEADER + observations, encoding="utf-8")
            proc = _python(
                "-m", "uncertain_eval", "fit", "--obs", obs, "--out", tmp_path / "out.csv",
                capture_output=True, text=True,
            )
        else:
            proc = self._strategies(
                tmp_path, "u1,i,3.0\nu2,i,3.0\n", "--obs", "{obs}", "--omit-alpha", "0.05",
                observations=observations,
            )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {message.format(obs=tmp_path / 'obs.csv')}\n"

    def test_denoise_median_beyond_float64(self, tmp_path):
        # the two middle ratings would sum beyond float64; they lie outside the domain
        ratings = ("1.5e308", "1.6e308", "1.7e308", "3")
        observations = "".join(f"u1,i,{t},{r}\n" for t, r in enumerate(ratings))
        observations += "".join(self.OBSERVATIONS.splitlines(keepends=True)[3:])
        proc = self._strategies(
            tmp_path, "u1,i,3.0\nu2,i,3.0\n", "--obs", "{obs}", "--feedback", "{feedback}",
            "--denoise-threshold", "1", observations=observations,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        message = "rating value must lie in [-1e+50, 1e+50], got 1.5e+308"
        assert proc.stderr == f"error: {tmp_path / 'obs.csv'}:2: {message}\n"


class TestDomainCorners:
    """Inputs at the domain's corners run clean: no command overflows float64."""

    def test_every_command_exits_0(self, tmp_path):
        # ratings of +-7e49 with a single-trial pair, predictions of +-1e50
        obs, feedback, pred = (tmp_path / name for name in ("obs.csv", "feedback.csv", "pred.csv"))
        ratings = {"u1": [7e49, -7e49, 7e49], "u2": [-7e49, -7e49, 7e49, 7e49], "u3": [7e49]}
        rows = [f"{u},i,{t},{r!r}\n" for u, values in ratings.items() for t, r in enumerate(values)]
        obs.write_text(OBS_HEADER + "".join(rows), encoding="utf-8")
        pred.write_text(PRED_HEADER + "u1,i,1e50\nu2,i,-1e50\nu3,i,-1e50\n", encoding="utf-8")
        commands = [
            ["fit", "--obs", obs, "--out", feedback, "--fallback", "fixed:1e50"],
            ["distinguish", "--feedback", feedback, "--s1", "1.7e308", "--s2=-1.7e308"],
            *[
                ["strategies", "--obs", obs, "--feedback", feedback, "--pred", pred,
                 "--denoise-threshold", "1", "--denoise-resampler", resampler,
                 "--tau", "1e50", "--omit-alpha", "0.05"]
                for resampler in ("median", "redraw")
            ],
            ["rmse-dist", "--feedback", feedback, "--pred", pred, "--tau", "1e50",
             "--samples", "1024", "--seed", "3"],
        ]
        for argv in commands:
            # a RuntimeWarning, as of an overflow, would end the child with exit 1
            proc = _python("-m", "uncertain_eval", *argv, capture_output=True, text=True)
            assert proc.returncode == 0, (argv[0], proc.stderr)
        rows = feedback.read_text(encoding="utf-8").splitlines()[1:]
        assert max(float(row.split(",")[3]) for row in rows) == 1e50

    @pytest.mark.parametrize("rating, trials", [(1e50, 18), (9.999999999999999e49, 21)])
    def test_fit_keeps_a_rounded_mean_in_the_domain(self, capsys, tmp_path, rating, trials):
        # numpy's mean of these trials rounds to 1.0000000000000003e+50; the exact mean,
        # the rating, lies in the domain, and so does the fitted mu
        obs, feedback, pred = (tmp_path / name for name in ("obs.csv", "feedback.csv", "pred.csv"))
        rows = "".join(f"u,i,{t},{rating!r}\n" for t in range(trials))
        obs.write_text(OBS_HEADER + rows, encoding="utf-8")
        pred.write_text(PRED_HEADER + "u,i,1e50\n", encoding="utf-8")
        for argv in (
            ["fit", "--obs", obs, "--out", feedback],
            ["distinguish", "--feedback", feedback, "--s1", "1", "--s2", "2"],
            ["strategies", "--obs", obs, "--pred", pred, "--tau", "1"],
        ):
            code, _, stderr = run_cli(capsys, *map(str, argv))
            assert code == 0, (argv[0], stderr)
        (row,) = feedback.read_text(encoding="utf-8").splitlines()[1:]
        assert row.split(",")[:3] == ["u", "i", repr(rating)]

    @pytest.mark.parametrize(
        "rating, trials", [(3.3, 7), (0.1, 3), (1e50, 18), (9.999999999999999e49, 21)]
    )
    def test_identical_trials_fit_to_no_spread(self, capsys, tmp_path, rating, trials):
        # numpy's mean of these trials rounds past the rating, and its std would
        # measure that rounding
        obs, feedback = tmp_path / "obs.csv", tmp_path / "feedback.csv"
        rows = "".join(f"u,i,{t},{rating!r}\n" for t in range(trials))
        obs.write_text(OBS_HEADER + rows, encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "fit", "--obs", str(obs), "--out", str(feedback))
        assert code == 0, stderr
        assert json.loads(stdout) == {"n": 1, "pooled_sigma": 0.0}
        (row,) = feedback.read_text(encoding="utf-8").splitlines()[1:]
        assert row.split(",") == ["u", "i", repr(rating), "0.0"]


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
