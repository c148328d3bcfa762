"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantity so a
``pytest -v -s`` run doubles as the acceptance report. Monte Carlo oracles
are written directly against numpy here, independent of the package's own
sampling path.
"""

import json
import math
import subprocess
import sys

import numpy as np

from uncertain_eval import (
    FeedbackDataset,
    GaussianDistribution,
    McConfig,
    PopulationSpec,
    PredictionSet,
    ObservationSet,
    RatingScale,
    barrier_distribution,
    denoise_preprocess,
    distinguishability_test,
    omit_insignificant,
    relation_test,
    rmse_distribution,
)

from conftest import child_env
from oracles import fit_roundtrip_check, predictor_noise_deviation, variance_match_check


def report(capsys, criterion: str, ok: bool, detail: str) -> None:
    # print outside pytest's capture so the acceptance report is always visible
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def dataset_from_sigmas(sigmas) -> FeedbackDataset:
    n = len(sigmas)
    users = [f"u{i:06d}" for i in range(n)]
    return FeedbackDataset.from_ids(users, ["i1"] * n, [3.0] * n, [float(s) for s in sigmas])


def barrier_from_std(std: float) -> GaussianDistribution:
    return GaussianDistribution(mean=1.0, variance=std * std)


def test_criterion_01_closed_form_barrier(capsys):
    b = barrier_distribution(dataset_from_sigmas([1.0] * 2000))
    mean_exact = b.mean == 1.0
    var_ok = abs(b.variance - 0.00025) <= 1e-12 * 0.00025
    report(
        capsys,
        "criterion 1 closed-form barrier",
        mean_exact and var_ok,
        f"mean={b.mean!r} variance={b.variance!r}",
    )


def test_criterion_02_monte_carlo_barrier_oracle(capsys):
    rng = np.random.default_rng(20260810)
    n = 10000
    sigmas = rng.uniform(0.3, 1.2, n)
    b = barrier_distribution(dataset_from_sigmas(sigmas))

    # independent oracle: resample the metric floor directly
    m = 100000
    samples = np.empty(m)
    pos = 0
    while pos < m:
        rows = min(500, m - pos)
        eps = rng.standard_normal((rows, n)) * sigmas[None, :]
        samples[pos : pos + rows] = np.sqrt(np.mean(eps * eps, axis=1))
        pos += rows

    mean_err = abs(float(np.mean(samples)) - b.mean) / b.mean
    var_err = abs(float(np.var(samples, ddof=1)) - b.variance) / b.variance
    report(
        capsys,
        "criterion 2 Monte Carlo barrier oracle",
        mean_err < 0.01 and var_err < 0.05,
        f"relative mean error={mean_err:.5f} relative variance error={var_err:.5f}",
    )


def test_criterion_03_variance_match_claim(capsys):
    rng = np.random.default_rng(31337)
    data = dataset_from_sigmas(rng.uniform(0.3, 1.2, 10000))
    deviation = variance_match_check(data, McConfig(sample_count=100000, seed=808))
    report(
        capsys,
        "criterion 3 variance match",
        deviation < 0.05,
        f"relative variance deviation={deviation:.5f}",
    )


def test_criterion_04_distinguishability_equivalence(capsys):
    rng = np.random.default_rng(44)
    mismatches = 0
    for _ in range(1000):
        s1, s2 = rng.uniform(0.0, 2.0, 2)
        std = rng.uniform(1e-4, 0.5)
        r = distinguishability_test(s1, s2, barrier_from_std(std))
        coverage_verdict = not (
            r["ci_low"] <= s1 <= r["ci_high"] and r["ci_low"] <= s2 <= r["ci_high"]
        )
        closed_form_verdict = abs(s1 - s2) > 2 * 1.959964 * std
        if coverage_verdict != r["distinguishable"]:
            mismatches += 1
        elif closed_form_verdict != r["distinguishable"]:
            mismatches += 1
    report(
        capsys,
        "criterion 4 CI-coverage equals closed form",
        mismatches == 0,
        f"mismatches={mismatches}/1000",
    )


def test_criterion_05_published_score_reproduction(capsys):
    s_knn, s_svd = 0.8647, 0.8800
    # quoted boundary 0.003903 is the derived crossover 0.0153 / 3.919928
    # = 0.0039031329... rounded down at the fourth significant digit; the
    # sweep samples both sides of the exact crossover.
    crossover = abs(s_svd - s_knn) / (2 * 1.959963984540054)
    ok = abs(crossover - 0.003903) < 5e-7
    detail = [f"crossover std={crossover:.9f}"]
    for std in [crossover * (1 + 1e-9), 0.0039032, 0.003904, 0.005, 0.01, 0.05]:
        r = distinguishability_test(s_knn, s_svd, barrier_from_std(std))
        ok &= not r["distinguishable"]
        if r["distinguishable"]:
            detail.append(f"unexpected distinguishable at std={std}")
    for std in [crossover * (1 - 1e-9), 0.0039, 0.003, 0.001, 0.0001]:
        r = distinguishability_test(s_knn, s_svd, barrier_from_std(std))
        ok &= r["distinguishable"]
        if not r["distinguishable"]:
            detail.append(f"unexpected indistinguishable at std={std}")
    report(capsys, "criterion 5 published-score reproduction", ok, "; ".join(detail))


def test_criterion_06_conservativeness(capsys):
    rng = np.random.default_rng(66)
    counterexamples = 0
    distinguishable_count = 0
    for _ in range(1000):
        s1, s2 = rng.uniform(0.0, 2.0, 2)
        variance = rng.uniform(1e-8, 0.25)
        verdict = distinguishability_test(
            s1, s2, barrier_from_std(math.sqrt(variance))
        )
        if verdict["distinguishable"]:
            distinguishable_count += 1
            low, high = min(s1, s2), max(s1, s2)
            rel = relation_test(
                GaussianDistribution(low, variance),
                GaussianDistribution(high, variance),
            )
            if not rel["holds"]:
                counterexamples += 1
    report(
        capsys,
        "criterion 6 conservativeness",
        counterexamples == 0,
        f"counterexamples={counterexamples} over "
        f"{distinguishable_count} distinguishable triples",
    )


def test_criterion_07_omission_calibration(capsys):
    n = 10000
    sigma_rng = np.random.default_rng(700)
    sigmas = sigma_rng.uniform(0.3, 1.2, n)
    data = dataset_from_sigmas(sigmas)

    in_band = 0
    fractions = []
    for rep in range(100):
        rng = np.random.default_rng(9000 + rep)
        deviations = rng.standard_normal(n) * sigmas
        predictions = PredictionSet.from_columns(data.keys, np.arange(n), 3.0 - deviations)
        result = omit_insignificant(data, predictions, 0.05)
        fractions.append(result.retained_fraction)
        if 0.04 <= result.retained_fraction <= 0.06:
            in_band += 1
    report(
        capsys,
        "criterion 7 omission calibration",
        in_band >= 95,
        f"{in_band}/100 repetitions in [0.04, 0.06], "
        f"mean fraction={np.mean(fractions):.4f}",
    )


def test_criterion_08_predictor_noise_law(capsys):
    law = predictor_noise_deviation(3.0, 0.8, prediction=3.0, tau=1.0)
    data = FeedbackDataset.from_ids(["u"], ["i"], [3.0], [0.8])
    predictions = PredictionSet.from_ids(["u"], ["i"], [3.0])
    dist = rmse_distribution(
        data, predictions, McConfig(sample_count=100000, seed=888, predictor_tau=1.0)
    )
    # one pair with mu = pi: each sample is |deviation|, so the sample
    # second moment estimates the deviation variance
    empirical = float(np.mean(dist.samples**2))
    rel_err = abs(empirical - law.variance) / law.variance
    law_ok = abs(law.variance - 1.64) <= 1e-12 * 1.64
    report(
        capsys,
        "criterion 8 predictor-noise law",
        law_ok and rel_err < 0.03,
        f"law variance={law.variance} empirical={empirical:.5f} "
        f"relative error={rel_err:.5f}",
    )


def test_criterion_09_denoise_postcondition(capsys):
    rng = np.random.default_rng(99)
    groups = {}
    for g in range(1000):
        size = int(rng.integers(2, 9))
        groups[f"g{g:04d}"] = rng.uniform(0.0, 6.0, size)

    ok = True
    details = []
    for threshold in (0.5, 1.0, 2.0):
        users = [name for name, vs in groups.items() for _ in vs]
        trials = [t for vs in groups.values() for t in range(len(vs))]
        ratings = [float(v) for vs in groups.values() for v in vs]
        obs = ObservationSet.from_ids(users, ["i1"] * len(users), trials, ratings)
        result = denoise_preprocess(obs, None, threshold=threshold)
        out = result.observations
        converged = violations = size_changes = 0
        for name, values in groups.items():
            (p,) = np.flatnonzero((out.keys.users == name) & (out.keys.items == "i1"))
            out_values = out.value[out.pair == p]
            if len(out_values) != len(values):
                size_changes += 1
            if p in result.unconverged_keys:
                continue
            converged += 1
            if max(out_values) - min(out_values) > threshold + 1e-12:
                violations += 1
        ok &= violations == 0 and size_changes == 0
        details.append(
            f"theta={threshold}: converged={converged}/1000 "
            f"violations={violations} size_changes={size_changes}"
        )
    report(capsys, "criterion 9 de-noise postcondition", ok, "; ".join(details))


def test_criterion_10_fit_roundtrip(capsys):
    spec = PopulationSpec(
        n_users=2,
        n_items=3,
        scale=RatingScale(-50.0, 50.0),
        sigma_lo=0.5,
        sigma_hi=0.5,
        density=1.0,
        seed=1010,
    )
    worst = fit_roundtrip_check(spec, k=100000)
    report(
        capsys,
        "criterion 10 fit roundtrip",
        worst < 0.02,
        f"max relative sigma error={worst:.5f} (tolerance 0.02)",
    )


def _run_cli(args, threads, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "uncertain_eval.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=child_env(UNCERTAIN_EVAL_THREADS=str(threads)),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_11_cli_determinism(capsys, tmp_path):
    # identical commands with identical relative paths, run from per-thread
    # working directories so only UNCERTAIN_EVAL_THREADS differs
    spec = {
        "n_users": 20,
        "n_items": 10,
        "scale": {"min_value": 1.0, "max_value": 5.0, "discrete_step": 1.0},
        "sigma_lo": 0.3,
        "sigma_hi": 1.0,
        "density": 0.8,
        "seed": 4242,
    }

    sim_outputs = {}
    for threads in (1, 8):
        cwd = tmp_path / f"run_t{threads}"
        cwd.mkdir()
        (cwd / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        stdout = _run_cli(
            ["simulate", "--spec", "spec.json", "--trials", "5",
             "--out-dir", "out"],
            threads,
            cwd,
        )
        files = {
            name: (cwd / "out" / name).read_bytes()
            for name in (
                "observations.csv",
                "feedback.csv",
                "predictions.csv",
                "manifest.json",
            )
        }
        sim_outputs[threads] = (stdout, files)
    sim_ok = sim_outputs[1] == sim_outputs[8]

    mc_outputs = {}
    for threads in (1, 8):
        cwd = tmp_path / f"run_t{threads}"
        stdout = _run_cli(
            ["rmse-dist", "--feedback", "out/feedback.csv",
             "--pred", "out/predictions.csv",
             "--samples", "4096", "--seed", "99", "--dump", "dump.csv"],
            threads,
            cwd,
        )
        mc_outputs[threads] = (
            stdout,
            (cwd / "dump.csv").read_bytes(),
            (cwd / "dump.csv.manifest.json").read_bytes(),
        )
    mc_ok = mc_outputs[1] == mc_outputs[8]

    report(
        capsys,
        "criterion 11 CLI determinism",
        sim_ok and mc_ok,
        f"simulate byte-identical={sim_ok} rmse-dist byte-identical={mc_ok} "
        f"(threads 1 vs 8)",
    )
