"""The benchmark's tracer runs every command and reads the counts it reports.

``bench/tracing.py`` copies each layer's functions into span-recording
namespaces and reads fields of what they return (``entries[*].n_trials``,
``unconverged_keys``, ``retained_keys``, the ``McConfig`` fields and
``sample_count``). This runs each CLI command once through it, so a change
that breaks the traced run fails here rather than only under ``--trace 1``.
"""

import importlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

SPEC = {
    "n_users": 30,
    "n_items": 5,
    "scale": {"min_value": 1.0, "max_value": 5.0, "discrete_step": 1.0},
    "sigma_lo": 0.3,
    "sigma_hi": 1.0,
    "seed": 5,
}


def test_every_command_runs_traced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", "1")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    main = tracing.instrument(tracer)

    sim, fitted = tmp_path / "sim", tmp_path / "fitted.csv"
    obs, feedback, pred = (sim / name for name in ("observations.csv", "feedback.csv", "predictions.csv"))
    commands = [
        ["simulate", "--spec", json.dumps(SPEC), "--trials", "3", "--discretise", "--out-dir", sim],
        ["fit", "--obs", obs, "--out", fitted],
        ["distinguish", "--feedback", fitted, "--s1", "0.9", "--s2", "1.1"],
        ["rmse-dist", "--feedback", feedback, "--pred", pred, "--samples", "2048", "--seed", "3",
         "--tau", "0.5", "--dump", tmp_path / "dump.csv"],
        ["strategies", "--obs", obs, "--pred", pred, "--denoise-threshold", "1", "--tau", "0.5",
         "--omit-alpha", "0.05"],
    ]
    for args in commands:
        code, _, stderr = tracing._call(main, list(map(str, args)))
        assert code == 0, (args[0], stderr)

    def counts(name):
        return [span.counts for span in tracer.spans if span.name == name]

    # fit once, then strategies fits the observations and the de-noised ones
    assert counts("feedback.fit_uncertainty") == [{"pairs": 150, "single_trial_pairs": 0}] * 3
    (denoise,) = counts("strategies.denoise_preprocess")
    assert set(denoise) == {"unconverged"}
    (omission,) = counts("strategies.omit_insignificant")
    assert 0 <= omission["retained"] <= 150
    (mc,) = counts("metrics.rmse_distribution")
    assert (mc["samples"], mc["threads"]) == (2048, 1)
