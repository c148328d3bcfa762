"""Seeded inputs, command sequences and output checks of the four workloads.

Every input is generated here with numpy from the workload seed, never with
``uncertain_eval.simulate``, so a change to ``simulate`` cannot move the
inputs of the other workloads. Every check compares the program's output with
a reference computed here, within a tolerance; no check compares against the
bytes some version of the program wrote, because a columnar fit may change a
sigma in its last ulp and a cheaper Monte Carlo sampler changes sample bytes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# The four command groups of the benchmark run as two workloads: a run
# measures one workload for tens of seconds, which the host's throughput
# swings (up to 2x, in phases of 10-60 s) need for steady medians.
WORKLOADS = ("fit-strategies-90k", "mc-20k-simulate-90k")

# Scipy's norm.ppf(0.975), the value the package reports verdicts with.
Z_TWO_SIDED_95 = 1.959963984540054

SCALE_MIN, SCALE_MAX, SCALE_STEP = 1.0, 5.0, 1.0
TRIALS = 5
SINGLE_TRIAL_SHARE = 0.02
# With rounding to the 1-5 grid, about 40% of the 5-trial groups then spread
# by more than DENOISE_THRESHOLD, so de-noising has real work on every seed.
SIGMA_RANGE = (0.25, 1.2)
BIAS_RANGE = (-0.5, 0.5)
DENOISE_THRESHOLD = 1.0
DENOISE_MAX_ITERATIONS = 25
TAU = 1.0
OMIT_ALPHA = 0.05

# Tolerance for quantities recomputed here in another summation order.
RTOL = 1e-9
# Monte Carlo results must sit within this many standard errors of the law.
MC_SIGMAS = 6.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, smaller ones are for tests."""

    n_users: int = 3000
    n_items: int = 30
    mc_users: int = 1000
    mc_items: int = 20
    mc_samples: int = 10_000


@dataclass
class Command:
    """One CLI invocation and the check of what it printed and wrote."""

    name: str
    args: list[str]
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: dict[str, dict] = field(default_factory=dict)
    # Input properties the traced run reports as layer counts.
    counts: dict[str, float] = field(default_factory=dict)


def build(name: str, seed: int, workdir: Path, sizes: Sizes = Sizes()) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "fit-strategies-90k":
        pop, inputs = _observation_inputs(seed, workdir, sizes)
        parts = [_fit_part(seed, pop, inputs, workdir), _strategies_part(pop, inputs, workdir)]
    elif name == "mc-20k-simulate-90k":
        parts = [_mc_part(seed, workdir, sizes), _simulate_part(seed, workdir, sizes)]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    workload = Workload(name, [c for part in parts for c in part.commands])
    for part in parts:
        workload.inputs.update(part.inputs)
        workload.counts.update(part.counts)
    for info in workload.inputs.values():
        info["bytes"] = Path(info["path"]).stat().st_size
    return workload


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _ids(n: int, prefix: str) -> list[str]:
    width = len(str(n))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(n)]


def _pair_ids(n_users: int, n_items: int) -> tuple[list[str], list[str]]:
    """User and item id of every pair, in sorted key order."""
    users, items = _ids(n_users, "u"), _ids(n_items, "i")
    return (
        [u for u in users for _ in items],
        [i for _ in users for i in items],
    )


def _write_lines(path: Path, header: str, lines: list[str]) -> None:
    path.write_text(header + "\n" + "\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# fit-strategies-90k: repeated-trial observations


@dataclass
class Population:
    """Discretised trials per pair, with the reference fit of them."""

    users: list[str]
    items: list[str]
    values: np.ndarray  # (pairs, TRIALS); only the first n_trials are observed
    n_trials: np.ndarray
    predictions: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    pooled_sigma: float


def _population(seed: int, sizes: Sizes) -> Population:
    rng = _rng(seed, 0)
    n = sizes.n_users * sizes.n_items
    true_mu = rng.uniform(SCALE_MIN, SCALE_MAX, n)
    true_sigma = rng.uniform(*SIGMA_RANGE, n)
    raw = true_mu[:, None] + true_sigma[:, None] * rng.standard_normal((n, TRIALS))
    values = SCALE_MIN + np.round((raw - SCALE_MIN) / SCALE_STEP) * SCALE_STEP
    values = np.clip(values, SCALE_MIN, SCALE_MAX)
    n_trials = np.where(rng.random(n) < SINGLE_TRIAL_SHARE, 1, TRIALS)
    predictions = true_mu + rng.uniform(*BIAS_RANGE, n)

    multi = n_trials > 1
    if not multi.any():
        raise ValueError("population has no multi-trial pair to pool from")
    mu = np.where(multi, values.mean(axis=1), values[:, 0])
    sigma = np.zeros(n)
    sigma[multi] = values[multi].std(axis=1, ddof=1)
    pooled = math.sqrt(float(np.mean(sigma[multi] ** 2)))
    sigma[~multi] = pooled
    users, items = _pair_ids(sizes.n_users, sizes.n_items)
    return Population(users, items, values, n_trials, predictions, mu, sigma, pooled)


def _write_observations(path: Path, pop: Population, rng: np.random.Generator) -> int:
    """Write the observed trials in a seeded random order, as a log would hold them."""
    pair, trial = np.nonzero(np.arange(TRIALS)[None, :] < pop.n_trials[:, None])
    order = rng.permutation(pair.size)
    text = {v: repr(float(v)) for v in np.unique(pop.values)}
    lines = [
        f"{pop.users[p]},{pop.items[p]},{t},{text[pop.values[p, t]]}"
        for p, t in zip(pair[order].tolist(), trial[order].tolist())
    ]
    _write_lines(path, "user_id,item_id,trial,rating", lines)
    return len(lines)


def _write_predictions(path: Path, users, items, predictions: np.ndarray) -> None:
    lines = [f"{u},{i},{p!r}" for u, i, p in zip(users, items, predictions.tolist())]
    _write_lines(path, "user_id,item_id,prediction", lines)


def _observation_inputs(seed: int, workdir: Path, sizes: Sizes) -> tuple[Population, dict]:
    pop = _population(seed, sizes)
    obs_path = workdir / "observations.csv"
    rows = _write_observations(obs_path, pop, _rng(seed, 1))
    info = {
        "observations": {
            "path": str(obs_path),
            "rows": rows,
            "pairs": int(pop.mu.size),
            "single_trial_pairs": int(np.sum(pop.n_trials == 1)),
        }
    }
    return pop, info


def _floor(sigma: np.ndarray) -> tuple[float, float]:
    """Closed-form noise floor (mean, variance) of RMSE for spreads ``sigma``."""
    sum_sq = float(np.sum(sigma**2))
    sum_quad = float(np.sum(sigma**4))
    variance = sum_quad / sum_sq / (2.0 * sigma.size) if sum_sq > 0 else 0.0
    return math.sqrt(sum_sq / sigma.size), variance


def _verdict(s1: float, s2: float, floor_std: float) -> tuple[bool, float]:
    z_gap = abs(s1 - s2) / (2.0 * floor_std)
    return z_gap > Z_TWO_SIDED_95, z_gap


def _fit_part(seed: int, pop: Population, inputs: dict, workdir: Path) -> Workload:
    """``fit`` of the observations, then ``distinguish`` on the fitted file."""
    fitted = workdir / "feedback.csv"
    floor_mean, floor_var = _floor(pop.sigma)
    floor_std = math.sqrt(floor_var)
    # Half or twice the verdict threshold, so the verdict is never a rounding call.
    rng = _rng(seed, 2)
    factor = 0.5 if rng.random() < 0.5 else 2.0
    s1 = 0.9 + 0.1 * float(rng.random())
    s2 = s1 + factor * 2.0 * Z_TWO_SIDED_95 * floor_std

    def check_fit(stdout: str) -> list[str]:
        out = json.loads(stdout)
        errors = _expect("fit n", out["n"], pop.mu.size)
        errors += _close("fit pooled_sigma", out["pooled_sigma"], pop.pooled_sigma)
        header, cols = _read_csv(fitted)
        errors += _expect("feedback header", header, ["user_id", "item_id", "mu", "sigma"])
        if errors:
            return errors
        errors += _expect("feedback keys", (cols["user_id"], cols["item_id"]), (pop.users, pop.items))
        errors += _close_all("fitted mu", _floats(cols["mu"]), pop.mu)
        errors += _close_all("fitted sigma", _floats(cols["sigma"]), pop.sigma)
        if not Path(str(fitted) + ".manifest.json").is_file():
            errors.append("fit wrote no manifest")
        return errors

    def check_distinguish(stdout: str) -> list[str]:
        out = json.loads(stdout)
        distinguishable, z_gap = _verdict(s1, s2, floor_std)
        margin = Z_TWO_SIDED_95 * floor_std
        shift = 0.5 * (s1 + s2)
        errors = _close("barrier_mean", out["barrier_mean"], floor_mean)
        errors += _close("barrier_variance", out["barrier_variance"], floor_var)
        errors += _close("shift_mean", out["shift_mean"], shift)
        errors += _close("ci_low", out["ci_low"], shift - margin)
        errors += _close("ci_high", out["ci_high"], shift + margin)
        errors += _close("z_gap", out["z_gap"], z_gap)
        errors += _expect("distinguishable", out["distinguishable"], distinguishable)
        return errors

    return Workload(
        name="fit",
        commands=[
            Command("fit", ["fit", "--obs", inputs["observations"]["path"], "--out", str(fitted)], check_fit),
            Command(
                "distinguish",
                ["distinguish", "--feedback", str(fitted), "--s1", repr(s1), "--s2", repr(s2)],
                check_distinguish,
            ),
        ],
        inputs=inputs,
    )


def _denoise_reference(pop: Population) -> tuple[np.ndarray, int]:
    """Median rule of the de-noise strategy: (de-noised mu, groups treated).

    While a group spreads beyond the threshold, the value farthest from the
    group median (the lowest trial on ties) is replaced by the median.
    """
    multi = pop.n_trials > 1
    values = pop.values[multi].copy()
    rows = np.arange(values.shape[0])
    treated = (values.max(axis=1) - values.min(axis=1)) > DENOISE_THRESHOLD
    for _ in range(DENOISE_MAX_ITERATIONS):
        active = rows[(values.max(axis=1) - values.min(axis=1)) > DENOISE_THRESHOLD]
        if active.size == 0:
            break
        group = values[active]
        median = np.median(group, axis=1)
        farthest = np.argmax(np.abs(group - median[:, None]), axis=1)
        values[active, farthest] = median
    mu = pop.mu.copy()
    mu[multi] = values.mean(axis=1)
    return mu, int(treated.sum())


def _strategies_part(pop: Population, inputs: dict, workdir: Path) -> Workload:
    """All three strategies on the observations and biased predictions."""
    pred_path = workdir / "predictions.csv"
    _write_predictions(pred_path, pop.users, pop.items, pop.predictions)
    inputs["predictions"] = {"path": str(pred_path), "rows": int(pop.mu.size)}

    floor_std = math.sqrt(_floor(pop.sigma)[1])
    d = pop.mu - pop.predictions
    point = math.sqrt(float(np.mean(d * d)))
    denoised_mu, treated = _denoise_reference(pop)
    denoised = math.sqrt(float(np.mean((denoised_mu - pop.predictions) ** 2)))
    base = float(np.mean(d * d + pop.sigma**2))
    noise_before, noise_after = math.sqrt(base), math.sqrt(base + TAU * TAU)

    # Two-sided z-test p-value of each deviation against N(0, sigma^2); with
    # sigma = 0 any nonzero deviation is significant.
    p = np.array([
        math.erfc(abs(x) / (s * math.sqrt(2.0))) if s > 0 else float(x == 0.0)
        for x, s in zip(d.tolist(), pop.sigma.tolist())
    ])
    retained = p < OMIT_ALPHA
    borderline = int(np.sum(np.abs(p - OMIT_ALPHA) <= 1e-9 * OMIT_ALPHA))
    filtered = math.sqrt(float(np.mean(d[retained] ** 2))) if retained.any() else None

    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        got = [r.get("strategy") for r in out]
        errors = _expect("strategies", got, ["denoise", "predictor_noise", "omission"])
        if errors:
            return errors
        den, noise, omit = out
        errors += _close("denoise score_before", den["score_before"], point)
        errors += _close("denoise score_after", den["score_after"], denoised)
        errors += _report_verdict("denoise", den, point, denoised, floor_std)
        errors += _close("predictor_noise score_before", noise["score_before"], noise_before)
        errors += _close("predictor_noise score_after", noise["score_after"], noise_after)
        errors += _close(
            "mean_deviation_variance",
            noise["mean_deviation_variance"],
            float(np.mean(pop.sigma**2)) + TAU * TAU,
        )
        errors += _report_verdict("predictor_noise", noise, noise_before, noise_after, floor_std)
        n = pop.mu.size
        if abs(omit["retained_fraction"] - float(np.mean(retained))) * n > borderline + 1e-6:
            errors.append(
                f"omission retained_fraction {omit['retained_fraction']!r}, "
                f"reference {float(np.mean(retained))!r}"
            )
        if borderline == 0:
            if filtered is None:
                errors += _expect("omission score_after", omit["score_after"], None)
            else:
                errors += _close("omission score_after", omit["score_after"], filtered)
                errors += _report_verdict("omission", omit, point, filtered, floor_std)
        return errors

    return Workload(
        name="strategies",
        commands=[
            Command(
                "strategies",
                [
                    "strategies",
                    "--obs", inputs["observations"]["path"],
                    "--pred", str(pred_path),
                    "--denoise-threshold", repr(DENOISE_THRESHOLD),
                    "--tau", repr(TAU),
                    "--omit-alpha", repr(OMIT_ALPHA),
                ],
                check,
            )
        ],
        inputs=inputs,
        counts={"groups_treated": treated},
    )


def _report_verdict(name: str, report: dict, s1: float, s2: float, floor_std: float) -> list[str]:
    distinguishable, z_gap = _verdict(s1, s2, floor_std)
    # A verdict within 1e-9 of the threshold may go either way in the last ulp.
    if abs(z_gap - Z_TWO_SIDED_95) <= 1e-9 * Z_TWO_SIDED_95:
        return []
    return _close(f"{name} z_gap", report["z_gap"], z_gap) + _expect(
        f"{name} distinguishable", report["distinguishable"], distinguishable
    )


# --------------------------------------------------------------------------
# mc-20k-simulate-90k, first part: the Monte Carlo law of RMSE


def _rmse_law(b: np.ndarray, s2: np.ndarray) -> tuple[float, float]:
    """Second-order (delta method) mean and variance of RMSE.

    ``b`` is rating mean minus prediction and ``s2`` the deviation variance.
    """
    total = float(np.sum(b * b + s2))
    n = b.size
    mean = math.sqrt(total / n)
    variance = float(np.sum(2.0 * s2 * s2 + 4.0 * b * b * s2)) / (4.0 * n * total)
    return mean, variance


def _mc_part(seed: int, workdir: Path, sizes: Sizes) -> Workload:
    """``rmse-dist`` on one draw path, then on the two-draw path with a dump."""
    rng = _rng(seed, 3)
    n = sizes.mc_users * sizes.mc_items
    mu = rng.uniform(SCALE_MIN, SCALE_MAX, n)
    sigma = rng.uniform(*SIGMA_RANGE, n)
    predictions = mu + rng.uniform(*BIAS_RANGE, n)
    mc_seed = int(rng.integers(0, 2**63))
    users, items = _pair_ids(sizes.mc_users, sizes.mc_items)

    fb_path = workdir / "feedback.csv"
    lines = [f"{u},{i},{m!r},{s!r}" for u, i, m, s in zip(users, items, mu.tolist(), sigma.tolist())]
    _write_lines(fb_path, "user_id,item_id,mu,sigma", lines)
    pred_path = workdir / "predictions.csv"
    _write_predictions(pred_path, users, items, predictions)
    dump = workdir / "samples.csv"
    samples = sizes.mc_samples

    def checker(tau: float | None, dump_path: Path | None) -> Callable[[str], list[str]]:
        b = mu - predictions
        law_mean, law_var = _rmse_law(b, sigma**2 + (tau or 0.0) ** 2)

        def check(stdout: str) -> list[str]:
            out = json.loads(stdout)
            errors = _expect("sample_count", out["sample_count"], samples)
            errors += _expect("seed", out["seed"], mc_seed)
            # Standard errors of a sample mean and a sample variance.
            se_mean = math.sqrt(law_var / samples)
            se_var = law_var * math.sqrt(2.0 / (samples - 1))
            if abs(out["mean"] - law_mean) > MC_SIGMAS * se_mean:
                errors.append(f"rmse-dist mean {out['mean']!r} vs law {law_mean!r} (se {se_mean:.3g})")
            if abs(out["variance"] - law_var) > MC_SIGMAS * se_var:
                errors.append(f"rmse-dist variance {out['variance']!r} vs law {law_var!r} (se {se_var:.3g})")
            if dump_path is not None:
                errors += _check_dump(dump_path, out, mc_seed, samples)
            return errors

        return check

    base = ["rmse-dist", "--feedback", str(fb_path), "--pred", str(pred_path),
            "--samples", str(samples), "--seed", str(mc_seed)]
    return Workload(
        name="mc",
        commands=[
            Command("rmse-dist", base, checker(None, None)),
            Command("rmse-dist", [*base, "--tau", repr(TAU), "--dump", str(dump)], checker(TAU, dump)),
        ],
        inputs={
            "feedback": {"path": str(fb_path), "rows": n},
            "predictions": {"path": str(pred_path), "rows": n},
        },
    )


def _check_dump(path: Path, out: dict, mc_seed: int, samples: int) -> list[str]:
    header, cols = _read_csv(path)
    errors = _expect("dump header", header, ["sample_index", "score"])
    if errors:
        return errors
    errors += _expect("dump sample_index", cols["sample_index"], [str(i) for i in range(samples)])
    scores = _floats(cols["score"])
    if not np.all(np.isfinite(scores) & (scores >= 0)):
        errors.append("dump holds a negative or non-finite score")
    errors += _close("dump mean", float(np.mean(scores)), out["mean"])
    manifest = json.loads(Path(str(path) + ".manifest.json").read_text(encoding="utf-8"))
    errors += _expect("dump manifest seed", manifest.get("seed"), mc_seed)
    return errors


# --------------------------------------------------------------------------
# mc-20k-simulate-90k, second part: the write side


def _simulate_part(seed: int, workdir: Path, sizes: Sizes) -> Workload:
    """``simulate`` of a 90k discretised population: the write side of ``io``."""
    rng = _rng(seed, 4)
    spec_seed = int(rng.integers(0, 2**63))
    spec = {
        "n_users": sizes.n_users,
        "n_items": sizes.n_items,
        "scale": {"min_value": SCALE_MIN, "max_value": SCALE_MAX, "discrete_step": SCALE_STEP},
        "sigma_lo": SIGMA_RANGE[0],
        "sigma_hi": SIGMA_RANGE[1],
        "density": 1.0,
        "seed": spec_seed,
        "bias_lo": BIAS_RANGE[0],
        "bias_hi": BIAS_RANGE[1],
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_dir = workdir / "simulated"
    pairs = sizes.n_users * sizes.n_items

    def check(stdout: str) -> list[str]:
        out = json.loads(stdout)
        errors = _expect("pairs", out["pairs"], pairs)
        errors += _expect("trials", out["trials"], TRIALS)
        errors += _expect("observation_rows", out["observation_rows"], pairs * TRIALS)
        errors += _check_simulated(out_dir, pairs, spec_seed)
        return errors

    return Workload(
        name="simulate",
        commands=[
            Command(
                "simulate",
                ["simulate", "--spec", str(spec_path), "--trials", str(TRIALS), "--discretise",
                 "--out-dir", str(out_dir)],
                check,
            )
        ],
        inputs={"spec": {"path": str(spec_path), "pairs": pairs}},
    )


def _check_simulated(out_dir: Path, pairs: int, spec_seed: int) -> list[str]:
    headers = {
        "observations.csv": ["user_id", "item_id", "trial", "rating"],
        "feedback.csv": ["user_id", "item_id", "mu", "sigma"],
        "predictions.csv": ["user_id", "item_id", "prediction"],
    }
    tables = {}
    errors: list[str] = []
    for name, want in headers.items():
        header, cols = _read_csv(out_dir / name)
        errors += _expect(f"{name} header", header, want)
        tables[name] = cols
    if errors:
        return errors
    obs, fb, pred = (tables[n] for n in headers)
    errors += _expect("observation rows", len(obs["rating"]), pairs * TRIALS)
    errors += _expect("feedback rows", len(fb["mu"]), pairs)
    errors += _expect("prediction rows", len(pred["prediction"]), pairs)
    if errors:
        return errors

    fb_keys = set(zip(fb["user_id"], fb["item_id"]))
    if len(fb_keys) != pairs:
        errors.append("feedback keys are not unique")
    errors += _expect("prediction keys", (pred["user_id"], pred["item_id"]), (fb["user_id"], fb["item_id"]))
    trials_per_pair = Counter(zip(obs["user_id"], obs["item_id"]))
    if trials_per_pair.keys() != fb_keys or set(trials_per_pair.values()) != {TRIALS}:
        errors.append(f"observations do not hold {TRIALS} trials of every feedback pair")
    if Counter(obs["trial"]) != {str(t): pairs for t in range(TRIALS)}:
        errors.append(f"trial indices are not 0..{TRIALS - 1} once per pair")

    ratings = _floats(obs["rating"])
    steps = (ratings - SCALE_MIN) / SCALE_STEP
    if not (np.all(steps == np.round(steps)) and ratings.min() >= SCALE_MIN and ratings.max() <= SCALE_MAX):
        errors.append("a discretised rating is off the scale grid")
    mu, sigma = _floats(fb["mu"]), _floats(fb["sigma"])
    if mu.min() < SCALE_MIN or mu.max() > SCALE_MAX:
        errors.append("a generated mu lies outside the scale")
    if sigma.min() < SIGMA_RANGE[0] or sigma.max() > SIGMA_RANGE[1]:
        errors.append("a generated sigma lies outside [sigma_lo, sigma_hi]")
    bias = _floats(pred["prediction"]) - mu
    eps = 1e-9
    if bias.min() < BIAS_RANGE[0] - eps or bias.max() > BIAS_RANGE[1] + eps:
        errors.append("a prediction bias lies outside [bias_lo, bias_hi]")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    errors += _expect("simulate manifest seed", manifest.get("seed"), spec_seed)
    return errors


# --------------------------------------------------------------------------
# Helpers


def _read_csv(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    header_line, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    header = header_line.split(",")
    # One split over the whole body; a ragged row shifts every later cell,
    # which the checks then report.
    cells = body.replace("\n", ",").split(",")
    if cells[-1] == "":
        cells.pop()
    if len(cells) % len(header):
        raise ValueError(f"{path}: rows do not all have {len(header)} fields")
    return header, {name: cells[k :: len(header)] for k, name in enumerate(header)}


def _floats(column: list[str]) -> np.ndarray:
    return np.array(column, dtype=float)


def _expect(name: str, got, want) -> list[str]:
    if got == want:
        return []
    if len(repr(got)) + len(repr(want)) < 300:
        return [f"{name}: got {got!r}, expected {want!r}"]
    return [f"{name}: differs from the expected value"]


def _close(name: str, got, want, rtol: float = RTOL) -> list[str]:
    if got is None or not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12):
        return [f"{name}: got {got!r}, reference {want!r}"]
    return []


def _close_all(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: {got.size} values, reference has {want.size}"]
    bad = ~np.isclose(got, want, rtol=RTOL, atol=1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{name}: {int(bad.sum())} values differ, first at row {i + 2}: {float(got[i])!r}, reference {float(want[i])!r}"]
    return []
