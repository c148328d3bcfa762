#!/usr/bin/env python3
"""End-to-end synthetic experiment: do the uncertainty strategies help?

Pipeline: generate a population of uncertain users, draw repeated trials,
emit response histograms for a few pairs, fit per-pair (mu, sigma) back
from the trials, then run the three uncertainty-handling strategies against
the ground-truth predictions and print their reports. For each strategy the
report says whether the score movement it caused clears the noise floor's
95% band; with the defaults the de-noising movement stays inside it, while
predictor noise at the classic tau = 1 blows far past it (try --tau 0.2).

Run: python scripts/synthetic_strategies_demo.py [--out-dir DIR] [--seed N]
"""

import argparse
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from uncertain_eval import (
    InputError,
    PopulationSpec,
    RatingScale,
    Z_TWO_SIDED_95,
    barrier_distribution,
    draw_trials,
    fit_uncertainty,
    generate_population,
    run_strategy_comparison,
)
from uncertain_eval.io import write_feedback, write_observations
from uncertain_eval.rng import check_column, check_real

HISTOGRAM_HEADER = ["bin_lo", "bin_hi", "count"]

# Largest histogram a call may allocate.
MAX_HISTOGRAM_BINS = 1_000_000


def histogram(values: Sequence[float], bin_width: float) -> tuple[np.ndarray, ...]:
    """Contiguous fixed-width bins covering the observed range, as columns.

    Returns ``(bin_lo, bin_hi, count)``, one entry per bin. Bins are
    [lo, lo + width) anchored at the minimum; the bin count is
    floor(span / width) + 1 so the maximum always falls inside the last
    bin, and counts sum to the number of values. Each value must lie in
    [-1e50, 1e50] and the width in (0, 1e50], so every edge is finite.
    """
    bin_width = check_real(bin_width, "bin width", "lie in (0, 1e+50]")
    arr = check_column(values, "histogram value", len(values), "lie in [-1e+50, 1e+50]")
    if arr.size == 0:
        raise InputError("cannot build a histogram from zero observations")

    lo = float(np.min(arr))
    hi = float(np.max(arr))
    bins = (hi - lo) / bin_width
    # compared before flooring, so an infinite bin count is caught too
    if not bins < MAX_HISTOGRAM_BINS:
        raise InputError(f"histogram would need more than {MAX_HISTOGRAM_BINS} bins")
    n_bins = int(math.floor(bins)) + 1
    idx = np.floor((arr - lo) / bin_width).astype(int)
    idx = np.clip(idx, 0, n_bins - 1)
    edges = lo + np.arange(n_bins + 1) * bin_width
    return edges[:-1], edges[1:], np.bincount(idx, minlength=n_bins)


def write_histogram(path: Path, bins: Sequence[np.ndarray]) -> None:
    """The ``histogram`` columns as CSV, each number the ``repr`` of its Python value."""
    rows = [HISTOGRAM_HEADER, *zip(*(map(repr, column.tolist()) for column in bins))]
    text = "".join(",".join(row) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8", newline="")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--denoise-threshold", type=float, default=2.5)
    parser.add_argument("--tau", type=float, default=1.0)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = PopulationSpec(
        n_users=args.pairs,
        n_items=1,
        scale=RatingScale(1.0, 5.0, discrete_step=1.0),
        sigma_lo=0.3,
        sigma_hi=1.1,
        seed=args.seed,
    )
    truth, predictions = generate_population(spec)
    obs = draw_trials(truth, k=args.trials, seed=spec.seed)
    write_observations(out_dir / "observations.csv", obs)

    # response histograms for the first few pairs, one CSV each
    for i in range(3):
        bins = histogram(obs.value[obs.pair == i], bin_width=0.5)
        name = f"histogram_{obs.keys.users[i]}_{obs.keys.items[i]}.csv"
        write_histogram(out_dir / name, bins)

    fitted = fit_uncertainty(obs)
    write_feedback(out_dir / "fitted.csv", fitted)
    floor = barrier_distribution(fitted)
    print(
        f"population: {truth.N} pairs, {args.trials} trials each\n"
        f"fitted noise floor: mean={floor.mean:.4f} "
        f"std={floor.std:.6f} "
        f"(95% band half-width {2 * Z_TWO_SIDED_95 * floor.std:.4f})\n"
    )

    reports = run_strategy_comparison(
        predictions,
        observations=obs,
        data=fitted,
        denoise_threshold=args.denoise_threshold,
        denoise_seed=spec.seed,
        predictor_tau=args.tau,
        omit_alpha=0.05,
    )
    for r in reports:
        print(json.dumps(r, indent=2))

    print()
    for r in reports:
        if r["distinguishable"] is None:
            print(f"{r['strategy']}: no after-score, nothing to compare")
            continue
        effect = "SIGNIFICANT" if r["distinguishable"] else "inside the floor band"
        print(f"{r['strategy']}: score change {effect} (z_gap={r['z_gap']:.2f})")
    print(
        "\nThe omission line compares a filtered metric against an unfiltered"
        "\none; it has no common baseline with the other rows and is reported"
        f"\nin isolation. Outputs in {out_dir}/"
    )


if __name__ == "__main__":
    main()
