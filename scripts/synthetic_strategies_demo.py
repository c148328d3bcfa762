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
from pathlib import Path

from uncertain_eval import (
    DenoiseConfig,
    OmissionConfig,
    PopulationSpec,
    RatingScale,
    barrier_distribution,
    draw_trials,
    fit_uncertainty,
    generate_population,
    histogram,
    run_strategy_comparison,
)
from uncertain_eval.io import write_feedback, write_histogram, write_observations


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
    truth = generate_population(spec)
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
        f"population: {truth.dataset.N} pairs, {args.trials} trials each\n"
        f"fitted noise floor: mean={floor.mean:.4f} "
        f"std={floor.std:.6f} "
        f"(95% band half-width {2 * 1.959964 * floor.std:.4f})\n"
    )

    reports = run_strategy_comparison(
        truth.predictions,
        observations=obs,
        data=fitted,
        denoise=DenoiseConfig(threshold=args.denoise_threshold, seed=spec.seed),
        predictor_tau=args.tau,
        omission=OmissionConfig(alpha=0.05),
    )
    for r in reports:
        print(json.dumps(r.to_json_dict(), indent=2))

    print()
    for r in reports:
        if r.verdict is None:
            print(f"{r.strategy}: no after-score, nothing to compare")
            continue
        effect = "SIGNIFICANT" if r.verdict.distinguishable else "inside the floor band"
        print(f"{r.strategy}: score change {effect} (z_gap={r.verdict.z_gap:.2f})")
    print(
        "\nThe omission line compares a filtered metric against an unfiltered"
        "\none; it has no common baseline with the other rows and is reported"
        f"\nin isolation. Outputs in {out_dir}/"
    )


if __name__ == "__main__":
    main()
