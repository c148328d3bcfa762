#!/usr/bin/env python3
"""Distinguishability of the published kNN-vs-SVD RMSE pair.

The de-noising pre-processing experiment reported user-based kNN at RMSE
0.8647 against plain SVD at 0.8800 on the Netflix data. This script sweeps
the noise-floor standard deviation and shows where the shifted-floor test
stops telling the two scores apart, alongside the relation test P(S1 >= S2)
at matching variances.

Run: python scripts/published_scores_demo.py [--s1 V --s2 V]
"""

import argparse

from uncertain_eval import (
    GaussianDistribution,
    Z_TWO_SIDED_95,
    distinguishability_test,
    relation_test,
)

STD_SWEEP = [0.0005, 0.001, 0.002, 0.003, 0.0039, 0.003904, 0.005, 0.01, 0.02, 0.05]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s1", type=float, default=0.8647)
    parser.add_argument("--s2", type=float, default=0.8800)
    args = parser.parse_args()

    gap = abs(args.s2 - args.s1)
    crossover = gap / (2 * Z_TWO_SIDED_95)
    print(f"scores: s1={args.s1}  s2={args.s2}  gap={gap:.6f}")
    print(f"verdict flips at floor std = gap / (2 * 1.959964) = {crossover:.6f}\n")

    header = f"{'floor std':>10}  {'z_gap':>8}  {'distinguishable':>15}  {'P(S1>=S2)':>10}  {'S1<S2 holds':>11}"
    print(header)
    print("-" * len(header))
    for std in STD_SWEEP:
        floor = GaussianDistribution(mean=args.s1, variance=std * std)
        verdict = distinguishability_test(args.s1, args.s2, floor)
        rel = relation_test(
            GaussianDistribution(min(args.s1, args.s2), std * std),
            GaussianDistribution(max(args.s1, args.s2), std * std),
        )
        print(
            f"{std:>10.6f}  {verdict.z_gap:>8.3f}  {str(verdict.distinguishable):>15}"
            f"  {rel.p_opposite:>10.4f}  {str(rel.holds):>11}"
        )

    print(
        "\nAny plausible per-pair spread on a 1..5 scale puts the floor std well"
        "\nabove the crossover, so the published improvement is not significant"
        "\nunder human uncertainty. Note the relation test keeps holding for a"
        "\nband of stds where the floor test already gave up: it is the less"
        "\nstringent instrument by a factor of about 1.68."
    )


if __name__ == "__main__":
    main()
