#!/usr/bin/env python3
"""Grid search on a synthetic graph plus a paired comparison of the two leaders.

Enumerates a multi-scale model grid over (alpha, beta, self-loop handling),
ranks configurations by mean validation accuracy across splits, and runs the
signed-rank test between the top two on their per-split test accuracies.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scalegraph.graphdata import generate_dsbm, make_random_splits
from scalegraph.harness import TrainConfig, grid_search, leaderboard_tsv, wilcoxon_signed_rank
from scalegraph.models import ModelConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--classes", type=int, default=5)
    parser.add_argument("--splits", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-epochs", type=int, default=120)
    args = parser.parse_args()

    graph = generate_dsbm(args.n, args.classes, 0.10, 0.01, feature_noise=0.5,
                          seed=args.seed)
    splits = make_random_splits(graph, n_splits=args.splits, seed=0)
    tc = TrainConfig(max_epochs=args.max_epochs, es_patience=30, lr_patience=12)

    space = [ModelConfig(alpha=alpha, beta=beta, gamma=-1.0, layers=1, hidden=32,
                         lr=0.05, selfloop_mode=selfloop)
             for alpha in (0.5, 1.0) for beta in (-1.0, 0.5)
             for selfloop in ("add", "keep")]
    space += [ModelConfig(alpha=-1.0, beta=0.5, gamma=-1.0, layers=1, hidden=32,
                          lr=0.05, selfloop_mode=selfloop)
              for selfloop in ("add", "keep")]
    ranked = grid_search(space, graph, splits, train_cfg=tc, base_seed=0)
    sys.stdout.write(leaderboard_tsv(ranked))

    if len(ranked) > 1 and len(splits) >= 5:
        top, runner = ranked[0], ranked[1]
        try:
            cmp = wilcoxon_signed_rank(top.test_accs, runner.test_accs)
            print(f"\ntop-2 signed-rank: W={cmp.statistic} p={cmp.p_value:.4f} "
                  f"n={cmp.n_pairs} ({cmp.method})")
        except ValueError as exc:
            print(f"\ntop-2 signed-rank skipped: {exc}")


if __name__ == "__main__":
    main()
