#!/usr/bin/env python3
"""Per-scale accuracy tables on synthetic directed SBMs.

Trains one small channel model per scaled-graph column on a homophilic graph
(class signal in both edge directions) and on an in-starved graph (signal only
along forward edges), then prints both tables. The starved regime is where the
direction of aggregation starts to matter: columns built on reversed edges
collapse toward the no-input floor.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scalegraph.graphdata import DirectionProfile, generate_dsbm, make_random_splits
from scalegraph.harness import TrainConfig, per_scale_report


def run(name, graph_fn, seeds, args):
    tc = TrainConfig(max_epochs=args.max_epochs, es_patience=args.es_patience,
                     lr_patience=args.lr_patience)
    accs = {}
    for seed in seeds:
        g = graph_fn(seed)
        splits = make_random_splits(g, n_splits=1, seed=seed)
        report = per_scale_report(g, splits, train_cfg=tc, seeds=(seed,),
                                  include_shared_removed=args.shared_removed)
        for col in report.columns:
            accs.setdefault(col.name, []).append(col.mean)
    print(f"# {name} (mean over {len(seeds)} generator seeds)")
    print("column\tmean_acc")
    for col, values in accs.items():
        print(f"{col}\t{sum(values) / len(values):.4f}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--classes", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--max-epochs", type=int, default=120)
    parser.add_argument("--es-patience", type=int, default=30)
    parser.add_argument("--lr-patience", type=int, default=12)
    parser.add_argument("--shared-removed", action="store_true",
                        help="also report second-scale columns with first-scale edges removed")
    args = parser.parse_args()

    seeds = list(range(args.seeds))
    run("homophilic dSBM",
        lambda s: generate_dsbm(args.n, args.classes, 0.10, 0.01,
                                feature_noise=0.5, seed=100 + s),
        seeds, args)
    starved = DirectionProfile(signal="out", no_in_fraction=0.6)
    run("in-starved dSBM (60% of nodes without in-edges)",
        lambda s: generate_dsbm(args.n, args.classes, 0.25, 0.01,
                                profile=starved, feature_noise=0.5, seed=200 + s),
        seeds, args)


if __name__ == "__main__":
    main()
