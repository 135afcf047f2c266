"""The benchmark's workloads: inputs from a seed, set-up, timed phase, checks.

Each workload has these steps. ``prepare`` makes what is not timed (files
on disk) and ``describe`` says in numbers what the inputs are. ``setup`` turns
the prepared inputs into the objects the timed phase needs and is timed as
``setup_s``. ``run`` is the timed phase (``wall_s``); it issues
``expected_runs`` training runs and returns a summary, and ``check`` decides
from the summary and the runs' results whether the outcome is correct. All
scalegraph calls go through module attributes (``harness.train``, ...) so
that a tracer installed on those attributes sees them.
"""

import json
from pathlib import Path

import numpy as np

from scalegraph import graphdata, harness, models, scales, sparse

# criteria 07 and 08 train with this shortened protocol
DESK_TRAIN = harness.TrainConfig(max_epochs=120, es_patience=30, lr_patience=12)


def word_stats(adj):
    """nnz and fill of the six model words of one adjacency."""
    family = scales.model_matrix_family(adj.pattern())
    cells = adj.n_rows * adj.n_cols
    return {word: {"nnz": m.nnz, "fill": m.nnz / cells} for word, m in family.items()}


# -- grid-desk ------------------------------------------------------------------


def grid_space():
    """The ten-config scalenet space of criterion 08."""
    space = [models.ModelConfig(alpha=alpha, beta=beta, gamma=-1.0, layers=1, hidden=32,
                                lr=0.05, selfloop_mode=selfloop)
             for alpha in (0.5, 1.0) for beta in (-1.0, 0.5) for selfloop in ("add", "keep")]
    space += [models.ModelConfig(alpha=-1.0, beta=0.5, gamma=-1.0, layers=1, hidden=32,
                                 lr=0.05, selfloop_mode=selfloop)
              for selfloop in ("add", "keep")]
    return space


class GridDesk:
    """Criterion 08 as the acceptance test runs it, on the first two of its ten
    splits: a per-scale table, then the ten-config grid search, on the n=300
    homophilic dSBM of seed 42. Every training run keeps the seed it has in
    criterion 08; two splits keep one repetition to a few seconds.

    The inputs do not depend on the benchmark seed. The correctness check is
    criterion 08's statistical claim, which holds on this input but not on
    every input: with graph, split and training seeds all 17 and ten splits
    the champion is 1.07 points below the best column. Varying the inputs
    with the seed would make the check fail on some seeds without any change
    to the code.
    """

    name = "grid-desk"
    setup_repeats = 10
    graph_seed = 42

    def __init__(self, n=300, n_splits=2, train_cfg=DESK_TRAIN):
        self.n = n
        self.n_splits = n_splits
        self.train_cfg = train_cfg

    def prepare(self, seed, work_dir):
        return None

    def describe(self, prepared):
        g, _ = self.setup(prepared)
        return {"graphs": 1, "graph_seed": self.graph_seed, "n": g.n, "edges": g.adjacency.nnz,
                "splits": self.n_splits, "configs": len(grid_space()),
                "words": word_stats(g.adjacency)}

    def setup(self, prepared):
        g = graphdata.generate_dsbm(self.n, 5, 0.10, 0.01, feature_noise=0.5,
                                    seed=self.graph_seed)
        return g, graphdata.make_random_splits(g, n_splits=self.n_splits, seed=0)

    def expected_runs(self):
        return self.n_splits * (len(harness.PER_SCALE_COLUMNS) + len(grid_space()))

    def run(self, inputs):
        g, splits = inputs
        rep = harness.per_scale_report(g, splits, train_cfg=self.train_cfg, seeds=(0,))
        best = max((c for c in rep.columns if c.name != "none"), key=lambda c: c.mean)
        champion = harness.grid_search(grid_space(), g, splits, train_cfg=self.train_cfg,
                                       base_seed=0)[0]
        return {"best_column": best.name, "best_column_acc": best.mean,
                "champion_acc": champion.mean_test_acc}

    def check(self, summary, results):
        """Criterion 08: the champion is within one point of the best column."""
        return summary["champion_acc"] >= summary["best_column_acc"] - 0.01


# -- large-sparse ---------------------------------------------------------------


def write_large_graph(out_dir, seed, n=10_000, degree=10):
    """Write a homophilic five-class directed graph in the four-file dataset format.

    Every node draws a Poisson(``degree``) out-degree; each edge stays in the
    source's class with probability 0.8 and goes to a uniformly chosen other
    class otherwise. Self-loops and repeated edges are dropped. Features are
    the one-hot class plus Gaussian noise of deviation 0.5. Memory is
    O(edges + n); the same seed writes the same bytes. Returns the file paths
    and the edge keys ``src * n + dst``.
    """
    n_classes = 5
    if n % n_classes:
        raise ValueError(f"n must be a multiple of {n_classes}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    src = np.repeat(np.arange(n, dtype=np.int64), rng.poisson(degree, size=n))
    shift = np.where(rng.random(len(src)) < 0.8, 0, rng.integers(1, n_classes, size=len(src)))
    dst = (labels[src] + shift) % n_classes + n_classes * rng.integers(0, n // n_classes,
                                                                        size=len(src))
    keep = src != dst
    keys = np.unique(src[keep] * n + dst[keep])
    features = np.eye(n_classes)[labels] + rng.normal(0.0, 0.5, size=(n, n_classes))
    order = rng.permutation(n)
    n_train, n_val = n // 2, n // 4
    split = {"train": sorted(order[:n_train].tolist()),
             "val": sorted(order[n_train:n_train + n_val].tolist()),
             "test": sorted(order[n_train + n_val:].tolist())}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in ("edges.tsv", "features.csv", "labels.txt", "splits.json")]
    paths[0].write_text("".join(f"{k // n}\t{k % n}\n" for k in keys.tolist()))
    paths[1].write_text("".join(",".join(repr(v) for v in row) + "\n"
                                for row in features.tolist()))
    paths[2].write_text("".join(f"{y}\n" for y in labels.tolist()))
    paths[3].write_text(json.dumps({"splits": [split]}) + "\n")
    return paths, keys


class LargeSparse:
    """Two epochs of scalenet training on a 10k-node graph loaded from files.

    The graph comes from the benchmark seed. The model and training seed is
    fixed, so that the figures vary with the graph only. Two epochs keep a
    repetition near twenty seconds and lift the test accuracy from near
    chance (about 0.23 after one epoch) to about 0.8. The model is rebuilt
    for every repetition, so the timed epochs include the one-off caching of
    each model matrix's transpose.
    """

    name = "large-sparse"
    setup_repeats = 2
    model_seed = 0
    cfg = models.ModelConfig(alpha=0.5, beta=0.5, gamma=0.5, layers=2, hidden=16,
                             dropout=0.0, use_bn=False, lr=0.05)

    def __init__(self, n=10_000, degree=10, epochs=2):
        self.n = n
        self.degree = degree
        self.epochs = epochs
        self.train_cfg = harness.TrainConfig(max_epochs=epochs, es_patience=epochs,
                                             lr_patience=epochs)

    def prepare(self, seed, work_dir):
        return write_large_graph(Path(work_dir) / self.name, seed, n=self.n, degree=self.degree)

    def describe(self, prepared):
        _, keys = prepared
        adj = sparse.SparseMatrix.from_edges(self.n, keys // self.n, keys % self.n)
        return {"graphs": 1, "n": self.n, "edges": adj.nnz, "mean_out_degree": self.degree,
                "epochs": self.epochs, "words": word_stats(adj)}

    def setup(self, prepared):
        paths, _ = prepared
        g, splits = graphdata.load_dataset(*paths)
        return g, splits[0], models.build_model(self.cfg, g, seed=self.model_seed)

    def expected_runs(self):
        return 1

    def run(self, inputs):
        g, split, model = inputs
        result = harness.train(model, g, split, self.train_cfg, seed=self.model_seed)
        return {"epochs_run": result.epochs_run, "final_loss": result.history[-1][0]}

    def check(self, summary, results):
        """The history has the requested length (every run's history is also
        checked to be finite, for all workloads)."""
        return all(len(r.history) == r.epochs_run == self.epochs for r in results)


WORKLOADS = {w.name: w for w in (GridDesk(), LargeSparse())}
