"""Experiment harness: training protocol, per-scale reports, grid search, and
paired model comparison.

The training protocol is fixed: Adam, up to 1500 epochs, early stopping on
validation accuracy with a 410-epoch patience, a plateau LR scheduler with an
80-epoch patience, and restoration of the best-validation parameters.
"Improvement" always means strictly greater validation accuracy.
"""

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import product

import numpy as np

from scalegraph.autodiff import AdamState, adam_step, backward, softmax_cross_entropy
from scalegraph.graphdata import DataError, DirectedGraph, SplitSet
from scalegraph.models import MatrixPlan, ModelConfig, build_matrix_channel_model, build_model
from scalegraph.scales import SELFLOOP_MODES, remove_shared_edges
from scalegraph.sparse import SparseMatrix, sym_normalize


# the plateau scheduler's LR multiplier and the LR it never cuts below
LR_FACTOR = 0.5
MIN_LR = 1e-5


@dataclass
class TrainConfig:
    max_epochs: int = 1500
    es_patience: int = 410
    lr_patience: int = 80

    def __post_init__(self):
        if not 1 <= self.max_epochs <= 1500:
            raise ValueError("max_epochs must be in 1..1500")
        if self.es_patience < 0 or self.lr_patience < 0:
            raise ValueError("patiences must be non-negative")


@dataclass
class TrainResult:
    best_val_acc: float
    test_acc_at_best_val: float
    epochs_run: int
    history: list  # per-epoch (train loss, val accuracy)
    seed: int
    final_lr: float

    to_dict = asdict


def derive_seed(base_seed, *parts) -> int:
    """Stable sub-seed from a base seed and arbitrary string-able parts."""
    text = "|".join([str(base_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def _hit_rate(logits, labels, idx) -> float:
    """Share of the nodes ``idx`` whose largest logit is their label; 0.0 for no nodes."""
    if len(idx) == 0:
        return 0.0
    return np.count_nonzero(np.argmax(logits[idx], axis=1) == labels[idx]) / len(idx)


def accuracy(model, graph: DirectedGraph, idx) -> float:
    idx = np.asarray(idx, dtype=np.int64)
    return _hit_rate(model.forward(graph.features, training=False).data, graph.labels, idx)


def train(model, graph: DirectedGraph, split, train_cfg: TrainConfig | None = None,
          seed: int = 0) -> TrainResult:
    """Full training run; the model is left holding its best-validation weights.

    Each epoch takes one Adam step, then scores the stepped model on the
    validation and test nodes. Without dropout and batchnorm the training
    forward equals the eval forward, so the scoring forward runs in training
    mode and its recorded graph serves as the next epoch's training forward: a
    run costs ``epochs_run + 1`` forwards instead of ``2 * epochs_run``. With
    dropout or batchnorm the scoring forward runs in eval mode and every epoch
    runs its own training forward; such a run keeps only the scoring forward's
    logits array, so that forward's graph is dropped once the epoch is scored.
    """
    tc = train_cfg or TrainConfig()
    if len(split.val) == 0:
        raise DataError("training requires a non-empty validation set")
    fused = model.config.dropout == 0.0 and not model.config.use_bn
    rng = np.random.default_rng(seed)
    state = AdamState(lr=model.config.lr)
    params = model.params()
    best_val = -1.0
    best_test = 0.0
    best_snap = None  # epoch 1 always sets it: val_acc >= 0 > best_val
    history = []
    es_wait = 0
    lr_wait = 0
    logits = None
    for _ in range(tc.max_epochs):
        for p in params:
            p.grad = None
        if logits is None:
            logits = model.forward(graph.features, training=True, rng=rng)
        loss = softmax_cross_entropy(logits, graph.labels, split.train)
        backward(loss)
        adam_step(model.vector, np.concatenate([p.grad.ravel() for p in params]), state)

        logits = model.forward(graph.features, training=fused, rng=rng)
        scored = logits.data
        logits = logits if fused else None  # no backward uses an eval graph
        val_acc = _hit_rate(scored, graph.labels, split.val)
        history.append((float(loss.data), val_acc))
        if val_acc > best_val:
            best_val = val_acc
            best_snap = model.snapshot()
            best_test = _hit_rate(scored, graph.labels, split.test)
            es_wait = 0
            lr_wait = 0
        else:
            es_wait += 1
            lr_wait += 1
            if lr_wait > tc.lr_patience and state.lr > MIN_LR:
                state.lr = max(state.lr * LR_FACTOR, MIN_LR)
                lr_wait = 0
            if es_wait > tc.es_patience:
                break
    model.restore(best_snap)
    return TrainResult(best_val, best_test, len(history), history, seed, state.lr)


# -- cross-validation ---------------------------------------------------------------


@dataclass
class CrossValResult:
    mean: float
    std: float
    results: list

    @property
    def test_accs(self):
        return [r.test_acc_at_best_val for r in self.results]

    def summary(self):
        return f"{100 * self.mean:.1f}±{100 * self.std:.1f}"


def _sample_std(values):
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _fold_runs(cfg, graph, splits, seeds, train_cfg, plan):
    """One ``train(build_model(..., plan=plan))`` result per (split, seed) pair."""
    if len(splits) == 0:
        raise ValueError("need at least one split")
    results = []
    for split, seed in zip(splits.splits, seeds):
        model = build_model(cfg, graph, seed=seed, plan=plan)
        results.append(train(model, graph, split, train_cfg, seed=seed))
    return results


def cross_validate(cfg: ModelConfig, graph: DirectedGraph, splits: SplitSet,
                   seeds=0, train_cfg: TrainConfig | None = None) -> CrossValResult:
    """One training run per split; mean and sample std of test accuracy."""
    if isinstance(seeds, (int, np.integer)):
        seeds = [derive_seed(seeds, "fold", i) for i in range(len(splits))]
    if len(seeds) != len(splits):
        raise ValueError("one seed per split required")
    results = _fold_runs(cfg, graph, splits, seeds, train_cfg, MatrixPlan(graph.adjacency))
    accs = [r.test_acc_at_best_val for r in results]
    return CrossValResult(float(np.mean(accs)), _sample_std(accs), results)


# -- per-scale accuracy table ----------------------------------------------------------


# column name -> scale words whose aggregation outputs are added
PER_SCALE_COLUMNS = {
    "A": ("A",), "T": ("T",), "A+T": ("A", "T"),
    "AT": ("AT",), "TA": ("TA",), "AT+TA": ("AT", "TA"),
    "AA": ("AA",), "TT": ("TT",), "AA+TT": ("AA", "TT"),
    "none": (),
}


@dataclass
class ColumnResult:
    name: str
    accs: list
    shared_removed_accs: list | None = None

    @property
    def mean(self):
        return float(np.mean(self.accs))

    @property
    def std(self):
        return _sample_std(self.accs)

    @property
    def shared_removed_mean(self):
        if not self.shared_removed_accs:
            return None
        return float(np.mean(self.shared_removed_accs))


@dataclass
class ScaleReport:
    columns: list

    def column(self, name):
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    def to_tsv(self):
        lines = ["column\tmean_acc\tstd\truns\tshared_removed_mean"]
        for col in self.columns:
            removed = "" if col.shared_removed_mean is None else f"{col.shared_removed_mean:.4f}"
            lines.append(f"{col.name}\t{col.mean:.4f}\t{col.std:.4f}\t{len(col.accs)}\t{removed}")
        return "\n".join(lines) + "\n"


def default_column_config():
    """Single propagation layer over one scaled graph, small and quick to train."""
    return ModelConfig(family="gcn", layers=1, hidden=32, lr=0.05,
                       use_relu=True, use_bn=False, dropout=0.0)


def per_scale_report(graph: DirectedGraph, splits: SplitSet, columns=None,
                     model_cfg: ModelConfig | None = None,
                     train_cfg: TrainConfig | None = None, seeds=(0,),
                     include_shared_removed: bool = False) -> ScaleReport:
    """Train one channel model per scaled-graph column and tabulate test accuracy.

    Columns with a "+" add the aggregation outputs of the two named scaled
    graphs; "none" trains on an empty adjacency with zeroed features, the floor
    any informative scale has to beat. The optional shared-removed variant
    strips edges already present in A or T from second-scale columns.
    """
    names = list(columns) if columns is not None else list(PER_SCALE_COLUMNS)
    for name in names:
        if name not in PER_SCALE_COLUMNS:
            raise ValueError(f"unknown per-scale column {name!r}")
    if len(splits) == 0 or len(seeds) == 0:
        raise ValueError("need at least one split and one seed")
    cfg = model_cfg or default_column_config()
    plan = MatrixPlan(graph.adjacency)
    zeroed = graph.zeroed()

    def column_accs(name, strip_shared):
        words = PER_SCALE_COLUMNS[name]
        if not words:
            g, mats = zeroed, [SparseMatrix.empty(graph.n, graph.n)]
        else:
            g, first = graph, [plan.word(w, "keep") for w in ("A", "T")]
            mats = [sym_normalize(remove_shared_edges(plan.word(w, "keep"), first))
                    if strip_shared else plan.normalized(w, "keep") for w in words]
        accs = []
        for i, split in enumerate(splits.splits):
            for seed in seeds:
                run_seed = derive_seed(seed, name, "shared" if strip_shared else "plain", i)
                model = build_matrix_channel_model(cfg, g, mats, seed=run_seed)
                accs.append(train(model, g, split, train_cfg, seed=run_seed).test_acc_at_best_val)
        return accs

    report = []
    for name in names:
        accs = column_accs(name, False)
        removed = None
        if include_shared_removed and all(len(w) == 2 for w in PER_SCALE_COLUMNS[name]) \
                and PER_SCALE_COLUMNS[name]:
            removed = column_accs(name, True)
        report.append(ColumnResult(name, accs, removed))
    return ScaleReport(report)


# -- grid search ---------------------------------------------------------------------


GRID_LAYERS = (1, 2, 3, 4, 5)
GRID_LR = (0.1, 0.01, 0.005)
GRID_DROPOUT = (0.0, 0.5)
GRID_BN = (False, True)
GRID_RELU = (False, True)
GRID_JK = ("max", "cat", "none")
GRID_SELFLOOP = SELFLOOP_MODES
GRID_DIRECTION = (0.0, 0.5, 1.0, 2.0, 3.0)

_JK_TO_COMBS = {"max": ("jk_max", "jk_max"), "cat": ("jk_cat", "jk_cat"),
                "none": ("add", "last")}


def default_grid_space(base: ModelConfig | None = None):
    """The full tuning grid, varying the first direction parameter only.

    A non-scalenet base keeps ``comb1`` at ``add``, the only value it accepts,
    and its own ``alpha``, which its family ignores.
    """
    base = base or ModelConfig()
    space = []
    directions = GRID_DIRECTION if base.family == "scalenet" else (base.alpha,)
    for layers, lr, drop, bn, relu_on, jk, selfloop, alpha in product(
            GRID_LAYERS, GRID_LR, GRID_DROPOUT, GRID_BN, GRID_RELU,
            GRID_JK, GRID_SELFLOOP, directions):
        comb1, comb2 = _JK_TO_COMBS[jk]
        if base.family != "scalenet":
            comb1 = "add"
        space.append(replace(base, layers=layers, lr=lr, dropout=drop, use_bn=bn,
                             use_relu=relu_on, comb1=comb1, comb2=comb2,
                             selfloop_mode=selfloop, alpha=alpha))
    return space


@dataclass
class GridResult:
    config: ModelConfig
    mean_val_acc: float
    mean_test_acc: float
    std_test_acc: float
    val_accs: list = field(default_factory=list)
    test_accs: list = field(default_factory=list)

    to_dict = asdict


def grid_search(space, graph: DirectedGraph, splits: SplitSet,
                train_cfg: TrainConfig | None = None, base_seed: int = 0):
    """Exhaustive search over ``space``; ranked by mean validation accuracy.

    Ties break toward fewer layers, then lower learning rate. Each (config,
    split) run gets a seed derived from the base seed and the config text, so
    any subset of the grid reproduces bit-identically.
    """
    space = list(space)
    if not space:
        raise ValueError("empty grid space")

    plan = MatrixPlan(graph.adjacency)  # shared by every config, freed on return
    ranked = []
    for cfg in space:
        seeds = [derive_seed(base_seed, cfg.to_json(), s_idx) for s_idx in range(len(splits))]
        runs = _fold_runs(cfg, graph, splits, seeds, train_cfg, plan)
        vals = [r.best_val_acc for r in runs]
        tests = [r.test_acc_at_best_val for r in runs]
        ranked.append(GridResult(cfg, float(np.mean(vals)), float(np.mean(tests)),
                                 _sample_std(tests), vals, tests))
    ranked.sort(key=lambda g: (-g.mean_val_acc, g.config.layers, g.config.lr))
    return ranked


def leaderboard_tsv(ranked):
    header = ("rank\tmean_val_acc\tmean_test_acc\tstd_test_acc\tfamily\tlayers\tlr\t"
              "dropout\tbn\trelu\tcomb1\tcomb2\tselfloop\talpha\tbeta\tgamma")
    lines = [header]
    for rank, g in enumerate(ranked, start=1):
        c = g.config
        lines.append("\t".join([
            str(rank), f"{g.mean_val_acc:.4f}", f"{g.mean_test_acc:.4f}",
            f"{g.std_test_acc:.4f}", c.family, str(c.layers), repr(c.lr),
            repr(c.dropout), str(int(c.use_bn)), str(int(c.use_relu)),
            c.comb1, c.comb2, c.selfloop_mode, repr(c.alpha), repr(c.beta), repr(c.gamma),
        ]))
    return "\n".join(lines) + "\n"


# -- Wilcoxon signed-rank comparison ----------------------------------------------------


@dataclass
class ComparisonResult:
    statistic: float
    p_value: float
    n_pairs: int
    method: str

    to_dict = asdict


def _average_ranks(values):
    """1-based ranks; a run of tied values shares the mean of its ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _exact_two_sided_p(ranks, w):
    """P(W+ <= w) doubled, by subset-sum counting over all 2^n sign patterns.

    Ranks may be half-integers from ties, so the DP runs over doubled ranks
    with exact integer counts.
    """
    doubled = [int(round(2.0 * r)) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    threshold = int(round(2.0 * w))
    below = sum(counts[: threshold + 1])
    return min(1.0, 2.0 * below / (2 ** len(ranks)))


def _normal_two_sided_p(ranks, w, n):
    mu = n * (n + 1) / 4.0
    sigma_sq = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    sigma_sq -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    sigma = math.sqrt(sigma_sq)
    z = (w - mu + 0.5) / sigma  # continuity correction toward the center
    p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return min(1.0, max(0.0, p))


def wilcoxon_signed_rank(xs, ys, method: str = "auto") -> ComparisonResult:
    """Two-sided Wilcoxon signed-rank test on paired finite observations.

    Zero differences are dropped; tied absolute differences get average ranks.
    The statistic is min(W+, W-). Exact enumeration is used for n <= 25 (or on
    request), the tie-corrected normal approximation otherwise.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D sequences of equal length")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("xs and ys must be finite")
    diffs = xs - ys
    diffs = diffs[diffs != 0.0]
    if len(diffs) == 0:
        raise ValueError("all differences are zero; the test is undefined")
    n = len(diffs)
    if n < 5:
        raise ValueError(f"need at least 5 nonzero differences, got {n}")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    if method == "auto":
        method = "exact" if n <= 25 else "normal_approx"
    if method == "exact":
        p = _exact_two_sided_p(ranks, w)
    elif method == "normal_approx":
        p = _normal_two_sided_p(ranks, w, n)
    else:
        raise ValueError(f"method must be 'auto', 'exact' or 'normal_approx', got {method!r}")
    return ComparisonResult(w, p, n, method)
