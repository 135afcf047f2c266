import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalegraph import models, scales, sparse
from scalegraph.autodiff import AdamState, adam_step, backward, softmax_cross_entropy
from scalegraph.graphdata import DirectedGraph, generate_dsbm, make_random_splits
from scalegraph.harness import (
    GRID_DIRECTION,
    LR_FACTOR,
    MIN_LR,
    ComparisonResult,
    TrainConfig,
    TrainResult,
    _average_ranks,
    accuracy,
    default_grid_space,
    derive_seed,
    grid_search,
    leaderboard_tsv,
    per_scale_report,
    train,
    wilcoxon_signed_rank,
)
from scalegraph.models import Model, ModelConfig, build_model
from scalegraph.sparse import SparseMatrix

FAST = TrainConfig(max_epochs=60, es_patience=20, lr_patience=10)


@pytest.fixture(scope="module")
def toy():
    g = generate_dsbm(60, 3, 0.35, 0.02, seed=4)
    splits = make_random_splits(g, n_splits=2, seed=1)
    return g, splits


def toy_cfg(**kw):
    base = dict(alpha=0.5, beta=-1, gamma=-1, layers=1, hidden=8, lr=0.05)
    base.update(kw)
    return ModelConfig(**base)


# -- train ---------------------------------------------------------------------


def test_train_reaches_high_train_accuracy(toy):
    g, splits = toy
    model = build_model(toy_cfg(), g, seed=0)
    result = train(model, g, splits[0], FAST, seed=0)
    assert accuracy(model, g, splits[0].train) > 0.95
    assert 0.0 <= result.best_val_acc <= 1.0
    assert result.epochs_run <= FAST.max_epochs


def test_train_same_seed_identical_history(toy):
    g, splits = toy
    runs = [train(build_model(toy_cfg(dropout=0.5), g, seed=3), g, splits[0], FAST, seed=3)
            for _ in range(2)]
    assert runs[0].history == runs[1].history
    assert runs[0].test_acc_at_best_val == runs[1].test_acc_at_best_val


def test_train_restores_best_val_params(toy):
    g, splits = toy
    model = build_model(toy_cfg(), g, seed=5)
    result = train(model, g, splits[0], FAST, seed=5)
    assert accuracy(model, g, splits[0].val) == result.best_val_acc


def test_zero_patience_stops_at_first_non_improvement(toy):
    g, splits = toy
    tc = TrainConfig(max_epochs=50, es_patience=0, lr_patience=50)
    model = build_model(toy_cfg(lr=0.005), g, seed=7)
    result = train(model, g, splits[0], tc, seed=7)
    vals = [acc for _, acc in result.history]
    stop = next((i for i in range(1, len(vals)) if vals[i] <= max(vals[:i])), None)
    if result.epochs_run < tc.max_epochs:
        assert stop == result.epochs_run - 1
    # every epoch before the stop strictly improved on the running best
    for i in range(1, (stop if stop is not None else len(vals))):
        assert vals[i] > max(vals[:i])


def test_lr_scheduler_halves_on_plateau(toy):
    g, splits = toy
    tc = TrainConfig(max_epochs=40, es_patience=1000, lr_patience=3)
    model = build_model(toy_cfg(lr=0.05), g, seed=11)
    result = train(model, g, splits[0], tc, seed=11)
    assert result.final_lr < 0.05


def two_forward_train(model, graph, split, tc, seed):
    """Reference loop: a training forward and a separate eval forward every epoch."""
    rng = np.random.default_rng(seed)
    state = AdamState(lr=model.config.lr)
    params = model.params()
    best_val, best_test, best_snap = -1.0, 0.0, None
    history, es_wait, lr_wait = [], 0, 0
    for _ in range(tc.max_epochs):
        for p in params:
            p.grad = None
        logits = model.forward(graph.features, training=True, rng=rng)
        loss = softmax_cross_entropy(logits, graph.labels, split.train)
        backward(loss)
        adam_step(model.vector, np.concatenate([p.grad.ravel() for p in params]), state)
        preds = np.argmax(model.forward(graph.features, training=False).data, axis=1)
        val_acc = float(np.mean(preds[split.val] == graph.labels[split.val]))
        history.append((float(loss.data), val_acc))
        if val_acc > best_val:
            best_val, best_snap, es_wait, lr_wait = val_acc, model.snapshot(), 0, 0
            best_test = float(np.mean(preds[split.test] == graph.labels[split.test]))
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


@pytest.fixture
def forward_modes(monkeypatch):
    """The ``training`` flag of every ``Model.forward`` call, in order."""
    modes = []
    forward = Model.forward

    def counted(model, features, training=False, rng=None):
        modes.append(training)
        return forward(model, features, training, rng)
    monkeypatch.setattr(Model, "forward", counted)
    return modes


def test_fused_eval_matches_two_forward_loop(toy, forward_modes):
    g, splits = toy
    tc = TrainConfig(max_epochs=60, es_patience=8, lr_patience=2)
    cfg = toy_cfg(layers=2, beta=0.5, lr=0.1)
    reference = build_model(cfg, g, seed=9)
    expected = two_forward_train(reference, g, splits[0], tc, seed=9)
    assert expected.epochs_run < tc.max_epochs and expected.final_lr < cfg.lr
    forward_modes.clear()
    model = build_model(cfg, g, seed=9)
    result = train(model, g, splits[0], tc, seed=9)
    assert result == expected
    assert all(np.array_equal(p.data, q.data) for p, q in zip(model.params(), reference.params()))
    assert forward_modes == [True] * (result.epochs_run + 1)


@pytest.mark.parametrize("kw", [{"dropout": 0.5}, {"use_bn": True}])
def test_dropout_or_batchnorm_keeps_a_separate_eval_forward(toy, forward_modes, kw):
    g, splits = toy
    result = train(build_model(toy_cfg(**kw), g, seed=4), g, splits[0], FAST, seed=4)
    assert forward_modes == [True, False] * result.epochs_run


@pytest.mark.parametrize("kw", [{"dropout": 0.5}, {"use_bn": True}])
def test_an_eval_forward_graph_is_freed_before_the_next_training_forward(
        toy, monkeypatch, kw):
    # an eval-mode forward records no graph at all: train's scoring forward on this path,
    # and accuracy's
    g, splits = toy
    eval_outputs = []  # (requires_grad, parents, backward) of each eval-mode output
    forward = Model.forward

    def watched(model, features, training=False, rng=None):
        out = forward(model, features, training, rng)
        if not training:
            eval_outputs.append((out.requires_grad, out._parents, out._backward))
        return out
    monkeypatch.setattr(Model, "forward", watched)
    model = build_model(toy_cfg(**kw), g, seed=4)
    result = train(model, g, splits[0], FAST, seed=4)
    accuracy(model, g, splits[0].test)
    assert len(eval_outputs) == result.epochs_run + 1 > 2
    assert set(eval_outputs) == {(False, (), None)}


def test_train_config_caps_epoch_budget():
    with pytest.raises(ValueError, match="1..1500"):
        TrainConfig(max_epochs=2000)


def test_train_requires_validation_set(toy):
    g, splits = toy
    bad = type(splits[0])(splits[0].train, np.array([], dtype=np.int64), splits[0].test)
    with pytest.raises(ValueError, match="validation"):
        train(build_model(toy_cfg(), g, seed=0), g, bad, FAST, seed=0)


# -- matrix builds ---------------------------------------------------------------------


@pytest.fixture
def family_builds(monkeypatch):
    """Weak references to the values of every matrix ``scales.model_matrix_family`` returns,
    one list per call."""
    builds = []
    build = scales.model_matrix_family

    def recorded(*args):
        family = build(*args)
        builds.append([weakref.ref(m.values) for m in family.values()])
        return family
    monkeypatch.setattr(scales, "model_matrix_family", recorded)
    return builds


def graph_state(g):
    return {k: id(v) for k, v in vars(g).items()}, g.adjacency._t_cache


# -- per-scale report -----------------------------------------------------------------


def test_first_scale_columns_build_no_matrix_family(toy, family_builds):
    g, splits = toy
    one = type(splits)([splits[0]])
    per_scale_report(g, one, columns=["A", "A+T", "none"], train_cfg=FAST)
    assert family_builds == []


def test_per_scale_report_columns_and_none_baseline():
    # imbalanced labels make the no-input control land exactly on the
    # majority-class rate of the test split
    rng = np.random.default_rng(0)
    labels = np.array([0] * 30 + [1] * 10)
    dense = (rng.random((40, 40)) < 0.2) & (labels[:, None] == labels[None, :])
    np.fill_diagonal(dense, False)
    g = DirectedGraph(SparseMatrix.from_dense(dense.astype(float)),
                      np.eye(40)[:, :2] + 0.01 * rng.normal(size=(40, 2)), labels, 2)
    splits = make_random_splits(g, n_splits=1, seed=3)
    report = per_scale_report(g, splits, columns=["A", "A+T", "none"],
                              train_cfg=FAST, seeds=(0,))
    assert [c.name for c in report.columns] == ["A", "A+T", "none"]
    none_acc = report.column("none").mean
    test_idx = splits[0].test
    majority_rate = float(np.mean(g.labels[test_idx] == 0))
    assert none_acc == pytest.approx(majority_rate, abs=1e-9)


def test_per_scale_report_shared_removed(toy):
    g, splits = toy
    one = type(splits)([splits[0]])
    report = per_scale_report(g, one, columns=["A", "AT"], train_cfg=FAST,
                              include_shared_removed=True)
    assert report.column("A").shared_removed_mean is None
    assert report.column("AT").shared_removed_mean is not None
    tsv = report.to_tsv()
    assert tsv.startswith("column\t") and len(tsv.strip().splitlines()) == 3


def test_per_scale_report_rejects_unknown_column(toy):
    g, splits = toy
    with pytest.raises(ValueError, match="unknown per-scale column"):
        per_scale_report(g, splits, columns=["AAA"])


def test_drivers_reject_empty_splits_and_seeds(toy):
    g, splits = toy
    none = type(splits)([])
    with pytest.raises(ValueError, match="at least one split"):
        grid_search([toy_cfg()], g, none, train_cfg=FAST)
    with pytest.raises(ValueError, match="at least one split"):
        per_scale_report(g, none, columns=["A"], train_cfg=FAST)
    with pytest.raises(ValueError, match="one seed"):
        per_scale_report(g, splits, columns=["A"], train_cfg=FAST, seeds=())


# -- grid search ------------------------------------------------------------------------


def test_default_grid_space_size():
    space = default_grid_space()
    assert len(space) == 5 * 3 * 2 * 2 * 2 * 3 * 3 * 5
    others = default_grid_space(ModelConfig(family="one_ig"))
    assert len(others) == len(space) // len(GRID_DIRECTION)
    assert {c.comb1 for c in others} == {"add"} and {c.alpha for c in others} == {0.5}
    for family in ("gcn", "mlp"):  # neither reads selfloop_mode
        grid = default_grid_space(ModelConfig(family=family, selfloop_mode="add"))
        assert len(grid) == 360 and {c.selfloop_mode for c in grid} == {"add"}


def test_grid_search_singleton(toy):
    g, splits = toy
    one = type(splits)([splits[0]])
    cfg = toy_cfg()
    ranked = grid_search([cfg], g, one, train_cfg=FAST, base_seed=0)
    assert len(ranked) == 1 and ranked[0].config == cfg


def test_cross_validate_single_split_zero_std(toy):
    # cross-validating one config is a one-config grid search
    g, splits = toy
    one = type(splits)([splits[0]])
    [cv] = grid_search([toy_cfg()], g, one, train_cfg=FAST, base_seed=2)
    assert cv.std_test_acc == 0.0 and len(cv.test_accs) == 1


def test_grid_search_ranks_good_above_bad(toy):
    g, splits = toy
    good = toy_cfg(lr=0.05)
    bad = toy_cfg(lr=0.005, layers=5, dropout=0.5)
    ranked = grid_search([bad, good], g, splits, train_cfg=FAST, base_seed=1)
    assert ranked[0].config == good
    assert ranked[0].mean_val_acc >= ranked[1].mean_val_acc
    board = leaderboard_tsv(ranked)
    assert board.splitlines()[0].startswith("rank\t")
    assert len(board.strip().splitlines()) == 3


def test_grid_search_builds_one_matrix_family(toy, family_builds):
    g, splits = toy
    before = graph_state(g)
    space = [toy_cfg(beta=0.5, selfloop_mode=mode) for mode in ("add", "keep")]
    ranked = grid_search(space, g, splits, train_cfg=FAST, base_seed=2)
    assert len(family_builds) == 1
    assert all(ref() is None for ref in family_builds[0])
    assert graph_state(g) == before
    for r in ranked:  # each run matches one built from its own matrix family
        runs = [train(build_model(r.config, g, seed=seed), g, split, FAST, seed=seed)
                for s_idx, split in enumerate(splits.splits)
                for seed in [derive_seed(2, r.config.to_json(), s_idx)]]
        assert r.test_accs == [run.test_acc_at_best_val for run in runs]
    assert len(family_builds) == 1 + len(space) * len(splits)


def test_grid_search_normalizes_each_word_once(toy, monkeypatch):
    g, splits = toy
    normalized, blends = [], []
    normalize, blend = models.sym_normalize, models.weighted_sum
    monkeypatch.setattr(models, "sym_normalize", lambda s: normalized.append(s) or normalize(s))
    monkeypatch.setattr(models, "weighted_sum",
                        lambda *args, **kw: blends.append(args) or blend(*args, **kw))
    # the ten scalenet configs of criterion 08, at a small size
    space = [toy_cfg(alpha=alpha, beta=beta, selfloop_mode=selfloop)
             for alpha in (0.5, 1.0) for beta in (-1.0, 0.5) for selfloop in ("add", "keep")]
    space += [toy_cfg(alpha=-1.0, beta=0.5, selfloop_mode=selfloop)
              for selfloop in ("add", "keep")]
    grid_search(space, g, splits, train_cfg=TrainConfig(max_epochs=2))
    # the lone A of alpha = 1 under "add" and under "keep"
    assert len(normalized) == 2
    # the A/T blend under "add" and under "keep", the AT/TA blend under "keep"
    assert len(blends) == 3


def test_grid_search_builds_each_symmetric_channel_matrix_once(toy, monkeypatch):
    g, splits = toy
    normalized = []
    normalize = models.sym_normalize
    monkeypatch.setattr(models, "sym_normalize", lambda s: normalized.append(s) or normalize(s))
    space = [toy_cfg(lr=lr, **shape) for shape in (
        {"family": "gcn"}, {"family": "one_ym"}, {"alpha": 2.0}, {"alpha": 3.0, "beta": 3.0})
        for lr in (0.01, 0.05)]
    grid_search(space, g, splits, train_cfg=TrainConfig(max_epochs=2))
    # gcn's A | T under "add"; one_ym's A | T under "keep", which alpha = 2 shares, and
    # its AT and TA; the intersections of A/T and of AT/TA
    assert len(normalized) == 6


def test_grid_search_builds_each_proximity_matrix_once(monkeypatch):
    g = generate_dsbm(60, 3, 0.15, 0.03, seed=5)
    splits = make_random_splits(g, n_splits=2, seed=0)
    products, sorts = [], []
    spgemm, sort = scales.spgemm, sparse._sorted_transpose
    monkeypatch.setattr(scales, "spgemm", lambda *args: products.append(args) or spgemm(*args))
    monkeypatch.setattr(sparse, "_sorted_transpose", lambda s: sorts.append(s) or sort(s))
    space = [ModelConfig(family="one_igu3", layers=1, hidden=4, lr=lr) for lr in (0.01, 0.05)]
    grid_search(space, g, splits, train_cfg=TrainConfig(max_epochs=2))
    # both sides of the order-2 matrix (one product each) and of the order-3 one (three
    # each), and the plan's one sort of A
    assert len(products) == 8
    assert len(sorts) == 1 and sorts[0].nnz == g.adjacency.nnz


def test_grid_search_empty_space(toy):
    g, splits = toy
    with pytest.raises(ValueError, match="empty grid"):
        grid_search([], g, splits)


def test_derive_seed_stable():
    assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
    assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)


# -- Wilcoxon ---------------------------------------------------------------------------


def brute_force_reference(xs, ys):
    """Independent oracle: full enumeration of the 2^n sign patterns."""
    d = np.asarray(xs, float) - np.asarray(ys, float)
    d = d[d != 0]
    n = len(d)
    mags = np.abs(d)
    ranks = np.array([1.0 + np.sum(mags < m) + (np.sum(mags == m) - 1) / 2.0 for m in mags])
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    w = min(w_plus, w_minus)
    count = 0
    for bits in range(2**n):
        wp = sum(ranks[i] for i in range(n) if bits >> i & 1)
        if wp <= w + 1e-12:
            count += 1
    return w, min(1.0, 2.0 * count / 2**n)


def test_wilcoxon_all_positive_six():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ys = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    result = wilcoxon_signed_rank(xs, ys)
    assert result.statistic == 0.0
    assert result.p_value == 0.03125
    assert result.method == "exact" and result.n_pairs == 6


def test_wilcoxon_identical_sequences_rejected():
    with pytest.raises(ValueError, match="zero"):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_wilcoxon_too_few_pairs_rejected():
    with pytest.raises(ValueError, match="at least 5"):
        wilcoxon_signed_rank([1, 2, 3, 4], [0, 1, 2, 3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wilcoxon_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_signed_rank([1, 2, 3, 4, bad, 6], [0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_signed_rank([0, 0, 0, 0, 0, 0], [1, 2, 3, 4, bad, 6])


def test_wilcoxon_length_mismatch_rejected():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1, 2, 3], [1, 2])


def test_wilcoxon_matches_brute_force():
    rng = np.random.default_rng(13)
    for n in (5, 7, 9, 12):
        for _ in range(8):
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            if np.any(xs == ys):
                continue
            got = wilcoxon_signed_rank(xs, ys)
            w_ref, p_ref = brute_force_reference(xs, ys)
            assert got.statistic == w_ref
            assert got.p_value == p_ref


def test_wilcoxon_handles_tied_magnitudes():
    xs = np.array([3.0, 1.0, 4.0, 2.0, 6.0, 5.0])
    ys = xs - np.array([1.0, 1.0, -1.0, 1.0, 2.0, -2.0])
    got = wilcoxon_signed_rank(xs, ys)
    w_ref, p_ref = brute_force_reference(xs, ys)
    assert got.statistic == w_ref and got.p_value == p_ref


def sorted_loop_ranks(values):
    """Reference: walk the stably sorted values and give each run of ties its mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_sorted_loop():
    rng = np.random.default_rng(23)
    for n in range(1, 60):
        for high in (1, 3, n + 1):  # all tied, many ties, few ties
            values = rng.integers(0, high, size=n) * 0.25
            assert _average_ranks(values).tobytes() == sorted_loop_ranks(values).tobytes()


def test_wilcoxon_symmetry():
    rng = np.random.default_rng(17)
    xs = rng.normal(size=10)
    ys = rng.normal(size=10)
    a = wilcoxon_signed_rank(xs, ys)
    b = wilcoxon_signed_rank(ys, xs)
    assert a.statistic == b.statistic and a.p_value == b.p_value


nonzero_diffs = st.lists(st.integers(-50, 50).filter(lambda v: v != 0),
                         min_size=5, max_size=12)


@settings(max_examples=60, deadline=None)
@given(nonzero_diffs)
def test_wilcoxon_symmetry_property(diffs):
    xs = np.asarray(diffs, dtype=float)
    ys = np.zeros(len(diffs))
    a = wilcoxon_signed_rank(xs, ys)
    b = wilcoxon_signed_rank(ys, xs)
    assert (a.statistic, a.p_value, a.n_pairs) == (b.statistic, b.p_value, b.n_pairs)


@settings(max_examples=40, deadline=None)
@given(nonzero_diffs)
def test_wilcoxon_exact_matches_enumeration_property(diffs):
    xs = np.asarray(diffs, dtype=float)
    ys = np.zeros(len(diffs))
    got = wilcoxon_signed_rank(xs, ys, method="exact")
    w_ref, p_ref = brute_force_reference(xs, ys)
    assert got.statistic == w_ref and got.p_value == p_ref
    assert 0.0 < got.p_value <= 1.0


def test_wilcoxon_p_decreases_with_shift():
    rng = np.random.default_rng(19)
    ys = rng.normal(size=12)
    noise = rng.normal(size=12) * 0.2
    prev = 1.1
    for shift in (0.05, 0.3, 0.8, 2.0):
        p = wilcoxon_signed_rank(ys + noise + shift, ys).p_value
        assert p <= prev + 1e-12
        prev = p


def test_wilcoxon_exact_matches_scipy_oracle():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(29)
    for n in range(5, 21):
        for shift in (0.0, 0.4, 1.5):
            # continuous draws: no tied magnitudes and no zero differences
            xs, ys = rng.normal(size=n) + shift, rng.normal(size=n)
            got = wilcoxon_signed_rank(xs, ys, method="exact")
            want = stats.wilcoxon(xs, ys, method="exact")
            assert got.statistic == want.statistic
            assert math.isclose(got.p_value, want.pvalue, rel_tol=1e-12)


def test_wilcoxon_normal_approx_near_exact_at_30():
    rng = np.random.default_rng(23)
    for _ in range(10):
        xs = rng.normal(size=30)
        ys = rng.normal(size=30) + rng.uniform(-0.3, 0.3)
        exact = wilcoxon_signed_rank(xs, ys, method="exact")
        approx = wilcoxon_signed_rank(xs, ys, method="normal_approx")
        assert approx.method == "normal_approx"
        assert abs(exact.p_value - approx.p_value) < 0.01


def test_wilcoxon_auto_method_switch():
    rng = np.random.default_rng(29)
    small = wilcoxon_signed_rank(rng.normal(size=25), rng.normal(size=25))
    large = wilcoxon_signed_rank(rng.normal(size=26), rng.normal(size=26))
    assert small.method == "exact" and large.method == "normal_approx"


# -- zero-input control ------------------------------------------------------------------


def test_zero_input_model_learns_majority_prior():
    rng = np.random.default_rng(5)
    labels = np.array([0] * 28 + [1] * 12)
    g = DirectedGraph(SparseMatrix.empty(40, 40), np.zeros((40, 3)), labels, 2)
    splits = make_random_splits(g, n_splits=1, seed=2)
    model = build_model(toy_cfg(family="mlp"), g, seed=0)
    train(model, g, splits[0], FAST, seed=0)
    test_idx = splits[0].test
    assert accuracy(model, g, test_idx) == pytest.approx(
        float(np.mean(g.labels[test_idx] == 0)), abs=1e-9)
