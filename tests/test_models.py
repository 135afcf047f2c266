import gc
import weakref

import numpy as np
import pytest

from scalegraph import harness, models, sparse
from scalegraph.autodiff import (
    Tensor,
    backward,
    finite_diff_check,
    glorot_uniform,
    matmul,
    softmax_cross_entropy,
)
from scalegraph.graphdata import DirectedGraph, DirectionProfile, generate_dsbm, make_random_splits
from scalegraph import scales
from scalegraph.models import (
    FAMILIES,
    MatrixPlan,
    ModelConfig,
    agg_b,
    build_model,
    direction_coefficients,
    prepare_direction_blocks,
    propagate,
)
from scalegraph.scales import apply_selfloop_mode, model_matrix_family, proximity_matrix
from scalegraph.sparse import (
    SparseMatrix,
    add_self_loops,
    pattern_intersection,
    pattern_union,
    sym_normalize,
    transpose,
    weighted_sum,
)

from conftest import random_digraph


@pytest.fixture
def small_graph():
    return generate_dsbm(20, 3, 0.3, 0.05, seed=1)


# -- config ------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = ModelConfig(family="one_ym", alpha=1, beta=2, gamma=-1, layers=3,
                      hidden=16, comb2="jk_max", use_bn=True)
    again = ModelConfig.from_json(cfg.to_json())
    assert again == cfg


@pytest.mark.parametrize("text, named", [('{"alpah": 0.5}', "'alpah'"), ("[1, 2]", "object"),
                                         ('{"hidden": "8"}', "'hidden'")])
def test_config_from_json_names_a_bad_field(text, named):
    with pytest.raises(ValueError, match=named):
        ModelConfig.from_json(text)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(family="resnet")
    with pytest.raises(ValueError):
        ModelConfig(alpha=0.7)
    with pytest.raises(ValueError):
        ModelConfig(alpha=-1, beta=-1, gamma=-1)
    with pytest.raises(ValueError):
        ModelConfig(layers=6)
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(lr=0)
    with pytest.raises(ValueError):
        ModelConfig(comb1="mean")
    with pytest.raises(ValueError, match="comb1"):
        ModelConfig(family="one_ig", comb1="jk_max")


# -- the directional coefficient law ----------------------------------------------


def test_coefficient_table_is_exact():
    assert direction_coefficients(-1.0) == (0.0, 0.0)
    assert direction_coefficients(0.0) == (0.0, 1.0)
    assert direction_coefficients(0.5) == (0.75, 0.75)
    assert direction_coefficients(1.0) == (2.0, 0.0)


def agg_pair(rng, n=9, h_in=4, h_out=3):
    m = sym_normalize(random_digraph(rng, n, 0.35))
    n_mat = sym_normalize(random_digraph(rng, n, 0.35))
    x = Tensor(rng.normal(size=(n, h_in)))
    w = Tensor(glorot_uniform(h_in, h_out, rng), requires_grad=True)
    return m, n_mat, x, w


def test_agg_b_excluded_pair_is_zero():
    rng = np.random.default_rng(0)
    m, n_mat, x, w = agg_pair(rng)
    out = agg_b(-1.0, m, n_mat, x, w)
    assert np.all(out.data == 0.0)
    assert not out.requires_grad


def test_agg_b_balanced_alpha_halves():
    rng = np.random.default_rng(1)
    m, n_mat, x, w = agg_pair(rng)
    got = agg_b(0.5, m, n_mat, x, w).data
    h = x.data @ w.data
    expect = 0.75 * (m.to_dense() @ h) + 0.75 * (n_mat.to_dense() @ h)
    assert np.allclose(got, expect, rtol=1e-10, atol=1e-12)


def test_agg_b_coefficient_combinations():
    rng = np.random.default_rng(2)
    for alpha in (-1.0, 0.0, 0.5, 1.0):
        m, n_mat, x, w = agg_pair(rng)
        c_m, c_n = direction_coefficients(alpha)
        h = x.data @ w.data
        expect = c_m * (m.to_dense() @ h) + c_n * (n_mat.to_dense() @ h)
        assert np.allclose(agg_b(alpha, m, n_mat, x, w).data, expect, rtol=1e-10, atol=1e-12)


def test_agg_b_union_and_intersection_modes():
    from scalegraph.autodiff import spmm

    rng = np.random.default_rng(3)
    for _ in range(10):
        m, n_mat, x, w = agg_pair(rng)
        union_ref = spmm(pattern_union(m, n_mat), matmul(x, w)).data
        inter_ref = spmm(pattern_intersection(m, n_mat), matmul(x, w)).data
        assert np.array_equal(agg_b(2.0, m, n_mat, x, w).data, union_ref)
        assert np.array_equal(agg_b(3.0, m, n_mat, x, w).data, inter_ref)


def test_agg_b_rejects_unknown_alpha():
    rng = np.random.default_rng(4)
    m, n_mat, x, w = agg_pair(rng)
    with pytest.raises(ValueError):
        agg_b(0.25, m, n_mat, x, w)


@pytest.mark.parametrize("mode", ["add", "remove", "keep"])
def test_agg_b_applies_the_pair_rule_of_the_models(monkeypatch, mode):
    # agg_b over S_A and S_T against the channel of an alpha-only scalenet: the same output
    # bit for bit, except that agg_b propagates the union or intersection unnormalized
    g = generate_dsbm(40, 3, 0.2, 0.05, seed=8)
    a = apply_selfloop_mode(g.adjacency.pattern(), mode)
    s_a, s_t = sym_normalize(a), sym_normalize(transpose(a))
    x = Tensor(g.features)
    w = Tensor(glorot_uniform(g.d, 4, np.random.default_rng(5)))
    propagated = []
    spmm = models.spmm
    monkeypatch.setattr(models, "spmm", lambda s, h: propagated.append(s) or spmm(s, h))
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.0):
        cfg = ModelConfig(alpha=alpha, beta=-1.0, gamma=-1.0, selfloop_mode=mode)
        (mat, coef), = prepare_direction_blocks(MatrixPlan(g.adjacency), cfg)
        propagated.clear()
        got = agg_b(alpha, s_a, s_t, x, w).data
        (used,) = propagated
        if alpha in (2.0, 3.0):
            want = sym_normalize(used)
            assert coef == 1.0 and mat == want
            assert mat.values.tobytes() == want.values.tobytes()
        else:
            assert got.tobytes() == propagate((mat, coef), matmul(x, w)).data.tobytes()


# -- layer composition --------------------------------------------------------------


def test_single_pair_config_reduces_to_first_scale(small_graph):
    cfg = ModelConfig(alpha=0.5, beta=-1, gamma=-1, layers=1, hidden=8)
    channels = build_model(cfg, small_graph, seed=0).layers[0].channels
    (blend, coef), = channels
    fam = model_matrix_family(small_graph.adjacency)
    assert coef == 1.0 and blend.pattern() == pattern_union(fam["A"], fam["T"])


def test_all_pairs_config_uses_six_matrices(small_graph):
    # three blends, each over the union of its pair's two words
    cfg = ModelConfig(alpha=0.5, beta=0.5, gamma=0.5, layers=1, hidden=8)
    channels = build_model(cfg, small_graph, seed=0).layers[0].channels
    assert len(channels) == 3
    fam = model_matrix_family(small_graph.adjacency)
    for (blend, coef), (m, n) in zip(channels, (("A", "T"), ("AT", "TA"), ("AA", "TT"))):
        assert coef == 1.0 and blend.pattern() == pattern_union(fam[m], fam[n])


def test_add_fusion_of_identical_blocks_triples_output(small_graph):
    cfg = ModelConfig(alpha=0.5, beta=0.5, gamma=0.5, layers=1, hidden=8,
                      comb1="add", use_relu=False)
    layer = build_model(cfg, small_graph, seed=3).layers[0]
    channel = prepare_direction_blocks(MatrixPlan(small_graph.adjacency), cfg)[0]
    weight = Tensor(glorot_uniform(small_graph.d, cfg.hidden, np.random.default_rng(9)),
                    requires_grad=True)
    layer.channels, layer.weights = [channel] * 3, [weight] * 3
    x = Tensor(small_graph.features)
    fused = layer(x, training=False, rng=None)
    single = propagate(channel, matmul(x, weight))
    assert np.allclose(fused.data, 3.0 * single.data + layer.bias.data, atol=1e-12)


def test_single_layer_last_comb_is_layer_plus_head(small_graph):
    cfg = ModelConfig(alpha=0.5, layers=1, hidden=8, comb2="last")
    model = build_model(cfg, small_graph, seed=5)
    hidden = model.layers[0](Tensor(small_graph.features), False, None)
    expect = hidden.data @ model.head_weight.data + model.head_bias.data
    got = model.forward(small_graph.features)
    assert np.allclose(got.data, expect, atol=1e-12)


def test_jk_cat_head_width(small_graph):
    cfg = ModelConfig(alpha=0.5, layers=3, hidden=8, comb2="jk_cat")
    model = build_model(cfg, small_graph, seed=0)
    assert model.head_weight.data.shape == (24, small_graph.n_classes)
    assert model.forward(small_graph.features).data.shape == (20, 3)


def test_direction_parameter_changes_logits(small_graph):
    logits = {}
    for alpha in (0.0, 1.0):
        cfg = ModelConfig(alpha=alpha, beta=-1, gamma=-1, layers=1, hidden=8)
        model = build_model(cfg, small_graph, seed=11)
        logits[alpha] = model.forward(small_graph.features).data
    assert not np.allclose(logits[0.0], logits[1.0])


# -- families ---------------------------------------------------------------------


def test_mlp_ignores_adjacency(small_graph):
    cfg = ModelConfig(family="mlp", layers=2, hidden=8)
    rewired = DirectedGraph(random_digraph(np.random.default_rng(99), small_graph.n, 0.3),
                            small_graph.features, small_graph.labels, small_graph.n_classes)
    a = build_model(cfg, small_graph, seed=2).forward(small_graph.features)
    b = build_model(cfg, rewired, seed=2).forward(rewired.features)
    assert np.array_equal(a.data, b.data)


def test_one_ig_on_symmetric_graph_feeds_symmetric_supports():
    dense = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    g = DirectedGraph(SparseMatrix.from_dense(dense), np.eye(3), [0, 1, 1], 2)
    model = build_model(ModelConfig(family="one_ig", layers=1, hidden=4), g, seed=0)
    mats = [mat for mat, _ in model.layers[0].channels]
    sym_support = pattern_union(g.adjacency, transpose(g.adjacency))
    assert mats[0].pattern() == sym_support
    assert mats[1].pattern() == sym_support


def test_gcn_single_symmetric_channel_with_self_loops(small_graph):
    model = build_model(ModelConfig(family="gcn", layers=1, hidden=4), small_graph, seed=0)
    (mat, coef), = model.layers[0].channels
    assert coef == 1.0 and np.all(mat.diagonal() > 0)


def single_channels(mats, coef=1.0):
    return [(sym_normalize(m), coef) for m in mats]


def expected_wiring(row, adj, fam):
    """(channels, fusion) of a wiring row, built here without the model module's helpers."""
    if row == "scalenet":  # alpha=1 drops T, beta=2 / gamma=3 give union / intersection
        return [(sym_normalize(fam["A"]), 2.0),
                (sym_normalize(pattern_union(fam["AT"], fam["TA"])), 1.0),
                (sym_normalize(pattern_intersection(fam["AA"], fam["TT"])), 1.0)], "jk_max"
    if row == "scalenet_pairs":  # alpha=0 drops A, beta=0.5 blends both, gamma=-1 excluded
        blend = weighted_sum(sym_normalize(fam["AT"]), sym_normalize(fam["TA"]), 0.75, 0.75)
        return [(sym_normalize(fam["T"]), 1.0), (blend, 1.0)], "jk_max"
    if row == "mlp":
        return [None], "add"
    if row == "gcn":
        return single_channels([add_self_loops(pattern_union(adj, transpose(adj)))]), "add"
    if row == "one_ym":
        return single_channels([pattern_union(fam["A"], fam["T"]), fam["AT"], fam["TA"]]), "jk_cat"
    if row == "dirgnn_lite":
        return single_channels([fam["A"], fam["T"]], coef=0.5), "add"
    proximity = {"one_ig": [], "one_igi2": [(2, "intersect")], "one_igu2": [(2, "union")],
                 "one_igu3": [(2, "union"), (3, "union")]}[row]
    return single_channels([fam["A"], fam["T"]] + [proximity_matrix(adj, k, mode, True)
                                                    for k, mode in proximity]), "add"


@pytest.mark.parametrize("row", FAMILIES + ("scalenet_pairs",))
def test_family_wiring(small_graph, row):
    directions = {"scalenet": (1.0, 2.0, 3.0), "scalenet_pairs": (0.0, 0.5, -1.0)}
    alpha, beta, gamma = directions.get(row, (0.5, -1.0, -1.0))
    cfg = ModelConfig(family=row.removesuffix("_pairs"), alpha=alpha, beta=beta, gamma=gamma,
                      layers=2, hidden=4, selfloop_mode="add",
                      comb1="jk_max" if row.startswith("scalenet") else "add",
                      second_scale_selfloops="remove")
    adj = small_graph.adjacency.pattern()
    fam = model_matrix_family(adj, "add", "remove")
    channels, fusion = expected_wiring(row, adj, fam)
    for layer in build_model(cfg, small_graph, seed=0).layers:
        assert layer.channels == channels and layer.fusion == fusion
        assert len(layer.weights) == len(channels)
        assert (layer.proj is not None) == (fusion == "jk_cat")


def test_first_scale_families_build_no_products(small_graph, monkeypatch):
    products = []
    spgemm = scales.spgemm

    def counted(*args):
        products.append(args)
        return spgemm(*args)
    monkeypatch.setattr(scales, "spgemm", counted)
    for family in ("one_ig", "dirgnn_lite"):
        build_model(ModelConfig(family=family, selfloop_mode="add"), small_graph, seed=0)
    build_model(ModelConfig(alpha=0.5), small_graph, seed=0)  # an alpha-only scalenet
    assert products == []
    build_model(ModelConfig(beta=0.5), small_graph, seed=0)
    assert len(products) == 4


def test_unknown_family_rejected(small_graph):
    cfg = ModelConfig()
    cfg.family = "unknown"  # bypass __post_init__ on purpose
    with pytest.raises(ValueError):
        build_model(cfg, small_graph, seed=0)


# -- global permutation equivariance ------------------------------------------------


def permute_graph(g, perm):
    dense = g.adjacency.to_dense()[np.ix_(perm, perm)]
    return DirectedGraph(SparseMatrix.from_dense(dense), g.features[perm],
                         g.labels[perm], g.n_classes)


@pytest.mark.parametrize("family,kwargs", [
    ("scalenet", {"alpha": 0.5, "beta": 1.0, "gamma": -1.0, "comb1": "jk_max"}),
    ("one_ig", {}),
    ("one_ym", {}),
])
def test_permutation_equivariance(small_graph, family, kwargs):
    rng = np.random.default_rng(31)
    perm = rng.permutation(small_graph.n)
    cfg = ModelConfig(family=family, layers=2, hidden=8, **kwargs)
    base = build_model(cfg, small_graph, seed=13)
    shuffled = build_model(cfg, permute_graph(small_graph, perm), seed=13)
    out_base = base.forward(small_graph.features).data
    out_perm = shuffled.forward(small_graph.features[perm]).data
    assert np.allclose(out_perm, out_base[perm], atol=1e-9)


# -- gradients through full models ----------------------------------------------------


def gradient_check_error(graph, family, features):
    cfg = ModelConfig(family=family, alpha=0.5, beta=1.0, gamma=0.0, layers=2,
                      hidden=5, comb1="jk_cat" if family == "scalenet" else "add",
                      comb2="jk_max", use_bn=True)
    model = build_model(cfg, graph, seed=7)
    idx = np.arange(graph.n)

    def loss():
        logits = model.forward(features, training=True, rng=None)
        return softmax_cross_entropy(logits, graph.labels, idx)

    return finite_diff_check(loss, model.params(), eps=1e-5, max_entries=12, seed=0)


@pytest.mark.parametrize("family", ["scalenet", "one_ym", "dirgnn_lite"])
def test_model_gradient_check(small_graph, family):
    assert gradient_check_error(small_graph, family, small_graph.features) < 1e-4


@pytest.mark.parametrize("family", ["scalenet", "one_ym", "dirgnn_lite"])
def test_sparse_path_gradient_check(small_graph, family):
    # a feature array other than the graph's own takes the sparse path in layer 1
    assert gradient_check_error(small_graph, family, small_graph.features.copy()) < 1e-4


# -- layer 1's precomputed inputs -------------------------------------------------------


def logits_and_grads(model, graph, features):
    for p in model.params():
        p.grad = None
    logits = model.forward(features, training=True, rng=None)
    backward(softmax_cross_entropy(logits, graph.labels, np.arange(graph.n)))
    return logits.data, [p.grad for p in model.params()]


@pytest.mark.parametrize("family", FAMILIES)
def test_precomputed_layer_one_matches_sparse_path(small_graph, family):
    # scalenet: a coefficient pair, a union block and an intersection block. No batchnorm:
    # it makes the layer bias gradients zero up to rounding, which no rtol can compare.
    directions = {"alpha": 0.5, "beta": 2.0, "gamma": 3.0} if family == "scalenet" else {}
    cfg = ModelConfig(family=family, layers=2, hidden=6, comb2="jk_cat",
                      comb1="jk_cat" if family == "scalenet" else "add", **directions)
    model = build_model(cfg, small_graph, seed=3)
    fast, fast_grads = logits_and_grads(model, small_graph, small_graph.features)
    slow, slow_grads = logits_and_grads(model, small_graph, small_graph.features.copy())
    if family == "mlp":
        assert np.array_equal(fast, slow)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)
    assert len(fast_grads) == len(slow_grads) == len(model.params())
    for got, want in zip(fast_grads, slow_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_precomputed_layer_one_runs_no_sparse_product(small_graph, monkeypatch):
    calls = []
    spmm = models.spmm

    def counted(s, x):
        calls.append(s)
        return spmm(s, x)

    cfg = ModelConfig(alpha=0.5, beta=0.5, gamma=-1.0, layers=1, hidden=4)
    model = build_model(cfg, small_graph, seed=0)
    monkeypatch.setattr(models, "spmm", counted)
    model.forward(small_graph.features)
    assert calls == []
    model.forward(small_graph.features.copy())
    assert calls == channel_matrices(model)  # one product per blended pair


def params_view_the_vector(model):
    """Every parameter, then every batchnorm layer's statistics, is a view of ``state``,
    in that order; ``vector`` is the parameter part."""
    stats = [layer.bn_stats for layer in model.layers if layer.bn_stats is not None]
    arrays = [p.data for p in model.params()] + stats
    return (np.array_equal(np.concatenate([a.ravel() for a in arrays]), model.state)
            and all(np.shares_memory(a, model.state) for a in arrays)
            and np.shares_memory(model.vector, model.state)
            and model.vector.size == sum(p.data.size for p in model.params()))


@pytest.mark.parametrize("family", FAMILIES)
def test_params_are_views_of_one_vector(small_graph, family):
    directions = {"alpha": 0.5, "comb1": "jk_cat"} if family == "scalenet" else {}
    cfg = ModelConfig(family=family, layers=2, hidden=6, use_bn=True, comb2="jk_cat",
                      **directions)
    model = build_model(cfg, small_graph, seed=2)
    assert params_view_the_vector(model)
    assert len(model.state) == model.vector.size + 2 * 2 * cfg.hidden
    snap = model.snapshot()
    split = make_random_splits(small_graph, n_splits=1, seed=0)[0]
    harness.train(model, small_graph, split, harness.TrainConfig(max_epochs=3), seed=2)
    model.restore(snap)
    assert params_view_the_vector(model)


def test_snapshot_is_unchanged_by_a_later_step(small_graph):
    model = build_model(ModelConfig(alpha=0.5, hidden=6), small_graph, seed=4)
    before = model.vector.copy()
    snap = model.snapshot()
    split = make_random_splits(small_graph, n_splits=1, seed=0)[0]
    harness.train(model, small_graph, split, harness.TrainConfig(max_epochs=3), seed=4)
    assert not np.array_equal(model.vector, before)  # train restored a stepped state
    model.restore(snap)
    assert np.array_equal(model.vector, before)


def test_snapshot_restore_round_trip(small_graph):
    cfg = ModelConfig(alpha=0.5, layers=2, hidden=6, use_bn=True)
    model = build_model(cfg, small_graph, seed=1)
    before = model.forward(small_graph.features).data.copy()
    snap = model.snapshot()
    for p in model.params():
        p.data += 1.0
    model.layers[0].bn_stats[0] += 5.0
    assert not np.allclose(model.forward(small_graph.features).data, before)
    model.restore(snap)
    assert np.array_equal(model.forward(small_graph.features).data, before)


# -- transposes of the model matrices ------------------------------------------------------


def channel_matrices(model):
    return [m for m, _ in model.layers[0].channels]


def test_model_matrices_hold_int32_indices_shared_with_their_words(small_graph):
    plan = MatrixPlan(small_graph.adjacency)
    for word in scales.MODEL_WORDS:
        modes = scales.SELFLOOP_MODES if len(word) == 1 else scales.SECOND_SCALE_SELFLOOP_MODES
        for mode in modes:
            assert np.shares_memory(plan.normalized(word, mode).col_indices,
                                    plan.word(word, mode).col_indices)
    cfg = ModelConfig(alpha=0.5, beta=1.0, gamma=0.5, layers=1, hidden=8)
    for mat in channel_matrices(build_model(cfg, small_graph, seed=0, plan=plan)):
        assert mat.col_indices.nbytes == 4 * mat.nnz


def count_sorts(monkeypatch):
    """List that grows by one for every transpose actually sorted (a cache miss)."""
    sorts = []
    real = sparse._sorted_transpose
    monkeypatch.setattr(sparse, "_sorted_transpose", lambda s: sorts.append(s) or real(s))
    return sorts


def config_sweep():
    for family in FAMILIES:
        if family == "mlp":
            continue
        params = (0.0, 0.5, 1.0, 2.0, 3.0) if family == "scalenet" else (0.5,)
        for param in params:
            for selfloop_mode in ("add", "remove", "keep"):
                for second in ("keep", "remove"):
                    yield ModelConfig(family=family, alpha=param, beta=param, gamma=param,
                                      selfloop_mode=selfloop_mode,
                                      second_scale_selfloops=second)


@pytest.mark.parametrize("profile", [DirectionProfile(), DirectionProfile("out", 0.3)])
def test_linked_transposes_match_a_fresh_sort(monkeypatch, profile):
    # the "out" profile gives nodes with no in-edges: zero row and column sums
    g = generate_dsbm(40, 3, 0.2, 0.05, profile=profile, seed=4)
    sorts = count_sorts(monkeypatch)
    for cfg in config_sweep():
        mats = channel_matrices(build_model(cfg, g, seed=0))
        sorts.clear()
        got = [transpose(m) for m in mats]
        # only a lone side of A/T and of AA/TT has no partner
        assert len(sorts) == (2 if cfg.family == "scalenet" and cfg.alpha in (0.0, 1.0) else 0)
        for m, t in zip(mats, got):
            want = transpose(SparseMatrix(m.n_rows, m.n_cols, m.row_offsets, m.col_indices,
                                          m.values))
            assert t == want and t.values.tobytes() == want.values.tobytes(), cfg


def train_two_epochs(cfg, graph):
    model = build_model(cfg, graph, seed=1)
    split = make_random_splits(graph, seed=0)[0]
    harness.train(model, graph, split, harness.TrainConfig(max_epochs=2), seed=1)
    return model


@pytest.mark.parametrize("directions, want", [((0.5, 0.5, 0.5), 1), ((1.0, 2.0, 3.0), 2)])
def test_scalenet_build_and_training_sort_one_transpose_per_lone_side(
        small_graph, monkeypatch, directions, want):
    # 1: model_matrix_family's sort of A; (1, 2, 3) adds the lone S_A's transpose
    sorts = count_sorts(monkeypatch)
    alpha, beta, gamma = directions
    train_two_epochs(ModelConfig(alpha=alpha, beta=beta, gamma=gamma, layers=2, hidden=4),
                     small_graph)
    assert len(sorts) == want


@pytest.mark.parametrize("family", ["gcn", "one_ym", "one_ig", "one_igi2", "one_igu2",
                                    "one_igu3", "dirgnn_lite"])
def test_other_families_train_without_sorting_a_transpose(small_graph, monkeypatch, family):
    model = build_model(ModelConfig(family=family, layers=2, hidden=4), small_graph, seed=1)
    sorts = count_sorts(monkeypatch)
    split = make_random_splits(small_graph, seed=0)[0]
    harness.train(model, small_graph, split, harness.TrainConfig(max_epochs=2), seed=1)
    assert sorts == []


@pytest.mark.parametrize("profile", [DirectionProfile(), DirectionProfile("out", 0.3)])
def test_every_balanced_blend_is_its_sorted_transpose(profile):
    g = generate_dsbm(40, 3, 0.2, 0.05, profile=profile, seed=6)
    plan = MatrixPlan(g.adjacency)
    c_m, c_n = direction_coefficients(0.5)
    assert c_m == c_n
    for words, modes in ((("A", "T"), ("add", "remove", "keep")),
                         (("AT", "TA"), ("keep", "remove")), (("AA", "TT"), ("keep", "remove"))):
        for mode in modes:
            blend = plan.blend(words, mode, c_m, c_n)
            assert plan.blend(words, mode, c_m, c_n) is blend  # built once
            assert transpose(blend) is blend
            fresh = sparse._sorted_transpose(blend)
            assert fresh == blend and fresh.values.tobytes() == blend.values.tobytes()


def test_an_unbalanced_blend_stays_unmarked_and_its_gradients_check(small_graph, monkeypatch):
    monkeypatch.setattr(models, "direction_coefficients",
                        lambda a: ((1.0 + a) * a, (1.0 + a) * (1.0 - a) * 1.01))
    cfg = ModelConfig(alpha=0.5, beta=-1.0, gamma=0.5, layers=2, hidden=5, comb1="jk_cat")
    model = build_model(cfg, small_graph, seed=7)
    blends = channel_matrices(model)
    assert len(blends) == 2 and all(b._t_cache is None for b in blends)
    idx = np.arange(small_graph.n)
    features = small_graph.features.copy()  # layer 1 on the sparse path too

    def loss():
        logits = model.forward(features, training=True, rng=None)
        return softmax_cross_entropy(logits, small_graph.labels, idx)

    assert finite_diff_check(loss, model.params(), eps=1e-5, max_entries=12, seed=0) < 1e-4
    for b in blends:  # the backward sorted each blend's transpose, which is not the blend
        assert transpose(b) == sparse._sorted_transpose(b) and transpose(b) != b


def test_balanced_scalenet_trains_without_sorting_a_transpose(small_graph, monkeypatch):
    model = build_model(ModelConfig(alpha=0.5, beta=0.5, gamma=0.5, layers=2, hidden=4),
                        small_graph, seed=1)
    sorts = count_sorts(monkeypatch)
    split = make_random_splits(small_graph, seed=0)[0]
    harness.train(model, small_graph, split, harness.TrainConfig(max_epochs=2), seed=1)
    assert sorts == []


def test_dropping_a_trained_scalenet_frees_its_matrices_without_the_cycle_collector(
        small_graph):
    gc.disable()
    try:
        model = train_two_epochs(ModelConfig(alpha=0.5, beta=0.5, gamma=0.5, layers=2,
                                             hidden=4), small_graph)
        values = [weakref.ref(m.values) for m in channel_matrices(model)]
        assert len(values) == 3  # one blend per pair
        del model
        assert [v() for v in values] == [None] * 3
    finally:
        gc.enable()
