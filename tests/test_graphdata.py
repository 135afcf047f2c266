import json
from pathlib import Path

import numpy as np
import pytest

from scalegraph import graphdata
from scalegraph.graphdata import (
    DATASET_FILES,
    DataError,
    DirectedGraph,
    DirectionProfile,
    SplitSet,
    compute_stats,
    generate_dsbm,
    load_dataset,
    make_random_splits,
    neighbor_label_table,
    save_dataset,
)
from scalegraph.sparse import SparseMatrix, degrees

HAND7 = Path(__file__).parent / "data" / "hand7"


def load_hand7():
    return load_dataset(HAND7 / "edges.tsv", HAND7 / "features.csv",
                        HAND7 / "labels.txt", HAND7 / "splits.json")


def small_graph(edges, labels, n=None):
    n = n or len(labels)
    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    adj = SparseMatrix.from_edges(n, src, dst)
    feats = np.zeros((n, 1))
    return DirectedGraph(adj, feats, labels)


# -- loading ------------------------------------------------------------------


def test_hand7_round_trips_known_values():
    g, splits = load_hand7()
    assert (g.n, g.d, g.n_classes) == (7, 2, 3)
    assert g.adjacency.nnz == 8
    assert list(g.labels) == [0, 0, 1, 1, 2, 2, 0]
    assert len(splits) == 1
    assert list(splits[0].train) == [0, 2, 4, 6]
    assert list(splits[0].val) == [1, 5]
    assert list(splits[0].test) == [3]


def test_save_load_is_fixed_point(tmp_path):
    g, splits = load_hand7()
    first = save_dataset(tmp_path / "a", g, splits)
    assert tuple(first) == DATASET_FILES
    g2, splits2 = load_dataset(*first.values())
    second = save_dataset(tmp_path / "b", g2, splits2)
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes()


def test_empty_feature_file_rejected(tmp_path):
    (tmp_path / "features.csv").write_text("")
    with pytest.raises(DataError, match="feature rows"):
        load_dataset(HAND7 / "edges.tsv", tmp_path / "features.csv",
                     HAND7 / "labels.txt", HAND7 / "splits.json")


def test_split_index_out_of_range_rejected(tmp_path):
    payload = {"splits": [{"train": [0, 7], "val": [], "test": []}]}
    (tmp_path / "splits.json").write_text(json.dumps(payload))
    with pytest.raises(DataError, match="out of range"):
        load_dataset(HAND7 / "edges.tsv", HAND7 / "features.csv",
                     HAND7 / "labels.txt", tmp_path / "splits.json")


def test_overlapping_split_rejected(tmp_path):
    payload = {"splits": [{"train": [0, 1], "val": [1], "test": []}]}
    (tmp_path / "splits.json").write_text(json.dumps(payload))
    with pytest.raises(DataError, match="overlap"):
        load_dataset(HAND7 / "edges.tsv", HAND7 / "features.csv",
                     HAND7 / "labels.txt", tmp_path / "splits.json")


def reference_split_set(splits, n):
    """Python ``sorted`` per part and ``np.unique`` for overlaps: ``SplitSet``'s reference.
    Returns the sorted parts and the text of the first ``DataError``, or None."""
    parts = [[np.ascontiguousarray(sorted(p), dtype=np.int64) for p in s] for s in splits]
    for i, (train, val, test) in enumerate(parts):
        joined = np.concatenate([train, val, test])
        if len(train) == 0:
            return parts, f"split {i}: empty train set"
        if len(joined) and (joined.min() < 0 or joined.max() >= n):
            return parts, f"split {i}: node index out of range (n={n})"
        if len(np.unique(joined)) != len(joined):
            return parts, f"split {i}: train/val/test sets overlap"
    return parts, None


def test_split_set_sorts_and_rejects_like_its_reference():
    rng = np.random.default_rng(8)
    cases = [([([3, 1, 2], [0], [])], 4), ([((), [1], [2])], 3), ([([2, 2], [], [])], 3),
             ([([0, 1], [4], [1])], 5), ([(np.array([5, 0], dtype=np.int32), [9], [3, 8])], 10)]
    for _ in range(200):  # repeats, overlaps, indices out of range, empty parts
        n = int(rng.integers(1, 12))
        cases.append(([tuple(rng.integers(-1, n + 1, size=rng.integers(0, 5)).tolist()
                             for _ in range(3)) for _ in range(int(rng.integers(1, 3)))], n))
    for splits, n in cases:
        want, error = reference_split_set(splits, n)
        s = SplitSet(splits)
        for got, ref in zip(s, want, strict=True):
            for g, r in zip((got.train, got.val, got.test), ref):
                assert g.dtype == np.int64 and np.array_equal(g, r)
        if error is None:
            assert s.validate(n) is s
        else:
            with pytest.raises(DataError) as err:
                s.validate(n)
            assert str(err.value) == error


def test_graph_features_are_an_owned_read_only_copy():
    features = np.arange(6.0).reshape(3, 2)
    g = DirectedGraph(SparseMatrix.from_edges(3, [0], [1]), features, [0, 1, 1])
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0
    features[0, 0] = 7.0  # the caller's array stays writable and is not aliased
    assert g.features[0, 0] == 0.0


def test_row_normalize_features():
    from scalegraph.graphdata import row_normalize_features

    g = small_graph([(0, 1)], [0, 1, 0])
    g = DirectedGraph(g.adjacency, np.array([[1.0, 3.0], [0.0, 0.0], [-2.0, 2.0]]),
                      g.labels, 2)
    out = row_normalize_features(g)
    assert np.allclose(out.features, [[0.25, 0.75], [0.0, 0.0], [-0.5, 0.5]])
    assert np.array_equal(g.features[0], [1.0, 3.0])  # original untouched


def test_single_feature_column_loads_like_any_width(tmp_path):
    (tmp_path / "features.csv").write_text("\n".join(str(float(i)) for i in range(7)) + "\n")
    g, _ = load_dataset(HAND7 / "edges.tsv", tmp_path / "features.csv",
                        HAND7 / "labels.txt", HAND7 / "splits.json")
    assert g.d == 1 and g.features[3, 0] == 3.0


def test_parse_errors_carry_line_numbers(tmp_path):
    (tmp_path / "labels.txt").write_text("0\nx\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(HAND7 / "edges.tsv", HAND7 / "features.csv",
                     tmp_path / "labels.txt", HAND7 / "splits.json")
    (tmp_path / "features.csv").write_text("1.0,2.0\n1.0\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(HAND7 / "edges.tsv", tmp_path / "features.csv",
                     HAND7 / "labels.txt", HAND7 / "splits.json")


@pytest.mark.parametrize("text", [
    "1.0,2.5\n-3e-2,4\n0.5,0.25\n", "1.0,2.5\n-3e-2,4\n0.5,0.25",  # plain text
    "1.0, 2.5\r\n-3e-2 ,4\r\n0.5,0.25\r\n", "1.0,2.5\n\n-3e-2,4\n  \n0.5,0.25\n",
    "1.0,2.5\n-3e-2,4\n0.5,0.25\x0c",
])
def test_split_and_line_by_line_feature_reads_agree(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_text(text)
    got = graphdata._read_features(path, 3)
    want = graphdata._feature_lines(path, path.read_text().splitlines(), 3)
    assert np.array_equal(got, want) and got.shape == (3, 2)


@pytest.mark.parametrize("text, message", [
    ("1,2\n3\n4,5,6\n", "line 2: expected 2 values"),  # 2 + 1 + 3 values: 3 x 2 in all
    ("1,2\n3,,\n4,5\n", "line 2: bad feature value"),
    ("1,2\x0c,3\n4,5,6\n7,8,9\n", "line 2: bad feature value"),  # a form feed ends a line
    ("1,2\n3,4\n", "expected 3 feature rows, found 2"),
])
def test_feature_reads_report_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "features.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        graphdata._read_features(path, 3)


# -- statistics ----------------------------------------------------------------


def test_stats_no_edges():
    g = small_graph([], [0, 0, 1, 1], n=4)
    stats = compute_stats(g, [0, 2])
    assert stats.pct_no_in == 100.0 and stats.pct_no_out == 100.0
    assert neighbor_label_table(g, "A") == (0, 0, 4)
    assert neighbor_label_table(g, "AT") == (0, 0, 4)


def test_stats_four_node_hand_graph():
    # edges 0->1, 2->1; labels 0,0,0,1
    g = small_graph([(0, 1), (2, 1)], [0, 0, 0, 1])
    stats = compute_stats(g, [0, 1, 2, 3])
    assert stats.pct_no_in == 75.0
    # node 1 is in-homophilic (in-neighbor labels {0, 0}, own label 0)
    assert stats.in_table == {"homo": 1, "hetero": 0, "no_neighbor": 3}
    # out direction: nodes 0 and 2 both see label 0 = their own
    assert neighbor_label_table(g, "A") == (2, 0, 2)


def test_majority_ties_count_as_heterophilic():
    g = small_graph([(1, 0), (2, 0)], [0, 0, 1])
    homo, hetero, none = neighbor_label_table(g, "AT")
    assert (homo, hetero, none) == (0, 1, 2)


def test_table_partitions_nodes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        dense = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(dense, 0)
        labels = rng.integers(0, 3, n)
        g = DirectedGraph(SparseMatrix.from_dense(dense), np.zeros((n, 1)), labels, 3)
        for direction in ("A", "AT"):
            assert sum(neighbor_label_table(g, direction)) == n


def test_hand7_stats():
    g, splits = load_hand7()
    stats = compute_stats(g, splits[0].train)
    assert stats.imbalance_ratio == 2.0  # train classes (2, 1, 1)
    assert stats.pct_no_in == pytest.approx(100 / 7)
    assert stats.pct_no_out == pytest.approx(100 / 7)
    assert stats.in_table == {"homo": 2, "hetero": 4, "no_neighbor": 1}
    assert stats.out_table == {"homo": 2, "hetero": 4, "no_neighbor": 1}


def test_empty_train_split_rejected():
    g = small_graph([(0, 1)], [0, 1])
    with pytest.raises(DataError):
        compute_stats(g, [])


CHAMELEON = Path(__file__).parent / "data" / "chameleon"


@pytest.mark.skipif(not CHAMELEON.exists(), reason="benchmark files not supplied")
def test_chameleon_cross_check():
    g, splits = load_dataset(CHAMELEON / "edges.tsv", CHAMELEON / "features.csv",
                             CHAMELEON / "labels.txt", CHAMELEON / "splits.json")
    stats = compute_stats(g, splits[0].train)
    assert stats.pct_no_out == pytest.approx(0.0, abs=0.05)
    assert stats.pct_no_in == pytest.approx(62.1, abs=0.05)
    assert neighbor_label_table(g, "AT") == (237, 627, 1413)


# -- synthetic graphs -------------------------------------------------------------


def test_dsbm_deterministic_under_seed():
    a = generate_dsbm(60, 3, 0.2, 0.02, seed=7)
    b = generate_dsbm(60, 3, 0.2, 0.02, seed=7)
    c = generate_dsbm(60, 3, 0.2, 0.02, seed=8)
    assert a.adjacency == b.adjacency
    assert np.array_equal(a.features, b.features)
    assert a.adjacency != c.adjacency


def test_dsbm_adjacency_is_canonical_pattern():
    # the CSR built from the sampled mask equals the one from_dense builds
    profile = DirectionProfile(signal="out", no_in_fraction=0.5)
    for g in (generate_dsbm(60, 3, 0.2, 0.02, seed=7),
              generate_dsbm(100, 4, 0.3, 0.02, profile=profile, seed=3),
              generate_dsbm(5, 5, 0.0, 0.0, seed=0)):
        assert g.adjacency == SparseMatrix.from_dense(g.adjacency.to_dense())
        assert np.all(g.adjacency.values == 1.0)


@pytest.mark.parametrize("profile", [DirectionProfile(),
                                     DirectionProfile(signal="out", no_in_fraction=0.3)])
def test_dsbm_chunked_draws_match_one_chunk(monkeypatch, profile):
    for args in ((70, 4, 0.2, 0.03), (30, 3, 1.0, 0.0)):
        one = generate_dsbm(*args, profile=profile, seed=5)  # 70 x 70 draws: one chunk
        # one row per chunk, two rows, and uneven chunks of 12 rows
        for cells in (1, 150, 900):
            monkeypatch.setattr(graphdata, "_DSBM_CHUNK_CELLS", cells)
            g = generate_dsbm(*args, profile=profile, seed=5)
            assert g.adjacency == one.adjacency
            assert np.array_equal(g.features, one.features)
            assert np.array_equal(g.labels, one.labels)
            assert not np.any(g.adjacency.diagonal())
        monkeypatch.undo()
    # grid-desk's graph (n = 300, seed 42): three chunks by default, one of 2**20 cells
    desk = dict(profile=profile, feature_noise=0.5, seed=42)
    chunked = generate_dsbm(300, 5, 0.10, 0.01, **desk)
    monkeypatch.setattr(graphdata, "_DSBM_CHUNK_CELLS", 1 << 20)
    one = generate_dsbm(300, 5, 0.10, 0.01, **desk)
    assert chunked.adjacency == one.adjacency
    assert np.array_equal(chunked.features, one.features)


def _dsbm_by_the_pairwise_rule(n, n_classes, p_in, p_out, profile, seed):
    """The adjacency of generate_dsbm's draws, each pair (u, v) against p_in if the labels
    match and p_out if not, with one n x n array of draws."""
    rng = np.random.default_rng(seed)
    sizes = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    labels = np.repeat(np.arange(n_classes), sizes)
    draws = rng.random((n, n))
    hit = np.where(labels[:, None] == labels[None, :], draws < p_in, draws < p_out)
    np.fill_diagonal(hit, False)
    if profile.signal == "out":
        starts = np.cumsum([0] + sizes)
        for start, size in zip(starts, sizes):
            hit[:, start:start + int(np.floor(profile.no_in_fraction * size))] = False
    return SparseMatrix.from_dense(hit.astype(float))


@pytest.mark.parametrize("profile", [DirectionProfile(),
                                     DirectionProfile(signal="out", no_in_fraction=0.4)])
def test_dsbm_draws_each_pair_against_its_class_rule(monkeypatch, profile):
    # class blocks of uneven sizes (47 = 12 + 12 + 12 + 11, 31 = 11 + 10 + 10), chunks of
    # one row, a few rows, uneven row runs and the whole graph
    for n, n_classes, seed in ((47, 4, 0), (31, 3, 1), (60, 5, 2), (9, 9, 3)):
        want = _dsbm_by_the_pairwise_rule(n, n_classes, 0.4, 0.05, profile, seed)
        for cells in (1, 2 * n, 7 * n + 3, 1 << 15):
            monkeypatch.setattr(graphdata, "_DSBM_CHUNK_CELLS", cells)
            got = generate_dsbm(n, n_classes, 0.4, 0.05, profile=profile, seed=seed)
            assert got.adjacency == want, (n, cells)


def test_dsbm_pure_intra_when_p_out_zero():
    g = generate_dsbm(50, 5, 0.3, 0.0, seed=1)
    rows = np.repeat(np.arange(g.n), np.diff(g.adjacency.row_offsets))
    assert np.all(g.labels[rows] == g.labels[g.adjacency.col_indices])


def test_dsbm_exact_class_sizes():
    g = generate_dsbm(47, 4, 0.1, 0.01, seed=2)
    assert list(np.bincount(g.labels)) == [12, 12, 12, 11]


def test_dsbm_intra_fraction_near_expectation():
    n, c, p_in, p_out = 120, 4, 0.2, 0.05
    sizes = np.bincount(generate_dsbm(n, c, p_in, p_out, seed=0).labels)
    n_in = float(np.sum(sizes * (sizes - 1)))
    n_out = n * (n - 1) - n_in
    expect = p_in * n_in / (p_in * n_in + p_out * n_out)
    fracs = []
    for seed in range(10):
        g = generate_dsbm(n, c, p_in, p_out, seed=seed)
        rows = np.repeat(np.arange(g.n), np.diff(g.adjacency.row_offsets))
        intra = np.sum(g.labels[rows] == g.labels[g.adjacency.col_indices])
        fracs.append(intra / g.adjacency.nnz)
    assert abs(np.mean(fracs) - expect) < 0.05


def test_dsbm_in_starved_profile():
    profile = DirectionProfile(signal="out", no_in_fraction=0.5)
    g = generate_dsbm(100, 4, 0.3, 0.02, profile=profile, seed=3)
    in_deg = degrees(g.adjacency, "col")
    assert np.sum(in_deg == 0) >= 48  # floor(0.5 * 25) starved nodes per class
    out_deg = degrees(g.adjacency, "row")
    assert np.mean(out_deg > 0) > 0.9


def test_dsbm_validation():
    with pytest.raises(ValueError):
        generate_dsbm(10, 3, 1.5, 0.0)
    with pytest.raises(ValueError):
        generate_dsbm(2, 3, 0.1, 0.1)
    with pytest.raises(ValueError):
        DirectionProfile(signal="sideways")


# -- splits -------------------------------------------------------------------------


def test_random_splits_stratified_and_deterministic():
    g = generate_dsbm(90, 3, 0.2, 0.02, seed=1)
    s1 = make_random_splits(g, n_splits=3, seed=5)
    s2 = make_random_splits(g, n_splits=3, seed=5)
    assert len(s1) == 3
    for a, b in zip(s1.splits, s2.splits):
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
    for s in s1.splits:
        assert set(np.unique(g.labels[s.train])) == {0, 1, 2}
        assert len(np.intersect1d(s.train, s.test)) == 0
    for n_splits in (0, -1):
        with pytest.raises(ValueError, match="n_splits must be at least 1"):
            make_random_splits(g, n_splits=n_splits)

