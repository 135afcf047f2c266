import numpy as np
import pytest

from scalegraph import scales
from scalegraph.scales import (
    ScaleSpec,
    build_scaled_adjacency,
    diffusion_matrix,
    meeting_matrix,
    model_matrix_family,
    proximity_matrix,
    remove_shared_edges,
)
from scalegraph.sparse import SparseMatrix, transpose

from conftest import random_digraph, random_weighted


def support(s):
    return set(zip(*np.nonzero(s.to_dense())))


def word_support_oracle(dense, word):
    """Path enumeration: (u, v) is set iff a walk following the word's hop
    directions leads from u to v (A = forward edge, T = reversed edge)."""
    n = len(dense)
    out_nb = [set(np.nonzero(dense[i])[0]) for i in range(n)]
    in_nb = [set(np.nonzero(dense[:, i])[0]) for i in range(n)]
    pairs = set()
    for u in range(n):
        frontier = {u}
        for ch in word:
            step = out_nb if ch == "A" else in_nb
            frontier = set().union(*(step[v] for v in frontier)) if frontier else set()
        pairs |= {(u, int(v)) for v in frontier}
    return pairs


ALL_WORDS = [a for a in "AT"] + [a + b for a in "AT" for b in "AT"] + \
    [a + b + c for a in "AT" for b in "AT" for c in "AT"]


def test_spec_validation():
    with pytest.raises(ValueError):
        ScaleSpec("")
    with pytest.raises(ValueError):
        ScaleSpec("AB")
    with pytest.raises(ValueError):
        ScaleSpec("A", "sometimes")
    assert ScaleSpec("ATT").scale == 3


def test_identity_word_returns_adjacency(tree6):
    built = build_scaled_adjacency(tree6, ScaleSpec("A"))
    assert built.matrix == tree6.pattern()


def test_word_at_matches_worked_example(tree6):
    built = build_scaled_adjacency(tree6, ScaleSpec("AT"))
    assert support(built.matrix) == {(0, 0), (0, 2), (2, 0), (2, 2),
                                     (3, 3), (3, 4), (4, 3), (4, 4), (5, 5)}


def test_word_tt_dense_oracle(tree6):
    built = build_scaled_adjacency(tree6, ScaleSpec("TT"))
    assert support(built.matrix) == word_support_oracle(tree6.to_dense(), "TT")


def test_selfloop_mode_applied_after_product(tree6):
    removed = build_scaled_adjacency(tree6, ScaleSpec("AT", "remove")).matrix
    assert support(removed) == {(0, 2), (2, 0), (3, 4), (4, 3)}
    added = build_scaled_adjacency(tree6, ScaleSpec("AT", "add")).matrix
    assert np.all(np.diag(added.to_dense()) == 1)


def test_all_words_match_path_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        a = random_digraph(rng, n, 0.3)
        dense = a.to_dense()
        for word in ALL_WORDS:
            built = build_scaled_adjacency(a, ScaleSpec(word))
            assert support(built.matrix) == word_support_oracle(dense, word), word


# -- proximity ----------------------------------------------------------------


def test_meeting_matrix_pruned_order2(tree6):
    assert support(meeting_matrix(tree6, 2)) == {(0, 2), (2, 0), (3, 4), (4, 3)}


def test_meeting_matrix_pruned_order3(tree6):
    assert support(meeting_matrix(tree6, 3)) == {(3, 5), (4, 5), (5, 3), (5, 4)}


def test_meeting_matrix_unpruned_order3(tree6):
    # without pruning the order-3 matrix fills a dense block: the generated
    # self-loops leak every lower-order pair into the higher order
    got = support(meeting_matrix(tree6, 3, prune_generated_selfloops=False))
    assert got == {(i, j) for i in (3, 4, 5) for j in (3, 4, 5)}


def test_unpruned_proximity_equals_direct_product():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = random_digraph(rng, n, 0.3)
        d = a.to_dense()
        for k in (2, 3, 4):
            m = meeting_matrix(a, k, prune_generated_selfloops=False)
            expect = np.linalg.matrix_power(d, k - 1) @ np.linalg.matrix_power(d.T, k - 1)
            assert support(m) == set(zip(*np.nonzero(expect)))


def test_pruned_proximity_matches_iterative_dense_oracle():
    # oracle: rebuild each order densely, zeroing the diagonal before the next
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(3, 12))
        a = random_digraph(rng, n, 0.35)
        d = a.to_dense()
        cur = d @ d.T
        np.fill_diagonal(cur, 0.0)
        for k in (2, 3, 4):
            got = meeting_matrix(a, k, prune_generated_selfloops=True)
            assert support(got) == set(zip(*np.nonzero(cur))), k
            cur = d @ cur @ d.T
            np.fill_diagonal(cur, 0.0)


def test_build_requires_square_adjacency():
    rect = SparseMatrix.from_coo(2, 3, [0], [1], [1.0])
    with pytest.raises(ValueError, match="square"):
        build_scaled_adjacency(rect, ScaleSpec("A"))


def test_proximity_combine_dense_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        a = random_digraph(rng, n, 0.3)
        d = a.to_dense()
        m2 = ((d @ d.T) != 0)
        d2 = ((d.T @ d) != 0)
        np.fill_diagonal(m2, False)
        np.fill_diagonal(d2, False)
        inter = proximity_matrix(a, 2, "intersect")
        union = proximity_matrix(a, 2, "union")
        assert np.array_equal(inter.to_dense() != 0, m2 & d2)
        assert np.array_equal(union.to_dense() != 0, m2 | d2)


def test_proximity_sides_symmetric():
    rng = np.random.default_rng(43)
    for _ in range(15):
        a = random_digraph(rng, int(rng.integers(2, 12)), 0.3)
        for k in (2, 3):
            for side in (meeting_matrix, diffusion_matrix):
                for prune in (True, False):
                    m = side(a, k, prune)
                    assert m == transpose(m)


def test_proximity_order_validation(tree6):
    with pytest.raises(ValueError):
        meeting_matrix(tree6, 1)
    with pytest.raises(ValueError):
        proximity_matrix(tree6, 2, combine="xor")


# -- shared-edge removal ---------------------------------------------------------


def test_remove_shared_edges_disjoint(tree6):
    other = SparseMatrix.from_edges(6, [0], [3])
    assert remove_shared_edges(tree6, [other]) == tree6.pattern()


def test_remove_shared_edges_subset(tree6):
    assert remove_shared_edges(tree6, [tree6]).nnz == 0
    assert remove_shared_edges(tree6, []) == tree6.pattern()


def test_remove_shared_edges_dense_oracle():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        s = random_digraph(rng, n, 0.4)
        b1 = random_digraph(rng, n, 0.3)
        b2 = random_digraph(rng, n, 0.3)
        got = remove_shared_edges(s, [b1, b2])
        expect = (s.to_dense() != 0) & ~(b1.to_dense() != 0) & ~(b2.to_dense() != 0)
        assert np.array_equal(got.to_dense() != 0, expect)


# -- model matrix family ----------------------------------------------------------


def test_model_matrix_family_words(tree6):
    fam = model_matrix_family(tree6)
    assert set(fam) == {"A", "T", "AT", "TA", "AA", "TT"}
    assert fam["A"] == tree6.pattern()
    assert fam["T"] == transpose(tree6).pattern()
    assert support(fam["AT"]) == support(meeting_matrix(tree6, 2, False))


def test_model_matrix_family_selfloop_policies(tree6):
    fam = model_matrix_family(tree6, selfloop_mode="add", second_scale_selfloops="remove")
    assert np.all(np.diag(fam["A"].to_dense()) == 1)
    assert np.all(np.diag(fam["AT"].to_dense()) == 0)


def test_model_matrix_family_transposes_once_and_matches_each_word(monkeypatch):
    rng = np.random.default_rng(12)
    calls = []
    monkeypatch.setattr(scales, "transpose", lambda s: calls.append(s) or transpose(s))
    for mode, second in [("keep", "keep"), ("add", "remove"), ("remove", "keep")]:
        adj = random_weighted(rng, 40, 40, 0.1)
        calls.clear()
        fam = model_matrix_family(adj, mode, second)
        assert len(calls) == 1
        for word, got in fam.items():
            spec = ScaleSpec(word, mode if len(word) == 1 else second)
            assert got == build_scaled_adjacency(adj, spec).matrix

