import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalegraph import sparse
from scalegraph.sparse import (
    SparseMatrix,
    add_self_loops,
    degrees,
    format_coordinate_text,
    format_edge_list,
    parse_coordinate_text,
    parse_edge_list,
    pattern_difference,
    pattern_intersection,
    pattern_union,
    remove_self_loops,
    spgemm,
    apply_selfloop_mode,
    sym_normalize,
    transpose,
    weighted_sum,
)

from conftest import random_digraph, random_weighted


def support(s):
    return set(zip(*np.nonzero(s.to_dense())))


# -- construction and invariants --------------------------------------------


def test_from_coo_sums_duplicates():
    s = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
    assert s.nnz == 2
    assert s.to_dense()[0, 1] == 3.5
    assert s.to_dense()[1, 0] == 4.0


def test_from_edges_collapses_duplicates():
    s = SparseMatrix.from_edges(3, [0, 0, 2], [1, 1, 0])
    assert s.nnz == 2
    assert np.all(s.values == 1.0)
    assert SparseMatrix.from_edges(3, [], []) == SparseMatrix.empty(3, 3)
    rng = np.random.default_rng(4)
    src, dst = rng.integers(0, 20, size=(2, 300))
    dense = np.zeros((20, 20))
    dense[src, dst] = 1.0
    assert SparseMatrix.from_edges(20, src, dst) == SparseMatrix.from_dense(dense)


def test_diagonal_matches_dense_oracle():
    rng = np.random.default_rng(12)
    weighted_loops = random_weighted(rng, 7, 7, density=0.5)
    cases = [weighted_loops, random_digraph(rng, 6, 0.4), SparseMatrix.empty(4, 4),
             add_self_loops(random_digraph(rng, 5, 0.3)), SparseMatrix.empty(0, 0)]
    assert np.any(weighted_loops.diagonal() != 0.0)
    for s in cases:
        assert np.array_equal(s.diagonal(), np.diag(s.to_dense()))
    assert random_weighted(rng, 3, 5).diagonal() is None


def test_invalid_offsets_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1, 1, 1])


def test_unsorted_columns_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(1, 3, [0, 2], [2, 0], [1, 1])


def test_nonfinite_values_rejected():
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [0, 1], [0], [np.inf])


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(2, 2, [0], [5], [1.0])


@pytest.mark.parametrize("at", range(9))
def test_order_check_sees_every_pair_across_chunk_edges(monkeypatch, at):
    # chunks of 4 entry pairs: pairs (3, 4) and (7, 8) cross chunk edges
    monkeypatch.setattr(sparse, "_CHECK_CHUNK", 4)
    cols = list(range(10))
    cols[at], cols[at + 1] = cols[at + 1], cols[at]
    with pytest.raises(ValueError, match="strictly increasing within rows"):
        SparseMatrix(1, 10, [0, 10], cols, np.ones(10))
    # the same columns are valid when entry ``at + 1`` starts a row: rows [0, at] and the rest
    s = SparseMatrix(2, 10, [0, at + 1, 10], cols, np.ones(10))
    assert s.nnz == 10
    # empty rows at a chunk edge, and a row repeating the columns of the one before
    SparseMatrix(4, 10, [0, 4, 4, 4, 8], [0, 1, 2, 3, 0, 1, 2, 3], np.ones(8))


def test_pattern_values_are_read_only_views_of_one_buffer():
    rng = np.random.default_rng(41)
    a = SparseMatrix.from_edges(6, [0, 1, 2, 2, 5], [1, 1, 0, 2, 3])
    b = random_digraph(rng, 6, 0.4)
    patterns = [a, b.pattern(), transpose(a), spgemm(a, b, "pattern"), pattern_union(a, b),
                pattern_intersection(a, b), pattern_difference(a, b), add_self_loops(a),
                remove_self_loops(add_self_loops(a)), SparseMatrix.identity(4)]
    for p in patterns:
        assert np.array_equal(p.values, np.ones(p.nnz))
        assert p.values.base is patterns[0].values.base and p.values.strides == (0,)
        assert not p.values.flags.writeable
    # a weighted matrix keeps its own values through the same operations
    w = random_weighted(rng, 6, 6)
    for p in (transpose(w), remove_self_loops(w), add_self_loops(w)):
        assert p.values.base is not a.values.base


# -- transpose ---------------------------------------------------------------


def test_transpose_single_edge():
    s = SparseMatrix.from_edges(2, [0], [1])
    assert support(transpose(s)) == {(1, 0)}


def test_transpose_six_node_chain():
    # second hand-built 6-node graph; expected transpose derived by hand
    adj = SparseMatrix.from_edges(6, [0, 1, 3, 4, 5], [1, 2, 2, 2, 1])
    expect_at = {(1, 0), (1, 5), (2, 1), (2, 3), (2, 4)}
    assert support(transpose(adj)) == expect_at


def test_transpose_of_tree6(tree6):
    assert support(transpose(tree6)) == {(1, 0), (1, 2), (2, 3), (2, 4), (0, 5)}


def test_transpose_involution_and_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 16))
        s = random_weighted(rng, n, int(rng.integers(1, 16)))
        t = transpose(s)
        assert np.array_equal(t.to_dense(), s.to_dense().T)
        assert transpose(t) == s


def test_transpose_matches_scipy_oracle():
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(10)
    for _ in range(30):
        n_rows, n_cols = (int(v) for v in rng.integers(1, 40, size=2))
        # low fill leaves rows and columns empty
        s = random_weighted(rng, n_rows, n_cols, density=float(rng.choice([0.02, 0.1, 0.4])))
        want = sp.csr_matrix((s.values, s.col_indices, s.row_offsets), shape=s.shape).T.tocsr()
        want.sort_indices()
        t = transpose(s)
        assert t.shape == want.shape
        assert np.array_equal(t.row_offsets, want.indptr)
        assert np.array_equal(t.col_indices, want.indices)
        assert np.array_equal(t.values, want.data)


def test_transpose_of_symmetric_matrix_is_itself():
    rng = np.random.default_rng(8)
    adj = random_digraph(rng, 12)
    at = sym_normalize(spgemm(adj, transpose(adj), "pattern"))
    assert transpose(at) is at and transpose(at) is at
    assert transpose(adj) is not adj and transpose(adj) == transpose(adj)
    assert np.array_equal(transpose(adj).to_dense(), adj.to_dense().T)


def test_symmetric_transpose_frees_without_the_cycle_collector():
    rng = np.random.default_rng(9)
    adj = random_digraph(rng, 10)
    at = sym_normalize(spgemm(adj, transpose(adj), "pattern"))
    gc.disable()
    try:
        assert transpose(at) is at
        values = weakref.ref(at.values)
        del at
        assert values() is None
    finally:
        gc.enable()


def test_linked_partner_is_the_transpose_until_it_is_dropped(monkeypatch):
    rng = np.random.default_rng(10)
    adj = random_digraph(rng, 12)
    s, t = sym_normalize(adj), sym_normalize(transpose(adj))
    sorts = []
    real = sparse._sorted_transpose
    monkeypatch.setattr(sparse, "_sorted_transpose", lambda m: sorts.append(m) or real(m))
    sparse.link_transposes(s, t)
    assert transpose(s) is t and transpose(t) is s and sorts == []
    gc.disable()
    try:
        del t
        again = transpose(s)  # the partner is gone: sort anew
        assert len(sorts) == 1
        assert again == real(SparseMatrix(12, 12, s.row_offsets, s.col_indices, s.values))
        assert transpose(s) is again and len(sorts) == 1
    finally:
        gc.enable()
    with pytest.raises(ValueError, match="not transposes"):
        sparse.link_transposes(s, SparseMatrix.empty(12, 11))


# -- spgemm ------------------------------------------------------------------


def test_spgemm_identity():
    rng = np.random.default_rng(3)
    s = random_weighted(rng, 6, 6)
    eye = SparseMatrix.identity(6)
    assert spgemm(eye, s) == s
    assert spgemm(s, eye) == s


def test_spgemm_worked_example_meeting_matrix(tree6):
    m2 = spgemm(tree6, transpose(tree6), "counted")
    expect = {(0, 0), (0, 2), (2, 0), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 5)}
    assert support(m2) == expect
    assert np.all(m2.values == 1.0)


def test_spgemm_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, k, m = (int(rng.integers(1, 16)) for _ in range(3))
        a = random_weighted(rng, n, k)
        b = random_weighted(rng, k, m)
        prod = spgemm(a, b, "counted")
        assert np.allclose(prod.to_dense(), a.to_dense() @ b.to_dense(), rtol=0, atol=1e-12)
        pat = spgemm(a, b, "pattern")
        assert support(pat) == support(prod) or set(map(tuple, np.argwhere(prod.to_dense() != 0)))
        assert np.array_equal(pat.col_indices, prod.col_indices)


def _scipy_csr(sp, s):
    return sp.csr_matrix((s.values, s.col_indices, s.row_offsets), shape=s.shape)


def test_spgemm_matches_scipy_oracle():
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(12)
    for _ in range(30):
        n, k, m = (int(v) for v in rng.integers(1, 40, size=3))
        density = float(rng.choice([0.02, 0.1, 0.4]))
        # positive weights: no product entry cancels to zero, which scipy would drop
        a = random_weighted(rng, n, k, density)
        b = random_weighted(rng, k, m, density)
        want = (_scipy_csr(sp, a) @ _scipy_csr(sp, b)).tocsr()
        want.sort_indices()
        prod = spgemm(a, b, "counted")
        assert np.array_equal(prod.row_offsets, want.indptr)
        assert np.array_equal(prod.col_indices, want.indices)
        assert np.allclose(prod.values, want.data, rtol=1e-12, atol=0)
        ones = (_scipy_csr(sp, a.pattern()) @ _scipy_csr(sp, b.pattern())).tocsr()
        ones.sort_indices()
        pat = spgemm(a, b, "pattern")
        assert np.array_equal(pat.row_offsets, ones.indptr)
        assert np.array_equal(pat.col_indices, ones.indices)
        assert np.all(pat.values == 1.0)


def test_sym_normalize_matches_scipy_oracle():
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        # low fill leaves rows and columns empty; their degree term stays zero
        s = random_weighted(rng, n, n, density=float(rng.choice([0.02, 0.1, 0.4])))
        csr = _scipy_csr(sp, s)
        inv_sqrt = [np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
                    for deg in (np.asarray(csr.sum(axis=1)).ravel(),
                                np.asarray(csr.sum(axis=0)).ravel())]
        want = (sp.diags(inv_sqrt[0]) @ csr @ sp.diags(inv_sqrt[1])).toarray()
        assert np.allclose(sym_normalize(s).to_dense(), want, rtol=1e-14, atol=0)


def test_spgemm_dimension_mismatch():
    a = SparseMatrix.empty(2, 3)
    b = SparseMatrix.empty(2, 3)
    with pytest.raises(ValueError):
        spgemm(a, b)


def test_pattern_support_equals_counted_support():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        a = random_digraph(rng, n, 0.3)
        b = random_digraph(rng, n, 0.3)
        assert spgemm(a, b, "pattern") == spgemm(a, b, "counted").pattern()


def reference_spgemm(a, b, semiring):
    """Per-row dense-accumulator product: the row-blocked kernel's reference."""
    acc = np.zeros(b.n_cols)
    out_cols, out_vals = [], []
    offsets = np.zeros(a.n_rows + 1, dtype=np.int64)
    for i in range(a.n_rows):
        parts = []
        for t in range(a.row_offsets[i], a.row_offsets[i + 1]):
            k = a.col_indices[t]
            blo, bhi = b.row_offsets[k], b.row_offsets[k + 1]
            if blo == bhi:
                continue
            bcols = b.col_indices[blo:bhi]
            parts.append(bcols)
            if semiring == "counted":
                acc[bcols] += a.values[t] * b.values[blo:bhi]
        cols = np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
        if semiring == "counted":
            out_vals.append(acc[cols].copy())
            acc[cols] = 0.0
        else:
            out_vals.append(np.ones(len(cols)))
        out_cols.append(cols)
        offsets[i + 1] = offsets[i] + len(cols)
    cols = np.concatenate(out_cols) if out_cols else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(out_vals) if out_vals else np.zeros(0)
    return SparseMatrix(a.n_rows, b.n_cols, offsets, cols, vals)


# large and small magnitudes, signs and -0.0: any change in summation order shows
SIGNED_VALUES = np.array([1.0, -1.0, 0.5, -2.5, 3.0, 1e16, -1e16, 1e-3, -0.0])


def random_signed(rng, n_rows, n_cols, density):
    rows, cols = np.nonzero(rng.random((n_rows, n_cols)) < density)
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols,
                                 rng.choice(SIGNED_VALUES, size=len(rows)))


def assert_matches_reference(a, b):
    for semiring in ("counted", "pattern"):
        got, want = spgemm(a, b, semiring), reference_spgemm(a, b, semiring)
        assert got == want
        assert np.array_equal(np.signbit(got.values), np.signbit(want.values))


@pytest.mark.parametrize("max_products", [
    1 << 20,  # the shipped budget
    25,       # a few rows per block, split mid-matrix
    9,
    1,        # one row per block
])
def test_spgemm_matches_row_loop_reference(monkeypatch, max_products):
    monkeypatch.setattr(sparse, "_SPGEMM_MAX_PRODUCTS", max_products)
    rng = np.random.default_rng(21)
    for _ in range(40):
        n, k, m = (int(v) for v in rng.integers(1, 30, size=3))
        density = float(rng.choice([0.03, 0.15, 0.5]))  # low fill leaves rows empty
        assert_matches_reference(random_signed(rng, n, k, density),
                                 random_signed(rng, k, m, density))


def test_spgemm_edge_shapes(monkeypatch):
    monkeypatch.setattr(sparse, "_SPGEMM_MAX_PRODUCTS", 4)
    rng = np.random.default_rng(22)
    for n, k, m in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1), (5, 1, 7),
                    (1, 6, 1), (7, 2, 3), (2, 9, 11)]:
        for density in (0.0, 0.4, 1.0):
            a, b = random_signed(rng, n, k, density), random_signed(rng, k, m, density)
            assert_matches_reference(a, b)
            assert spgemm(a, b).shape == (n, m)
    # rows of a that hit only empty rows of b, and a b with one full column
    a = SparseMatrix.from_coo(4, 3, [0, 1, 3, 3], [1, 1, 0, 2])
    b = SparseMatrix.from_coo(3, 5, [0, 2], [4, 4], [2.0, -0.0])
    assert_matches_reference(a, b)
    assert spgemm(a, b).nnz == 1


def test_spgemm_hub_row_exceeding_product_budget(monkeypatch):
    monkeypatch.setattr(sparse, "_SPGEMM_MAX_PRODUCTS", 16)
    rng = np.random.default_rng(23)
    a = random_signed(rng, 12, 10, 0.2)
    hub = SparseMatrix.from_coo(1, 10, np.zeros(10, dtype=int), np.arange(10),
                                rng.choice(SIGNED_VALUES, size=10))
    # row 5 of a is the hub: 10 entries times 8-entry rows of b, 80 products
    dense = a.to_dense()
    dense[5] = hub.to_dense()[0]
    a = SparseMatrix.from_dense(dense)
    b = random_signed(rng, 10, 8, 1.0)
    assert_matches_reference(a, b)
    assert spgemm(a, b, "pattern").row(5).tolist() == list(range(8))


def test_spgemm_keeps_cancelled_entry_in_support():
    a = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1], [1.0, 1.0, 2.0])
    b = SparseMatrix.from_coo(2, 2, [0, 1, 1], [0, 0, 1], [1.0, -1.0, 3.0])
    prod = spgemm(a, b, "counted")
    assert prod.shape == (2, 2) and prod.nnz == 4
    assert prod.to_dense().tolist() == [[0.0, 3.0], [-2.0, 6.0]]
    assert not np.signbit(prod.values[0])
    assert spgemm(a, b, "pattern") == prod.pattern()
    assert_matches_reference(a, b)


# -- pattern set algebra ------------------------------------------------------


def test_union_intersection_idempotent():
    rng = np.random.default_rng(2)
    s = random_digraph(rng, 8, 0.3)
    assert pattern_union(s, s) == s.pattern()
    assert pattern_intersection(s, s) == s.pattern()


def test_disjoint_supports():
    a = SparseMatrix.from_edges(4, [0, 1], [1, 2])
    b = SparseMatrix.from_edges(4, [2, 3], [3, 0])
    assert pattern_intersection(a, b).nnz == 0
    assert pattern_union(a, b).nnz == a.nnz + b.nnz


def test_set_algebra_dense_oracle():
    def check(a, b):
        da = a.to_dense() != 0
        db = b.to_dense() != 0
        for op, want in ((pattern_union, da | db), (pattern_intersection, da & db),
                         (pattern_difference, da & ~db)):
            got = op(a, b)
            assert got.shape == a.shape and np.all(got.values == 1.0)
            assert np.array_equal(got.to_dense() != 0, want)

    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        check(random_digraph(rng, n, 0.35), random_digraph(rng, n, 0.35))
    a = random_weighted(rng, 7, 11, 0.4)
    empty = SparseMatrix.empty(7, 11)
    check(a, empty)
    check(empty, a)
    check(empty, empty)
    check(a, a)
    check(a, SparseMatrix.from_dense(a.to_dense() == 0))  # disjoint, together full
    check(a, random_weighted(rng, 7, 11, 0.4))
    check(random_weighted(rng, 11, 3, 0.5), random_weighted(rng, 11, 3, 0.5))
    check(SparseMatrix.empty(0, 4), SparseMatrix.empty(0, 4))


def test_set_algebra_shape_mismatch():
    with pytest.raises(ValueError):
        pattern_union(SparseMatrix.empty(2, 2), SparseMatrix.empty(3, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_union_intersection_commute(seed, n):
    rng = np.random.default_rng(seed)
    a = random_digraph(rng, n, 0.3)
    b = random_digraph(rng, n, 0.3)
    assert pattern_union(a, b) == pattern_union(b, a)
    assert pattern_intersection(a, b) == pattern_intersection(b, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_union_intersection_associative(seed, n):
    rng = np.random.default_rng(seed)
    a, b, c = (random_digraph(rng, n, 0.3) for _ in range(3))
    assert pattern_union(pattern_union(a, b), c) == pattern_union(a, pattern_union(b, c))
    assert (pattern_intersection(pattern_intersection(a, b), c)
            == pattern_intersection(a, pattern_intersection(b, c)))


# -- self-loops ----------------------------------------------------------------


def test_remove_after_add_clears_diagonal():
    rng = np.random.default_rng(4)
    s = random_digraph(rng, 9, 0.3, allow_self_loops=True)
    cleared = remove_self_loops(add_self_loops(s))
    assert np.all(np.diag(cleared.to_dense()) == 0)


def test_selfloop_counting_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 14))
        s = random_digraph(rng, n, 0.3, allow_self_loops=True)
        assert add_self_loops(s).nnz == remove_self_loops(s).nnz + n


def test_worked_example_selfloop_removal(tree6):
    m2 = spgemm(tree6, transpose(tree6), "pattern")
    m2_hat = remove_self_loops(m2)
    assert support(m2_hat) == {(0, 2), (2, 0), (3, 4), (4, 3)}


def test_selfloops_require_square():
    with pytest.raises(ValueError):
        add_self_loops(SparseMatrix.empty(2, 3))


def test_add_self_loops_overwrites_weighted_diagonal():
    s = SparseMatrix.from_coo(2, 2, [0, 0], [0, 1], [5.0, 2.0])
    out = add_self_loops(s)
    dense = out.to_dense()
    assert dense[0, 0] == 1.0 and dense[1, 1] == 1.0 and dense[0, 1] == 2.0


# -- degrees -------------------------------------------------------------------


def test_degrees_empty():
    s = SparseMatrix.empty(4, 4)
    assert np.all(degrees(s, "row") == 0)
    assert np.all(degrees(s, "col") == 0)


def test_degrees_of_tree6(tree6):
    # out-degrees / in-degrees of the worked-example edge set
    assert list(degrees(tree6, "row")) == [1, 0, 1, 1, 1, 1]
    assert list(degrees(tree6, "col")) == [1, 2, 2, 0, 0, 0]


def test_degrees_dense_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 14))
        s = random_digraph(rng, n, 0.3)
        dense = s.to_dense()
        assert np.array_equal(degrees(s, "row"), (dense != 0).sum(axis=1))
        assert np.array_equal(degrees(s, "col"), (dense != 0).sum(axis=0))


# -- normalization -------------------------------------------------------------


def test_normalize_mutual_edge():
    s = SparseMatrix.from_edges(2, [0, 1], [1, 0])
    out = sym_normalize(s)
    assert np.allclose(out.values, 1.0)


def test_normalize_isolated_node():
    s = SparseMatrix.from_edges(3, [0], [1])
    out = sym_normalize(s)
    dense = out.to_dense()
    assert np.all(dense[2, :] == 0) and np.all(dense[:, 2] == 0)


def test_normalize_path_dense_oracle():
    s = SparseMatrix.from_edges(3, [0, 1], [1, 2])
    for mode in ("keep", "add", "remove"):
        out = sym_normalize(apply_selfloop_mode(s, mode))
        dense_in = s.to_dense()
        if mode == "add":
            np.fill_diagonal(dense_in, 1.0)
        if mode == "remove":
            np.fill_diagonal(dense_in, 0.0)
        r = dense_in.sum(axis=1)
        c = dense_in.sum(axis=0)
        with np.errstate(divide="ignore"):
            expect = dense_in * np.where(r > 0, 1 / np.sqrt(r), 0)[:, None]
            expect = expect * np.where(c > 0, 1 / np.sqrt(c), 0)[None, :]
        assert np.allclose(out.to_dense(), expect)


def selfloop_cases(rng, n):
    """Patterns of a graph with self-loops and with isolated nodes (zero sums), under each
    self-loop mode; then two unrelated graphs, and two weighted matrices."""
    a = SparseMatrix.from_dense(random_digraph(rng, n, 0.25, allow_self_loops=True).to_dense()
                                * (np.arange(n) % 4 != 0)).pattern()
    for mode in ("add", "remove", "keep"):
        m = apply_selfloop_mode(a, mode)
        yield m, transpose(m)
    yield a, random_digraph(rng, n, 0.3).pattern()
    yield random_weighted(rng, n, n), random_weighted(rng, n, n)


@pytest.mark.parametrize("block", [None, 1, 7])
def test_weighted_sum_is_the_sum_of_the_normalized_sides(monkeypatch, block):
    if block:  # blocks of 1 or 7 entries: many blocks, and rows longer than a block
        monkeypatch.setattr(sparse, "_SUM_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(43)
    for m, n in selfloop_cases(rng, 13):
        for c_m, c_n in ((0.75, 0.75), (2.0, 0.5), (1.0, 1.0), (0.3, 1.7)):
            got = weighted_sum(m, n, c_m, c_n, normalize=True)
            s_m, s_n = sym_normalize(m), sym_normalize(n)
            want = weighted_sum(s_m, s_n, c_m, c_n)
            assert got == want and got.values.tobytes() == want.values.tobytes()
            assert got.pattern() == pattern_union(m, n)
            assert np.array_equal(got.to_dense(), c_m * s_m.to_dense() + c_n * s_n.to_dense())


def test_weighted_sum_of_values_matches_dense_oracle():
    rng = np.random.default_rng(47)
    for shape in ((5, 8), (8, 5), (1, 1), (0, 3)):
        m, n = random_weighted(rng, *shape), random_weighted(rng, *shape)
        got = weighted_sum(m, n, 1.5, -0.25)
        assert np.array_equal(got.to_dense(), 1.5 * m.to_dense() + -0.25 * n.to_dense())
        assert got.pattern() == pattern_union(m, n)
    with pytest.raises(ValueError, match="shape mismatch"):
        weighted_sum(SparseMatrix.empty(2, 2), SparseMatrix.empty(2, 3), 1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        weighted_sum(SparseMatrix.from_dense([[-1.0]]), SparseMatrix.empty(1, 1), 1.0, 1.0,
                     normalize=True)


def test_normalize_rejects_negative_values():
    s = SparseMatrix.from_coo(2, 2, [0], [1], [-1.0])
    with pytest.raises(ValueError):
        sym_normalize(s)


# -- self-loop product identities (counted, exact) -------------------------------


def test_selfloop_product_expansions():
    rng = np.random.default_rng(17)
    eye = np.eye
    for _ in range(100):
        n = int(rng.integers(1, 16))
        a = random_digraph(rng, n, 0.3)
        d = a.to_dense()
        a_hat = add_self_loops(a)
        at_hat = transpose(a_hat)
        cases = [
            (spgemm(a_hat, at_hat), d @ d.T + d + d.T + eye(n)),
            (spgemm(at_hat, a_hat), d.T @ d + d + d.T + eye(n)),
            (spgemm(a_hat, a_hat), d @ d + 2 * d + eye(n)),
            (spgemm(at_hat, at_hat), d.T @ d.T + 2 * d.T + eye(n)),
        ]
        for got, expect in cases:
            assert np.array_equal(got.to_dense(), expect)


def test_generated_selfloop_diagonal_iff_degree():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(1, 16))
        a = random_digraph(rng, n, 0.25)
        at = transpose(a)
        m_diag = np.diag(spgemm(a, at).to_dense())
        d_diag = np.diag(spgemm(at, a).to_dense())
        assert np.array_equal(m_diag > 0, degrees(a, "row") > 0)
        assert np.array_equal(d_diag > 0, degrees(a, "col") > 0)


# -- text formats ----------------------------------------------------------------


def test_edge_list_round_trip(tree6):
    text = format_edge_list(tree6)
    assert parse_edge_list(text, n=6) == tree6


def test_edge_list_comments_and_errors():
    s = parse_edge_list("# header\n0\t1\n\n2\t0  # inline\n")
    assert support(s) == {(0, 1), (2, 0)}
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("0\t1\nnope\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_edge_list("0\t5\n", n=3)


@pytest.mark.parametrize("text", [
    "", "0\t1\n", "0\t1", "3 0\n0\t2\n", "10\t0\n0\t10\n0\t10\n",  # plain text
    "0\t1\n\n2\t0\n", "0\t1\n \n2\t0\n", "\t\n", " 0\t1\n", "0\t1\r\n2\t0\r\n", "0\t\t1\n",
    "0\t1 # c\n",
    "0\t+1\n",
])
def test_plain_and_line_by_line_edge_reads_agree(monkeypatch, text):
    got = parse_edge_list(text)
    monkeypatch.setattr(sparse, "_plain_edge_ends", lambda text: None)
    assert got == parse_edge_list(text)


@pytest.mark.parametrize("text, line", [
    ("0\t1\t2\n3\n", 1),  # three ends then one: the right count of numbers in all
    ("0\t1\n2\n3\t4\t5\n", 2), ("0\t1\n-2\t3\n", 2), ("0\t1\n2\t3x\n", 2),
    ("0\x0c1\n", 1),  # a form feed ends a line
])
def test_edge_list_reports_the_first_bad_line(text, line):
    with pytest.raises(ValueError, match=f"line {line}:"):
        parse_edge_list(text)


def test_coordinate_text_round_trip():
    rng = np.random.default_rng(23)
    s = random_weighted(rng, 7, 5)
    assert parse_coordinate_text(format_coordinate_text(s)) == s
