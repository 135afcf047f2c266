import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from scalegraph import autodiff
from scalegraph.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    AdamState,
    Tensor,
    adam_step,
    add,
    add_bias,
    backward,
    batchnorm,
    concat_cols,
    dropout,
    finite_diff_check,
    glorot_uniform,
    make_node,
    matmul,
    maximum,
    mul,
    relu,
    scale,
    softmax_cross_entropy,
    spmm,
    sum_all,
)
from scalegraph.sparse import SparseMatrix

from conftest import random_digraph


def rand_tensor(rng, shape, requires_grad=True, away_from_zero=False):
    data = rng.normal(size=shape)
    if away_from_zero:
        data = np.where(np.abs(data) < 0.1, data + 0.5 * np.sign(data + 1e-12), data)
    return Tensor(data, requires_grad=requires_grad)


# -- forward semantics -------------------------------------------------------


def test_relu_all_negative_is_zero():
    x = Tensor(-np.ones((3, 4)))
    assert np.all(relu(x).data == 0.0)


def test_relu_gives_positive_zero_for_signed_zeros_and_negatives():
    data = np.full((5, 37), -0.0)
    data[1] = 0.0
    data[2] = -2.5
    data[3, ::2] = 1.5
    x = Tensor(data, requires_grad=True)
    out = relu(x)
    assert np.array_equal(out.data, np.where(data > 0, data, 0.0))
    assert not np.signbit(out.data).any()
    backward(sum_all(out))
    assert np.array_equal(x.grad, (data > 0).astype(float))  # 0 at 0, either sign


def test_a_gradient_handed_to_two_parents_is_not_changed_in_place():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    c = Tensor(np.ones((2, 3)), requires_grad=True)
    h = add(add_bias(a, b), c)
    backward(sum_all(add(h, a)))  # one upstream array reaches h, c, a and b's node
    assert np.array_equal(a.grad, np.full((2, 3), 2.0))
    assert np.array_equal(b.grad, np.full((1, 3), 2.0))
    assert np.array_equal(c.grad, np.ones((2, 3)))
    assert np.array_equal(h.grad, np.ones((2, 3)))


def test_cross_entropy_perfect_logits_vanishes():
    labels = np.array([0, 1, 2])
    logits = Tensor(50.0 * np.eye(3))
    loss = softmax_cross_entropy(logits, labels, [0, 1, 2])
    assert float(loss.data) < 1e-8


def test_cross_entropy_uniform_logits_is_log_c():
    labels = np.array([0, 1, 0, 2])
    logits = Tensor(np.zeros((4, 3)))
    loss = softmax_cross_entropy(logits, labels, [0, 1, 2, 3])
    assert float(loss.data) == pytest.approx(math.log(3))


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = Tensor(rng.normal(size=(5, 4)))
        labels = rng.integers(0, 4, 5)
        loss = softmax_cross_entropy(logits, labels, np.arange(5))
        assert float(loss.data) >= 0.0


def test_cross_entropy_empty_subset_rejected():
    with pytest.raises(ValueError):
        softmax_cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], [])


def test_spmm_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        s = random_digraph(rng, n, 0.35)
        x = rng.normal(size=(n, int(rng.integers(1, 5))))
        got = spmm(s, Tensor(x)).data
        assert np.allclose(got, s.to_dense() @ x, atol=1e-12)
        # pattern adjacency: row i sums feature rows of i's out-neighbors
        for i in range(n):
            assert np.allclose(got[i], x[s.row(i)].sum(axis=0) if len(s.row(i)) else 0.0)


def _reduceat_spmm(s, x):
    """The row-major kernel: gather x's rows, scale, 2-D ``reduceat`` per row."""
    out = np.zeros((s.n_rows, x.shape[1]))
    nonempty = np.flatnonzero(np.diff(s.row_offsets) > 0)
    if len(nonempty):
        prod = x[s.col_indices] * s.values[:, None]
        out[nonempty] = np.add.reduceat(prod, s.row_offsets[:-1][nonempty], axis=0)
    return out


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _random_sparse(rng, n_rows, n_cols, nnz, heavy_rows=None):
    """Weighted matrix of ``nnz`` random draws (repeats summed) with signed values.
    With ``heavy_rows``, every entry lies in that many rows spread over the matrix."""
    if heavy_rows is None:
        rows = rng.integers(0, n_rows, size=nnz)
    else:
        heavy = rng.choice(n_rows, size=heavy_rows, replace=False)
        rows = heavy[rng.integers(0, heavy_rows, size=nnz)]
    cols = rng.integers(0, n_cols, size=nnz)
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, rng.normal(size=nnz))


@pytest.mark.parametrize("n,nnz,d,heavy_rows", [
    (300, 2_000, 32, None),
    (600, 9_000, 16, None),
    (3_000, 60_000, 40, None),   # one run of rows, forty column tiles
    (2_000, 20_000, 1, None),
    (2_000, 12_000, 3, 12),      # rows of ~1000 entries: reduceat's pairwise recursion
    (300, 20_000, 5, None),      # a grid-desk second-scale word: ~18k nnz, 20% fill
    (20_000, 300_000, 6, None),  # five runs of rows at the shipped tile size
    (4_000, 150_000, 3, 2),      # two rows of ~75k entries, each longer than a tile
])
def test_spmm_kernels_match_reduceat_bits(monkeypatch, n, nnz, d, heavy_rows):
    rng = np.random.default_rng(n + d)
    s = _random_sparse(rng, n, n, nnz, heavy_rows)
    x = rng.normal(size=(n, d))
    want = _reduceat_spmm(s, x)
    for workers in (1, 2, 3):
        monkeypatch.setattr(autodiff, "_WORKERS", workers)
        _assert_same_bits(autodiff._spmm_data(s, x), want)


def test_spmm_tiles_under_more_workers_than_cpus(monkeypatch):
    # six threads over 64-entry tiles, switching as often as the interpreter
    # allows: a tile summed twice, skipped or written into another's rows
    # changes the bits
    monkeypatch.setattr(autodiff, "_WORKERS", 6)
    monkeypatch.setattr(autodiff, "_TILE_ENTRIES", 64)
    monkeypatch.setattr(autodiff, "_pool", None)
    rng = np.random.default_rng(19)
    s = _random_sparse(rng, 400, 400, 6_000)
    x = rng.normal(size=(400, 7))
    want = _reduceat_spmm(s, x)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            _assert_same_bits(autodiff._spmm_data(s, x), want)
    finally:
        sys.setswitchinterval(interval)
        autodiff._spmm_pool().shutdown()


@pytest.fixture
def column_major(monkeypatch):
    """Cut every SpMM into tiles of runs of rows with at most ``tile`` entries."""
    def force(tile):
        monkeypatch.setattr(autodiff, "_TILE_ENTRIES", tile)
    return force


def test_column_major_sums_like_reduceat():
    # reduceat adds a segment's first element to the pairwise sum of the rest:
    # 1e16 + 40 here, where a left-to-right sum (bincount) gives 1e16, a
    # pairwise np.add.reduce 1e16 + 36 and a BLAS dot 1e16 + 32
    n = 200
    row = np.array([1e16] + [1.0] * 40)
    s = SparseMatrix.from_coo(n, n, np.zeros(41, dtype=np.int64), np.arange(41), np.ones(41))
    x = np.ones((n, 3))
    x[0] = 1e16
    got = autodiff._spmm_data(s, x)
    _assert_same_bits(got, _reduceat_spmm(s, x))
    assert np.all(got[0] == 1e16 + 40)
    assert np.bincount(np.zeros(41, dtype=np.int64), weights=row)[0] == 1e16
    assert np.add.reduce(row) != 1e16 + 40


def test_column_major_keeps_negative_zero_and_empty_rows(column_major):
    column_major(tile=1)
    n = 120
    # row 0: 0.0 * -1 = -0.0 alone; row 2: -0.0 + -0.0; row 5: 2*3 + -2*3 = +0.0
    rows = np.array([0, 2, 2, 5, 5])
    cols = np.array([7, 1, 9, 4, 8])
    vals = np.array([-1.0, 1.0, -2.0, 2.0, -2.0])
    s = SparseMatrix.from_coo(n, n, rows, cols, vals)
    x = np.zeros((n, 2))
    x[1] = x[9] = -0.0
    x[9] = 0.0
    x[4] = x[8] = 3.0
    got = autodiff._spmm_data(s, x)
    _assert_same_bits(got, _reduceat_spmm(s, x))
    assert np.all(np.signbit(got[0])) and np.all(np.signbit(got[2]))
    assert not np.any(np.signbit(got[5])) and not np.any(np.signbit(got[1]))
    assert not np.any(got[[1, 3, 4] + list(range(6, n))])


def test_column_major_edge_shapes(column_major):
    rng = np.random.default_rng(3)
    column_major(tile=50)
    for n_rows, n_cols, nnz, d in [(40, 60, 30, 1), (60, 40, 45, 7), (50, 50, 0, 3), (1, 30, 1, 2),
                                   (90, 80, 400, 3)]:
        s = _random_sparse(rng, n_rows, n_cols, nnz)
        x = rng.normal(size=(n_cols, d))
        _assert_same_bits(autodiff._spmm_data(s, x), _reduceat_spmm(s, x))
    # a hub row of 200 entries, four tiles long, between short rows
    rows = np.concatenate([rng.integers(0, 60, size=150), np.full(200, 31)])
    cols = np.concatenate([rng.integers(0, 250, size=150), np.arange(200)])
    s = SparseMatrix.from_coo(60, 250, rows, cols, rng.normal(size=350))
    assert np.diff(s.row_offsets)[31] >= 4 * 50
    x = rng.normal(size=(250, 3))
    _assert_same_bits(autodiff._spmm_data(s, x), _reduceat_spmm(s, x))
    # the last row non-empty, every earlier row empty
    s = SparseMatrix.from_coo(30, 30, [29, 29], [3, 5], [0.5, -1.5])
    x = rng.normal(size=(30, 4))
    _assert_same_bits(autodiff._spmm_data(s, x), _reduceat_spmm(s, x))


@pytest.mark.parametrize("tile", [None, 700])
def test_column_major_reads_non_contiguous_x(column_major, tile):
    rng = np.random.default_rng(4)
    if tile is not None:
        column_major(tile)
    s = _random_sparse(rng, 80, 90, 300)
    wide = rng.normal(size=(90, 24))
    # an F-order array, and a column slice like one piece of a jk_cat gradient
    for x in (np.asfortranarray(wide[:, :5]), wide[:, 8:19], wide[::1, 3:4]):
        assert not x.flags.c_contiguous
        _assert_same_bits(autodiff._spmm_data(s, x), _reduceat_spmm(s, np.ascontiguousarray(x)))


@pytest.mark.parametrize("n,nnz,d", [(300, 2_000, 5), (700, 12_000, 6)])
def test_spmm_sparse_paths_match_dense_oracle(n, nnz, d):
    # test_spmm_dense_oracle's graphs have at most 11 nodes; these are larger
    # weighted matrices, and the gradient goes through the transpose
    rng = np.random.default_rng(nnz)
    s = _random_sparse(rng, n, n, nnz)
    dense = s.to_dense()
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    y = spmm(s, x)
    assert np.allclose(y.data, dense @ x.data, rtol=1e-12, atol=1e-12)
    w = rng.normal(size=(n, d))
    backward(sum_all(mul(y, Tensor(w))))
    assert np.allclose(x.grad, dense.T @ w, rtol=1e-12, atol=1e-12)


def test_spmm_matches_scipy_oracle():
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(6)
    for n, nnz, d in [(300, 2_000, 8), (600, 9_000, 17), (300, 20_000, 5)]:
        s = _random_sparse(rng, n, n, nnz)
        csr = sp.csr_matrix((s.values, s.col_indices, s.row_offsets), shape=s.shape)
        x = rng.normal(size=(n, d))
        assert np.allclose(autodiff._spmm_data(s, x), csr @ x, rtol=1e-12, atol=1e-12)


def test_spmm_memory_stays_below_a_dense_copy(monkeypatch):
    # a dense n x n copy alone would be n^2 * 8 bytes; the kernel gathers
    # into one tile of _TILE_ENTRIES values and indices per worker (1 MB)
    monkeypatch.setattr(autodiff, "_WORKERS", 2)
    rng = np.random.default_rng(15)
    n = 2_000
    s = _random_sparse(rng, n, n, 230_000)
    assert s.nnz >= 0.05 * n * n
    x = rng.normal(size=(n, 5))
    tracemalloc.start()
    try:
        autodiff._spmm_data(s, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2
    assert peak < 4e6


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_spmm_in_a_forked_child_does_not_hang(monkeypatch):
    # the child inherits the pool's executor without its threads; the barrier
    # makes the parent's fresh pool start all of them, so none is left to start
    monkeypatch.setattr(autodiff, "_WORKERS", 2)
    monkeypatch.setattr(autodiff, "_TILE_ENTRIES", 500)
    monkeypatch.setattr(autodiff, "_pool", None)
    barrier = threading.Barrier(2, timeout=10)
    for future in [autodiff._spmm_pool().submit(barrier.wait) for _ in range(2)]:
        future.result()
    rng = np.random.default_rng(21)
    s = _random_sparse(rng, 500, 500, 4_000)
    x = rng.normal(size=(500, 4))
    want = autodiff._spmm_data(s, x)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(autodiff._spmm_data(s, x), want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's SpMM did not finish in 30 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
    autodiff._spmm_pool().shutdown()


# builds one multi-tile product (four runs of rows, three columns) and hashes it
_PRODUCT_DIGEST = """
import hashlib
import numpy as np
from scalegraph import autodiff
from scalegraph.sparse import SparseMatrix
rng = np.random.default_rng(8)
n, nnz = 3_000, 240_000
s = SparseMatrix.from_coo(n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz),
                          rng.normal(size=nnz))
digest = hashlib.sha256(autodiff._spmm_data(s, rng.normal(size=(n, 3))).tobytes()).hexdigest()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least two CPUs to pin a process to one")
def test_spmm_worker_count_follows_cpu_affinity():
    cpu = min(os.sched_getaffinity(0))
    src = os.path.dirname(os.path.dirname(autodiff.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _PRODUCT_DIGEST + "print(autodiff._WORKERS, digest)"],
        capture_output=True, text=True, timeout=120, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])))
    assert proc.returncode == 0, proc.stderr
    workers, digest = proc.stdout.split()
    assert int(workers) == 1
    assert autodiff._WORKERS >= 2
    here = {}
    exec(_PRODUCT_DIGEST, here)
    assert here["digest"] == digest


class _Untransposable(np.ndarray):
    @property
    def T(self):
        raise AssertionError("transposed for a gradient nobody needs")


@pytest.mark.parametrize("grad_a", [True, False])
def test_matmul_backward_skips_unneeded_products(grad_a):
    # the gradient of a needs b.T and that of b needs a.T; only one is asked for
    rng = np.random.default_rng(14)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=grad_a)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=not grad_a)
    loss = sum_all(matmul(a, b))
    a_data, b_data = a.data, b.data
    if grad_a:
        a.data = a_data.view(_Untransposable)
    else:
        b.data = b_data.view(_Untransposable)
    backward(loss)
    ones = np.ones((4, 2))
    if grad_a:
        assert b.grad is None and np.array_equal(a.grad, ones @ b_data.T)
    else:
        assert a.grad is None and np.array_equal(b.grad, a_data.T @ ones)


def test_nonfinite_result_rejected():
    big = Tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        add(big, big)


# -- backward ------------------------------------------------------------------


def test_grad_of_sum_of_squares_is_2x():
    rng = np.random.default_rng(2)
    x = rand_tensor(rng, (4, 3))
    loss = sum_all(mul(x, x))
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
    loss = sum_all(add(mul(x, x), x))
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * x.data + 1.0)


def test_detached_tensor_receives_no_grad():
    rng = np.random.default_rng(3)
    x = rand_tensor(rng, (3, 3))
    frozen = x.detach()
    loss = sum_all(mul(x, frozen))
    backward(loss)
    assert frozen.grad is None
    assert np.array_equal(x.grad, frozen.data)


def test_backward_requires_recorded_graph():
    with pytest.raises(ValueError, match="without a recorded forward"):
        backward(Tensor(np.asarray(1.0), requires_grad=True))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(mul(x, x))


def test_backward_consumes_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    with pytest.raises(ValueError):
        backward(loss)


def test_backward_frees_each_unheld_node_before_reaching_its_parents():
    gc.disable()
    try:
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        h = matmul(x, w)
        squared = mul(h, h)
        rectified = relu(squared)
        doubled = scale(rectified, 2.0)
        loss = sum_all(doubled)
        downstream = [weakref.ref(t.data) for t in (squared, rectified, doubled)]
        del squared, rectified, doubled
        alive_at_h = []
        h_backward = h._backward

        def spy(g):
            alive_at_h.extend(ref() is not None for ref in downstream)
            h_backward(g)
        h._backward = spy
        backward(loss)
        assert alive_at_h == [False] * 3
        assert np.array_equal(h.grad, 2.0 * (2.0 * h.data) * (h.data * h.data > 0))
        assert x.grad is not None and w.grad is not None
        with pytest.raises(ValueError):
            backward(loss)
    finally:
        gc.enable()


def test_maximum_routes_ties_to_first():
    a = Tensor(np.ones((1, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 2)), requires_grad=True)
    backward(sum_all(maximum(a, b)))
    assert np.array_equal(a.grad, np.ones((1, 2)))
    assert b.grad is None or np.array_equal(b.grad, np.zeros((1, 2)))


# -- finite differences per op ----------------------------------------------------


def fd(build, params, tol=1e-4):
    err = finite_diff_check(build, params, eps=1e-5, max_entries=64, seed=7)
    assert err < tol, f"gradient error {err}"


def test_fd_matmul_add_bias_scale():
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (5, 3))
    w = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (1, 4))
    fd(lambda: sum_all(mul(add_bias(scale(matmul(x, w), 1.7), b),
                           add_bias(scale(matmul(x, w), 1.7), b))), [x, w, b])


def test_fd_spmm():
    rng = np.random.default_rng(5)
    s = random_digraph(rng, 8, 0.4)
    x = rand_tensor(rng, (8, 3))
    fd(lambda: sum_all(mul(spmm(s, x), spmm(s, x))), [x])


def test_fd_relu_and_maximum():
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (6, 4), away_from_zero=True)
    y = rand_tensor(rng, (6, 4), away_from_zero=True)
    fd(lambda: sum_all(relu(mul(x, y))), [x, y])
    fd(lambda: sum_all(maximum(x, y)), [x, y])


def test_fd_concat_cols():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (4, 2))
    y = rand_tensor(rng, (4, 3))
    w = rand_tensor(rng, (5, 2))
    fd(lambda: sum_all(mul(matmul(concat_cols([x, y]), w), matmul(concat_cols([x, y]), w))),
       [x, y, w])


def test_fd_batchnorm_training_and_eval():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (7, 3))
    gamma = Tensor(np.ones((1, 3)) + 0.3 * rng.normal(size=(1, 3)), requires_grad=True)
    beta = rand_tensor(rng, (1, 3))
    # a fixed random weighting keeps the loss sensitive to every input entry
    probe = Tensor(rng.normal(size=(7, 3)))
    stats = np.stack([np.zeros(3), np.ones(3)])
    fd(lambda: sum_all(mul(batchnorm(x, gamma, beta, stats, training=True), probe)),
       [x, gamma, beta])
    stats_eval = np.stack([rng.normal(size=3), 1.0 + rng.random(3)])
    fd(lambda: sum_all(mul(batchnorm(x, gamma, beta, stats_eval, training=False), probe)),
       [x, gamma, beta])


def test_fd_dropout_with_fixed_mask():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (6, 5))
    fd(lambda: sum_all(dropout(x, 0.4, np.random.default_rng(123), training=True)), [x])


def test_fd_cross_entropy():
    rng = np.random.default_rng(11)
    logits_w = rand_tensor(rng, (4, 3))
    feats = Tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 3, 6)
    fd(lambda: softmax_cross_entropy(matmul(feats, logits_w), labels, [0, 2, 3]), [logits_w])


# -- batchnorm semantics -----------------------------------------------------------


def test_batchnorm_training_normalizes_columns():
    rng = np.random.default_rng(12)
    x = Tensor(5.0 + 3.0 * rng.normal(size=(200, 4)))
    gamma = Tensor(np.ones((1, 4)))
    beta = Tensor(np.zeros((1, 4)))
    out = batchnorm(x, gamma, beta, np.stack([np.zeros(4), np.ones(4)]), training=True)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-3)


def test_batchnorm_eval_uses_running_stats():
    x = Tensor(np.ones((3, 2)))
    stats = np.array([[1.0, 0.0], [1.0, 4.0]])
    out = batchnorm(x, Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2))), stats, training=False)
    expect = np.stack([np.zeros(3), np.full(3, 1.0 / np.sqrt(4 + BN_EPS))], axis=1)
    assert np.allclose(out.data, expect)
    assert np.array_equal(stats, [[1.0, 0.0], [1.0, 4.0]])  # eval leaves the statistics


def test_batchnorm_training_moves_the_given_statistics_in_place():
    """Training mode writes ``0.9 * stats + 0.1 * batch`` into the array it is given, here
    a view into a larger array as ``Model.state`` hands out, and nothing around it."""
    rng = np.random.default_rng(13)
    x = Tensor(2.0 + rng.normal(size=(50, 3)))
    state = np.zeros(10)
    stats = state[2:8].reshape(2, 3)
    stats[:] = [rng.normal(size=3), 1.0 + rng.random(3)]
    batch = np.stack([x.data.mean(axis=0), x.data.var(axis=0)])
    expect = 0.9 * stats + 0.1 * batch
    batchnorm(x, Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3))), stats, training=True)
    assert BN_MOMENTUM == 0.1
    assert np.array_equal(state[2:8].reshape(2, 3), expect)
    assert not state[:2].any() and not state[8:].any()


# -- dropout semantics ---------------------------------------------------------------


def test_dropout_eval_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = dropout(x, 0.5, np.random.default_rng(0), training=False)
    assert out is x


def test_dropout_preserves_expectation():
    x = Tensor(np.ones((1000, 100)))
    out = dropout(x, 0.5, np.random.default_rng(42), training=True)
    assert abs(out.data.mean() - 1.0) < 0.01


def test_dropout_deterministic_under_seed():
    x = Tensor(np.ones((50, 50)))
    a = dropout(x, 0.3, np.random.default_rng(5), training=True)
    b = dropout(x, 0.3, np.random.default_rng(5), training=True)
    assert np.array_equal(a.data, b.data)


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones((2, 2))), 1.0, np.random.default_rng(0))


# -- adam ---------------------------------------------------------------------------


def test_adam_first_step_magnitude():
    p = np.zeros((2, 3))
    state = AdamState(lr=0.01)
    adam_step(p, np.ones((2, 3)), state)
    assert np.allclose(p, -0.01 / (1.0 + 1e-8), atol=1e-12)
    assert state.step_count == 1


def test_adam_zero_grad_keeps_params():
    p = np.full((2, 2), 3.0)
    state = AdamState(lr=0.1)
    adam_step(p, np.zeros((2, 2)), state)
    assert np.array_equal(p, np.full((2, 2), 3.0))
    assert state.step_count == 1


def test_adam_descends_quadratic():
    p = Tensor(np.ones((4, 4)), requires_grad=True)
    state = AdamState(lr=0.1)
    for _ in range(100):
        p.grad = None
        loss = sum_all(mul(p, p))
        backward(loss)
        adam_step(p.data, p.grad, state)
    assert np.linalg.norm(p.data) < 0.1


def test_adam_rejects_bad_lr():
    with pytest.raises(ValueError):
        AdamState(lr=0.0)


# -- gradient checker ----------------------------------------------------------------


def test_finite_diff_quadratic_is_exact():
    x = Tensor(np.linspace(0.5, 2.0, 6).reshape(2, 3), requires_grad=True)
    err = finite_diff_check(lambda: sum_all(mul(x, x)), [x], eps=1e-5)
    assert err < 1e-8


def test_finite_diff_flags_corrupted_gradient():
    x = Tensor(np.linspace(0.5, 2.0, 4).reshape(2, 2), requires_grad=True)

    def broken_square():
        def bad_backward(g):
            x.grad = 3.0 * x.data if x.grad is None else x.grad + 3.0 * x.data
        return make_node(np.asarray((x.data * x.data).sum()), (x,), bad_backward)

    err = finite_diff_check(broken_square, [x], eps=1e-5)
    assert err > 1e-1


def test_finite_diff_rejects_nondeterministic_forward():
    rng = np.random.default_rng(0)
    # distinct power-of-two entries: any two different masks give different sums
    x = Tensor(2.0 ** -np.arange(16.0).reshape(4, 4), requires_grad=True)
    with pytest.raises(ValueError, match="deterministic"):
        finite_diff_check(lambda: sum_all(dropout(x, 0.5, rng, training=True)), [x])


def test_glorot_bound():
    rng = np.random.default_rng(1)
    w = glorot_uniform(30, 50, rng)
    assert w.shape == (30, 50)
    assert np.all(np.abs(w) <= math.sqrt(6.0 / 80))
