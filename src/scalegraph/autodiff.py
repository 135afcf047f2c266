"""Reverse-mode autodiff over dense matrices, plus Adam and a gradient checker.

The tape is the implicit DAG of ``Tensor`` nodes: every op records its parents
and a backward closure, and ``backward`` replays them in reverse topological
order. It unlinks each node once its closure has run, so an intermediate
nobody else holds is freed, data and gradient, while a tensor the caller holds
keeps its ``.grad``. The engine's own ops are the dense and sparse products and
the loss; a model layer is one node of its own (``models.Layer``), whose
closure replays the layer's numpy steps in reverse.
Every node validates that its output is finite; NaN/Inf is always an error here.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from scalegraph.sparse import SparseMatrix, transpose


class Tensor:
    """Dense matrix (or scalar) participating in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise FloatingPointError("non-finite value produced by a tensor op")
    return arr


def make_node(data, parents, backward_fn):
    """Result tensor wired into the graph iff some parent needs gradients."""
    out = Tensor(_check_finite(data))
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t, g):
    # the first gradient is stored as given, maybe shared with another parent
    # (an added fusion hands ``g`` to every branch): no op writes a gradient in place
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


# -- forward ops -----------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return make_node(a.data @ b.data, (a, b), backward)


# entries in one SpMM tile: its products, column indices and values (1.5 MB)
# stay in a 2 MB L2 cache, where 2^15 and 2^17 timed slower on a 1M-entry
# product; a row with more entries gets a tile of its own
_TILE_ENTRIES = 1 << 16


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# one SpMM worker thread per CPU this process may run on (``taskset`` limits it)
_WORKERS = _cpu_count()
_pool = None
_pool_lock = threading.Lock()


def _spmm_pool():
    """The worker threads, started on first use rather than at import."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="spmm")
        return _pool


def _forget_pool():
    # a forked child inherits the executor but none of its threads, so its
    # next submit would wait forever on workers that do not exist
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _spmm_data(s: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """``s @ x``: row sums of ``values * x[col_indices]``, one cache-sized tile at a time.

    A tile is one column of ``x`` times a run of whole non-empty rows holding at
    most ``_TILE_ENTRIES`` entries (a longer row is a run of its own). Each tile
    gathers its column from a contiguous ``x.T`` into a buffer, scales it by
    ``values`` and sums it with one 1-D ``reduceat`` whose segments start at
    each row's start inside the run; the segments tile the buffer. ``reduceat``
    adds a segment's first element to the pairwise sum of the rest, once per
    segment and column, so the bits equal a row-major gather summed by a 2-D
    ``axis=0`` ``reduceat``, however the rows are cut into runs;
    ``np.add.reduce``, ``bincount`` and a dense BLAS product sum in other orders.

    Tiles are ordered run by run, each run's columns in turn, and dealt
    round-robin to up to ``_WORKERS`` pool threads; ``take``, ``multiply`` and
    ``reduceat`` release the GIL. A worker's consecutive tiles mostly share a
    run, so its indices and values are read from memory once and then from
    cache. A product whose rows make a single run stays on the calling thread.
    Every buffer is allocated here, by the calling thread: what a worker
    allocates stays resident in its thread's malloc arena. For that reason a
    worker copies each run's column indices into a writable buffer (``take``
    copies read-only indices) and gathers with ``mode="clip"``
    (``mode="raise"`` copies ``out``); the indices are in range. The buffer is
    ``intp``, so the copy also widens the int32 indices: ``take`` from int32
    indices converts them on every call, and was measured slower (95 against
    74 µs for 64k entries).
    """
    if s.n_cols != x.shape[0]:
        raise ValueError(f"spmm shape mismatch: {s.shape} @ {x.shape}")
    out = np.zeros((s.n_rows, x.shape[1]))
    if s.nnz == 0:
        return out
    nonempty = np.flatnonzero(np.diff(s.row_offsets) > 0)
    starts = s.row_offsets[nonempty]
    limits = np.append(starts, s.nnz)
    bounds = [0]  # the runs of rows, as indices into ``starts``
    while bounds[-1] < len(starts):
        r0 = bounds[-1]
        r1 = int(np.searchsorted(limits[1:], starts[r0] + _TILE_ENTRIES, side="right"))
        bounds.append(max(r1, r0 + 1))
    edges = limits[bounds]  # each run's first entry, then nnz
    local = starts - np.repeat(edges[:-1], np.diff(bounds))
    width = int(np.diff(edges).max())
    xt = np.ascontiguousarray(x.T)
    sums = np.empty((xt.shape[0], len(starts)))
    tiles = [(k, c) for k in range(len(bounds) - 1) for c in range(xt.shape[0])]

    def sum_tiles(share, buf, index_buf):
        run = None
        for k, c in share:
            e0, e1 = edges[k], edges[k + 1]
            cols = index_buf[:e1 - e0]
            if k != run:
                cols[...] = s.col_indices[e0:e1]
                run = k
            prod = np.take(xt[c], cols, out=buf[:e1 - e0], mode="clip")
            prod *= s.values[e0:e1]
            np.add.reduceat(prod, local[bounds[k]:bounds[k + 1]],
                            out=sums[c, bounds[k]:bounds[k + 1]])

    workers = min(_WORKERS, len(tiles)) if len(bounds) > 2 else 1
    buffers = [(np.empty(width), np.empty(width, dtype=np.intp)) for _ in range(workers)]
    if workers == 1:
        sum_tiles(tiles, *buffers[0])
    else:
        pool = _spmm_pool()
        futures = [pool.submit(sum_tiles, tiles[w::workers], *buffers[w])
                   for w in range(workers)]
        for future in futures:
            future.result()
    out[nonempty] = sums.T
    return out


def spmm(s: SparseMatrix, x: Tensor) -> Tensor:
    """Sparse constant times dense tensor; the matrix itself is not differentiated."""

    def backward(g):
        _accumulate(x, _spmm_data(transpose(s), g))

    return make_node(_spmm_data(s, x.data), (x,), backward)


def softmax_cross_entropy(logits: Tensor, labels, index_subset) -> Tensor:
    """Mean cross-entropy of row-wise softmax over the given node subset.

    ``labels`` is an integer array over all rows and ``index_subset`` an integer array
    or list of row ids, used as given. The row maximum is taken over a transposed copy,
    whose contiguous column reduction is several times faster on narrow rows; a
    maximum is exact in any order.
    """
    if len(index_subset) == 0:
        raise ValueError("empty index subset")
    rows = logits.data[index_subset]
    shifted = rows - np.ascontiguousarray(rows.T).max(axis=0)[:, None]
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    picks = (np.arange(len(rows)), labels[index_subset])
    loss = -(log_probs[picks].sum() / len(rows))  # the bits of ``mean``, without its wrapper

    def backward(g):
        soft = np.exp(log_probs)
        soft[picks] -= 1.0
        full = np.zeros_like(logits.data)
        full[index_subset] = soft * (float(g) / len(soft))
        _accumulate(logits, full)

    return make_node(np.asarray(loss), (logits,), backward)


# -- backward --------------------------------------------------------------------


def backward(loss: Tensor):
    """Populate gradients of every requires_grad tensor reachable from ``loss``.

    Each node is unlinked from its parents right after its backward closure
    runs, so a node the caller does not hold is freed, data and gradient,
    before the walk reaches the layers below it; a held tensor keeps its
    ``.grad``. The recorded graph is consumed: a second backward on the same
    loss raises.
    """
    if loss.data.ndim != 0:
        raise ValueError("backward expects a scalar loss")
    if loss._backward is None:
        raise ValueError("backward without a recorded forward graph")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents
                     if parent._backward is not None)  # a leaf has no closure to run
    loss.grad = np.ones_like(loss.data)
    while order:  # every consumer of a node runs and unlinks before the node itself
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        node._parents = ()
        node._backward = None


# -- optimizer --------------------------------------------------------------------


# Adam's moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments plus step counter; the moments are shaped to the parameters on
    the first step."""

    lr: float
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState):
    """One Adam update with bias correction; mutates ``param`` and ``state`` in place."""
    if state.first_moment is None:
        state.first_moment = np.zeros_like(param)
        state.second_moment = np.zeros_like(param)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state.first_moment, state.second_moment
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad * grad
    param -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


def glorot_uniform(fan_in, fan_out, rng: np.random.Generator) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


# -- verification ------------------------------------------------------------------


def finite_diff_check(model_forward, params, eps=1e-5, max_entries=40, seed=0):
    """Max relative error between autodiff and central differences.

    ``model_forward`` must rebuild the scalar loss from the current parameter
    values on every call and be deterministic (dropout off or with a fixed
    mask); two identical calls that disagree raise immediately. Large
    parameters are checked on a seeded subsample of entries.
    """
    first = float(model_forward().data)
    second = float(model_forward().data)
    if first != second:
        raise ValueError("model_forward is not deterministic; fix its randomness first")
    for p in params:
        p.grad = None
    backward(model_forward())
    grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.data.reshape(-1)
        flat_g = g.reshape(-1)
        size = flat_p.size
        entries = np.arange(size) if size <= max_entries else np.sort(
            rng.choice(size, size=max_entries, replace=False))
        for i in entries:
            keep = flat_p[i]
            flat_p[i] = keep + eps
            f_plus = float(model_forward().data)
            flat_p[i] = keep - eps
            f_minus = float(model_forward().data)
            flat_p[i] = keep
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-6)
            worst = max(worst, err)
    return worst
