"""Reverse-mode autodiff over dense matrices, plus Adam and a gradient checker.

The tape is the implicit DAG of ``Tensor`` nodes: every op records its parents
and a backward closure, and ``backward`` replays them in reverse topological
order. Ops are coarse (whole-matrix) which keeps the engine at a dozen kernels.
Every op validates that its output is finite; NaN/Inf is always an error here.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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

    def detach(self):
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
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
    if t.requires_grad:
        t.grad = np.array(g, copy=True) if t.grad is None else t.grad + g


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
    (``mode="raise"`` copies ``out``); the indices are in range.
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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return make_node(a.data + b.data, (a, b), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast add of a (1, c) bias."""
    if b.data.shape != (1, x.data.shape[1]):
        raise ValueError(f"bias must be (1, {x.data.shape[1]}), got {b.shape}")

    def backward(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0, keepdims=True))

    return make_node(x.data + b.data, (x, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(a, c * g)

    return make_node(c * a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return make_node(a.data * b.data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return make_node(np.where(mask, a.data, 0.0), (a,), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    take_a = a.data >= b.data

    def backward(g):
        _accumulate(a, g * take_a)
        _accumulate(b, g * ~take_a)

    return make_node(np.where(take_a, a.data, b.data), (a, b), backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scaling by 1/(1-p) keeps the expectation unchanged."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    factor = keep / (1.0 - p)

    def backward(g):
        _accumulate(a, g * factor)

    return make_node(a.data * factor, (a,), backward)


@dataclass
class BatchNormState:
    """Running statistics for one normalization site."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @staticmethod
    def for_width(width):
        return BatchNormState(np.zeros(width), np.ones(width))

    def copy(self):
        return BatchNormState(self.running_mean.copy(), self.running_var.copy(),
                              self.momentum, self.eps)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              training: bool = True) -> Tensor:
    """Column-wise batch normalization with affine parameters.

    Training mode normalizes with batch statistics and refreshes the running
    ones; eval mode uses the running statistics and is a per-column affine map.
    """
    if training:
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        state.running_mean = (1 - state.momentum) * state.running_mean + state.momentum * mean
        state.running_var = (1 - state.momentum) * state.running_var + state.momentum * var
    else:
        mean, var = state.running_mean, state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat = (x.data - mean) * inv_std
    out_data = x_hat * gamma.data + beta.data

    def backward(g):
        _accumulate(gamma, (g * x_hat).sum(axis=0, keepdims=True))
        _accumulate(beta, g.sum(axis=0, keepdims=True))
        gx_hat = g * gamma.data
        if training:
            m = x.data.shape[0]
            centered = x.data - mean
            d_var = np.sum(gx_hat * centered, axis=0) * -0.5 * inv_std**3
            d_mean = np.sum(gx_hat, axis=0) * -inv_std + d_var * np.mean(-2.0 * centered, axis=0)
            _accumulate(x, gx_hat * inv_std + d_var * 2.0 * centered / m + d_mean / m)
        else:
            _accumulate(x, gx_hat * inv_std)

    return make_node(out_data, (x, gamma, beta), backward)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_cols needs at least one tensor")
    widths = [t.data.shape[1] for t in tensors]
    splits = np.cumsum(widths)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=1)):
            _accumulate(t, piece)

    return make_node(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors), backward)


def softmax_cross_entropy(logits: Tensor, labels, index_subset) -> Tensor:
    """Mean cross-entropy of row-wise softmax over the given node subset."""
    labels = np.asarray(labels, dtype=np.int64)
    idx = np.asarray(index_subset, dtype=np.int64)
    if len(idx) == 0:
        raise ValueError("empty index subset")
    rows = logits.data[idx]
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    picked = log_probs[np.arange(len(idx)), labels[idx]]
    loss = -picked.mean()

    def backward(g):
        soft = np.exp(log_probs)
        soft[np.arange(len(idx)), labels[idx]] -= 1.0
        full = np.zeros_like(logits.data)
        full[idx] = soft * (float(g) / len(idx))
        _accumulate(logits, full)

    return make_node(np.asarray(loss), (logits,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, float(g) * np.ones_like(a.data))

    return make_node(np.asarray(a.data.sum()), (a,), backward)


# -- backward --------------------------------------------------------------------


def backward(loss: Tensor):
    """Populate gradients of every requires_grad tensor reachable from ``loss``.

    The recorded graph is consumed: a second backward on the same loss raises.
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
        for parent in node._parents:
            stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in order:
        node._parents = ()
        node._backward = None


# -- optimizer --------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments plus step counter; moments are lazily shaped to the params."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")


def adam_step(params, grads, state: AdamState):
    """One Adam update with bias correction; mutates params and state in place."""
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p.data) for p in params]
        state.second_moment = [np.zeros_like(p.data) for p in params]
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if g is None:
            continue
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
