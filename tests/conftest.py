import numpy as np
import pytest

from scalegraph.autodiff import _accumulate, make_node
from scalegraph.sparse import SparseMatrix

# 6-node worked example: directed edges (1,2),(3,2),(4,3),(5,3),(6,1) in
# 1-based node ids. All hand-checked matrices in the tests derive from it.
TREE6_EDGES = [(0, 1), (2, 1), (3, 2), (4, 2), (5, 0)]


@pytest.fixture
def tree6():
    src, dst = zip(*TREE6_EDGES)
    return SparseMatrix.from_edges(6, src, dst)


def random_digraph(rng, n, density=0.25, allow_self_loops=False):
    """Random simple digraph pattern for oracle comparisons."""
    dense = (rng.random((n, n)) < density).astype(float)
    if not allow_self_loops:
        np.fill_diagonal(dense, 0.0)
    return SparseMatrix.from_dense(dense)


def random_weighted(rng, n_rows, n_cols, density=0.3):
    dense = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    return SparseMatrix.from_dense(dense)


# -- graph ops for tests of the engine itself -------------------------------------------
# The models need no elementwise ops of the engine (a layer is one node), so the tests
# of backward's bookkeeping build theirs from make_node.


def add(a, b):
    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return make_node(a.data + b.data, (a, b), backward)


def mul(a, b):
    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return make_node(a.data * b.data, (a, b), backward)


def sum_all(a):
    def backward(g):
        _accumulate(a, float(g) * np.ones_like(a.data))

    return make_node(np.asarray(a.data.sum()), (a,), backward)
