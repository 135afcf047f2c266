"""Multi-scale directed-graph node classification toolkit.

Builds scaled adjacency matrices from words over {A, T} (T = transposed
adjacency), trains direction-aware GNN variants on them with a small
reverse-mode autodiff engine, and ships an experiment harness for per-scale
accuracy reports, grid search, and paired statistical comparison.
"""

__version__ = "0.1.0"

from scalegraph.sparse import SparseMatrix
from scalegraph.graphdata import DirectedGraph, SplitSet
from scalegraph.models import ModelConfig

__all__ = [
    "SparseMatrix",
    "DirectedGraph",
    "SplitSet",
    "ModelConfig",
    "__version__",
]
