"""Scaled adjacency construction.

A scale word is a string over {A, T}: A contributes the adjacency as a factor,
T its transpose, and the word is evaluated as a left-to-right pattern product.
Word length = scale, so "A" and "T" are the two first-scale graphs and "AT",
"TA", "AA", "TT" the four second-scale ones. A self-loop mode then adds, removes
or keeps the product's diagonal. Every builder here takes T from the transpose
kept on the adjacency, so one adjacency is sorted once.
"""

from functools import reduce

from scalegraph.sparse import (
    SparseMatrix,
    add_self_loops,
    pattern_difference,
    pattern_intersection,
    pattern_union,
    remove_self_loops,
    spgemm,
    transpose,
)

# self-loop mode -> its op on a built word; the mode names are this table's keys
_SELFLOOP_OPS = {"add": add_self_loops, "remove": remove_self_loops, "keep": lambda s: s}
SELFLOOP_MODES = tuple(_SELFLOOP_OPS)
# generated self-loops of a second-scale product are kept or removed, never added
SECOND_SCALE_SELFLOOP_MODES = ("keep", "remove")

# the matrices every direction-aware model draws from, in canonical order
MODEL_WORDS = ("A", "T", "AT", "TA", "AA", "TT")


def apply_selfloop_mode(s: SparseMatrix, mode: str) -> SparseMatrix:
    """``s`` with a unit diagonal ("add"), without a diagonal ("remove") or as it is ("keep")."""
    if mode not in _SELFLOOP_OPS:
        raise ValueError(f"selfloop mode must be one of {SELFLOOP_MODES}, got {mode!r}")
    return _SELFLOOP_OPS[mode](s)


def build_scaled_adjacency(adj: SparseMatrix, word: str, selfloop_mode: str = "keep") -> SparseMatrix:
    """Left-to-right pattern product of ``word``'s A/T factors, then the self-loop mode."""
    if not word:
        raise ValueError("scale word must be non-empty")
    if word.strip("AT"):
        raise ValueError(f"scale word must be over {{A, T}}, got {word!r}")
    if not adj.is_square():
        raise ValueError("adjacency must be square")
    at = transpose(adj).pattern() if "T" in word else None
    return _scaled_word(adj.pattern(), at, word, selfloop_mode)


def _scaled_word(a: SparseMatrix, at: SparseMatrix | None, word: str, mode: str) -> SparseMatrix:
    """Left-to-right pattern product of ``word``, with ``a`` for A and ``at`` for T, then
    self-loop ``mode``."""
    factors = (at if ch == "T" else a for ch in word)
    return apply_selfloop_mode(reduce(lambda x, y: spgemm(x, y, "pattern"), factors), mode)


def meeting_matrix(adj: SparseMatrix, k: int, prune_generated_selfloops: bool = True) -> SparseMatrix:
    """Order-k meeting-node proximity: nodes whose (k-1)-hop forward walks meet.

    Structurally the pattern of A^(k-1) (A^T)^(k-1). Diagonal entries appear for
    any node with an out-edge ("generated" self-loops); with pruning enabled
    they are removed from each intermediate order before it feeds the next one,
    and from the result, which keeps every order pure.
    """
    return _proximity_side(adj, k, forward_first=True, prune=prune_generated_selfloops)


def diffusion_matrix(adj: SparseMatrix, k: int, prune_generated_selfloops: bool = True) -> SparseMatrix:
    """Order-k diffusion-node proximity: pattern of (A^T)^(k-1) A^(k-1)."""
    return _proximity_side(adj, k, forward_first=False, prune=prune_generated_selfloops)


def _proximity_side(adj, k, forward_first, prune):
    if k < 2:
        raise ValueError("proximity order k must be >= 2")
    a = adj.pattern()
    at = transpose(adj).pattern()  # kept on ``adj``, so a plan's adjacency sorts once
    left, right = (a, at) if forward_first else (at, a)
    prox = spgemm(left, right, "pattern")
    if prune:
        prox = remove_self_loops(prox)
    for _ in range(k - 2):
        prox = spgemm(spgemm(left, prox, "pattern"), right, "pattern")
        if prune:
            prox = remove_self_loops(prox)
    return prox


def proximity_matrix(adj: SparseMatrix, k: int, combine: str = "intersect",
                     prune_generated_selfloops: bool = True) -> SparseMatrix:
    """Combine the meeting and diffusion sides of the order-k proximity."""
    if combine not in ("intersect", "union"):
        raise ValueError(f"combine must be 'intersect' or 'union', got {combine!r}")
    m = meeting_matrix(adj, k, prune_generated_selfloops)
    d = diffusion_matrix(adj, k, prune_generated_selfloops)
    return pattern_intersection(m, d) if combine == "intersect" else pattern_union(m, d)


def remove_shared_edges(scaled: SparseMatrix, bases) -> SparseMatrix:
    """Support of ``scaled`` minus the union of the base supports."""
    out = scaled.pattern()
    for base in bases:
        out = pattern_difference(out, base)
    return out


def model_matrix_family(adj: SparseMatrix, selfloop_mode: str = "keep",
                        second_scale_selfloops: str = "keep") -> dict[str, SparseMatrix]:
    """Precompute the six model-facing patterns {A, T, AT, TA, AA, TT}.

    ``selfloop_mode`` applies to the two first-scale matrices, while
    ``second_scale_selfloops`` ("keep" or "remove") controls whether generated
    self-loops survive in the four second-scale products.
    """
    if second_scale_selfloops not in SECOND_SCALE_SELFLOOP_MODES:
        raise ValueError(f"second_scale_selfloops must be one of {SECOND_SCALE_SELFLOOP_MODES}")
    if not adj.is_square():
        raise ValueError("adjacency must be square")
    a = adj.pattern()
    at = transpose(adj).pattern()  # one sort of A, kept on ``adj``, serves T, AT, TA and TT
    modes = {1: selfloop_mode, 2: second_scale_selfloops}  # by word length
    return {word: _scaled_word(a, at, word, modes[len(word)]) for word in MODEL_WORDS}

