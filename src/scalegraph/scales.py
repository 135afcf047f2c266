"""Scaled adjacency construction.

A scale word is a string over {A, T}: A contributes the adjacency as a factor,
T its transpose, and the word is evaluated as a left-to-right pattern product.
Word length = scale, so "A" and "T" are the two first-scale graphs and "AT",
"TA", "AA", "TT" the four second-scale ones.
"""

from dataclasses import dataclass

from scalegraph.sparse import (
    SparseMatrix,
    apply_selfloop_mode,
    pattern_difference,
    pattern_intersection,
    pattern_union,
    remove_self_loops,
    spgemm,
    transpose,
)

SELFLOOP_MODES = ("add", "remove", "keep")

# the matrices every direction-aware model draws from, in canonical order
MODEL_WORDS = ("A", "T", "AT", "TA", "AA", "TT")


@dataclass(frozen=True)
class ScaleSpec:
    """A scale word plus the self-loop treatment applied to the result."""

    word: str
    selfloop_mode: str = "keep"

    def __post_init__(self):
        if not self.word:
            raise ValueError("scale word must be non-empty")
        if any(ch not in "AT" for ch in self.word):
            raise ValueError(f"scale word must be over {{A, T}}, got {self.word!r}")
        if self.selfloop_mode not in SELFLOOP_MODES:
            raise ValueError(f"unknown selfloop mode {self.selfloop_mode!r}")

    @property
    def scale(self):
        return len(self.word)


@dataclass(frozen=True)
class ScaledGraph:
    """A built scaled adjacency: its spec and pattern matrix."""

    spec: ScaleSpec
    matrix: SparseMatrix


def build_scaled_adjacency(adj: SparseMatrix, spec: ScaleSpec) -> ScaledGraph:
    """Left-to-right pattern product of A/T factors, then the self-loop mode."""
    if not adj.is_square():
        raise ValueError("adjacency must be square")
    a = adj.pattern()
    at = transpose(a) if "T" in spec.word else None
    result = apply_selfloop_mode(_word_product(a, at, spec.word), spec.selfloop_mode)
    return ScaledGraph(spec=spec, matrix=result)


def _word_product(a: SparseMatrix, at: SparseMatrix | None, word: str) -> SparseMatrix:
    """Left-to-right pattern product of ``word``, with ``a`` for A and ``at`` for T."""
    result = None
    for ch in word:
        factor = at if ch == "T" else a
        result = factor if result is None else spgemm(result, factor, "pattern")
    return result


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
    if second_scale_selfloops not in ("keep", "remove"):
        raise ValueError("second_scale_selfloops must be 'keep' or 'remove'")
    if not adj.is_square():
        raise ValueError("adjacency must be square")
    a = adj.pattern()
    at = transpose(adj).pattern()  # one sort of A, kept on ``adj``, serves T, AT, TA and TT
    out = {}
    for word in MODEL_WORDS:
        mode = selfloop_mode if len(word) == 1 else second_scale_selfloops
        out[word] = apply_selfloop_mode(_word_product(a, at, word), mode)
    return out

