"""Direction-aware GNN model zoo over precomputed scaled adjacency matrices.

Every family stacks one layer type. A layer takes a list of channels; each
channel is a tuple of (normalized matrix S, coefficient c) terms with its own
weight W and computes sum_k c_k * S_k (X W). The empty channel is the
identity, which makes the feature-only MLP. The channel outputs are fused,
then a bias and the optional batchnorm / relu / dropout follow.

Layer 1's input is the graph's features, a constant, so its channels are
reassociated: the model precomputes P_c = sum_k c_k * S_k X once when it is
built and layer 1 runs one dense product P_c W per channel, with no sparse
product in its forward or backward (as SIGN and SGC precompute propagated
features). A forward on any other feature array, and every later layer, takes
the sparse path.

ScaleNet builds its channels from pairs of opposite-direction matrices (M, N)
blended through one directional parameter:

    out = (1 + a) * a * AGG(M, X) + (1 + a) * (1 - a) * AGG(N, X)

so a = -1 excludes the pair, a = 0 keeps only the N side, a = 0.5 balances
both at 0.75 each, and a = 1 keeps only the M side with coefficient 2.
The special values a = 2 and a = 3 aggregate over the union respectively the
intersection of the two supports instead. Three such pairs (first-scale pair,
meeting pair, two-hop pair) feed an intra-layer fusion, and stacked layers feed
a cross-layer fusion (jumping-knowledge max/concat or plain addition/last).
"""

import json
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from scalegraph import scales
from scalegraph.autodiff import (
    BatchNormState,
    Tensor,
    add,
    add_bias,
    batchnorm,
    concat_cols,
    dropout,
    glorot_uniform,
    matmul,
    maximum,
    relu,
    scale,
    spmm,
)
from scalegraph.graphdata import DirectedGraph
from scalegraph.scales import ScaleSpec, build_scaled_adjacency, proximity_matrix
from scalegraph.sparse import (
    SparseMatrix,
    add_self_loops,
    apply_selfloop_mode,
    link_transposes,
    pattern_intersection,
    pattern_union,
    sym_normalize,
    transpose,
)

DIRECTION_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
FAMILIES = ("scalenet", "one_ig", "one_igi2", "one_igu2", "one_igu3",
            "one_ym", "gcn", "mlp", "dirgnn_lite")
COMB1_CHOICES = ("add", "jk_max", "jk_cat")
COMB2_CHOICES = ("last", "jk_max", "jk_cat")


@dataclass
class ModelConfig:
    """Everything a model build needs; serializes to/from JSON for manifests."""

    family: str = "scalenet"
    alpha: float = 0.5
    beta: float = -1.0
    gamma: float = -1.0
    layers: int = 2
    hidden: int = 64
    comb1: str = "add"
    comb2: str = "last"
    selfloop_mode: str = "keep"
    second_scale_selfloops: str = "keep"
    use_bn: bool = False
    use_relu: bool = True
    dropout: float = 0.0
    lr: float = 0.01

    def __post_init__(self):
        self.alpha, self.beta, self.gamma = (float(self.alpha), float(self.beta),
                                             float(self.gamma))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if value not in DIRECTION_VALUES:
                raise ValueError(f"{name} must be one of {DIRECTION_VALUES}, got {value}")
        if self.family == "scalenet" and all(v == -1.0 for v in (self.alpha, self.beta, self.gamma)):
            raise ValueError("scalenet needs at least one direction parameter != -1")
        if not 1 <= self.layers <= 5:
            raise ValueError("layers must be in 1..5")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.comb1 not in COMB1_CHOICES or self.comb2 not in COMB2_CHOICES:
            raise ValueError(f"comb1 must be in {COMB1_CHOICES} and comb2 in {COMB2_CHOICES}")
        if self.family != "scalenet" and self.comb1 != "add":
            raise ValueError(f"comb1 applies to scalenet only; {self.family} needs comb1='add'")
        if self.selfloop_mode not in ("add", "remove", "keep"):
            raise ValueError(f"bad selfloop_mode {self.selfloop_mode!r}")
        if self.second_scale_selfloops not in ("keep", "remove"):
            raise ValueError(f"bad second_scale_selfloops {self.second_scale_selfloops!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text):
        payload = json.loads(text) if isinstance(text, str) else dict(text)
        return ModelConfig(**payload)


def direction_coefficients(alpha: float):
    """Coefficient pair ((1+a)a, (1+a)(1-a)) for the M and N sides."""
    return (1.0 + alpha) * alpha, (1.0 + alpha) * (1.0 - alpha)


def pair_channel(param, m: SparseMatrix, n: SparseMatrix, prep):
    """Terms of the direction pair (m, n), each matrix passed through ``prep``.

    param = 2 gives the support union, param = 3 the intersection, and any
    other value the coefficient law with zero-coefficient sides dropped.
    Callers exclude param = -1, whose terms would all be dropped.
    """
    if param == 2.0:
        return ((prep(pattern_union(m, n)), 1.0),)
    if param == 3.0:
        return ((prep(pattern_intersection(m, n)), 1.0),)
    return tuple((prep(mat), c) for mat, c in zip((m, n), direction_coefficients(param))
                 if c != 0.0)


def propagate(channel, h: Tensor) -> Tensor:
    """Sum of c * S h over the channel's terms; the empty channel is the identity.

    A coefficient of 1.0 skips ``scale``, which would multiply by 1 exactly.
    """
    if not channel:
        return h
    return fuse([spmm(s, h) if c == 1.0 else scale(spmm(s, h), c) for s, c in channel], "add")


def fuse(outs, mode, proj=None):
    """Fuse branch outputs: ``add``, ``jk_max``, ``jk_cat`` (then ``proj`` if given) or ``last``."""
    if mode == "last":
        return outs[-1]
    if mode == "jk_cat":
        cat = concat_cols(outs)
        return cat if proj is None else matmul(cat, proj)
    return reduce(maximum if mode == "jk_max" else add, outs)


def agg_b(alpha: float, m: SparseMatrix, n: SparseMatrix, x: Tensor, weight: Tensor) -> Tensor:
    """Bidirectional aggregation of the matrix pair (m, n) with shared weight.

    alpha = 2 aggregates over the support union, alpha = 3 over the
    intersection; alpha = -1 yields an exactly zero block.
    """
    if float(alpha) not in DIRECTION_VALUES:
        raise ValueError(f"alpha must be one of {DIRECTION_VALUES}, got {alpha}")
    if alpha == -1:
        return Tensor(np.zeros((m.n_rows, weight.data.shape[1])))
    return propagate(pair_channel(alpha, m, n, lambda s: s), matmul(x, weight))


def matrix_family(adj: SparseMatrix, selfloop_mode: str, second_scale_selfloops: str,
                  families: dict | None = None) -> dict[str, SparseMatrix]:
    """``scales.model_matrix_family(adj, selfloop_mode, second_scale_selfloops)``, with the
    products shared through the memo ``families``.

    ``families`` maps ``second_scale_selfloops`` to the keep-mode family of ``adj`` and is
    filled on first use; applying ``selfloop_mode`` to its ``A`` and ``T`` gives the same
    matrices as building under that mode. Without a memo the family is built afresh.
    """
    families = {} if families is None else families
    if second_scale_selfloops not in families:
        families[second_scale_selfloops] = scales.model_matrix_family(
            adj, "keep", second_scale_selfloops)
    family = dict(families[second_scale_selfloops])
    for word in ("A", "T"):
        family[word] = apply_selfloop_mode(family[word], selfloop_mode)
    return family


def prepare_direction_blocks(adj: SparseMatrix, cfg: ModelConfig, families=None):
    """Normalized channels of the non-excluded direction pairs, precomputed once per run.

    ``families`` is a ``matrix_family`` memo of ``adj`` to share products through.
    Each pair's sides are transposes of each other (A/T, AA/TT) or each symmetric
    (AT, TA), so its union and intersection are symmetric. The normalized matrices
    are linked or marked as such (``link_transposes``), and a backward through them
    sorts no transpose. Entry (i, j) of ``sym_normalize(M)`` and entry (j, i) of
    ``sym_normalize(Mᵀ)`` are both ``(1.0 * r_i) * c_j`` of a pattern over the
    same integer sums, so a partner is its transpose bit for bit.
    """
    family = matrix_family(adj, cfg.selfloop_mode, cfg.second_scale_selfloops, families)
    blocks = []
    for param, (wm, wn) in ((cfg.alpha, ("A", "T")), (cfg.beta, ("AT", "TA")),
                            (cfg.gamma, ("AA", "TT"))):
        if param == -1.0:
            continue
        block = pair_channel(param, family[wm], family[wn], sym_normalize)
        sides = [s for s, _ in block]
        if wm == "AT" or param in (2.0, 3.0):
            for s in sides:
                link_transposes(s, s)
        elif len(sides) == 2:
            link_transposes(*sides)
        blocks.append(block)
    if not blocks:
        raise ValueError("all direction blocks are excluded")
    return blocks


# -- layers ---------------------------------------------------------------------


class Layer:
    """Channels with their own weights, a fusion, a bias and optional BN / ReLU / dropout.

    Called with ``inputs``, the channels' propagated inputs P_c = sum_k c_k * S_k x, it
    computes each channel as P_c W and ignores ``x``; without them, as sum_k c_k * S_k (x W).
    """

    def __init__(self, cfg, channels, fusion, in_dim, rng):
        self.cfg = cfg
        self.channels = list(channels)
        self.fusion = fusion
        self.weights = [Tensor(glorot_uniform(in_dim, cfg.hidden, rng), requires_grad=True)
                        for _ in self.channels]
        self.proj = None
        if fusion == "jk_cat":
            self.proj = Tensor(glorot_uniform(len(self.channels) * cfg.hidden, cfg.hidden, rng),
                               requires_grad=True)
        self.bias = Tensor(np.zeros((1, cfg.hidden)), requires_grad=True)
        self.bn_gamma = self.bn_beta = self.bn_state = None
        if cfg.use_bn:
            self.bn_gamma = Tensor(np.ones((1, cfg.hidden)), requires_grad=True)
            self.bn_beta = Tensor(np.zeros((1, cfg.hidden)), requires_grad=True)
            self.bn_state = BatchNormState.for_width(cfg.hidden)

    def __call__(self, x, training, rng, inputs=None):
        if inputs is None:
            outs = [propagate(channel, matmul(x, w))
                    for channel, w in zip(self.channels, self.weights)]
        else:
            outs = [matmul(p, w) for p, w in zip(inputs, self.weights)]
        h = add_bias(fuse(outs, self.fusion, self.proj), self.bias)
        if self.cfg.use_bn:
            h = batchnorm(h, self.bn_gamma, self.bn_beta, self.bn_state, training)
        if self.cfg.use_relu:
            h = relu(h)
        if self.cfg.dropout > 0.0 and training:
            if rng is None:
                raise ValueError("training forward with dropout needs an rng")
            h = dropout(h, self.cfg.dropout, rng, training)
        return h

    def params(self):
        return [p for p in (*self.weights, self.proj, self.bias, self.bn_gamma, self.bn_beta)
                if p is not None]

    def states(self):
        return [self.bn_state] if self.bn_state is not None else []


class Model:
    """Stacked layers, cross-layer fusion, and a linear classifier head.

    ``features`` is the graph's (read-only) feature array X. The model keeps
    ``inputs``, layer 1's propagated inputs P_c = sum_k c_k * S_k X, one per
    channel (X itself for the empty channel), which costs channels x n x d floats.
    ``forward`` uses them when it is given that same array; any other array
    takes the sparse path in layer 1 and gives the same logits up to rounding,
    since (S X) W and S (X W) add their terms in different orders.
    """

    def __init__(self, cfg: ModelConfig, layers, n_classes, rng, features):
        self.config = cfg
        self.layers = layers
        head_in = cfg.hidden * (cfg.layers if cfg.comb2 == "jk_cat" else 1)
        self.head_weight = Tensor(glorot_uniform(head_in, n_classes, rng), requires_grad=True)
        self.head_bias = Tensor(np.zeros((1, n_classes)), requires_grad=True)
        self.features = features
        self.inputs = [propagate(channel, Tensor(features)) for channel in layers[0].channels]

    def forward(self, features, training=False, rng=None) -> Tensor:
        inputs = self.inputs if features is self.features else None
        x = Tensor(features)
        outs = []
        for layer in self.layers:
            x = layer(x, training, rng, inputs)
            inputs = None
            outs.append(x)
        return add_bias(matmul(fuse(outs, self.config.comb2), self.head_weight), self.head_bias)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        out.extend([self.head_weight, self.head_bias])
        return out

    def bn_states(self):
        out = []
        for layer in self.layers:
            out.extend(layer.states())
        return out

    def snapshot(self):
        return ([p.data.copy() for p in self.params()],
                [s.copy() for s in self.bn_states()])

    def restore(self, snap):
        datas, states = snap
        for p, data in zip(self.params(), datas):
            p.data = data.copy()
        for live, saved in zip(self.bn_states(), states):
            live.running_mean = saved.running_mean.copy()
            live.running_var = saved.running_var.copy()


# -- family wiring -----------------------------------------------------------------


def _stack(cfg: ModelConfig, graph: DirectedGraph, channels, fusion, seed) -> Model:
    """``cfg.layers`` layers over the same channels; weights are drawn layer by layer, then the
    head's."""
    rng = np.random.default_rng(seed)
    layers = [Layer(cfg, channels, fusion, graph.d if i == 0 else cfg.hidden, rng)
              for i in range(cfg.layers)]
    return Model(cfg, layers, graph.n_classes, rng, graph.features)


def _channels(matrices, coef=1.0):
    """One channel per normalized matrix."""
    return [((m, coef),) for m in matrices]


def build_matrix_channel_model(cfg: ModelConfig, graph: DirectedGraph, matrices,
                               seed=0) -> Model:
    """Model over explicit (already normalized) matrices, one added channel each."""
    return _stack(cfg, graph, _channels(matrices), "add", seed)


def _first_scale(adj, cfg):
    """Normalized A and T under the first-scale self-loop mode, linked as each other's
    transpose; no second-scale product is built."""
    specs = (ScaleSpec(word, cfg.selfloop_mode) for word in ("A", "T"))
    s_a, s_t = (sym_normalize(build_scaled_adjacency(adj, spec).matrix) for spec in specs)
    link_transposes(s_a, s_t)
    return [s_a, s_t]


def _symmetric(patterns):
    """``sym_normalize`` of symmetric patterns, each marked as its own transpose."""
    out = [sym_normalize(p) for p in patterns]
    for s in out:
        link_transposes(s, s)
    return out


def _inception(*proximity):
    """Channels A and T, then one per pruned proximity matrix (hops, mode)."""
    def channels(adj, cfg, families):
        return _channels(_first_scale(adj, cfg) + _symmetric(
            [proximity_matrix(adj, k, mode, True) for k, mode in proximity]))
    return channels


def _one_ym(adj, cfg, families):
    fam = matrix_family(adj, cfg.selfloop_mode, cfg.second_scale_selfloops, families)
    return _channels(_symmetric([pattern_union(fam["A"], fam["T"]), fam["AT"], fam["TA"]]))


def _gcn(adj, cfg, families):
    return _channels(_symmetric([add_self_loops(pattern_union(adj, transpose(adj)))]))


def _dirgnn_lite(adj, cfg, families):
    return _channels(_first_scale(adj, cfg), coef=0.5)


# family -> (channels of every layer from (adjacency pattern, config, family memo),
# intra-layer fusion); scalenet's fusion is the configured comb1
_WIRING = {
    "scalenet": (prepare_direction_blocks, None),
    "mlp": (lambda adj, cfg, families: [()], "add"),
    "one_ig": (_inception(), "add"),
    "one_igi2": (_inception((2, "intersect")), "add"),
    "one_igu2": (_inception((2, "union")), "add"),
    "one_igu3": (_inception((2, "union"), (3, "union")), "add"),
    "one_ym": (_one_ym, "jk_cat"),
    "gcn": (_gcn, "add"),
    "dirgnn_lite": (_dirgnn_lite, "add"),
}


def build_model(cfg: ModelConfig, graph: DirectedGraph, seed=0, families=None) -> Model:
    """Wire a model family over the graph's scaled adjacency matrices.

    ``families`` is a ``matrix_family`` memo of this graph's adjacency, for callers that
    build several models; without it the model builds its own matrices.
    """
    if cfg.family not in _WIRING:
        raise ValueError(f"unknown model family {cfg.family!r}")
    channels, fusion = _WIRING[cfg.family]
    return _stack(cfg, graph, channels(graph.adjacency.pattern(), cfg, families),
                  fusion or cfg.comb1, seed)
