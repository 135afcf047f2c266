"""Direction-aware GNN model zoo over precomputed scaled adjacency matrices.

Every family stacks one layer type. A layer takes a list of channels, each with
its own weight W: a channel is a pair (S, c) of a normalized matrix and a
coefficient and computes c * S (X W), one SpMM; the channel ``None`` is the
identity, which makes the feature-only MLP. The channel outputs are fused, then
a bias and the optional batchnorm / relu / dropout follow.

Layer 1's input is the graph's features, a constant, so its channels are
reassociated: the model precomputes P_c = c * S X once when it is built and
layer 1 runs one dense product P_c W per channel, with no sparse product in its
forward or backward (as SIGN and SGC precompute propagated features). A forward
on any other feature array, and every later layer, takes the sparse path.

ScaleNet builds its channels from pairs of opposite-direction matrices (M, N)
blended through one directional parameter:

    out = (1 + a) * a * AGG(M, X) + (1 + a) * (1 - a) * AGG(N, X)

so a = -1 excludes the pair, a = 0 keeps only the N side, a = 0.5 balances
both at 0.75 each, and a = 1 keeps only the M side with coefficient 2.
The special values a = 2 and a = 3 aggregate over the union respectively the
intersection of the two supports instead. Three such pairs (first-scale pair,
meeting pair, two-hop pair) feed an intra-layer fusion, and stacked layers feed
a cross-layer fusion (jumping-knowledge max/concat or plain addition/last).

The layer is linear in the pair, so a pair that keeps both sides is the one
matrix c_M * S_M + c_N * S_N (``MatrixPlan.blend``): one SpMM per channel,
forward and backward. A balanced pair's blend is its own transpose; a lone
side (a = 0 or a = 1) is its normalized word, whose transpose is its
partner's word when the plan has built that too. ``pair_channel`` states this
pair rule once, for the models and for the reference ``agg_b``.
"""

import json
from dataclasses import asdict, dataclass, fields
from functools import reduce

import numpy as np

from scalegraph import scales
from scalegraph.autodiff import (
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
from scalegraph.scales import proximity_matrix
from scalegraph.sparse import (
    SparseMatrix,
    add_self_loops,
    link_transposes,
    pattern_intersection,
    pattern_union,
    sym_normalize,
    weighted_sum,
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
        for name, allowed in (("family", FAMILIES), ("alpha", DIRECTION_VALUES),
                              ("beta", DIRECTION_VALUES), ("gamma", DIRECTION_VALUES),
                              ("comb1", COMB1_CHOICES), ("comb2", COMB2_CHOICES),
                              ("selfloop_mode", scales.SELFLOOP_MODES),
                              ("second_scale_selfloops", scales.SECOND_SCALE_SELFLOOP_MODES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.family == "scalenet" and all(v == -1.0 for v in (self.alpha, self.beta, self.gamma)):
            raise ValueError("scalenet needs at least one direction parameter != -1")
        if not 1 <= self.layers <= 5:
            raise ValueError("layers must be in 1..5")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.family != "scalenet" and self.comb1 != "add":
            raise ValueError(f"comb1 applies to scalenet only; {self.family} needs comb1='add'")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_dict(payload, **overrides):
        """The config of a JSON object's fields, ``overrides`` on top. A ValueError names a
        non-object payload, an unknown field or a wrongly typed value (floats take ints)."""
        if not isinstance(payload, dict):
            raise ValueError(f"a model config must be a JSON object, got {payload!r}")
        merged = {**payload, **overrides}
        types = {f.name: f.type for f in fields(ModelConfig)}
        for name, value in merged.items():
            if name not in types:
                raise ValueError(f"unknown model config field {name!r}")
            if type(value) not in ((int, float) if types[name] is float else (types[name],)):
                raise ValueError(f"model config field {name!r} is not a {types[name].__name__}")
        return ModelConfig(**merged)

    @staticmethod
    def from_json(text):
        return ModelConfig.from_dict(json.loads(text) if isinstance(text, str) else text)


def direction_coefficients(alpha: float):
    """Coefficient pair ((1+a)a, (1+a)(1-a)) for the M and N sides."""
    return (1.0 + alpha) * alpha, (1.0 + alpha) * (1.0 - alpha)


def propagate(channel, h: Tensor) -> Tensor:
    """c * S h of the channel (S, c); the channel ``None`` is the identity.

    A coefficient of 1.0 skips ``scale``, which would multiply by 1 exactly.
    """
    if channel is None:
        return h
    s, c = channel
    return spmm(s, h) if c == 1.0 else scale(spmm(s, h), c)


def fuse(outs, mode, proj=None):
    """Fuse branch outputs: ``add``, ``jk_max``, ``jk_cat`` (then ``proj`` if given) or ``last``."""
    if mode == "last":
        return outs[-1]
    if mode == "jk_cat":
        cat = concat_cols(outs)
        return cat if proj is None else matmul(cat, proj)
    return reduce(maximum if mode == "jk_max" else add, outs)


def pair_channel(alpha, side, blend, combined):
    """The channel (S, c) of a direction pair (M, N) under ``alpha`` != -1: alpha = 2 and 3
    take ``combined(pattern_union)`` and ``combined(pattern_intersection)``; two non-zero
    coefficients take ``blend(c_m, c_n)``, each with c = 1; otherwise ``side(i)``, side 0
    (M) or 1 (N), with its non-zero coefficient."""
    if alpha in (2.0, 3.0):
        return combined(pattern_union if alpha == 2.0 else pattern_intersection), 1.0
    c_m, c_n = direction_coefficients(alpha)
    if c_m and c_n:
        return blend(c_m, c_n), 1.0
    return side(0 if c_m else 1), c_m or c_n


def agg_b(alpha: float, m: SparseMatrix, n: SparseMatrix, x: Tensor, weight: Tensor) -> Tensor:
    """Bidirectional aggregation of the matrix pair (m, n) with shared weight.

    ``m`` and ``n`` are already normalized; the rule is the models' ``pair_channel``:
    alpha = 2 aggregates over the (unnormalized) support union, alpha = 3 over the
    intersection; alpha = -1 yields an exactly zero block.
    """
    if float(alpha) not in DIRECTION_VALUES:
        raise ValueError(f"alpha must be one of {DIRECTION_VALUES}, got {alpha}")
    if alpha == -1:
        return Tensor(np.zeros((m.n_rows, weight.data.shape[1])))
    channel = pair_channel(alpha, lambda i: (m, n)[i],
                           lambda c_m, c_n: weighted_sum(m, n, c_m, c_n),
                           lambda combine: combine(m, n))
    return propagate(channel, matmul(x, weight))


class MatrixPlan:
    """The words of ``scales.MODEL_WORDS`` over one adjacency, each pattern and its
    ``sym_normalize`` built on first request: A and T by ``scales.build_scaled_adjacency``,
    the second-scale words by one ``scales.model_matrix_family`` call per self-loop mode. A
    normalized word is linked (``link_transposes``) to that of its transpose, the word
    reversed with A and T swapped: entry (i, j) of one and (j, i) of the other are both
    ``(1.0 * r_i) * c_j`` over the same integer sums. Pair blends and proximity matrices are
    built once too. Layer-1 inputs are not kept, as a plan lives for a whole grid."""

    def __init__(self, adj: SparseMatrix):
        self.adj = adj.pattern()
        self._words = {}
        self._normalized = {}
        self._blends = {}
        self._proximity = {}

    def word(self, word, mode):
        if (word, mode) not in self._words:
            if len(word) == 1:
                self._words[word, mode] = scales.build_scaled_adjacency(self.adj, word, mode)
            else:
                family = scales.model_matrix_family(self.adj, "keep", mode)
                self._words.update(((w, mode), family[w]) for w in scales.MODEL_WORDS[2:])
        return self._words[word, mode]

    def normalized(self, word, mode):
        if (word, mode) not in self._normalized:
            s = self._normalized[word, mode] = sym_normalize(self.word(word, mode))
            partner = self._normalized.get((word[::-1].translate(str.maketrans("AT", "TA")), mode))
            if partner is not None:
                link_transposes(s, partner)
        return self._normalized[word, mode]

    def blend(self, words, mode, c_m, c_n):
        """``c_m * S_M + c_n * S_N`` of the pair ``words`` = (M, N) under ``mode``. N is M's
        transpose (A/T, AA/TT) or both are symmetric (AT/TA), so a blend with c_m == c_n is
        marked symmetric: its (j, i) entry sums the same two products as its (i, j) entry."""
        key = (words, mode, c_m, c_n)
        if key not in self._blends:
            m, n = (self.word(w, mode) for w in words)
            b = self._blends[key] = weighted_sum(m, n, c_m, c_n, normalize=True)
            if c_m == c_n:
                link_transposes(b, b)
        return self._blends[key]

    def proximity(self, k, combine):
        """The normalized order-``k`` proximity matrix, its generated self-loops pruned."""
        if (k, combine) not in self._proximity:
            self._proximity[k, combine] = self.symmetric(proximity_matrix(self.adj, k, combine))
        return self._proximity[k, combine]

    @staticmethod
    def symmetric(pattern):
        """``sym_normalize`` of a symmetric pattern, marked as its own transpose."""
        s = sym_normalize(pattern)
        link_transposes(s, s)
        return s


def prepare_direction_blocks(plan: MatrixPlan, cfg: ModelConfig):
    """The ``pair_channel`` of each kept direction pair of ``cfg``, over normalized
    matrices of ``plan``: the pair's blend, its lone side, or its symmetric union or
    intersection. No product runs while normalized values are held: patterns come first."""
    first, second = cfg.selfloop_mode, cfg.second_scale_selfloops
    pairs = [(param, words, mode) for param, words, mode in (
        (cfg.alpha, ("A", "T"), first), (cfg.beta, ("AT", "TA"), second),
        (cfg.gamma, ("AA", "TT"), second)) if param != -1.0]
    if not pairs:
        raise ValueError("all direction blocks are excluded")
    sides = [[plan.word(w, mode) for w in words] for _, words, mode in pairs]
    return [pair_channel(param, lambda i: plan.normalized(words[i], mode),
                         lambda c_m, c_n: plan.blend(words, mode, c_m, c_n),
                         lambda combine: plan.symmetric(combine(m, n)))
            for (param, words, mode), (m, n) in zip(pairs, sides)]


# -- layers ---------------------------------------------------------------------


class Layer:
    """Channels with their own weights, a fusion, a bias and optional BN / ReLU / dropout.

    Called with ``inputs``, the channels' propagated inputs P_c = c * S x, it computes each
    channel (S, c) as P_c W and ignores ``x``; without them, as c * S (x W). The channel
    ``None`` is the identity: P_c = x.
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
        self.bn_gamma = self.bn_beta = self.bn_stats = None
        if cfg.use_bn:
            self.bn_gamma = Tensor(np.ones((1, cfg.hidden)), requires_grad=True)
            self.bn_beta = Tensor(np.zeros((1, cfg.hidden)), requires_grad=True)
            self.bn_stats = np.stack([np.zeros(cfg.hidden), np.ones(cfg.hidden)])

    def __call__(self, x, training, rng, inputs=None):
        if inputs is None:
            outs = [propagate(channel, matmul(x, w))
                    for channel, w in zip(self.channels, self.weights)]
        else:
            outs = [matmul(p, w) for p, w in zip(inputs, self.weights)]
        h = add_bias(fuse(outs, self.fusion, self.proj), self.bias)
        if self.cfg.use_bn:
            h = batchnorm(h, self.bn_gamma, self.bn_beta, self.bn_stats, training)
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


class Model:
    """Stacked layers, cross-layer fusion, and a linear classifier head.

    ``features`` is the graph's (read-only) feature array X. The model keeps
    ``inputs``, layer 1's propagated inputs P_c = c * S X, one per channel (S, c)
    (X itself for the channel ``None``), which costs channels x n x d floats.
    ``forward`` uses them when it is given that same array; any other array
    takes the sparse path in layer 1 and gives the same logits up to rounding,
    since (S X) W and S (X W) sum their products in different orders.

    Once every weight is drawn, the model's whole state is packed into one
    float64 array ``state``: the parameters in ``params()`` order, then each
    batchnorm layer's (2, width) running statistics. Each parameter's ``data``
    and each layer's ``bn_stats`` is a view of it, and ``vector`` is its
    parameter part: one Adam update serves every parameter, and a snapshot or
    restore is one copy. Nothing may rebind a parameter's ``data`` or a layer's
    ``bn_stats`` afterwards; write into them instead.
    """

    def __init__(self, cfg: ModelConfig, layers, n_classes, rng, features):
        self.config = cfg
        self.layers = layers
        head_in = cfg.hidden * (cfg.layers if cfg.comb2 == "jk_cat" else 1)
        self.head_weight = Tensor(glorot_uniform(head_in, n_classes, rng), requires_grad=True)
        self.head_bias = Tensor(np.zeros((1, n_classes)), requires_grad=True)
        params = self.params()
        bn_layers = [layer for layer in layers if layer.bn_stats is not None]
        arrays = [p.data for p in params] + [layer.bn_stats for layer in bn_layers]
        self.state = np.concatenate([a.ravel() for a in arrays])
        ends = np.cumsum([a.size for a in arrays])
        views = [self.state[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]
        for p, view in zip(params, views):
            p.data = view
        for layer, view in zip(bn_layers, views[len(params):]):
            layer.bn_stats = view
        self.vector = self.state[:sum(p.data.size for p in params)]
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

    def snapshot(self):
        return self.state.copy()

    def restore(self, snap):
        self.state[:] = snap


# -- family wiring -----------------------------------------------------------------


def _stack(cfg: ModelConfig, graph: DirectedGraph, channels, fusion, seed) -> Model:
    """``cfg.layers`` layers over the same channels; weights are drawn layer by layer, then the
    head's."""
    rng = np.random.default_rng(seed)
    layers = [Layer(cfg, channels, fusion, graph.d if i == 0 else cfg.hidden, rng)
              for i in range(cfg.layers)]
    return Model(cfg, layers, graph.n_classes, rng, graph.features)


def build_matrix_channel_model(cfg: ModelConfig, graph: DirectedGraph, matrices,
                               seed=0) -> Model:
    """Model over explicit (already normalized) matrices, one added channel each."""
    return _stack(cfg, graph, [(m, 1.0) for m in matrices], "add", seed)


def _inception(*proximity):
    """Channels A and T, then one per pruned proximity matrix (hops, mode)."""
    def channels(plan, cfg):
        return [(m, 1.0) for m in [plan.normalized(w, cfg.selfloop_mode) for w in ("A", "T")]
                + [plan.proximity(k, mode) for k, mode in proximity]]
    return channels


def _one_ym(plan, cfg):
    a, t = (plan.word(w, cfg.selfloop_mode) for w in ("A", "T"))
    return [(m, 1.0) for m in [plan.symmetric(pattern_union(a, t))] + [
        plan.normalized(w, cfg.second_scale_selfloops) for w in ("AT", "TA")]]


def _gcn(plan, cfg):
    a, t = (plan.word(w, "keep") for w in ("A", "T"))
    return [(plan.symmetric(add_self_loops(pattern_union(a, t))), 1.0)]


def _dirgnn_lite(plan, cfg):
    return [(plan.normalized(w, cfg.selfloop_mode), 0.5) for w in ("A", "T")]


# family -> (channels of every layer from (matrix plan, config), intra-layer fusion);
# scalenet's fusion is the configured comb1
_WIRING = {
    "scalenet": (prepare_direction_blocks, None),
    "mlp": (lambda plan, cfg: [None], "add"),
    "one_ig": (_inception(), "add"),
    "one_igi2": (_inception((2, "intersect")), "add"),
    "one_igu2": (_inception((2, "union")), "add"),
    "one_igu3": (_inception((2, "union"), (3, "union")), "add"),
    "one_ym": (_one_ym, "jk_cat"),
    "gcn": (_gcn, "add"),
    "dirgnn_lite": (_dirgnn_lite, "add"),
}


def build_model(cfg: ModelConfig, graph: DirectedGraph, seed=0, plan=None) -> Model:
    """Wire a model family over the graph's scaled adjacency matrices, taken from ``plan``,
    a ``MatrixPlan`` of the graph's adjacency that several builds can share, or a new one."""
    if cfg.family not in _WIRING:
        raise ValueError(f"unknown model family {cfg.family!r}")
    channels, fusion = _WIRING[cfg.family]
    plan = MatrixPlan(graph.adjacency) if plan is None else plan
    return _stack(cfg, graph, channels(plan, cfg), fusion or cfg.comb1, seed)
