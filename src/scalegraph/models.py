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
    _accumulate,
    _check_finite,
    _spmm_data,
    glorot_uniform,
    make_node,
)
from scalegraph.graphdata import DirectedGraph
from scalegraph.scales import proximity_matrix
from scalegraph.sparse import (
    SparseMatrix,
    link_transposes,
    pattern_intersection,
    pattern_union,
    sym_normalize,
    transpose,
    weighted_sum,
)

DIRECTION_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
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


def propagate(channel, h):
    """c * S h of the channel (S, c), as an array; the channel ``None`` is the identity.

    A coefficient of 1.0 skips the scaling, which would multiply by 1 exactly.
    """
    if channel is None:
        return h
    s, c = channel
    out = _spmm_data(s, h)
    return out if c == 1.0 else c * out


def fuse(outs, mode):
    """Fuse branch arrays by ``mode`` (``add``, ``jk_max``, ``jk_cat`` or ``last``); returns
    the fused array and, for ``jk_max``, where each running maximum is kept (on ties too)."""
    if mode == "last":
        return outs[-1], None
    if mode == "jk_cat":
        return np.concatenate(outs, axis=1), None
    if mode == "add":
        return reduce(np.add, outs), None
    fused, takes = outs[0], []
    for out in outs[1:]:
        takes.append(fused >= out)
        fused = np.where(takes[-1], fused, out)
    return fused, takes


def unfuse(g, mode, k, takes):
    """Each of the ``k`` branches' gradient from the gradient ``g`` of ``fuse``'s output,
    in branch order; under ``last`` the earlier branches get ``None``."""
    if mode == "last":
        return [None] * (k - 1) + [g]
    if mode == "jk_cat":
        return np.split(g, k, axis=1)
    if mode == "add":
        return [g] * k
    grads = []
    for take in reversed(takes):
        grads.append(g * ~take)
        g = g * take
    return [g] + grads[::-1]


# batchnorm's running-statistics momentum and variance epsilon
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def batchnorm(x, gamma, beta, stats, training):
    """Column-wise batch normalization of the array ``x`` with affine rows ``gamma``, ``beta``.

    ``stats`` is a (2, width) array of running means and variances. Training
    mode normalizes with batch statistics and moves ``stats`` toward them by
    ``BN_MOMENTUM`` in place. It never rebinds the array, so a view (each
    layer's ``bn_stats`` is a view of ``Model.state``) is updated where it
    lives. Eval mode uses ``stats`` and is a per-column affine map. Returns the
    output, the centered input and the inverse deviation.
    """
    if training:
        mean, var = batch = np.stack([x.mean(axis=0), x.var(axis=0)])
        stats *= 1 - BN_MOMENTUM
        stats += BN_MOMENTUM * batch
    else:
        mean, var = stats
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    centered = x - mean
    return centered * inv_std * gamma + beta, centered, inv_std


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
    return Tensor(propagate(channel, x.data @ weight.data))


class MatrixPlan:
    """The words of ``scales.MODEL_WORDS`` over one adjacency, each pattern and its
    ``sym_normalize`` built on first request: A and T by ``scales.build_scaled_adjacency``,
    the second-scale words by one ``scales.model_matrix_family`` call per self-loop mode. A
    normalized word is linked (``link_transposes``) to that of its transpose, the word
    reversed with A and T swapped: entry (i, j) of one and (j, i) of the other are both
    ``(1.0 * r_i) * c_j`` over the same integer sums. Each pair blend and each symmetric
    channel matrix, a pair's union or intersection or a proximity matrix, is built once too.
    Layer-1 inputs are not kept, as a plan lives for a whole grid."""

    def __init__(self, adj: SparseMatrix):
        self.adj = adj.pattern()
        self._words = {}
        self._normalized = {}
        self._blends = {}
        self._symmetric = {}

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

    def combined(self, words, mode, combine):
        """Normalized ``combine(M, N)`` (``pattern_union`` or ``pattern_intersection``) of the
        pair ``words`` = (M, N) under ``mode``. one_ym's A | T is scalenet's alpha = 2 block,
        and gcn's A + A^T + I is that block under "add"."""
        return self.symmetric((words, mode, combine),
                              lambda: combine(*(self.word(w, mode) for w in words)))

    def symmetric(self, key, build):
        """``sym_normalize(build())`` of a symmetric pattern, once per ``key``, marked symmetric."""
        if key not in self._symmetric:
            s = self._symmetric[key] = sym_normalize(build())
            link_transposes(s, s)
        return self._symmetric[key]


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
    for _, words, mode in pairs:
        for w in words:
            plan.word(w, mode)
    return [pair_channel(param, lambda i: plan.normalized(words[i], mode),
                         lambda c_m, c_n: plan.blend(words, mode, c_m, c_n),
                         lambda combine: plan.combined(words, mode, combine))
            for param, words, mode in pairs]


# -- layers ---------------------------------------------------------------------


class Layer:
    """Channels with their own weights, a fusion, a bias and optional BN / ReLU / dropout.

    Called with ``inputs``, the channels' propagated input arrays P_c = c * S x, it
    computes each channel (S, c) as P_c W and ignores ``x``; without them, as
    c * S (x W). The channel ``None`` is the identity: P_c = x.

    A training call is one graph node; an eval call records none. Its backward runs
    the steps in reverse and adds the channels' gradients into ``x`` in channel order.
    It keeps only what it reads: ``x``, ``jk_max``'s masks or ``jk_cat``'s concatenation,
    BN's centered input and inverse deviation, the ReLU mask and the dropout factor.
    Finiteness is checked where a maximum could hide it (each ``jk_max`` branch, the
    ReLU's input) and on the output.
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
        cfg, fusion, proj = self.cfg, self.fusion, self.proj
        weights, k = self.weights, len(self.weights)
        if inputs is None:
            outs = [propagate(channel, x.data @ w.data)
                    for channel, w in zip(self.channels, weights)]
        else:
            outs = [p @ w.data for p, w in zip(inputs, weights)]
        if fusion == "jk_max":
            for out in outs:
                _check_finite(out)
        fused, takes = fuse(outs, fusion)
        cat = mask = factor = None
        if proj is not None:
            cat, fused = fused, fused @ proj.data
        h = np.add(fused, self.bias.data, out=fused)  # every fused array is the layer's own
        if cfg.use_bn:
            h, centered, inv_std = batchnorm(h, self.bn_gamma.data, self.bn_beta.data,
                                             self.bn_stats, training)
        if cfg.use_relu:
            mask = _check_finite(h) > 0
            h = np.maximum(h, 0.0, out=h)  # -0.0 maps to +0.0
        if cfg.dropout > 0.0 and training:
            if rng is None:
                raise ValueError("training forward with dropout needs an rng")
            factor = (rng.random(h.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            h = h * factor

        def backward(g):
            if factor is not None:
                g = g * factor
            if mask is not None:
                g = g * mask
            if cfg.use_bn:
                _accumulate(self.bn_gamma, (g * (centered * inv_std)).sum(axis=0, keepdims=True))
                _accumulate(self.bn_beta, g.sum(axis=0, keepdims=True))
                gx_hat = g * self.bn_gamma.data
                m = centered.shape[0]
                d_var = np.sum(gx_hat * centered, axis=0) * -0.5 * inv_std**3
                d_mean = (np.sum(gx_hat, axis=0) * -inv_std
                          + d_var * np.mean(-2.0 * centered, axis=0))
                g = gx_hat * inv_std + d_var * 2.0 * centered / m + d_mean / m
            _accumulate(self.bias, g.sum(axis=0, keepdims=True))
            if proj is not None:
                _accumulate(proj, cat.T @ g)
                g = g @ proj.data.T
            grads = unfuse(g, fusion, k, takes)
            for channel, w, p, g in zip(self.channels, weights, inputs or [None] * k, grads):
                if p is not None:
                    _accumulate(w, p.T @ g)
                    continue
                if channel is not None:
                    s, c = channel
                    g = _spmm_data(transpose(s), g if c == 1.0 else c * g)
                if x.requires_grad:
                    _accumulate(x, g @ w.data.T)
                _accumulate(w, x.data.T @ g)

        return make_node(h, (x, *self.params()) if training else (), backward)

    def params(self):
        return [p for p in (*self.weights, self.proj, self.bias, self.bn_gamma, self.bn_beta)
                if p is not None]


class Model:
    """Stacked layers, cross-layer fusion, and a linear classifier head.

    ``features`` is the graph's (read-only) feature array X. The model keeps
    ``inputs``, layer 1's propagated input arrays P_c = c * S X, one per channel (S, c)
    (X itself for the channel ``None``), which costs channels x n x d floats.
    ``forward`` uses them when it is given that same array; any other array
    takes the sparse path in layer 1 and gives the same logits up to rounding,
    since (S X) W and S (X W) sum their products in different orders. A training
    ``forward`` records a node per layer and one for the head (fusion, matmul, bias).

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
        self.inputs = [propagate(channel, features) for channel in layers[0].channels]

    def forward(self, features, training=False, rng=None) -> Tensor:
        inputs = self.inputs if features is self.features else None
        x = Tensor(features)
        outs = []
        for layer in self.layers:
            x = layer(x, training, rng, inputs)
            inputs = None
            outs.append(x)
        mode, w, b = self.config.comb2, self.head_weight, self.head_bias
        fused, takes = fuse([out.data for out in outs], mode)

        def backward(g):  # the head: cross-layer fusion, matmul and bias as one node
            _accumulate(b, g.sum(axis=0, keepdims=True))
            _accumulate(w, fused.T @ g)
            for out, g_out in zip(outs, unfuse(g @ w.data.T, mode, len(outs), takes)):
                if g_out is not None:
                    _accumulate(out, g_out)

        return make_node(fused @ w.data + b.data, (*outs, w, b) if training else (), backward)

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
                + [plan.symmetric((k, mode), lambda: proximity_matrix(plan.adj, k, mode))
                   for k, mode in proximity]]
    return channels


def _one_ym(plan, cfg):
    return [(m, 1.0) for m in [plan.combined(("A", "T"), cfg.selfloop_mode, pattern_union)] + [
        plan.normalized(w, cfg.second_scale_selfloops) for w in ("AT", "TA")]]


def _gcn(plan, cfg):
    return [(plan.combined(("A", "T"), "add", pattern_union), 1.0)]


def _dirgnn_lite(plan, cfg):
    return [(plan.normalized(w, cfg.selfloop_mode), 0.5) for w in ("A", "T")]


# family -> (channels of every layer from (matrix plan, config), intra-layer fusion);
# scalenet's fusion is the configured comb1
_WIRING = {
    "scalenet": (prepare_direction_blocks, None),
    "one_ig": (_inception(), "add"),
    "one_igi2": (_inception((2, "intersect")), "add"),
    "one_igu2": (_inception((2, "union")), "add"),
    "one_igu3": (_inception((2, "union"), (3, "union")), "add"),
    "one_ym": (_one_ym, "jk_cat"),
    "gcn": (_gcn, "add"),
    "mlp": (lambda plan, cfg: [None], "add"),
    "dirgnn_lite": (_dirgnn_lite, "add"),
}
FAMILIES = tuple(_WIRING)


def build_model(cfg: ModelConfig, graph: DirectedGraph, seed=0, plan=None) -> Model:
    """Wire a model family over the graph's scaled adjacency matrices, taken from ``plan``,
    a ``MatrixPlan`` of the graph's adjacency that several builds can share, or a new one."""
    if cfg.family not in _WIRING:
        raise ValueError(f"unknown model family {cfg.family!r}")
    channels, fusion = _WIRING[cfg.family]
    plan = MatrixPlan(graph.adjacency) if plan is None else plan
    return _stack(cfg, graph, channels(plan, cfg), fusion or cfg.comb1, seed)
