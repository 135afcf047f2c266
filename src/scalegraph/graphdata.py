"""Dataset container, file ingestion, splits, graph statistics, synthetic graphs.

File formats (all plain text, trivially portable):
  * edges.tsv     one "src<TAB>dst" pair per line, 0-based, '#' comments
  * features.csv  n rows of d comma-separated reals
  * labels.txt    one integer class id per line
  * splits.json   {"splits": [{"train": [...], "val": [...], "test": [...]}, ...]}
"""

import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from scalegraph.sparse import (
    SparseMatrix,
    _from_sorted_keys,
    degrees,
    format_edge_list,
    parse_edge_list,
)


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


class DirectedGraph:
    """A directed graph with node features, labels, and a canonical CSR adjacency."""

    def __init__(self, adjacency: SparseMatrix, features, labels, n_classes=None):
        self.adjacency = adjacency
        # an owned, read-only copy: models precompute from it, so it must not change
        self.features = np.array(features, dtype=np.float64, order="C")
        self.features.flags.writeable = False
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)
        inferred = int(self.labels.max()) + 1 if len(self.labels) else 0
        self.n_classes = int(n_classes) if n_classes is not None else inferred
        self._check()

    def _check(self):
        if not self.adjacency.is_square():
            raise DataError("adjacency must be square")
        n = self.adjacency.n_rows
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise DataError(f"features must be {n} x d, got {self.features.shape}")
        if self.labels.shape != (n,):
            raise DataError(f"expected {n} labels, got {self.labels.shape}")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataError("label out of range")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features must be finite")

    @property
    def n(self):
        return self.adjacency.n_rows

    @property
    def d(self):
        return self.features.shape[1]

    def zeroed(self):
        """Copy with empty adjacency and all-zero features (the no-input control)."""
        return DirectedGraph(SparseMatrix.empty(self.n, self.n),
                             np.zeros_like(self.features), self.labels, self.n_classes)

    def __repr__(self):
        return (f"DirectedGraph(n={self.n}, m={self.adjacency.nnz}, "
                f"d={self.d}, C={self.n_classes})")


@dataclass(frozen=True)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class SplitSet:
    """Named train/val/test index splits; one entry per evaluation fold."""

    splits: list

    def __post_init__(self):
        normalized = []
        for s in self.splits:
            parts = (s.train, s.val, s.test) if isinstance(s, Split) else tuple(s)
            normalized.append(Split(*(np.ascontiguousarray(sorted(p), dtype=np.int64)
                                      for p in parts)))
        self.splits = normalized

    def validate(self, n):
        for i, s in enumerate(self.splits):
            if len(s.train) == 0:
                raise DataError(f"split {i}: empty train set")
            joined = np.concatenate([s.train, s.val, s.test])
            if len(joined) and (joined.min() < 0 or joined.max() >= n):
                raise DataError(f"split {i}: node index out of range (n={n})")
            if len(np.unique(joined)) != len(joined):
                raise DataError(f"split {i}: train/val/test sets overlap")
        return self

    def __len__(self):
        return len(self.splits)

    def __getitem__(self, i):
        return self.splits[i]


@dataclass
class StatsReport:
    """Degree / homophily summary in the style of the dataset statistics tables."""

    imbalance_ratio: float
    pct_no_in: float
    pct_no_out: float
    pct_in_homo: float
    pct_out_homo: float
    in_table: dict = field(default_factory=dict)
    out_table: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "imbalance_ratio": self.imbalance_ratio,
            "pct_no_in": self.pct_no_in,
            "pct_no_out": self.pct_no_out,
            "pct_in_homo": self.pct_in_homo,
            "pct_out_homo": self.pct_out_homo,
            "in_table": self.in_table,
            "out_table": self.out_table,
        }


# -- statistics -----------------------------------------------------------------


def neighbor_label_table(g: DirectedGraph, direction: str = "A"):
    """Counts of (homo, hetero, no_neighbor) nodes by predominant neighbor label.

    Direction "A" looks at out-neighbors (rows of the adjacency), "AT" at
    in-neighbors. A node is homophilic when its own label is the unique
    majority among its neighbors; ties count as heterophilic.
    """
    if direction not in ("A", "AT"):
        raise ValueError(f"direction must be 'A' or 'AT', got {direction!r}")
    from scalegraph.sparse import transpose

    adj = g.adjacency if direction == "A" else transpose(g.adjacency)
    n, c = g.n, g.n_classes
    row_nnz = np.diff(adj.row_offsets)
    rows = np.repeat(np.arange(n), row_nnz)
    counts = np.zeros((n, c), dtype=np.int64)
    np.add.at(counts, (rows, g.labels[adj.col_indices]), 1)
    has_nb = row_nnz > 0
    mx = counts.max(axis=1)
    own = counts[np.arange(n), g.labels]
    unique_max = (counts == mx[:, None]).sum(axis=1) == 1
    homo = has_nb & (own == mx) & unique_max
    hetero = has_nb & ~homo
    return int(homo.sum()), int(hetero.sum()), int(n - has_nb.sum())


def compute_stats(g: DirectedGraph, train_idx) -> StatsReport:
    train_idx = np.asarray(train_idx, dtype=np.int64)
    if len(train_idx) == 0:
        raise DataError("empty train split")
    n = g.n
    out_h, out_x, out_none = neighbor_label_table(g, "A")
    in_h, in_x, in_none = neighbor_label_table(g, "AT")
    train_counts = np.bincount(g.labels[train_idx], minlength=g.n_classes)
    present = train_counts[train_counts > 0]
    ratio = float(present.max() / present.min())
    pct = lambda x: 100.0 * x / n
    return StatsReport(
        imbalance_ratio=ratio,
        pct_no_in=pct(int((degrees(g.adjacency, "col") == 0).sum())),
        pct_no_out=pct(int((degrees(g.adjacency, "row") == 0).sum())),
        pct_in_homo=pct(in_h),
        pct_out_homo=pct(out_h),
        in_table={"homo": in_h, "hetero": in_x, "no_neighbor": in_none},
        out_table={"homo": out_h, "hetero": out_x, "no_neighbor": out_none},
    )


# -- file ingestion ----------------------------------------------------------------


def _read_labels(path):
    labels = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            labels.append(int(line))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: expected an integer label, got {raw!r}") from None
    if not labels:
        raise DataError(f"{path}: no labels found")
    if min(labels) < 0:
        raise DataError(f"{path}: negative label")
    return np.asarray(labels, dtype=np.int64)


# lines of features.csv that one split reads
_FEATURE_BLOCK_LINES = 1024


def _read_features(path, n):
    """The ``n`` x width array of a text of comma-separated floats, one row per line. Text
    of ``n`` lines with the same number of commas is read with one split per block of
    lines, so few number objects live at once; any other text line by line, which also
    finds the first bad line."""
    lines = Path(path).read_text().splitlines()
    if len(lines) == n and len(set(map(str.count, lines, repeat(",")))) == 1:
        out = np.empty((n, lines[0].count(",") + 1))
        try:
            for i in range(0, n, _FEATURE_BLOCK_LINES):
                block = out[i:i + _FEATURE_BLOCK_LINES]
                fields = ",".join(lines[i:i + _FEATURE_BLOCK_LINES]).split(",")
                block.flat = np.fromiter(map(float, fields), float, count=block.size)
        except ValueError:  # an empty or bad value
            pass
        else:
            return out
    return _feature_lines(path, lines, n)


def _feature_lines(path, lines, n):
    rows = []
    width = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad feature value in {raw!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{path}: line {lineno}: expected {width} values, got {len(row)}")
        rows.append(row)
    if len(rows) != n:
        raise DataError(f"{path}: expected {n} feature rows, found {len(rows)}")
    return np.asarray(rows, dtype=np.float64)


def _read_splits(path, n):
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("splits"), list):
        raise DataError(f"{path}: expected an object with a 'splits' list")
    if not payload["splits"]:
        raise DataError(f"{path}: the 'splits' list is empty")
    out = []
    for i, entry in enumerate(payload["splits"]):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: split {i} must be an object, got {type(entry).__name__}")
        missing = {"train", "val", "test"} - set(entry)
        if missing:
            raise DataError(f"{path}: split {i} missing keys {sorted(missing)}")
        for key in ("train", "val", "test"):
            if not isinstance(entry[key], list):
                raise DataError(f"{path}: split {i} {key!r}: expected a list of node indices, "
                                f"got {type(entry[key]).__name__}")
            for v in entry[key]:
                # JSON true/false load as bool, which is an int subclass
                if not isinstance(v, int) or isinstance(v, bool):
                    raise DataError(f"{path}: split {i} {key!r}: node index {v!r} "
                                    "is not an integer")
        out.append((entry["train"], entry["val"], entry["test"]))
    return SplitSet(out).validate(n)


def row_normalize_features(g: DirectedGraph) -> DirectedGraph:
    """Copy with L1 row-normalized features; all-zero rows stay zero."""
    norms = np.abs(g.features).sum(axis=1, keepdims=True)
    scaled = np.divide(g.features, norms, out=np.zeros_like(g.features), where=norms > 0)
    return DirectedGraph(g.adjacency, scaled, g.labels, g.n_classes)


def load_dataset(edge_path, feature_path, label_path, split_path):
    """Load the four-file dataset format into a graph plus its splits."""
    labels = _read_labels(label_path)
    n = len(labels)
    features = _read_features(feature_path, n)
    try:
        adjacency = parse_edge_list(Path(edge_path).read_text(), n=n)
    except ValueError as exc:
        raise DataError(f"{edge_path}: {exc}") from None
    splits = _read_splits(split_path, n)
    return DirectedGraph(adjacency, features, labels), splits


def save_dataset(out_dir, g: DirectedGraph, splits: SplitSet):
    """Write the canonical dataset files; loading them back is a fixed point."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "edges.tsv").write_text(format_edge_list(g.adjacency))
    feat_lines = [",".join(repr(float(v)) for v in row) for row in g.features]
    (out / "features.csv").write_text("\n".join(feat_lines) + "\n")
    (out / "labels.txt").write_text("\n".join(str(int(y)) for y in g.labels) + "\n")
    payload = {"splits": [{"train": s.train.tolist(), "val": s.val.tolist(),
                           "test": s.test.tolist()} for s in splits]}
    (out / "splits.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {name: out / name for name in ("edges.tsv", "features.csv", "labels.txt", "splits.json")}


# -- synthetic graphs -----------------------------------------------------------------


@dataclass(frozen=True)
class DirectionProfile:
    """Where the class signal lives and how starved the in-direction is.

    ``signal="both"`` is a plain directed SBM. ``signal="out"`` routes every
    edge into a per-class subset of receiver nodes, leaving the complementary
    ``no_in_fraction`` of nodes with zero in-edges: aggregation over reversed
    edges then sees nothing for those nodes, while forward aggregation stays
    informative for everyone.
    """

    signal: str = "both"
    no_in_fraction: float = 0.0

    def __post_init__(self):
        if self.signal not in ("both", "out"):
            raise ValueError(f"signal must be 'both' or 'out', got {self.signal!r}")
        if not 0.0 <= self.no_in_fraction < 1.0:
            raise ValueError("no_in_fraction must be in [0, 1)")


# random draws per chunk of generate_dsbm: 256 KB of float64, so each chunk's
# draws and probabilities stay in L2 and are small enough for malloc to reuse its
# free heap instead of mapping (and page-faulting) fresh pages on every call
_DSBM_CHUNK_CELLS = 1 << 15


def generate_dsbm(n, n_classes, p_in, p_out, profile=DirectionProfile(),
                  feature_noise=0.1, seed=0) -> DirectedGraph:
    """Directed stochastic block model with one-hot-plus-noise features.

    Class sizes are as equal as possible and exact. Edge (u, v) appears with
    probability ``p_in`` when labels match and ``p_out`` otherwise; the
    direction profile may then forbid in-edges for a fixed node subset.
    Fully deterministic under ``seed``. The edges are drawn in row chunks, so
    memory is O(n + edges) beyond a fixed chunk of draws.
    """
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError("edge probabilities must be in [0, 1]")
    if n < n_classes or n_classes < 1:
        raise ValueError("need n >= n_classes >= 1")
    rng = np.random.default_rng(seed)
    sizes = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    labels = np.repeat(np.arange(n_classes), sizes)

    starved = np.zeros(n, dtype=bool)
    if profile.signal == "out" and profile.no_in_fraction > 0:
        start = 0
        for size in sizes:
            k = int(np.floor(profile.no_in_fraction * size))
            starved[start:start + k] = True
            start += size

    # row chunks of at most _DSBM_CHUNK_CELLS draws; successive draws continue
    # one stream, so every chunking gives the same graph and the same features
    rows_per_chunk = max(1, _DSBM_CHUNK_CELLS // n)
    keys = []
    for r0 in range(0, n, rows_per_chunk):
        r1 = min(n, r0 + rows_per_chunk)
        prob = np.where(labels[r0:r1, None] == labels[None, :], p_in, p_out)
        prob[np.arange(r1 - r0), np.arange(r0, r1)] = 0.0
        hit = rng.random((r1 - r0, n)) < prob
        hit[:, starved] = False
        # flat indices of the mask are row-major keys, already sorted and unique
        keys.append(np.flatnonzero(hit) + np.int64(r0) * n)

    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    features = onehot + rng.normal(0.0, feature_noise, size=(n, n_classes))
    keys = np.concatenate(keys)
    adj = _from_sorted_keys(n, n, keys, np.ones(len(keys)))
    return DirectedGraph(adj, features, labels, n_classes)


def make_random_splits(g: DirectedGraph, n_splits=1, train_frac=0.5, val_frac=0.25,
                       seed=0) -> SplitSet:
    """Stratified random splits: every class appears in every train set."""
    if n_splits < 1:
        raise ValueError(f"n_splits must be at least 1, got {n_splits}")
    if not 0 < train_frac < 1 or not 0 <= val_frac < 1 or train_frac + val_frac >= 1:
        raise ValueError("fractions must satisfy 0 < train, 0 <= val, train + val < 1")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(n_splits):
        train, val, test = [], [], []
        for c in range(g.n_classes):
            idx = np.flatnonzero(g.labels == c)
            rng.shuffle(idx)
            n_tr = max(1, int(round(train_frac * len(idx))))
            n_va = int(round(val_frac * len(idx)))
            train.extend(idx[:n_tr])
            val.extend(idx[n_tr:n_tr + n_va])
            test.extend(idx[n_tr + n_va:])
        splits.append((train, val, test))
    return SplitSet(splits).validate(g.n)

