"""Opt-in span tracing of scalegraph, installed from outside the package.

A ``Tracer`` replaces each traced function at every module attribute its
callers look up (``scalegraph.scales.spgemm``, ``scalegraph.harness.backward``,
...) and the three ``Model`` methods on the class, and puts the originals back
on exit. Every wrapped call records one span: name, start, end and the span
that was open when it began. The backward closures of ``spmm`` and ``matmul``
results are wrapped too, so both directions of the two kernels are timed.
``make_node`` is only counted: it marks one autodiff op and would double the
span count if it were timed.

Spans stay in memory until ``write_spans``; ``metrics`` derives the per-layer
figures (calls, time, self time, counts) from them.
"""

import gzip
import hashlib
import json
import sys
import time
from array import array

import numpy as np

from scalegraph import autodiff, graphdata, harness, models, scales, sparse

# span name -> (defining module, function); each is wrapped at every binding
TRACED_FUNCTIONS = {
    "sparse.spgemm": (sparse, "spgemm"),
    "sparse.sym_normalize": (sparse, "sym_normalize"),
    "sparse.transpose": (sparse, "transpose"),
    "scales.model_matrix_family": (scales, "model_matrix_family"),
    "scales.build_scaled_adjacency": (scales, "build_scaled_adjacency"),
    "autodiff.spmm": (autodiff, "spmm"),
    "autodiff.matmul": (autodiff, "matmul"),
    "autodiff.backward": (autodiff, "backward"),
    "autodiff.adam_step": (autodiff, "adam_step"),
    "harness.softmax_cross_entropy": (autodiff, "softmax_cross_entropy"),
    "models.build_model": (models, "build_model"),
    "models.build_matrix_channel_model": (models, "build_matrix_channel_model"),
    "harness.train": (harness, "train"),
    "harness.per_scale_report": (harness, "per_scale_report"),
    "harness.grid_search": (harness, "grid_search"),
    "graphdata.load_dataset": (graphdata, "load_dataset"),
    "graphdata.generate_dsbm": (graphdata, "generate_dsbm"),
    "graphdata.make_random_splits": (graphdata, "make_random_splits"),
}
MODULES = ("sparse", "scales", "autodiff", "models", "harness", "graphdata")

# (metric, unit, better) for every per-layer figure a traced run reports
PER_LAYER_METRICS = [
    ("sparse.spgemm.calls", "count", "lower"),
    ("sparse.spgemm.s", "s", "lower"),
    ("sparse.spgemm.out_nnz", "count", "lower"),
    ("sparse.spgemm.unique_ratio", "ratio", "higher"),
    ("sparse.sym_normalize.calls", "count", "lower"),
    ("sparse.sym_normalize.s", "s", "lower"),
    ("sparse.transpose.calls", "count", "lower"),
    ("sparse.transpose.s", "s", "lower"),
    ("scales.model_matrix_family.calls", "count", "lower"),
    ("scales.model_matrix_family.s", "s", "lower"),
    ("scales.build_scaled_adjacency.calls", "count", "lower"),
    ("scales.build_scaled_adjacency.s", "s", "lower"),
    ("autodiff.spmm.calls", "count", "lower"),
    ("autodiff.spmm.s", "s", "lower"),
    ("autodiff.spmm.nnz_x_cols", "count", "lower"),
    ("autodiff.matmul.calls", "count", "lower"),
    ("autodiff.matmul.s", "s", "lower"),
    ("autodiff.ops", "count", "lower"),
    ("autodiff.op_overhead_us", "us", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.adam_step.calls", "count", "lower"),
    ("autodiff.adam_step.s", "s", "lower"),
    ("models.build_model.calls", "count", "lower"),
    ("models.build_model.s", "s", "lower"),
    ("models.forward_train.calls", "count", "lower"),
    ("models.forward_train.s", "s", "lower"),
    ("models.forward_eval.calls", "count", "lower"),
    ("models.forward_eval.s", "s", "lower"),
    ("models.snapshot.calls", "count", "lower"),
    ("models.snapshot.s", "s", "lower"),
    ("models.restore.s", "s", "lower"),
    ("harness.train.calls", "count", "lower"),
    ("harness.train.self_s", "s", "lower"),
    ("harness.train.s_p50", "s", "lower"),
    ("harness.train.s_p90", "s", "lower"),
    ("harness.epochs", "count", "lower"),
    ("harness.softmax_cross_entropy.s", "s", "lower"),
    ("graphdata.load_dataset.s", "s", "lower"),
    ("graphdata.generate_dsbm.s", "s", "lower"),
    ("graphdata.make_random_splits.s", "s", "lower"),
] + [(f"{module}.self_s", "s", "lower") for module in MODULES] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _digest(s):
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(s.shape, dtype=np.int64).tobytes())
    for arr in (s.row_offsets, s.col_indices, s.values):
        h.update(arr.tobytes())
    return h.digest()


class Tracer:
    """Context manager that traces scalegraph calls while it is open."""

    def __init__(self):
        self.name_ids = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.ops = 0
        self.spgemm_pairs = set()
        self.spgemm_out_nnz = 0
        self.spmm_nnz_x_cols = 0
        self._undo = []

    # -- span recording ------------------------------------------------------

    def _begin(self, name):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1])
        self.span_end.append(0.0)
        self._open.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _end(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._open.pop()

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return wrapper

    def _wrap_backward(self, name, out, on_call=None):
        fn = out._backward
        if fn is None:
            return

        def traced_backward(g):
            if on_call is not None:
                on_call(g)
            idx = self._begin(name)
            try:
                fn(g)
            finally:
                self._end(idx)
        out._backward = traced_backward

    # -- per-function hooks ----------------------------------------------------

    def _after_spgemm(self, out, a, b, *_args, **_kwargs):
        self.spgemm_pairs.add((_digest(a), _digest(b)))
        self.spgemm_out_nnz += out.nnz

    def _after_spmm(self, out, s, x):
        self.spmm_nnz_x_cols += s.nnz * x.data.shape[1]

        def count_backward(g):
            self.spmm_nnz_x_cols += s.nnz * g.shape[1]
        self._wrap_backward("autodiff.spmm.backward", out, count_backward)

    def _after_matmul(self, out, *_args):
        self._wrap_backward("autodiff.matmul.backward", out)

    def _make_forward(self, fn):
        def forward(model, features, training=False, rng=None):
            name = "models.forward_train" if training else "models.forward_eval"
            idx = self._begin(name)
            try:
                return fn(model, features, training, rng)
            finally:
                self._end(idx)
        return forward

    def _make_counter(self, fn):
        def make_node(*args, **kwargs):
            self.ops += 1
            return fn(*args, **kwargs)
        return make_node

    # -- install / remove ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "scalegraph" or name.startswith("scalegraph.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def __enter__(self):
        hooks = {"sparse.spgemm": self._after_spgemm, "autodiff.spmm": self._after_spmm,
                 "autodiff.matmul": self._after_matmul}
        for name, (module, attr) in TRACED_FUNCTIONS.items():
            original = getattr(module, attr)
            self._patch_everywhere(original, self._timed(name, original, hooks.get(name)))
        self._patch_everywhere(autodiff.make_node, self._make_counter(autodiff.make_node))
        model_cls = models.Model
        self._patch(model_cls, "forward", self._make_forward(model_cls.forward))
        self._patch(model_cls, "snapshot", self._timed("models.snapshot", model_cls.snapshot))
        self._patch(model_cls, "restore", self._timed("models.restore", model_cls.restore))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    # -- derived figures -------------------------------------------------------

    def span_table(self):
        """Per-span name, duration and self time (duration minus child spans)."""
        names = np.array(self.span_name, dtype=np.int64)
        start = np.array(self.span_start, dtype=np.float64)
        end = np.array(self.span_end, dtype=np.float64)
        parents = np.array(self.span_parent, dtype=np.int64)
        duration = end - start
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return names, duration, duration - child

    def metrics(self, untraced_wall_s, traced_wall_s, epochs):
        """Per-layer figures; ``epochs`` is the count of epochs the traced
        phase trained, which the spans do not hold."""
        names, duration, self_time = self.span_table()
        id_of = self.name_ids

        def select(name):
            return names == id_of[name] if name in id_of else np.zeros(len(names), dtype=bool)

        def calls(name):
            return int(select(name).sum())

        def total(name):
            return float(duration[select(name)].sum())

        out = {}
        for name in ("sparse.spgemm", "sparse.sym_normalize", "sparse.transpose",
                     "scales.model_matrix_family", "scales.build_scaled_adjacency",
                     "autodiff.matmul", "autodiff.backward", "autodiff.adam_step",
                     "models.build_model", "models.forward_train", "models.forward_eval",
                     "models.snapshot"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = total(name)
        spgemm_calls = out["sparse.spgemm.calls"]
        out["sparse.spgemm.out_nnz"] = self.spgemm_out_nnz
        out["sparse.spgemm.unique_ratio"] = (len(self.spgemm_pairs) / spgemm_calls
                                             if spgemm_calls else 0.0)
        out["autodiff.spmm.calls"] = calls("autodiff.spmm")
        out["autodiff.spmm.s"] = total("autodiff.spmm") + total("autodiff.spmm.backward")
        out["autodiff.spmm.nnz_x_cols"] = self.spmm_nnz_x_cols
        out["autodiff.matmul.s"] += total("autodiff.matmul.backward")
        out["autodiff.ops"] = self.ops
        op_time = (out["models.forward_train.s"] + out["models.forward_eval.s"]
                   + total("harness.softmax_cross_entropy") + out["autodiff.backward.s"]
                   - out["autodiff.spmm.s"] - out["autodiff.matmul.s"])
        out["autodiff.op_overhead_us"] = 1e6 * op_time / self.ops if self.ops else 0.0
        out["models.restore.s"] = total("models.restore")
        train = duration[select("harness.train")]
        out["harness.train.calls"] = len(train)
        out["harness.train.self_s"] = float(self_time[select("harness.train")].sum())
        out["harness.train.s_p50"] = float(np.percentile(train, 50)) if len(train) else 0.0
        out["harness.train.s_p90"] = float(np.percentile(train, 90)) if len(train) else 0.0
        out["harness.epochs"] = epochs
        out["harness.softmax_cross_entropy.s"] = total("harness.softmax_cross_entropy")
        for name in ("graphdata.load_dataset", "graphdata.generate_dsbm",
                     "graphdata.make_random_splits"):
            out[f"{name}.s"] = total(name)
        for module in MODULES:
            ids = [i for name, i in id_of.items() if name.split(".", 1)[0] == module]
            out[f"{module}.self_s"] = float(self_time[np.isin(names, ids)].sum())
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
        return out

    def write_spans(self, path):
        """One JSON object per span, gzip-compressed; ids index the file's lines."""
        by_id = {i: name for name, i in self.name_ids.items()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for idx in range(len(self.span_start)):
                fh.write(json.dumps({"id": idx, "name": by_id[self.span_name[idx]],
                                     "start": self.span_start[idx], "end": self.span_end[idx],
                                     "parent": self.span_parent[idx]}) + "\n")
