"""Tests of the benchmark itself, on reduced sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_checkout_src()

import tracing  # noqa: E402
import workloads  # noqa: E402
from scalegraph import harness, models, sparse  # noqa: E402

TINY_TRAIN = harness.TrainConfig(max_epochs=8, es_patience=3, lr_patience=2)
SMALL = {
    "grid-desk": workloads.GridDesk(n=60, n_splits=2, train_cfg=TINY_TRAIN),
    "large-sparse": workloads.LargeSparse(n=500, degree=5, epochs=2),
}


def _check_metrics(result, expected):
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _, _ in expected}
    for name, unit, _ in expected:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_smoke_run_emits_every_end_to_end_metric(name, tmp_path):
    workload = SMALL[name]
    prepared = workload.prepare(3, tmp_path)
    assert json.dumps(workload.describe(prepared))
    metrics, phases, _ = run.measure(workload, prepared, seconds=0)
    result = run.result_line(metrics, [(n, u) for n, u, _ in run.END_TO_END_METRICS], phases)
    _check_metrics(result, run.END_TO_END_METRICS)
    assert all(result["metrics"][n]["value"] > 0 for n, _, _ in run.END_TO_END_METRICS)
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_smoke_run_emits_every_per_layer_metric(name, tmp_path):
    workload = SMALL[name]
    spans_path = tmp_path / "spans.jsonl.gz"
    metrics, phases, extra = run.measure_traced(workload, workload.prepare(3, tmp_path),
                                                spans_path)
    result = run.result_line(metrics, [(n, u) for n, u, _ in tracing.PER_LAYER_METRICS],
                             phases)
    _check_metrics(result, tracing.PER_LAYER_METRICS)
    assert metrics["harness.train.calls"] == workload.expected_runs()
    assert metrics["harness.epochs"] == phases[1]["epochs"] == phases[0]["epochs"]
    assert metrics["sparse.spgemm.calls"] > 0 and metrics["autodiff.ops"] > 0
    with gzip.open(spans_path, "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == extra["span_count"] > 0
    assert {"id", "name", "start", "end", "parent"} == set(spans[0])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_trace_leaves_accuracy_and_epochs_unchanged(name, tmp_path):
    workload = SMALL[name]
    prepared = workload.prepare(5, tmp_path)
    plain = run.timed_phase(workload, workload.setup(prepared))
    originals = (harness.train, models.Model.forward, sparse.transpose)
    with tracing.Tracer():
        traced = run.timed_phase(workload, workload.setup(prepared))
    assert (harness.train, models.Model.forward, sparse.transpose) == originals
    assert traced["test_accs"] == plain["test_accs"]
    assert traced["epochs"] == plain["epochs"] > 0
    assert traced["summary"] == plain["summary"]


def test_self_times_partition_the_root_spans(tmp_path):
    workload = SMALL["grid-desk"]
    with tracing.Tracer() as tracer:
        run.timed_phase(workload, workload.setup(workload.prepare(1, tmp_path)))
    _, duration, self_time = tracer.span_table()
    roots = tracer.span_parent.tolist()
    root_total = sum(d for d, p in zip(duration, roots) if p < 0)
    assert self_time.min() >= 0
    assert self_time.sum() == pytest.approx(root_total, rel=1e-9)


def test_model_words_are_counted_once_per_distinct_operand_pair(tmp_path):
    workload = SMALL["grid-desk"]
    with tracing.Tracer() as tracer:
        run.timed_phase(workload, workload.setup(workload.prepare(1, tmp_path)))
    metrics = tracer.metrics(1.0, 1.0, 0)
    # every family build multiplies the same four (A|T, A|T) pairs of one graph
    assert metrics["sparse.spgemm.calls"] == 4 * metrics["scales.model_matrix_family.calls"]
    assert metrics["sparse.spgemm.unique_ratio"] == 4 / metrics["sparse.spgemm.calls"]


def test_large_graph_is_deterministic_under_its_seed(tmp_path):
    first, keys = workloads.write_large_graph(tmp_path / "a", 7, n=1000, degree=6)
    again, _ = workloads.write_large_graph(tmp_path / "b", 7, n=1000, degree=6)
    other, _ = workloads.write_large_graph(tmp_path / "c", 8, n=1000, degree=6)
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert first[0].read_bytes() != other[0].read_bytes()
    assert len(set(keys.tolist())) == len(keys) and not (keys // 1000 == keys % 1000).any()
    assert len(first[0].read_text().splitlines()) == len(keys)


def test_benchmark_file_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END_METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER_METRICS]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
