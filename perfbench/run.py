#!/usr/bin/env python3
"""Benchmark of scalegraph: one workload per call, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-desk --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``grid-desk`` (criterion 08 on two splits:
per-scale table plus a ten-config grid search on one graph) and
``large-sparse`` (two epochs of scalenet training on a 10k-node graph read
from files).
Everything runs in this one process, single-threaded: BLAS is held to one
thread and the harness runs with ``threads=1``.

``--trace 0`` measures the end-to-end metrics untraced. The workload's
set-up (several times) and timed phase repeat until ``--seconds`` is used up
(at least once). ``setup_s`` is the median of all set-ups. ``wall_s`` and
``epochs_per_s`` are those of the fastest repetition: other tenants of a
shared machine only ever add time, so the least disturbed repetition is the
steadiest estimate of the program's own cost. Every repetition's figures
are in the info line. ``--trace 1`` runs set-up
and timed phase once untraced and once under ``tracing.Tracer`` and reports
the per-layer metrics of the traced run; its spans go to
``perfbench/out/<workload>.spans.jsonl.gz``.

Every training run's history must be finite and each timed phase must pass
its workload's correctness check; a failed check counts every training run
of that phase as failed. The line before the result holds the environment,
the inputs in numbers and each repetition's figures.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# (metric, unit, better) reported by an untraced run
END_TO_END_METRICS = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("epochs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("mean_test_acc", "fraction", "higher"),
]


def use_checkout_src():
    """Import scalegraph from this checkout's ``src``; exit if it is missing."""
    if not (SRC_DIR / "scalegraph" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scalegraph package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))


def environment():
    """Machine and library versions, recorded with every result."""
    import numpy as np

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": cpu_model or platform.machine(), "caches": caches,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def timed_phase(workload, inputs):
    """Run the timed phase once and check it; returns its figures.

    ``harness.train`` is wrapped by a pass-through that keeps each result, so
    epochs and accuracies are counted without timing anything inside.
    """
    from scalegraph import harness

    results = []
    train = harness.train

    def recording_train(*args, **kwargs):
        result = train(*args, **kwargs)
        results.append(result)
        return result

    harness.train = recording_train
    error = ""
    summary = {}
    start = time.perf_counter()
    try:
        summary = workload.run(inputs)
    except Exception as exc:  # a failed phase is reported, not raised
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - start
        harness.train = train
    expected = workload.expected_runs()
    if error or not workload.check(summary, results):
        failed = expected
    else:  # a run with a non-finite loss or accuracy, or one never made, failed
        finite = sum(all(math.isfinite(v) for entry in r.history for v in entry)
                     for r in results)
        failed = max(expected - finite, 0)
    return {"wall_s": wall, "attempted": expected, "failed": failed,
            "epochs": sum(r.epochs_run for r in results),
            "test_accs": [r.test_acc_at_best_val for r in results],
            "summary": summary, "error": error}


def measure(workload, prepared, seconds):
    """Untraced run: repeat set-up plus timed phase until ``seconds`` is used."""
    setup_times, phases, rep_times = [], [], []
    begin = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for _ in range(workload.setup_repeats):
            inputs = None  # free the previous inputs before building new ones
            start = time.perf_counter()
            inputs = workload.setup(prepared)
            setup_times.append(time.perf_counter() - start)
        phases.append(timed_phase(workload, inputs))
        del inputs
        rep_times.append(time.perf_counter() - rep_start)
        if time.perf_counter() - begin + statistics.median(rep_times) > seconds:
            break
    accs = [a for p in phases for a in p["test_accs"]]
    metrics = {
        "wall_s": min(p["wall_s"] for p in phases),
        "setup_s": statistics.median(setup_times),
        "epochs_per_s": max(p["epochs"] / p["wall_s"] for p in phases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_test_acc": sum(accs) / len(accs) if accs else 0.0,
    }
    return metrics, phases, {"setup_s_samples": setup_times}


def measure_traced(workload, prepared, spans_path):
    """One untraced and one traced set-up plus timed phase; per-layer metrics."""
    from tracing import Tracer

    inputs = workload.setup(prepared)
    plain = timed_phase(workload, inputs)
    del inputs
    with Tracer() as tracer:
        inputs = workload.setup(prepared)
        traced = timed_phase(workload, inputs)
        del inputs
    # the trace must not change results: same accuracies, same epoch counts
    if (traced["test_accs"], traced["epochs"]) != (plain["test_accs"], plain["epochs"]):
        traced["failed"] = traced["attempted"]
        traced["error"] = traced["error"] or "traced results differ from untraced results"
    tracer.write_spans(spans_path)
    metrics = tracer.metrics(plain["wall_s"], traced["wall_s"], traced["epochs"])
    return metrics, [plain, traced], {"span_count": len(tracer.span_start)}


def result_line(metrics, units, phases):
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    use_checkout_src()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="scalegraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    prepared = workload.prepare(args.seed, OUT_DIR)
    description = workload.describe(prepared)
    if args.trace:
        from tracing import PER_LAYER_METRICS

        spans_path = OUT_DIR / f"{workload.name}.spans.jsonl.gz"
        metrics, phases, extra = measure_traced(workload, prepared, spans_path)
        extra["spans"] = str(spans_path.relative_to(BENCH_DIR.parent))
        units = [(name, unit) for name, unit, _ in PER_LAYER_METRICS]
    else:
        metrics, phases, extra = measure(workload, prepared, args.seconds)
        units = [(name, unit) for name, unit, _ in END_TO_END_METRICS]
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(), "inputs": description,
            "phases": [{k: v for k, v in p.items() if k != "test_accs"} for p in phases],
            **extra}
    print(json.dumps({"info": info}))
    print(json.dumps(result_line(metrics, units, phases)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
