#!/usr/bin/env python3
"""Compare two scalegraph source trees on a fixed sweep of training runs.

    python3 scripts/parity.py OLD_SRC NEW_SRC --mode bits
    python3 scripts/parity.py OLD_SRC NEW_SRC --mode tolerance [--quick]

Each tree is imported in its own subprocess (BLAS on one thread), which runs
the same sweep and records every call of ``harness.train``: the
``TrainResult.to_dict()`` and a SHA-256 of the final parameters and
batchnorm running statistics. The sweep, in order:

* ``families``: every model family (scalenet with union and intersection
  blocks) x {plain, dropout 0.5, batchnorm} on a small dSBM, then scalenet
  with both sides of all three direction pairs and self-loops removed at both
  scales, x the same three variants;
* ``per-scale``: ``per_scale_report`` with shared-edge removal on that dSBM;
* ``grid``: ``grid_search`` over four configs and both splits of that dSBM, whose
  lone pair sides meet their partners through the search's one matrix plan;
* ``grid-desk``: every training run of perfbench's ``grid-desk`` workload;
* ``large-sparse``: perfbench's ``large-sparse`` workload at seed 1, its graph
  written by ``perfbench/workloads.py``'s ``write_large_graph``.

``--quick`` runs the first three sections only.

``--mode bits`` compares one digest per run (its result dict plus its state
hash) and lists every mismatch. ``--mode tolerance`` lists, per run, the
relative loss difference at epoch 1 and the largest one over all epochs, and
whether ``best_val_acc``, ``test_acc_at_best_val`` and ``epochs_run`` are
equal. It applies the rule of ROADMAP item 1: every epoch-1 loss agrees to
rtol 1e-12 and every ``grid-desk`` run keeps its accuracies and epoch count;
other runs whose accuracies or epoch counts move are listed as ``moved``.

Exit status: 0 when the trees agree under the mode, 1 when they do not, 2
when a tree fails to run the sweep. numpy and the stdlib only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EPOCH1_RTOL = 1e-12
STRICT_SECTION = "grid-desk"
ACCURACY_KEYS = ("best_val_acc", "test_acc_at_best_val", "epochs_run")


# -- the sweep, run inside one tree's subprocess -------------------------------------


def _state_digest(model):
    """SHA-256 of each parameter, then each batchnorm layer's running mean and variance.

    A layer holds its statistics as rows of one (2, width) array ``bn_stats``; trees
    from before that layout hold them in a ``bn_state`` object. Both hash the same arrays
    in the same order, so two trees of either layout can be compared."""
    digest = hashlib.sha256()
    arrays = [p.data for p in model.params()]
    for layer in model.layers:
        if getattr(layer, "bn_stats", None) is not None:
            arrays += list(layer.bn_stats)
        elif getattr(layer, "bn_state", None) is not None:
            arrays += [layer.bn_state.running_mean, layer.bn_state.running_var]
    for arr in arrays:
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _small_sweep(harness, models, graphdata):
    g = graphdata.generate_dsbm(60, 3, 0.15, 0.03, feature_noise=0.8, seed=5)
    splits = graphdata.make_random_splits(g, n_splits=2, seed=0)
    tc = harness.TrainConfig(max_epochs=40, es_patience=12, lr_patience=4)
    directions = {"scalenet": {"alpha": 0.5, "beta": 2.0, "gamma": 3.0, "comb1": "jk_max"}}
    variants = {"plain": {}, "dropout": {"dropout": 0.5}, "bn": {"use_bn": True}}
    yield "families"
    for i, family in enumerate(models.FAMILIES):
        for j, extra in enumerate(variants.values()):
            cfg = models.ModelConfig(family=family, layers=2, hidden=8, lr=0.05,
                                     selfloop_mode="add", **directions.get(family, {}), **extra)
            seed = 10 * i + j
            harness.train(models.build_model(cfg, g, seed=seed), g, splits.splits[0], tc,
                          seed=seed)
    # both sides of every pair, so every pair propagates through one blended matrix
    for j, extra in enumerate(variants.values()):
        cfg = models.ModelConfig(layers=2, hidden=8, lr=0.05, alpha=0.5, beta=0.5, gamma=0.5,
                                 selfloop_mode="remove", second_scale_selfloops="remove",
                                 **extra)
        seed = 10 * len(models.FAMILIES) + j
        harness.train(models.build_model(cfg, g, seed=seed), g, splits.splits[0], tc,
                      seed=seed)
    yield "per-scale"
    harness.per_scale_report(g, splits, train_cfg=tc, seeds=(0, 1), include_shared_removed=True)
    yield "grid"
    # one matrix plan serves the whole grid: the lone S_T of alpha = 0 and the lone S_A of
    # alpha = 1 meet as partners, and one_ym reuses the scalenet rows' words
    shape = {"layers": 2, "hidden": 8, "lr": 0.05}
    space = [models.ModelConfig(alpha=alpha, beta=2.0, gamma=3.0, **shape)
             for alpha in (0.0, 1.0)]
    space += [models.ModelConfig(family="one_ym", **shape),
              models.ModelConfig(family="one_igu2", selfloop_mode="remove",
                                 second_scale_selfloops="remove", **shape)]
    harness.grid_search(space, g, splits, train_cfg=tc, base_seed=3)


def _full_sweep(harness, models, graphdata):
    yield from _small_sweep(harness, models, graphdata)
    sys.path.insert(1, str(ROOT / "perfbench"))
    import workloads

    yield "grid-desk"
    desk = workloads.GridDesk()
    desk.run(desk.setup(desk.prepare(0, None)))
    yield "large-sparse"
    large = workloads.LargeSparse()
    with tempfile.TemporaryDirectory() as work_dir:
        large.run(large.setup(large.prepare(1, work_dir)))


def run_worker(src, out_path, quick):
    """Import scalegraph from ``src``, run the sweep and write the run records as JSON."""
    sys.path.insert(0, str(Path(src).resolve()))
    from scalegraph import graphdata, harness, models

    records = []
    section = None
    real_train = harness.train

    def recording_train(model, graph, split, train_cfg=None, seed=0):
        result = real_train(model, graph, split, train_cfg, seed)
        count = sum(r["section"] == section for r in records)
        records.append({"name": f"{section}/{count:03d}", "section": section,
                        "result": result.to_dict(), "state": _state_digest(model)})
        return result

    harness.train = recording_train
    # the sweep yields each section's name before it runs that section's training
    for section in (_small_sweep if quick else _full_sweep)(harness, models, graphdata):
        pass
    Path(out_path).write_text(json.dumps(records))


# -- comparison ----------------------------------------------------------------------


def collect(src, quick, work_dir, tag):
    """Start one worker subprocess for the tree ``src``; returns (process, output path)."""
    if not (Path(src) / "scalegraph" / "__init__.py").is_file():
        raise SystemExit(f"parity: no scalegraph package under {src}")
    out = Path(work_dir) / f"{tag}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--worker", str(src), str(out)]
    if quick:
        cmd.append("--quick")
    return subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE, text=True), out


def run_digest(record):
    text = json.dumps(record["result"], sort_keys=True) + record["state"]
    return hashlib.sha256(text.encode()).hexdigest()


def rel_diff(a, b):
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare_bits(old, new):
    bad = [o["name"] for o, n in zip(old, new) if run_digest(o) != run_digest(n)]
    for name in bad:
        print(f"mismatch {name}")
    print(f"bits: {len(old) - len(bad)} of {len(old)} runs identical")
    return not bad


def compare_tolerance(old, new):
    print("run\tepoch1_rel\tmax_rel\tbest_val\ttest_at_best\tepochs\tverdict")
    failed = moved = 0
    worst_first = worst_any = 0.0
    for o, n in zip(old, new):
        losses = [rel_diff(a[0], b[0]) for a, b in zip(o["result"]["history"],
                                                       n["result"]["history"])]
        first, most = losses[0], max(losses)
        same = [o["result"][k] == n["result"][k] for k in ACCURACY_KEYS]
        verdict = "ok"
        if first > EPOCH1_RTOL or (not all(same) and o["section"] == STRICT_SECTION):
            verdict = "FAIL"
            failed += 1
        elif not all(same):
            verdict = "moved"
            moved += 1
        worst_first, worst_any = max(worst_first, first), max(worst_any, most)
        flags = "\t".join("=" if s else "DIFF" for s in same)
        print(f"{o['name']}\t{first:.1e}\t{most:.1e}\t{flags}\t{verdict}")
    print(f"tolerance: {len(old)} runs, {failed} failed, {moved} moved; largest epoch-1 "
          f"relative loss difference {worst_first:.1e}, over all epochs {worst_any:.1e}")
    return failed == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", help="src directory of the reference tree")
    parser.add_argument("new_src", help="src directory of the tree under test")
    parser.add_argument("--mode", choices=("bits", "tolerance"), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="run only the small-dSBM sections of the sweep")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work_dir:
        jobs = [collect(src, args.quick, work_dir, tag)
                for tag, src in (("old", args.old_src), ("new", args.new_src))]
        runs = []
        for (proc, out), src in zip(jobs, (args.old_src, args.new_src)):
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"parity: the sweep failed under {src}:\n{err}", file=sys.stderr)
                return 2
            runs.append(json.loads(out.read_text()))
    old, new = runs
    if [r["name"] for r in old] != [r["name"] for r in new]:
        print(f"parity: the trees ran different sweeps ({len(old)} and {len(new)} runs)")
        return 1
    agree = compare_bits(old, new) if args.mode == "bits" else compare_tolerance(old, new)
    return 0 if agree else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_worker(sys.argv[2], sys.argv[3], quick="--quick" in sys.argv[4:])
    else:
        sys.exit(main())
