import json
import shutil
from pathlib import Path

import pytest

from scalegraph.cli import main

DATA = Path(__file__).parent / "data"
HAND7 = DATA / "hand7"

FAST_TRAIN = ["--max-epochs", "25", "--es-patience", "10", "--lr-patience", "5",
              "--hidden", "8", "--lr", "0.05"]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def dataset_args(path):
    return ["--data-dir", str(path)]


def synth_tiny(tmp_path, capsys, seed="7", **extra):
    out = tmp_path / f"ds{seed}"
    rc, stdout, _ = run(capsys, "synth", "--n", "40", "--classes", "3",
                        "--p-in", "0.3", "--p-out", "0.02", "--seed", seed,
                        "--out-dir", str(out), *sum(([k, v] for k, v in extra.items()), []))
    assert rc == 0
    return out, stdout


# -- synth ----------------------------------------------------------------------


def test_synth_is_deterministic(tmp_path, capsys):
    a, out_a = synth_tiny(tmp_path, capsys, seed="7")
    b = tmp_path / "again"
    rc, out_b, _ = run(capsys, "synth", "--n", "40", "--classes", "3",
                       "--p-in", "0.3", "--p-out", "0.02", "--seed", "7",
                       "--out-dir", str(b))
    assert rc == 0 and out_a == out_b
    for name in ("edges.tsv", "features.csv", "labels.txt", "splits.json", "synth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_stdout_is_json(tmp_path, capsys):
    _, stdout = synth_tiny(tmp_path, capsys)
    payload = json.loads(stdout)
    assert payload["n"] == 40 and payload["classes"] == 3


# -- stats ----------------------------------------------------------------------


def test_stats_matches_hand_computation(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "stats", *dataset_args(HAND7), "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["imbalance_ratio"] == 2.0
    assert payload["in_table"] == {"homo": 2, "hetero": 4, "no_neighbor": 1}
    assert payload["out_table"] == {"homo": 2, "hetero": 4, "no_neighbor": 1}
    assert payload["pct_no_in"] == pytest.approx(100 / 7)
    assert json.loads((tmp_path / "stats.json").read_text()) == payload


# -- scale ----------------------------------------------------------------------


EXPECTED_M2_DUMP = """%%MatrixMarket matrix coordinate real general
6 6 9
1 1 1.0
1 3 1.0
3 1 1.0
3 3 1.0
4 4 1.0
4 5 1.0
5 4 1.0
5 5 1.0
6 6 1.0
"""


def test_scale_word_at_dumps_meeting_matrix(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "scale", "--edges", str(DATA / "tree6_edges.tsv"),
                        "--word", "AT", "--out", "m2.mtx", "--out-dir", str(tmp_path))
    assert rc == 0
    assert stdout == EXPECTED_M2_DUMP
    assert (tmp_path / "m2.mtx").read_text() == EXPECTED_M2_DUMP


def test_scale_selfloop_removal(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "scale", "--edges", str(DATA / "tree6_edges.tsv"),
                        "--word", "AT", "--selfloops", "remove",
                        "--out-dir", str(tmp_path))
    assert rc == 0
    assert "6 6 4" in stdout.splitlines()[1]


def test_scale_data_dir_sizes_the_matrix_by_the_node_count(tmp_path, capsys):
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "edges.tsv").write_text("0\t1\n1\t2\n")  # node 3 has no edge
    (ds / "features.csv").write_text("1.0\n0.0\n1.0\n0.0\n")
    (ds / "labels.txt").write_text("0\n1\n0\n1\n")
    (ds / "splits.json").write_text(json.dumps({"splits": [{"train": [0, 1], "val": [2],
                                                              "test": [3]}]}))
    rc, stdout, _ = run(capsys, "scale", *dataset_args(ds), "--word", "A",
                        "--out-dir", str(tmp_path / "out"))
    assert rc == 0 and stdout.splitlines()[1] == "4 4 2"
    # an edge file alone still takes its size from the largest endpoint
    rc, stdout, _ = run(capsys, "scale", "--edges", str(ds / "edges.tsv"), "--word", "A",
                        "--out-dir", str(tmp_path / "out"))
    assert rc == 0 and stdout.splitlines()[1] == "3 3 2"


# -- train ------------------------------------------------------------------------


def test_train_writes_result(tmp_path, capsys):
    ds, _ = synth_tiny(tmp_path, capsys)
    out = tmp_path / "run"
    rc, stdout, _ = run(capsys, "train", *dataset_args(ds), "--alpha", "0.5",
                        "--layers", "1", *FAST_TRAIN, "--seed", "3",
                        "--out-dir", str(out))
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["config"]["alpha"] == 0.5
    assert 0.0 <= payload["result"]["best_val_acc"] <= 1.0
    assert payload["result"]["epochs_run"] <= 25
    assert json.loads((out / "result.json").read_text()) == payload


def test_train_config_file_precedence(tmp_path, capsys):
    ds, _ = synth_tiny(tmp_path, capsys)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 1.0, "hidden": 4, "lr": 0.2}))
    out = tmp_path / "run2"
    rc, stdout, _ = run(capsys, "train", *dataset_args(ds), "--config", str(cfg_file),
                        "--lr", "0.05", "--max-epochs", "10", "--out-dir", str(out))
    assert rc == 0
    payload = json.loads(stdout)
    assert payload["config"]["alpha"] == 1.0      # from config file
    assert payload["config"]["hidden"] == 4       # from config file
    assert payload["config"]["lr"] == 0.05        # flag wins


# -- report-scales / gridsearch ------------------------------------------------------


def test_report_scales_tsv(tmp_path, capsys):
    ds, _ = synth_tiny(tmp_path, capsys)
    out = tmp_path / "report"
    rc, stdout, _ = run(capsys, "report-scales", *dataset_args(ds),
                        "--columns", "A,none", *FAST_TRAIN,
                        "--out-dir", str(out))
    assert rc == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("column\t") and len(lines) == 3
    assert (out / "scale_report.tsv").read_text() == stdout


def test_gridsearch_space_file(tmp_path, capsys):
    ds, _ = synth_tiny(tmp_path, capsys)
    space = [{"alpha": 0.5, "layers": 1, "hidden": 8, "lr": 0.05},
             {"alpha": 1.0, "layers": 1, "hidden": 8, "lr": 0.05}]
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(space))
    out = tmp_path / "grid"
    rc, stdout, _ = run(capsys, "gridsearch", *dataset_args(ds),
                        "--space-file", str(space_file), *FAST_TRAIN,
                        "--out-dir", str(out))
    assert rc == 0
    assert len(stdout.strip().splitlines()) == 3
    results = json.loads((out / "results.json").read_text())
    assert len(results) == 2
    assert results[0]["mean_val_acc"] >= results[1]["mean_val_acc"]


# -- compare ---------------------------------------------------------------------------


def test_compare_known_case(tmp_path, capsys):
    rc, stdout, _ = run(capsys, "compare", "--xs", "1,2,3,4,5,6",
                        "--ys", "0.5,1,2,3,4,5", "--out-dir", str(tmp_path))
    assert rc == 0
    payload = json.loads(stdout)
    assert payload == {"statistic": 0.0, "p_value": 0.03125, "n_pairs": 6,
                       "method": "exact"}


def test_compare_reads_json_files(tmp_path, capsys):
    xs = tmp_path / "xs.json"
    ys = tmp_path / "ys.json"
    xs.write_text(json.dumps([1, 2, 3, 4, 5, 6.5]))
    ys.write_text(json.dumps([0, 1, 2, 3, 4, 5]))
    rc, stdout, _ = run(capsys, "compare", "--xs", str(xs), "--ys", str(ys),
                        "--out-dir", str(tmp_path))
    assert rc == 0
    assert json.loads(stdout)["n_pairs"] == 6


def test_compare_degenerate_is_data_error(tmp_path, capsys):
    rc, _, err = run(capsys, "compare", "--xs", "1,2,3,4,5",
                     "--ys", "1,2,3,4,5", "--out-dir", str(tmp_path))
    assert rc == 2 and "data error" in err


@pytest.mark.parametrize("value", [None, True, "1.5"])
def test_compare_json_series_of_non_numbers_is_data_error(tmp_path, capsys, value):
    xs = tmp_path / "xs.json"
    xs.write_text(json.dumps([1, 2, 3, 4, value, 6]))
    rc, _, err = run(capsys, "compare", "--xs", str(xs), "--ys", "0,0,0,0,0,0",
                     "--out-dir", str(tmp_path))
    assert rc == 2 and "data error" in err and "array of numbers" in err, err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_compare_non_finite_series_is_data_error(tmp_path, capsys, value):
    rc, stdout, err = run(capsys, "compare", "--xs", f"1,2,3,4,{value},6",
                          "--ys", "0,0,0,0,0,0", "--out-dir", str(tmp_path))
    assert rc == 2 and "data error" in err and "finite" in err, err
    assert stdout == ""


# -- manifest / rerun ------------------------------------------------------------------


def outputs_of(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())
            if p.name != "manifest.json" and p.is_file()}


def test_rerun_reproduces_synth_bytes(tmp_path, capsys):
    first, _ = synth_tiny(tmp_path, capsys, seed="11")
    replay = tmp_path / "replay"
    rc, _, _ = run(capsys, "rerun", "--manifest", str(first / "manifest.json"),
                   "--out-dir", str(replay))
    assert rc == 0
    assert outputs_of(first) == outputs_of(replay)


def test_rerun_reproduces_train_bytes(tmp_path, capsys):
    ds, _ = synth_tiny(tmp_path, capsys)
    out1 = tmp_path / "t1"
    rc, _, _ = run(capsys, "train", *dataset_args(ds), "--alpha", "0.5",
                   "--layers", "1", *FAST_TRAIN, "--seed", "5", "--out-dir", str(out1))
    assert rc == 0
    out2 = tmp_path / "t2"
    rc, _, _ = run(capsys, "rerun", "--manifest", str(out1 / "manifest.json"),
                   "--out-dir", str(out2))
    assert rc == 0
    assert outputs_of(out1) == outputs_of(out2)


def test_manifest_written_before_compute(tmp_path, capsys):
    out = tmp_path / "fail"
    rc, _, _ = run(capsys, "stats", "--data-dir", str(tmp_path / "nothing"),
                   "--out-dir", str(out))
    assert rc == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "stats"


# -- exit codes --------------------------------------------------------------------------


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, "synth", "--bogus", "1", "--out-dir", str(tmp_path))
    assert rc == 1 and "usage error" in err
    # the harness runs serially; the old parallelism flag is not accepted
    for command in ("gridsearch", "report-scales"):
        rc, _, err = run(capsys, command, "--data-dir", str(HAND7), "--threads", "2",
                         "--out-dir", str(tmp_path / command))
        assert rc == 1 and "usage error" in err


def test_missing_file_is_data_error(tmp_path, capsys):
    rc, _, err = run(capsys, "stats", "--data-dir", str(tmp_path / "nope"),
                     "--out-dir", str(tmp_path))
    assert rc == 2 and "data error" in err


def test_malformed_splits_are_data_errors(tmp_path, capsys):
    good = {"train": [0, 2, 4, 6], "val": [1, 5], "test": [3]}
    cases = [({"splits": [5]}, "split 0 must be an object"),
             ({"splits": [dict(good, train=[0.7])]}, "split 0 'train'"),
             ({"splits": [good, dict(good, val=["x"])]}, "split 1 'val'"),
             ({"splits": good}, "'splits' list"),
             ({"splits": []}, "'splits' list is empty")]
    ds = tmp_path / "ds"
    shutil.copytree(HAND7, ds)
    for payload, where in cases:
        (ds / "splits.json").write_text(json.dumps(payload))
        rc, _, err = run(capsys, "stats", *dataset_args(ds), "--out-dir", str(tmp_path / "out"))
        assert rc == 2 and "data error" in err and where in err, err


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    ds, _ = synth_tiny(tmp_path, capsys)
    rc, _, err = run(capsys, "train", *dataset_args(ds), "--alpha", "0.7",
                     "--out-dir", str(tmp_path / "x"))
    assert rc == 1 and "usage error" in err
    # comb1 fuses scalenet's direction blocks; other families have a fixed fusion
    rc, _, err = run(capsys, "train", *dataset_args(ds), "--family", "one_ig",
                     "--comb1", "jk_max", "--out-dir", str(tmp_path / "y"))
    assert rc == 1 and "usage error" in err and "comb1" in err


@pytest.mark.parametrize("payload, named", [
    ({"alpah": 0.5}, "'alpah'"),
    ([1, 2], "JSON object"),
    ({"layers": "2"}, "'layers'"),
    ({"layers": 2.0}, "'layers'"),
    ({"use_bn": 1}, "'use_bn'"),
    ({"alpha": True}, "'alpha'"),
])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, payload, named):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(payload))
    rc, _, err = run(capsys, "train", *dataset_args(HAND7), "--config", str(cfg_file),
                     "--out-dir", str(tmp_path / "out"))
    assert rc == 1 and "usage error" in err and named in err, err


@pytest.mark.parametrize("max_configs", ["0", "-1"])
def test_gridsearch_max_configs_below_one_is_usage_error(tmp_path, capsys, max_configs):
    rc, _, err = run(capsys, "gridsearch", *dataset_args(HAND7), "--max-configs", max_configs,
                     "--out-dir", str(tmp_path / "out"))
    assert rc == 1 and "usage error" in err and "--max-configs" in err, err
    assert not (tmp_path / "out").exists()


def test_malformed_space_file_is_usage_error(tmp_path, capsys):
    space_file = tmp_path / "space.json"
    for payload, named in (([{"alpha": 0.5, "hiden": 8}], "'hiden'"),
                           ({"alpha": 0.5}, "JSON array")):
        space_file.write_text(json.dumps(payload))
        rc, _, err = run(capsys, "gridsearch", *dataset_args(HAND7), "--space-file",
                         str(space_file), "--out-dir", str(tmp_path / "out"))
        assert rc == 1 and "usage error" in err and named in err, err


@pytest.mark.parametrize("manifest", [{}, [], {"argv": "train"}, {"argv": [1]}])
def test_manifest_without_argv_list_is_data_error(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc, _, err = run(capsys, "rerun", "--manifest", str(path))
    assert rc == 2 and "data error" in err and "argv" in err, err
