"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import time
from pathlib import Path

import numpy as np

from scalegraph.autodiff import finite_diff_check, softmax_cross_entropy
from scalegraph.cli import main as cli_main
from scalegraph.graphdata import DirectionProfile, generate_dsbm, make_random_splits
from scalegraph.harness import (
    TrainConfig,
    grid_search,
    per_scale_report,
    wilcoxon_signed_rank,
)
from scalegraph.models import ModelConfig, agg_b, build_model, direction_coefficients
from scalegraph.scales import build_scaled_adjacency, meeting_matrix
from scalegraph.sparse import (
    SparseMatrix,
    add_self_loops,
    degrees,
    pattern_intersection,
    pattern_union,
    spgemm,
    sym_normalize,
    transpose,
)

from conftest import TREE6_EDGES, random_digraph
from test_harness import brute_force_reference


def _report(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {tag} {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def support(s):
    return set(zip(*np.nonzero(s.to_dense())))


DESK_TRAIN = TrainConfig(max_epochs=120, es_patience=30, lr_patience=12)


# -- 1. worked-example fixture, bit exact ------------------------------------------


def test_criterion_01_worked_example_fixture():
    start = time.perf_counter()
    src, dst = zip(*TREE6_EDGES)
    a = SparseMatrix.from_edges(6, src, dst)
    ok = support(a) == {(0, 1), (2, 1), (3, 2), (4, 2), (5, 0)}
    ok &= support(transpose(a)) == {(1, 0), (1, 2), (2, 3), (2, 4), (0, 5)}
    m2 = build_scaled_adjacency(a, "AT")
    ok &= support(m2) == {(0, 0), (0, 2), (2, 0), (2, 2), (3, 3), (3, 4),
                          (4, 3), (4, 4), (5, 5)}
    ok &= support(meeting_matrix(a, 2)) == {(0, 2), (2, 0), (3, 4), (4, 3)}
    ok &= support(meeting_matrix(a, 3)) == {(3, 5), (4, 5), (5, 3), (5, 4)}
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "worked-example matrices bit-exact", bool(ok), f"{elapsed:.3f}s")


# -- 2. self-loop product identities --------------------------------------------------


def test_criterion_02_selfloop_product_identities():
    rng = np.random.default_rng(2025)
    eye = np.eye
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 16))
        a = random_digraph(rng, n, 0.3)
        d = a.to_dense()
        a_hat = add_self_loops(a)
        at_hat = transpose(a_hat)
        checks = [
            (spgemm(a_hat, at_hat), d @ d.T + d + d.T + eye(n)),
            (spgemm(at_hat, a_hat), d.T @ d + d + d.T + eye(n)),
            (spgemm(a_hat, a_hat), d @ d + 2 * d + eye(n)),
            (spgemm(at_hat, at_hat), d.T @ d.T + 2 * d.T + eye(n)),
        ]
        ok &= all(np.array_equal(got.to_dense(), expect) for got, expect in checks)
    _report(2, "self-loop product expansions exact on 100 digraphs", bool(ok))


# -- 3. generated self-loops iff degree -----------------------------------------------


def test_criterion_03_generated_selfloops():
    rng = np.random.default_rng(31337)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 16))
        a = random_digraph(rng, n, 0.25)
        at = transpose(a)
        ok &= np.array_equal(np.diag(spgemm(a, at).to_dense()) > 0, degrees(a, "row") > 0)
        ok &= np.array_equal(np.diag(spgemm(at, a).to_dense()) > 0, degrees(a, "col") > 0)
    _report(3, "proximity diagonal iff out/in degree on 100 digraphs", bool(ok))


# -- 4. scaled-word path oracle ---------------------------------------------------------


def _word_oracle(dense, word):
    n = len(dense)
    out_nb = [set(np.nonzero(dense[i])[0]) for i in range(n)]
    in_nb = [set(np.nonzero(dense[:, i])[0]) for i in range(n)]
    pairs = set()
    for u in range(n):
        frontier = {u}
        for ch in word:
            step = out_nb if ch == "A" else in_nb
            frontier = set().union(*(step[v] for v in frontier)) if frontier else set()
        pairs |= {(u, int(v)) for v in frontier}
    return pairs


def test_criterion_04_scaled_word_oracle():
    words = ([a for a in "AT"] + [a + b for a in "AT" for b in "AT"]
             + [a + b + c for a in "AT" for b in "AT" for c in "AT"])
    assert len(words) == 14
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 13))
        a = random_digraph(rng, n, 0.3)
        dense = a.to_dense()
        for word in words:
            built = build_scaled_adjacency(a, word)
            ok &= support(built) == _word_oracle(dense, word)
    _report(4, "all 14 scale words match path enumeration on 100 digraphs", bool(ok))


# -- 5. gradient correctness across the zoo ----------------------------------------------


ZOO = [
    ModelConfig(family="scalenet", alpha=0.5, beta=1.0, gamma=0.0, layers=2, hidden=5,
                comb1="jk_cat", comb2="jk_max", use_bn=True),
    ModelConfig(family="scalenet", alpha=2.0, beta=3.0, gamma=-1.0, layers=1, hidden=5,
                comb1="jk_max", comb2="last"),
    ModelConfig(family="one_ig", layers=2, hidden=5, comb2="jk_cat"),
    ModelConfig(family="one_igi2", layers=1, hidden=5, use_bn=True),
    ModelConfig(family="one_igu2", layers=1, hidden=5),
    ModelConfig(family="one_igu3", layers=1, hidden=5),
    ModelConfig(family="one_ym", layers=2, hidden=5),
    ModelConfig(family="gcn", layers=2, hidden=5),
    ModelConfig(family="mlp", layers=2, hidden=5, use_bn=True),
    ModelConfig(family="dirgnn_lite", layers=2, hidden=5),
]


def test_criterion_05_gradient_check_zoo():
    start = time.perf_counter()
    graph = generate_dsbm(10, 2, 0.5, 0.2, feature_noise=0.5, seed=5)
    idx = np.arange(graph.n)
    worst = {}
    for cfg in ZOO:
        model = build_model(cfg, graph, seed=11)

        def loss(model=model):
            logits = model.forward(graph.features, training=True, rng=None)
            return softmax_cross_entropy(logits, graph.labels, idx)

        worst[cfg.family] = finite_diff_check(loss, model.params(), eps=1e-5,
                                              max_entries=12, seed=3)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    ok = not bad and elapsed < 30.0
    _report(5, "finite-difference check passes for every family",
            ok, f"max_err={max(worst.values()):.2e}, {elapsed:.1f}s")


# -- 6. directional coefficient law -------------------------------------------------------


def test_criterion_06_coefficient_law():
    from scalegraph.autodiff import Tensor, glorot_uniform, matmul, spmm

    rng = np.random.default_rng(6)
    ok = direction_coefficients(-1.0) == (0.0, 0.0)
    ok &= direction_coefficients(0.0) == (0.0, 1.0)
    ok &= direction_coefficients(0.5) == (0.75, 0.75)
    ok &= direction_coefficients(1.0) == (2.0, 0.0)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        m = sym_normalize(random_digraph(rng, n, 0.35))
        n_mat = sym_normalize(random_digraph(rng, n, 0.35))
        x = Tensor(rng.normal(size=(n, 4)))
        w = Tensor(glorot_uniform(4, 3, rng))
        h = x.data @ w.data
        for alpha in (-1.0, 0.0, 0.5, 1.0):
            c_m, c_n = direction_coefficients(alpha)
            expect = c_m * (m.to_dense() @ h) + c_n * (n_mat.to_dense() @ h)
            got = agg_b(alpha, m, n_mat, x, w).data
            ok &= np.allclose(got, expect, rtol=1e-12, atol=1e-13)
        union_ref = spmm(pattern_union(m, n_mat), matmul(x, w)).data
        inter_ref = spmm(pattern_intersection(m, n_mat), matmul(x, w)).data
        ok &= np.array_equal(agg_b(2.0, m, n_mat, x, w).data, union_ref)
        ok &= np.array_equal(agg_b(3.0, m, n_mat, x, w).data, inter_ref)
    _report(6, "directional coefficient law exact incl. union/intersection", bool(ok))


# -- 7. per-scale desk reproduction --------------------------------------------------------


SCALED_COLUMNS = ("A", "T", "A+T", "AT", "TA", "AT+TA", "AA", "TT", "AA+TT")


def test_criterion_07_per_scale_desk_reproduction():
    start = time.perf_counter()

    homo = {}
    for seed in range(10):
        g = generate_dsbm(300, 5, 0.10, 0.01, feature_noise=0.5, seed=100 + seed)
        splits = make_random_splits(g, n_splits=1, seed=seed)
        rep = per_scale_report(g, splits, train_cfg=DESK_TRAIN, seeds=(seed,))
        for col in rep.columns:
            homo.setdefault(col.name, []).append(col.mean)
    none_mean = float(np.mean(homo["none"]))
    margins = {name: float(np.mean(homo[name])) - none_mean for name in SCALED_COLUMNS}
    ok_homo = all(margin >= 0.20 for margin in margins.values())

    profile = DirectionProfile(signal="out", no_in_fraction=0.6)
    hetero = {"A": [], "T": [], "AT": []}
    for seed in range(10):
        g = generate_dsbm(300, 5, 0.25, 0.01, profile=profile, feature_noise=0.5,
                          seed=200 + seed)
        splits = make_random_splits(g, n_splits=1, seed=seed)
        rep = per_scale_report(g, splits, columns=["A", "T", "AT"],
                               train_cfg=DESK_TRAIN, seeds=(seed,))
        for col in rep.columns:
            hetero[col.name].append(col.mean)
    acc_a = float(np.mean(hetero["A"]))
    acc_t = float(np.mean(hetero["T"]))
    acc_at = float(np.mean(hetero["AT"]))
    ok_hetero = (acc_a - acc_t >= 0.15) and (acc_at >= acc_a - 0.10)

    elapsed = time.perf_counter() - start
    ok = ok_homo and ok_hetero and elapsed < 300.0
    detail = (f"min scaled margin {min(margins.values()):+.3f}, "
              f"A-T gap {acc_a - acc_t:+.3f}, AT vs A {acc_at - acc_a:+.3f}, "
              f"{elapsed:.0f}s")
    _report(7, "per-scale table reproduced qualitatively at desk scale", ok, detail)


# -- 8. tuned model matches the best single scale --------------------------------------------


def test_criterion_08_tuned_model_superiority():
    g = generate_dsbm(300, 5, 0.10, 0.01, feature_noise=0.5, seed=42)
    splits = make_random_splits(g, n_splits=10, seed=0)

    rep = per_scale_report(g, splits, train_cfg=DESK_TRAIN, seeds=(0,))
    best_column = max((c for c in rep.columns if c.name != "none"), key=lambda c: c.mean)

    space = [ModelConfig(alpha=alpha, beta=beta, gamma=-1.0, layers=1, hidden=32,
                         lr=0.05, selfloop_mode=selfloop)
             for alpha in (0.5, 1.0) for beta in (-1.0, 0.5)
             for selfloop in ("add", "keep")]
    space += [ModelConfig(alpha=-1.0, beta=0.5, gamma=-1.0, layers=1, hidden=32,
                          lr=0.05, selfloop_mode=selfloop)
              for selfloop in ("add", "keep")]
    champion = grid_search(space, g, splits, train_cfg=DESK_TRAIN, base_seed=0)[0]

    ok = champion.mean_test_acc >= best_column.mean - 0.01
    detail = (f"tuned {champion.mean_test_acc:.4f} vs best column "
              f"{best_column.name} {best_column.mean:.4f}")
    _report(8, "grid-searched model within 1 point of best single scale", ok, detail)


# -- 9. Wilcoxon correctness ------------------------------------------------------------------


def test_criterion_09_wilcoxon_correctness():
    rng = np.random.default_rng(9)
    ok = True
    for n in range(5, 13):
        for _ in range(6):
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            got = wilcoxon_signed_rank(xs, ys, method="exact")
            w_ref, p_ref = brute_force_reference(xs, ys)
            ok &= got.statistic == w_ref and got.p_value == p_ref

    all_pos = wilcoxon_signed_rank([1, 2, 3, 4, 5, 6], [0.5, 1, 2, 3, 4, 5])
    ok &= all_pos.statistic == 0.0 and all_pos.p_value == 0.03125

    max_gap = 0.0
    for _ in range(10):
        xs = rng.normal(size=30)
        ys = rng.normal(size=30) + rng.uniform(-0.3, 0.3)
        exact = wilcoxon_signed_rank(xs, ys, method="exact").p_value
        approx = wilcoxon_signed_rank(xs, ys, method="normal_approx").p_value
        max_gap = max(max_gap, abs(exact - approx))
    ok &= max_gap < 0.01
    _report(9, "signed-rank test exact and approximate agreement",
            bool(ok), f"max approx gap {max_gap:.4f}")


# -- 10. CLI determinism ------------------------------------------------------------------------


def _outputs(path: Path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def test_criterion_10_cli_determinism(tmp_path, capsys):
    fast = ["--max-epochs", "25", "--es-patience", "10", "--lr-patience", "5",
            "--hidden", "8", "--lr", "0.05"]
    ds = tmp_path / "ds"
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps([
        {"alpha": 0.5, "layers": 1, "hidden": 8, "lr": 0.05},
        {"alpha": 1.0, "layers": 1, "hidden": 8, "lr": 0.05},
    ]))
    commands = {
        "synth": ["synth", "--n", "40", "--classes", "3", "--p-in", "0.3",
                  "--p-out", "0.02", "--seed", "9", "--out-dir", str(ds)],
        "stats": ["stats", "--data-dir", str(ds), "--out-dir", str(tmp_path / "stats")],
        "scale": ["scale", "--data-dir", str(ds), "--word", "AT", "--out", "m2.mtx",
                  "--out-dir", str(tmp_path / "scale")],
        "train": ["train", "--data-dir", str(ds), "--alpha", "0.5", "--layers", "1",
                  *fast, "--seed", "4", "--out-dir", str(tmp_path / "train")],
        "report": ["report-scales", "--data-dir", str(ds), "--columns", "A,none",
                   *fast, "--out-dir", str(tmp_path / "report")],
        "grid": ["gridsearch", "--data-dir", str(ds), "--space-file", str(space_file),
                 *fast, "--out-dir", str(tmp_path / "grid")],
        "compare": ["compare", "--xs", "1,2,3,4,5,6", "--ys", "0.5,1,2,3,4,5",
                    "--out-dir", str(tmp_path / "compare")],
    }
    ok = True
    for name, argv in commands.items():
        ok &= cli_main(argv) == 0
        first_dir = Path(argv[argv.index("--out-dir") + 1])
        replay_dir = tmp_path / f"replay_{name}"
        ok &= cli_main(["rerun", "--manifest", str(first_dir / "manifest.json"),
                        "--out-dir", str(replay_dir)]) == 0
        ok &= _outputs(first_dir) == _outputs(replay_dir)
    capsys.readouterr()  # swallow the machine-readable stdout of the runs
    _report(10, "every subcommand replays byte-identically from its manifest", bool(ok))
