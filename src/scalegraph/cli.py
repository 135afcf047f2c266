"""Command-line entry point.

Every subcommand writes a manifest (the exact argv) into the output directory
before doing any work; ``rerun --manifest`` replays it and reproduces the
JSON/TSV outputs byte for byte. stdout carries only machine-readable output,
diagnostics go to stderr. Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from scalegraph import __version__
from scalegraph.graphdata import (
    DATASET_FILES,
    DataError,
    DirectionProfile,
    compute_stats,
    generate_dsbm,
    load_dataset,
    make_random_splits,
    read_edge_list,
    row_normalize_features,
    save_dataset,
)
from scalegraph.harness import (
    TrainConfig,
    default_grid_space,
    grid_search,
    leaderboard_tsv,
    per_scale_report,
    train,
    wilcoxon_signed_rank,
)
from scalegraph.models import ModelConfig, build_model
from scalegraph.scales import SELFLOOP_MODES, build_scaled_adjacency
from scalegraph.sparse import format_coordinate_text

# a field's flag is ``--`` plus its name with dashes, except these; manifests store the flags
_FLAG_NAMES = {"selfloop_mode": "--selfloops"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a flag of a bool field takes 0 or 1
        self.register("type", bool, lambda text: bool(("0", "1").index(text)))

    def error(self, message):
        raise _UsageExit(f"{message}\n{self.format_usage()}".rstrip())


class _UsageExit(Exception):
    pass


def _write_json(path: Path, payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    return text


def _prepare_out_dir(args, argv, config=None):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "argv": list(argv),
        "command": argv[0] if argv else "",
        "seed": getattr(args, "seed", None),
        "out_dir": args.out_dir,
        "tool_version": __version__,
    }
    if config is not None:
        manifest["config"] = asdict(config)
    _write_json(out / "manifest.json", manifest)
    return out


def _add_dataset_flags(p):
    p.add_argument("--data-dir", help="directory holding the four standard dataset files")
    p.add_argument("--edges")
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--splits")
    p.add_argument("--row-normalize", action="store_true",
                   help="L1-normalize feature rows after loading")


def _dataset_paths(args):
    """The four dataset paths in ``DATASET_FILES`` order."""
    paths = []
    for name, flag in zip(DATASET_FILES, ("edges", "features", "labels", "splits")):
        override = getattr(args, flag)
        if override:
            paths.append(Path(override))
        elif args.data_dir:
            paths.append(Path(args.data_dir) / name)
        else:
            raise _UsageExit(f"missing --data-dir or --{flag}")
    return paths


def _load_graph(args):
    graph, splits = load_dataset(*_dataset_paths(args))
    if getattr(args, "row_normalize", False):
        graph = row_normalize_features(graph)
    return graph, splits


def _add_config_flags(p):
    """One flag per field of ModelConfig and of TrainConfig, typed by the field; the
    config classes check the values. Model flags default to unset, so that they win
    over ``--config``; training flags default to TrainConfig's defaults."""
    p.add_argument("--config", help="JSON file with ModelConfig fields (flags win)")
    for cls in (ModelConfig, TrainConfig):
        for f in fields(cls):
            p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")), dest=f.name,
                           type=f.type, default=f.default if cls is TrainConfig else None)


def _model_config(args) -> ModelConfig:
    """Precedence: explicit flags > config file > defaults."""
    payload = json.loads(Path(args.config).read_text()) if args.config else {}
    flags = {f.name: getattr(args, f.name) for f in fields(ModelConfig)
             if getattr(args, f.name) is not None}
    return ModelConfig.from_dict(payload, **flags)


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _split(args, splits):
    if not 0 <= args.split_index < len(splits):
        raise _UsageExit(f"split index {args.split_index} out of range")
    return splits[args.split_index]


# -- subcommands -----------------------------------------------------------------


def _cmd_synth(args, argv):
    out = _prepare_out_dir(args, argv)
    profile = DirectionProfile(signal=args.profile, no_in_fraction=args.no_in_fraction)
    graph = generate_dsbm(args.n, args.classes, args.p_in, args.p_out,
                          profile=profile, feature_noise=args.feature_noise,
                          seed=args.seed)
    splits = make_random_splits(graph, n_splits=args.n_splits,
                                train_frac=args.train_frac, val_frac=args.val_frac,
                                seed=args.seed)
    save_dataset(out, graph, splits)
    summary = {"n": graph.n, "edges": graph.adjacency.nnz, "d": graph.d,
               "classes": graph.n_classes, "splits": len(splits),
               "files": sorted(DATASET_FILES)}
    sys.stdout.write(_write_json(out / "synth.json", summary))
    return 0


def _cmd_stats(args, argv):
    out = _prepare_out_dir(args, argv)
    graph, splits = _load_graph(args)
    report = compute_stats(graph, _split(args, splits).train)
    sys.stdout.write(_write_json(out / "stats.json", report.to_dict()))
    return 0


def _cmd_scale(args, argv):
    out = _prepare_out_dir(args, argv)
    if args.data_dir:  # the dataset's node count sizes the matrix
        adjacency = _load_graph(args)[0].adjacency
    elif args.edges:
        adjacency = read_edge_list(args.edges)
    else:
        raise _UsageExit("scale needs --edges or --data-dir")
    text = format_coordinate_text(build_scaled_adjacency(adjacency, args.word, args.selfloops))
    if args.out:
        (out / args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_train(args, argv):
    cfg = _model_config(args)
    out = _prepare_out_dir(args, argv, config=cfg)
    graph, splits = _load_graph(args)
    split = _split(args, splits)
    model = build_model(cfg, graph, seed=args.seed)
    result = train(model, graph, split, _train_config(args), seed=args.seed)
    payload = {"config": asdict(cfg), "result": result.to_dict()}
    sys.stdout.write(_write_json(out / "result.json", payload))
    return 0


def _cmd_report_scales(args, argv):
    model_cfg = _model_config(args) if _any_model_flag(args) else None
    out = _prepare_out_dir(args, argv)
    graph, splits = _load_graph(args)
    columns = args.columns.split(",") if args.columns else None
    seeds = [int(tok) for tok in args.seeds.split(",")] if args.seeds else [args.seed]
    report = per_scale_report(graph, splits, columns=columns, model_cfg=model_cfg,
                              train_cfg=_train_config(args), seeds=seeds,
                              include_shared_removed=args.include_shared_removed)
    text = report.to_tsv()
    (out / "scale_report.tsv").write_text(text)
    sys.stdout.write(text)
    return 0


def _any_model_flag(args):
    return any(getattr(args, f.name) is not None for f in fields(ModelConfig)) or args.config


def _cmd_gridsearch(args, argv):
    if args.max_configs is not None and args.max_configs < 1:
        raise _UsageExit(f"--max-configs must be at least 1, got {args.max_configs}")
    base = _model_config(args)
    out = _prepare_out_dir(args, argv, config=base)
    graph, splits = _load_graph(args)
    if args.space_file:
        entries = json.loads(Path(args.space_file).read_text())
        if not isinstance(entries, list):
            raise ValueError(f"{args.space_file}: expected a JSON array of ModelConfig objects")
        space = [ModelConfig.from_dict(entry) for entry in entries]
    else:
        space = default_grid_space(base)
    if args.max_configs is not None:
        space = space[: args.max_configs]
    ranked = grid_search(space, graph, splits, train_cfg=_train_config(args),
                         base_seed=args.seed)
    _write_json(out / "results.json", [g.to_dict() for g in ranked])
    board = leaderboard_tsv(ranked)
    (out / "leaderboard.tsv").write_text(board)
    sys.stdout.write(board)
    return 0


def _read_series(spec: str):
    path = Path(spec)
    if path.exists():
        payload = json.loads(path.read_text())
        if not isinstance(payload, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in payload):
            raise DataError(f"{spec}: expected a JSON array of numbers")
        return [float(v) for v in payload]
    try:
        return [float(tok) for tok in spec.split(",")]
    except ValueError:
        raise DataError(f"cannot read series from {spec!r}: not a file or number list") from None


def _cmd_compare(args, argv):
    out = _prepare_out_dir(args, argv)
    xs = _read_series(args.xs)
    ys = _read_series(args.ys)
    try:
        result = wilcoxon_signed_rank(xs, ys, method=args.method)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    sys.stdout.write(_write_json(out / "comparison.json", result.to_dict()))
    return 0


def _cmd_rerun(args, argv):
    manifest = json.loads(Path(args.manifest).read_text())
    replay = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(replay, list) or not all(isinstance(a, str) for a in replay):
        raise DataError(f"{args.manifest}: expected an object with an 'argv' list of strings")
    if replay[:1] == ["rerun"]:
        raise DataError(f"{args.manifest}: the argv of a manifest cannot itself be a rerun")
    if args.out_dir is not None:
        replay += ["--out-dir", args.out_dir]
    return main(replay)


# -- wiring ------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="scalegraph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", default=".")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="write a synthetic directed SBM dataset")
    common(p)
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--p-in", type=float, default=0.1)
    p.add_argument("--p-out", type=float, default=0.01)
    p.add_argument("--profile", choices=("both", "out"), default="both")
    p.add_argument("--no-in-fraction", type=float, default=0.0)
    p.add_argument("--feature-noise", type=float, default=0.5)
    p.add_argument("--n-splits", type=int, default=1)
    p.add_argument("--train-frac", type=float, default=0.5)
    p.add_argument("--val-frac", type=float, default=0.25)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stats", help="dataset statistics report as JSON")
    common(p)
    _add_dataset_flags(p)
    p.add_argument("--split-index", type=int, default=0)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("scale", help="build one scaled adjacency and dump it")
    common(p)
    _add_dataset_flags(p)
    p.add_argument("--word", required=True)
    p.add_argument("--selfloops", choices=SELFLOOP_MODES, default="keep")
    p.add_argument("--out", help="file name for the coordinate dump (inside --out-dir)")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("train", help="train one model on one split")
    common(p)
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--split-index", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("report-scales", help="per-scale accuracy table as TSV")
    common(p)
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--columns", help="comma list, default: all ten columns")
    p.add_argument("--seeds", help="comma list of training seeds")
    p.add_argument("--include-shared-removed", action="store_true")
    p.set_defaults(func=_cmd_report_scales)

    p = sub.add_parser("gridsearch", help="exhaustive config search, leaderboard out")
    common(p)
    _add_dataset_flags(p)
    _add_config_flags(p)
    p.add_argument("--space-file", help="JSON array of ModelConfig dicts")
    p.add_argument("--max-configs", type=int)
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("compare", help="Wilcoxon signed-rank comparison of two series")
    common(p)
    p.add_argument("--xs", required=True, help="JSON array file or comma list")
    p.add_argument("--ys", required=True, help="JSON array file or comma list")
    p.add_argument("--method", choices=("auto", "exact", "normal_approx"), default="auto")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rerun", help="replay a run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_rerun)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help / --version
        return 0 if exc.code in (0, None) else 1
    except (DataError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
