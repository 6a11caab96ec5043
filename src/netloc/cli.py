"""Command-line entry point: netloc {generate,spectral,features,ingest-tu,train,eval,gradcheck}.

Machine-readable behavior: results go to stdout as JSON or CSV, operational
failures print a one-line JSON error object to stderr and exit 1, usage errors
exit 2 (argparse's convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from . import data as data_mod
from .features import FEATURE_COLUMNS, build_feature_matrix
from .graphs import naming, read_edgelist
from .models import load_checkpoint
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, RegionThresholds, check_stopping_rule, ipr, label_graph, power_iteration
from .train import (
    TrainConfig,
    evaluate,
    gradient_check,
    train,
    write_eval_report,
    write_training_artifacts,
)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _given(args, cls) -> dict:
    """The flags given in ``args`` that are named after fields of the dataclass ``cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau1", type=float, help="delocalized/weak threshold")
    p.add_argument("--tau2", type=float, help="weak/strong threshold")
    p.add_argument("--epsilon", type=float, help="threshold margin")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _batch_size(text: str) -> int | None:
    """``--batch-size``: 0 means full batch, which ``TrainConfig`` spells None."""
    return int(text) or None


def _read_config(path: str | None, cls, overrides: dict):
    """``cls.from_dict`` of a JSON config file's object updated by ``overrides``.

    One construction checks the file and the flags together, so a flag may
    complete or correct the file. If that fails and the flags alone fail
    with the same error, the error is the flags' and is raised as it is;
    otherwise it is raised under the file's name.
    """
    if path is None:
        return cls.from_dict(overrides)
    own = data_mod.read_json(path)
    if not isinstance(own, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(own).__name__}")
    try:
        return cls.from_dict({**own, **overrides})
    except (TypeError, ValueError) as exc:
        try:
            cls.from_dict(overrides)
            flags_fail_alike = False
        except (TypeError, ValueError) as flag_exc:
            flags_fail_alike = str(flag_exc) == str(exc)
        if flags_fail_alike:
            raise
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_spectral(args) -> int:
    thresholds = RegionThresholds(**_given(args, RegionThresholds))
    check_stopping_rule(args.tol, args.max_iter)
    g = read_edgelist(args.edgelist)
    with naming(args.edgelist):
        res = power_iteration(g, tol=args.tol, max_iter=args.max_iter)
        y = ipr(res.pev)
        _, region = label_graph(g, thresholds, tol=args.tol, max_iter=args.max_iter)
    _emit(
        {
            "n": g.n,
            "m": g.m,
            "lambda1": res.eigenvalue,
            "ipr": y,
            "region": int(region),
            "region_name": region.name,
            "iterations": res.iterations,
            "residual": res.residual,
        }
    )
    return 0


def _cmd_features(args) -> int:
    g = read_edgelist(args.edgelist)
    with naming(args.edgelist):
        h = build_feature_matrix(g)
    lines = [",".join(FEATURE_COLUMNS)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in h)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _emit({"out": str(args.out), "rows": g.n, "cols": len(FEATURE_COLUMNS)})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_generate(args) -> int:
    spec = _read_config(args.config, data_mod.DatasetSpec, _given(args, data_mod.DatasetSpec))
    t0 = time.perf_counter()
    train_items, test_items = data_mod.build_synthetic(spec)
    out = Path(args.out)
    data_mod.save_dataset(train_items, out / "train", spec=spec, name="train")
    data_mod.save_dataset(test_items, out / "test", spec=spec, name="test")
    _emit(
        {
            "out": str(out),
            "train": len(train_items),
            "test": len(test_items),
            "seconds": round(time.perf_counter() - t0, 3),
        }
    )
    return 0


def _cmd_ingest_tu(args) -> int:
    graphs = data_mod.ingest_tu_dataset(args.directory, name=args.name)
    name = args.name or "tu"
    kept = data_mod.preprocess(graphs, name=name, min_nodes=args.min_nodes)
    data_mod.save_dataset(kept, args.out, name=name)
    _emit({"raw": len(graphs), "kept": len(kept), "out": str(args.out)})
    return 0


def _cmd_train(args) -> int:
    config = _read_config(args.config, TrainConfig, _given(args, TrainConfig))
    items, _ = data_mod.load_dataset(args.data, verify=not args.no_verify)
    if not items:
        raise ValueError(f"{args.data}: cannot train on an empty dataset")
    t0 = time.perf_counter()
    result = train(config, items)
    write_training_artifacts(result, args.out)
    _emit(
        {
            "out": str(args.out),
            "epochs": config.epochs,
            "final_loss": float(result.loss_curve[-1]) if config.epochs else None,
            "seconds": round(time.perf_counter() - t0, 3),
        }
    )
    return 0


def _cmd_eval(args) -> int:
    thresholds = RegionThresholds(**_given(args, RegionThresholds))
    model, params, _ = load_checkpoint(args.checkpoint)
    items, _ = data_mod.load_dataset(args.data, verify=not args.no_verify)
    if not items:
        raise ValueError(f"{args.data}: cannot evaluate an empty dataset")
    t0 = time.perf_counter()
    with naming(args.checkpoint):
        report = evaluate(model, params, items, thresholds)
    write_eval_report(report, args.out)
    _emit(
        {
            "out": str(args.out),
            "count": report.count,
            "mse": report.mse,
            "region_accuracy": report.region_accuracy,
            "seconds": round(time.perf_counter() - t0, 3),
        }
    )
    return 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for s in range(args.seeds):
        worst = max(worst, gradient_check(args.model, seed=args.seed + s))
    _emit({"model": args.model, "seeds": args.seeds, "max_rel_err": worst, "tolerance": 1e-4})
    return 0 if worst < 1e-4 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="netloc",
        description="Spectral localization labels and graph neural regressors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag left out is absent from args, so _given passes only the flags given
    # and each dataclass keeps the one copy of its defaults.
    field_flags = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("spectral", help="principal eigenpair and IPR of one edge list", **field_flags)
    p.add_argument("edgelist")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="bound on the residual ||A v - lambda1 v|| of the result")
    p.add_argument(
        "--max-iter",
        type=int,
        default=DEFAULT_MAX_ITER,
        help="cap on power steps; from step 2n a slowly contracting graph finishes with one dense eigh",
    )
    _add_threshold_flags(p)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("features", help="7-column node feature CSV of one edge list")
    p.add_argument("edgelist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("generate", help="build a synthetic train/test dataset", **field_flags)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="DatasetSpec JSON file")
    p.add_argument("--families", type=lambda text: text.split(","), help="comma list, e.g. cycle,star")
    p.add_argument("--train-count", type=int)
    p.add_argument("--test-count", type=int)
    p.add_argument("--train-sizes", type=int, nargs=2, dest="train_size_range", metavar=("LO", "HI"))
    p.add_argument("--test-sizes", type=int, nargs=2, dest="test_size_range", metavar=("LO", "HI"))
    p.add_argument("--seed", type=int)
    p.add_argument("--er-mean-degree", type=float)
    p.add_argument("--sf-m", type=int)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest-tu", help="parse a TU text dataset, filter, label, save")
    p.add_argument("directory")
    p.add_argument("--out", required=True)
    p.add_argument("--name", default=None)
    p.add_argument("--min-nodes", type=int, default=10)
    p.set_defaults(func=_cmd_ingest_tu)

    p = sub.add_parser("train", help="train a model on a saved dataset", **field_flags)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="TrainConfig JSON file")
    p.add_argument("--model", choices=("gcn", "gat"))
    p.add_argument("--loss", choices=("mse", "logmse"))
    p.add_argument("--optimizer", choices=("gd", "adam", "adamw"))
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=_batch_size, help="0 means full batch")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-verify", action="store_true", default=False)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a saved dataset", **field_flags)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-verify", action="store_true", default=False)
    _add_threshold_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of model gradients")
    p.add_argument("--model", choices=("gcn", "gat"), default="gcn")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--seeds", type=_int_at_least(1), default=5, help="number of consecutive seeds to check")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # operational failure: machine-readable, nonzero
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
