"""Training loop, evaluation report, artifact writers, and gradient checking.

Every run is a pure function of (config, dataset): parameter init, batch
order, and dropout all derive from the config seed, and no wall-clock value is
ever written into an artifact file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .data import LabeledGraph, cache_features, checked_fields
from .gat import GAT
from .gcn import GCN
from .graphs import draw_connected_er
from .kernels import LossKind, loss
from .models import GraphRegressor, save_checkpoint
from .optim import make_optimizer
from .spectral import Region, RegionThresholds, classify_region

__all__ = [
    "TrainConfig",
    "TrainResult",
    "EvalReport",
    "NumericFailure",
    "build_model",
    "train",
    "evaluate",
    "write_training_artifacts",
    "write_eval_report",
    "gradient_check",
]

CONFIG_FORMAT = "netloc-train-config"
CONFIG_VERSION = 1

SNAPSHOT_EPOCHS = (0, 1, 2, 3, 4)
_HISTOGRAM_BINS = 30

# gradient_check's central-difference step and the node-count range of its graphs.
_GRADCHECK_H = 1e-6
_GRADCHECK_N_RANGE = (5, 10)


class NumericFailure(ArithmeticError):
    """Training loss left the finite range; carries the failing epoch.

    ``loss_value`` is the non-finite batch loss, or NaN when an optimizer step
    left a parameter non-finite.
    """

    def __init__(self, message: str, epoch: int, loss_value: float):
        super().__init__(message)
        self.epoch = epoch
        self.loss_value = loss_value


@dataclass(frozen=True)
class TrainConfig:
    """Complete recipe for one training run."""

    model: str = "gcn"
    loss: str = "mse"
    optimizer: str = "adam"
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 500
    batch_size: int | None = None
    seed: int = 0
    d: int = 7
    k0: int = 64
    k1: int = 64
    k2: int = 64
    heads: int = 4
    f1: int = 16
    f2: int = 64
    dropout: float = 0.6

    def __post_init__(self) -> None:
        """Fail on any value that the model, the loss or the optimizer would reject."""
        build_model(self)
        LossKind(self.loss)
        make_optimizer(self.optimizer, self.lr, self.weight_decay)
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be positive or null, got {self.batch_size}")

    def to_dict(self) -> dict:
        return {"format": CONFIG_FORMAT, "version": CONFIG_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        fmt = d.pop("format", CONFIG_FORMAT)
        ver = d.pop("version", CONFIG_VERSION)
        if fmt != CONFIG_FORMAT:
            raise ValueError(f"config format {fmt!r} is not {CONFIG_FORMAT!r}")
        if ver != CONFIG_VERSION:
            raise ValueError(f"config version {ver!r} unsupported (expected {CONFIG_VERSION})")
        return cls(**checked_fields(cls, d))


@dataclass
class TrainResult:
    model: GraphRegressor
    params: dict[str, np.ndarray]
    loss_curve: np.ndarray
    snapshots: dict[int, dict[str, np.ndarray]]
    config: TrainConfig


@dataclass
class EvalReport:
    """Evaluation summary."""

    count: int
    mse: float
    region_accuracy: float
    confusion: np.ndarray
    region_counts: tuple[int, int, int]
    predictions: np.ndarray
    targets: np.ndarray
    true_regions: np.ndarray
    pred_regions: np.ndarray
    families: list[str]
    sizes: list[int]


def build_model(config: TrainConfig) -> GraphRegressor:
    if config.model == "gcn":
        return GCN(d=config.d, k0=config.k0, k1=config.k1, k2=config.k2)
    if config.model == "gat":
        return GAT(d=config.d, heads=config.heads, f1=config.f1, f2=config.f2, dropout=config.dropout)
    raise ValueError(f"model must be 'gcn' or 'gat', got {config.model!r}")


def _copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def train(config: TrainConfig, items: list[LabeledGraph]) -> TrainResult:
    """Run the full training loop over labeled graphs.

    Weight snapshots are taken at epochs 0 (initialization) through 4 and at
    the final epoch, matching what the weight-histogram artifacts need.
    """
    if not items:
        raise ValueError("cannot train on an empty dataset")
    model = build_model(config)
    params = model.init_params(np.random.default_rng(config.seed))
    cache_features(items)
    prepared = [model.prepare(it.graph, it.features) for it in items]
    targets = np.array([it.target for it in items])
    kind = LossKind(config.loss)
    opt = make_optimizer(config.optimizer, config.lr, config.weight_decay)
    order_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])
    n_items = len(items)
    snapshots = {0: _copy_params(params)}
    curve = np.zeros(config.epochs)
    hint = f"(lr={config.lr}, optimizer={config.optimizer}); lower the learning rate"
    # A diverging run fails with NumericFailure below, not with numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            if config.batch_size is None or config.batch_size >= n_items:
                batches = [np.arange(n_items)]
            else:
                perm = order_rng.permutation(n_items)
                batches = [perm[i : i + config.batch_size] for i in range(0, n_items, config.batch_size)]
            epoch_loss = 0.0
            for batch in batches:
                batch_loss, grads = model.batch_step(
                    params,
                    [prepared[i] for i in batch],
                    targets[batch],
                    kind,
                    train=True,
                    rng=dropout_rng,
                )
                if not np.isfinite(batch_loss):
                    raise NumericFailure(f"loss became {batch_loss} at epoch {epoch} {hint}", epoch, float(batch_loss))
                opt.step(params, grads)
                for name in model.param_names:
                    if not np.isfinite(params[name]).all():
                        raise NumericFailure(f"parameter {name!r} became non-finite at epoch {epoch} {hint}", epoch, np.nan)
                epoch_loss += batch_loss * len(batch) / n_items
            curve[epoch - 1] = epoch_loss
            if epoch in SNAPSHOT_EPOCHS or epoch == config.epochs:
                snapshots[epoch] = _copy_params(params)
    return TrainResult(model=model, params=params, loss_curve=curve, snapshots=snapshots, config=config)


def evaluate(
    model: GraphRegressor,
    params: dict[str, np.ndarray],
    items: list[LabeledGraph],
    thresholds: RegionThresholds = RegionThresholds(),
) -> EvalReport:
    """Eval-mode predictions with MSE, region accuracy, and a 3x3 confusion matrix.

    Confusion rows are true regions expressed as percentages summing to 100
    (rows with no members stay zero). A non-finite prediction raises
    ValueError naming its item, and an overflowing MSE raises ValueError,
    both without a numpy warning.
    """
    if not items:
        raise ValueError("cannot evaluate an empty dataset")
    targets = np.array([it.target for it in items])
    cache_features(items)
    with np.errstate(over="ignore", invalid="ignore"):
        preds = model.predict(params, (model.prepare(it.graph, it.features) for it in items))
        mse = loss(preds, targets)
    for i in np.flatnonzero(~np.isfinite(preds)):
        it = items[i]
        raise ValueError(f"item {i} ({it.family}, n={it.graph.n}): prediction is {preds[i]}")
    if not np.isfinite(mse):
        raise ValueError(f"mse is {mse}")
    true_r = np.array([int(classify_region(t, thresholds)) for t in targets])
    pred_r = np.array([int(classify_region(p, thresholds)) for p in preds])
    counts = np.zeros((3, 3), dtype=np.int64)
    np.add.at(counts, (true_r - 1, pred_r - 1), 1)
    # A row with no members divides its zeros by 1 and stays zero.
    confusion = 100.0 * counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return EvalReport(
        count=len(items),
        mse=mse,
        region_accuracy=float(np.mean(true_r == pred_r)),
        confusion=confusion,
        region_counts=tuple(int(c) for c in counts.sum(axis=1)),
        predictions=preds,
        targets=targets,
        true_regions=true_r,
        pred_regions=pred_r,
        families=[it.family for it in items],
        sizes=[it.graph.n for it in items],
    )


def write_training_artifacts(result: TrainResult, directory: str | Path) -> None:
    """checkpoint.json, loss_curve.csv, and per-snapshot weight histograms."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_checkpoint(directory / "checkpoint.json", result.model, result.params, result.config.to_dict())
    rows = ["epoch,loss"]
    rows.extend(f"{e + 1},{float(v)!r}" for e, v in enumerate(result.loss_curve))
    (directory / "loss_curve.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    for epoch in sorted(result.snapshots):
        for name, w in result.snapshots[epoch].items():
            counts, edges = np.histogram(w.ravel(), bins=_histogram_edges(w))
            lines = ["bin_lo,bin_hi,count"]
            lines.extend(
                f"{float(edges[k])!r},{float(edges[k + 1])!r},{int(counts[k])}" for k in range(len(counts))
            )
            path = directory / f"weights_epoch{epoch:04d}_{name}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _histogram_edges(w: np.ndarray) -> np.ndarray:
    """``np.histogram``'s 30 equal bins over a finite array's range, where they
    exist; else bins of the halved range, widened by 120 floats on each side.

    numpy's bins fail for a one-valued array whose ±0.5 is below float64
    spacing (near 1e29), for values too few floats apart for 30 bins, and for a
    span beyond the float range. Halving keeps that span finite, and 120 floats
    a side leave each of the 30 bins at least 8 floats wide.
    """
    lo, hi = float(w.min()), float(w.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if math.isfinite(hi - lo):
        edges = np.linspace(lo, hi, _HISTOGRAM_BINS + 1)
        if np.all(edges[:-1] < edges[1:]):
            return edges
    lo, hi = float(w.min()) / 2, float(w.max()) / 2
    pad = 120 * np.spacing(max(abs(lo), abs(hi)))
    return 2 * np.linspace(lo - pad, hi + pad, _HISTOGRAM_BINS + 1)


def write_eval_report(report: EvalReport, directory: str | Path) -> None:
    """predictions.csv, confusion.csv, and summary.json (no volatile fields)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ["id,n,family,target,prediction,true_region,pred_region"]
    for i in range(report.count):
        rows.append(
            f"{i},{report.sizes[i]},{report.families[i]},"
            f"{float(report.targets[i])!r},{float(report.predictions[i])!r},"
            f"{report.true_regions[i]},{report.pred_regions[i]}"
        )
    (directory / "predictions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    lines = ["true_region,pred_1,pred_2,pred_3"]
    for row in range(3):
        vals = ",".join(repr(float(v)) for v in report.confusion[row])
        lines.append(f"{row + 1},{vals}")
    (directory / "confusion.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {
        "count": report.count,
        "mse": report.mse,
        "region_accuracy": report.region_accuracy,
        "region_counts": list(report.region_counts),
    }
    (directory / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def gradient_check(model_kind: str, seed: int) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in eval mode on a small random connected graph pair, redrawing the
    seed when any pre-activation sits within 1e-4 of a ReLU/LeakyReLU kink
    (finite differences straddle kinks, analytic gradients do not).

    Entries where analytic and numeric are both below 1e-8 count as agreeing:
    central differences at h=1e-6 carry about eps*loss/(2h) ~ 1e-10 of float64
    rounding noise, so they cannot resolve an exact-zero gradient (the
    attention softmax produces true zeros whenever a neighborhood's scores all
    sit on one side of the LeakyReLU kink).
    """
    model = build_model(TrainConfig(model=model_kind, k0=8, k1=8, k2=8, heads=2, f1=4, f2=8, dropout=0.0))
    for attempt in range(50):
        rng = np.random.default_rng([seed, attempt])
        prepared = []
        for _ in range(2):
            n = int(rng.integers(_GRADCHECK_N_RANGE[0], _GRADCHECK_N_RANGE[1] + 1))
            g, _ = draw_connected_er(n, 0.5, rng, 100)
            prepared.append(model.prepare(g, rng.random((n, model.d))))
        targets = rng.uniform(0.05, 0.5, size=2)
        params = model.init_params(rng)
        gap = min(_kink_gap(model, params, inp) for inp in prepared)
        if gap < 1e-4:
            continue
        _, grads = model.batch_step(params, prepared, targets)
        max_rel = 0.0
        for name in model.param_names:
            p = params[name]
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + _GRADCHECK_H
                lp = loss(model.predict(params, prepared), targets)
                p[idx] = orig - _GRADCHECK_H
                lm = loss(model.predict(params, prepared), targets)
                p[idx] = orig
                numeric = (lp - lm) / (2.0 * _GRADCHECK_H)
                analytic = float(grads[name][idx])
                if abs(analytic) + abs(numeric) < 1e-8:
                    continue
                rel = abs(analytic - numeric) / max(1e-6, abs(analytic) + abs(numeric))
                max_rel = max(max_rel, rel)
        return max_rel
    raise RuntimeError(f"no kink-free configuration found for seed {seed}")


def _kink_gap(model: GraphRegressor, params, inputs) -> float:
    """Smallest |input| to a ReLU or LeakyReLU in an eval forward pass."""
    _, acts = model.forward(params, inputs)
    return min(float(np.min(np.abs(a))) for a in acts.kinks)
