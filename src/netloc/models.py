"""Shared graph-regressor plumbing: batch gradient accumulation and checkpoints.

Both models expose the same parameter-dict interface (name -> float64 array),
so the optimizers and the training loop never need to know which one they are
driving.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .kernels import MSE, LossKind, _loss_grad, loss

__all__ = ["GraphRegressor", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "netloc-checkpoint"
CHECKPOINT_VERSION = 1


class GraphRegressor:
    """Base class: subclasses provide ``prepare``, ``forward`` and ``backward``.

    ``forward`` returns ``(yhat, activations)`` for one prepared graph;
    ``backward`` maps ``(params, activations, dL/dyhat)`` to a gradient dict
    with the same keys and shapes as ``params``.
    """

    kind: str = ""
    d: int
    param_names: tuple[str, ...] = ()

    def widths(self) -> dict:
        raise NotImplementedError

    def init_params(self, seed: int | np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def prepare(self, graph, h0: np.ndarray):
        raise NotImplementedError

    def forward(self, params, inputs, train: bool = False, rng: np.random.Generator | None = None):
        raise NotImplementedError

    def backward(self, params, acts, dy: float) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def predict(self, params, inputs_list) -> np.ndarray:
        """Eval-mode predictions for a list of prepared graphs."""
        return np.array([self.forward(params, inp)[0] for inp in inputs_list])

    def batch_step(
        self,
        params: dict[str, np.ndarray],
        inputs_list,
        targets,
        kind: LossKind = MSE,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss and summed parameter gradients over one batch.

        Gradients are accumulated in batch order, so the result is
        deterministic for a fixed batch ordering. The loss is elementwise, so
        each graph's backward runs right after its forward and frees its
        activations; backward draws no random numbers.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if len(inputs_list) == 0:
            raise ValueError("batch_step needs a nonempty batch")
        if targets.shape != (len(inputs_list),):
            raise ValueError(
                f"batch size mismatch: {len(inputs_list)} graphs, {targets.shape} targets"
            )
        preds = np.empty(len(inputs_list))
        grads = {name: np.zeros_like(params[name]) for name in self.param_names}
        for k, inp in enumerate(inputs_list):
            preds[k], acts = self.forward(params, inp, train=train, rng=rng)
            dy = _loss_grad(preds[k], targets[k], kind, 2.0) / len(inputs_list)
            g = self.backward(params, acts, float(dy))
            for name in self.param_names:
                grads[name] += g[name]
        return loss(preds, targets, kind), grads


def save_checkpoint(path: str | Path, model: GraphRegressor, params: dict, config: dict | None = None) -> None:
    """Write a versioned JSON checkpoint: model kind, widths, weights, config echo.

    Weights are stored row-major at full float64 precision (shortest
    round-tripping decimal), so load(save(params)) is bit-identical.
    """
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": model.kind,
        "widths": model.widths(),
        "params": {
            name: {"shape": list(params[name].shape), "data": params[name].ravel().tolist()}
            for name in model.param_names
        },
        "config": config or {},
    }
    Path(path).write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[GraphRegressor, dict[str, np.ndarray], dict]:
    """Read a checkpoint back into a freshly constructed model and params dict."""
    from .gat import GAT
    from .gcn import GCN

    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file (format={blob.get('format')!r})")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {blob.get('version')!r} unsupported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    widths = blob["widths"]
    if blob["model"] == "gcn":
        model: GraphRegressor = GCN(**widths)
    elif blob["model"] == "gat":
        model = GAT(**widths)
    else:
        raise ValueError(f"{path}: unknown model kind {blob['model']!r}")
    params = {}
    for name in model.param_names:
        entry = blob["params"][name]
        params[name] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
    return model, params, blob.get("config", {})
