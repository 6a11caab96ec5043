"""Shared graph-regressor plumbing: readout head, batch gradients, checkpoints.

Both models expose the same parameter-dict interface (name -> float64 array),
so the optimizers and the training loop never need to know which one they are
driving.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import read_json
from .kernels import MSE, LossKind, _loss_grad, loss

__all__ = ["GraphRegressor", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_FORMAT = "netloc-checkpoint"
CHECKPOINT_VERSION = 1


class GraphRegressor:
    """Base class: subclasses provide ``width_names``, ``init_params``, ``prepare``, ``forward`` and ``backward``.

    ``forward`` returns ``(yhat, activations)`` for one group of prepared
    graphs: only what ``backward`` reads, plus ``kinks``, the arrays entering
    a ReLU or LeakyReLU. ``backward`` maps ``(params, activations, dL/dyhat)``
    to a gradient dict with the same keys and shapes as ``params``, summed
    over the group. ``_groups`` splits a batch into groups; by default each
    graph is its own group, with a scalar ``yhat`` and ``dL/dyhat``, and a
    model that stacks graphs overrides it and takes one entry per graph. The
    base class holds the shared feature check, ``widths``, and the readout
    both models end in (it pools the node rows, then applies the linear
    head) with its backward.
    """

    kind: str = ""
    d: int
    param_names: tuple[str, ...] = ()
    width_names: tuple[str, ...] = ()

    def widths(self) -> dict:
        """The constructor's arguments by name, each kept as the attribute of that name."""
        return {name: getattr(self, name) for name in self.width_names}

    def _checked_features(self, graph, h0: np.ndarray) -> np.ndarray:
        """``h0`` as float64, checked to be the graph's ``(n, d)`` feature matrix."""
        h0 = np.asarray(h0, dtype=np.float64)
        if h0.shape != (graph.n, self.d):
            raise ValueError(f"features must be {(graph.n, self.d)}, got {h0.shape}")
        return h0

    @staticmethod
    def _readout(params, h: np.ndarray, s: np.ndarray):
        """``(yhat, z)``: ``z = sum_i s_i h_i / sum_i s_i`` pools the rows of ``h``, row i standing
        for ``s_i`` nodes (unit sizes give the row mean, bit for bit), and ``yhat = z @ w_lin + b``.

        ``h`` and ``s`` are ``(k, f)`` and ``(k,)`` for one graph, giving a scalar ``yhat``,
        or ``(G, k, f)`` and ``(G, k)`` for a group, giving ``(G,)``.
        """
        z = (s[..., None] * h).sum(axis=-2) / s.sum(axis=-1)[..., None]
        return z @ params["w_lin"][:, 0] + params["b"], z

    @staticmethod
    def _readout_backward(params, z: np.ndarray, n, dy) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Head gradients summed over the group and ``dL/dh``, the same ``dy * w_lin / n`` for
        each of a graph's ``n`` nodes; ``n`` and ``dy`` are scalars or one entry per graph."""
        dy, n = np.asarray(dy), np.asarray(n)
        grads = {"w_lin": z.reshape(-1, z.shape[-1]).T @ dy.reshape(-1, 1), "b": dy.sum()}
        return grads, dy[..., None] * params["w_lin"][:, 0] / n[..., None]

    def predict(self, params, inputs_list) -> np.ndarray:
        """Eval-mode predictions for an iterable of prepared graphs."""
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

        The batch runs one group at a time, as :meth:`_groups` splits it.
        Gradients are accumulated in group order, so the result is
        deterministic for a fixed batch ordering. The loss is elementwise, so
        each group's backward runs right after its forward and frees its
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
        for idx, inp in self._groups(inputs_list):
            preds[idx], acts = self.forward(params, inp, train=train, rng=rng)
            dy = _loss_grad(preds[idx], targets[idx], kind, 2.0) / len(inputs_list)
            g = self.backward(params, acts, dy)
            for name in self.param_names:
                grads[name] += g[name]
        return loss(preds, targets, kind), grads

    def _groups(self, inputs_list):
        """``(index, inputs)`` for each group that one forward and backward run:
        by default each graph alone, under its position in the batch."""
        return enumerate(inputs_list)


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
    """Read a checkpoint back into a freshly constructed model and params dict.

    Errors name the file: ``path:line: msg`` for a JSON syntax error and
    ``path: reason`` for content that does not make a model and its params.
    """
    blob = read_json(path)
    try:
        return _read_checkpoint(blob)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_checkpoint(blob: dict) -> tuple[GraphRegressor, dict[str, np.ndarray], dict]:
    from .gat import GAT
    from .gcn import GCN

    fmt = blob.get("format") if isinstance(blob, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"not a checkpoint file (format={fmt!r})")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {blob.get('version')!r} unsupported (expected {CHECKPOINT_VERSION})")
    models = {"gcn": GCN, "gat": GAT}
    if blob["model"] not in models:
        raise ValueError(f"unknown model kind {blob['model']!r}")
    model: GraphRegressor = models[blob["model"]](**blob["widths"])
    expected = model.init_params(0)
    params = {}
    for name in model.param_names:
        entry = blob["params"][name]
        data, shape = np.array(entry["data"], dtype=np.float64), tuple(entry["shape"])
        if data.shape != (math.prod(shape),):
            raise ValueError(
                f"parameter {name!r} holds {data.size} values, but its shape {shape} needs {math.prod(shape)}"
            )
        if shape != expected[name].shape:
            raise ValueError(f"parameter {name!r} has shape {shape}, but the widths give {expected[name].shape}")
        if not np.isfinite(data).all():
            raise ValueError(f"parameter {name!r} holds a non-finite value")
        params[name] = data.reshape(shape)
    return model, params, blob.get("config", {})
