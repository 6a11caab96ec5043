"""Dense numeric kernels: graph propagation, activations, init, and regression losses.

Everything is float64 numpy. These are the only primitives the model modules
build on, so their contracts (shapes, kinks, gradients) are pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "normalized_adjacency",
    "normalized_counts",
    "relu",
    "relu_grad",
    "LEAKY_SLOPE",
    "leaky_relu",
    "leaky_relu_grad",
    "mean_pool",
    "glorot_init",
    "LOG_FLOOR",
    "LossKind",
    "MSE",
    "LOG_MSE",
    "loss",
    "loss_grad",
]

# LeakyReLU's negative-side slope, and the clamp under both sides of LOG_MSE.
LEAKY_SLOPE = 0.2
LOG_FLOOR = 1e-12


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Self-looped symmetric normalization D^(-1/2) (A + I) D^(-1/2).

    D is the degree matrix of A + I, so every row has positive degree and the
    result is symmetric with leading eigenvalue exactly 1.
    """
    return normalized_counts(g.dense(np.ones(g.loops[0].size)))


def normalized_counts(c: np.ndarray) -> np.ndarray:
    """D^(-1/2) C D^(-1/2) with D the row sums of the self-looped count matrix C.

    C is A + I for a graph, or B + I for the quotient of an equitable
    partition (``graphs.equitable_partition``'s B), whose row sums are the
    degrees + 1 as well. On the discrete partition B is A, so both give the
    same bits.
    """
    d_inv_sqrt = 1.0 / np.sqrt(c.sum(axis=1))
    out = c * d_inv_sqrt[:, None]
    out *= d_inv_sqrt[None, :]
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of relu taken as 0 at the kink."""
    return (x > 0.0).astype(np.float64)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, LEAKY_SLOPE * x)


def leaky_relu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, 1.0, LEAKY_SLOPE)


def mean_pool(h: np.ndarray) -> np.ndarray:
    """Column means of a node-embedding matrix: the graph readout vector."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] == 0:
        raise ValueError(f"mean_pool needs a nonempty 2-D matrix, got shape {h.shape}")
    return h.mean(axis=0)


def glorot_init(f_in: int, f_out: int, rng: int | np.random.Generator) -> np.ndarray:
    """Glorot-uniform matrix: i.i.d. U(-L, L) with L = sqrt(6 / (f_in + f_out))."""
    if f_in < 1 or f_out < 1:
        raise ValueError(f"fan sizes must be positive, got ({f_in}, {f_out})")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    limit = np.sqrt(6.0 / (f_in + f_out))
    return rng.uniform(-limit, limit, size=(f_in, f_out))


@dataclass(frozen=True)
class LossKind:
    """Regression loss selector: plain MSE or MSE in log space.

    The log variant clamps both prediction and target from below at
    ``LOG_FLOOR`` before taking logs; the clamp has zero gradient below the
    floor.
    """

    kind: str = "mse"

    def __post_init__(self) -> None:
        if self.kind not in ("mse", "logmse"):
            raise ValueError(f"unknown loss kind {self.kind!r}")


MSE = LossKind("mse")
LOG_MSE = LossKind("logmse")


def _check_pair(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim != 1 or target.ndim != 1:
        raise ValueError("loss expects 1-D prediction and target vectors")
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: {pred.shape[0]} predictions, {target.shape[0]} targets")
    if pred.shape[0] == 0:
        raise ValueError("loss needs at least one sample")
    return pred, target


def loss(pred: np.ndarray, target: np.ndarray, kind: LossKind = MSE) -> float:
    """Mean squared error of the batch, optionally in log space."""
    pred, target = _check_pair(pred, target)
    if kind.kind == "mse":
        diff = pred - target
    else:
        diff = np.log(np.maximum(pred, LOG_FLOOR)) - np.log(np.maximum(target, LOG_FLOOR))
    return float(np.mean(diff * diff))


def loss_grad(pred: np.ndarray, target: np.ndarray, kind: LossKind = MSE) -> np.ndarray:
    """Gradient of :func:`loss` with respect to each prediction: (2/N) terms."""
    pred, target = _check_pair(pred, target)
    return _loss_grad(pred, target, kind, 2.0 / pred.shape[0])


def _loss_grad(pred, target, kind: LossKind, scale: float):
    """``scale * diff * d(diff)/d(pred)`` elementwise, unchecked. Numpy float64
    scalars take the same ufuncs as arrays, so they round as in :func:`loss_grad`."""
    if kind.kind == "mse":
        return scale * (pred - target)
    clamped = np.maximum(pred, LOG_FLOOR)
    diff = np.log(clamped) - np.log(np.maximum(target, LOG_FLOOR))
    return np.where(pred < LOG_FLOOR, 0.0, scale * diff / clamped)
