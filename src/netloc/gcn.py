"""Three-layer graph convolutional regressor with hand-written backprop.

Forward pass per graph, with Ahat the self-looped symmetric normalized
adjacency and H0 the n x d feature matrix:

    P(l) = Ahat @ H(l-1)    Q(l) = P(l) @ W(l-1)    H(l) = relu(Q(l))    l = 1..3
    z    = column mean of H(3)                      yhat = z @ w_lin + b

The backward pass runs the layer loop in reverse and reads only what
:class:`GcnActivations` keeps: Ahat, the P(l), the Q(l) and z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .kernels import glorot_init, normalized_adjacency, relu, relu_grad
from .models import GraphRegressor

__all__ = ["GcnActivations", "GCN"]

_LAYERS = ("w0", "w1", "w2")


@dataclass
class GcnActivations:
    """What backward reads of one forward pass; ``p[l - 1]`` and ``q[l - 1]`` hold P(l) and Q(l)."""

    ahat: np.ndarray
    p: list[np.ndarray]
    q: list[np.ndarray]
    z: np.ndarray

    @property
    def kinks(self) -> list[np.ndarray]:
        return self.q


class GCN(GraphRegressor):
    """Widths d -> k0 -> k1 -> k2 -> scalar head."""

    kind = "gcn"
    param_names = ("w0", "w1", "w2", "w_lin", "b")

    def __init__(self, d: int, k0: int, k1: int, k2: int):
        if min(d, k0, k1, k2) < 1:
            raise ValueError(f"widths must be positive, got {(d, k0, k1, k2)}")
        self.d = d
        self.k0 = k0
        self.k1 = k1
        self.k2 = k2

    def widths(self) -> dict:
        return {"d": self.d, "k0": self.k0, "k1": self.k1, "k2": self.k2}

    def init_params(self, seed: int | np.random.Generator) -> dict[str, np.ndarray]:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return {
            "w0": glorot_init(self.d, self.k0, rng),
            "w1": glorot_init(self.k0, self.k1, rng),
            "w2": glorot_init(self.k1, self.k2, rng),
            "w_lin": glorot_init(self.k2, 1, rng),
            "b": np.zeros(()),
        }

    def prepare(self, graph: Graph, h0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h0 = self._checked_features(graph, h0)
        return normalized_adjacency(graph), h0

    def forward(self, params, inputs, train: bool = False, rng=None) -> tuple[float, GcnActivations]:
        ahat, h = inputs
        p, q = [], []
        for name in _LAYERS:
            p.append(ahat @ h)
            q.append(p[-1] @ params[name])
            h = relu(q[-1])
        yhat, z = self._readout(params, h)
        return yhat, GcnActivations(ahat, p, q, z)

    def backward(self, params, acts: GcnActivations, dy: float) -> dict[str, np.ndarray]:
        """Gradients of dy * yhat's upstream loss term for one graph."""
        grads, dh = self._readout_backward(params, acts.z, acts.ahat.shape[0], dy)
        for layer, name in reversed(list(enumerate(_LAYERS))):
            dq = relu_grad(acts.q[layer]) * dh
            grads[name] = acts.p[layer].T @ dq
            if layer > 0:
                dh = acts.ahat @ (dq @ params[name].T)
        return grads
