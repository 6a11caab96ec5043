"""Three-layer graph convolutional regressor with hand-written backprop.

``prepare`` groups the n nodes into the k classes of the coarsest equitable
partition that refines the distinct rows of the feature matrix H0 (s holds the
class sizes). Message passing keeps every layer constant on those classes, so
the network runs on one row per class, through the k x k quotient

    Ahat = D^(-1/2) (B + I) D^(-1/2),    b_ij = neighbours in class j of a node of class i,

of the self-looped symmetric normalized adjacency. Forward pass per graph:

    P(l) = Ahat @ H(l-1)    Q(l) = P(l) @ W(l-1)    H(l) = relu(Q(l))    l = 1..3
    z    = sum_i s_i H(3)_i / n                     yhat = z @ w_lin + b

The backward pass runs the layer loop in reverse and reads only what
:class:`GcnActivations` keeps: Ahat, the P(l), the Q(l), z and s. A row
stands for s_i nodes in each weight gradient, P(l)^T (s * dQ(l)). On a
discrete partition (k = n, as with distinct feature rows) this is the
per-node network in node order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, equitable_partition
from .kernels import glorot_init, normalized_counts, relu, relu_grad
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
    s: np.ndarray

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

    def prepare(self, graph: Graph, h0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(Ahat, H0, s)`` on the quotient: one feature row per class, from its smallest node."""
        h0 = self._checked_features(graph, h0)
        cls, s, b = equitable_partition(graph, h0)
        b[np.diag_indices(s.size)] += 1.0  # B + I
        return normalized_counts(b), h0[np.unique(cls, return_index=True)[1]], s

    def forward(self, params, inputs, train: bool = False, rng=None) -> tuple[float, GcnActivations]:
        ahat, h, s = inputs
        p, q = [], []
        for name in _LAYERS:
            p.append(ahat @ h)
            q.append(p[-1] @ params[name])
            h = relu(q[-1])
        z = (s[:, None] * h).sum(axis=0) / s.sum()
        return self._readout(params, z), GcnActivations(ahat, p, q, z, s)

    def backward(self, params, acts: GcnActivations, dy: float) -> dict[str, np.ndarray]:
        """Gradients of dy * yhat's upstream loss term for one graph."""
        grads, dh = self._readout_backward(params, acts.z, acts.s.sum(), dy)
        for layer, name in reversed(list(enumerate(_LAYERS))):
            dq = relu_grad(acts.q[layer]) * dh
            grads[name] = acts.p[layer].T @ (acts.s[:, None] * dq)
            if layer > 0:
                dh = acts.ahat @ (dq @ params[name].T)
        return grads
