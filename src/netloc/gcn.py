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

The same lines run over leading batch axes: one prepared graph, (Ahat, H0, s)
of shapes (k, k), (k, d) and (k,), or a stack of G graphs with equal k,
shaped (G, k, k), (G, k, d) and (G, k). On a stack yhat and dL/dyhat are
(G,) vectors, and each weight gradient is one 2-D product over the stack's
G*k rows. ``batch_step`` trains on such stacks (:meth:`GCN._groups`): graphs
of equal k, at most cap // k to a stack, where cap is the batch's largest
node count, so no stack has more rows than a per-node pass over that graph.
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
    """What backward reads of one forward pass, over one graph or a stack; ``p[l - 1]`` and
    ``q[l - 1]`` hold P(l) and Q(l)."""

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
    width_names = ("d", "k0", "k1", "k2")

    def __init__(self, d: int, k0: int, k1: int, k2: int):
        if min(d, k0, k1, k2) < 1:
            raise ValueError(f"widths must be positive, got {(d, k0, k1, k2)}")
        self.d, self.k0, self.k1, self.k2 = d, k0, k1, k2

    def init_params(self, seed: int | np.random.Generator) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
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

    def forward(self, params, inputs, train: bool = False, rng=None) -> tuple[float | np.ndarray, GcnActivations]:
        """``yhat`` of one prepared graph, or a ``(G,)`` vector of a stack of G with equal k."""
        ahat, h, s = inputs
        p, q = [], []
        for name in _LAYERS:
            p.append(ahat @ h)
            q.append(p[-1] @ params[name])
            h = relu(q[-1])
        yhat, z = self._readout(params, h, s)
        return yhat, GcnActivations(ahat, p, q, z, s)

    def backward(self, params, acts: GcnActivations, dy) -> dict[str, np.ndarray]:
        """Gradients of dy * yhat's upstream loss terms, summed over a stack's graphs."""
        grads, dh = self._readout_backward(params, acts.z, acts.s.sum(axis=-1), dy)
        dh = dh[..., None, :]
        for layer, name in reversed(list(enumerate(_LAYERS))):
            dq = relu_grad(acts.q[layer]) * dh
            p, sdq = acts.p[layer], acts.s[..., None] * dq
            grads[name] = p.reshape(-1, p.shape[-1]).T @ sdq.reshape(-1, sdq.shape[-1])
            if layer > 0:
                dh = acts.ahat @ (dq @ params[name].T)
        return grads

    def _groups(self, inputs_list):
        """Stacks of prepared graphs with equal k, at most cap // k graphs each, cap
        being the batch's largest node count: no group has more rows than that graph."""
        by_k: dict[int, list[int]] = {}
        for i, (_, _, s) in enumerate(inputs_list):
            by_k.setdefault(s.size, []).append(i)
        # np.array stacks arrays of one shape as np.stack does, at half its cost on small ones.
        sizes = {k: np.array([inputs_list[i][2] for i in members]) for k, members in by_k.items()}
        cap = max(int(s.sum(axis=1).max()) for s in sizes.values())
        for k, members in by_k.items():
            step = cap // k
            for start in range(0, len(members), step):
                idx = members[start : start + step]
                ahat = np.array([inputs_list[i][0] for i in idx])
                h0 = np.array([inputs_list[i][1] for i in idx])
                yield idx, (ahat, h0, sizes[k][start : start + step])
