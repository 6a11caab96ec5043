"""Two-layer graph attention regressor with hand-written backprop.

Layer 1 runs ``heads`` independent attention heads (feature width f1 each) and
concatenates them; layer 2 is a single head of width f2. Attention follows the
standard recipe: for j in N(i) plus the self loop,

    e_ij    = LeakyReLU(a . [W h_i || W h_j])        (slope 0.2)
    alpha_i = softmax over e_i.
    h'_i    = relu(sum_j alpha_ij W h_j)

In train mode, dropout is applied to each layer's input features and to the
normalized attention weights; eval mode is deterministic.

Neighborhoods are the graph's self-looped pairs, ``Graph.loops``, grouped by
target node, so the softmax is a numpy segment operation rather than a
per-node loop. Aggregation then propagates through the attention matrix, as
GCN does through its normalized adjacency, which is built on the same pairs:
``Graph.dense`` scatters the weights into a dense ``(heads, n, n)`` matrix P,
and ``P @ Wh`` is one batched matmul per layer, at O(heads * n^2 * f) per
graph. Layer 1's heads run stacked as one ``(n, heads, f1)`` tensor through
the same attention sublayer that layer 2 runs with one head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .kernels import glorot_init, leaky_relu, leaky_relu_grad, relu, relu_grad
from .models import GraphRegressor

__all__ = ["GatInputs", "GatActivations", "GAT"]


@dataclass
class GatInputs:
    """One graph's features and its self-looped neighborhoods, ``graph.loops``.

    ``tgt``/``nbr`` list every directed pair (i attends to j) grouped by i,
    and ``starts`` holds each node's segment start. The segment softmax and
    the attention dropout run over these pairs; ``graph.dense`` then places
    the weights in a dense ``(heads, n, n)`` attention matrix, so aggregation
    costs O(heads * n^2 * f) whatever the edge count.
    """

    graph: Graph
    h0: np.ndarray
    tgt: np.ndarray
    nbr: np.ndarray
    starts: np.ndarray


@dataclass
class AttnCache:
    """One attention sublayer's intermediates for one forward pass.

    Node arrays are ``(n, heads, f)`` or ``(n, heads)``, edge arrays
    ``(E, heads)``; ``p`` is the ``(heads, n, n)`` attention matrix after
    dropout, as aggregation used it.
    """

    wh: np.ndarray
    pre: np.ndarray
    alpha: np.ndarray
    amask: np.ndarray | None
    p: np.ndarray
    s: np.ndarray


@dataclass
class GatActivations:
    """What backward reads: each layer's input after dropout, and layer 2's mask."""

    inputs: GatInputs
    h0d: np.ndarray
    heads: AttnCache
    mask1: np.ndarray | None
    h1in: np.ndarray
    layer2: AttnCache
    z: np.ndarray

    @property
    def kinks(self) -> list[np.ndarray]:
        return [self.heads.pre, self.heads.s, self.layer2.pre, self.layer2.s]


class GAT(GraphRegressor):
    """d -> heads x f1 (concat) -> f2 -> scalar head, dropout rate ``dropout``.

    The head bias starts at ``bias_init`` (default 0.15) rather than zero.
    This model is normally fit with the log-space loss, which has no gradient
    once a prediction falls below the positivity floor; a small positive
    starting bias keeps early predictions inside the loss's live range.
    """

    kind = "gat"

    def __init__(self, d: int, heads: int, f1: int, f2: int, dropout: float, bias_init: float = 0.15):
        if min(d, heads, f1, f2) < 1:
            raise ValueError(f"widths must be positive, got {(d, heads, f1, f2)}")
        if not (0.0 <= dropout < 1.0):
            raise ValueError(f"dropout must lie in [0,1), got {dropout}")
        if not np.isfinite(bias_init):
            raise ValueError(f"bias_init must be finite, got {bias_init}")
        self.d = d
        self.heads = heads
        self.f1 = f1
        self.f2 = f2
        self.dropout = dropout
        self.bias_init = float(bias_init)
        self._w1_names = tuple(f"w1h{h}" for h in range(heads))
        self._a1_names = tuple(f"a1h{h}" for h in range(heads))
        self.param_names = sum(zip(self._w1_names, self._a1_names), ()) + ("w2", "a2", "w_lin", "b")

    def widths(self) -> dict:
        return {
            "d": self.d,
            "heads": self.heads,
            "f1": self.f1,
            "f2": self.f2,
            "dropout": self.dropout,
            "bias_init": self.bias_init,
        }

    def init_params(self, seed: int | np.random.Generator) -> dict[str, np.ndarray]:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for h in range(self.heads):
            params[f"w1h{h}"] = glorot_init(self.d, self.f1, rng)
            params[f"a1h{h}"] = glorot_init(2 * self.f1, 1, rng).ravel()
        params["w2"] = glorot_init(self.heads * self.f1, self.f2, rng)
        params["a2"] = glorot_init(2 * self.f2, 1, rng).ravel()
        params["w_lin"] = glorot_init(self.f2, 1, rng)
        params["b"] = np.full((), self.bias_init)
        return params

    def prepare(self, graph: Graph, h0: np.ndarray) -> GatInputs:
        return GatInputs(graph, self._checked_features(graph, h0), *graph.loops)

    def _attend(self, wh, a, inputs: GatInputs, train: bool, rng, keep: float) -> AttnCache:
        """Attention sublayer over ``wh`` of shape (n, heads, f), ``a`` of shape (heads, 2f)."""
        f = wh.shape[2]
        u = np.einsum("nhf,hf->nh", wh, a[:, :f])
        v = np.einsum("nhf,hf->nh", wh, a[:, f:])
        pre = u[inputs.tgt] + v[inputs.nbr]
        e = leaky_relu(pre)
        mx = np.maximum.reduceat(e, inputs.starts)
        ex = np.exp(e - mx[inputs.tgt])
        denom = np.add.reduceat(ex, inputs.starts)
        alpha = ex / denom[inputs.tgt]
        if train and self.dropout > 0.0:
            # One (heads, E) draw takes the rng stream in head-by-head order.
            amask = (rng.random(alpha.shape[::-1]) < keep).T
            alpha_used = alpha * amask / keep
        else:
            amask = None
            alpha_used = alpha
        p = inputs.graph.dense(alpha_used.T)
        s = np.matmul(p, wh.transpose(1, 0, 2)).transpose(1, 0, 2)
        return AttnCache(wh=wh, pre=pre, alpha=alpha, amask=amask, p=p, s=s)

    def _attend_backward(self, cache: AttnCache, a, ds, inputs: GatInputs, keep: float):
        """Gradients of one attention sublayer: returns (d_wh, d_a)."""
        tgt, nbr, starts = inputs.tgt, inputs.nbr, inputs.starts
        # S = P @ Wh per head, so dP = dS @ Wh^T read at the pairs and dWh = P^T @ dS.
        ds_h = ds.transpose(1, 0, 2)
        dalpha = np.matmul(ds_h, cache.wh.transpose(1, 2, 0))[:, tgt, nbr].T
        if cache.amask is not None:
            dalpha = dalpha * cache.amask / keep
        dwh = np.matmul(cache.p.transpose(0, 2, 1), ds_h).transpose(1, 0, 2)
        # Softmax Jacobian per neighborhood: de = alpha * (dalpha - <alpha, dalpha>).
        seg_dot = np.add.reduceat(cache.alpha * dalpha, starts)
        de = cache.alpha * (dalpha - seg_dot[tgt])
        dpre = inputs.graph.dense((de * leaky_relu_grad(cache.pre)).T)
        # pre = u[tgt] + v[nbr]: u collects the rows of dpre, v its columns.
        du, dv = dpre.sum(axis=2).T, dpre.sum(axis=1).T
        f = cache.wh.shape[2]
        da = np.concatenate([np.einsum("nhf,nh->hf", cache.wh, d) for d in (du, dv)], axis=1)
        dwh = dwh + du[:, :, None] * a[:, :f] + dv[:, :, None] * a[:, f:]
        return dwh, da

    def forward(self, params, inputs: GatInputs, train: bool = False, rng=None) -> tuple[float, GatActivations]:
        if train and self.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        keep = 1.0 - self.dropout
        drop = train and self.dropout > 0.0
        n = inputs.graph.n
        h0d = inputs.h0 * (rng.random(inputs.h0.shape) < keep) / keep if drop else inputs.h0
        w1 = np.concatenate([params[k] for k in self._w1_names], axis=1)
        a1 = np.stack([params[k] for k in self._a1_names])
        heads = self._attend((h0d @ w1).reshape(n, self.heads, self.f1), a1, inputs, train, rng, keep)
        h1c = relu(heads.s).reshape(n, self.heads * self.f1)
        mask1 = rng.random(h1c.shape) < keep if drop else None
        h1in = h1c * mask1 / keep if drop else h1c
        wh2 = (h1in @ params["w2"]).reshape(n, 1, self.f2)
        layer2 = self._attend(wh2, params["a2"][None, :], inputs, train, rng, keep)
        yhat, z = self._readout(params, relu(layer2.s[:, 0]))
        return yhat, GatActivations(inputs, h0d, heads, mask1, h1in, layer2, z)

    def backward(self, params, acts: GatActivations, dy: float) -> dict[str, np.ndarray]:
        inputs = acts.inputs
        keep = 1.0 - self.dropout
        n = inputs.graph.n
        grads, dh2 = self._readout_backward(params, acts.z, n, dy)
        ds2 = relu_grad(acts.layer2.s) * dh2
        dwh2, da2 = self._attend_backward(acts.layer2, params["a2"][None, :], ds2, inputs, keep)
        dwh2 = dwh2[:, 0]
        dw2 = acts.h1in.T @ dwh2
        dh1in = dwh2 @ params["w2"].T
        dh1c = dh1in if acts.mask1 is None else dh1in * acts.mask1 / keep
        ds1 = relu_grad(acts.heads.s) * dh1c.reshape(acts.heads.s.shape)
        a1 = np.stack([params[k] for k in self._a1_names])
        dwh1, da1 = self._attend_backward(acts.heads, a1, ds1, inputs, keep)
        dw1 = acts.h0d.T @ dwh1.reshape(n, self.heads * self.f1)
        grads.update(w2=dw2, a2=da2[0])
        grads.update(zip(self._w1_names, np.split(dw1, self.heads, axis=1)))
        grads.update(zip(self._a1_names, da1))
        return grads
