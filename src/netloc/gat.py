"""Two-layer graph attention regressor with hand-written backprop.

Layer 1 runs ``heads`` independent attention heads (feature width f1 each) and
concatenates them; layer 2 is a single head of width f2. Attention follows the
standard recipe: for j in N(i) plus the self loop,

    e_ij    = LeakyReLU(a . [W h_i || W h_j])        (slope 0.2)
    alpha_i = softmax over e_i.
    h'_i    = relu(sum_j alpha_ij W h_j)

In train mode, dropout is applied to each layer's input features and to the
normalized attention weights; eval mode is deterministic.

``prepare`` returns ``(graph, h0)``. Neighborhoods are the graph's self-looped
pairs, ``Graph.loops``, grouped by target node, so the softmax is a numpy
segment operation rather than a per-node loop. Aggregation then propagates
through the attention matrix, as GCN does through its normalized adjacency,
which is built on the same pairs: ``Graph.dense`` scatters the weights into a
dense ``(heads, n, n)`` matrix P, and ``P @ Wh`` is one batched matmul per
layer, at O(heads * n^2 * f) per graph. Both layers run one loop over a table
of (weight names, attention names): a layer's heads run stacked as one
``(n, heads, f)`` tensor, and backward runs the same loop in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .kernels import glorot_init, leaky_relu, leaky_relu_grad, mean_pool, relu, relu_grad
from .models import GraphRegressor

__all__ = ["GatActivations", "GAT"]


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
    """What backward reads, per layer: its input after dropout, the dropout mask and the attention cache."""

    graph: Graph
    inputs: list[np.ndarray]
    masks: list[np.ndarray | None]
    attn: list[AttnCache]
    z: np.ndarray

    @property
    def kinks(self) -> list[np.ndarray]:
        return [a for cache in self.attn for a in (cache.pre, cache.s)]


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
        # Per layer: each head's weight name, then each head's attention name.
        self._layers = (
            (tuple(f"w1h{h}" for h in range(heads)), tuple(f"a1h{h}" for h in range(heads))),
            (("w2",), ("a2",)),
        )
        self.param_names = sum((sum(zip(*layer), ()) for layer in self._layers), ()) + ("w_lin", "b")

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

    def prepare(self, graph: Graph, h0: np.ndarray) -> tuple[Graph, np.ndarray]:
        return graph, self._checked_features(graph, h0)

    def _attend(self, wh, a, graph: Graph, train: bool, rng, keep: float) -> AttnCache:
        """Attention sublayer over ``wh`` of shape (n, heads, f), ``a`` of shape (heads, 2f)."""
        tgt, nbr, starts = graph.loops
        f = wh.shape[2]
        u = np.einsum("nhf,hf->nh", wh, a[:, :f])
        v = np.einsum("nhf,hf->nh", wh, a[:, f:])
        pre = u[tgt] + v[nbr]
        e = leaky_relu(pre)
        mx = np.maximum.reduceat(e, starts)
        ex = np.exp(e - mx[tgt])
        denom = np.add.reduceat(ex, starts)
        alpha = ex / denom[tgt]
        if train and self.dropout > 0.0:
            # One (heads, E) draw takes the rng stream in head-by-head order.
            amask = (rng.random(alpha.shape[::-1]) < keep).T
            alpha_used = alpha * amask / keep
        else:
            amask = None
            alpha_used = alpha
        p = graph.dense(alpha_used.T)
        s = np.matmul(p, wh.transpose(1, 0, 2)).transpose(1, 0, 2)
        return AttnCache(wh=wh, pre=pre, alpha=alpha, amask=amask, p=p, s=s)

    def _attend_backward(self, cache: AttnCache, a, ds, graph: Graph, keep: float):
        """Gradients of one attention sublayer: returns (d_wh, d_a)."""
        tgt, nbr, starts = graph.loops
        # S = P @ Wh per head, so dP = dS @ Wh^T read at the pairs and dWh = P^T @ dS.
        ds_h = ds.transpose(1, 0, 2)
        dalpha = np.matmul(ds_h, cache.wh.transpose(1, 2, 0))[:, tgt, nbr].T
        if cache.amask is not None:
            dalpha = dalpha * cache.amask / keep
        dwh = np.matmul(cache.p.transpose(0, 2, 1), ds_h).transpose(1, 0, 2)
        # Softmax Jacobian per neighborhood: de = alpha * (dalpha - <alpha, dalpha>).
        seg_dot = np.add.reduceat(cache.alpha * dalpha, starts)
        de = cache.alpha * (dalpha - seg_dot[tgt])
        dpre = graph.dense((de * leaky_relu_grad(cache.pre)).T)
        # pre = u[tgt] + v[nbr]: u collects the rows of dpre, v its columns.
        du, dv = dpre.sum(axis=2).T, dpre.sum(axis=1).T
        f = cache.wh.shape[2]
        da = np.concatenate([np.einsum("nhf,nh->hf", cache.wh, d) for d in (du, dv)], axis=1)
        dwh = dwh + du[:, :, None] * a[:, :f] + dv[:, :, None] * a[:, f:]
        return dwh, da

    def forward(self, params, inputs, train: bool = False, rng=None) -> tuple[float, GatActivations]:
        if train and self.dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        graph, h = inputs
        keep = 1.0 - self.dropout
        drop = train and self.dropout > 0.0
        xs, masks, attn = [], [], []
        for w_names, a_names in self._layers:
            masks.append(rng.random(h.shape) < keep if drop else None)
            xs.append(h * masks[-1] / keep if drop else h)
            w = np.concatenate([params[k] for k in w_names], axis=1)
            a = np.stack([params[k] for k in a_names])
            attn.append(self._attend((xs[-1] @ w).reshape(graph.n, len(w_names), -1), a, graph, train, rng, keep))
            h = relu(attn[-1].s).reshape(graph.n, -1)
        z = mean_pool(h)
        return self._readout(params, z), GatActivations(graph, xs, masks, attn, z)

    def backward(self, params, acts: GatActivations, dy: float) -> dict[str, np.ndarray]:
        graph = acts.graph
        keep = 1.0 - self.dropout
        grads, dh = self._readout_backward(params, acts.z, graph.n, dy)
        for layer in reversed(range(len(self._layers))):
            w_names, a_names = self._layers[layer]
            cache, mask = acts.attn[layer], acts.masks[layer]
            # The readout's dh is one row that every node shares; a layer's dh has a row per node.
            ds = relu_grad(cache.s) * dh.reshape((-1,) + cache.s.shape[1:])
            a = np.stack([params[k] for k in a_names])
            dwh, da = self._attend_backward(cache, a, ds, graph, keep)
            dwh = dwh.reshape(graph.n, -1)
            grads.update(zip(w_names, np.split(acts.inputs[layer].T @ dwh, len(w_names), axis=1)))
            grads.update(zip(a_names, da))
            if layer > 0:
                dh = dwh @ np.concatenate([params[k] for k in w_names], axis=1).T
                dh = dh if mask is None else dh * mask / keep
        return grads
