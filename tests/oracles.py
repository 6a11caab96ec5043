"""Independent reference implementations used only by tests.

Each routine here is deliberately a different algorithm from the one in the
package (Jacobi rotations vs power iteration, path enumeration vs Brandes,
linear solve vs fixed-point iteration, per-node loops vs segment operations,
dense matrix products vs CSR edge arrays). The GCN reference is the same
algorithm with its layers written out instead of looped, so agreement there
is checked bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-30:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)
    return eigvals[order], v[:, order]


def principal_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Leading eigenvalue and unit eigenvector (sign fixed to positive sum)."""
    vals, vecs = jacobi_eigh(a)
    vec = vecs[:, -1]
    if vec.sum() < 0:
        vec = -vec
    return float(vals[-1]), vec


def adjacency_matrix(g) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix, float64, built from ``g.edges``."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def canonical_edges(pairs) -> tuple[tuple[int, int], ...]:
    """An undirected edge list in the form ``Graph`` stores: sorted ``(min, max)`` pairs."""
    return tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))


def adjacency_lists(g) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples, one per node, built from ``g.edges``."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    return tuple(tuple(sorted(a)) for a in adj)


def all_pairs_shortest_paths(adj: list[tuple[int, ...]]) -> dict[tuple[int, int], list[list[int]]]:
    """Every shortest path between every ordered pair, by BFS layering + DFS."""
    n = len(adj)
    out: dict[tuple[int, int], list[list[int]]] = {}
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt

        def paths_to(t: int) -> list[list[int]]:
            if t == s:
                return [[s]]
            acc = []
            for w in adj[t]:
                if dist[w] == dist[t] - 1:
                    acc.extend(p + [t] for p in paths_to(w))
            return acc

        for t in range(n):
            if t != s and dist[t] > 0:
                out[(s, t)] = paths_to(t)
    return out


def betweenness_by_enumeration(adj: list[tuple[int, ...]]) -> np.ndarray:
    """Pair-normalized betweenness by explicitly enumerating shortest paths."""
    n = len(adj)
    paths = all_pairs_shortest_paths(adj)
    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            plist = paths.get((s, t))
            if not plist:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in plist if v in p[1:-1])
                bc[v] += through / len(plist)
    norm = (n - 1) * (n - 2) / 2.0
    return bc / norm if n > 2 else bc


def closeness_by_bfs(adj: list[tuple[int, ...]]) -> np.ndarray:
    """Closeness (n-1) / sum of distances, by one BFS per source."""
    n = len(adj)
    out = np.zeros(n)
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) != n:
            raise ValueError("closeness needs a connected graph")
        if n > 1:
            out[s] = (n - 1) / sum(dist.values())
    return out


def clustering_by_enumeration(adj: list[tuple[int, ...]]) -> np.ndarray:
    """Clustering coefficient by checking every neighbor pair directly."""
    n = len(adj)
    sets = [set(a) for a in adj]
    out = np.zeros(n)
    for v in range(n):
        nb = adj[v]
        if len(nb) < 2:
            continue
        closed = sum(1 for u, w in combinations(nb, 2) if w in sets[u])
        out[v] = closed / (len(nb) * (len(nb) - 1) / 2)
    return out


def pagerank_by_solve(adj_matrix: np.ndarray, damping: float = 0.85) -> np.ndarray:
    """PageRank as the exact solution of (I - d M) p = (1-d)/n, M = A D^-1."""
    n = adj_matrix.shape[0]
    deg = adj_matrix.sum(axis=1)
    m = adj_matrix / deg[None, :]
    p = np.linalg.solve(np.eye(n) - damping * m, np.full(n, (1.0 - damping) / n))
    return p


def clustering_dense(a: np.ndarray) -> np.ndarray:
    """Clustering coefficient from the dense adjacency: triangles are diag(A^3)/2."""
    triangles = ((a @ a) * a).sum(axis=1) / 2.0
    deg = a.sum(axis=1)
    pairs = deg * (deg - 1.0) / 2.0
    out = np.zeros(a.shape[0])
    mask = pairs > 0.0
    out[mask] = triangles[mask] / pairs[mask]
    return out


def pagerank_dense(a: np.ndarray, damping: float = 0.85, tol: float = 1e-10) -> np.ndarray:
    """PageRank by the fixed-point iteration p <- (1-d)/n + d A (p / deg) with dense matvecs."""
    n = a.shape[0]
    deg = a.sum(axis=1)
    p = np.full(n, 1.0 / n)
    while True:
        p_new = (1.0 - damping) / n + damping * (a @ (p / deg))
        if float(np.abs(p_new - p).sum()) <= tol:
            return p_new
        p = p_new


def avg_neighbor_degree_dense(a: np.ndarray) -> np.ndarray:
    """Mean neighbor degree (A deg) / deg from the dense adjacency; 0 for isolated nodes."""
    deg = a.sum(axis=1)
    out = np.zeros(a.shape[0])
    mask = deg > 0
    out[mask] = (a @ deg)[mask] / deg[mask]
    return out


def colour_refinement(adj: list[tuple[int, ...]], colours) -> list[int]:
    """Coarsest equitable partition refining ``colours`` by naive 1-WL.

    Each round gives node u the signature (colour, sorted neighbour colours)
    and numbers the distinct signatures by first appearance, until the class
    count stops growing; classes come out numbered by their smallest node.
    """
    def number(keys):
        seen: dict = {}
        return [seen.setdefault(key, len(seen)) for key in keys]

    colour = number(colours)
    while True:
        refined = number((colour[u], tuple(sorted(colour[v] for v in adj[u]))) for u in range(len(adj)))
        if max(refined) == max(colour):
            return refined
        colour = refined


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; invariant to a constant shift."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def attention_scores(wh_i: np.ndarray, wh_j: np.ndarray, a: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """Raw GAT score e_ij = LeakyReLU(a . [wh_i || wh_j]) for one or many row pairs."""
    wh_i = np.asarray(wh_i, dtype=np.float64)
    wh_j = np.asarray(wh_j, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    f = wh_i.shape[-1]
    if a.shape != (2 * f,):
        raise ValueError(f"attention vector must have length {2 * f}, got {a.shape}")
    x = np.concatenate([wh_i, wh_j], axis=-1) @ a
    return np.where(x > 0.0, x, slope * x)


def attention_neighborhoods(adj: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GAT edge arrays (tgt, nbr, starts) by a per-node loop.

    Every node attends to its sorted neighborhood plus itself; pairs are
    grouped by target.
    """
    tgt: list[int] = []
    nbr: list[int] = []
    starts: list[int] = []
    for i, hood in enumerate(adj):
        starts.append(len(tgt))
        for j in sorted(hood + (i,)):
            tgt.append(i)
            nbr.append(j)
    return tuple(np.array(x, dtype=np.int64) for x in (tgt, nbr, starts))


def gcn_straight_line(
    params: dict, ahat: np.ndarray, h0: np.ndarray, s: np.ndarray, dy: float
) -> tuple[float, dict]:
    """Three-layer GCN prediction and gradients, each layer written out line by line.

    Row i of ``ahat`` and ``h0`` stands for ``s[i]`` nodes; all ones is the
    per-node network. Same evaluation order as the package's layer loop, so
    the two agree bit for bit: ``yhat`` and the gradients of ``dy * yhat``.
    """
    def relu(x):
        return np.maximum(x, 0.0)

    def relu_grad(x):
        return (x > 0.0).astype(np.float64)

    p1 = ahat @ h0
    q1 = p1 @ params["w0"]
    p2 = ahat @ relu(q1)
    q2 = p2 @ params["w1"]
    p3 = ahat @ relu(q2)
    q3 = p3 @ params["w2"]
    z = (s[:, None] * relu(q3)).sum(axis=0) / s.sum()
    yhat = float(z @ params["w_lin"][:, 0] + params["b"])
    dz = dy * params["w_lin"][:, 0]
    dq3 = relu_grad(q3) * (dz / s.sum())[None, :]
    dw2 = p3.T @ (s[:, None] * dq3)
    dq2 = relu_grad(q2) * (ahat @ (dq3 @ params["w2"].T))
    dw1 = p2.T @ (s[:, None] * dq2)
    dq1 = relu_grad(q1) * (ahat @ (dq2 @ params["w1"].T))
    dw0 = p1.T @ (s[:, None] * dq1)
    return yhat, {"w0": dw0, "w1": dw1, "w2": dw2, "w_lin": dy * z[:, None], "b": np.array(dy)}


def per_graph_batch_step(model, params: dict, inputs_list, targets: np.ndarray, kind) -> tuple[float, dict]:
    """Loss and summed gradients of a batch, one ``forward`` and ``backward`` per graph in batch order.

    ``batch_step`` groups graphs before it runs them; this loop is what the
    groups must add up to.
    """
    from netloc.kernels import loss, loss_grad

    preds = np.empty(len(inputs_list))
    grads = {name: np.zeros_like(params[name]) for name in model.param_names}
    for k, inp in enumerate(inputs_list):
        preds[k], acts = model.forward(params, inp)
        dy = loss_grad(preds[k : k + 1], targets[k : k + 1], kind)[0] / len(inputs_list)
        g = model.backward(params, acts, float(dy))
        for name in model.param_names:
            grads[name] += g[name]
    return loss(preds, targets, kind), grads


def ipr_direct(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=np.float64)
    return float(np.sum(v**4) / np.sum(v**2) ** 2)


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g
