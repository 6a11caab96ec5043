"""Structural node features and the fixed 7-column feature matrix.

Column order is frozen by ``FEATURE_COLUMNS``; every column is min-max scaled
to [0, 1] per graph (constant columns become all zeros) so feature magnitudes
are comparable across graph sizes.

Every column reads the cached CSR arrays of :class:`Graph`; none builds an
n x n matrix. Degree columns are O(n), average neighbor degree O(m), PageRank
O(m) per iteration, clustering O(m^1.5), and betweenness with closeness one
fused O((n - p) m) BFS pass for p pendant vertices. Working memory is O(m)
plus ``_BLOCK_PAIRS`` blocks.

A pendant vertex l (degree 1) whose neighbor a has degree > 1 is never a BFS
source, since three exact identities give its share from a's sweep:

- l's distance sum is T(a) + n - 2, or -1 when T(a) is -1;
- l's Brandes dependency on every node other than a equals a's;
- l's dependency on a is c(a) - 2, where c(a) is the size of a's component.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .spectral import ConvergenceError

__all__ = [
    "FEATURE_COLUMNS",
    "clustering_coefficient",
    "pagerank",
    "degree_centrality",
    "betweenness_centrality",
    "closeness_centrality",
    "avg_neighbor_degree",
    "build_feature_matrix",
]

FEATURE_COLUMNS = (
    "clustering",
    "pagerank",
    "degree_centrality",
    "betweenness",
    "closeness",
    "degree",
    "avg_neighbor_degree",
)


# The BFS pass sweeps sources in blocks of at most this many (source, node)
# pairs, and clustering checks candidate triangles in blocks of about as many.
# That bounds working memory (about 50 MB at mean degree 8) for any n; graphs
# of up to 512 nodes take a single BFS block.
_BLOCK_PAIRS = 1 << 18

_DAMPING = 0.85
_PAGERANK_TOL = 1e-10
_PAGERANK_MAX_ITER = 10000


def clustering_coefficient(g: Graph) -> np.ndarray:
    """Fraction of closed neighbor pairs per node; 0 for degree < 2.

    Triangles come from the degree-ordered edge iterator (Chiba & Nishizeki
    1985; Schank & Wagner 2005): with edges pointing up the (degree, id) rank,
    each triangle is the one pair w < x of out(u) with an edge w -> x. Out-degrees
    are at most sqrt(2m), so this is O(m^1.5) time and O(m) memory; integer
    counts make it exact.
    """
    n, (_, indices), rows = g.n, g.csr, g.csr_rows
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), g.degrees))] = np.arange(n)
    # Oriented edges u -> w between ranks, as sorted keys u*n + w: out(u) is one ascending run.
    keys = np.sort((rank[rows] * n + rank[indices])[rank[rows] < rank[indices]])
    u, w = np.divmod(keys, n)
    outdeg = np.bincount(u, minlength=n)
    stop = np.cumsum(outdeg)
    by_rank = np.zeros(n)
    width = max(1, _BLOCK_PAIRS // max(1, int(outdeg.max())))
    for lo in range(0, keys.size, width):
        # Edge p = u -> w pairs with each later x of out(u), so w < x.
        e = np.arange(lo, min(lo + width, keys.size))
        counts = stop[u[e]] - e - 1
        p = np.repeat(e, counts)
        ends = np.cumsum(counts)
        x = w[p + 1 + np.arange(ends[-1]) - (ends - counts)[p - lo]]
        q = w[p] * n + x
        hit = keys[np.minimum(np.searchsorted(keys, q), keys.size - 1)] == q
        by_rank += np.bincount(np.concatenate([u[p[hit]], w[p[hit]], x[hit]]), minlength=n)
    triangles = by_rank[rank]
    deg = g.degrees.astype(np.float64)
    pairs = deg * (deg - 1.0) / 2.0
    out = np.zeros(n)
    mask = pairs > 0.0
    out[mask] = triangles[mask] / pairs[mask]
    return out


def pagerank(g: Graph) -> np.ndarray:
    """Damped random-walk stationary scores; entries sum to 1.

    Iterates p <- (1-d)/n + d * A (p / deg) with d = 0.85 until the L1 change
    is at most 1e-10, one O(m) sum over the CSR rows per step. Needs every
    node to have at least one neighbor (or n == 1).
    """
    if g.n == 1:
        return np.ones(1)
    deg = g.degrees.astype(np.float64)
    if np.any(deg == 0):
        raise ValueError("pagerank needs every node to have degree >= 1")
    _, indices = g.csr
    p = np.full(g.n, 1.0 / g.n)
    teleport = (1.0 - _DAMPING) / g.n
    for _ in range(_PAGERANK_MAX_ITER):
        p_new = teleport + _DAMPING * np.bincount(g.csr_rows, weights=(p / deg)[indices], minlength=g.n)
        if float(np.abs(p_new - p).sum()) <= _PAGERANK_TOL:
            return p_new
        p = p_new
    raise ConvergenceError(
        f"pagerank did not converge to {_PAGERANK_TOL} in {_PAGERANK_MAX_ITER} iterations",
        residual=float(np.abs(p_new - p).sum()),
        iterations=_PAGERANK_MAX_ITER,
    )


def degree_centrality(g: Graph) -> np.ndarray:
    """Degree divided by n-1 (zeros for the single-node graph); O(n)."""
    if g.n == 1:
        return np.zeros(1)
    return g.degrees.astype(np.float64) / (g.n - 1)


def _shortest_paths(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Pair-normalized betweenness and each source's sum of BFS distances.

    A source's sum is -1 when some node is unreachable from it. The raw
    Brandes sum over all sources counts each unordered pair twice, so it is
    halved and then divided by (n-1)(n-2)/2.

    Only non-pendant sources are swept. A pendant l (degree 1, its neighbor a
    of degree > 1) has distance sum T(a) + n - 2 (-1 if T(a) is -1), the same
    dependency as a on every node but a, and dependency c(a) - 2 on a, with
    c(a) the size of a's component. So a's dependency row counts once for a
    and once for each of its pendants, and each pendant adds c(a) - 2 to a.
    Two adjacent degree-1 nodes (a K2 component) are both swept.
    """
    n = g.n
    indptr, indices = g.csr
    deg = g.degrees
    leaves = np.flatnonzero(deg == 1)
    hubs = indices[indptr[leaves]]
    pendants, anchors = leaves[deg[hubs] > 1], hubs[deg[hubs] > 1]
    folded = np.bincount(anchors, minlength=n)
    swept = np.setdiff1d(np.arange(n), pendants)
    width = max(1, _BLOCK_PAIRS // n)
    bc = np.zeros(n)
    totals = np.empty(n, dtype=np.int64)
    for lo in range(0, swept.size, width):
        sources = swept[lo : lo + width]
        block_bc, totals[sources] = _sweep(indptr, indices, deg, sources, folded[sources])
        bc += block_bc
    totals[pendants] = np.where(totals[anchors] < 0, -1, totals[anchors] + n - 2)
    if n < 3:
        return np.zeros(n), totals
    return bc / 2.0 / ((n - 1) * (n - 2) / 2.0), totals


def _sweep(
    indptr: np.ndarray, indices: np.ndarray, deg: np.ndarray, sources: np.ndarray, folded: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brandes dependencies summed over ``sources``, and each source's distance sum.

    One level-synchronous breadth-first search runs from every source at once.
    Each (source, node) pair is the flat index ``row*n + v`` into arrays of
    len(sources)*n, and each level expands the frontiers of all sources in one
    gather over the CSR edge arrays. The reverse sweep walks the stored levels
    backwards and accumulates Brandes (2001) dependencies.

    A source with ``folded`` pendants stands for them too: its dependency row
    counts 1 + folded times, and it gains folded * (c - 2) for its component
    of c nodes.
    """
    n = deg.size
    pairs = sources.size * n
    dist = np.full(pairs, -1, dtype=np.int64)
    sigma = np.zeros(pairs)
    owner = np.empty(pairs, dtype=np.int64)
    node = sources
    frontier = np.arange(sources.size) * n + sources
    dist[frontier] = 0
    sigma[frontier] = 1.0
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    depth = 0
    while frontier.size:
        # One candidate per (frontier pair, neighbor); p is its frontier position.
        counts = deg[node]
        p = np.repeat(np.arange(frontier.size), counts)
        ends = np.cumsum(counts)
        nbr = indices[np.arange(ends[-1]) + (indptr[node] + counts - ends)[p]]
        child = (frontier - node)[p] + nbr
        fresh = dist[child] < 0
        parent, child, nbr = frontier[p[fresh]], child[fresh], nbr[fresh]
        # Several parents can reach one pair. Each candidate writes its
        # position and reads it back, so exactly one survives per pair in
        # O(k); np.unique would hash or sort.
        k = np.arange(child.size)
        owner[child] = k
        first = owner[child] == k
        depth += 1
        frontier, node = child[first], nbr[first]
        dist[frontier] = depth
        np.add.at(sigma, child, sigma[parent])
        levels.append((parent, child))

    delta = np.zeros(pairs)
    # Edges out of the sources are skipped: a source gains no dependency on itself.
    for parent, child in reversed(levels[1:]):
        np.add.at(delta, parent, sigma[parent] * ((1.0 + delta[child]) / sigma[child]))
    dist = dist.reshape(sources.size, n)
    totals = np.where(np.any(dist < 0, axis=1), -1, dist.sum(axis=1))
    rows = delta.reshape(sources.size, n)
    bc = ((1.0 + folded)[:, None] * rows).sum(axis=0)
    bc[sources] += folded * (np.count_nonzero(dist >= 0, axis=1) - 2)
    return bc, totals


def _closeness(totals: np.ndarray) -> np.ndarray:
    n = totals.size
    if n == 1:
        return np.zeros(1)
    if np.any(totals < 0):
        raise ValueError("closeness centrality needs a connected graph")
    return (n - 1) / totals


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Shortest-path betweenness via Brandes' accumulation, pair-normalized; O(n m).

    Unreachable pairs contribute nothing, so disconnected graphs are allowed.
    """
    return _shortest_paths(g)[0]


def closeness_centrality(g: Graph) -> np.ndarray:
    """(n-1) over the sum of BFS distances to all other nodes; O(n m)."""
    return _closeness(_shortest_paths(g)[1])


def avg_neighbor_degree(g: Graph) -> np.ndarray:
    """Mean degree over each node's neighbors (0 for isolated nodes); O(m)."""
    deg = g.degrees.astype(np.float64)
    out = np.zeros(g.n)
    mask = deg > 0
    out[mask] = np.bincount(g.csr_rows, weights=deg[g.csr[1]], minlength=g.n)[mask] / deg[mask]
    return out


def _min_max_scale(x: np.ndarray) -> np.ndarray:
    lo = float(x.min())
    hi = float(x.max())
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def build_feature_matrix(g: Graph) -> np.ndarray:
    """n x 7 feature matrix in ``FEATURE_COLUMNS`` order, min-max scaled per column.

    The last two raw columns (degree and average neighbor degree) are divided
    by n before scaling so raw magnitudes stay bounded.
    """
    betweenness, totals = _shortest_paths(g)
    cols = [
        clustering_coefficient(g),
        pagerank(g),
        degree_centrality(g),
        betweenness,
        _closeness(totals),
        g.degrees.astype(np.float64) / g.n,
        avg_neighbor_degree(g) / g.n,
    ]
    return np.column_stack([_min_max_scale(c) for c in cols])
