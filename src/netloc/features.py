"""Structural node features and the fixed 7-column feature matrix.

Column order is frozen by ``FEATURE_COLUMNS``; every column is min-max scaled
to [0, 1] per graph (constant columns become all zeros) so feature magnitudes
are comparable across graph sizes.

Every column reads the cached CSR arrays of :class:`Graph`; none builds an
n x n matrix. Degree columns are O(n), average neighbor degree O(m), PageRank
O(m) per iteration, clustering O(m^1.5), and betweenness with closeness one
fused O(r m) BFS pass over r swept sources. Working memory is O(m) plus
``_BLOCK_PAIRS`` blocks.

The pass sweeps one source per orbit of a verified automorphism π, and no
pendant. Betweenness and distance sums are invariant under automorphisms, so
for the group G generated by π, a source orbit O and a node v with orbit O_v,

    sum over s in O of delta_s(v) = |O| / |O_v| * sum over w in O_v of delta_s0(w)

for any s0 in O, and every member of O has the distance sum of s0. The one
candidate for π rotates each degree class in node order; it is used only
once an O(m log m) comparison of edge keys proves it maps edges onto edges.
Without that proof every orbit is a single node.

A pendant vertex l (degree 1) whose neighbor a has degree > 1 is never a BFS
source, since three exact identities give its share from a's sweep:

- l's distance sum is T(a) + n - 2, or -1 when T(a) is -1;
- l's Brandes dependency on every node other than a equals a's;
- l's dependency on a is c(a) - 2, where c(a) is the size of a's component.

A list of graphs is built in blocks of consecutive whole graphs, each block
one pass over their disjoint union: node v of graph i becomes node
off[i] + v of one concatenated CSR. The BFS pass runs one row per (graph,
source) over a ragged space of (source, node) pairs, and PageRank steps the
block's graphs that have not converged, so both pay their per-level and
per-step numpy calls once per block, not once per graph. A block holds at
most n_max**2 pairs (or, for PageRank, nodes), n_max being the largest
graph's node count, so it weighs no more than that graph alone. Orbits,
pendants and the other columns stay per graph. Each per-graph function is
its group form on one graph, and a graph gives the same bits alone or in
any group.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

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
    "build_feature_matrices",
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
# of up to 512 nodes take a single BFS block. A block of several graphs holds
# no more pairs than the group's largest graph has squared.
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


def _union(graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(indptr, indices)``, degrees and offsets of the disjoint union of ``graphs``.

    Node v of graph i is node ``off[i] + v`` of the union; ``off`` ends with
    the union's node count.
    """
    csrs = [g.csr for g in graphs]
    off = np.cumsum([0] + [g.n for g in graphs])
    deg = np.concatenate([g.degrees for g in graphs])
    indptr = np.concatenate([[0], np.cumsum(deg)])
    indices = np.concatenate([indices + start for (_, indices), start in zip(csrs, off.tolist())])
    return indptr, indices, deg, off


def _blocks(weighted: Iterable[tuple[object, int]], largest: int) -> Iterator[list]:
    """Consecutive runs of the items of ``(item, weight)`` pairs, as lists.

    A run's weights sum to at most ``min(_BLOCK_PAIRS, largest**2)``, where
    ``largest`` is the node count of the group's largest graph, so no run
    weighs more than that graph alone. An item over the bound runs alone.
    Items are drawn only as runs need them.
    """
    cap = min(_BLOCK_PAIRS, largest * largest)
    block, load = [], 0
    for item, weight in weighted:
        if block and load + weight > cap:
            yield block
            block, load = [], 0
        block.append(item)
        load += weight
    if block:
        yield block


def _group_pagerank(graphs: Sequence[Graph]) -> list[np.ndarray]:
    """Each graph's PageRank, stepping a union of graphs until each converges.

    The graphs of more than one node run in :func:`_blocks` of whole graphs,
    weighed by node count. A step is one ``np.bincount`` over the union's
    CSR rows. A graph leaves the union at the step where its own L1 change,
    one ``np.add.reduceat`` segment, is at most the tolerance, and returns
    that step's scores.
    """
    for g in graphs:
        if g.n > 1 and np.any(g.degrees == 0):
            raise ValueError("pagerank needs every node to have degree >= 1")
    out = [np.ones(1) for _ in graphs]
    for block in _blocks(((i, g.n) for i, g in enumerate(graphs) if g.n > 1), max(g.n for g in graphs)):
        ids = np.array(block)
        _, indices, deg, off = _union([graphs[i] for i in ids])
        n = np.diff(off)
        rows = np.repeat(np.arange(off[-1]), deg)
        deg = deg.astype(np.float64)
        nodes = np.repeat(n, n)
        p = 1.0 / nodes
        teleport = (1.0 - _DAMPING) / nodes
        for _ in range(_PAGERANK_MAX_ITER):
            p_new = teleport + _DAMPING * np.bincount(rows, weights=(p / deg)[indices], minlength=p.size)
            change = np.add.reduceat(np.abs(p_new - p), off[:-1])
            done = change <= _PAGERANK_TOL
            if done.any():
                keep = np.repeat(~done, n)
                for i, scores in zip(ids[done], np.split(p_new[~keep], np.cumsum(n[done])[:-1])):
                    out[i] = scores
                if done.all():
                    break
                # Renumber the nodes that stay and drop the edges of the graphs that leave.
                at = np.cumsum(keep) - 1
                stay = keep[rows]
                rows, indices = at[rows[stay]], at[indices[stay]]
                p_new, deg, teleport = p_new[keep], deg[keep], teleport[keep]
                ids, n, change = ids[~done], n[~done], change[~done]
                off = np.cumsum(np.concatenate([[0], n]))
            p = p_new
        else:
            raise ConvergenceError(
                f"pagerank did not converge to {_PAGERANK_TOL} in {_PAGERANK_MAX_ITER} iterations",
                residual=float(change[0]),
                iterations=_PAGERANK_MAX_ITER,
            )
    return out


def pagerank(g: Graph) -> np.ndarray:
    """Damped random-walk stationary scores; entries sum to 1.

    Iterates p <- (1-d)/n + d * A (p / deg) with d = 0.85 until the L1 change
    is at most 1e-10, one O(m) sum over the CSR rows per step. Needs every
    node to have at least one neighbor (or n == 1).
    """
    return _group_pagerank([g])[0]


def degree_centrality(g: Graph) -> np.ndarray:
    """Degree divided by n-1 (zeros for the single-node graph); O(n)."""
    if g.n == 1:
        return np.zeros(1)
    return g.degrees.astype(np.float64) / (g.n - 1)


def _orbits(g: Graph) -> np.ndarray:
    """Each node's orbit under a verified automorphism, named by its smallest member.

    The candidate π moves each node one place along its degree class, taken
    in node order, and wraps at the end of the class. It counts only if the
    sorted keys ``π[u] * n + π[v]`` of the directed edges equal those of the
    graph. π is one cycle on each class, so if it holds each class is an
    orbit; else each node is its own orbit.
    """
    n, rows, indices = g.n, g.csr_rows, g.csr[1]
    at = np.arange(n)
    order = np.lexsort((at, g.degrees))
    # Position i of ``order`` lies in the class that spans [start[i], stop[i]).
    ranked = g.degrees[order]
    start, stop = np.searchsorted(ranked, ranked, "left"), np.searchsorted(ranked, ranked, "right")
    perm = np.empty(n, dtype=np.int64)
    perm[order] = order[np.where(at + 1 < stop, at + 1, start)]
    if not np.array_equal(np.sort(perm[rows] * n + perm[indices]), np.sort(rows * n + indices)):
        return at
    orbit = np.empty(n, dtype=np.int64)
    orbit[order] = order[start]
    return orbit


def _sources(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``g``'s orbits (:func:`_orbits`), swept sources, pendants and the pendants' anchors.

    The swept sources are the smallest non-pendant node of each orbit.
    """
    indptr, indices = g.csr
    deg = g.degrees
    leaves = np.flatnonzero(deg == 1)
    hubs = indices[indptr[leaves]]
    pendants, anchors = leaves[deg[hubs] > 1], hubs[deg[hubs] > 1]
    orbit = _orbits(g)
    swept = np.setdiff1d(np.flatnonzero(orbit == np.arange(g.n)), pendants)
    return orbit, swept, pendants, anchors


def _group_shortest_paths(graphs: Sequence[Graph]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each graph's pair-normalized betweenness and each source's sum of BFS distances.

    A graph sweeps ``len(swept) * n`` (source, node) pairs, and the graphs
    run in :func:`_blocks` of whole graphs weighed by those pairs, each
    block one union. A graph's sources are found only when its block is
    filled, so they are held for one block at a time.
    """

    def weighted():
        for g in graphs:
            sources = _sources(g)
            yield (g, sources), sources[1].size * g.n

    betweenness, totals = [], []
    for block in _blocks(weighted(), max(g.n for g in graphs)):
        b, t = _union_shortest_paths(*zip(*block))
        betweenness += b
        totals += t
    return betweenness, totals


def _union_shortest_paths(
    graphs: Sequence[Graph], sources: Sequence[tuple]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """:func:`_group_shortest_paths` over the union of ``graphs``, given each graph's :func:`_sources`.

    A source's sum is -1 when some node of its graph is unreachable from it.
    The raw Brandes sum over all sources counts each unordered pair twice, so
    it is halved and then divided by (n-1)(n-2)/2.

    Only the smallest non-pendant node of each orbit of :func:`_orbits` is
    swept. Its row is scaled by its orbit's size |O|, and each node v takes
    the mean of the summed rows over its own orbit O_v, which is the fold
    identity of the module docstring; every member copies its
    representative's distance sum. Single-node orbits scale by 1 and take
    the mean of one value, so an asymmetric graph's sums are unchanged.

    A pendant l (degree 1, its neighbor a of degree > 1) has distance sum
    T(a) + n - 2 (-1 if T(a) is -1), the same dependency as a on every node
    but a, and dependency c(a) - 2 on a, with c(a) the size of a's component.
    So a's dependency row counts once for a and once for each of its
    pendants, and each pendant adds c(a) - 2 to a. Automorphisms keep
    pendants pendant, so no orbit mixes pendants and swept nodes. Two
    adjacent degree-1 nodes (a K2 component) are both swept.

    Every row is swept at once, except on a lone graph of more than
    ``_BLOCK_PAIRS`` pairs, which runs in blocks of ``_BLOCK_PAIRS // n``
    sources.
    """
    indptr, indices, deg, off = _union(graphs)
    orbit, swept, pendants, anchors = (
        np.concatenate([part[k] + start for part, start in zip(sources, off.tolist())]) for k in range(4)
    )
    sizes = np.diff(off)
    # Each union node's graph: its first node and its node count.
    start, n = np.repeat(off[:-1], sizes), np.repeat(sizes, sizes)
    folded = np.bincount(anchors, minlength=off[-1])
    size = np.bincount(orbit, minlength=off[-1])
    first, count = start[swept], n[swept]
    width = swept.size if count.sum() <= _BLOCK_PAIRS else max(1, _BLOCK_PAIRS // int(count[0]))
    total = np.zeros(off[-1])
    sums = np.zeros(off[-1], dtype=np.int64)
    for lo in range(0, swept.size, width):
        rows = slice(lo, lo + width)
        block, sums[swept[rows]] = _sweep(
            indptr, indices, deg, swept[rows], first[rows], count[rows], folded[swept[rows]], size[swept[rows]]
        )
        total += block
    totals = sums[orbit]
    totals[pendants] = np.where(totals[anchors] < 0, -1, totals[anchors] + n[pendants] - 2)
    bc = np.bincount(orbit, weights=total, minlength=off[-1])[orbit] / size[orbit]
    bc = np.divide(bc / 2.0, (n - 1) * (n - 2) / 2.0, out=np.zeros(off[-1]), where=n >= 3)
    return np.split(bc, off[1:-1]), np.split(totals, off[1:-1])


def _sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    deg: np.ndarray,
    sources: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    folded: np.ndarray,
    size: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Brandes dependencies summed over ``sources`` on each union node, and each source's distance sum.

    Row r runs a breadth-first search from node ``sources[r]`` of the graph
    whose union nodes are ``first[r]`` to ``first[r] + count[r] - 1``. Its
    (source, node) pairs are the ``count[r]`` flat indices from ``base[r]``,
    node v at ``base[r] + v - first[r]``. One level-synchronous search runs
    from every source at once, and each level expands the frontiers of all
    rows in one gather over the CSR edge arrays. The reverse sweep walks the
    stored levels backwards and accumulates Brandes (2001) dependencies.

    A source with ``folded`` pendants stands for them too: its dependency row
    counts 1 + folded times, and it gains folded * (c - 2) for its component
    of c nodes. A source also stands for its orbit: both terms are scaled by
    its orbit's ``size``.
    """
    base = np.cumsum(count) - count
    pairs = int(base[-1] + count[-1])
    dist = np.full(pairs, -1, dtype=np.int64)
    sigma = np.zeros(pairs)
    owner = np.empty(pairs, dtype=np.int64)
    node = sources
    frontier = base + sources - first
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
        survives = owner[child] == k
        depth += 1
        frontier, node = child[survives], nbr[survives]
        dist[frontier] = depth
        np.add.at(sigma, child, sigma[parent])
        levels.append((parent, child))

    delta = np.zeros(pairs)
    # Edges out of the sources are skipped: a source gains no dependency on itself.
    for parent, child in reversed(levels[1:]):
        np.add.at(delta, parent, sigma[parent] * ((1.0 + delta[child]) / sigma[child]))
    reached = np.add.reduceat(dist >= 0, base, dtype=np.int64)
    totals = np.where(reached < count, -1, np.add.reduceat(dist, base))
    # Rows fold onto nodes in row order, so each node's sum runs as a sum over rows would.
    at = np.arange(pairs) + np.repeat(first - base, count)
    bc = np.bincount(at, weights=np.repeat(size * (1.0 + folded), count) * delta, minlength=deg.size)
    bc[sources] += size * folded * (reached - 2)
    return bc, totals


def _shortest_paths(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_group_shortest_paths` of ``g`` alone."""
    betweenness, totals = _group_shortest_paths([g])
    return betweenness[0], totals[0]


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


def build_feature_matrices(graphs: Sequence[Graph]) -> list[np.ndarray]:
    """Each graph's n x 7 feature matrix in ``FEATURE_COLUMNS`` order, min-max scaled per column.

    The last two raw columns (degree and average neighbor degree) are divided
    by n before scaling so raw magnitudes stay bounded. The BFS pass and
    PageRank run over unions of ``graphs``. A graph the pass refuses raises
    the error it raises alone; in a group, that of some refused graph.
    """
    if not graphs:
        return []
    betweenness, totals = _group_shortest_paths(graphs)
    ranks = _group_pagerank(graphs)
    out = []
    for g, b, t, rank in zip(graphs, betweenness, totals, ranks):
        cols = [
            clustering_coefficient(g),
            rank,
            degree_centrality(g),
            b,
            _closeness(t),
            g.degrees.astype(np.float64) / g.n,
            avg_neighbor_degree(g) / g.n,
        ]
        out.append(np.column_stack([_min_max_scale(c) for c in cols]))
    return out


def build_feature_matrix(g: Graph) -> np.ndarray:
    """:func:`build_feature_matrices` of ``g`` alone."""
    return build_feature_matrices([g])[0]
