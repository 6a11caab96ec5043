"""Undirected simple graphs: container, model generators, edge-list text I/O,
and the UTF-8 line reader that every text input file goes through.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64, so
every generator here is reproducible bit-for-bit given the same seed and numpy
version.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "make_cycle",
    "make_path",
    "make_star",
    "make_wheel",
    "make_er",
    "make_scale_free",
    "draw_connected_er",
    "is_connected",
    "equitable_partition",
    "read_text",
    "read_lines",
    "read_edgelist",
    "write_edgelist",
    "naming",
]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on nodes ``0..n-1``.

    Edges are stored as a sorted tuple of ``(i, j)`` pairs with ``i < j``,
    no self loops and no duplicates. Construction validates all of that.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one node, got n={self.n}")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self loop ({i},{i}) is not allowed")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as int64 CSR arrays ``(indptr, indices)``.

        The neighbors of u are ``indices[indptr[u]:indptr[u + 1]]``: first
        those above u, then those below it, each run ascending.
        """
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        heads = np.concatenate([e[:, 0], e[:, 1]])
        indices = np.concatenate([e[:, 1], e[:, 0]])[np.argsort(heads, kind="stable")]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=self.n), out=indptr[1:])
        return indptr, indices

    @cached_property
    def csr_rows(self) -> np.ndarray:
        """Row of each entry of ``csr[1]``, so ``(csr_rows, csr[1])`` lists every directed edge."""
        return np.repeat(np.arange(self.n), self.degrees)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.csr[0])

    @cached_property
    def loops(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs (i, j) of A + I as int64 arrays ``(tgt, nbr, starts)``.

        Sorted by target, then neighbour; node i's run starts at ``starts[i]``.
        """
        indptr, indices = self.csr
        node = np.arange(self.n)
        tgt = np.concatenate([self.csr_rows, node])
        nbr = np.concatenate([indices, node])
        order = np.lexsort((nbr, tgt))
        return tgt[order], nbr[order], indptr[:-1] + node

    def dense(self, values: np.ndarray) -> np.ndarray:
        """``(..., n, n)`` float64 array, ``values[..., k]`` at the k-th pair of :attr:`loops` and 0 elsewhere."""
        tgt, nbr, _ = self.loops
        out = np.zeros(np.shape(values)[:-1] + (self.n, self.n))
        out[..., tgt, nbr] = values
        return out


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 nodes: 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def make_path(n: int) -> Graph:
    """Path on n >= 2 nodes: 0-1-...-(n-1)."""
    if n < 2:
        raise ValueError(f"path needs n >= 2, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def make_star(n: int) -> Graph:
    """Star on n >= 2 nodes with the hub at node 0."""
    if n < 2:
        raise ValueError(f"star needs n >= 2, got {n}")
    return Graph(n, tuple((0, i) for i in range(1, n)))


def make_wheel(n: int) -> Graph:
    """Wheel on n >= 4 nodes: hub 0 joined to every node of the rim cycle 1..n-1."""
    if n < 4:
        raise ValueError(f"wheel needs n >= 4, got {n}")
    rim = tuple((i, i + 1) for i in range(1, n - 1)) + ((1, n - 1),)
    return Graph(n, tuple((0, i) for i in range(1, n)) + rim)


def make_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each of the n(n-1)/2 pairs kept independently with probability p."""
    if n < 1:
        raise ValueError(f"G(n,p) needs n >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.shape[0]) < p
    return Graph(n, tuple(zip(rows[keep].tolist(), cols[keep].tolist())))


def make_scale_free(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: star seed on m+1 nodes, then each new node
    attaches to m distinct existing nodes drawn with probability proportional to
    degree (duplicate draws rejected).
    """
    if m < 1:
        raise ValueError(f"attachment count must be >= 1, got m={m}")
    if n < m + 1:
        raise ValueError(f"need n >= m+1 nodes, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    edges = [(0, i) for i in range(1, m + 1)]
    # One entry per edge endpoint; uniform draws from this list are
    # degree-weighted draws over nodes.
    endpoint_pool: list[int] = []
    for i, j in edges:
        endpoint_pool.append(i)
        endpoint_pool.append(j)
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            cand = endpoint_pool[int(rng.integers(len(endpoint_pool)))]
            if cand not in targets:
                targets.add(cand)
        for t in sorted(targets):
            edges.append((t, new))
            endpoint_pool.append(t)
            endpoint_pool.append(new)
    return Graph(n, tuple(edges))


def draw_connected_er(n: int, p: float, rng: np.random.Generator, attempts: int) -> tuple[Graph, int]:
    """The first connected :func:`make_er` graph of ``attempts`` seeds drawn from ``rng``, and its
    seed; RuntimeError if every one is disconnected."""
    for _ in range(attempts):
        seed = int(rng.integers(2**63))
        g = make_er(n, p, seed)
        if is_connected(g):
            return g, seed
    raise RuntimeError(f"no connected G({n}, {p:.4f}) instance in {attempts} attempts")


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability of every node from node 0.

    A graph with fewer than n - 1 edges is disconnected without a search, so
    no per-node array is allocated for it.
    """
    if g.m < g.n - 1:
        return False
    if g.n == 1:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    queue = [0]
    count = 1
    indptr, indices = (a.tolist() for a in g.csr)
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    nxt.append(v)
        queue = nxt
    return count == g.n


def equitable_partition(g: Graph, colours: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarsest equitable partition of ``g`` that refines ``colours``: exact colour refinement (1-WL).

    ``colours`` holds one value or row per node, and nodes with equal rows
    start in one class. Each round splits the classes by every node's count of
    neighbours in each class, ranking the count lists by sorting, until a
    round splits nothing; all-distinct start rows need no round. Returns
    ``(cls, s, b)``: each node's class, numbered in the order of the classes'
    smallest nodes; the class sizes; and the k x k float64 matrix whose
    ``b[i, j]`` is the number of neighbours in class j of any node of class
    i. A discrete partition (k = n) is the identity, with ``b`` the
    adjacency matrix.
    """
    rows, nbrs = g.csr_rows, g.csr[1]
    cls, first = _row_classes(np.asarray(colours).reshape(g.n, -1))
    while True:
        # One entry per (node, neighbour class) pair, with its neighbour count.
        pair = np.sort(rows * first.size + cls[nbrs])
        run = np.ones(pair.size, dtype=bool)
        run[1:] = pair[1:] != pair[:-1]
        count = np.diff(np.append(np.flatnonzero(run), pair.size))
        node, nbr_cls = np.divmod(pair[run], first.size)
        if first.size == g.n:
            break
        # Row u: u's class, then its (class, count) pairs as one symbol each, -1 past the end.
        pos = np.arange(node.size) - np.searchsorted(node, node)
        keys = np.full((g.n, pos.max(initial=-1) + 2), -1)
        keys[:, 0] = cls
        keys[node, pos + 1] = nbr_cls * g.n + count
        split, split_first = _row_classes(keys)
        if split_first.size == first.size:
            break
        cls, first = split, split_first
    # Renumber the classes in the order of their smallest nodes.
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    own = first[cls[node]] == node
    b = np.zeros((first.size, first.size))
    b[rank[cls[node[own]]], rank[nbr_cls[own]]] = count[own]
    cls = rank[cls]
    return cls, np.bincount(cls), b


def _row_classes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class of each row of ``keys``, equal rows sharing one and classes
    numbered in sorted row order; and each class's smallest row."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    cls = np.empty(len(keys), dtype=np.int64)
    cls[order] = np.cumsum(new) - 1
    # lexsort is stable, so each run of equal rows starts at its smallest row.
    return cls, order[new]


def write_edgelist(g: Graph, path: str | Path) -> None:
    """Write the text edge-list form: first line ``n m``, then one ``i j`` line
    per edge with i < j, 0-indexed, LF newlines."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_text(path: str | Path, error: type[Exception] = ValueError) -> str:
    """The UTF-8 text of ``path``; an undecodable byte raises ``error("path:line: not UTF-8 text")``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one are valid; "." stands in for it, so splitlines counts its line.
        before = Path(path).read_bytes()[: exc.start].decode("utf-8")
        raise error(f"{path}:{len((before + '.').splitlines())}: not UTF-8 text") from exc


def read_lines(path: str | Path, error: type[Exception] = ValueError) -> list[tuple[int, str]]:
    """``(line number, stripped line)`` for each nonblank line of ``path``, decoded by
    :func:`read_text`; lines are numbered from 1 as in the file, blank ones counted."""
    lines = map(str.strip, read_text(path, error).splitlines())
    return [(k, ln) for k, ln in enumerate(lines, start=1) if ln]


def read_edgelist(path: str | Path) -> Graph:
    """Parse the text edge-list form written by :func:`write_edgelist`.

    Blank lines are skipped; errors name the file and the line as numbered
    in the file.
    """
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    (head_no, header), body = lines[0], lines[1:]
    head = header.split()
    if len(head) != 2:
        raise ValueError(f"{path}:{head_no}: header must be 'n m', got {header!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"{path}:{head_no}: header must be two integers") from exc
    if n < 1:
        raise ValueError(f"{path}:{head_no}: graph needs at least one node, got n={n}")
    if len(body) != m:
        raise ValueError(f"{path}:{head_no}: header claims {m} edges, found {len(body)}")
    edges: list[tuple[int, int]] = []
    for k, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{k}: edge line must be 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{k}: edge endpoints must be integers") from exc
        if not 0 <= i < j < n:
            if not i < j:
                raise ValueError(f"{path}:{k}: edges must be written with i < j, got {i} {j}")
            raise ValueError(f"{path}:{k}: edge ({i},{j}) out of range for n={n}")
        edges.append((i, j))
    if len(set(edges)) < m:
        seen: set[tuple[int, int]] = set()
        for (k, _), (i, j) in zip(body, edges):
            if (i, j) in seen:
                raise ValueError(f"{path}:{k}: duplicate edge ({i},{j})")
            seen.add((i, j))
    return Graph(n, tuple(edges))


@contextlib.contextmanager
def naming(path: str | Path):
    """Prefix ``path`` to the message of an error raised while processing its graph.

    An error that an inner ``naming`` already prefixed keeps that one path.
    """
    try:
        yield
    except (ValueError, RuntimeError, MemoryError) as exc:
        if getattr(exc, "named", False):
            raise
        if isinstance(exc, MemoryError):
            # numpy's allocation error builds its message from the request, not from args.
            named = MemoryError(f"{path}: {exc}")
            named.named = True
            raise named from exc
        exc.args = (f"{path}: {exc}",)
        exc.named = True
        raise
