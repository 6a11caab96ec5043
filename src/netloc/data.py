"""Dataset construction: synthetic model families, TU text ingestion, splits,
and a reproducible on-disk layout (manifest.json + graphs/*.edges + targets.csv).

Targets are always the IPR of the adjacency principal eigenvector computed by
the spectral oracle. Datasets carry graphs and targets only: node features
are derived from the graphs, in one group pass over the items that lack
them (:func:`cache_features`), never stored in or read from files.
"""

from __future__ import annotations

import contextlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .features import build_feature_matrices, build_feature_matrix
from .graphs import (
    Graph,
    draw_connected_er,
    is_connected,
    make_cycle,
    make_path,
    make_scale_free,
    make_star,
    make_wheel,
    naming,
    read_edgelist,
    read_lines,
    read_text,
    write_edgelist,
)
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, label_graph

__all__ = [
    "FAMILIES",
    "LabeledGraph",
    "cache_features",
    "DatasetSpec",
    "ParseError",
    "DatasetFormatError",
    "build_synthetic",
    "ingest_tu_dataset",
    "preprocess",
    "split",
    "save_dataset",
    "load_dataset",
]

DATASET_FORMAT = "netloc-dataset"
DATASET_VERSION = 1

FAMILIES = ("cycle", "path", "star", "wheel", "er", "scale_free")

_MIN_NODES = {"cycle": 3, "path": 2, "star": 2, "wheel": 4, "er": 2, "scale_free": 2}


class ParseError(ValueError):
    """Malformed input file; the message carries file and line number."""


class DatasetFormatError(ValueError):
    """On-disk dataset is missing, corrupt, or has an unsupported version."""


@dataclass(frozen=True)
class LabeledGraph:
    """A graph together with its spectral target.

    ``source`` is the edge file the graph was read from, if any; it takes no
    part in equality.
    """

    graph: Graph
    target: float
    family: str
    seed: int | None = None
    source: str | None = field(default=None, compare=False, repr=False)

    @cached_property
    def features(self) -> np.ndarray:
        """Structural node feature matrix, built from the graph on first use.

        An error raised while building it names ``source``.
        :func:`cache_features` fills it for many items in one pass.
        """
        with naming(self.source) if self.source else contextlib.nullcontext():
            return build_feature_matrix(self.graph)


def cache_features(items: typing.Sequence[LabeledGraph]) -> None:
    """Give every item that lacks a feature matrix its own, from one group pass.

    If the group pass fails, each of those items builds its own in item
    order, so the first item that fails raises its own error, named by its
    edge file.
    """
    todo = [it for it in items if "features" not in vars(it)]
    if not todo:
        return
    try:
        matrices = build_feature_matrices([it.graph for it in todo])
    except (ValueError, RuntimeError, MemoryError):
        for it in todo:
            it.features
        return
    for it, h in zip(todo, matrices):
        vars(it)["features"] = h


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a synthetic train/test pair.

    Items cycle round-robin through ``families``; sizes are drawn uniformly
    from the inclusive ranges. ER graphs use edge probability
    ``er_mean_degree / n``, so their sizes start at ``er_mean_degree``, and
    are resampled until connected.
    """

    families: tuple[str, ...] = ("cycle", "star")
    train_count: int = 1000
    test_count: int = 500
    train_size_range: tuple[int, int] = (200, 300)
    test_size_range: tuple[int, int] = (400, 500)
    seed: int = 0
    er_mean_degree: float = 8.0
    sf_m: int = 2
    label_tol: float = DEFAULT_TOL
    label_max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self) -> None:
        if not self.families:
            raise ValueError("need at least one graph family")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}; choose from {FAMILIES}")
        if self.train_count < 0 or self.test_count < 0:
            raise ValueError("counts must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.sf_m < 1:
            raise ValueError(f"scale_free attachment count must be >= 1, got {self.sf_m}")
        if not 0.0 < self.er_mean_degree < math.inf:
            raise ValueError(f"er_mean_degree must be positive and finite, got {self.er_mean_degree}")
        if not self.label_tol > 0.0:
            raise ValueError(f"label_tol must be positive, got {self.label_tol}")
        if self.label_max_iter < 1:
            raise ValueError(f"label_max_iter must be >= 1, got {self.label_max_iter}")
        floors = dict(_MIN_NODES, scale_free=self.sf_m + 1)
        floors["er"] = max(floors["er"], math.ceil(self.er_mean_degree))
        needed = max(floors[f] for f in self.families)
        for lo, hi in (self.train_size_range, self.test_size_range):
            if lo > hi:
                raise ValueError(f"size range ({lo}, {hi}) has lo > hi")
            if lo < needed:
                raise ValueError(f"size range starts at {lo}, but these families need n >= {needed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return cls(**checked_fields(cls, d))


def checked_fields(cls, d: dict) -> dict:
    """``d`` with each value checked against its field's annotation in ``cls``.

    Lists become tuples, ints pass as floats, and unknown keys are left for
    ``cls`` to reject. Errors read ``key: expected int, got str``.
    """
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {type(d).__name__}")
    hints = typing.get_type_hints(cls)
    return {key: _checked(key, v, hints[key]) if key in hints else v for key, v in d.items()}


def _checked(key: str, value, hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and isinstance(value, (list, tuple)):
        items = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise ValueError(f"{key}: expected {len(items)} items, got {len(value)}")
        return tuple(_checked(key, v, t) for v, t in zip(value, items))
    allowed = args or (hint,)
    if float in allowed:
        allowed += (int,)
    if origin is not tuple and isinstance(value, allowed) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key}: expected {str(hint) if args else hint.__name__}, got {type(value).__name__}")


def _build_instance(family: str, n: int, spec: DatasetSpec, rng: np.random.Generator) -> tuple[Graph, int | None]:
    if family == "cycle":
        return make_cycle(n), None
    if family == "path":
        return make_path(n), None
    if family == "star":
        return make_star(n), None
    if family == "wheel":
        return make_wheel(n), None
    if family == "scale_free":
        seed = int(rng.integers(2**63))
        return make_scale_free(n, spec.sf_m, seed), seed
    if family == "er":
        return draw_connected_er(n, spec.er_mean_degree / n, rng, 1000)
    raise ValueError(f"unknown family {family!r}")


def _build_split(spec: DatasetSpec, count: int, size_range: tuple[int, int], split_tag: int) -> list[LabeledGraph]:
    rng = np.random.default_rng([spec.seed, split_tag])
    lo, hi = size_range
    items: list[LabeledGraph] = []
    for idx in range(count):
        family = spec.families[idx % len(spec.families)]
        n = int(rng.integers(lo, hi + 1))
        g, inst_seed = _build_instance(family, n, spec, rng)
        target = label_graph(g, tol=spec.label_tol, max_iter=spec.label_max_iter)[0]
        items.append(LabeledGraph(graph=g, target=target, family=family, seed=inst_seed))
    return items


def build_synthetic(spec: DatasetSpec) -> tuple[list[LabeledGraph], list[LabeledGraph]]:
    """Deterministic (train, test) lists for a synthetic recipe."""
    train = _build_split(spec, spec.train_count, spec.train_size_range, 0)
    test = _build_split(spec, spec.test_count, spec.test_size_range, 1)
    return train, test


def ingest_tu_dataset(directory: str | Path, name: str | None = None) -> list[Graph]:
    """Parse a TU-format graph collection (DS_A.txt + DS_graph_indicator.txt).

    ``name`` picks the DS that equals it in any case; None picks the only one.
    Node ids and graph ids in the files are 1-indexed; each graph comes back
    as a simple undirected 0-indexed :class:`Graph` (duplicate directions are
    merged, self loops dropped). Raw graphs may be disconnected; run
    :func:`preprocess` to filter and label them.
    """
    directory = Path(directory)
    stems = [p.name[: -len("_A.txt")] for p in sorted(directory.glob("*_A.txt"))]
    stems = [s for s in stems if name is None or s.casefold() == name.casefold()]
    if len(stems) != 1:
        raise ParseError(f"{directory}: expected exactly one {name or '*'}_A.txt file, found {len(stems)}")
    a_path = directory / f"{stems[0]}_A.txt"
    ind_path = directory / f"{stems[0]}_graph_indicator.txt"
    if not ind_path.is_file():
        raise ParseError(f"{ind_path}: file not found")

    node_graph: dict[int, int] = {}
    for node_id, (line_no, line) in enumerate(read_lines(ind_path, ParseError), start=1):
        try:
            gid = int(line)
        except ValueError as exc:
            raise ParseError(f"{ind_path}:{line_no}: expected a graph id, got {line!r}") from exc
        if gid < 1:
            raise ParseError(f"{ind_path}:{line_no}: graph ids are 1-indexed, got {gid}")
        node_graph[node_id] = gid
    if not node_graph:
        raise ParseError(f"{ind_path}: no nodes listed")

    n_graphs = max(node_graph.values())
    sizes = [0] * n_graphs
    local_index = {}
    for node, gid in node_graph.items():  # in node id order
        local_index[node] = sizes[gid - 1]
        sizes[gid - 1] += 1
    if 0 in sizes:
        raise ParseError(f"{ind_path}: graph id {sizes.index(0) + 1} has no nodes")

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(n_graphs)]
    for line_no, line in read_lines(a_path, ParseError):
        try:
            u, v = map(int, line.replace(",", " ").split())
        except ValueError as exc:
            raise ParseError(f"{a_path}:{line_no}: expected two integers, got {line!r}") from exc
        for x in (u, v):
            if x not in node_graph:
                raise ParseError(f"{a_path}:{line_no}: node id {x} not in graph indicator")
        if node_graph[u] != node_graph[v]:
            raise ParseError(
                f"{a_path}:{line_no}: edge ({u},{v}) spans graphs "
                f"{node_graph[u]} and {node_graph[v]}"
            )
        if u == v:
            continue
        i, j = local_index[u], local_index[v]
        edge_sets[node_graph[u] - 1].add((min(i, j), max(i, j)))

    return [Graph(sizes[k], tuple(sorted(edge_sets[k]))) for k in range(n_graphs)]


def preprocess(graphs, name: str, min_nodes: int) -> list[LabeledGraph]:
    """Keep connected graphs with at least ``min_nodes`` nodes, then label them.

    Accepts raw graphs or already-labeled items (labels are recomputed), so
    the operation is idempotent. No features are computed here; each item
    derives them from its graph when a model first reads them.
    """
    kept: list[LabeledGraph] = []
    for item in graphs:
        g = item.graph if isinstance(item, LabeledGraph) else item
        family = item.family if isinstance(item, LabeledGraph) else name
        seed = item.seed if isinstance(item, LabeledGraph) else None
        if g.n < min_nodes or not is_connected(g):
            continue
        target = label_graph(g)[0]
        kept.append(LabeledGraph(graph=g, target=target, family=family, seed=seed))
    return kept


def split(items: list[LabeledGraph], fraction: float = 0.8, seed: int = 0) -> tuple[list[LabeledGraph], list[LabeledGraph]]:
    """Seeded shuffle, then cut at floor(len * fraction)."""
    if not items:
        raise ValueError("cannot split an empty dataset")
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0,1), got {fraction}")
    perm = np.random.default_rng(seed).permutation(len(items))
    k = int(len(items) * fraction + 1e-9)
    train = [items[i] for i in perm[:k]]
    test = [items[i] for i in perm[k:]]
    return train, test


def save_dataset(
    items: list[LabeledGraph],
    directory: str | Path,
    spec: DatasetSpec | None = None,
    name: str | None = None,
) -> None:
    """Write the native layout; output bytes depend only on the items.

    A family that holds a comma or a line break, which would split its
    ``targets.csv`` row, is refused before anything is written.
    """
    directory = Path(directory)
    for i, it in enumerate(items):
        if "," in it.family or "".join(it.family.splitlines()) != it.family:
            raise ValueError(f"{directory}: item {i}: family {it.family!r} holds a comma or line break")
    (directory / "graphs").mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "count": len(items),
        "name": name,
        "spec": spec.to_dict() if spec is not None else None,
        "seeds": {str(i): it.seed for i, it in enumerate(items)},
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    rows = ["id,target,family,n"]
    for i, it in enumerate(items):
        write_edgelist(it.graph, directory / "graphs" / f"{i:06d}.edges")
        rows.append(f"{i},{it.target!r},{it.family},{it.graph.n}")
    (directory / "targets.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def read_json(path: str | Path, error: type[Exception] = ValueError):
    """The JSON value in ``path``; bad text raises ``error("path:line: msg")``."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: {exc.msg}") from exc


def _cell(where: str, name: str, cast, text: str):
    try:
        return cast(text)
    except ValueError:
        kind = "a number" if cast is float else "an integer"
        raise DatasetFormatError(f"{where}: {name} must be {kind}, got {text!r}") from None


def load_dataset(directory: str | Path, verify: bool = True) -> tuple[list[LabeledGraph], dict]:
    """Read the native layout back as graphs and targets.

    No features are computed here; each item derives them from its graph
    when a model first reads them.

    With ``verify`` on, every 20th stored target is re-derived from the
    spectral oracle, at the ``label_tol`` and ``label_max_iter`` of the
    manifest's spec, or of ``DatasetSpec()`` (the oracle's defaults, which
    :func:`preprocess` labels with) when it has none, and must agree to 1e-9.
    A graph the oracle refuses raises :class:`DatasetFormatError` naming its
    edge file; an error in a loaded item's feature pass names that file too.
    """
    directory = Path(directory)
    man_path = directory / "manifest.json"
    if not man_path.is_file():
        raise DatasetFormatError(f"{directory}: no manifest.json")
    manifest = read_json(man_path, DatasetFormatError)
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{man_path}: expected a JSON object, got {type(manifest).__name__}")
    if manifest.get("format") != DATASET_FORMAT:
        raise DatasetFormatError(f"{man_path}: format is {manifest.get('format')!r}, expected {DATASET_FORMAT!r}")
    if manifest.get("version") != DATASET_VERSION:
        raise DatasetFormatError(
            f"{man_path}: version {manifest.get('version')!r} unsupported (expected {DATASET_VERSION})"
        )
    seeds = manifest.get("seeds", {})
    if not isinstance(seeds, dict):
        raise DatasetFormatError(f"{man_path}: seeds must be an object, got {type(seeds).__name__}")
    csv_path = directory / "targets.csv"
    if not csv_path.is_file():
        raise DatasetFormatError(f"{directory}: no targets.csv")
    rows = read_lines(csv_path, DatasetFormatError)
    if not rows or rows[0][1] != "id,target,family,n":
        raise DatasetFormatError(f"{csv_path}: bad or missing header")
    items: list[LabeledGraph] = []
    for line_no, row in rows[1:]:
        where = f"{csv_path}:{line_no}"
        parts = row.split(",")
        if len(parts) != 4:
            raise DatasetFormatError(f"{where}: expected 4 columns")
        ident = _cell(where, "id", int, parts[0])
        if ident != len(items):
            raise DatasetFormatError(f"{where}: expected id {len(items)} (ids run 0..count-1 in row order), got {ident}")
        target = _cell(where, "target", float, parts[1])
        if not math.isfinite(target):
            raise DatasetFormatError(f"{where}: target must be a finite number, got {parts[1]!r}")
        family, n = parts[2], _cell(where, "node count", int, parts[3])
        source = directory / "graphs" / f"{ident:06d}.edges"
        try:
            g = read_edgelist(source)
        except FileNotFoundError:
            raise DatasetFormatError(f"{directory}: no graphs/{ident:06d}.edges") from None
        except ValueError as exc:
            raise DatasetFormatError(str(exc)) from exc
        if g.n != n:
            raise DatasetFormatError(f"{where}: node count {n} disagrees with edge file ({g.n})")
        seed = seeds.get(str(ident))
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise DatasetFormatError(f"{man_path}: seed of item {ident} must be an integer or null, got {seed!r}")
        items.append(LabeledGraph(graph=g, target=target, family=family, seed=seed, source=str(source)))
    if len(items) != manifest.get("count"):
        raise DatasetFormatError(
            f"{directory}: manifest says {manifest.get('count')} items, found {len(items)}"
        )
    if verify:
        try:
            spec = DatasetSpec.from_dict(manifest["spec"]) if manifest.get("spec") else DatasetSpec()
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{man_path}: bad spec ({exc})") from exc
        for i in range(0, len(items), 20):
            it = items[i]
            try:
                fresh = label_graph(it.graph, tol=spec.label_tol, max_iter=spec.label_max_iter)[0]
            except (ValueError, RuntimeError, MemoryError) as exc:
                raise DatasetFormatError(f"{it.source}: {exc}") from exc
            if not math.isclose(fresh, it.target, rel_tol=0.0, abs_tol=1e-9):
                raise DatasetFormatError(
                    f"{directory}: stored target for item {i} ({it.target}) "
                    f"disagrees with the spectral oracle ({fresh})"
                )
    return items, manifest
