"""The benchmark's workloads, their inputs, and the checks on their outputs.

Every workload is one closed-loop client in one process: it calls
``netloc.cli.main`` for ``generate``, ``train`` and ``eval``, then for
``spectral`` once per edge-list file, each command waiting for the previous
one. The workloads differ in graph families, sizes, model and spectral file
set; BENCHMARK.json and design.json say which layers each stresses.

References are the benchmark's own: analytic IPRs for cycles, stars and paths,
and ``numpy.linalg.eigh`` for every other family.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from refclock import RefClock

SIX_FAMILIES = ("cycle", "path", "star", "wheel", "er", "scale_free")
DEFAULT_FAMILIES = ("cycle", "star")  # DatasetSpec defaults
DEFAULT_RANGES = ((200, 300), (400, 500))  # DatasetSpec default train and test sizes
ER_MEAN_DEGREE = 8.0
SF_M = 2
# Sizes in the spectral mix sit within this many nodes of the midpoint of each
# half of each default range. Path labelling cost grows about as n^3 and jumps
# where power iteration stops converging (n near 431), so wider draws would
# make the mix's cost swing with the seed.
MIX_JITTER = 2
TAU1, TAU2, EPS = 0.05, 0.2, 1e-6
IPR_TOL = 1e-7
LAMBDA_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]
    train_count: int
    test_count: int
    generate_flags: tuple[str, ...]
    train_flags: tuple[str, ...]
    epochs: int
    mixed_spectral: bool = False


_C5 = ("--train-sizes", "50", "80", "--test-sizes", "100", "150")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gcn-cyclestar",
            ("cycle", "star"),
            200,
            100,
            ("--families", "cycle,star", *_C5),
            ("--model", "gcn"),
            epochs=30,
        ),
        Workload(
            "gat-ersf",
            ("er", "scale_free"),
            200,
            100,
            ("--families", "er,scale_free", *_C5),
            ("--model", "gat", "--loss", "logmse", "--optimizer", "adamw", "--lr", "1e-5",
             "--weight-decay", "5e-4", "--dropout", "0.6", "--seed", "141"),
            epochs=8,
        ),
        Workload(
            "generate-default",
            DEFAULT_FAMILIES,
            48,
            24,
            (),
            ("--model", "gcn"),
            epochs=2,
        ),
        Workload(
            "spectral-mixed",
            ("cycle", "star"),
            100,
            100,
            ("--families", "cycle,star", *_C5),
            ("--model", "gcn"),
            epochs=30,
            mixed_spectral=True,
        ),
    )
}


class StageError(RuntimeError):
    """A pipeline command that must succeed did not."""


# ---------------------------------------------------------------- references


def reference(family: str, n: int, edges: np.ndarray) -> tuple[float, float]:
    """(IPR, leading eigenvalue) of the adjacency matrix's principal eigenvector."""
    if family == "cycle":
        return 1.0 / n, 2.0
    if family == "star":
        return 0.25 + 0.25 / (n - 1), math.sqrt(n - 1)
    if family == "path":
        return 1.5 / (n + 1), 2.0 * math.cos(math.pi / (n + 1))
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    w, v = np.linalg.eigh(a)
    pev = v[:, -1]
    s2 = float(np.sum(pev * pev))
    return float(np.sum(pev**4) / (s2 * s2)), float(w[-1])


def region(y: float) -> int:
    if y <= TAU1 - EPS:
        return 1
    if y >= TAU2 + EPS:
        return 3
    return 2


def read_edges(path: Path) -> tuple[int, np.ndarray]:
    """Parse netloc's edge-list form: an ``n m`` header, then ``i j`` lines."""
    lines = path.read_text(encoding="utf-8").split()
    n, m = int(lines[0]), int(lines[1])
    edges = np.array(lines[2:], dtype=np.int64).reshape(-1, 2)
    if edges.shape[0] != m:
        raise ValueError(f"{path}: header says {m} edges, found {edges.shape[0]}")
    return n, edges


def write_edges(path: Path, n: int, edges: np.ndarray) -> None:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{i} {j}" for i, j in edges.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- mixed set


def _connected(n: int, edges: np.ndarray) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def make_graph(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Edge array (i < j, sorted) of one graph of a family, the benchmark's own generators."""
    if family == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif family == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif family == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif family == "wheel":
        pairs = [(0, i) for i in range(1, n)] + [(i, i + 1 if i < n - 1 else 1) for i in range(1, n)]
    elif family == "er":
        rows, cols = np.triu_indices(n, k=1)
        while True:
            keep = rng.random(rows.shape[0]) < ER_MEAN_DEGREE / n
            pairs = np.column_stack([rows[keep], cols[keep]])
            if _connected(n, pairs):
                break
    elif family == "scale_free":
        pairs = [(0, i) for i in range(1, SF_M + 1)]
        pool = [v for e in pairs for v in e]
        for new in range(SF_M + 1, n):
            targets: set[int] = set()
            while len(targets) < SF_M:
                targets.add(pool[int(rng.integers(len(pool)))])
            for t in sorted(targets):
                pairs.append((t, new))
                pool.extend((t, new))
    else:
        raise ValueError(f"unknown family {family!r}")
    e = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


@dataclass(frozen=True)
class MixGraph:
    path: Path
    family: str
    n: int
    m: int
    ipr: float
    lam: float


def make_mix(seed: int, directory: Path) -> list[MixGraph]:
    """One edge-list file per graph: every family at one size per half of each default range."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for family in SIX_FAMILIES:
        for lo, hi in DEFAULT_RANGES:
            for half in (1, 3):
                mid = round(lo + (hi - lo) * half / 4)
                specs.append((family, mid + int(rng.integers(-MIX_JITTER, MIX_JITTER + 1))))
    order = rng.permutation(len(specs))
    mix = []
    for k, idx in enumerate(order):
        family, n = specs[idx]
        edges = make_graph(family, n, rng)
        path = directory / f"{k:03d}_{family}_{n}.edges"
        write_edges(path, n, edges)
        ipr, lam = reference(family, n, edges)
        mix.append(MixGraph(path, family, n, len(edges), ipr, lam))
    return mix


@dataclass(frozen=True)
class Inputs:
    generate_seed: int
    mix: list[MixGraph]


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Everything netloc will receive, derived from the workload seed alone."""
    base = random.Random(seed)
    generate_seed = base.randrange(2**31)
    mix_seed = base.randrange(2**63)
    mix = make_mix(mix_seed, directory / "mix") if workload.mixed_spectral else []
    return Inputs(generate_seed, mix)


# ---------------------------------------------------------------- commands


@dataclass
class Command:
    label: str
    rc: int
    start: float
    end: float
    wall: float  # net of reference sampling
    stdout: str
    stderr: str
    seconds: float | None = None  # normalized; set by normalize() once the samples around it exist


def run_cli(cli, clock: RefClock, label: str, argv: list[str]) -> Command:
    """One in-process CLI command, timed, with its output captured."""
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 2

    rc, start, end, wall = clock.measure(call)
    return Command(label, rc, start, end, wall, out.getvalue(), err.getvalue())


def normalize(clock: RefClock, commands: list[Command]) -> None:
    for cmd in commands:
        cmd.seconds = cmd.wall * clock.speed(cmd.start, cmd.end)


@dataclass
class Iteration:
    generate: Command
    train: Command
    eval: Command
    spectral: list[Command]
    spectral_files: list[Path]
    workdir: Path

    @property
    def commands(self) -> list[Command]:
        return [self.generate, self.train, self.eval, *self.spectral]

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)


def _require(cmd: Command) -> Command:
    if cmd.rc != 0:
        raise StageError(f"{cmd.label} failed with exit code {cmd.rc}: {cmd.stderr.strip()}")
    return cmd


def run_spectral(cli, clock: RefClock, files: list[Path], extra: tuple[str, ...] = ()) -> list[Command]:
    return [run_cli(cli, clock, f"spectral {p.name}", ["spectral", str(p), *extra]) for p in files]


def run_iteration(cli, clock: RefClock, workload: Workload, inputs: Inputs, workdir: Path) -> Iteration:
    data, run, report = workdir / "data", workdir / "run", workdir / "report"
    gen = _require(
        run_cli(
            cli,
            clock,
            "generate",
            ["generate", "--out", str(data), "--seed", str(inputs.generate_seed),
             "--train-count", str(workload.train_count), "--test-count", str(workload.test_count),
             *workload.generate_flags],
        )
    )
    train = _require(
        run_cli(
            cli,
            clock,
            "train",
            ["train", "--data", str(data / "train"), "--out", str(run), *workload.train_flags,
             "--epochs", str(workload.epochs)],
        )
    )
    ev = _require(
        run_cli(
            cli,
            clock,
            "eval",
            ["eval", "--checkpoint", str(run / "checkpoint.json"), "--data", str(data / "test"),
             "--out", str(report)],
        )
    )
    if workload.mixed_spectral:
        files = [g.path for g in inputs.mix]
    else:
        files = [p for split in ("train", "test") for p in sorted((data / split / "graphs").glob("*.edges"))]
    return Iteration(gen, train, ev, run_spectral(cli, clock, files), files, workdir)


# ---------------------------------------------------------------- checks


def tree_digest(it: Iteration) -> str:
    """sha256 over the artifact tree and every spectral command's output."""
    h = hashlib.sha256()
    for path in sorted(p for p in it.workdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(it.workdir)).encode())
        h.update(path.read_bytes())
    for cmd in it.spectral:
        h.update(f"{cmd.rc}\n{cmd.stdout}".encode())
    return h.hexdigest()


def _float(text: str) -> float:
    """A float written by netloc, which may read ``np.float64(x)`` under numpy 2."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def _check_split(directory: Path, count: int, families: tuple[str, ...]) -> tuple[list[str], dict[Path, tuple]]:
    errors = []
    refs = {}
    rows = (directory / "targets.csv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != count:
        errors.append(f"{directory}: {len(rows)} targets, expected {count}")
    for row in rows:
        ident, target, family, n = row.split(",")
        path = directory / "graphs" / f"{int(ident):06d}.edges"
        n_file, edges = read_edges(path)
        if family not in families or n_file != int(n):
            errors.append(f"{path}: family {family} / n {n} disagree with the request or the file")
            continue
        ipr, lam = reference(family, n_file, edges)
        refs[path] = (n_file, len(edges), ipr, lam)
        if abs(_float(target) - ipr) > IPR_TOL:
            errors.append(f"{path}: target {target} is not the reference IPR {ipr!r}")
    return errors, refs


def check_spectral(cmd: Command, n: int, m: int, ipr: float, lam: float) -> str | None:
    """None when a spectral command's output matches the reference, else the reason.

    A failed command must report a one-line JSON error on stderr.
    """
    if cmd.rc != 0:
        try:
            err = json.loads(cmd.stderr.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return f"{cmd.label}: exit {cmd.rc} without a JSON error line"
        return None if {"error", "type"} <= set(err) else f"{cmd.label}: malformed error {err}"
    out = json.loads(cmd.stdout)
    if out["n"] != n or out["m"] != m:
        return f"{cmd.label}: n/m {out['n']}/{out['m']} != {n}/{m}"
    if abs(out["ipr"] - ipr) > IPR_TOL:
        return f"{cmd.label}: ipr {out['ipr']!r} != reference {ipr!r}"
    if abs(out["lambda1"] - lam) > LAMBDA_TOL * max(1.0, abs(lam)):
        return f"{cmd.label}: lambda1 {out['lambda1']!r} != reference {lam!r}"
    if out["region"] != region(out["ipr"]):
        return f"{cmd.label}: region {out['region']} does not match ipr {out['ipr']!r}"
    return None


def check_iteration(workload: Workload, inputs: Inputs, it: Iteration) -> dict[str, str]:
    """Label -> reason for every command whose output is wrong."""
    bad: dict[str, str] = {}
    data = it.workdir / "data"
    gen_out = json.loads(it.generate.stdout)
    errors, refs = _check_split(data / "train", workload.train_count, workload.families)
    test_errors, test_refs = _check_split(data / "test", workload.test_count, workload.families)
    errors += test_errors
    refs.update(test_refs)
    if gen_out.get("train") != workload.train_count or gen_out.get("test") != workload.test_count:
        errors.append(f"generate reported {gen_out}")
    if errors:
        bad["generate"] = "; ".join(errors[:3])

    epochs = json.loads(it.train.stdout).get("epochs")
    curve = (it.workdir / "run" / "loss_curve.csv").read_text(encoding="utf-8").splitlines()[1:]
    losses = [_float(r.split(",")[1]) for r in curve]
    ckpt = json.loads((it.workdir / "run" / "checkpoint.json").read_text(encoding="utf-8"))
    model = workload.train_flags[workload.train_flags.index("--model") + 1]
    if epochs != workload.epochs or len(losses) != epochs or not all(map(math.isfinite, losses)):
        bad["train"] = f"epochs {epochs}, {len(losses)} finite-checked loss rows"
    elif ckpt.get("model") != model:
        bad["train"] = f"checkpoint model {ckpt.get('model')!r} != {model!r}"

    bad_eval = _check_eval(it.workdir, data / "test", workload.test_count)
    if bad_eval:
        bad["eval"] = bad_eval

    if workload.mixed_spectral:
        expect = [(g.n, g.m, g.ipr, g.lam) for g in inputs.mix]
    else:
        expect = [refs[p] for p in it.spectral_files]
    for cmd, ref in zip(it.spectral, expect):
        reason = check_spectral(cmd, *ref)
        if reason:
            bad[cmd.label] = reason
    return bad


def _check_eval(workdir: Path, test_dir: Path, count: int) -> str | None:
    report = workdir / "report"
    summary = json.loads((report / "summary.json").read_text(encoding="utf-8"))
    targets = [_float(r.split(",")[1]) for r in (test_dir / "targets.csv").read_text().splitlines()[1:]]
    rows = [r.split(",") for r in (report / "predictions.csv").read_text().splitlines()[1:]]
    if summary["count"] != count or len(rows) != count:
        return f"count {summary['count']} / {len(rows)} rows, expected {count}"
    preds = [_float(r[4]) for r in rows]
    if [_float(r[3]) for r in rows] != targets:
        return "prediction rows do not carry the dataset's targets"
    if not all(map(math.isfinite, preds)):
        return "non-finite prediction"
    if any(int(r[5]) != region(t) or int(r[6]) != region(p) for r, t, p in zip(rows, targets, preds)):
        return "region columns disagree with the thresholds"
    accuracy = sum(region(t) == region(p) for t, p in zip(targets, preds)) / count
    mse = sum((p - t) ** 2 for p, t in zip(preds, targets)) / count
    if not math.isclose(summary["region_accuracy"], accuracy, rel_tol=1e-12):
        return f"region_accuracy {summary['region_accuracy']} != {accuracy}"
    if not math.isclose(summary["mse"], mse, rel_tol=1e-9):
        return f"mse {summary['mse']} != {mse}"
    return None
