"""Set-up, measured and traced runs of one workload, and their metrics.

All times are normalized by the reference clock (see refclock.py); the
details of a run also carry the raw wall times.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import stats
from layers import Counters, layer_metrics, traced
from refclock import RefClock
from spans import SpanRecorder
from workloads import Inputs, Workload, check_iteration, make_inputs, normalize, run_iteration, tree_digest

SETUP_REPEATS = 3
E2E_UNITS = {
    "setup_s": "s",
    "generate_graphs_per_s": "graphs/s",
    "train_s": "s",
    "eval_graphs_per_s": "graphs/s",
    "label_graphs_per_s": "graphs/s",
    "label_ms_p50": "ms",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
}
MAX_REPORTED_FAILURES = 10


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _import_probe(root: Path) -> None:
    """A fresh interpreter that imports netloc.cli, as every CLI user pays for."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import netloc.cli", str(root / "src")],
        check=True,
        timeout=120,
    )


def _warm_up(cli, clock: RefClock, workload: Workload, inputs: Inputs, directory: Path) -> None:
    """The workload's commands once on tiny graphs, so lazy set-up is done before timing."""
    tiny = dataclasses.replace(
        workload,
        train_count=4,
        test_count=4,
        generate_flags=("--families", ",".join(workload.families), "--train-sizes", "12", "18", "--test-sizes", "12", "18"),
        epochs=1,
        mixed_spectral=False,
    )
    run_iteration(cli, clock, tiny, inputs, directory)


def set_up(cli, clock: RefClock, workload: Workload, seed: int, root: Path, work: Path):
    """Process start and imports, the input files and a warm-up, repeated.

    Returns the inputs and the (start, end, wall) of each repeat.
    """

    def once() -> Inputs:
        shutil.rmtree(work, ignore_errors=True)
        _import_probe(root)
        inputs = make_inputs(workload, seed, work / "inputs")
        _warm_up(cli, clock, workload, inputs, work / "warm")
        return inputs

    repeats = []
    for _ in range(SETUP_REPEATS):
        inputs, start, end, wall = clock.measure(once)
        repeats.append((start, end, wall))
    return inputs, repeats


class Tally:
    """Attempted and failed commands, and the reasons outputs were wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: dict[str, str] = {}
        self.failures: dict[str, str] = {}

    def add(self, it, bad: dict[str, str]) -> None:
        for cmd in it.commands:
            self.attempted += 1
            if cmd.rc != 0:
                self.failed += 1
                self.failures.setdefault(cmd.label, cmd.stderr.strip()[:200])
            elif cmd.label in bad:
                self.failed += 1
                self.wrong.setdefault(cmd.label, bad[cmd.label])

    def flag(self, label: str, reason: str) -> None:
        self.wrong.setdefault(label, reason)

    def details(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_commands": dict(list(self.failures.items())[:MAX_REPORTED_FAILURES]),
            "wrong_outputs": dict(list(self.wrong.items())[:MAX_REPORTED_FAILURES]),
        }


class Checker:
    """Checks the first iteration in full; later ones must reproduce its bytes."""

    def __init__(self, workload: Workload, inputs: Inputs, tally: Tally):
        self.workload, self.inputs, self.tally = workload, inputs, tally
        self.digest: str | None = None
        self.bad: dict[str, str] = {}

    def __call__(self, it, label: str) -> str:
        digest = tree_digest(it)
        if self.digest is None:
            self.digest = digest
            self.bad = check_iteration(self.workload, self.inputs, it)
            bad = self.bad
        elif digest != self.digest:
            self.tally.flag(label, "artifacts or outputs differ from the first iteration")
            bad = check_iteration(self.workload, self.inputs, it)
        else:
            bad = self.bad
        self.tally.add(it, bad)
        return digest


def run(cli, workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        with RefClock() as clock:
            inputs, setup = set_up(cli, clock, workload, seed, root, work)
            if trace:
                out = _traced_run(cli, clock, workload, inputs, seconds, work, root, seed)
            else:
                out = _measured_run(cli, clock, workload, inputs, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    setup_s = [wall * clock.speed(start, end) for start, end, wall in setup]
    details = out["details"]
    details["setup_s"] = stats.summary(setup_s)
    details["setup_wall_s"] = stats.summary([wall for _, _, wall in setup])
    details["reference_loop_ms"] = stats.summary(clock.reference_ms())
    if not trace:
        out["metrics"]["setup_s"] = stats.median(setup_s)
        out["metrics"] = {k: {"value": out["metrics"][k], "unit": u} for k, u in E2E_UNITS.items()}
    return out


def _measured_run(cli, clock: RefClock, workload: Workload, inputs: Inputs, seconds: float, work: Path) -> dict:
    tally = Tally()
    check = Checker(workload, inputs, tally)
    iterations = []
    measured = 0.0
    while not iterations or measured < seconds:
        it = run_iteration(cli, clock, workload, inputs, work / f"it{len(iterations)}")
        check(it, f"iteration {len(iterations)}")
        shutil.rmtree(it.workdir)
        measured += it.wall
        iterations.append(it)
    normalize(clock, [c for it in iterations for c in it.commands])

    graphs = workload.train_count + workload.test_count
    series = {
        "generate_graphs_per_s": [graphs / it.generate.seconds for it in iterations],
        "train_s": [it.train.seconds for it in iterations],
        "eval_graphs_per_s": [workload.test_count / it.eval.seconds for it in iterations],
        "label_graphs_per_s": [
            sum(c.rc == 0 and c.label not in check.bad for c in it.spectral) / sum(c.seconds for c in it.spectral)
            for it in iterations
        ],
        "label_ms": [c.seconds * 1e3 for it in iterations for c in it.spectral],
    }
    metrics = {k: stats.median(v) for k, v in series.items() if k != "label_ms"}
    metrics["label_ms_p50"] = stats.hd_median(series["label_ms"])
    metrics["success_share"] = (tally.attempted - tally.failed) / tally.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {k: stats.summary(v) for k, v in series.items()}
    details["wall_s"] = {
        stage: stats.summary([getattr(it, stage).wall for it in iterations]) for stage in ("generate", "train", "eval")
    }
    details["wall_s"]["spectral"] = stats.summary([sum(c.wall for c in it.spectral) for it in iterations])
    details.update(tally.details())
    details["iterations"] = len(iterations)
    details["measured_s"] = measured
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "details": details,
    }


def _traced_run(
    cli, clock: RefClock, workload: Workload, inputs: Inputs, seconds: float, work: Path, root: Path, seed: int
) -> dict:
    tally = Tally()
    check = Checker(workload, inputs, tally)
    counters = Counters()
    recorders: list[SpanRecorder] = []
    pairs = []
    measured = 0.0
    while not recorders or measured < seconds:
        k = len(recorders)
        plain = run_iteration(cli, clock, workload, inputs, work / f"plain{k}")
        plain_digest = check(plain, f"iteration {k}")
        shutil.rmtree(plain.workdir)
        recorder = SpanRecorder(run_id=f"{workload.name}-seed{seed}-{os.getpid()}-{k}")
        with traced(recorder, counters):
            tr = run_iteration(cli, clock, workload, inputs, work / f"traced{k}")
        if tree_digest(tr) != plain_digest:
            tally.flag(f"traced iteration {k}", "artifact tree differs from the untraced iteration's")
        tally.add(tr, check.bad)
        shutil.rmtree(tr.workdir)
        recorders.append(recorder)
        pairs.append((plain, tr))
        measured += plain.wall + tr.wall
    normalize(clock, [c for pair in pairs for it in pair for c in it.commands])

    spans_dir = root / ".bench_out" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for rec in recorders:
        rec.write_jsonl(spans_dir / f"{rec.run_id}.jsonl")
    # Span times are wall times; scale them by the traced iterations' speed like every other time.
    speed = stats.median([clock.speed(tr.generate.start, tr.spectral[-1].end) for _, tr in pairs])
    values = {k: v * speed if k.endswith("_s") else v for k, v in layer_metrics(recorders, counters).items()}
    overhead = [tr.seconds - plain.seconds for plain, tr in pairs]
    values["trace.overhead_s"] = stats.median(overhead)
    values["trace.overhead_share"] = stats.median([o / plain.seconds for o, (plain, _) in zip(overhead, pairs)])
    values["trace.spans"] = sum(len(r.spans) for r in recorders) / len(recorders)
    details = {
        "untraced_s": stats.summary([plain.seconds for plain, _ in pairs]),
        "overhead_s": stats.summary(overhead),
    }
    details.update(tally.details())
    details["iterations"] = len(recorders)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()},
        "details": details,
    }
