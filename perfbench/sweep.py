"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads gcn-cyclestar,gat-ersf] [--trace 0]
    python3 perfbench/sweep.py --seeds 1-10 --parent ../netloc-parent --out change.jsonl --parent-out parent.jsonl

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at a
time, from the checkout root. Each run's result line is appended to ``--out``
with its workload and seed, ready for ``compare.py``. With ``--parent``, every
seed also runs in that other checkout (the parent commit), alternating which
side goes first, so that drift of the machine's speed falls on both sides
alike; the parent's records go to ``--parent-out``. For every end-to-end
metric it prints the median over the seeds and the quartile spread as a share
of the median, next to the metric's bound; a spread at or above a third of the
bound is marked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *bench["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(
        f"{root.name}: {workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}",
        flush=True,
    )
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall, **result}


def report(label: str, workload: str, runs: list[dict], specs: dict) -> None:
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = stats.median(values)
        q1, q3 = stats.quartiles(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        mark = "  <-- spread >= bound/3" if spread >= spec["bound"] / 3 else ""
        print(
            f"  {label:7s} {workload:18s} {name:24s} median {med:12.5g} {spec['unit']:9s} "
            f"spread {spread:6.3f} bound {spec['bound']}{mark}"
        )


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "sweep.jsonl"))
    parser.add_argument("--parent", default=None, help="root of a checkout of the parent commit")
    parser.add_argument("--parent-out", default=str(ROOT / ".bench_out" / "parent.jsonl"), dest="parent_out")
    args = parser.parse_args(argv)
    sides = {"change": (ROOT, Path(args.out))}
    if args.parent:
        sides["parent"] = (Path(args.parent).resolve(), Path(args.parent_out))
    for _, out in sides.values():
        out.parent.mkdir(parents=True, exist_ok=True)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for k, seed in enumerate(parse_seeds(args.seeds)):
            order = list(sides) if k % 2 == 0 else list(reversed(sides))
            for side in order:
                root, out = sides[side]
                try:
                    record = run_once(root, bench, workload, seed, args.trace)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 1
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                runs[side].append(record)
        if not args.trace:
            for side, side_runs in runs.items():
                report(side, workload, side_runs, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
