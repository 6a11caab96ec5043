"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gcn-cyclestar --seed 1 --seconds 15 --trace 0

Run from the root of a netloc checkout; netloc is imported from ``src/``.
Workloads are defined in workloads.py and described in design.json.

With ``--trace 0`` the workload's iteration repeats until ``--seconds`` of
wall time are measured and the end-to-end metrics are reported. With
``--trace 1`` each untraced iteration is followed by the same iteration with
every netloc layer wrapped in spans; the per-layer metrics and the tracing
overhead are reported, and both iterations' artifact trees must be
byte-identical. Times are normalized by a reference loop (refclock.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details (sample counts, quartiles, tail percentiles, raw wall
times, failures) and the environment. Each run is also appended to
``.bench_out/results.jsonl``, and a traced run writes its spans to
``.bench_out/spans/``. Without netloc sources under ``src/`` the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: on 2 CPUs one OpenBLAS thread gave 45 ms per GCN epoch and
# two gave 56 ms. Set in the environment before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def load_cli():
    """netloc.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "netloc" / "cli.py").is_file():
        raise ImportError(f"no netloc sources under {src}")
    sys.path.insert(0, str(src))
    import netloc.cli

    if Path(netloc.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"netloc imported from {netloc.cli.__file__}, not {src}")
    return netloc.cli


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import netloc: {exc}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS, StageError

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result = harness.run(cli, workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except StageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **result,
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"details": record["details"], "environment": record["environment"]}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
