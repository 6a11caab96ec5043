"""Compare two result sets, parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one JSON run record per line, as ``sweep.py`` writes them
(``run.py`` appends the same records to ``.bench_out/results.jsonl``). Runs
are grouped by workload and paired by seed, or by order where the seeds of
the two sets differ. For each workload and metric it prints both medians and
quartiles, the pairs the change won and lost, and a verdict from
``stats.verdict``: improved, no worse, worse or unresolved. Bounds and
directions come from BENCHMARK.json; per-layer metrics have no bound. A
change that fails more operations than its parent claims no improvement.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            groups[(rec["workload"], rec.get("trace", 0))].append(rec)
    return groups


def pair(parent: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    by_seed = {r["seed"]: r for r in change}
    if {r["seed"] for r in parent} == set(by_seed):
        return parent, [by_seed[r["seed"]] for r in parent]
    k = min(len(parent), len(change))
    return parent[:k], change[:k]


def compare(parent_path: str, change_path: str, bench: dict) -> list[dict]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    rows = []
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = pair(parent[key], change[key])
        more_failures = stats.median([r["failed"] for r in c_runs]) > stats.median([r["failed"] for r in p_runs])
        for name in p_runs[0]["metrics"]:
            spec = specs.get(name)
            if spec is None or any(name not in r["metrics"] for r in c_runs):
                continue
            row = stats.verdict(
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
                spec["better"],
                spec.get("bound"),
            )
            if more_failures and row["verdict"] == "improved":
                row["verdict"] = "unresolved (more failures)"
            rows.append({"workload": key[0], "trace": key[1], "metric": name, "unit": spec["unit"], **row})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(args.parent, args.change, bench)
    if not rows:
        print("no workload appears in both result sets", file=sys.stderr)
        return 1
    for r in rows:
        print(
            f"{r['workload']:18s} {r['metric']:32s} {r['unit']:9s} "
            f"parent {r['parent_median']:11.5g} [{r['parent_q'][0]:.5g}, {r['parent_q'][1]:.5g}]  "
            f"change {r['change_median']:11.5g} [{r['change_q'][0]:.5g}, {r['change_q'][1]:.5g}]  "
            f"won {r['wins']}/{r['pairs']} lost {r['losses']}  {r['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
