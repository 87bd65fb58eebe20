"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10

Runs run.py once per workload and seed, one run at a time, for the
run_seconds of BENCHMARK.json, and prints for each metric the median over
the seeds and the spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(workload, {})[seed] = last
            print(workload, seed, {k: round(v["value"], 4) for k, v in last["metrics"].items()},
                  "attempted", last["attempted"], "failed", last["failed"], "correct",
                  last["correct"], flush=True)
    for workload, runs in results.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs.values()]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            print(f"{workload:13s} {name:12s} median {med:12.4f}  spread {(q3 - q1) / med:.3f}"
                  f"  bound {bound}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
