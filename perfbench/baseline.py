"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py --seeds 1-10

Runs perfbench/run.py once per workload of BENCHMARK.json and seed with
--trace 0, then once per workload with --trace 1 on the first seed, and
reports for every metric the median and the quartile spread (Q3 - Q1) / median
over the seeds, with statistics.quantiles(values, n=4) as the quartiles.  The
summary is written to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One run.py process: its result line, environment and wall time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True,
                           cwd=ROOT).stdout.strip().splitlines()
    wall = time.perf_counter() - t0
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env, wall


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            result, env, wall = run(wl, seed, spec["run_seconds"], 0)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
                + f" attempted={result['attempted']} failed={result['failed']}"
                f" wall={wall:.1f}s", flush=True)
            results.append(result)
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": summarise(results), "env": env}
        for name, s in entry["end_to_end"].items():
            verdict = (" ok" if s["spread"] <= bounds[name] / 3
                       else " WIDE (over a third of the bound)")
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, spread "
                  f"{s['spread']:.4f}, bound {bounds[name]}{verdict}", flush=True)
        entry["per_layer_seed"] = seeds[0]
        result, _, wall = run(wl, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"  traced run: wall={wall:.1f}s", flush=True)
        doc["workloads"][wl] = entry
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
