#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarize them.

    python3 perfbench/collect.py --runs 10 --out perfbench/out/summary.json
    python3 perfbench/collect.py --runs 5 --workload compute-large --traced 0

For each workload, runs perfbench/run.py with --trace 0 once per seed
(seeds seed-base, seed-base+1, ...) and --trace 1 for the first --traced
seeds.  For each end-to-end metric it reports the per-run values, their
median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  It also
compares cpu_s at the full worker count with the CPU time of the traced
run's untraced one-worker reference, which checks that cpu_s includes the
pool workers.  The summary is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "out", "results", f"{tag}.json"), encoding="utf-8") as fh:
        result["record"] = json.load(fh)
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--workload", action="append", help="default: all")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = [args.seed_base + i for i in range(args.runs)]
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"seeds": seeds, "correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        summary.setdefault("environment", runs[0]["record"]["environment"])
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": values}
        for seed in seeds[:args.traced]:
            traced = run_once(workload, seed, spec["run_seconds"], 1)
            entry.setdefault("per_layer", {m: v["value"] for m, v in traced["metrics"].items()})
            ref_cpu = traced["record"]["traced"]["reference"]["cpu_s"]
            entry["cpu_check"] = {
                "cpu_s_at_workers": entry["end_to_end"]["cpu_s"]["median"],
                "cpu_s_one_worker": ref_cpu,
                "ratio": entry["end_to_end"]["cpu_s"]["median"] / ref_cpu}
            entry["correct"] = entry["correct"] and traced["correct"]
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else (
                "WITHIN BOUND" if s["spread"] < s["bound"] else "OVER BOUND")
            print(f"{workload:<18} {name:<12} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}  {flag}", flush=True)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if all(e["correct"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
