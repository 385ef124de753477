#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with --smoke, untraced and traced,
and checks that each run exits 0, prints every metric by name with its unit
(in the table and in the final JSON line), reports error_rate 0, and that
traced audit-n7 suite spans cover at least 95% of the traced wall time.
It also checks that layers.json maps every per-layer metric, and that the
benchmark exits non-zero without printing a result in a directory holding
only BENCHMARK.json and the benchmark's files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(proc, metrics_spec, expect) -> dict:
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    if not lines:
        expect(False, "no output")
        return {}
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"result keys {sorted(result)}")
    expect(result.get("correct") is True and result.get("failed") == 0
           and result.get("attempted", 0) >= 1, f"result {lines[-1][:200]}")
    table = {row.split()[0]: row.split() for row in lines[:-1] if not row.startswith("#")}
    names = [m["name"] for m in metrics_spec]
    expect(list(result.get("metrics", {})) == names, "metric names differ from BENCHMARK.json")
    for m in metrics_spec:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"JSON metric {m['name']}: {got}")
        row = table.get(m["name"], [])
        expect(row[2:3] == [m["unit"]], f"table row for {m['name']}: {row}")
    expect(table.get("error_rate", [])[1:3] == ["0", "ratio"],
           f"error_rate row {table.get('error_rate')}")
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    failures: list[str] = []
    context = [""]

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{context[0]}: {what}")

    context[0] = "layers.json"
    expect(set(layers) - {"_about"} == {m["name"] for m in spec["per_layer"]},
           "does not map exactly the per-layer metrics")
    workloads = {w["name"] for w in spec["workloads"]}
    for name, entry in layers.items():
        if name != "_about":
            expect(set(entry["on"]) | set(entry["no_change"]) <= workloads, f"{name}: {entry}")

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            context[0] = f"{w['name']} trace={trace}"
            result = check_run(run(ROOT, w["name"], trace), spec[key], expect)
            if w["name"] == "audit-n7" and trace == 1 and result:
                coverage = result["metrics"]["trace.root_coverage"]["value"]
                expect(coverage >= 0.95, f"suite spans cover {coverage:.3f} of the traced wall")

    context[0] = "benchmark files only"
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "exit code 0 without the program")
        expect(not any(line.startswith("{") for line in proc.stdout.splitlines()),
               "printed a result without the program")
    finally:
        shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
