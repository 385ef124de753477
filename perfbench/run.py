#!/usr/bin/env python3
"""Benchmark of periwiener: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload audit-n7 --seed 1 --seconds 10 --trace 0

Workloads: audit-n7, enumerate-pww-n7, compute-large (see BENCHMARK.json
and perfbench/README.md).  The metric names and units come from
BENCHMARK.json.

--trace 0 prints the end-to-end metrics.  The job runs with one pool worker
per CPU available to the process and is repeated until --seconds have
passed (at least once); each metric is the median over the repetitions.
setup_s is the median over fresh processes that start the interpreter,
import periwiener and write the inputs; the first of them writes the inputs
of the job, so the measured process generates none.

--trace 1 prints the per-layer metrics.  The job runs once with one worker
under the span tracer while an untraced one-worker run of the same job, in
a child process on the other CPU, gives the reference wall time (for the
tracing overhead) and the CPU split between the pool's chunk functions and
the rest.

Every output is checked outside the timed region.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the full record (environment, quartiles, per-function
table) is written under perfbench/out/.  --smoke runs the same code on tiny
inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

TRACED_MODULES = ["corpus", "graphs", "indices", "trees", "graphio", "generators", "audit", "cli"]
COUNTS = {
    "graphs.distance_matrix": lambda args, dm: dm.n,  # BFS sources
    "corpus.profile_from_masks": lambda args, p: p is not None,  # connected masks
}
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_program() -> None:
    """Import periwiener from this checkout's src/, and from nowhere else."""
    init = os.path.join(SRC, "periwiener", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no periwiener sources at {init}")
    sys.path.insert(0, SRC)
    import periwiener
    if os.path.realpath(periwiener.__file__) != os.path.realpath(init):
        raise BenchError(f"periwiener was imported from {periwiener.__file__}, not {init}")


# --- measurement helpers -------------------------------------------------


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies a non-git checkout."""
    pkg = os.path.join(SRC, "periwiener")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(args, workers: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "workers": workers, "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "system": f"{platform.system()} {platform.release()}",
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def self_command(args, *extra: str) -> list[str]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    return cmd + ["--smoke"] if args.smoke else cmd


# --- checks ----------------------------------------------------------------


def check_output(w, output, checks) -> str | None:
    """Run the workload's checks on one output, and check that its digest
    matches every earlier run of the same inputs and sources in this
    checkout."""
    try:
        w.check(output, checks)
        digest = w.digest(output)
    except Exception as exc:  # a malformed output fails its check
        checks.expect(False, f"checking the output raised {type(exc).__name__}: {exc}")
        return None
    path = os.path.join(OUT, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    known = store.setdefault(f"{source_digest()}:{w.digest_key()}", digest)
    checks.expect(known == digest,
                  f"output SHA-256 {digest[:16]} differs from earlier runs' {known[:16]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return digest


# --- modes -------------------------------------------------------------------


def run_end_to_end(w, args, workers: int, checks, prober, setup_s: list[float]) -> dict:
    """Repeat the job for --seconds (at least once).  The set-up probes are
    spread over the run, half before the first repetition and one after each
    repetition, so that they sample the same stretch of time as the job."""
    probes = 2 if args.smoke else SETUP_PROBES
    probe_dir = os.path.join(OUT, args.workload, "probe")
    while len(setup_s) < probes // 2:
        setup_s.append(prober.probe(probe_dir))
    walls, cpus, outputs = [], [], []
    started = time.perf_counter()
    while not outputs or time.perf_counter() - started < args.seconds:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        raw = w.job(workers)
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        outputs.append(w.finish(raw))
        if len(setup_s) < probes:
            setup_s.append(prober.probe(probe_dir))
    while len(setup_s) < probes:
        setup_s.append(prober.probe(probe_dir))
    # The only children waited for so far are pool workers: the probes
    # reach RUSAGE_CHILDREN when the prober is waited for, after this.
    own_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    prober.close()
    shutil.rmtree(probe_dir, ignore_errors=True)
    samples = {
        "setup_s": setup_s, "wall_s": walls, "cpu_s": cpus,
        "items_per_s": [w.items(output) / wall for output, wall in zip(outputs, walls)],
        "peak_rss_mb": [max(own_rss_kib, pool_rss_kib) / 1024],  # Linux reports KiB
    }
    digests = [check_output(w, output, checks) for output in outputs]
    return {"samples": samples, "digests": digests}


class Prober:
    """Set-up probes, run and timed by a helper process.  A probe's memory
    and CPU time reach this process's RUSAGE_CHILDREN only when the helper
    is waited for, so they stay out of the job's peak RSS and CPU time."""

    def __init__(self, args):
        self.proc = subprocess.Popen(self_command(args, "--prober"), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def probe(self, directory: str) -> float:
        """Seconds from process start to inputs ready in `directory`."""
        try:
            self.proc.stdin.write(directory + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            self.close()
            raise BenchError(f"set-up prober exited with {self.proc.returncode}")
        return float(line)

    def close(self) -> None:
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_prober(args) -> None:
    """The helper behind Prober: one probe per directory read from stdin."""
    for line in sys.stdin:
        print(repr(probe_setup(args, line.rstrip("\n"))), flush=True)


def probe_setup(args, directory: str) -> float:
    """Seconds from process start to inputs ready, in a fresh process."""
    cmd = self_command(args, "--setup-probe", directory)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe exited with {proc.returncode}")
    return t1 - t0


def meter_chunk_cpu(w):
    """Wrap the functions a pool would run in its workers so that their
    process CPU time is summed; returns (totals, undo)."""
    total = [0.0]
    undo = []
    for module_name, attr in w.pool_chunks:
        module = sys.modules[f"periwiener.{module_name}"]
        fn = getattr(module, attr)

        def timed(*a, _fn=fn, **k):
            c0 = time.process_time()
            try:
                return _fn(*a, **k)
            finally:
                total[0] += time.process_time() - c0

        setattr(module, attr, timed)
        undo.append((module, attr, fn))
    return total, undo


def run_reference(w, path: str) -> None:
    """Untraced one-worker job; writes wall, CPU, chunk CPU and digest."""
    chunk_cpu, undo = meter_chunk_cpu(w)
    try:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        raw = w.job(1)
        t1 = time.perf_counter()
        c1 = cpu_seconds()
    finally:
        for module, attr, fn in undo:
            setattr(module, attr, fn)
    output = w.finish(raw)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": t1 - t0, "cpu_s": c1 - c0, "chunk_cpu_s": chunk_cpu[0],
                   "digest": w.digest(output)}, fh)


def run_traced(w, args, workers: int, checks, spec) -> dict:
    import workloads
    from tracer import Tracer

    ref_path = os.path.join(OUT, args.workload, "reference.json")
    if os.path.exists(ref_path):
        os.remove(ref_path)
    cmd = self_command(args, "--reference", ref_path)
    # With two or more CPUs the reference runs alongside on another CPU.
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL) if workers >= 2 else None
    tracer = Tracer()
    try:
        tracer.install("periwiener", TRACED_MODULES, COUNTS)
        try:
            t0 = time.perf_counter()
            raw = w.traced_job(tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        if child is None:
            child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise BenchError(f"reference run exited with {code}")
    with open(ref_path, encoding="utf-8") as fh:
        ref = json.load(fh)

    digest = check_output(w, w.finish(raw), checks)
    checks.expect(digest == ref["digest"], "traced output differs from the untraced reference")

    totals = tracer.totals()
    roots: dict[str, float] = {}
    for name, start, end, _ in tracer.roots:
        roots[name] = roots.get(name, 0.0) + end - start
    derived = {
        "audit.self_s": tracer.self_time("audit.", phase="audit.suite.corpus"),
        "cli.self_s": tracer.self_time("cli."),
        "pool.parent_cpu_s": ref["cpu_s"] - ref["chunk_cpu_s"],
        "pool.worker_cpu_s": ref["chunk_cpu_s"],
        "trace.traced_wall_s": traced_wall,
        "trace.reference_wall_s": ref["wall_s"],
        "trace.overhead_s": traced_wall - ref["wall_s"],
        "trace.root_coverage": sum(roots.values()) / traced_wall,
    }
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        subject, field = name.rsplit(".", 1)
        if name in derived:
            values[name] = derived[name]
        elif field == "wall_s" and subject in workloads.ROOT_NAMES:
            values[name] = roots.get(subject, 0.0)
        elif subject in tracer.names and field in FIELDS:
            values[name] = FIELDS[field](totals.get(subject, [0, 0.0, 0.0, 0]))
        else:
            raise BenchError(f"no rule computes the per-layer metric {name!r}")

    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{tag(args)}.jsonl.gz")
    tracer.write(spans_path)
    table = {name: dict(zip(("calls", "busy_s", "self_s", "count"), rec))
             for name, rec in sorted(totals.items())}
    return {"values": values, "functions": table, "reference": ref,
            "spans_file": os.path.relpath(spans_path, ROOT)}


FIELDS = {
    "calls": lambda rec: rec[0],
    "busy_s": lambda rec: rec[1],
    "self_s": lambda rec: rec[2],
    "sources": lambda rec: rec[3],
    "records": lambda rec: rec[3],
    "connected_ratio": lambda rec: rec[3] / rec[0] if rec[0] else 0.0,
}


def tag(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")


# --- entry point -------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, same code path")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--prober", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", metavar="FILE", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.prober:
            run_prober(args)
            return 0
        load_program()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        w = workloads.WORKLOADS[args.workload](args.smoke)
        os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
        if args.setup_probe:
            w.setup(args.setup_probe, args.seed)
            print("ready", flush=True)
            return 0
        if args.reference:
            directory = os.path.join(os.path.dirname(args.reference), "reference-inputs")
            w.setup(directory, args.seed)
            w.prepare(directory, args.seed)
            run_reference(w, args.reference)
            return 0
        with open(SPEC, encoding="utf-8") as fh:
            spec = json.load(fh)
        workers = len(os.sched_getaffinity(0))
        checks = workloads.Checks()
        record = {}
        inputs_dir = os.path.join(OUT, args.workload, "inputs")
        with Prober(args) as prober:
            setup_s = [prober.probe(inputs_dir)]
            w.prepare(inputs_dir, args.seed)
            if args.trace:
                prober.close()
                record["traced"] = run_traced(w, args, workers, checks, spec)
            else:
                record.update(run_end_to_end(w, args, workers, checks, prober, setup_s))
        record["environment"] = environment(args, workers)
        if args.trace:
            values = record["traced"]["values"]
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            metrics = {}
            for m in spec["end_to_end"]:
                if m["name"] not in record["samples"]:
                    raise BenchError(f"no measurement for end-to-end metric {m['name']!r}")
                metrics[m["name"]] = {**summarize(record["samples"][m["name"]]),
                                      "unit": m["unit"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    record.update(metrics=metrics, attempted=checks.attempted, failed=checks.failed,
                  error_rate=error_rate, failures=checks.failures)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    results_path = os.path.join(results_dir, f"{tag(args)}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} workers={workers} "
          f"cpus={env['cpus_available']} python={env['python']} commit={env['git_commit']}")
    for name, m in metrics.items():
        spread = f"  median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}" if "n" in m else ""
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}{spread}")
    print(f"{'error_rate':<52} {error_rate:>14.6g} ratio  "
          f"{checks.failed} failed of {checks.attempted} checked")
    for failure in checks.failures:
        print(f"# FAILED: {failure}")
    print(f"# results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
