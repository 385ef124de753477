"""The benchmark's workloads.

Each workload writes its inputs from the seed (`setup`, in a set-up
process of its own), finds them in the measured process (`prepare`), runs
one job (`job`, the timed part, then `finish` to collect the output outside
the timed region), reports its size (`items`) and checks its output
(`check`).
`traced_job` runs the same job with one worker under root spans, and
`pool_chunks` names the functions a pool runs in its workers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from math import comb

from periwiener import audit, cli, graphio, indices
from periwiener.graphs import build_graph, distance_matrix

import inputs

# Connected labeled graphs on n vertices (OEIS A001187).
LABELED_CONNECTED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}


class Checks:
    """Counts checked outputs and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class AuditN7:
    name = "audit-n7"
    pool_chunks = (("audit", "_corpus_chunk"),)
    roots = tuple(f"audit.suite.{s}" for s in
                  ("corpus", "corpus6", "trees", "products", "family", "fixed"))

    def __init__(self, smoke: bool):
        self.max_n, self.trials = (5, 20) if smoke else (7, 1000)

    def setup(self, directory: str, seed: int) -> None:
        """The job has no input file: the seed goes into its Budget."""

    def prepare(self, directory: str, seed: int) -> None:
        self.seed = seed

    def _budget(self, workers: int) -> audit.Budget:
        return audit.Budget(max_n=self.max_n, trials=self.trials, seed=self.seed,
                            threads=workers)

    def job(self, workers: int):
        return audit.run_all(self._budget(workers))

    def traced_job(self, tracer):
        """run_all's work, with one run_claims call per suite under a root span."""
        budget = self._budget(1)
        registry = audit.register_claims()
        shadows = audit.register_shadow_claims()
        by_suite: dict[str, list] = {}
        for claim in registry + shadows:
            by_suite.setdefault(claim.suite, []).append(claim)
        results = {}
        for suite, members in by_suite.items():
            with tracer.root(f"audit.suite.{suite}"):
                for r in audit.run_claims(members, budget):
                    results[r.id] = r
        return audit.AuditReport(results=[results[c.id] for c in registry],
                                 shadow_results=[results[c.id] for c in shadows],
                                 budget=budget)

    def finish(self, report):
        return report

    def items(self, report) -> int:
        return report.to_dict()["summary"]["instances_tested"]

    def digest(self, report) -> str:
        return sha256(report.to_json())

    def digest_key(self) -> str:
        return f"{self.name}:max_n={self.max_n}:trials={self.trials}:seed={self.seed}"

    def check(self, report, checks: Checks) -> None:
        for r in report.results + report.shadow_results:
            checks.expect(r.matched, f"claim {r.id}: status {r.status}, expected {r.expected}")
        checks.expect(report.ok(), "report.ok() is false")


class EnumeratePwwN7:
    name = "enumerate-pww-n7"
    pool_chunks = (("corpus", "_scan_chunk"),)
    roots = ("enumerate",)

    def __init__(self, smoke: bool):
        self.max_n = 5 if smoke else 7

    def setup(self, directory: str, seed: int) -> None:
        """The job has no input: it sweeps every graph up to max_n."""

    def prepare(self, directory: str, seed: int) -> None:
        pass

    def job(self, workers: int) -> str:
        return cli.enumerate_values_csv("pww", self.max_n, threads=workers)

    def traced_job(self, tracer) -> str:
        with tracer.root("enumerate"):
            return cli.enumerate_values_csv("pww", self.max_n, threads=1)

    def finish(self, text: str) -> str:
        return text

    def items(self, text: str) -> int:
        return sum(LABELED_CONNECTED[n] for n in range(2, self.max_n + 1))

    def digest(self, text: str) -> str:
        return sha256(text)

    def digest_key(self) -> str:
        return f"{self.name}:max_n={self.max_n}"

    def check(self, text: str, checks: Checks) -> None:
        lines = text.splitlines()
        prefix = "# non_attained: "
        gaps_line = lines[-1] if lines else ""
        checks.expect(gaps_line.startswith(prefix), "missing non_attained line")
        gaps = {int(v) for v in gaps_line[len(prefix):].split(",") if v.strip()}
        checks.expect({2, 5} <= gaps, f"2 and 5 not both in the gaps {sorted(gaps)}")
        rows = list(csv.reader(io.StringIO("\n".join(lines[:-1]))))
        checks.expect(rows[:1] == [["value", "n", "graph6"]], "bad CSV header")
        values = [int(r[0]) for r in rows[1:]]
        checks.expect(values == sorted(set(values)), "values not strictly ascending")
        checks.expect(not gaps & set(values), "a value is both attained and a gap")
        for value, n, g6 in rows[1:]:
            g = graphio.parse_graph6(g6)
            ok = (g.n == int(n) and 2 <= g.n <= self.max_n
                  and indices.index_vector(g).pww == int(value))
            checks.expect(ok, f"witness {g6} for value {value} fails the oracle")


class ComputeLarge:
    name = "compute-large"
    pool_chunks = ()
    roots = ("cli.main.q10", "cli.main.gnp", "cli.main.tree-cuts", "cli.main.stream")
    columns = ("graph", "n", "m", "diameter", "radius", "k", "pendants",
               "w", "ww", "pw", "pww", "tw", "tww")

    def __init__(self, smoke: bool):
        self.sizes = inputs.SMOKE if smoke else inputs.FULL
        self._graphs = None
        self._oracle = None

    def setup(self, directory: str, seed: int) -> None:
        inputs.write_inputs(directory, seed, self.sizes)

    def prepare(self, directory: str, seed: int) -> None:
        """Only the file names: the graphs are generated again after the
        job, for the checks, so that they stay out of its peak memory."""
        self.seed = seed
        self.directory = directory
        self.files = inputs.input_files(directory)
        for f in self.files:
            if os.path.exists(self._output(f)):
                os.remove(self._output(f))

    def _argv(self, f: inputs.InputFile) -> list[str]:
        return ["compute", "--input", f.path, "--format", f.fmt, "--method", f.method,
                "--emit", "csv", "--output", self._output(f)]

    def _output(self, f: inputs.InputFile) -> str:
        return os.path.join(self.directory, f"out-{f.label}.csv")

    def job(self, workers: int) -> list[int]:
        return [cli.main(self._argv(f)) for f in self.files]

    def traced_job(self, tracer) -> list[int]:
        codes = []
        for f in self.files:
            with tracer.root(f"cli.main.{f.label}"):
                codes.append(cli.main(self._argv(f)))
        return codes

    def finish(self, codes: list[int]) -> list[tuple[int, str]]:
        out = []
        for f, code in zip(self.files, codes):
            with open(self._output(f), encoding="utf-8") as fh:
                out.append((code, fh.read()))
        return out

    def graphs(self) -> dict[str, list]:
        if self._graphs is None:
            self._graphs = inputs.generate(self.seed, self.sizes)
        return self._graphs

    def items(self, output) -> int:
        return sum(comb(n, 2) for graphs in self.graphs().values() for n, _ in graphs)

    def digest(self, output) -> str:
        return sha256("".join(text for _, text in output))

    def digest_key(self) -> str:
        return f"{self.name}:{self.sizes}:seed={self.seed}"

    def oracle(self) -> list[list[tuple]]:
        """Expected rows from the definitional index_vector, once per run."""
        if self._oracle is None:
            self._oracle = []
            for f in self.files:
                rows = []
                for idx, (n, edges) in enumerate(self.graphs()[f.label]):
                    g = build_graph(n, edges)
                    dm = distance_matrix(g)
                    iv = indices.index_vector(g, dm)
                    rows.append((idx, g.n, g.m, dm.diameter, dm.radius, iv.k, iv.pendant_count,
                                 iv.w, iv.ww, iv.pw, iv.pww, iv.tw, iv.tww))
                self._oracle.append(rows)
        return self._oracle

    def check(self, output, checks: Checks) -> None:
        for f, expected, (code, text) in zip(self.files, self.oracle(), output):
            with open(f.path, encoding="ascii") as fh:
                checks.expect(fh.read() == inputs.render(f, self.graphs()[f.label]),
                              f"{f.label}: the input file differs from its seed's graphs")
            checks.expect(code == 0, f"{f.label}: exit code {code}")
            rows = list(csv.reader(io.StringIO(text)))
            checks.expect(rows[:1] == [list(self.columns)], f"{f.label}: bad CSV header")
            got = [tuple(int(x) for x in r) for r in rows[1:]]
            checks.expect(len(got) == len(expected), f"{f.label}: {len(got)} rows")
            for want, have in zip(expected, got):
                checks.expect(want == have, f"{f.label} graph {want[0]}: {have} != {want}")
            if f.label == "q10" and got:
                d = self.sizes.cube_dim
                w, pww = got[0][7], got[0][10]
                checks.expect(w == d * 4 ** (d - 1), f"W(Q_{d}) = {w}")
                checks.expect(pww == audit.hypercube_pww(d), f"PWW(Q_{d}) = {pww}")


WORKLOADS = {w.name: w for w in (AuditN7, EnumeratePwwN7, ComputeLarge)}
ROOT_NAMES = {r for w in WORKLOADS.values() for r in w.roots}
