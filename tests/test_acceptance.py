"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy exhaustive run (full claim registry at the default budget) happens
once in a module fixture and is shared by the criteria that read it.  Stated
runtime budgets assume 8 cores; they are scaled by 8/cpu_count when fewer
are available.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager
from math import comb

import pytest

from periwiener import audit, corpus
from periwiener.cli import enumerate_values_csv
from periwiener.errors import GraphError
from periwiener.generators import complete, hypercube, path, random_tree, star
from periwiener.graphio import parse_edge_list, parse_graph6, write_edge_list, write_graph6
from periwiener.graphs import build_graph, distance_matrix
from periwiener.indices import (
    hyper_wiener,
    index_vector,
    peripheral_distance_number,
    peripheral_hyper_wiener,
    peripheral_wiener,
    wiener,
)
from periwiener.trees import (
    as_tree,
    hyper_wiener_by_path_cuts,
    peripheral_hyper_wiener_by_path_cuts,
    peripheral_wiener_by_edge_cuts,
    wiener_by_edge_cuts,
)

CPUS = os.cpu_count() or 1
EXHAUSTIVE_CORPUS_SIZE = 1 + 4 + 38 + 728 + 26704 + 1866256  # connected, n = 2..7
DEFAULT_BUDGET = audit.Budget()  # max_n=7, trials=1000, seed=1729, threads=auto


def scaled(bound_seconds: float) -> float:
    return bound_seconds * max(1.0, 8 / CPUS)


@contextmanager
def criterion(num: int, label: str):
    # run with `pytest -s` to see these lines live
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL", flush=True)
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} ({label}): PASS ({dt:.1f}s)", flush=True)


@pytest.fixture(scope="module")
def full_run():
    t0 = time.perf_counter()
    report = audit.run_all(DEFAULT_BUDGET)
    elapsed = time.perf_counter() - t0
    print(f"[acceptance] full registry run: {elapsed:.1f}s on {CPUS} cpus", flush=True)
    return report, elapsed


def _result(report, cid):
    for r in report.results + report.shadow_results:
        if r.id == cid:
            return r
    raise KeyError(cid)


def fig2_tree():
    return build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


def test_criterion_1_golden_values():
    with criterion(1, "golden values"):
        dm = distance_matrix(path(3))
        assert wiener(dm) == 4
        assert peripheral_hyper_wiener(dm) == 3
        dm = distance_matrix(star(4))
        assert wiener(dm) == 16
        assert peripheral_hyper_wiener(dm) == 18
        assert peripheral_hyper_wiener(distance_matrix(fig2_tree())) == 15
        for n in range(2, 9):
            assert peripheral_hyper_wiener(distance_matrix(complete(n))) == comb(n, 2)
        assert peripheral_hyper_wiener(distance_matrix(hypercube(2))) == 10


def test_criterion_2_product_formulas():
    with criterion(2, "product formulas"):
        claims = [c for c in audit.register_claims()
                  if c.id in ("T-PW-PROD", "T-PWW-PROD")]
        t0 = time.perf_counter()
        results = audit.run_claims(claims, DEFAULT_BUDGET)
        elapsed = time.perf_counter() - t0
        for r in results:
            assert r.status == audit.STATUS_HOLDS
            assert r.violations == 0
            # 30 iso-reduced factors with <= 5 vertices -> 465 unordered pairs,
            # plus 1000 seeded random pairs
            assert r.instances_tested == 465 + 1000
        assert elapsed < scaled(60), f"product suite took {elapsed:.1f}s"


def test_criterion_3_diameter2_and_bounds_exhaustive(full_run):
    report, elapsed = full_run
    with criterion(3, "diameter-2 formula and WW bounds, exhaustive n<=7"):
        bounds = _result(report, "T-BOUNDS")
        diam2 = _result(report, "T-DIAM2")
        cdiam2 = _result(report, "C-DIAM2")
        assert bounds.status == audit.STATUS_HOLDS and bounds.violations == 0
        assert diam2.status == audit.STATUS_HOLDS and diam2.violations == 0
        assert cdiam2.status == audit.STATUS_HOLDS and cdiam2.violations == 0
        # exhaustive corpus plus the 10^4 seeded random graphs
        assert bounds.instances_tested == EXHAUSTIVE_CORPUS_SIZE + 10_000
        assert diam2.instances_tested > 100_000  # diameter-2 graphs dominate
        assert elapsed < scaled(120), f"full registry run took {elapsed:.1f}s"


def test_criterion_4_hasse_and_equality_characterizations(full_run):
    report, _ = full_run
    with criterion(4, "Hasse chain and equality characterizations"):
        for cid in ("HASSE-1", "HASSE-2", "HASSE-3", "HASSE-4",
                    "P1-4", "EQ-COMPLETE"):
            r = _result(report, cid)
            assert r.status == audit.STATUS_HOLDS, cid
            assert r.violations == 0
        for cid in ("HASSE-1", "EQ-COMPLETE", "P1-4"):
            assert _result(report, cid).instances_tested == EXHAUSTIVE_CORPUS_SIZE + 10_000


def test_criterion_5_tree_cut_formulas():
    with criterion(5, "tree cut formulas, exhaustive n<=10 plus 10^3 random"):
        checked = 0

        def check(g):
            nonlocal checked
            dm = distance_matrix(g)
            tv = as_tree(g)
            assert wiener_by_edge_cuts(tv) == wiener(dm)
            assert hyper_wiener_by_path_cuts(tv) == hyper_wiener(dm)
            assert peripheral_wiener_by_edge_cuts(tv) == peripheral_wiener(dm)
            assert peripheral_hyper_wiener_by_path_cuts(tv) == peripheral_hyper_wiener(dm)
            checked += 1

        for g in corpus.all_free_trees(2, 10):
            check(g)
        assert checked == 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47 + 106  # trees with 2..10 vertices
        rng = random.Random(20250808)
        for _ in range(1000):
            check(random_tree(rng.randrange(2, 41), seed=rng.randrange(1 << 30)))
        assert checked == 200 + 1000


def test_criterion_6_closed_forms_and_complement_dichotomy(full_run):
    report, _ = full_run
    with criterion(6, "caterpillar/diam-4 closed forms and complement dichotomy"):
        cat = _result(report, "T-CATERPILLAR")
        assert cat.status == audit.STATUS_HOLDS and cat.violations == 0
        assert cat.instances_tested == 12_496  # every code with s<=6, ends 1..4, mids 0..4
        d4 = _result(report, "P-DIAM4")
        assert d4.status == audit.STATUS_HOLDS and d4.violations == 0
        comp = _result(report, "T-COMP-TREE")
        assert comp.status == audit.STATUS_HOLDS and comp.violations == 0
        assert comp.instances_tested > 150  # non-star trees among the 200 free trees + randoms


def test_criterion_7_preregistered_discrepancies(full_run):
    report, _ = full_run
    with criterion(7, "pre-registered discrepancies confirmed, zero flips"):
        assert report.ok(), [r.id for r in report.mismatches()]
        for cid in ("DEF-PWW-ALT", "C-HYPERCUBE", "T-DSTAR", "T-LOBSTER",
                    "T-TREE-BOUNDS-LO"):
            r = _result(report, cid)
            assert r.status == audit.STATUS_VIOLATED, cid
            assert r.violations >= 1 and len(r.witnesses) >= 1, cid
        # DEF-PWW-ALT: the quoted C_4 witness values re-verify directly
        from periwiener.generators import cycle

        dm = distance_matrix(cycle(4))
        assert peripheral_hyper_wiener(dm) == 10
        vertex_sum = sum(
            peripheral_distance_number(dm, v) + peripheral_distance_number(dm, v) ** 2
            for v in dm.periphery
        )
        assert vertex_sum // 4 == 20
        # C-HYPERCUBE: the oracle confirms the desk value for Q_3
        assert peripheral_hyper_wiener(distance_matrix(hypercube(3))) == 72
        assert audit.hypercube_series_value(3) == 76
        # shadow corrections all hold
        for r in report.shadow_results:
            assert r.status == audit.STATUS_HOLDS, r.id


def test_criterion_8_structural_lemmas(full_run):
    report, _ = full_run
    with criterion(8, "product distance/periphery lemmas and complement diameter"):
        for cid in ("L-PROD-DIST", "C-PROD-PERI"):
            r = _result(report, cid)
            assert r.status == audit.STATUS_HOLDS and r.violations == 0
            assert r.instances_tested == 465 + 1000
        dcomp = _result(report, "L-DIAM-COMP")
        assert dcomp.status == audit.STATUS_HOLDS and dcomp.violations == 0
        assert dcomp.instances_tested > 10_000  # diameter >= 4 graphs in the corpus


def test_criterion_9_enumerate_values_pww():
    with criterion(9, "enumerate-values pww over n<=7"):
        t0 = time.perf_counter()
        text = enumerate_values_csv("pww", 7, threads=CPUS)
        elapsed = time.perf_counter() - t0
        lines = text.strip().splitlines()
        assert lines[0] == "value,n,graph6"
        gaps_line = [l for l in lines if l.startswith("# non_attained:")][0]
        gaps = {int(v) for v in gaps_line.split(":", 1)[1].split(",") if v.strip()}
        assert 2 in gaps and 5 in gaps
        rows = [l for l in lines[1:] if not l.startswith("#")]
        assert rows, "no attained values reported"
        for line in rows:
            val, n, g6 = line.split(",")
            g = parse_graph6(g6)
            assert g.n == int(n)
            assert index_vector(g).pww == int(val)
            assert int(val) not in gaps
        assert elapsed < scaled(120), f"enumeration took {elapsed:.1f}s"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_full_report_bytes_golden(full_run):
    # the default report as the labeled sweep over every connected graph
    # wrote it; the class sweep must keep these bytes
    report, _ = full_run
    assert _sha256(report.to_json()) == (
        "128004b8efe12f693eef726ec0a69003952ecc89b36477101086a416a62990fa")


@pytest.mark.parametrize("threads", [1, 2])
def test_enumerate_values_pww_n7_golden(threads):
    # the CSV as the labeled sweep wrote it, at either worker count
    assert _sha256(enumerate_values_csv("pww", 7, threads=threads)) == (
        "9d401dc8abe395ffd6e5a7cdd26bdc6b019dbc2a11995caefc4812c1e7d231d1")


def test_criterion_10_round_trips_and_fuzz():
    with criterion(10, "serialization round-trips and parser fuzz"):
        rng = random.Random(424242)
        for _ in range(10_000):
            n = rng.randrange(1, 21)
            edges = [
                (i, j) for j in range(1, n) for i in range(j) if rng.random() < 0.35
            ]
            g = build_graph(n, edges)
            assert parse_graph6(write_graph6(g)) == g
            assert parse_edge_list(write_edge_list(g)) == g
        for _ in range(20_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
            for parser in (parse_graph6, parse_edge_list):
                try:
                    parser(blob)
                except GraphError:
                    pass
