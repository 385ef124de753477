import ast
import hashlib
import inspect
import os
import random
import re
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import chain
from pathlib import Path

import pytest

from conftest import graph6_pairs, labeled_connected, nx_graph6, nx_mask
from periwiener import audit, corpus, generators, indices
from periwiener.errors import InvalidParameterError
from periwiener.generators import cycle, hypercube, path
from periwiener.graphio import write_graph6
from periwiener.graphs import Graph, build_graph, cartesian_product, distance_matrix
from periwiener.indices import (
    peripheral_distance_number,
    peripheral_hyper_wiener,
)

FAST = audit.Budget(max_n=4, trials=10, threads=1)


def _run_one(cid, budget):
    return audit.run_claims([audit._CLAIMS[cid]], budget)[0]

EXPECTED_DISCREPANCIES = {
    "C-HYPERCUBE",
    "T-DSTAR",
    "T-LOBSTER",
    "T-TREE-BOUNDS-LO",
    "DEF-PWW-ALT",
}


class TestRegistry:
    def test_size(self):
        # the registered statement list enumerates exactly these 35 ids
        assert len(audit.register_claims()) == 35

    def test_ids_unique_and_anchored(self):
        claims = audit.register_claims()
        ids = [c.id for c in claims]
        assert len(set(ids)) == len(ids)
        for c in claims:
            assert c.anchor.strip()
            assert c.description.strip()
            assert c.expected in (audit.EXPECT_HOLDS, audit.EXPECT_DISCREPANCY)
            assert not c.shadow

    def test_expected_discrepancy_set(self):
        got = {c.id for c in audit.register_claims() if c.expected == audit.EXPECT_DISCREPANCY}
        assert got == EXPECTED_DISCREPANCIES

    def test_exact_id_set(self):
        want = {
            "P1-1", "P1-2", "P1-3", "P1-4",
            "HASSE-1", "HASSE-2", "HASSE-3", "HASSE-4",
            "EQ-COMPLETE", "EQ-P2", "INCOMP-W-PWW",
            "T-BOUNDS", "C-DIAM2", "T-DIAM2", "FIG2-NONCONVERSE",
            "T-PW-D3", "T-PWW-D3",
            "L-PROD-DIST", "C-PROD-PERI", "T-PW-PROD", "T-PWW-PROD",
            "C-HYPERCUBE",
            "T-PW-TREE", "T-PWW-TREE", "T-TREE-BOUNDS-LO", "T-TREE-BOUNDS-HI",
            "T-STAR", "T-DSTAR", "P-DIAM4",
            "L-DIAM-COMP", "T-COMP-TREE", "T-CATERPILLAR", "T-LOBSTER",
            "DEF-PWW-ALT", "OBS-NO-2-5",
        }
        assert {c.id for c in audit.register_claims()} == want

    def test_each_claim_checked_by_its_suite(self):
        # every row holds a callable check and reads a stream of the one
        # table, a shared suite's row by default its suite's; every stream
        # has a reader, and the report suites are unchanged
        claims = audit.register_claims() + audit.register_shadow_claims()
        assert len(claims) == 39
        for c in claims:
            assert callable(c.check), c.id
            assert c.stream in audit._STREAMS, c.id
            assert c.stream == c.suite or c.suite in ("family", "fixed"), c.id
        assert {c.stream for c in claims} == set(audit._STREAMS)
        assert {c.suite for c in claims} == {"corpus", "corpus6", "trees", "products",
                                              "family", "fixed"}

    def test_shadows(self):
        shadows = audit.register_shadow_claims()
        assert {c.id for c in shadows} == {
            "S-DSTAR-FIX", "S-LOBSTER-FIX", "S-HYPERCUBE-FIX", "S-TREE-UB-TIGHT"
        }
        assert all(c.shadow and c.expected == audit.EXPECT_HOLDS for c in shadows)


class TestSingleClaims:
    def test_t_diam2_holds(self):
        res = _run_one("T-DIAM2", FAST)
        assert res.status == audit.STATUS_HOLDS
        assert res.instances_tested > 0
        assert res.matched

    def test_p1_4_holds(self):
        res = _run_one("P1-4", FAST)
        assert res.status == audit.STATUS_HOLDS

    def test_def_pww_alt_minimal_witness_is_k3(self):
        res = _run_one("DEF-PWW-ALT", audit.Budget(max_n=6, trials=0, threads=1))
        assert res.status == audit.STATUS_VIOLATED
        assert res.matched
        # K_3 is the smallest graph where the two expressions part ways
        assert res.witnesses[0]["graph6"] == "Bw"

    def test_def_pww_alt_c4_values(self):
        # the classic witness: pair form 10 against quarter-vertex-sum 20
        dm = distance_matrix(cycle(4))
        assert peripheral_hyper_wiener(dm) == 10
        vertex_sum = sum(
            peripheral_distance_number(dm, v) + peripheral_distance_number(dm, v) ** 2
            for v in dm.periphery
        )
        assert vertex_sum == 80  # i.e. 80/4 = 20 != 10
        assert vertex_sum // 4 == 20

    def test_hypercube_claim_violated_at_q3(self):
        res = _run_one("C-HYPERCUBE", FAST)
        assert res.status == audit.STATUS_VIOLATED
        assert res.matched
        assert audit.hypercube_series_value(3) == 76
        q3 = peripheral_hyper_wiener(distance_matrix(hypercube(3)))
        assert q3 == 72
        # the minimal witness is the 8-vertex cube
        assert res.witnesses[0]["graph6"] == write_graph6(hypercube(3))

    def test_hypercube_series_matches_at_2_only(self):
        assert audit.hypercube_series_value(2) == 10
        assert audit.hypercube_pww(2) == 10
        assert audit.hypercube_pww(3) == 72
        assert audit.hypercube_pww(4) == 448

    def test_tree_lower_bound_violated(self):
        res = _run_one("T-TREE-BOUNDS-LO", audit.Budget(max_n=4, trials=0, threads=1))
        assert res.status == audit.STATUS_VIOLATED
        # P_2 already violates: bound 2 against PWW 1
        assert res.witnesses[0]["graph6"] == "A_"

    def test_dstar_violated_and_shadow_holds(self):
        bad = _run_one("T-DSTAR", FAST)
        good = _run_one("S-DSTAR-FIX", FAST)
        assert bad.status == audit.STATUS_VIOLATED
        assert good.status == audit.STATUS_HOLDS
        # exactly one sampled double star satisfies the registered form: S_{3,3}
        assert bad.instances_tested - bad.violations == 1

    def test_lobster_violated_everywhere(self):
        res = _run_one("T-LOBSTER", FAST)
        assert res.status == audit.STATUS_VIOLATED
        assert res.violations == res.instances_tested

    def test_unknown_claim(self):
        # rows are read from the registry by id, so a stray row cannot run
        stray = replace(audit._CLAIMS["P1-4"], id="NOPE")
        with pytest.raises(KeyError):
            audit.run_claims([stray], FAST)


class TestProductChecks:
    def test_every_moved_edge_caught(self):
        # P_3 x P_4 with one edge moved: the distance check catches every
        # move (the removed pair is no longer adjacent), the periphery check
        # every move that changes the periphery, and the message agrees
        # with BFS
        g, h = path(3), path(4)
        lg, lh = corpus.layered_profile(g), corpus.layered_profile(h)
        prod = cartesian_product(g, h)
        dist, peri = (audit._CLAIMS[cid].check for cid in ("L-PROD-DIST", "C-PROD-PERI"))
        assert dist(lg, lh, corpus.layered_profile(prod)) is None
        assert peri(lg, lh, corpus.layered_profile(prod)) is None
        edges = list(prod.edges())
        want_peri = {a * h.n + x for a in (0, 2) for x in (0, 3)}
        moved = caught_peri = 0
        for e in edges:
            for f in graph6_pairs(prod.n):
                if f in edges:
                    continue
                mutant = build_graph(prod.n, [x for x in edges if x != e] + [f])
                lp = corpus.layered_profile(mutant)
                if lp is None:
                    continue
                moved += 1
                dm = distance_matrix(mutant)
                observed, expected = dist(lg, lh, lp)
                a, x, b, y, d = map(int, re.fullmatch(
                    r"d\(\((\d+),(\d+)\),\((\d+),(\d+)\)\) = (\d+)", observed).groups())
                assert d == dm.dist[a * h.n + x][b * h.n + y]
                assert expected == f"{abs(a - b)} + {abs(x - y)}"
                r = peri(lg, lh, lp)
                assert (r is None) == (set(dm.periphery) == want_peri)
                caught_peri += r is not None
        assert moved > 500 and caught_peri > 100

    def test_deeper_ball_checked(self):
        # a ball of radius 2 that misses (2,0), at distance 2 from (0,0)
        g, h = path(3), path(4)
        p, balls = corpus.layered_profile(cartesian_product(g, h))
        balls = [list(layer) for layer in balls]
        balls[2][0] &= ~(1 << 8)
        check = audit._CLAIMS["L-PROD-DIST"].check
        got = check(corpus.layered_profile(g), corpus.layered_profile(h), (p, balls))
        assert got == ("d((0,0),(2,0)) = 3", "2 + 0")


def _identifiers(path_):
    """Every imported, read or attribute name in a module's source."""
    for node in ast.walk(ast.parse(path_.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


class TestOneEngine:
    def test_only_the_oracle_uses_the_distance_matrix(self):
        # the program computes every metric from the corpus reach layers;
        # the BFS matrix and the definitional indices are the tests' oracle
        # (graphs defines the matrix, and the package namespace re-exports
        # both for library users)
        src = Path(audit.__file__).parent
        for path_ in sorted(src.glob("*.py")):
            if path_.stem not in ("graphs", "indices", "__init__"):
                names = set(_identifiers(path_))
                assert not names & {"distance_matrix", "DistanceMatrix"}, path_.name
        definitional = {name for name, fn in vars(indices).items()
                        if inspect.isfunction(fn) and fn.__module__ == indices.__name__}
        assert "peripheral_distance_number" in definitional
        assert not set(_identifiers(src / "audit.py")) & definitional
        imports = [node for node in ast.walk(ast.parse((src / "audit.py").read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module == "indices"]
        assert [a.name for node in imports for a in node.names] == ["Profile"]


class TestRunAll:
    def test_small_budget_all_match(self):
        report = audit.run_all(FAST)
        assert report.ok()
        assert len(report.results) == 35
        assert len(report.shadow_results) == 4
        statuses = {r.id: r.status for r in report.results}
        for cid in EXPECTED_DISCREPANCIES:
            assert statuses[cid] == audit.STATUS_VIOLATED
        assert all(
            r.status == audit.STATUS_HOLDS
            for r in report.results
            if r.id not in EXPECTED_DISCREPANCIES
        )

    def test_report_bytes_golden(self):
        # SHA-256 of the report as the six-runner engine wrote it; any change
        # to the audit engine must keep these bytes
        report = audit.run_all(audit.Budget(max_n=5, trials=20, seed=1729, threads=1))
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == "fcd22578b613320ac7f689b0b634df82aea2017f45fbc4de7e552f24c6c86382"

    def test_report_bytes_deterministic(self):
        a = audit.run_all(FAST).to_json()
        b = audit.run_all(FAST).to_json()
        assert a == b

    def test_thread_count_does_not_change_output(self):
        one = audit.run_all(audit.Budget(max_n=5, trials=5, threads=1)).to_json()
        two = audit.run_all(audit.Budget(max_n=5, trials=5, threads=2)).to_json()
        assert one == two

    def test_seed_changes_random_suites_not_statuses(self):
        alt = audit.run_all(audit.Budget(max_n=4, trials=10, seed=7, threads=1))
        assert alt.ok()

    def test_claim_filter(self):
        report = audit.run_all(FAST, claim_ids=["T-PWW-PROD"])
        assert [r.id for r in report.results] == ["T-PWW-PROD"]
        assert not report.shadow_results
        assert report.ok()

    def test_unknown_filter(self):
        with pytest.raises(InvalidParameterError):
            audit.run_all(FAST, claim_ids=["BOGUS"])

    def test_json_shape(self):
        doc = audit.run_all(FAST, claim_ids=["FIG2-NONCONVERSE"]).to_dict()
        assert doc["schema_version"] == 1
        claim = doc["claims"][0]
        for field in ("id", "anchor", "status", "expected_status",
                      "instances_tested", "violations", "witnesses"):
            assert field in claim
        assert doc["summary"]["mismatched"] == 0

    def test_witnesses_capped_and_sorted(self):
        res = _run_one("T-LOBSTER", FAST)
        assert len(res.witnesses) <= 10
        assert res.violations > 10


def _divide_by_zero(*args):
    return 1 // 0


def _patch_check(monkeypatch, cid, check):
    """Replace one registry row's check for the length of a test."""
    monkeypatch.setitem(audit._CLAIMS, cid, replace(audit._CLAIMS[cid], check=check))


class TestCheckErrors:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_raising_check_skips_only_its_claim(self, monkeypatch, threads):
        # threads=2 runs every job in the fork pool, whose workers see the
        # patched registry
        budget = audit.Budget(max_n=4, trials=10, threads=threads)
        clean = audit.run_all(budget)
        _patch_check(monkeypatch, "HASSE-2", _divide_by_zero)
        _patch_check(monkeypatch, "P1-3", _divide_by_zero)
        broken = audit.run_all(budget)
        want = {r.id: r for r in clean.results + clean.shadow_results}
        for r in broken.results + broken.shadow_results:
            if r.id in ("HASSE-2", "P1-3"):
                assert r.status == audit.STATUS_SKIPPED
                assert r.note == "ZeroDivisionError: integer division or modulo by zero"
                assert r.instances_tested == 0  # each sweep job raised at once
            else:
                assert r == want[r.id]

    def test_no_instance_drawn_once_no_check_is_live(self):
        drawn = []

        def source():
            for g in (path(2), path(3), path(4)):
                drawn.append(g)
                yield g, 1, (g,)

        accs = {"FIG2-NONCONVERSE": audit._Acc()}
        audit._evaluate(source(), [("FIG2-NONCONVERSE", _divide_by_zero)], accs)
        assert accs["FIG2-NONCONVERSE"].error.startswith("ZeroDivisionError")
        assert len(drawn) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_split_stream_counts_as_one_pass(self, monkeypatch, threads):
        # a corpus check that raises from the first diameter-4 class (n = 5,
        # a walked level; the n = 6 parent jobs hold more) and a tree check
        # that raises from the first random tree of diameter 12 (several
        # random blocks hold one): the split run counts as one serial pass,
        # which stops at the first exception
        def raise_at_diameter_4(n, masks, p):
            if p.diameter == 4:
                raise ValueError(f"diameter 4 at n = {n}")

        def raise_at_diameter_12(g, p, tv):
            if p.diameter >= 12:
                raise ValueError(f"diameter {p.diameter} at n = {g.n}")

        _patch_check(monkeypatch, "HASSE-1", raise_at_diameter_4)
        _patch_check(monkeypatch, "T-PW-TREE", raise_at_diameter_12)
        corpus_budget = audit.Budget(max_n=6, trials=30, threads=threads)
        level = corpus.class_levels()
        corpus_stream = chain(
            chain.from_iterable(audit._class_instances(n, level(n)) for n in range(2, 7)),
            audit._random_graphs(audit._graph_draws(corpus_budget)))
        tree_budget = audit.Budget(max_n=6, trials=600, threads=threads)  # 3 random blocks
        tree_stream = chain(audit._free_trees(),
                            audit._random_trees(audit._tree_draws(tree_budget)))
        got = []
        for cid, budget, stream in (("HASSE-1", corpus_budget, corpus_stream),
                                    ("T-PW-TREE", tree_budget, tree_stream)):
            row = audit._CLAIMS[cid]
            (r,) = audit.run_claims([row], budget)
            accs = {cid: audit._Acc()}
            audit._evaluate(stream, [(cid, row.check)], accs)
            serial = accs[cid]
            assert serial.error and serial.tested > 0
            assert (r.status, r.instances_tested, r.note) == (
                audit.STATUS_SKIPPED, serial.tested, serial.error)
            got.append(r.instances_tested)
        # each raising part after the first counts nothing
        assert got == [43, 200]


class TestRandomDraws:
    def test_three_draws_per_random_graph(self):
        # a trial's order, edge probability and seed are drawn in the parent
        # before its block runs, so each trial takes exactly three draws
        rng, ref = random.Random(3), random.Random(3)
        for lo, hi in ((8, 24), (2, 6), (2, 2)):
            draw = audit._connected_draw(rng, lo, hi)
            assert draw == (ref.randrange(lo, hi + 1), ref.uniform(0.3, 0.85),
                            ref.randrange(1 << 30))
            assert rng.getstate() == ref.getstate()
        budget = audit.Budget(trials=7, seed=11)
        rng = random.Random(11 * 1_000_003 + 101)
        assert audit._graph_draws(budget) == [audit._connected_draw(rng, 8, 24)
                                              for _ in range(70)]


class TestFilteredRun:
    def test_filter_builds_only_its_claims_instances(self, monkeypatch):
        # C-HYPERCUBE streams hypercubes only: no other family, no random
        # graphs or trees, no class of the corpus
        def not_needed(*args, **kwargs):
            raise AssertionError("a stream the claim does not use was built")

        for name in ("caterpillar", "lobster", "random_tree", "random_connected_graph"):
            monkeypatch.setattr(generators, name, not_needed)
        monkeypatch.setattr(corpus, "iter_connected_profiles", not_needed)
        (res,) = audit.run_claims([audit._CLAIMS["C-HYPERCUBE"]],
                                  audit.Budget(max_n=4, trials=10, threads=1))
        assert res.status == audit.STATUS_VIOLATED and not res.note
        assert res.instances_tested == audit.HYPERCUBE_MAX - 1


def _labeled_reference(instances, checks):
    """Oracle for the class sweep: each labeled graph checked on its own,
    every witness kept, then sorted and capped; the first exception stops
    its claim."""
    out = {}
    for cid, fn in checks:
        tested = violations = 0
        witnesses = []
        error = None
        for g, args in instances:
            try:
                r = fn(*args)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                break
            if r is audit._NA:
                continue
            tested += 1
            if r is not None:
                violations += 1
                witnesses.append(((g.n, nx_mask(g)) + r, g))
        # graph6 records of one order sort as their masks: write only the kept
        kept = sorted(witnesses, key=lambda w: w[0])[:audit._MAX_WITNESSES]
        kept = [(n, mask, nx_graph6(g), *r) for (n, mask, *r), g in kept]
        out[cid] = (tested, violations, kept, error)
    return out


@cache
def _labeled_corpus(max_n):
    """Every labeled connected graph up to max_n vertices, with the corpus
    checks' args."""
    labeled = []
    for n in range(2, max_n + 1):
        for mask, p in labeled_connected(n):
            adj = corpus.mask_adjacency(n, mask)
            labeled.append((Graph(n, adj), (n, adj, p)))
    return labeled


def _result_fields(results):
    return {r.id: (r.instances_tested, r.violations, r.witnesses, r.note) for r in results}


def _reference_fields(want):
    return {cid: (tested, violations,
                  [{"graph6": g6, "observed": obs, "expected": exp}
                   for (_n, _mask, g6, obs, exp) in witnesses], error or "")
            for cid, (tested, violations, witnesses, error) in want.items()}


def _diameter_3(n, masks, p):
    return ("diam=3", "diam!=3") if p.diameter == 3 else None


def _unicyclic(n, masks, p):
    return ("m=n", "m!=n") if p.m == n else None


def _diameter_3_at_6(n, masks, p):
    return ("diam=3", "n=6, diam!=3") if n == 6 and p.diameter == 3 else None


def _always(*args):
    return ("always", "never")


def _suite_checks(suite):
    return [(c.id, c.check) for c in audit._CLAIMS.values() if c.suite == suite]


class TestClassSweep:
    """One check per isomorphism class, weighted n!/|Aut|, against every
    labeled graph checked one by one (max_n 5)."""

    BUDGET = dict(max_n=5, trials=0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_corpus_checks_match_labeled_sweep(self, monkeypatch, threads):
        # two patched checks fail on some graphs only, so orbit expansion
        # and the witness pruning run; threads=2 runs the jobs in the pool
        _patch_check(monkeypatch, "HASSE-1", _diameter_3)
        _patch_check(monkeypatch, "HASSE-2", _unicyclic)
        checks = _suite_checks("corpus")
        results = audit.run_claims([audit._CLAIMS[cid] for cid, _ in checks],
                                   audit.Budget(threads=threads, **self.BUDGET))
        want = _labeled_reference(_labeled_corpus(5), checks)
        assert _result_fields(results) == _reference_fields(want)
        assert want["HASSE-1"][1] > audit._MAX_WITNESSES
        assert len({w[0] for w in want["HASSE-2"][2]}) > 1  # witnesses from two orders

    @pytest.mark.parametrize("check, violations, first, last", [
        # witnesses of the top order only, from its parent jobs
        (_diameter_3_at_6, 12_540, "E?Fg", "E?Ro"),
        # witnesses of the lowest orders, which a few classes fill
        (_always, 27_475, "A_", "CR"),
    ], ids=["diameter-3-at-6", "always"])
    def test_witnesses_merged_across_jobs(self, monkeypatch, check, violations, first, last):
        # each job offers one key per violating class, and only the report
        # expands the kept classes; the witnesses must still be the ten
        # smallest labeled graphs of the whole sweep (max_n 6), at either
        # worker count
        _patch_check(monkeypatch, "HASSE-1", check)
        want = _labeled_reference(_labeled_corpus(6), [("HASSE-1", check)])
        for threads in (1, 2):
            (result,) = audit.run_claims([audit._CLAIMS["HASSE-1"]],
                                         audit.Budget(max_n=6, trials=0, threads=threads))
            assert _result_fields([result]) == _reference_fields(want), threads
        witnesses = want["HASSE-1"][2]
        assert result.violations == violations
        assert (witnesses[0][2], witnesses[-1][2]) == (first, last)
        assert len({corpus.canonical_mask(n, mask) for n, mask, *_ in witnesses}) >= 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_only_the_report_expands_classes(self, monkeypatch, threads):
        # a claim that fails on every class expands at most ten of them, all
        # in this process: a job that called labelings would raise
        calls = []
        real = corpus.labelings
        pid = os.getpid()

        def counting(n, mask):
            if os.getpid() != pid:
                raise AssertionError("labelings called in a worker")
            calls.append((n, mask))
            return real(n, mask)

        monkeypatch.setattr(corpus, "labelings", counting)
        _patch_check(monkeypatch, "HASSE-4", _always)
        (result,) = audit.run_claims([audit._CLAIMS["HASSE-4"]],
                                     audit.Budget(max_n=7, trials=0, threads=threads))
        assert result.status == audit.STATUS_VIOLATED and not result.note
        assert result.violations == 1 + 4 + 38 + 728 + 26_704 + 1_866_256  # A001187
        assert [w["graph6"] for w in result.witnesses] == [
            "A_", "BW", "Bg", "Bo", "Bw", "CF", "CL", "CM", "CN", "CR"]
        assert 0 < len(calls) <= audit._MAX_WITNESSES

    def test_a_holding_claim_searches_no_class(self, monkeypatch):
        # only a violating class is keyed, so a claim that holds adds no
        # search to those of class growth (the walk, each job's parent and
        # the ties): the path the benchmark's audit takes
        calls = []
        real = corpus.canonical_form

        def counting(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(corpus, "canonical_form", counting)
        (result,) = audit.run_claims([audit._CLAIMS["HASSE-1"]],
                                     audit.Budget(max_n=7, trials=0, threads=1))
        assert result.status == audit.STATUS_HOLDS
        assert len(calls) == 732

    def test_corpus6_matches_labeled_sweep(self):
        checks = _suite_checks("corpus6")
        results = audit.run_claims([audit._CLAIMS[cid] for cid, _ in checks],
                                   audit.Budget(**self.BUDGET))
        labeled = []
        for n in range(2, 6):
            for mask, _ in labeled_connected(n):
                g = Graph(n, corpus.mask_adjacency(n, mask))
                labeled.append((g, corpus.layered_profile(g)))
        want = _labeled_reference(labeled, checks)
        assert _result_fields(results) == _reference_fields(want)
        assert want["DEF-PWW-ALT"][1] > audit._MAX_WITNESSES


def _count_pools(monkeypatch):
    """Record each pool that corpus.run_jobs starts."""
    pools = []
    real = corpus.get_context

    def counting(method):
        pools.append(method)
        return real(method)

    monkeypatch.setattr(corpus, "get_context", counting)
    return pools


class TestOnePool:
    """Every requested stream as fixed jobs in one pool per run_claims."""

    BUDGET = dict(max_n=5, trials=50)

    def test_every_suite_splits_into_jobs(self):
        # each stream is swept once: every job of a stream checks all the
        # claims that read it, in registry order
        rows = list(audit._CLAIMS.values())
        readers = {}
        for row in rows:
            readers.setdefault(row.stream, []).append(row.id)
        per_stream = Counter()
        for _, (ids, *_args) in audit._jobs(rows, audit.Budget(**self.BUDGET)):
            (stream,) = {audit._CLAIMS[cid].stream for cid in ids}
            assert ids == readers[stream], stream
            per_stream[stream] += 1
        assert set(per_stream) == set(audit._STREAMS)
        per_suite = Counter()
        for stream, jobs in per_stream.items():
            per_suite[audit._CLAIMS[readers[stream][0]].suite] += jobs
        assert min(per_suite.values()) >= 2, per_suite
        assert per_stream["caterpillar"] == 50 and per_stream["lobster"] == 2

    def test_no_job_holds_more_than_a_block_of_family_members(self):
        family = [args for _, args in audit._jobs(list(audit._CLAIMS.values()), audit.Budget())
                  if audit._CLAIMS[args[0][0]].suite == "family"]
        sizes = [len(items) for _ids, _source, (items,) in family]
        assert max(sizes) <= audit._BLOCK
        assert sum(sizes) == 7 + 7 + 15 + 21 + 5 + 105 + 12_496 + 351, sizes

    @pytest.mark.parametrize("ids, name, calls", [
        (["P1-2", "T-STAR"], "star", 7),
        (["T-LOBSTER", "S-LOBSTER-FIX"], "lobster", 351),
    ])
    def test_claims_on_one_family_build_it_once(self, monkeypatch, ids, name, calls):
        made = []
        real = getattr(generators, name)

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(generators, name, counting)
        results = audit.run_claims([audit._CLAIMS[cid] for cid in ids],
                                   audit.Budget(max_n=4, trials=0, threads=1))
        assert len(made) == calls
        assert [r.instances_tested for r in results] == [calls, calls]
        assert all(r.matched and not r.note for r in results)

    def test_each_order_grown_once(self, profile_calls):
        # the corpus, corpus6 and product streams share one walk of the
        # class levels; the corpus jobs at max_n are built, not run
        audit._jobs(list(audit._CLAIMS.values()), audit.Budget(max_n=6, trials=0))
        assert sorted(profile_calls) == [2, 3, 4, 5, 6]

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        pools = _count_pools(monkeypatch)
        outs = []
        for threads in (1, 2, 3):
            before = len(pools)
            outs.append(audit.run_all(audit.Budget(threads=threads, **self.BUDGET)).to_json())
            started = len(pools) - before
            assert started == (corpus.worker_count(threads, 100) > 1), threads
        assert outs[0] == outs[1] == outs[2]

    def test_single_fixed_claim_starts_no_pool(self, monkeypatch):
        pools = _count_pools(monkeypatch)
        (res,) = audit.run_claims([audit._CLAIMS["FIG2-NONCONVERSE"]],
                                  audit.Budget(threads=2))
        assert res.status == audit.STATUS_HOLDS
        assert pools == []


class TestBudget:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            audit.Budget(max_n=1)
        with pytest.raises(InvalidParameterError):
            audit.Budget(max_n=9)
        with pytest.raises(InvalidParameterError):
            audit.Budget(trials=-1)
        with pytest.raises(InvalidParameterError, match="trials must be in 0..100000"):
            audit.Budget(trials=audit.MAX_TRIALS + 1)
        assert audit.Budget(trials=audit.MAX_TRIALS).trials == audit.MAX_TRIALS
        with pytest.raises(InvalidParameterError):
            audit.Budget(threads=-5)

    def test_worker_count_auto(self, monkeypatch):
        # the pure pool-size function shared by audit and enumerate-values;
        # no pool is started here
        monkeypatch.setattr(corpus.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        assert corpus.worker_count(0, 100) == 4
        assert corpus.worker_count(3, 100) == 3
        assert corpus.worker_count(10 ** 6, 100) == 4
        assert corpus.worker_count(0, 2) == 2
        assert corpus.worker_count(3, 1) == 1
        assert corpus.worker_count(0, 0) == 1
        # the CPUs this process may run on, not the CPUs of the machine
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {1, 3})
        assert corpus.worker_count(0, 100) == 2
        assert corpus.worker_count(3, 100) == 2
        # without an affinity call, the count of the machine
        monkeypatch.delattr(corpus.os, "sched_getaffinity")
        assert corpus.worker_count(0, 100) == 4
        monkeypatch.setattr(corpus.os, "cpu_count", lambda: None)
        assert corpus.worker_count(0, 100) == 1
        assert corpus.worker_count(8, 100) == 1
