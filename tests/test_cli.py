import errno
import json
import os
import re
import subprocess
import sys

import pytest
from periwiener import audit, cli, corpus, errors, graphio, trees
from periwiener.cli import _FAMILIES, enumerate_values_csv, main
from periwiener.generators import (
    complete,
    cycle,
    double_star,
    hypercube,
    path,
    random_connected_graph,
    random_tree,
    star,
)
from periwiener.graphio import parse_graph6, write_graph6
from periwiener.indices import index_vector
from test_audit import _count_pools


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCompute:
    def test_p3_edge_list(self, tmp_path, capsys):
        f = tmp_path / "p3.el"
        f.write_text("3\n0 1\n1 2\n")
        rc, out, _ = run_cli(capsys, "compute", "--input", str(f), "--emit", "json")
        assert rc == 0
        (row,) = json.loads(out)
        assert row["w"] == 4 and row["pww"] == 3
        assert row["n"] == 3 and row["diameter"] == 2

    def test_gen_star_pipe_compute(self, tmp_path, capsys):
        f = tmp_path / "star.el"
        rc, _, _ = run_cli(capsys, "gen", "star", "4", "--output", str(f))
        assert rc == 0
        rc, out, _ = run_cli(capsys, "compute", "--input", str(f), "--emit", "json")
        assert rc == 0
        (row,) = json.loads(out)
        assert row["w"] == 16 and row["pww"] == 18

    def test_disconnected_exits_3(self, tmp_path, capsys):
        f = tmp_path / "two.el"
        f.write_text("4\n0 1\n2 3\n")
        rc, _, err = run_cli(capsys, "compute", "--input", str(f))
        assert rc == 3
        assert "not connected" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.el"
        f.write_text("3\n0 zz\n")
        rc, _, err = run_cli(capsys, "compute", "--input", str(f))
        assert rc == 2
        assert "line 2" in err

    def test_oversized_edge_list_exits_2_before_building(self, tmp_path, capsys, monkeypatch):
        # the header alone is rejected: no vertex list is allocated for it
        def not_built(*args):
            raise AssertionError("build_graph called")

        monkeypatch.setattr(graphio, "build_graph", not_built)
        f = tmp_path / "huge.el"
        f.write_text("200000000\n0 1\n")
        rc, out, err = run_cli(capsys, "compute", "--input", str(f))
        assert (rc, out) == (2, "")
        assert err == (f"error: {f}: line 1: vertex count 200000000 exceeds the supported "
                       f"maximum {graphio.MAX_EDGE_LIST_ORDER}\n")
        monkeypatch.undo()
        top = graphio.MAX_EDGE_LIST_ORDER
        assert graphio.parse_edge_list(f"{top}\n").n == top

    @pytest.mark.parametrize("text", ["²\n", "2\n0 ¹\n", "٣\n"])
    def test_non_ascii_digit_exits_2(self, tmp_path, capsys, text):
        f = tmp_path / "digits.el"
        f.write_text(text, encoding="utf-8")
        rc, out, err = run_cli(capsys, "compute", "--input", str(f))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {f}: line ") and err.count("\n") == 1

    def test_graph6_multi_record(self, tmp_path, capsys):
        f = tmp_path / "many.g6"
        f.write_text("Bw\nBg\n")
        rc, out, _ = run_cli(capsys, "compute", "--input", str(f),
                             "--format", "graph6", "--emit", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + 2 graphs

    def test_cuts_method_on_tree(self, tmp_path, capsys):
        f = tmp_path / "t.el"
        f.write_text("5\n0 1\n0 2\n0 3\n3 4\n")
        rc, out, _ = run_cli(capsys, "compute", "--input", str(f),
                             "--method", "cuts", "--emit", "json")
        assert rc == 0
        (row,) = json.loads(out)
        assert row["pww"] == 15

    def test_cuts_method_rejects_cycles(self, tmp_path, capsys):
        f = tmp_path / "c4.el"
        f.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
        rc, _, err = run_cli(capsys, "compute", "--input", str(f), "--method", "cuts")
        assert rc == 3

    def test_single_vertex_exits_3(self, tmp_path, capsys):
        f = tmp_path / "k1.el"
        f.write_text("1\n")
        rc, out, err = run_cli(capsys, "compute", "--input", str(f))
        assert rc == 3 and out == ""
        assert "at least 2 vertices" in err

    def test_cuts_mismatch_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trees, "peripheral_hyper_wiener_by_path_cuts", lambda tv: -1)
        f = tmp_path / "t.el"
        f.write_text("5\n0 1\n0 2\n0 3\n3 4\n")
        rc, out, err = run_cli(capsys, "compute", "--input", str(f), "--method", "cuts")
        assert rc == 4 and out == ""
        assert err.startswith("error: graph 0: cut formulas disagree")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_rows_match_oracle_on_q7(self, tmp_path, capsys):
        g = hypercube(7)  # 128 vertices: the graph6 long form, masks past 64 bits
        f = tmp_path / "q7.g6"
        f.write_text(write_graph6(g) + "\n")
        rc, out, _ = run_cli(capsys, "compute", "--input", str(f),
                             "--format", "graph6", "--emit", "json")
        assert rc == 0
        (row,) = json.loads(out)
        iv = index_vector(g)
        assert (iv.n, iv.m) == (128, 448)
        assert row == {"graph": 0, "n": iv.n, "m": iv.m, "diameter": iv.diameter,
                       "radius": iv.radius, "k": iv.k, "pendants": iv.pendant_count,
                       "w": iv.w, "ww": iv.ww, "pw": iv.pw, "pww": iv.pww,
                       "tw": iv.tw, "tww": iv.tww}

    def test_index_subset(self, tmp_path, capsys):
        f = tmp_path / "p3.el"
        f.write_text("3\n0 1\n1 2\n")
        rc, out, _ = run_cli(capsys, "compute", "--input", str(f),
                             "--indices", "pww", "--emit", "csv")
        assert rc == 0
        header = out.splitlines()[0]
        assert header.endswith("pww")
        assert ",w," not in header

    def test_unknown_index(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "compute", "--indices", "bogus", "--input", "x")
        assert rc == 2


# short-form and long-form records (70 and 64 vertices), trees and non-trees
_MIXED = [path(5), random_tree(70, seed=1), cycle(6), random_connected_graph(64, 0.08, seed=2),
          star(5), complete(4), double_star(2, 3), hypercube(3), random_tree(20, seed=3)]
_DISCONNECTED = "C?"  # four isolated vertices
_MALFORMED = "B"  # an order field with no data byte


def _stream(tmp_path, records) -> str:
    f = tmp_path / "stream.g6"
    f.write_text("".join(r + "\n" for r in records))
    return str(f)


@pytest.mark.parametrize("threads", ["1", "2"])
class TestComputeStream:
    """A graph6 stream runs as one interleaved share of records per worker;
    the rows and the reported error do not depend on the worker count."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        # "--threads 2" starts two workers on any host, one CPU included
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("emit", ["csv", "json", "table"])
    def test_rows_do_not_depend_on_workers(self, tmp_path, capsys, threads, emit):
        f = _stream(tmp_path, [write_graph6(g) for g in _MIXED])
        rc, out, err = run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                               "--emit", emit, "--threads", threads)
        assert (rc, err) == (0, "")
        rc, serial, _ = run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                                "--emit", emit, "--threads", "1")
        assert out == serial
        if emit == "json":
            rows = json.loads(out)
            assert [r["graph"] for r in rows] == list(range(len(_MIXED)))
            for row, g in zip(rows, _MIXED):
                iv = index_vector(g)
                assert (row["n"], row["m"], row["w"], row["pww"], row["tww"]) == \
                    (iv.n, iv.m, iv.w, iv.pww, iv.tww)

    @pytest.mark.parametrize("records, method, code, line", [
        # a record that does not parse is reported before any graph error
        (["Bw", _DISCONNECTED, "Bw", "Bw", "Bw", _MALFORMED, "Bw"], "definition", 2,
         "error: {f}: expected 1 data bytes for n=3, got 0"),
        (["Bw", "Bw", _DISCONNECTED, "Bw", _DISCONNECTED, "Bw"], "definition", 3,
         "error: graph 2: graph is not connected"),
        (["Bw", "Bw", "Bw", "@", "Bw"], "definition", 3,
         "error: graph 3: index operations need at least 2 vertices"),
        (["Bg", "Bg", "Bw", "Bg"], "cuts", 3,
         "error: graph 2: m = 3 but a tree on 3 vertices has 2 edges"),
        (["Bg", "Bg", _DISCONNECTED, "Bw"], "cuts", 3,
         "error: graph 2: graph is not connected"),
    ])
    def test_first_failure_in_input_order(self, tmp_path, capsys, threads, records, method,
                                          code, line):
        f = _stream(tmp_path, records)
        rc, out, err = run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                               "--method", method, "--threads", threads)
        assert (rc, out, err) == (code, "", line.format(f=f) + "\n")

    def test_cuts_mismatch_exits_4(self, tmp_path, capsys, monkeypatch, threads):
        # the forked workers inherit the patched formula
        monkeypatch.setattr(trees, "peripheral_hyper_wiener_by_path_cuts",
                            lambda tv: tv.profile.pww - (tv.graph.n == 5))
        f = _stream(tmp_path, [write_graph6(g) for g in (path(3), path(4), star(4), path(5))])
        rc, out, err = run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                               "--method", "cuts", "--threads", threads)
        assert (rc, out) == (4, "")
        assert err.startswith("error: graph 2: cut formulas disagree") and err.count("\n") == 1

    def test_single_job_starts_no_pool(self, tmp_path, capsys, monkeypatch, threads):
        pools = _count_pools(monkeypatch)
        el = tmp_path / "c6.el"
        el.write_text(graphio.write_edge_list(cycle(6)))
        g6 = _stream(tmp_path, [write_graph6(cycle(6))])
        for argv in (("--input", str(el)), ("--input", g6, "--format", "graph6")):
            rc, out, _ = run_cli(capsys, "compute", *argv, "--threads", threads,
                                 "--emit", "csv")
            assert rc == 0 and out.splitlines()[1].startswith("0,6,6,3,3,6,0,")
        assert pools == []

    def test_stream_starts_one_pool_per_worker_count(self, tmp_path, capsys, monkeypatch,
                                                     threads):
        pools = _count_pools(monkeypatch)
        f = _stream(tmp_path, ["Bw"] * 5)
        rc, _, _ = run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                           "--threads", threads)
        assert rc == 0
        assert len(pools) == (threads == "2")


class TestComputeAutoThreads:
    """Under --threads 0 a graph6 stream goes to the pool only from
    cli._POOL_MIN_BYTES record bytes on; the rows are the same either way."""

    @pytest.mark.parametrize("limit, pooled", [(10, True), (11, False)])
    def test_pool_from_min_bytes(self, tmp_path, capsys, monkeypatch, limit, pooled):
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cli, "_POOL_MIN_BYTES", limit)
        pools = _count_pools(monkeypatch)
        f = _stream(tmp_path, ["Bw", "Bg", "Bw", "C~", "Bw"])  # 10 record bytes
        rc, out, err = run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                               "--emit", "csv")
        assert (rc, err) == (0, "")
        assert len(pools) == pooled
        assert out == run_cli(capsys, "compute", "--format", "graph6", "--input", f,
                              "--emit", "csv", "--threads", "1")[1]


def test_compute_negative_threads_exits_2(tmp_path, capsys):
    f = tmp_path / "p3.el"
    f.write_text("3\n0 1\n1 2\n")
    rc, out, err = run_cli(capsys, "compute", "--input", str(f), "--threads", "-1")
    assert (rc, out, err) == (2, "", "error: --threads must be >= 0, got -1\n")


class TestGen:
    def test_hypercube_graph6(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "hypercube", "3", "--emit", "graph6")
        assert rc == 0
        g = parse_graph6(out.strip())
        assert g.n == 8 and g.m == 12

    def test_caterpillar_edge_list(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "caterpillar", "2,0,3")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "8"
        assert len(lines) == 8  # n line + 7 edges

    def test_lobster(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "lobster", "1,0,1", "1")
        assert rc == 0
        assert out.strip().splitlines()[0] == "7"

    def test_cycle_too_small_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "gen", "cycle", "2")
        assert rc == 2

    def test_unknown_family_exits_2(self, capsys):
        rc, _, _ = run_cli(capsys, "gen", "dodecahedron", "1")
        assert rc == 2

    def test_random_tree_seeded(self, capsys):
        rc, out1, _ = run_cli(capsys, "gen", "random-tree", "8", "--seed", "3")
        assert rc == 0
        rc, out2, _ = run_cli(capsys, "gen", "random-tree", "8", "--seed", "3")
        assert out1 == out2

    @pytest.mark.parametrize("argv, message", [
        (["path", "1025"], "order 1025 exceeds the supported maximum 1024"),
        (["hypercube", "11"], "hypercube Q_11 exceeds the supported maximum order 1024"),
        (["path", "300", "--emit", "graph6"], "graph6 writer supports n <= 258, got 300"),
    ])
    def test_too_large_exits_2(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, "gen", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_bad_arity(self, capsys):
        rc, _, _ = run_cli(capsys, "gen", "star")
        assert rc == 2

    # parameters for every family the help names
    FAMILY_PARAMS = {
        "complete": ["4"], "path": ["4"], "cycle": ["4"], "complete-bipartite": ["2", "3"],
        "star": ["4"], "double-star": ["2", "3"], "hypercube": ["3"],
        "caterpillar": ["2,0,3"], "lobster": ["1,0,1", "1"], "random-tree": ["9"],
        "random-graph": ["9", "0.5"],
    }

    def _listed_families(self, capsys):
        rc, out, _ = run_cli(capsys, "gen", "--help")
        assert rc == 0
        listed = re.search(r"^ +family\s+(.*?)^ +params\s", out.split("positional arguments:")[1],
                           re.MULTILINE | re.DOTALL)
        return " ".join(listed.group(1).split()).split(", ")

    def test_every_family_in_help_builds(self, capsys):
        assert self._listed_families(capsys) == list(self.FAMILY_PARAMS)
        for family, params in self.FAMILY_PARAMS.items():
            rc, out, err = run_cli(capsys, "gen", family, *params, "--emit", "graph6")
            assert (rc, err) == (0, ""), family
            assert parse_graph6(out.strip()).n > 1

    @pytest.mark.parametrize("columns", ["80", "40"])
    def test_help_keeps_family_names_whole(self, capsys, monkeypatch, columns):
        # argparse wraps at hyphens by default: at 80 columns it printed
        # "random-" and "tree" on two lines
        monkeypatch.setenv("COLUMNS", columns)
        assert self._listed_families(capsys) == list(_FAMILIES)

    @pytest.mark.parametrize("argv, message", [
        (["star"], "star takes 1 parameter(s), got 0"),
        (["double-star", "1"], "double-star takes 2 parameter(s), got 1"),
        (["random-tree", "4", "5"], "random-tree takes 1 parameter(s), got 2"),
        (["caterpillar"], "caterpillar takes one code like 2,0,3"),
        (["lobster", "1,0,1"], "lobster takes a code like 1,0,1 and a leaf count"),
        (["random-graph", "9"], "random-graph takes n and p"),
        (["dodecahedron", "1"], "unknown family 'dodecahedron'"),
        (["path", "x"], "invalid literal for int()"),
        (["star", "0"], "star needs n >= 1 leaves, got 0"),
    ])
    def test_usage_messages(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, "gen", *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and message in err


class TestAudit:
    def test_single_product_claim(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run_cli(capsys, "audit", "--claims", "T-PWW-PROD",
                             "--trials", "5", "--threads", "1",
                             "--output", str(out_path))
        assert rc == 0
        assert "T-PWW-PROD" in out
        doc = json.loads(out_path.read_text())
        assert doc["claims"][0]["status"] == "holds"

    def test_hypercube_discrepancy_exits_0(self, capsys):
        rc, out, _ = run_cli(capsys, "audit", "--claims", "C-HYPERCUBE",
                             "--trials", "0", "--threads", "1")
        assert rc == 0
        assert "violated" in out and "discrepancy" in out

    def test_small_full_run(self, capsys):
        rc, out, _ = run_cli(capsys, "audit", "--max-n", "4", "--trials", "5",
                             "--threads", "1")
        assert rc == 0
        assert "0 mismatched" in out

    def test_bad_max_n(self, capsys):
        rc, _, err = run_cli(capsys, "audit", "--max-n", "12")
        assert rc == 2

    def test_unknown_claim(self, capsys):
        rc, _, err = run_cli(capsys, "audit", "--claims", "NOPE")
        assert rc == 2

    @pytest.mark.parametrize("claims", [",", "", " , "])
    def test_empty_claim_list_exits_2(self, capsys, monkeypatch, claims):
        # a --claims value that names no claim is a usage error, not an
        # empty audit that "matched"
        def not_run(*args, **kwargs):
            raise AssertionError("the audit ran")

        monkeypatch.setattr(audit, "run_claims", not_run)
        rc, out, err = run_cli(capsys, "audit", "--claims", claims)
        assert (rc, out, err) == (2, "", "error: no claim ids given\n")

    def test_trials_ceiling_exits_2_before_any_draw(self, capsys, monkeypatch):
        def not_drawn(*args, **kwargs):
            raise AssertionError("a random draw was made")

        for name in ("_graph_draws", "_tree_draws", "_connected_draw", "run_claims"):
            monkeypatch.setattr(audit, name, not_drawn)
        rc, out, err = run_cli(capsys, "audit", "--trials", str(audit.MAX_TRIALS + 1))
        assert (rc, out) == (2, "")
        assert err == f"error: trials must be in 0..{audit.MAX_TRIALS}, got {audit.MAX_TRIALS + 1}\n"


class TestEnumerateValues:
    def test_pw_small(self, capsys):
        rc, out, _ = run_cli(capsys, "enumerate-values", "--indices", "pw",
                             "--max-n", "5", "--threads", "1")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,n,graph6"
        values = {}
        for line in lines[1:]:
            if line.startswith("#"):
                continue
            val, n, g6 = line.split(",")
            values[int(val)] = (int(n), g6)
        assert values[1] == (2, "A_")
        assert values[2][0] == 3
        assert values[3][0] == 3
        for val, (n, g6) in values.items():
            g = parse_graph6(g6)
            assert g.n == n and index_vector(g).pw == val

    def test_range_violation(self, capsys):
        rc, _, _ = run_cli(capsys, "enumerate-values", "--max-n", "9")
        assert rc == 2
        rc, _, _ = run_cli(capsys, "enumerate-values", "--max-n", "1")
        assert rc == 2

    def test_negative_threads_exit_2(self, capsys):
        # both worker-count flags reject negatives instead of meaning "one per CPU"
        rc, _, err = run_cli(capsys, "enumerate-values", "--max-n", "3", "--threads", "-1")
        assert rc == 2 and "--threads" in err
        rc, _, err = run_cli(capsys, "audit", "--max-n", "3", "--threads", "-1")
        assert rc == 2 and "threads" in err

    def test_deterministic_output(self):
        a = enumerate_values_csv("pww", 5, threads=1)
        b = enumerate_values_csv("pww", 5, threads=2)
        assert a == b
        assert "# non_attained: " in a

    def test_tw_includes_zero(self):
        csv_text = enumerate_values_csv("tw", 4, threads=1)
        first = csv_text.splitlines()[1]
        assert first.startswith("0,")


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ("audit", "--claims", "FIG2-NONCONVERSE", "--trials", "0", "--threads", "1"),
        ("compute", "--input", "{p3}"),
        ("gen", "path", "3"),
        ("enumerate-values", "--max-n", "3", "--threads", "1"),
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        # exit 1 means "audit mismatch", so an unwritable --output is a usage
        # error: exit 2, one stderr line, no traceback
        p3 = tmp_path / "p3.el"
        p3.write_text("3\n0 1\n1 2\n")
        bad = tmp_path / "missing" / "out.txt"
        argv = [a.format(p3=p3) for a in argv] + ["--output", str(bad)]
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 2
        assert err == f"error: {bad}: No such file or directory\n"
        assert not bad.parent.exists()


    def test_audit_output_checked_before_any_suite(self, tmp_path, capsys, monkeypatch):
        # an unwritable --output fails before the audit runs; a rejected
        # budget or claim id fails before the output is opened
        def not_run(*args, **kwargs):
            raise AssertionError("the audit ran")

        monkeypatch.setattr(audit, "run_claims", not_run)
        bad = tmp_path / "missing" / "out.json"
        rc, out, err = run_cli(capsys, "audit", "--output", str(bad))
        assert (rc, out) == (2, "")
        assert err == f"error: {bad}: No such file or directory\n"
        good = tmp_path / "out.json"
        for argv in (("--max-n", "12"), ("--claims", "NOPE")):
            rc, out, _ = run_cli(capsys, "audit", *argv, "--output", str(good))
            assert (rc, out) == (2, "")
            assert not good.exists()


def _error_classes(cls=errors.GraphError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def _raise(exc):
    def handler(args):
        raise exc
    return handler


class _FullStdout:
    """A stdout whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


class TestFailurePath:
    def test_exit_code_per_class(self):
        classes = list(_error_classes())
        assert len(classes) == 13
        precondition = {errors.NotConnectedError, errors.TrivialGraphError, errors.NotATreeError}
        for cls in classes:
            want = 4 if cls is errors.InvariantError else 3 if cls in precondition else 2
            assert cls.exit_code == want, cls.__name__

    @pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
    def test_graph_error_reported_once(self, capsys, monkeypatch, cls):
        exc = cls(7, "bad") if cls is errors.EdgeListSyntaxError else cls("bad")
        monkeypatch.setattr(cli, "_cmd_gen", _raise(exc))
        rc, out, err = run_cli(capsys, "gen", "path", "3")
        assert (rc, out, err) == (cls.exit_code, "", f"error: {exc}\n")

    @pytest.mark.parametrize("exc, line", [
        (FileNotFoundError(errno.ENOENT, "No such file or directory", "/x"),
         "error: /x: No such file or directory"),
        (OSError(errno.ENOSPC, "No space left on device"), "error: No space left on device"),
        (OSError("unnumbered"), "error: unnumbered"),
    ])
    def test_os_error_reported_once(self, capsys, monkeypatch, exc, line):
        monkeypatch.setattr(cli, "_cmd_gen", _raise(exc))
        rc, out, err = run_cli(capsys, "gen", "path", "3")
        assert (rc, out, err) == (2, "", line + "\n")

    def test_missing_input_names_the_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.el"
        rc, out, err = run_cli(capsys, "compute", "--input", str(missing))
        assert (rc, out, err) == (2, "", f"error: {missing}: No such file or directory\n")

    @pytest.mark.parametrize("argv", [
        ("gen", "path", "3"),
        ("audit", "--claims", "FIG2-NONCONVERSE", "--trials", "0", "--threads", "1"),
    ], ids=lambda argv: argv[0])
    def test_full_stdout_exits_2(self, capsys, monkeypatch, argv):
        # exit 1 means "audit mismatch": a report that could not be written
        # is exit 2 with one error line, not a traceback
        monkeypatch.setattr(sys, "stdout", _FullStdout())
        rc = main(list(argv))
        err = capsys.readouterr().err
        assert (rc, err) == (2, "error: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_output_to_full_device_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "gen", "path", "3", "--output", "/dev/full")
        assert (rc, out, err) == (2, "", "error: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_buffered_stdout_to_full_device_exits_2(self):
        # with a buffered stdout the write fails at the flush: it is reported
        # once, and the interpreter's own flush at exit does not fail again
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "periwiener.cli", "gen", "path", "3"],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, "error: No space left on device\n")


# Runs one command in a fresh interpreter whose pool workers end at their
# first job with os._exit(1): `jobs` calls corpus.run_jobs alone, `audit`
# and `compute` run the command line with a patched check or graph6 parser.
_EXIT_IN_WORKER = """
import os, sys
from dataclasses import replace
from periwiener import audit, cli, corpus
from periwiener.errors import GraphError

parent = os.getpid()


def job():
    if os.getpid() != parent:
        os._exit(1)


def exit_in_worker(fn):
    def wrapped(*args):
        job()
        return fn(*args)
    return wrapped


if sys.argv[1] == "jobs":
    try:
        corpus.run_jobs([(job, ())] * 4, 2)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    sys.exit(0)
row = audit._CLAIMS["HASSE-1"]
audit._CLAIMS["HASSE-1"] = replace(row, check=exit_in_worker(row.check))
cli.parse_graph6 = exit_in_worker(cli.parse_graph6)
cli.entry()
"""


class TestWorkerDeath:
    """A pool worker that dies ends the run with exit 2 and one error line;
    the runner never waits for the job it lost."""

    @pytest.mark.parametrize("argv", [
        ("jobs",),
        ("audit", "--claims", "HASSE-1", "--max-n", "5", "--trials", "0", "--threads", "2"),
        ("compute", "--format", "graph6", "--threads", "2"),
    ], ids=lambda argv: argv[0])
    def test_dead_worker_exits_2(self, tmp_path, argv):
        if argv[0] == "compute":
            argv += ("--input", _stream(tmp_path, ["Bw", "Bg", "C~", "Bw"]))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _EXIT_IN_WORKER, *argv],
                              capture_output=True, text=True, env=env, timeout=5)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: a worker process died")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "periwiener.cli", "gen", "path", "3",
             "--emit", "graph6"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Bg"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
