"""Command-line front end.

Subcommands: compute (indices of input graphs), gen (family constructors),
audit (claim registry run), enumerate-values (attained index values by
exhaustive enumeration).

Exit codes: 0 success / expectations matched; 1 audit mismatch; otherwise
the `exit_code` of the error (see errors.py): 2 usage or parse error, or an
input or output that cannot be read or written; 3 precondition failure on
an input graph; 4 failed internal cross-check (InvariantError, e.g.
`compute --method cuts` disagreeing with the profile).  Every failure,
argparse's usage errors and a record's error from a worker included,
reaches `main` as an exception, and `main` alone reports it, as one
`error:` line on stderr.  Every subcommand is deterministic given its
arguments and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import textwrap
from typing import Callable, NamedTuple, TextIO

from . import audit, corpus, generators, trees
from .errors import (
    GraphError,
    InvalidParameterError,
    InvariantError,
    NotConnectedError,
    TrivialGraphError,
)
from .graphs import Graph
from .graphio import (
    graph6_records,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .indices import INDEX_NAMES, Profile

_STRUCT_COLUMNS = ("graph", "n", "m", "diameter", "radius", "k", "pendants")
# Under `compute --threads 0` a graph6 stream runs on worker processes only
# from this many record bytes on.  Starting and ending two workers costs about
# 6 ms of wall and 8 ms of CPU time on a 2-vCPU Xeon guest.
_POOL_MIN_BYTES = 1 << 17


class _WholeWordsFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so that a family name such as
    random-tree is never split at its hyphen."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so that `main` reports it as every other failure."""

    def error(self, message: str):
        raise InvalidParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="periwiener",
        description="Distance-based topological indices with a claim-audit harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute indices of input graphs")
    p_compute.add_argument("--input", default="-", help="input path or - for stdin")
    p_compute.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p_compute.add_argument("--emit", choices=("table", "json", "csv"), default="table")
    p_compute.add_argument("--indices", default=",".join(INDEX_NAMES),
                           help="comma-separated subset of " + ",".join(INDEX_NAMES))
    p_compute.add_argument("--method", choices=("definition", "cuts"), default="definition",
                           help="definition: the bitmask profile engine; cuts: trees only, "
                                "the same values cross-checked by the tree cut formulas")
    p_compute.add_argument("--threads", type=int, default=0,
                           help="0 = one per CPU for a graph6 stream of 128 KiB or more, "
                                "else one")
    p_compute.add_argument("--output", default="-")

    p_gen = sub.add_parser("gen", help="emit a named family member",
                           formatter_class=_WholeWordsFormatter)
    p_gen.add_argument("family", help=", ".join(_FAMILIES))
    p_gen.add_argument("params", nargs="*", help="family parameters")
    p_gen.add_argument("--emit", choices=("edgelist", "graph6"), default="edgelist")
    p_gen.add_argument("--seed", type=int, default=audit.DEFAULT_SEED)
    p_gen.add_argument("--output", default="-")

    p_audit = sub.add_parser("audit", help="run the claim registry")
    p_audit.add_argument("--claims", default=None, help="comma-separated claim ids")
    p_audit.add_argument("--max-n", type=int, default=7, dest="max_n",
                         help=f"exhaustive corpus ceiling (2..{corpus.MAX_N})")
    p_audit.add_argument("--trials", type=int, default=1000,
                         help=f"random trials per suite (0..{audit.MAX_TRIALS})")
    p_audit.add_argument("--seed", type=int, default=audit.DEFAULT_SEED)
    p_audit.add_argument("--threads", type=int, default=0, help="0 = one per CPU")
    p_audit.add_argument("--output", default=None, help="write the JSON report here")

    p_enum = sub.add_parser("enumerate-values",
                            help="attained index values over all connected graphs")
    p_enum.add_argument("--max-n", type=int, default=7, dest="max_n",
                        help=f"2..{corpus.MAX_N}")
    p_enum.add_argument("--indices", default="pww", help="one of " + ",".join(INDEX_NAMES))
    p_enum.add_argument("--threads", type=int, default=0, help="0 = one per CPU")
    p_enum.add_argument("--output", default="-")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "threads", 0) < 0:  # compute, audit and enumerate-values
            raise InvalidParameterError(f"--threads must be >= 0, got {args.threads}")
        handler = {"compute": _cmd_compute, "gen": _cmd_gen, "audit": _cmd_audit,
                   "enumerate-values": _cmd_enumerate}[args.command]
        code = handler(args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except SystemExit:  # --help alone: _Parser raises a usage error
        return 0
    except GraphError as exc:
        message, code = str(exc), exc.exit_code
    except OSError as exc:  # open and read errors name the file, write errors do not
        where = f"{exc.filename}: " if exc.filename is not None else ""
        message, code = f"{where}{exc.strerror or exc}", 2
    except MemoryError:  # reported below, once the traceback has let go of the run's frames
        message, code = "out of memory", 2
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main reported it: drop the unwritten rest, not retry at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str, write: Callable[[TextIO], object]) -> None:
    """Call write(out) on stdout (path "-") or on the file at path."""
    if path == "-":
        write(sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as out:
        write(out)


def _cmd_compute(args) -> int:
    # a repeated name keeps its first place
    names = tuple(dict.fromkeys(s.strip() for s in args.indices.split(",") if s.strip()))
    for name in names:
        if name not in INDEX_NAMES:
            raise InvalidParameterError(f"unknown index {name!r}")
    data = _read_input(args.input)
    try:
        records = [data] if args.format == "edgelist" else graph6_records(data)
    except GraphError as exc:
        raise type(exc)(f"{args.input}: {exc}") from None

    threads = args.threads
    if threads == 0 and sum(map(len, records)) < _POOL_MIN_BYTES:
        threads = 1  # too little work to pay for the workers
    # one interleaved share of the records per worker: sorted streams
    # spread evenly, and each worker decodes its own records
    w = corpus.worker_count(threads, len(records))
    parts = list(corpus.run_jobs(
        [(_compute_share, (args.format, args.method, records[k::w])) for k in range(w)],
        threads))
    # a record that does not parse is reported before any graph error; the
    # first of each kind in the stream is the first of some share
    for kind in ("input", "graph"):
        failed = [(k + i * w, exc) for k, (_, failures) in enumerate(parts)
                  for i, fkind, exc in failures if fkind == kind]
        if failed:
            idx, exc = min(failed)  # the indices differ
            where = f"graph {idx}" if kind == "graph" else args.input
            if kind == "input" and args.format == "graph6":
                where += f": record {idx}"
            raise type(exc)(f"{where}: {exc}")
    results: list = [None] * len(records)
    for k, (profiles, _) in enumerate(parts):
        results[k::w] = profiles

    _write_output(args.output, lambda out: _emit_rows(out, results, names, args.emit))
    return 0


def _compute_share(fmt: str, method: str, records: list) -> tuple[list, list]:
    """(profiles, failures) of a share of the records.  A failure is (i,
    kind, error) for the share's record i, kind "input" if it does not parse
    and "graph" if the graph is rejected.  Only the first failure of each
    kind can be reported, and a record that does not parse before any graph
    error: so the share stops at the first record that does not parse, and
    after the first rejected graph only parses the rest.  The profiles are
    whole only when no record failed.  The errors come back from a worker as
    values, not raised, so the parent can raise the first failure in input
    order, with its location; they are kept without their tracebacks, which
    would hold each one's frames."""
    parse = parse_edge_list if fmt == "edgelist" else parse_graph6
    profiles: list = []
    failures: list = []
    for i, record in enumerate(records):
        try:
            g = parse(record)
        except GraphError as exc:
            failures.append((i, "input", exc.with_traceback(None)))
            break
        if failures:
            continue
        try:
            if g.n < 2:
                raise TrivialGraphError("index operations need at least 2 vertices")
            if method == "cuts":
                tv = trees.as_tree(g)  # not connected, then not a tree
                _check_cuts(tv)
                p = tv.profile
            else:
                p = corpus.profile_of(g)
                if p is None:
                    raise NotConnectedError("graph is not connected")
            profiles.append(p)
        except GraphError as exc:
            failures.append((i, "graph", exc.with_traceback(None)))
    return profiles, failures


def _check_cuts(tv: trees.TreeView) -> None:
    """Require the tree cut formulas to give the tree's W, WW, PW, PWW."""
    p = tv.profile
    cuts = {
        "w": trees.wiener_by_edge_cuts(tv),
        "ww": trees.hyper_wiener_by_path_cuts(tv),
        "pw": trees.peripheral_wiener_by_edge_cuts(tv),
        "pww": trees.peripheral_hyper_wiener_by_path_cuts(tv),
    }
    defs = {"w": p.w, "ww": p.ww, "pw": p.pw, "pww": p.pww}
    if cuts != defs:
        raise InvariantError(f"cut formulas disagree with the profile: {cuts} vs {defs}")


def _emit_rows(out, profiles: list[Profile], names: tuple[str, ...], emit: str) -> None:
    """Write one row per profile, each read off its profile as it is written."""
    columns = _STRUCT_COLUMNS + names

    def rows():
        # the first six Profile fields are the structure columns after "graph"
        return ((idx, *p[:6], *[getattr(p, name) for name in names])
                for idx, p in enumerate(profiles))

    if emit == "json":  # json.dump needs the whole list
        json.dump([dict(zip(columns, row)) for row in rows()], out, indent=2, sort_keys=True)
        out.write("\n")
    elif emit == "csv":
        writer = csv.writer(out)
        writer.writerow(columns)
        writer.writerows(rows())
    else:
        widths = [len(c) for c in columns]
        for row in rows():
            widths = [max(w, len(str(v))) for w, v in zip(widths, row)]
        out.write("  ".join(c.rjust(w) for c, w in zip(columns, widths)) + "\n")
        for row in rows():
            out.write("  ".join(str(v).rjust(w) for v, w in zip(row, widths)) + "\n")


def _parse_code(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


class _Family(NamedTuple):
    make: Callable[..., Graph]
    parsers: tuple[Callable[[str], object], ...]  # one per parameter
    usage: str | None = None  # the message for a wrong parameter count
    seeded: bool = False  # make takes the --seed value as seed=


_FAMILIES = {
    "complete": _Family(generators.complete, (int,)),
    "path": _Family(generators.path, (int,)),
    "cycle": _Family(generators.cycle, (int,)),
    "complete-bipartite": _Family(generators.complete_bipartite, (int, int)),
    "star": _Family(generators.star, (int,)),
    "double-star": _Family(generators.double_star, (int, int)),
    "hypercube": _Family(generators.hypercube, (int,)),
    "caterpillar": _Family(generators.caterpillar, (_parse_code,),
                           "caterpillar takes one code like 2,0,3"),
    "lobster": _Family(generators.lobster, (_parse_code, int),
                       "lobster takes a code like 1,0,1 and a leaf count"),
    "random-tree": _Family(generators.random_tree, (int,), seeded=True),
    "random-graph": _Family(generators.random_connected_graph, (int, float),
                            "random-graph takes n and p", seeded=True),
}


def _cmd_gen(args) -> int:
    g = _build_family(args.family.replace("_", "-"), args.params, args.seed)
    text = write_graph6(g) + "\n" if args.emit == "graph6" else write_edge_list(g)
    _write_output(args.output, lambda out: out.write(text))
    return 0


def _build_family(family: str, params: list[str], seed: int) -> Graph:
    if family not in _FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}")
    make, parsers, usage, seeded = _FAMILIES[family]
    if len(params) != len(parsers):
        raise InvalidParameterError(
            usage or f"{family} takes {len(parsers)} parameter(s), got {len(params)}")
    try:
        values = [parse(text) for parse, text in zip(parsers, params)]
    except ValueError as exc:  # int() or float() of a malformed parameter
        raise InvalidParameterError(str(exc)) from None
    return make(*values, seed=seed) if seeded else make(*values)


def _cmd_audit(args) -> int:
    claim_ids = None
    if args.claims is not None:
        claim_ids = [s.strip() for s in args.claims.split(",") if s.strip()]
    budget = audit.Budget(max_n=args.max_n, trials=args.trials,
                          seed=args.seed, threads=args.threads)
    audit.select_claims(claim_ids)
    report = None

    def run(out: TextIO | None) -> None:
        nonlocal report
        report = audit.run_all(budget, claim_ids=claim_ids)
        # with the report on stdout (--output -), stdout holds the JSON alone
        print(report.table(), file=sys.stderr if out is sys.stdout else sys.stdout)
        if out is not None:
            out.write(report.to_json())

    # the output is opened before the run, so a bad path costs no audit
    if args.output is None:
        run(None)
    else:
        _write_output(args.output, run)
    return 0 if report.ok() else 1


def _cmd_enumerate(args) -> int:
    index_name = args.indices.strip()
    corpus.check_scan(index_name, args.max_n, args.threads)
    # the output is opened before the sweep, so a bad path costs no sweep
    _write_output(args.output, lambda out: out.write(
        enumerate_values_csv(index_name, args.max_n, args.threads)))
    return 0


def enumerate_values_csv(index_name: str, max_n: int, threads: int = 1) -> str:
    """CSV of (value, smallest n attaining it, witness graph6), ascending,
    with a trailing comment listing non-attained values below the maximum.
    `threads` workers (0 = one per CPU), at most one per CPU and per job,
    run the jobs of the class sweep: each order below max_n - 2 whole, then
    each class of order max_n - 2 with the two largest orders grown from it
    (`corpus._class_parts`)."""
    attained = corpus.scan_values(index_name, max_n, threads)
    gaps = corpus.value_gaps(attained)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["value", "n", "graph6"])
    for val in sorted(attained):
        n, g6 = attained[val]
        writer.writerow([val, n, g6])
    buf.write("# non_attained: " + ",".join(str(v) for v in gaps) + "\n")
    return buf.getvalue()


if __name__ == "__main__":
    entry()
