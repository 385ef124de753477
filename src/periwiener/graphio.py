"""Edge-list and graph6 parsing and serialization.

Edge-list format: first non-comment line is the vertex count, every later
non-comment line is "u v" with 0-based endpoints; '#' starts a comment line.

graph6: printable-ASCII encoding of the upper-triangle adjacency bits in
column order (0,1),(0,2),(1,2),(0,3),..., six bits per byte, first bit
highest.  Short form covers n <= 62, the 4-byte long form is accepted and
emitted for 63 <= n <= 258.

Edge masks: the one encoding of an edge set in this package.  Pair (i, j),
i < j, has column index b = j(j-1)/2 + i and sits at bit C(n,2)-1-b of the
mask, so a mask is the graph6 data bits read as one integer, and masks of
the same order compare as their graph6 records do.  `edge_mask` encodes
edges as a mask and `mask_rows` decodes a mask into adjacency rows; the
graph6 codec writes and reads a mask six bits per byte.
"""

from __future__ import annotations

import base64
import re
from typing import Iterable, Iterator

from .errors import (
    EdgeListSyntaxError,
    MalformedGraph6Error,
    SelfLoopError,
    TooLargeError,
    VertexRangeError,
)
from .graphs import Graph, build_graph

MAX_GRAPH6_ORDER = 258

# The largest vertex count an edge list may declare, and the largest order
# `generators` builds: the order of Q_10, the largest input any benchmark
# workload or test feeds in.  The metric engine
# keeps reach layers of O(diam * n^2) bits, so a path of 1,000 vertices peaks
# at 158 MiB and one of 1,500 at 456 MiB (CHANGES.md); an engine with
# O(n^2) memory can raise this ceiling.
MAX_EDGE_LIST_ORDER = 1024

# An edge-list integer: ASCII digits only, since str.isdigit() also accepts
# digits such as "²" that int() rejects.
_INT = re.compile(r"-?[0-9]+")


def _as_text(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EdgeListSyntaxError(f"line 0: input is not UTF-8 ({exc.reason})") from None
    return data


def parse_edge_list(data: str | bytes) -> Graph:
    """Parse edge-list text, naming the line of the first bad record."""
    text = _as_text(data)
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1 or not _INT.fullmatch(fields[0]):
                raise EdgeListSyntaxError(f"line {lineno}: expected the vertex count")
            n = int(fields[0])
            if n < 1:
                raise VertexRangeError(f"line {lineno}: vertex count must be >= 1, got {n}")
            if n > MAX_EDGE_LIST_ORDER:
                raise TooLargeError(f"line {lineno}: vertex count {n} exceeds the supported "
                                    f"maximum {MAX_EDGE_LIST_ORDER}")
            continue
        if len(fields) != 2 or not all(_INT.fullmatch(f) for f in fields):
            raise EdgeListSyntaxError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"line {lineno}: edge ({u}, {v}) outside 0..{n - 1}")
        edges.append((u, v))
    if n is None:
        raise EdgeListSyntaxError("line 0: no vertex count found")
    return build_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# --- graph6 ---------------------------------------------------------------

_HEADER = ">>graph6<<"


# A graph6 data byte is a six-bit group plus 63, and base64 writes the same
# six-bit groups, first bit highest, in its own alphabet: the codec is
# base64 with that alphabet swapped for bytes 63..126.
_G6_BYTES = bytes(range(63, 127))
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_G6 = bytes.maketrans(_G6_BYTES, _B64_ALPHABET)
_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_BYTES)


def edge_mask(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """The edge mask of `edges` on n vertices (see the module docstring)."""
    bits = bytearray(b"0" * (n * (n - 1) // 2))
    for i, j in edges:
        if i > j:
            i, j = j, i
        bits[j * (j - 1) // 2 + i] = ord("1")
    return int(bits or b"0", 2)


def mask_rows(n: int, mask: int) -> tuple[int, ...]:
    """The adjacency rows of an edge mask on n vertices: `Graph(n,
    mask_rows(n, mask))` is its graph."""
    # column j holds bits (0, j), ..., (j-1, j): reversed, it is the part of
    # adj[j] below j, and each of its set bits i puts j into adj[i]
    cols = format(mask, f"0{n * (n - 1) // 2}b")
    adj = [0] * n
    for j in range(1, n):
        start = j * (j - 1) // 2
        col = cols[start:start + j]
        adj[j] = int(col[::-1], 2)
        bit = 1 << j
        i = col.find("1")
        while i >= 0:
            adj[i] |= bit
            i = col.find("1", i + 1)
    return tuple(adj)


def _decode_order(payload: bytes) -> tuple[int, int]:
    """Return (n, number of bytes consumed by the order field)."""
    if not payload:
        raise MalformedGraph6Error("empty record")
    b0 = payload[0]
    if not 63 <= b0 <= 126:
        raise MalformedGraph6Error(f"byte {b0} outside graph6 range 63..126")
    if b0 != 126:
        return b0 - 63, 1
    if len(payload) < 4:
        raise MalformedGraph6Error("truncated long-form order field")
    if payload[1] == 126:
        raise MalformedGraph6Error(f"order exceeds supported maximum {MAX_GRAPH6_ORDER}")
    n = 0
    for b in payload[1:4]:
        if not 63 <= b <= 126:
            raise MalformedGraph6Error(f"byte {b} outside graph6 range 63..126")
        n = (n << 6) | (b - 63)
    if n <= 62:
        raise MalformedGraph6Error(f"non-canonical long-form order {n}")
    return n, 4


def parse_graph6(data: str | bytes) -> Graph:
    """Parse a single graph6 record (an optional '>>graph6<<' header is fine)."""
    if isinstance(data, str):
        try:
            payload = data.encode("ascii")
        except UnicodeEncodeError:
            raise MalformedGraph6Error("record contains non-ASCII characters") from None
    else:
        payload = bytes(data)
    payload = payload.strip()
    if payload.startswith(_HEADER.encode("ascii")):
        payload = payload[len(_HEADER):].strip()
    n, used = _decode_order(payload)
    if n == 0:
        raise MalformedGraph6Error("order 0 is not representable as a Graph")
    if n > MAX_GRAPH6_ORDER:
        raise MalformedGraph6Error(f"order {n} exceeds supported maximum {MAX_GRAPH6_ORDER}")
    body = payload[used:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise MalformedGraph6Error(f"expected {need} data bytes for n={n}, got {len(body)}")
    stray = body.translate(None, _G6_BYTES)
    if stray:
        raise MalformedGraph6Error(f"byte {stray[0]} outside graph6 range 63..126")
    # whole base64 quads: each pad "A" is a zero group, dropped again below
    extra = -need % 4
    data = base64.b64decode(body.translate(_FROM_G6) + b"A" * extra)
    pad = 6 * need - nbits
    mask = int.from_bytes(data, "big") >> (6 * extra)
    if mask & ((1 << pad) - 1):
        raise MalformedGraph6Error("nonzero padding bits")
    return Graph(n, mask_rows(n, mask >> pad))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 record for g; inverse of parse_graph6."""
    n = g.n
    if n > MAX_GRAPH6_ORDER:
        raise TooLargeError(f"graph6 writer supports n <= {MAX_GRAPH6_ORDER}, got {n}")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    # base64 encodes whole 24-bit groups: pad the mask with zero bits to them
    quads = -(-nbits // 24)
    data = (edge_mask(n, g.edges()) << (24 * quads - nbits)).to_bytes(3 * quads, "big")
    return header + base64.b64encode(data).translate(_TO_G6)[:need].decode("ascii")


def graph6_records(data: str | bytes) -> list[str]:
    """The stripped non-blank lines of a graph6 stream, one record each;
    bytes input must be ASCII."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError:
            raise MalformedGraph6Error("input contains non-ASCII bytes") from None
    return [line for line in map(str.strip, data.splitlines()) if line]


def iter_graph6(data: str | bytes) -> Iterator[Graph]:
    """Parse newline-separated graph6 records, skipping blank lines."""
    yield from map(parse_graph6, graph6_records(data))
