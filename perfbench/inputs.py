"""Seeded input files for the compute-large workload.

The generators here use only the standard library, so the inputs do not
depend on the version of periwiener under test: the program receives the
files and nothing else.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import base64
import heapq
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one compute-large job."""

    cube_dim: int          # Q_d as an edge list
    gnp_n: int             # random connected G(n, p) as an edge list
    gnp_p: float
    tree_n: int            # random tree, computed with --method cuts
    stream_records: int    # graph6 stream: half random trees, half random connected G(n, p)
    stream_min_n: int
    stream_max_n: int


# 200 stream records keep the stream near 3 s of `cli compute` on a 2-vCPU
# Xeon guest, beside about 1.5 s for the three single graphs; 2,000 records
# at these orders would take about 30 s.
FULL = Sizes(cube_dim=10, gnp_n=600, gnp_p=0.02, tree_n=200,
             stream_records=200, stream_min_n=10, stream_max_n=250)
SMOKE = Sizes(cube_dim=4, gnp_n=40, gnp_p=0.15, tree_n=20,
              stream_records=20, stream_min_n=10, stream_max_n=30)


@dataclass(frozen=True)
class InputFile:
    """One cli compute call: its label, file, format and method."""

    label: str
    path: str
    fmt: str
    method: str


def input_files(directory: str) -> list[InputFile]:
    return [
        InputFile("q10", os.path.join(directory, "cube.edges"), "edgelist", "definition"),
        InputFile("gnp", os.path.join(directory, "gnp.edges"), "edgelist", "definition"),
        InputFile("tree-cuts", os.path.join(directory, "tree.edges"), "edgelist", "cuts"),
        InputFile("stream", os.path.join(directory, "stream.g6"), "graph6", "definition"),
    ]


def hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u ^ (1 << b)) for u in range(1 << d) for b in range(d) if u < u ^ (1 << b)]


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree by decoding a random Pruefer sequence."""
    if n < 3:
        return [(0, 1)][: n - 1]
    seq = [int(rng.random() * n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def gnp_connected_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p) resampled until connected."""
    while True:
        edges = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]
        if _connected(n, edges):
            return edges


def edge_list_text(n: int, edges) -> str:
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))


def graph6_record(n: int, edges) -> str:
    """graph6 encoding: order, then upper-triangle bits in column order.

    The bit string is packed into sextets by base64 (which splits bytes into
    six-bit groups) and the base64 alphabet is mapped onto graph6's 63..126.
    """
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    bits = "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    sextets = -(-len(bits) // 6)
    bits += "0" * (-len(bits) % 24)
    packed = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    return head + base64.b64encode(packed).translate(_B64_TO_G6)[:sextets].decode("ascii")


def generate(seed: int, sizes: Sizes) -> dict[str, list[tuple[int, list]]]:
    """The graphs (n, edges) of each input, by label."""
    rng = random.Random(f"compute-large:{seed}")
    gnp = gnp_connected_edges(rng, sizes.gnp_n, sizes.gnp_p)
    tree = random_tree_edges(rng, sizes.tree_n)
    # Orders sit at evenly spaced quantiles of the uniform law on
    # [stream_min_n, stream_max_n], once for the trees and once for the
    # graphs, so the stream's size is the same for every seed; the seed picks
    # the graphs and the order of the records.  The graphs are G(n, p)
    # conditioned on connectivity at the mean degree of the G(gnp_n, gnp_p)
    # input, complete where n is smaller than that.
    half = sizes.stream_records // 2
    span = sizes.stream_max_n - sizes.stream_min_n
    orders = [round(sizes.stream_min_n + span * (i + 0.5) / half) for i in range(half)]
    degree = sizes.gnp_p * (sizes.gnp_n - 1)
    stream = []
    for n in orders:
        stream.append((n, random_tree_edges(rng, n)))
        stream.append((n, gnp_connected_edges(rng, n, min(1.0, degree / (n - 1)))))
    rng.shuffle(stream)
    cube_n = 1 << sizes.cube_dim
    return {"q10": [(cube_n, hypercube_edges(sizes.cube_dim))], "gnp": [(sizes.gnp_n, gnp)],
            "tree-cuts": [(sizes.tree_n, tree)], "stream": stream}


def render(f: InputFile, graphs) -> str:
    """The text of one input file."""
    if f.fmt == "edgelist":
        (n, edges), = graphs
        return edge_list_text(n, edges)
    return "".join(graph6_record(n, edges) + "\n" for n, edges in graphs)


def write_inputs(directory: str, seed: int, sizes: Sizes) -> None:
    """Generate the four compute-large inputs into `directory`."""
    os.makedirs(directory, exist_ok=True)
    graphs = generate(seed, sizes)
    for f in input_files(directory):
        with open(f.path, "w", encoding="ascii") as fh:
            fh.write(render(f, graphs[f.label]))
