"""Shared test helpers: independent oracles and instance builders."""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import strategies as st

from periwiener import corpus
from periwiener.graphs import Graph, build_graph


def python_env(drop: tuple[str, ...] = ()) -> dict[str, str]:
    """The environment for a test's `python` subprocess: this one without
    the variables `drop`, and with this checkout's `src` first on
    PYTHONPATH, so the child imports the package whether or not it is
    installed."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def floyd_warshall(g: Graph) -> list[list[float]]:
    """Independent all-pairs shortest paths (no BFS involved)."""
    inf = float("inf")
    n = g.n
    dist = [[inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    """Permutation search; fine for n <= 8."""
    if a.n != b.n or a.m != b.m:
        return False
    eb = set(b.edges())
    for perm in itertools.permutations(range(a.n)):
        if all(((perm[u], perm[v]) in eb or (perm[v], perm[u]) in eb) for u, v in a.edges()):
            return True
    return False


def graph6_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs in graph6 column order (0,1),(0,2),(1,2),(0,3),...,
    written out here so that the tests share no pair order with graphio."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def to_nx(g: Graph) -> nx.Graph:
    """g as a networkx graph on the vertices 0..n-1."""
    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return ng


def nx_graph6(g: Graph) -> str:
    """The graph6 record of g as networkx writes it."""
    return nx.to_graph6_bytes(to_nx(g), header=False).strip().decode("ascii")


def nx_mask(g: Graph) -> int:
    """Oracle edge mask: the data bits of networkx's graph6 record of g,
    first bit highest, padding dropped."""
    record = nx_graph6(g)
    body = record[1:] if g.n <= 62 else record[4:]
    bits = "".join(format(ord(c) - 63, "06b") for c in body)[:g.n * (g.n - 1) // 2]
    return int(bits or "0", 2)


def labeled_connected(n: int):
    """Oracle corpus: (edge bitmask, profile) for every labeled connected
    graph on n vertices, by sweeping all 2^C(n,2) edge subsets."""
    for mask in range(1 << (n * (n - 1) // 2)):
        p = corpus.profile_from_masks(n, corpus.mask_adjacency(n, mask))
        if p is not None:
            yield mask, p


def fig2_tree() -> Graph:
    """Root 0 with children 1, 2, 3; vertex 4 hangs off 3."""
    return build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


def random_connected(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges; connected by construction."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for j in range(1, n):
        for i in range(j):
            if rng.random() < extra:
                edges.append((i, j))
    return build_graph(n, edges)


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 10):
    """Hypothesis strategy: spanning tree plus an arbitrary extra edge set."""
    n = draw(st.integers(min_n, max_n))
    edges = []
    for v in range(1, n):
        edges.append((draw(st.integers(0, v - 1)), v))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return build_graph(n, edges + extra)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def profile_calls(monkeypatch) -> list[int]:
    """The order n of each corpus.iter_connected_profiles call in the test."""
    calls = []
    real = corpus.iter_connected_profiles

    def counting(n, parents):
        calls.append(n)
        return real(n, parents)

    monkeypatch.setattr(corpus, "iter_connected_profiles", counting)
    return calls
