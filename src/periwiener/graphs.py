"""Immutable simple graphs, and the BFS distance matrix that the tests and
the benchmark use as the oracle for the `corpus` reach layers.

Vertices are always 0..n-1.  Graphs are frozen after construction and safe
to share; every operator returns a new graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotConnectedError, SelfLoopError, VertexRangeError


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with per-vertex sorted adjacency tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield u, v

    def adjacency_masks(self) -> list[int]:
        """Adjacency as one bitmask per vertex (bit v set iff uv is an edge)."""
        masks = [0] * self.n
        for u in range(self.n):
            for v in self.adj[u]:
                masks[u] |= 1 << v
        return masks


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list.

    Duplicate edges collapse silently; self-loops and out-of-range
    endpoints raise.
    """
    if n < 1:
        raise VertexRangeError(f"vertex count must be >= 1, got {n}")
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in sets))


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches all vertices (true for n=1)."""
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == g.n


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    """Exact hop-count distances plus the derived metric profile."""

    n: int
    dist: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    radius: int
    diameter: int
    center: frozenset[int]
    periphery: frozenset[int]


def distance_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs geodesic distances via one BFS per source.

    Raises NotConnectedError when any vertex is unreachable.
    """
    n = g.n
    adj = g.adj
    rows: list[tuple[int, ...]] = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        q = deque((s,))
        while q:
            u = q.popleft()
            du1 = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du1
                    q.append(v)
        if min(dist) < 0:
            raise NotConnectedError("graph is not connected")
        rows.append(tuple(dist))
    ecc = tuple(max(r) for r in rows)
    radius = min(ecc)
    diameter = max(ecc)
    return DistanceMatrix(
        n=n,
        dist=tuple(rows),
        ecc=ecc,
        radius=radius,
        diameter=diameter,
        center=frozenset(v for v in range(n) if ecc[v] == radius),
        periphery=frozenset(v for v in range(n) if ecc[v] == diameter),
    )


def complement(g: Graph) -> Graph:
    """Same vertices, exactly the missing edges.  May be disconnected."""
    n = g.n
    out = []
    for u in range(n):
        present = set(g.adj[u])
        out.append(tuple(v for v in range(n) if v != u and v not in present))
    return Graph(n, tuple(out))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product with (a, x) flattened row-major to a*|V(h)| + x.

    (a,x)(b,y) is an edge iff a == b and xy in E(h), or ab in E(g) and x == y.
    """
    nh = h.n
    sets: list[set[int]] = [set() for _ in range(g.n * nh)]
    for a in range(g.n):
        base = a * nh
        for x in range(nh):
            u = base + x
            for y in h.adj[x]:
                sets[u].add(base + y)
            for b in g.adj[a]:
                sets[u].add(b * nh + x)
    return Graph(g.n * nh, tuple(tuple(sorted(s)) for s in sets))

