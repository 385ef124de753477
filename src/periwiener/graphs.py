"""Immutable simple graphs, and the BFS distance matrix that the tests and
the benchmark use as the oracle for the `corpus` reach layers.

Vertices are always 0..n-1.  A graph is its adjacency bitmasks: bit v of
masks[u] is set iff uv is an edge, the form the metric engine reads.
Graphs are frozen after construction and safe to share; every operator
returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import NotConnectedError, SelfLoopError, VertexRangeError


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edge_list(masks: Iterable[int]) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of adjacency bitmasks: u ascending, then v.
    The low-bit loop is inlined: the metric engine (`corpus._reach_profile`)
    builds this list for every graph of diameter 2 or more whose closed
    neighbourhoods hold less than a quarter of the ordered pairs."""
    edges = []
    for u, a in enumerate(masks):
        a = a >> (u + 1) << (u + 1)
        while a:
            low = a & -a
            edges.append((u, low.bit_length() - 1))
            a ^= low
    return edges


def _component(masks: Sequence[int], vertices: int) -> int:
    """The bitmask of the component of the lowest vertex of the vertex
    bitmask `vertices` in the subgraph induced on them (0 when it is empty),
    by one frontier search."""
    seen = frontier = vertices & -vertices
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & vertices & ~seen
        seen |= new
        frontier |= new
    return seen


def _connected_on(masks: Sequence[int], vertices: int) -> bool:
    """Whether the subgraph induced on the vertex bitmask `vertices` is
    connected (true when it is empty)."""
    return _component(masks, vertices) == vertices


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; masks[v] is the bitmask of v's neighbours."""

    n: int
    masks: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """The edges (u, v), u < v: u ascending, then v."""
        return iter(_edge_list(self.masks))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list.

    Duplicate edges collapse silently; self-loops and out-of-range
    endpoints raise.
    """
    if n < 1:
        raise VertexRangeError(f"vertex count must be >= 1, got {n}")
    masks = [0] * n
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, tuple(masks))


def is_connected(g: Graph) -> bool:
    """True iff a search from vertex 0 reaches all vertices (true for n=1)."""
    return _connected_on(g.masks, (1 << g.n) - 1)


def _bfs(g: Graph, source: int) -> tuple[list[int], list[int], list[int]]:
    """BFS order from source, parents, and distances (-1 where unreached)."""
    parent = [-1] * g.n
    dist = [-1] * g.n
    dist[source] = 0
    order = [source]
    seen = 1 << source
    for u in order:  # the loop also visits the vertices appended below
        new = g.masks[u] & ~seen
        seen |= new
        for v in _bits(new):
            dist[v] = dist[u] + 1
            parent[v] = u
            order.append(v)
    return order, parent, dist


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    """Exact hop-count distances plus the derived metric profile."""

    n: int
    dist: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    radius: int
    diameter: int
    periphery: frozenset[int]


def distance_matrix(g: Graph) -> DistanceMatrix:
    """All-pairs geodesic distances via one BFS per source.

    Raises NotConnectedError when any vertex is unreachable.
    """
    n = g.n
    rows: list[tuple[int, ...]] = []
    for s in range(n):
        order, _, dist = _bfs(g, s)
        if len(order) < n:
            raise NotConnectedError("graph is not connected")
        rows.append(tuple(dist))
    ecc = tuple(max(r) for r in rows)
    diameter = max(ecc)
    return DistanceMatrix(
        n=n,
        dist=tuple(rows),
        ecc=ecc,
        radius=min(ecc),
        diameter=diameter,
        periphery=frozenset(v for v in range(n) if ecc[v] == diameter),
    )


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product with (a, x) flattened row-major to a*|V(h)| + x.

    (a,x)(b,y) is an edge iff a == b and xy in E(h), or ab in E(g) and x == y.
    """
    nh = h.n
    masks = []
    for a, ga in enumerate(g.masks):
        across = 0  # bit b*nh for each neighbour b of a: the copies of x = 0
        for b in _bits(ga):
            across |= 1 << (b * nh)
        base = a * nh
        for x, hx in enumerate(h.masks):
            masks.append((hx << base) | (across << x))
    return Graph(g.n * nh, tuple(masks))
