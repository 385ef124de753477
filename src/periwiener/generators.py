"""Deterministic constructors for the named graph families plus seeded
random trees and connected graphs.

Vertex numbering per family is fixed so golden tests stay stable:
paths and cycles number along the walk; stars put the center at 0;
double stars use centers 0 and 1, then the m leaves of 0, then the n
leaves of 1; caterpillars number the spine 0..s-1 and then append each
spine vertex's leaves in order; hypercubes index vertices so that
adjacency means "differs in exactly one bit".

A caterpillar or lobster code is a plain tuple of leaf counts (c_1, ...,
c_s); any sequence of ints is accepted.  Each family's parameter rules are
written here once, and the closed forms in `trees` call the same checks
(`_caterpillar_code`, `_lobster_code`, `_check_double_star`,
`_depth2_counts`), so a parameter that breaks a family's rules raises the
same error from its generator and from its closed forms.

Every constructor raises TooLargeError, before it allocates, for an order
above `graphio.MAX_EDGE_LIST_ORDER` (1,024), the largest order `compute`
reads; so Q_10 is the largest hypercube.
"""

from __future__ import annotations

import heapq
import random
from typing import Sequence

from .errors import InvalidCodeError, InvalidParameterError, TooLargeError
from .graphio import MAX_EDGE_LIST_ORDER
from .graphs import Graph, build_graph, is_connected

_SAMPLER_ATTEMPTS = 1000
# the pair draws that the rejection sampler may spend in all: all 1,000
# attempts up to n = 141, and at least 19 attempts at the largest order
_SAMPLER_DRAWS = 10_000_000


def _check_order(n: int) -> None:
    if n > MAX_EDGE_LIST_ORDER:
        raise TooLargeError(f"order {n} exceeds the supported maximum {MAX_EDGE_LIST_ORDER}")


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"complete graph needs n >= 1, got {n}")
    _check_order(n)
    return build_graph(n, [(i, j) for j in range(1, n) for i in range(j)])


def path(n: int) -> Graph:
    if n < 1:
        raise InvalidParameterError(f"path graph needs n >= 1, got {n}")
    _check_order(n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError(f"cycle graph needs n >= 3, got {n}")
    _check_order(n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise InvalidParameterError(f"complete bipartite needs m, n >= 1, got ({m}, {n})")
    _check_order(m + n)
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    """K_{1,n}: center 0 with n leaves."""
    if n < 1:
        raise InvalidParameterError(f"star needs n >= 1 leaves, got {n}")
    return complete_bipartite(1, n)


def _check_double_star(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise InvalidParameterError(f"double star needs m, n >= 1, got ({m}, {n})")


def double_star(m: int, n: int) -> Graph:
    """Adjacent centers 0 and 1 carrying m and n pendant leaves."""
    _check_double_star(m, n)
    _check_order(2 + m + n)
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(m)]
    edges += [(1, 2 + m + j) for j in range(n)]
    return build_graph(2 + m + n, edges)


def hypercube(n: int) -> Graph:
    """Q_n, labeled as the n-fold cartesian product of K_2: v ~ v ^ (1 << i), i < n."""
    if n < 1:
        raise InvalidParameterError(f"hypercube needs n >= 1, got {n}")
    # Q_n has 2^n vertices: compare the dimension before forming 2^n
    if n >= MAX_EDGE_LIST_ORDER.bit_length():
        raise TooLargeError(f"hypercube Q_{n} exceeds the supported maximum order "
                            f"{MAX_EDGE_LIST_ORDER}")
    bits = [1 << i for i in range(n)]
    return Graph(1 << n, tuple(sum(1 << (v ^ b) for b in bits) for v in range(1 << n)))


def _caterpillar_code(code: Sequence[int]) -> tuple[int, ...]:
    """The caterpillar code (c_1, ..., c_s) as a tuple of ints: c_i leaves
    on spine vertex i, ends nonzero when s >= 2."""
    code = tuple(int(c) for c in code)
    if len(code) < 1:
        raise InvalidCodeError("code needs at least one spine vertex")
    if any(c < 0 for c in code):
        raise InvalidCodeError(f"leaf counts must be >= 0, got {code}")
    if len(code) >= 2 and (code[0] < 1 or code[-1] < 1):
        raise InvalidCodeError(f"end counts must be >= 1, got {code}")
    return code


def _lobster_code(code: Sequence[int], c: int) -> tuple[int, ...]:
    """The lobster's caterpillar code as a tuple of ints, checked: spine
    length >= 3, so the added star leaves are peripheral, c_2 = 0 and c >= 1."""
    code = _caterpillar_code(code)
    if len(code) < 3:
        raise InvalidCodeError(f"lobster needs spine length >= 3, got {len(code)}")
    if code[1] != 0:
        raise InvalidCodeError(f"lobster needs c_2 = 0, got {code[1]}")
    if c < 1:
        raise InvalidParameterError(f"lobster needs c >= 1, got {c}")
    return code


def caterpillar(code: Sequence[int]) -> Graph:
    """Tree with spine 0..s-1 and c_i leaves hung on spine vertex i."""
    code = _caterpillar_code(code)
    s = len(code)
    total = s + sum(code)
    if total < 2:
        raise InvalidCodeError("caterpillar needs at least 2 vertices")
    _check_order(total)
    masks = [0] * s
    for i in range(s - 1):
        masks[i] |= 1 << (i + 1)
        masks[i + 1] |= 1 << i
    for i, c in enumerate(code):
        masks[i] |= ((1 << c) - 1) << len(masks)
        masks += [1 << i] * c
    return Graph(total, tuple(masks))


def lobster(code: Sequence[int], c: int) -> Graph:
    """Caterpillar with code (c_1, 0, c_3, ..., c_s) plus a K_{1,c} whose
    center is joined to spine vertex u_2."""
    code = _lobster_code(code, c)
    _check_order(len(code) + sum(code) + 1 + c)
    masks = list(caterpillar(code).masks)
    center = len(masks)
    masks[1] |= 1 << center
    masks.append((1 << 1) | (((1 << c) - 1) << (center + 1)))
    masks += [1 << center] * c
    return Graph(center + 1 + c, tuple(masks))


def _depth2_counts(counts: Sequence[int]) -> list[int]:
    """The children counts of a depth-2 tree as a list of ints: at least
    one entry, none negative."""
    checked = [int(c) for c in counts]
    if len(checked) < 1 or any(c < 0 for c in checked):
        raise InvalidParameterError(f"bad children counts {counts}")
    return checked


def rooted_depth2_tree(children_counts: Sequence[int]) -> Graph:
    """Root 0 with one child per entry; entry i carries that many leaf children.

    With at least two nonzero entries this is the generic diameter-4 tree
    rooted at its central vertex.
    """
    counts = _depth2_counts(children_counts)
    _check_order(1 + len(counts) + sum(counts))
    edges = []
    nxt = 1 + len(counts)
    for i, c in enumerate(counts):
        edges.append((0, 1 + i))
        for _ in range(c):
            edges.append((1 + i, nxt))
            nxt += 1
    return build_graph(nxt, edges)


def _pruefer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree via Pruefer-sequence decoding."""
    if n < 2:
        raise InvalidParameterError(f"random tree needs n >= 2, got {n}")
    _check_order(n)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return build_graph(n, _pruefer_decode(seq, n))


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) conditioned on connectivity by rejection sampling, bounded by
    _SAMPLER_ATTEMPTS attempts and _SAMPLER_DRAWS pair draws in all."""
    if n < 2:
        raise InvalidParameterError(f"random graph needs n >= 2, got {n}")
    _check_order(n)
    if not 0 < p <= 1:
        raise InvalidParameterError(f"edge probability must be in (0, 1], got {p}")
    attempts = min(_SAMPLER_ATTEMPTS, _SAMPLER_DRAWS // (n * (n - 1) // 2))
    draw = random.Random(seed).random
    for _ in range(attempts):
        # one draw per pair, in graph6 column order (0,1),(0,2),(1,2),...
        masks = [0] * n
        for j in range(1, n):
            for i in range(j):
                if draw() < p:
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        g = Graph(n, tuple(masks))
        if is_connected(g):
            return g
    raise InvalidParameterError(
        f"no connected sample in {attempts} attempts (at most {_SAMPLER_ATTEMPTS} "
        f"attempts and {_SAMPLER_DRAWS:,} pair draws; n={n}, p={p})"
    )
