"""The metric engine and the instance corpora for sweeps.

`reach_layers` is the one metric engine: from adjacency bitmasks it builds,
layer by layer, the ball of every radius around every vertex, without
per-pair distances.  `profile_from_masks` and `profile_of` read the
`indices.Profile` of a graph off those layers, and `layered_profile` hands
the layers on as well, for checks that need the periphery or distances
(`periphery_mask`, `distance_sums`).  `compute` and every audit suite use
them.  Beside the engine: one canonical graph per isomorphism class of
connected graphs, with its number of labelings n!/|Aut(G)|, by canonical
augmentation; all free trees up to a ceiling, each order grown once; and
the attained-value scan.

The canonical labeling of a graph is the one that comes first in graph6
string order, the one with the smallest edge mask.  Classes grow one vertex
at a time (McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998): a child of an (n-1)-vertex class, in its canonical labeling, joins
vertex n-1 to a non-empty neighbour set taken once per orbit of
Aut(parent), and is kept only when vertex n-1 lies in the orbit of the
deletion vertex m(G), so each class has exactly one parent class.  m(G) is
the non-cut vertex with the largest (degree, sorted neighbour degrees); on
a tie, the tied vertex that sits last in the canonical order.  So the
invariant settles most children, and a canonical form is computed only for
a kept child, which needs its mask and |Aut(G)| anyway, or a tie.

`class_levels` is the one walk of the levels: each order is grown once,
from the order below, when first asked for.  The largest order of a sweep,
which holds most of the work, is grown instead as one job per class of the
order below.  `run_jobs` runs such jobs, (fn, args) pairs fixed in advance,
in one fork pool and returns their results in job order; the value scan of
`enumerate-values` and every audit suite use it.

Edge sets are `graphio` edge masks: the graph6 data bits of the graph read
as one integer, so integer order is graph6 string order for a fixed n.
"""

from __future__ import annotations

import itertools
import os
from math import factorial
from multiprocessing import get_context
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidParameterError
from .graphio import edge_mask, mask_edges, write_graph6
from .graphs import Graph, _bits, _connected_on, _edge_list
from .indices import Profile

# The largest order of an exhaustive sweep.  Generating every class up to
# n = 8 takes about 6 s in one process on a 2-vCPU guest, and
# `enumerate-values --max-n 8` about 5 s with 2 workers; the n = 9 classes
# alone take about 220 s more.
MAX_N = 8


def mask_adjacency(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency bitmasks of an edge mask; `Graph(n, mask_adjacency(n,
    mask))` is its graph."""
    adj = [0] * n
    for i, j in mask_edges(n, mask):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def g6_order_key(g: Graph) -> int:
    """The edge mask of a labeled graph, which orders graphs of one order as
    their graph6 strings."""
    return edge_mask(g.n, g.edges())


def reach_layers(n: int, masks: Sequence[int]) -> tuple[list[list[int]], int] | None:
    """(balls, radius) of a graph given by adjacency bitmasks, or None when
    it is disconnected.  balls[t][v] is the bitmask of the vertices within
    distance t of v, for t = 0..diameter, so the diameter is len(balls) - 1,
    and the radius is the first t at which some ball is full.  Each layer
    grows every ball at once by one pass over the edges; no per-pair
    distances are formed."""
    full = (1 << n) - 1
    cur = [1 << v for v in range(n)]
    balls = [cur]
    edges = None
    while min(cur) != full:
        if len(balls) == 1:  # the closed neighbourhoods
            new = [m | ball for m, ball in zip(masks, cur)]
        else:
            edges = edges or _edge_list(masks)
            new = cur[:]
            for i, j in edges:
                new[i] |= cur[j]
                new[j] |= cur[i]
        if new == cur:
            return None
        cur = new
        balls.append(cur)
    return balls, next(t for t, layer in enumerate(balls) if full in layer)


def periphery_mask(balls: list[list[int]]) -> int:
    """Bitmask of the peripheral vertices: those whose ball of radius
    diameter - 1 still misses a vertex."""
    full = (1 << len(balls[0])) - 1
    if len(balls) == 1:
        return full
    mask = 0
    for v, ball in enumerate(balls[-2]):
        if ball != full:
            mask |= 1 << v
    return mask


def distance_sums(balls: list[list[int]], mask: int) -> list[int]:
    """For each vertex v, the sum of d(v, u) over the vertices u in `mask`:
    u adds one for each ball around v, below the last, that misses it."""
    size = mask.bit_count()
    sums = [0] * len(balls[0])
    for layer in balls[:-1]:
        for v, ball in enumerate(layer):
            sums[v] += size - (ball & mask).bit_count()
    return sums


def profile_from_masks(n: int, masks: Sequence[int]) -> Profile | None:
    """Profile via the reach layers; None when disconnected."""
    reach = reach_layers(n, masks)
    return None if reach is None else _layer_profile(n, masks, *reach)


def _layer_profile(n: int, masks: Sequence[int], balls: list[list[int]], radius: int) -> Profile:
    """The six indices from the reach layers: popcount differences between
    consecutive layers count the ordered pairs at each exact distance."""
    sum_d = 0
    sum_dd = 0
    prev = n
    for tt in range(1, len(balls)):
        s = 0
        for r in balls[tt]:
            s += r.bit_count()
        c = s - prev
        if c:
            sum_d += tt * c
            sum_dd += (tt + tt * tt) * c
        prev = s
    w = sum_d // 2
    ww = sum_dd // 4
    peri_mask = periphery_mask(balls)
    k = peri_mask.bit_count()
    if k == n:
        pw, pww = w, ww
    else:
        peri = [v for v in range(n) if (peri_mask >> v) & 1]
        pw, pww = _masked_pair_sums(balls, peri, peri_mask)

    pend_mask = 0
    pend = []
    degrees = 0
    for v in range(n):
        d = masks[v].bit_count()
        degrees += d
        if d == 1:
            pend_mask |= 1 << v
            pend.append(v)
    if len(pend) < 2:
        tw = tww = 0
    elif pend_mask == peri_mask:
        tw, tww = pw, pww
    else:
        tw, tww = _masked_pair_sums(balls, pend, pend_mask)

    return Profile(n, degrees // 2, len(balls) - 1, radius, k, len(pend), w, ww, pw, pww, tw, tww)


def _masked_pair_sums(balls, sel, sel_mask) -> tuple[int, int]:
    """(sum of d, sum of (d + d^2) / 2) over the unordered pairs within `sel`."""
    sum_d = 0
    sum_dd = 0
    prev = len(sel)
    for tt in range(1, len(balls)):
        row = balls[tt]
        s = 0
        for v in sel:
            s += (row[v] & sel_mask).bit_count()
        c = s - prev
        if c:
            sum_d += tt * c
            sum_dd += (tt + tt * tt) * c
        prev = s
    return sum_d // 2, sum_dd // 4


def profile_of(g: Graph) -> Profile | None:
    """Profile of an in-memory graph; None when disconnected."""
    return profile_from_masks(g.n, g.masks)


def layered_profile(g: Graph) -> tuple[Profile, list[list[int]]] | None:
    """(profile, balls) of an in-memory graph, the balls as in
    `reach_layers`; None when disconnected."""
    reach = reach_layers(g.n, g.masks)
    return None if reach is None else (_layer_profile(g.n, g.masks, *reach), reach[0])


def complement_profile(n: int, masks: Sequence[int]) -> Profile | None:
    """Profile of the complement, straight from adjacency bitmasks."""
    full = (1 << n) - 1
    return profile_from_masks(n, [(~masks[v]) & full & ~(1 << v) for v in range(n)])


# --- isomorphism classes ---------------------------------------------------


def canonical_form(n: int, adj: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """(mask, orders): the smallest edge mask over all labelings of the
    graph with adjacency bitmasks `adj`, and every vertex order that attains
    it (order[p] is the vertex labeled p).

    The mask is the concatenation of the columns of the labeled adjacency
    matrix; column j holds the adjacency of the j-th vertex to the earlier
    ones, the earliest as the most significant bit.  The orders are built
    column by column, keeping at depth j only those whose column j is
    minimal.  The surviving orders form one coset of Aut(G), so there are
    |Aut(G)| of them, and the entries at position p across them are the
    orbit of the vertex at p.
    """
    rows = [[(row >> u) & 1 for u in range(n)] for row in adj]
    states = [((), [(v, 0) for v in range(n)])]  # (order, [(unplaced vertex, column)])
    mask = 0
    for j in range(n):
        best = min([c for _, cols in states for _, c in cols])
        mask = (mask << j) | best
        nxt = []
        for order, cols in states:
            for v, c in cols:
                if c == best:
                    row = rows[v]
                    nxt.append((order + (v,), [(u, (cu << 1) | row[u]) for u, cu in cols if u != v]))
        states = nxt
    return mask, [order for order, _ in states]


def canonical_mask(n: int, mask: int) -> int:
    """Edge bitmask of the canonical labeling: the first labeling of the
    graph in graph6 order.  Equal for exactly the isomorphic graphs."""
    return canonical_form(n, mask_adjacency(n, mask))[0]


def _orbit_minimal_sets(k: int, autos: list[tuple[int, ...]]) -> list[int]:
    """The non-empty subsets of range(k), as bitmasks in ascending order,
    that are the smallest of their orbit under the permutation group
    `autos`."""
    seen = bytearray(1 << k)
    images = [[1 << u for u in sigma] for sigma in autos]
    reps = []
    for s in range(1, 1 << k):
        if not seen[s]:
            reps.append(s)
            members = list(_bits(s))
            for bit in images:
                img = 0
                for u in members:
                    img |= bit[u]
                seen[img] = 1
    return reps


def _rival_deletion_vertices(n: int, adj: list[int]) -> list[int] | None:
    """The cheap half of the deletion rule.  m(G) is a non-cut vertex of
    largest (degree, sorted neighbour degrees), and vertex n-1, whose
    removal leaves the parent, is never a cut vertex.  None when another
    non-cut vertex has a larger invariant, so that n-1 is not in the orbit
    of m(G); otherwise the other non-cut vertices whose invariant ties with
    that of n-1 (none when n-1 is m(G))."""
    deg = [a.bit_count() for a in adj]
    full = (1 << n) - 1
    new = n - 1
    top = (deg[new], sorted([deg[u] for u in _bits(adj[new])]))
    ties = []
    for v in range(new):
        if deg[v] < top[0]:
            continue
        inv = (deg[v], sorted([deg[u] for u in _bits(adj[v])]))
        if inv >= top and _connected_on(adj, full & ~(1 << v)):
            if inv > top:
                return None
            ties.append(v)
    return ties


def iter_connected_profiles(n: int, parents: Iterable[int]) -> Iterator[tuple[int, int, Profile]]:
    """(canonical mask, n!/|Aut(G)|, profile) for one graph per isomorphism
    class of connected n-vertex graphs grown from `parents`, the canonical
    masks of some (n-1)-vertex classes; the middle item is the number of
    labeled graphs in the class.  Each class has one parent, so disjoint
    parent sets give disjoint classes, and all the (n-1)-vertex classes give
    every n-vertex class (`class_levels`).

    A child joins vertex n-1 of the parent, in its canonical labeling, to a
    neighbour set that is the smallest of its orbit under Aut(parent).  It
    is kept when vertex n-1 is in the orbit of the deletion vertex m(G):
    among the non-cut vertices of largest (degree, sorted neighbour
    degrees), the one that sits last in the canonical order.  The invariant
    alone decides most children.  A canonical form is computed once per
    parent (its automorphisms), once per kept child (its mask and weight)
    and once per rejected tie.
    """
    new = n - 1
    n_labelings = factorial(n)
    for parent in parents:
        parent_adj = mask_adjacency(new, parent)
        parent_mask, autos = canonical_form(new, parent_adj)
        if parent_mask != parent:
            raise InvalidParameterError(f"parent {parent} is not a canonical mask")
        for nbrs in _orbit_minimal_sets(new, autos):
            adj = [*parent_adj, nbrs]
            for u in _bits(nbrs):
                adj[u] |= 1 << new
            ties = _rival_deletion_vertices(n, adj)
            if ties is None:
                continue
            mask, orders = canonical_form(n, adj)
            if ties:
                # m(G) is the tied vertex that sits last in the canonical order
                pos = max(orders[0].index(v) for v in ties + [new])
                if all(order[pos] != new for order in orders):
                    continue
            yield mask, n_labelings // len(orders), profile_from_masks(n, adj)


def labelings(n: int, mask: int) -> set[int]:
    """Edge masks of every labeled graph isomorphic to this one, by all n!
    relabelings; the audit report expands at most ten witness classes of a
    claim with it, in the parent process."""
    edges = mask_edges(n, mask)
    return {edge_mask(n, [(perm[i], perm[j]) for i, j in edges])
            for perm in itertools.permutations(range(n))}


def class_levels() -> Callable[[int], list[tuple[int, int, Profile]]]:
    """The one walk of the class levels: level(n), for 1 <= n <= MAX_N, is
    the list of (canonical mask, n!/|Aut(G)|, profile) of every connected
    n-vertex class, as `iter_connected_profiles` yields them.  Each order is
    grown once, from the order below, the first time it is asked for, and
    kept by this walk only, so a new walk starts from scratch.  level(n)
    raises InvalidParameterError, before any generation, for n outside
    1..MAX_N."""
    levels = [[(0, 1, profile_from_masks(1, (0,)))]]

    def level(n: int) -> list[tuple[int, int, Profile]]:
        if not 1 <= n <= MAX_N:
            raise InvalidParameterError(f"n must be in 1..{MAX_N}, got {n}")
        while len(levels) < n:
            parents = [mask for mask, _, _ in levels[-1]]
            levels.append(list(iter_connected_profiles(len(levels) + 1, parents)))
        return levels[n - 1]

    return level


# --- free trees -------------------------------------------------------------


def _centers(g: Graph) -> list[int]:
    """The 1 or 2 centers of a tree: every leaf is peeled at once, round
    after round, until at most two vertices are left.  A leaf is a vertex
    with exactly one neighbour among those left."""
    masks = g.masks
    left = (1 << g.n) - 1
    while left.bit_count() > 2:
        leaves = 0
        for v in _bits(left):
            if (masks[v] & left).bit_count() == 1:
                leaves |= 1 << v
        left ^= leaves
    return list(_bits(left))


def _encode_rooted(g: Graph, root: int, blocked: int) -> str:
    codes = sorted(_encode_rooted(g, u, root) for u in _bits(g.masks[root]) if u != blocked)
    return "(" + "".join(codes) + ")"


def tree_certificate(g: Graph) -> str:
    """Canonical string equal for exactly the isomorphic trees."""
    centers = _centers(g)
    if len(centers) == 1:
        return _encode_rooted(g, centers[0], -1)
    a, b = centers
    return "|".join(sorted((_encode_rooted(g, a, b), _encode_rooted(g, b, a))))


def all_free_trees(min_n: int, max_n: int) -> Iterator[Graph]:
    """All non-isomorphic trees on min_n..max_n vertices, order by order,
    each order in certificate order.

    One walk: each order is grown once, from the order below, by attaching
    one leaf in every possible place to every smaller tree and keeping the
    first tree of each certificate; cheap at n <= 12 scale.
    """
    single = Graph(1, (0,))
    level = {tree_certificate(single): single}
    for n in range(1, max_n + 1):
        if n >= min_n:
            yield from (level[cert] for cert in sorted(level))
        if n == max_n:
            return
        grown: dict[str, Graph] = {}
        for g in level.values():
            for v in range(n):
                masks = [*g.masks, 1 << v]
                masks[v] |= 1 << n
                tree = Graph(n + 1, tuple(masks))
                grown.setdefault(tree_certificate(tree), tree)
        level = grown


# --- value enumeration (inverse-problem tooling) ----------------------------


def _smallest_masks(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Value -> the smallest mask over the (value, mask) pairs."""
    best: dict[int, int] = {}
    for val, mask in pairs:
        if mask < best.get(val, mask + 1):
            best[val] = mask
    return best


def _scan_chunk(index_name: str, n: int, parent: int) -> dict[int, int]:
    """Worker: attained index value -> smallest canonical mask over the
    n-vertex classes grown from one parent class."""
    field = Profile._fields.index(index_name)
    return _smallest_masks((p[field], mask) for mask, _, p in iter_connected_profiles(n, (parent,)))


def worker_count(threads: int, jobs: int) -> int:
    """Pool size for `jobs` independent jobs: `threads` workers (0 means one
    per CPU this process may run on), never more than those CPUs or the
    jobs, and at least 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(threads or cpus, cpus, jobs))


def _call(fn: Callable, args: tuple):
    return fn(*args)


def run_jobs(jobs: list[tuple[Callable, tuple]], threads: int) -> list:
    """[fn(*args) for fn, args in jobs], in job order: in a fork pool of
    `worker_count(threads, len(jobs))` processes, or in this process, in
    order and with no pool, when that count is 1.  Jobs are fixed before
    any runs, so the result does not depend on the worker count."""
    workers = worker_count(threads, len(jobs))
    if workers == 1:
        return [fn(*args) for fn, args in jobs]
    with get_context("fork").Pool(workers) as pool:
        return pool.starmap(_call, jobs, chunksize=1)


def scan_values(index_name: str, max_n: int, threads: int = 1) -> dict[int, tuple[int, str]]:
    """Attained value -> (smallest n, graph6 of the first witness in graph6
    order) over all connected graphs with 2 <= n <= max_n.  The orders below
    max_n are read from one walk of the class levels; order max_n, which
    holds most of the work, runs as one job per (max_n-1)-vertex class on
    `threads` workers (0 = one per CPU).  Each class is scanned once: its
    canonical labeling is the first of its labeled graphs in graph6 order.
    Raises InvalidParameterError, before any work, on an unknown index or
    unless 2 <= max_n <= MAX_N."""
    if index_name not in Profile._fields:
        raise InvalidParameterError(f"unknown index {index_name!r}")
    if not 2 <= max_n <= MAX_N:
        raise InvalidParameterError(f"max_n must be in 2..{MAX_N}, got {max_n}")
    field = Profile._fields.index(index_name)
    level = class_levels()
    per_order = [_smallest_masks((p[field], mask) for mask, _, p in level(n))
                 for n in range(2, max_n)]
    jobs = [(_scan_chunk, (index_name, max_n, parent)) for parent, _, _ in level(max_n - 1)]
    parts = run_jobs(jobs, threads)
    per_order.append(_smallest_masks(pair for part in parts for pair in part.items()))
    out: dict[int, tuple[int, str]] = {}
    for n, best in enumerate(per_order, 2):
        for val, mask in best.items():
            if val not in out:
                out[val] = (n, write_graph6(Graph(n, mask_adjacency(n, mask))))
    return out


def value_gaps(attained: dict[int, tuple[int, str]]) -> list[int]:
    """Sorted non-attained integers strictly between the extreme attained values."""
    if not attained:
        return []
    lo, hi = min(attained), max(attained)
    return [v for v in range(lo + 1, hi) if v not in attained]
