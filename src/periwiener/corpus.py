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
invariant settles most children.  A canonical form is computed only where
something reads one: for a parent (its automorphisms), for a tie, and for
a class whose mask an output reads.  A child kept with no tie takes its
|Aut(G)| from the orbit of its neighbour set under Aut(parent), and comes
with its adjacency rows but no mask.

`class_levels` is the one walk of the levels: each order is grown once,
from the order below, when first asked for, and canonicalized, as the
parents of the next order.  The largest order of a sweep, which holds most
of the work, is grown instead as one job per class of the order below, and
its classes are canonicalized only as candidates for an output: by
independence number for a value's witness (`scan_values`), or, for an
audit witness key, only where a class violates a claim, in the job that
grows it.
`run_jobs` runs such jobs, (fn, args) pairs fixed in advance, in one fork
pool and returns their results in job order, or raises WorkerDiedError
once a worker process dies; the value scan of `enumerate-values`, every
audit suite and `compute` on a graph6 stream use it.

Edge sets are `graphio` edge masks: the graph6 data bits of the graph read
as one integer, so integer order is graph6 string order for a fixed n.
"""

from __future__ import annotations

import itertools
import os
from math import factorial
from multiprocessing import active_children, get_context
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidParameterError, WorkerDiedError
from .graphio import edge_mask, mask_rows, write_graph6
from .graphs import Graph, _bits, _connected_on, _edge_list
from .indices import Profile

# The largest order of an exhaustive sweep.  On a 2-vCPU guest, generating
# every class up to n = 8 takes about 3.6 s in one process, and
# `enumerate-values --max-n 8` about 2.1 s wall and 3.6 s CPU with 2
# workers, with 6,655 canonical forms (4.0 s, 7.2 s and 14,029 when every
# kept class was canonicalized, by a search over lists of columns); the
# n = 9 classes alone take about 60 s more, at 157 MiB peak RSS.
MAX_N = 8


def mask_adjacency(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency bitmasks of an edge mask; `Graph(n, mask_adjacency(n,
    mask))` is its graph.  It delegates to `graphio.mask_rows`, the one
    mask decoder, and stays only as the name the corpus and audit callers
    use: the benchmark's per-layer metrics `corpus.mask_adjacency.calls`
    and `.busy_s` trace it under this name."""
    return mask_rows(n, mask)


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
    minimal; a partial order is kept with the bitmask of its unplaced
    vertices.  The surviving orders form one coset of Aut(G), so there are
    |Aut(G)| of them, and the entries at position p across them are the
    orbit of the vertex at p.
    """
    non = [~row for row in adj]
    states = [((), (1 << n) - 1)]  # (order, unplaced vertices)
    mask = 0
    for j in range(n):
        # a state's smallest column: from its unplaced vertices, keep the
        # non-neighbours of each placed vertex in turn while any remain
        best = 1 << j
        found = []
        for order, left in states:
            cand, col = left, 0
            for v in order:
                rest = cand & non[v]
                if rest:
                    cand = rest
                    col <<= 1
                else:
                    col = col << 1 | 1
            if col < best:
                best, found = col, [(order, left, cand)]
            elif col == best:
                found.append((order, left, cand))
        mask = (mask << j) | best
        states = []
        for order, left, cand in found:
            while cand:
                low = cand & -cand
                states.append((order + (low.bit_length() - 1,), left ^ low))
                cand ^= low
    return mask, [order for order, _ in states]


def canonical_mask(n: int, mask: int) -> int:
    """Edge bitmask of the canonical labeling: the first labeling of the
    graph in graph6 order.  Equal for exactly the isomorphic graphs."""
    return canonical_form(n, mask_adjacency(n, mask))[0]


def _orbit_minimal_sets(k: int, autos: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """(set, orbit size) for the non-empty subsets of range(k), as bitmasks
    in ascending order, that are the smallest of their orbit under the
    permutation group `autos`."""
    seen = bytearray(1 << k)
    images = [[1 << u for u in sigma] for sigma in autos]
    reps = []
    for s in range(1, 1 << k):
        if not seen[s]:
            members = list(_bits(s))
            size = 0
            for bit in images:
                img = 0
                for u in members:
                    img |= bit[u]
                if not seen[img]:
                    seen[img] = 1
                    size += 1
            reps.append((s, size))
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


def iter_connected_profiles(n: int, parents: Iterable[int]) -> Iterator[
        tuple[int | None, int, Profile, tuple[int, ...]]]:
    """(canonical mask or None, n!/|Aut(G)|, profile, adjacency rows) for
    one graph per isomorphism class of connected n-vertex graphs grown from
    `parents`, the canonical masks of some (n-1)-vertex classes; the weight
    is the number of labeled graphs in the class, and the rows are the
    class in the labeling it was grown in.  Each class has one parent, so
    disjoint parent sets give disjoint classes, and all the (n-1)-vertex
    classes give every n-vertex class (`class_levels`).

    A child joins vertex n-1 of the parent, in its canonical labeling, to a
    neighbour set S that is the smallest of its orbit under Aut(parent).  It
    is kept when vertex n-1 is in the orbit of the deletion vertex m(G):
    among the non-cut vertices of largest (degree, sorted neighbour
    degrees), the one that sits last in the canonical order.  The invariant
    alone decides most children.  When it leaves no tie, vertex n-1 alone
    has the top invariant, so every automorphism fixes it: Aut(G) is the
    stabiliser of S in Aut(parent), the weight is n!|orbit(S)|/|Aut(parent)|,
    and no canonical form is computed, so the mask is None (`class_mask`
    finds it).  A canonical form is computed once per parent (its
    automorphisms) and once per tie, which yields its mask.
    """
    new = n - 1
    n_labelings = factorial(n)
    for parent in parents:
        parent_adj = mask_adjacency(new, parent)
        parent_mask, autos = canonical_form(new, parent_adj)
        if parent_mask != parent:
            raise InvalidParameterError(f"parent {parent} is not a canonical mask")
        for nbrs, orbit in _orbit_minimal_sets(new, autos):
            adj = [*parent_adj, nbrs]
            for u in _bits(nbrs):
                adj[u] |= 1 << new
            ties = _rival_deletion_vertices(n, adj)
            if ties is None:
                continue
            if ties:
                mask, orders = canonical_form(n, adj)
                # m(G) is the tied vertex that sits last in the canonical order
                pos = max(orders[0].index(v) for v in ties + [new])
                if all(order[pos] != new for order in orders):
                    continue
                weight = n_labelings // len(orders)
            else:
                mask, weight = None, n_labelings * orbit // len(autos)
            yield mask, weight, profile_from_masks(n, adj), tuple(adj)


def class_mask(n: int, mask: int | None, rows: Sequence[int]) -> int:
    """The canonical mask of a class as `iter_connected_profiles` yields it:
    its mask, or, when that is None, one search of its rows."""
    return canonical_form(n, rows)[0] if mask is None else mask


def independence_number(adj: Sequence[int]) -> int:
    """The largest number of pairwise non-adjacent vertices of the graph
    with adjacency bitmasks `adj`.  A vertex with at most one neighbour left
    is in some largest independent set, so only a vertex with more is
    branched on, taken or dropped.

    A labeling's edge mask starts with fewer than C(α+1, 2) zero bits, and
    one that lists a largest independent set first starts with at least
    C(α, 2).  So of two classes of one order, the one with the larger α has
    the smaller canonical mask."""
    def alpha(left: int) -> int:
        if not left:
            return 0
        low = left & -left
        rest = left ^ low
        nbrs = adj[low.bit_length() - 1]
        take = 1 + alpha(rest & ~nbrs)
        if (nbrs & rest).bit_count() <= 1:
            return take
        return max(take, alpha(rest))

    return alpha((1 << len(adj)) - 1)


def labelings(n: int, mask: int) -> set[int]:
    """Edge masks of every labeled graph isomorphic to this one, by all n!
    relabelings; the audit report expands at most ten witness classes of a
    claim with it, in the parent process."""
    edges = _edge_list(mask_adjacency(n, mask))
    return {edge_mask(n, [(perm[i], perm[j]) for i, j in edges])
            for perm in itertools.permutations(range(n))}


def class_levels() -> Callable[[int], list[tuple[int, int, Profile]]]:
    """The one walk of the class levels: level(n), for 1 <= n <= MAX_N, is
    the list of (canonical mask, n!/|Aut(G)|, profile) of every connected
    n-vertex class, in the order `iter_connected_profiles` yields them.
    Each order is grown once, from the order below, the first time it is
    asked for, and every class of it is canonicalized, since the classes
    are the parents of the next order.  The levels are kept by this walk
    only, so a new walk starts from scratch.  level(n) raises
    InvalidParameterError, before any generation, for n outside 1..MAX_N."""
    levels = [[(0, 1, profile_from_masks(1, (0,)))]]

    def level(n: int) -> list[tuple[int, int, Profile]]:
        if not 1 <= n <= MAX_N:
            raise InvalidParameterError(f"n must be in 1..{MAX_N}, got {n}")
        while len(levels) < n:
            k = len(levels) + 1
            parents = [mask for mask, _, _ in levels[-1]]
            levels.append([(class_mask(k, mask, rows), weight, p)
                           for mask, weight, p, rows in iter_connected_profiles(k, parents)])
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


def _largest_alpha(items: Iterable[tuple[int, int, list]]) -> dict[int, tuple[int, list]]:
    """Value -> (α, rows) over (value, α, rows) items: the rows of every
    item with the largest α of its value, the only classes that can hold
    the value's smallest canonical mask (`independence_number`)."""
    best: dict[int, tuple[int, list]] = {}
    for val, a, rows in items:
        top = best.get(val)
        if top is None or a > top[0]:
            best[val] = (a, list(rows))
        elif a == top[0]:
            top[1].extend(rows)
    return best


def _scan_chunk(index_name: str, n: int, parent: int) -> dict[int, tuple[int, list]]:
    """Worker: attained index value -> (α, rows) over the n-vertex classes
    grown from one parent class, as `_largest_alpha` keeps them; no class
    is canonicalized here."""
    field = Profile._fields.index(index_name)
    return _largest_alpha((p[field], independence_number(rows), [rows])
                          for _, _, p, rows in iter_connected_profiles(n, (parent,)))


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
    any runs, so the result does not depend on the worker count.  Raises
    WorkerDiedError, within about 0.1 s, once a worker process ends before
    the last result is in."""
    workers = worker_count(threads, len(jobs))
    if workers == 1:
        return [fn(*args) for fn, args in jobs]
    others = set(active_children())
    with get_context("fork").Pool(workers) as pool:
        started = [p for p in active_children() if p not in others]
        result = pool.starmap_async(_call, jobs, chunksize=1)
        # a pool replaces a dead worker but not its job, whose result would
        # never come: watch the workers it started with instead
        while not result.ready():
            result.wait(0.1)
            for p in started:
                if p.exitcode is not None:
                    raise WorkerDiedError(f"a worker process died (exit code {p.exitcode})"
                                          " while running jobs")
        return result.get()


def scan_values(index_name: str, max_n: int, threads: int = 1) -> dict[int, tuple[int, str]]:
    """Attained value -> (smallest n, graph6 of the first witness in graph6
    order) over all connected graphs with 2 <= n <= max_n.  The orders below
    max_n are read from one walk of the class levels; order max_n, which
    holds most of the work, runs as one job per (max_n-1)-vertex class on
    `threads` workers (0 = one per CPU).  Each class is scanned once: its
    canonical labeling is the first of its labeled graphs in graph6 order.
    The jobs canonicalize nothing: they keep, per value, the classes of the
    largest independence number, and this process canonicalizes those
    alone, for the values no smaller order attains.  Raises
    InvalidParameterError, before any work, on an unknown index or unless
    2 <= max_n <= MAX_N."""
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
    seen = {val for best in per_order for val in best}
    top = _largest_alpha((val, a, rows) for part in parts
                         for val, (a, rows) in part.items() if val not in seen)
    per_order.append({val: min(canonical_form(max_n, r)[0] for r in rows)
                      for val, (_, rows) in top.items()})
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
