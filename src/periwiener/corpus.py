"""The metric engine and the instance corpora for sweeps.

`profile_of` (over `profile_from_masks`) computes the `indices.Profile` of a
graph from adjacency bitmasks, without per-pair distance matrices; `compute`
and every audit suite that needs only the six indices use it.  Beside it:
exhaustive labeled connected graphs by edge-bitmask enumeration,
isomorphism-reduced small graphs, all free trees up to a ceiling, and the
attained-value scan.

Edge bit b of a mask corresponds to pair_list(n)[b], which is the graph6
column order (0,1),(0,2),(1,2),(0,3),...  A mask therefore maps directly
onto a graph6 record for the same n.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from typing import Iterator

from .graphs import Graph, build_graph
from .indices import Profile


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs in graph6 column order."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def mask_adjacency(n: int, mask: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Adjacency bitmasks and edge list for an edge-subset bitmask."""
    pairs = pair_list(n)
    adj = [0] * n
    edges = []
    mm = mask
    while mm:
        low = mm & -mm
        i, j = pairs[low.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        edges.append((i, j))
        mm ^= low
    return adj, edges


def mask_to_graph(n: int, mask: int) -> Graph:
    pairs = pair_list(n)
    mm = mask
    edges = []
    while mm:
        low = mm & -mm
        edges.append(pairs[low.bit_length() - 1])
        mm ^= low
    return build_graph(n, edges)


def graph_to_mask(g: Graph) -> int:
    index = {p: b for b, p in enumerate(pair_list(g.n))}
    mask = 0
    for e in g.edges():
        mask |= 1 << index[e]
    return mask


def g6_order_key(n: int, mask: int) -> int:
    """Integer whose ordering matches graph6 string order for fixed n."""
    nbits = n * (n - 1) // 2
    key = 0
    mm = mask
    while mm:
        low = mm & -mm
        key |= 1 << (nbits - low.bit_length())
        mm ^= low
    return key


def profile_from_masks(n: int, masks: list[int], edges: list[tuple[int, int]]) -> Profile | None:
    """Profile via layered reachability sets; None when disconnected.

    Layer t holds, per vertex, the bitmask of vertices within distance t;
    popcount differences between layers count ordered pairs at each exact
    distance, which yields all six indices without per-pair BFS.
    """
    if n == 1:
        return Profile(1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    full = (1 << n) - 1
    cur = [masks[v] | (1 << v) for v in range(n)]
    layers: list[list[int] | None] = [None, cur]
    ecc = [0] * n
    pending = []
    for v in range(n):
        if cur[v] == full:
            ecc[v] = 1
        else:
            pending.append(v)
    t = 1
    while pending:
        new = cur[:]
        for i, j in edges:
            new[i] |= cur[j]
            new[j] |= cur[i]
        if new == cur:
            return None
        t += 1
        cur = new
        layers.append(cur)
        still = []
        for v in pending:
            if cur[v] == full:
                ecc[v] = t
            else:
                still.append(v)
        pending = still
    diameter = t
    radius = min(ecc)
    m = len(edges)

    sum_d = 0
    sum_dd = 0
    prev = n
    for tt in range(1, diameter + 1):
        row = layers[tt]
        s = 0
        for r in row:
            s += r.bit_count()
        c = s - prev
        if c:
            sum_d += tt * c
            sum_dd += (tt + tt * tt) * c
        prev = s
    w = sum_d // 2
    ww = sum_dd // 4

    peri_mask = 0
    peri = []
    for v in range(n):
        if ecc[v] == diameter:
            peri_mask |= 1 << v
            peri.append(v)
    k = len(peri)
    if k == n:
        pw, pww = w, ww
    else:
        pw, pww = _masked_pair_sums(layers, diameter, peri, peri_mask)

    pend_mask = 0
    pend = []
    for v in range(n):
        if masks[v].bit_count() == 1:
            pend_mask |= 1 << v
            pend.append(v)
    if len(pend) < 2:
        tw = tww = 0
    elif pend_mask == peri_mask:
        tw, tww = pw, pww
    elif pend_mask == full:
        tw, tww = w, ww
    else:
        tw, tww = _masked_pair_sums(layers, diameter, pend, pend_mask)

    return Profile(n, m, diameter, radius, k, len(pend), w, ww, pw, pww, tw, tww)


def _masked_pair_sums(layers, diameter, sel, sel_mask) -> tuple[int, int]:
    sum_d = 0
    sum_dd = 0
    prev = len(sel)
    for tt in range(1, diameter + 1):
        row = layers[tt]
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
    return profile_from_masks(g.n, g.adjacency_masks(), list(g.edges()))


def complement_profile(n: int, masks: list[int]) -> Profile | None:
    """Profile of the complement, straight from adjacency bitmasks."""
    full = (1 << n) - 1
    comp = [(~masks[v]) & full & ~(1 << v) for v in range(n)]
    edges = [(i, j) for j in range(1, n) for i in range(j) if (comp[i] >> j) & 1]
    return profile_from_masks(n, comp, edges)


def iter_connected_profiles(n: int, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, Profile]]:
    """(mask, profile) for every connected labeled graph on n vertices
    whose edge bitmask lies in [lo, hi)."""
    nbits = n * (n - 1) // 2
    if hi is None:
        hi = 1 << nbits
    min_m = n - 1
    for mask in range(lo, hi):
        if mask.bit_count() < min_m:
            continue
        adj, edges = mask_adjacency(n, mask)
        p = profile_from_masks(n, adj, edges)
        if p is not None:
            yield mask, p


# --- isomorphism reduction for small graphs --------------------------------


@lru_cache(maxsize=8)
def _perm_bit_maps(n: int) -> tuple[tuple[int, ...], ...]:
    pairs = pair_list(n)
    index = {p: b for b, p in enumerate(pairs)}
    maps = []
    for perm in itertools.permutations(range(n)):
        mp = [0] * len(pairs)
        for b, (i, j) in enumerate(pairs):
            a, c = perm[i], perm[j]
            mp[b] = index[(a, c) if a < c else (c, a)]
        maps.append(tuple(mp))
    return tuple(maps)


def canonical_mask(n: int, mask: int) -> int:
    """Minimum edge bitmask over all vertex relabelings (n <= 7 is practical)."""
    best = mask
    for mp in _perm_bit_maps(n):
        mm = mask
        out = 0
        while mm:
            low = mm & -mm
            out |= 1 << mp[low.bit_length() - 1]
            mm ^= low
        if out < best:
            best = out
    return best


def nonisomorphic_connected(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in ascending canonical-mask order."""
    seen = set()
    for mask, _ in iter_connected_profiles(n):
        seen.add(canonical_mask(n, mask))
    return [mask_to_graph(n, m) for m in sorted(seen)]


# --- free trees -------------------------------------------------------------


def _centers(g: Graph) -> list[int]:
    """The 1 or 2 middle vertices found by repeated leaf pruning."""
    n = g.n
    if n <= 2:
        return list(range(n))
    deg = [g.degree(v) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in g.adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _encode_rooted(g: Graph, root: int, blocked: int) -> str:
    children = [u for u in g.adj[root] if u != blocked]
    if not children:
        return "()"
    return "(" + "".join(sorted(_encode_rooted(g, u, root) for u in children)) + ")"


def tree_certificate(g: Graph) -> str:
    """Canonical string equal for exactly the isomorphic trees."""
    centers = _centers(g)
    if len(centers) == 1:
        return _encode_rooted(g, centers[0], -1)
    a, b = centers
    return "|".join(sorted((_encode_rooted(g, a, b), _encode_rooted(g, b, a))))


def free_trees(n: int) -> list[Graph]:
    """All non-isomorphic trees on n vertices, in certificate order.

    Built by attaching one leaf in every possible place to every smaller
    tree and deduplicating by certificate; cheap at n <= 12 scale.
    """
    if n < 1:
        return []
    level: dict[str, Graph] = {tree_certificate(build_graph(1, [])): build_graph(1, [])}
    for size in range(2, n + 1):
        nxt: dict[str, Graph] = {}
        for g in level.values():
            for v in range(g.n):
                edges = list(g.edges()) + [(v, g.n)]
                cand = build_graph(g.n + 1, edges)
                cert = tree_certificate(cand)
                if cert not in nxt:
                    nxt[cert] = cand
        level = nxt
    return [level[c] for c in sorted(level)]


def all_free_trees(min_n: int, max_n: int) -> Iterator[Graph]:
    for n in range(min_n, max_n + 1):
        yield from free_trees(n)


# --- value enumeration (inverse-problem tooling) ----------------------------

_SCAN_CHUNK_BITS = 15


def _scan_chunk(args: tuple[str, int, int, int]) -> dict[int, tuple[int, int]]:
    """Worker: map attained index value -> (g6 order key, mask) best in range."""
    index_name, n, lo, hi = args
    field = Profile._fields.index(index_name)
    best: dict[int, tuple[int, int]] = {}
    for mask, profile in iter_connected_profiles(n, lo, hi):
        val = profile[field]
        cur = best.get(val)
        if cur is None:
            best[val] = (g6_order_key(n, mask), mask)
        else:
            key = g6_order_key(n, mask)
            if key < cur[0]:
                best[val] = (key, mask)
    return best


def worker_count(threads: int, jobs: int) -> int:
    """Pool size for `jobs` independent jobs: `threads` workers (0 means one
    per CPU), never more than the CPUs or the jobs, and at least 1."""
    cpus = os.cpu_count() or 1
    return max(1, min(threads or cpus, cpus, jobs))


def scan_chunks(n: int) -> list[tuple[int, int]]:
    """Fixed [lo, hi) mask ranges for one n, independent of worker count."""
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    step = 1 << _SCAN_CHUNK_BITS
    if total <= step:
        return [(0, total)]
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def scan_values(index_name: str, max_n: int, pool=None) -> dict[int, tuple[int, str]]:
    """Attained value -> (smallest n, graph6 of the first witness in graph6
    order) over all connected labeled graphs with 2 <= n <= max_n."""
    if index_name not in Profile._fields:
        raise ValueError(f"unknown index {index_name!r}")
    out: dict[int, tuple[int, str]] = {}
    from .graphio import write_graph6  # local import to avoid a cycle

    for n in range(2, max_n + 1):
        jobs = [(index_name, n, lo, hi) for lo, hi in scan_chunks(n)]
        if pool is not None and len(jobs) > 1:
            partials = pool.map(_scan_chunk, jobs)
        else:
            partials = [_scan_chunk(job) for job in jobs]
        merged: dict[int, tuple[int, int]] = {}
        for part in partials:
            for val, (key, mask) in part.items():
                cur = merged.get(val)
                if cur is None or key < cur[0]:
                    merged[val] = (key, mask)
        for val, (_, mask) in merged.items():
            if val not in out:
                out[val] = (n, write_graph6(mask_to_graph(n, mask)))
    return out


def value_gaps(attained: dict[int, tuple[int, str]]) -> list[int]:
    """Sorted non-attained integers strictly between the extreme attained values."""
    if not attained:
        return []
    lo, hi = min(attained), max(attained)
    return [v for v in range(lo + 1, hi) if v not in attained]
