"""The metric engine and the instance corpora for sweeps.

`_reach_profile` is the one metric engine: from adjacency bitmasks it
builds, layer by layer, the ball of every radius around every vertex,
without per-pair distances, and counts each layer's ordered pairs as it
builds it.  Past the closed neighbourhoods, a layer is one pass over the
edges on a sparse graph; on a dense one, whose closed neighbourhoods hold
at least a quarter of the ordered pairs (4(n + 2m) >= n^2), each ball ORs
in its neighbours' balls until it is full.  `profile_from_masks` and
`profile_of` return the `indices.Profile` it reads off the counts, and
`layered_profile` hands the balls on as well, for checks that need the
periphery or distances (`periphery_mask`, `distance_sums`).  `compute` and
every audit suite use them.  Beside the engine: one graph per isomorphism
class of connected graphs, with its automorphisms and its number of
labelings n!/|Aut(G)|, by canonical augmentation; all free trees up to a
ceiling, each order grown once; and the attained-value scan.

The canonical labeling of a graph is the one that comes first in graph6
string order, the one with the smallest edge mask.  Classes grow one vertex
at a time (McKay, "Isomorph-free exhaustive generation", J. Algorithms
1998): a child of an (n-1)-vertex class, in the labeling the parent was
grown in, joins vertex n-1 to a non-empty neighbour set taken once per
orbit of Aut(parent), and is kept only when vertex n-1 lies in the orbit of
the deletion vertex m(G), so each class has exactly one parent class.  m(G)
is the non-cut vertex with the largest (degree, sorted neighbour degrees);
on a tie, the tied vertex that sits last in the canonical order.  So the
invariant settles most children, and part of it is read once per parent.
A neighbour set S with 2 <= |S| < D, D the largest degree of a
non-cut vertex of the parent, is skipped before its child is built: that
vertex stays non-cut in the child, with a larger degree than the new one.
So is a set with 2 <= |S| = D that holds such a vertex, whose degree grows
to D + 1.
And the cut-vertex test reads the components of the parent less each
vertex (`_cut_table`), not a search of the child.  Every class comes with
its adjacency rows and Aut(G) in compact form, and hands Aut(G) on to its
children; it is keyed by its canonical mask, which only an output that
shows the class reads, by one search of its rows.  A tie's search branches
on one vertex per twin class (vertices with equal open or closed
neighbourhoods), so it yields one minimizing order per permutation of the
twins: those orders and the twin classes are Aut(G).  A child kept with no
tie takes the stabiliser of its neighbour set in Aut(parent), which fixes
the new vertex, with no search.  So does a child whose tied vertices are
all twins of the new one: with it they are its orbit and one twin class,
and Aut(G) is every permutation of that class times the members of the
stabiliser that fix it.  A group is listed as permutations only for a
class that grows children (`_orbit_minimal_sets`), so the largest order of
a sweep lists none.  Growth searches any other tie, and nothing else.

`class_levels` is the one walk of the levels: each order is grown once,
from the entries of the order below, when first asked for.  The two largest
orders of a sweep, which hold most of the work, are grown instead as one
job per class of the order below them (`_grown_levels`).  At every order, a
class is searched only as a candidate for an output: by independence number
for a value's witness (`scan_values`), and for an audit witness key only
where a class violates a claim.
`run_jobs` runs such jobs, (fn, args) pairs taken from an iterable only as
workers come free for them, on forked workers, and yields their results in
job order as they come; the value scan of `enumerate-values`, every audit
suite and `compute` on a graph6 stream use it.  The value scan folds each
job's result into one running table as it comes.

Edge sets are `graphio` edge masks: the graph6 data bits of the graph read
as one integer, so integer order is graph6 string order for a fixed n.
"""

from __future__ import annotations

import itertools
import os
from contextlib import closing, suppress
from math import factorial, prod
from multiprocessing import connection, get_context
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidParameterError, WorkerDiedError
from .graphio import edge_mask, mask_rows, write_graph6
from .graphs import Graph, _bits, _component, _edge_list
from .indices import INDEX_NAMES, Profile

# The largest order of an exhaustive sweep: order 9 has 261,080 classes,
# about 23 times as many as order 8, and a sweep to it takes about 16 times
# as long (the README's enumerate-values section gives the measured runs).
MAX_N = 8

# Aut(G) in compact form, (orders, twins): for each order, the permutation
# that takes the first order onto it, composed with every permutation of the
# twin classes.  A tie holds its canonical form's orders and twin classes; a
# child kept with no tie holds the stabiliser of its neighbour set in
# Aut(parent), whose members, as orders of n - 1 entries, also fix n - 1;
# a child whose ties are all twins of n - 1 holds the members of that
# stabiliser that fix them, and their twin class with n - 1.
# Only `_orbit_minimal_sets` lists the members (`_automorphisms`).
Group = tuple[list[tuple[int, ...]], list[tuple[int, ...]]]
# A class as `iter_connected_profiles` yields it and `class_levels` keeps it:
# (n!/|Aut(G)|, profile, adjacency rows, Aut(G) as a Group).  Its canonical
# mask is `canonical_form(n, rows)[0]`, searched only where an output reads it.
ClassEntry = tuple[int, Profile, tuple[int, ...], Group]


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


def _reach_profile(n: int, masks: Sequence[int]) -> tuple[Profile, list[list[int]]] | None:
    """The one metric engine: (profile, layers) of a graph given by
    adjacency bitmasks, or None when it is disconnected.  layers[t - 1][v]
    is the bitmask of the vertices within distance t of v, for t =
    1..diameter; layer 1 is the closed neighbourhoods, read in the one
    degree pass with m and the pendants.  Each later layer is counted, in
    ordered pairs, as it is built, and the layers stop once they hold all
    n^2 pairs; a layer that adds none means the graph is disconnected.  A
    pair (u, v) beyond distance t adds 1 to d(u, v) and 2t + 2 to d + d^2,
    so the six indices come from those counts and, for the peripheral and
    pendant vertices, from the layers masked to them.  No per-pair distances
    are formed."""
    full = (1 << n) - 1
    pairs = n * n
    cur = []
    degrees = pends = 0
    for v, row in enumerate(masks):
        d = row.bit_count()
        degrees += d
        if d == 1:
            pends |= 1 << v
        cur.append(row | 1 << v)
    count = n + degrees  # the ordered pairs within distance 1
    # dense: the closed neighbourhoods already hold a quarter of the pairs.
    # Then each ball that is not yet full gathers its neighbours' balls,
    # lowest neighbour first, and stops as soon as it is full; else each
    # layer grows every ball at once by one pass over the edges.  On a
    # 2-vCPU guest the gather took 0.59x the edge pass's time on the
    # audit's random graphs (8-24 vertices), 0.83x on their complements and
    # 0.07x on tree complements; taken for every graph, it took 2.3x on
    # random trees and 2.0x on compute-large's inputs.
    dense = 4 * count >= pairs
    edges = None
    layers: list[list[int]] = []
    within = n  # the ordered pairs within distance t = len(layers)
    sum_d = half_dd = radius = 0
    while within != pairs:
        miss = pairs - within
        sum_d += miss
        half_dd += (len(layers) + 1) * miss
        if layers:
            last = cur
            count = 0
            if dense:
                cur = []
                for ball, rest in zip(last, masks):
                    while ball != full and rest:
                        low = rest & -rest
                        ball |= last[low.bit_length() - 1]
                        rest ^= low
                    count += ball.bit_count()
                    cur.append(ball)
            else:
                edges = edges or _edge_list(masks)
                cur = last[:]
                for i, j in edges:
                    cur[i] |= last[j]
                    cur[j] |= last[i]
                for ball in cur:
                    count += ball.bit_count()
        if count == within:
            return None
        layers.append(cur)
        if not radius and full in cur:
            radius = len(layers)
        within = count
    w, ww = sum_d // 2, half_dd // 2
    # periphery_mask reads only the count and the last two layers, so it
    # takes the layers without balls[0]; K_1 has no layer and is all periphery
    peri = periphery_mask(layers) if layers else full
    pw, pww = (w, ww) if peri == full else _pair_sums(layers, peri)
    n_pend = pends.bit_count()
    if n_pend < 2:
        tw = tww = 0
    elif pends == peri:
        tw, tww = pw, pww
    else:
        tw, tww = _pair_sums(layers, pends)
    return (Profile(n, degrees // 2, len(layers), radius, peri.bit_count(), n_pend,
                    w, ww, pw, pww, tw, tww), layers)


def _pair_sums(layers: list[list[int]], sel: int) -> tuple[int, int]:
    """(sum of d, sum of (d + d^2) / 2) over the unordered pairs within the
    vertex bitmask `sel`, from the layers masked to it; the last layer,
    full, adds nothing."""
    members = list(_bits(sel))
    pairs = len(members) ** 2
    sum_d = half_dd = pairs - len(members)
    for t, layer in enumerate(layers[:-1], 2):
        within = 0
        for v in members:
            within += (layer[v] & sel).bit_count()
        sum_d += pairs - within
        half_dd += t * (pairs - within)
    return sum_d // 2, half_dd // 2


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
    """Profile of a graph given by adjacency bitmasks; None when disconnected."""
    reach = _reach_profile(n, masks)
    return None if reach is None else reach[0]


def profile_of(g: Graph) -> Profile | None:
    """Profile of an in-memory graph; None when disconnected."""
    return profile_from_masks(g.n, g.masks)


def layered_profile(g: Graph) -> tuple[Profile, list[list[int]]] | None:
    """(profile, balls) of an in-memory graph, or None when it is
    disconnected: balls[t][v] is the bitmask of the vertices within distance
    t of v, for t = 0..diameter, so the diameter is len(balls) - 1."""
    reach = _reach_profile(g.n, g.masks)
    if reach is None:
        return None
    profile, layers = reach
    return profile, [[1 << v for v in range(g.n)], *layers]


def complement_profile(n: int, masks: Sequence[int]) -> Profile | None:
    """Profile of the complement, straight from adjacency bitmasks."""
    full = (1 << n) - 1
    return profile_from_masks(n, [(~masks[v]) & full & ~(1 << v) for v in range(n)])


# --- isomorphism classes ---------------------------------------------------


def canonical_form(n: int, adj: Sequence[int]) -> tuple[int, list[tuple[int, ...]],
                                                        list[tuple[int, ...]]]:
    """(mask, orders, twins): the smallest edge mask over all labelings of
    the graph with adjacency bitmasks `adj`, the twin classes of the graph,
    and one vertex order (order[p] is the vertex labeled p) that attains the
    mask per permutation of the twins.

    The mask is the concatenation of the columns of the labeled adjacency
    matrix; column j holds the adjacency of the j-th vertex to the earlier
    ones, the earliest as the most significant bit.  The orders are built
    column by column, keeping at depth j only those whose column j is
    minimal; a partial order is kept with the bitmask of its unplaced
    vertices.  A twin class is a set of two or more vertices with equal
    open, or equal closed, neighbourhoods; swapping two twins is an
    automorphism, and two unplaced twins give equal columns, so only the
    lowest of them is placed next.  The orders kept are those of the coset
    of minimizing orders that place each twin class in ascending order:
    |Aut(G)| / prod(|class|!) of them, the first being the smallest of the
    whole coset.  The entries at position p across them, and their twins,
    are the orbit of the vertex at p.
    """
    classes: dict[int, list[int]] = {}
    for v, row in enumerate(adj):  # an open and a closed neighbourhood never coincide
        classes.setdefault(row, []).append(v)
        classes.setdefault(row | 1 << v, []).append(v)
    twins = [tuple(members) for members in classes.values() if len(members) > 1]
    later = [0] * n  # the twins above each vertex
    for members in twins:
        for i, v in enumerate(members):
            later[v] = sum(1 << u for u in members[i + 1:])
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
                v = low.bit_length() - 1
                states.append((order + (v,), left ^ low))
                cand &= ~(low | later[v])
    return mask, [order for order, _ in states], twins


def canonical_mask(n: int, mask: int) -> int:
    """Edge bitmask of the canonical labeling: the first labeling of the
    graph in graph6 order.  Equal for exactly the isomorphic graphs."""
    return canonical_form(n, mask_adjacency(n, mask))[0]


def _automorphisms(n: int, group: Group) -> list[tuple[int, ...]]:
    """Every member of `group`, a `Group`, as a permutation of range(n)
    (sigma[v] is the image of v): the first order taken onto each order,
    extended to fix vertex n - 1 when the orders have n - 1 entries, and
    composed with every permutation of the twin classes."""
    orders, twins = group
    inverse = sorted(range(len(orders[0])), key=orders[0].__getitem__)
    extra = tuple(range(len(inverse), n))
    members = [tuple(order[p] for p in inverse) + extra for order in orders]
    for cls in twins:
        swaps = []
        for perm in itertools.permutations(cls):
            tau = list(range(n))
            for u, v in zip(cls, perm):
                tau[u] = v
            swaps.append(tau)
        members = [tuple(tau[u] for u in sigma) for tau in swaps for sigma in members]
    return members


def _orbit_minimal_sets(k: int, group: Group, bound: int = 0,
                        top: int = 0) -> list[tuple[int, list]]:
    """(set, stabiliser) for the non-empty subsets of range(k), as bitmasks
    in ascending order, that are the smallest of their orbit under `group`,
    a `Group` on range(k); the stabiliser lists the members of the group
    that map the set onto itself.  A set S with 2 <= |S| < `bound`, or with
    2 <= |S| = `bound` that meets the vertex bitmask `top`, is skipped
    before any image is taken: an orbit has sets of one size only, and
    meets `top`, a union of orbits, in all its sets or in none.  This is the
    one place a group is listed."""
    autos = _automorphisms(k, group)
    seen = bytearray(1 << k)
    images = [[1 << u for u in sigma] for sigma in autos]
    reps = []
    for s in range(1, 1 << k):
        size = s.bit_count()
        if not seen[s] and not (1 < size < bound or 1 < size == bound and s & top):
            members = list(_bits(s))
            stab = []
            for sigma, bit in zip(autos, images):
                img = 0
                for u in members:
                    img |= bit[u]
                seen[img] = 1
                if img == s:
                    stab.append(sigma)
            reps.append((s, stab))
    return reps


def _cut_table(k: int, adj: Sequence[int]) -> list[list[int]]:
    """For each vertex v of the graph on range(k) with adjacency bitmasks
    `adj` (bits k and above ignored), the components of the graph less v,
    as bitmasks: v is a cut vertex when there are two or more."""
    full = (1 << k) - 1
    table = []
    for v in range(k):
        left = full ^ (1 << v)
        parts = []
        while left:
            part = _component(adj, left)
            parts.append(part)
            left ^= part
        table.append(parts)
    return table


def _rival_deletion_vertices(n: int, adj: list[int],
                             cuts: list[list[int]]) -> list[int] | None:
    """The cheap half of the deletion rule.  m(G) is a non-cut vertex of
    largest (degree, sorted neighbour degrees), and vertex n-1, whose
    removal leaves the parent, is never a cut vertex.  None when another
    non-cut vertex has a larger invariant, so that n-1 is not in the orbit
    of m(G); otherwise the other non-cut vertices whose invariant ties with
    that of n-1 (none when n-1 is m(G)).  Neighbour degrees are sorted only
    on a degree tie, and the cut-vertex test runs only where the invariant
    ties or wins.  `cuts` is the parent's `_cut_table`: a parent vertex v
    is a non-cut vertex of the child exactly when the neighbours of n-1
    meet every component of the parent less v, so the test is a few bit
    tests."""
    deg = [a.bit_count() for a in adj]
    new = n - 1
    reach = adj[new]

    def nbr_degrees(v: int) -> list[int]:
        out = []
        rest = adj[v]
        while rest:
            low = rest & -rest
            out.append(deg[low.bit_length() - 1])
            rest ^= low
        out.sort()
        return out

    top, top_nbrs = deg[new], None
    ties = []
    for v in range(new):
        if deg[v] < top:
            continue
        wins = deg[v] > top
        if not wins:
            top_nbrs = top_nbrs or nbr_degrees(new)  # n-1 has a neighbour
            nbrs = nbr_degrees(v)
            if nbrs < top_nbrs:
                continue
            wins = nbrs > top_nbrs
        if all(part & reach for part in cuts[v]):
            if wins:
                return None
            ties.append(v)
    return ties


def iter_connected_profiles(n: int, parents: Iterable[ClassEntry]) -> Iterator[ClassEntry]:
    """(n!/|Aut(G)|, profile, adjacency rows, Aut(G)) for one graph per
    isomorphism class of connected n-vertex graphs grown from `parents`,
    entries of some (n-1)-vertex classes as this yields them.  The weight
    is the number of labeled graphs in the class, the rows are the class in
    the labeling it was grown in, and Aut(G) acts
    on that labeling, in the compact form of `Group`: no member is listed
    here, only each parent's group is (`_orbit_minimal_sets`).  Each class
    has one parent, so disjoint parent sets give disjoint classes, and all
    the (n-1)-vertex classes give every n-vertex class (`class_levels`).

    A child joins vertex n-1 of the parent, in its rows' labeling, to a
    neighbour set S that is the smallest of its orbit under Aut(parent).  It
    is kept when vertex n-1 is in the orbit of the deletion vertex m(G):
    among the non-cut vertices of largest (degree, sorted neighbour
    degrees), the one that sits last in the canonical order.  The invariant
    alone decides most children, with two tables made once per parent: the
    components of the parent less each vertex (`_cut_table`), and from them
    D, the largest degree of a non-cut vertex.  A set S with 2 <= |S| < D
    is not even listed: that vertex stays non-cut in the child and beats
    n-1 on degree.  Nor is a set with 2 <= |S| = D that holds a non-cut
    vertex of degree D, which has degree D + 1 in the child.  When the invariant leaves no tie, vertex n-1 alone has
    the top invariant, so every automorphism fixes it: Aut(G) is the
    stabiliser of S in Aut(parent), extended to fix n-1 only when it is
    listed, and no canonical form is computed.  When every tied vertex is
    an open or closed twin of n-1, those twins and n-1 are its orbit T, so
    the child is kept, again with no search: |Aut(G)| is |T| times the size
    of the stabiliser, and Aut(G) is every permutation of T, a twin class,
    times the stabiliser's members that fix T pointwise.  Any other tie is
    searched once, which yields its twin classes and one minimizing order
    per twin permutation: each order, taken onto the first, and composed
    with any permutation of the twins, is an automorphism, so |Aut(G)| is
    the number of orders times the product of |class|!.
    """
    new = n - 1
    n_labelings = factorial(n)
    for _, _, parent_adj, parent_group in parents:
        cuts = _cut_table(new, parent_adj)
        degree = {v: parent_adj[v].bit_count() for v in range(new) if len(cuts[v]) < 2}
        bound = max(degree.values())
        top = sum(1 << v for v, d in degree.items() if d == bound)
        for nbrs, stab in _orbit_minimal_sets(new, parent_group, bound, top):
            adj = [*parent_adj, nbrs]
            for u in _bits(nbrs):
                adj[u] |= 1 << new
            ties = _rival_deletion_vertices(n, adj, cuts)
            if ties is None:
                continue
            if not ties:
                group, size = (stab, []), len(stab)
            elif all(adj[v] == nbrs or adj[v] | 1 << v == nbrs | 1 << new for v in ties):
                # the ties are all twins of n-1, so with it they are its
                # orbit, and one twin class: Aut(G) is every permutation of
                # them times the members of the stabiliser that fix them
                twins = (*ties, new)
                size = len(twins) * len(stab)
                group = [sigma for sigma in stab if all(sigma[v] == v for v in ties)], [twins]
            else:
                _, orders, twins = canonical_form(n, adj)
                # m(G) is the tied vertex that sits last in the canonical
                # order.  The twins of n-1 tie with it and every order puts
                # them before it, so n-1 is in the orbit of m(G) exactly
                # when it sits there in some order.
                pos = max(orders[0].index(v) for v in ties + [new])
                if all(order[pos] != new for order in orders):
                    continue
                group = orders, twins
                size = len(orders) * prod(factorial(len(cls)) for cls in twins)
            yield n_labelings // size, profile_from_masks(n, adj), tuple(adj), group


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


def _grown_levels(max_n: int, entry: ClassEntry) -> Iterator[tuple[int, Iterable[ClassEntry]]]:
    """(n, classes) for each order n above that of the class `entry`, up to
    max_n, in order: every n-vertex class grown from it, through the
    classes of the orders between.  Disjoint sets of classes of one order
    grow disjoint classes, so the classes of one order grow every larger
    class once, as `class_levels` does.  Each order but max_n is listed, to
    grow the next from; max_n comes as an iterator, so its classes are not
    held at once, and lists no group (`_orbit_minimal_sets`)."""
    classes: Iterable[ClassEntry] = [entry]
    for n in range(len(entry[2]) + 1, max_n):
        classes = list(iter_connected_profiles(n, classes))
        yield n, classes
    yield max_n, iter_connected_profiles(max_n, classes)


def class_levels() -> Callable[[int], list[ClassEntry]]:
    """The one walk of the class levels: level(n), for 1 <= n <= MAX_N, is
    the list of the entries of every connected n-vertex class, as
    `iter_connected_profiles` yields them, in that order.  Each order is
    grown once, from the entries of the order below, the first time it is
    asked for; as everywhere in growth, only a tie that is not all twins of
    the new vertex is searched.  The levels are kept by this walk only, so a
    new walk starts from scratch.  level(n) raises InvalidParameterError,
    before any generation, for n outside 1..MAX_N."""
    levels = [[(1, profile_from_masks(1, (0,)), (0,), ([(0,)], []))]]

    def level(n: int) -> list[ClassEntry]:
        if not 1 <= n <= MAX_N:
            raise InvalidParameterError(f"n must be in 1..{MAX_N}, got {n}")
        while len(levels) < n:
            levels.append(list(iter_connected_profiles(len(levels) + 1, levels[-1])))
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


def _largest_alpha(items: Iterable[tuple[int, int, list]],
                   best: dict[int, tuple[int, list]] | None = None) -> dict[int, tuple[int, list]]:
    """Value -> (α, candidates) over (value, α, candidates) items, folded
    into `best` when it is given: the candidates of every item with the
    largest α of its value."""
    best = {} if best is None else best
    for val, a, cands in items:
        top = best.get(val)
        if top is None or a > top[0]:
            best[val] = (a, list(cands))
        elif a == top[0]:
            top[1].extend(cands)
    return best


def _value_candidates(field: int, classes: Iterable[ClassEntry]) -> dict[int, tuple[int, list]]:
    """Attained value of Profile field `field` -> (α, [adjacency rows]) over
    `classes`: the classes of the largest independence number α of each
    value, the only ones that can hold its smallest canonical mask
    (`independence_number`).  No class is searched here."""
    return _largest_alpha((p[field], independence_number(rows), [rows])
                          for _, p, rows, _ in classes)


def _scan_chunk(index_name: str, max_n: int, parent: ClassEntry) -> list[dict[int, tuple[int, list]]]:
    """Worker: `_value_candidates` of each order above the parent class's,
    up to max_n, in order, over the classes grown from that one class
    (`_grown_levels`)."""
    field = Profile._fields.index(index_name)
    return [_value_candidates(field, classes) for _, classes in _grown_levels(max_n, parent)]


def worker_count(threads: int, jobs: int | None = None) -> int:
    """Pool size for `jobs` independent jobs: `threads` workers (0 means one
    per CPU this process may run on), never more than those CPUs or the
    jobs, when their count is given, and at least 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(threads or cpus, cpus, cpus if jobs is None else jobs))


def _serve(conn, parent_end) -> None:
    """Worker: answer each job on `conn` with (True, result) or (False, exc) until EOF."""
    parent_end.close()  # so that EOF comes once the parent has ended
    while True:
        try:
            try:
                fn, args = conn.recv()
            except (EOFError, ConnectionResetError):
                return
            conn.send((True, fn(*args)))
        except BaseException as exc:
            with suppress(OSError):  # the parent has ended: the next read meets it
                conn.send((False, exc))


def run_jobs(jobs: Iterable[tuple[Callable, tuple]], threads: int) -> Iterator:
    """fn(*args) for each (fn, args) of `jobs`, yielded in job order.  A job
    is taken from `jobs` only when a worker is free for it, so the caller
    may make each one as it is asked for.  The first `worker_count(threads)`
    jobs, or fewer if `jobs` ends, set the worker count.  With one worker
    the jobs run here; else on that many forked workers, job k first on
    worker k and then one job at a time on the first one done, and a result
    that comes before an earlier job's waits in a reorder buffer.  A job's
    exception, or a worker's death as WorkerDiedError, is raised here.
    Every worker ends before this generator does, also when it is closed
    early: run it out, or close it (`contextlib.closing`)."""
    jobs = iter(jobs)
    ahead = list(itertools.islice(jobs, worker_count(threads)))
    workers = worker_count(threads, len(ahead))
    jobs = itertools.chain(ahead, jobs)
    if workers == 1:
        for fn, args in jobs:
            yield fn(*args)
        return
    context = get_context("fork")
    done = {}  # job index -> result, until the jobs before it are yielded
    first = 0  # the index of the next result to yield
    started = {}  # this process's end of each worker's pipe -> the worker
    running = {}  # such an end -> the index of the job its worker holds
    try:
        for _ in range(workers):
            conn, theirs = context.Pipe()
            worker = context.Process(target=_serve, args=(theirs, conn))
            worker.start()
            theirs.close()  # so that EOF comes once the worker has ended
            started[conn] = worker
        idle = list(started)
        pending = enumerate(jobs)
        while True:
            for conn, (i, job) in zip(idle, pending):
                with suppress(BrokenPipeError, ConnectionResetError):
                    conn.send(job)  # to a worker that has ended: its EOF is read below
                running[conn] = i
            while first in done:
                yield done.pop(first)
                first += 1
            if not running:
                return
            idle = connection.wait(list(running))
            for conn in idle:
                try:
                    ok, out = conn.recv()
                except (EOFError, ConnectionResetError):
                    started[conn].join()
                    raise WorkerDiedError("a worker process died (exit code"
                                          f" {started[conn].exitcode}) while running jobs")
                if not ok:
                    raise out
                done[running.pop(conn)] = out
    finally:  # every worker ends here, also one blocked sending a large result
        for worker in started.values():
            worker.kill()
        for conn, worker in started.items():
            worker.join()
            conn.close()


def scan_values(index_name: str, max_n: int, threads: int = 1) -> dict[int, tuple[int, str]]:
    """Attained value -> (smallest n, graph6 of the first witness in graph6
    order) over all connected graphs with 2 <= n <= max_n.  The orders up to
    max_n-2 are read from one walk of the class levels; orders max_n-1 and
    max_n, which hold most of the work, run as one job per class of order
    max_n-2 (of order 1 when max_n <= 3) on `threads` workers (0 = one per
    CPU).  Each class is scanned once: its canonical labeling is the first
    of its labeled graphs in graph6 order.  Every order keeps, per value,
    the classes of the largest independence number, in one table per order
    into which each job's result is folded as it comes, and this process
    searches those alone, order by order, for the values no smaller order
    attains.  Raises InvalidParameterError, before any work, on an unknown
    index, on threads < 0, or unless 2 <= max_n <= MAX_N."""
    if index_name not in INDEX_NAMES:
        raise InvalidParameterError(f"unknown index {index_name!r}")
    if not 2 <= max_n <= MAX_N:
        raise InvalidParameterError(f"max_n must be in 2..{MAX_N}, got {max_n}")
    if threads < 0:
        raise InvalidParameterError(f"threads must be >= 0, got {threads}")
    field = Profile._fields.index(index_name)
    level = class_levels()
    low = max(1, max_n - 2)  # the order of the jobs' classes
    out: dict[int, tuple[int, str]] = {}

    def resolve(n: int, top: dict[int, tuple[int, list]]) -> None:
        for val, (_, cands) in top.items():
            if val not in out:
                mask = min(canonical_form(n, rows)[0] for rows in cands)
                out[val] = (n, write_graph6(Graph(n, mask_adjacency(n, mask))))

    for n in range(2, low + 1):
        resolve(n, _value_candidates(field, level(n)))
    tops: list[dict[int, tuple[int, list]]] = [{} for _ in range(low, max_n)]
    jobs = ((_scan_chunk, (index_name, max_n, parent)) for parent in level(low))
    with closing(run_jobs(jobs, threads)) as parts:
        for part in parts:
            for top, table in zip(tops, part):
                _largest_alpha(((val, a, cands) for val, (a, cands) in table.items()
                                if val not in out), top)
    for n, top in enumerate(tops, low + 1):
        resolve(n, top)
    return out


def value_gaps(attained: dict[int, tuple[int, str]]) -> list[int]:
    """Sorted non-attained integers strictly between the extreme attained values."""
    if not attained:
        return []
    lo, hi = min(attained), max(attained)
    return [v for v in range(lo + 1, hi) if v not in attained]
