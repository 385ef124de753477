import hashlib
import itertools
import multiprocessing
import random
import time
from collections import Counter
from contextlib import closing
from math import comb, factorial

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from conftest import (
    connected_graphs,
    graph6_pairs,
    labeled_connected,
    nx_graph6,
    nx_mask,
    random_connected,
    to_nx,
)
from periwiener import corpus
from periwiener.errors import InvalidParameterError, NotConnectedError
from periwiener.generators import complete, cycle, path, random_tree, star
from periwiener.graphs import (
    Graph,
    _bits,
    _connected_on,
    build_graph,
    cartesian_product,
    distance_matrix,
)
from periwiener.indices import Profile, index_vector, peripheral_distance_number
from periwiener.trees import as_tree, complement_tree_pww

# labeled connected graph counts, OEIS A001187 (recounted independently in
# test_counts_cross_checked_by_union_find below, up to n = 5)
LABELED_CONNECTED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
# non-isomorphic connected graph counts, OEIS A001349
ISO_CONNECTED = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# non-isomorphic tree counts by order
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


class TestProfile:
    """The bitmask engine against the definitional oracle (and networkx)."""

    def test_profile_matches_definitions_exhaustively(self):
        for n in range(2, 6):
            for mask, prof in labeled_connected(n):
                g = Graph(n, corpus.mask_adjacency(n, mask))
                assert prof == corpus.profile_of(g) == index_vector(g)

    def test_profile_matches_definitions_on_random(self, rng):
        for _ in range(60):
            g = random_connected(rng, rng.randrange(2, 26))
            assert corpus.profile_of(g) == index_vector(g)

    @given(connected_graphs(max_n=100))
    @example(path(100))
    @settings(max_examples=60, deadline=None)
    def test_profile_matches_oracle_and_networkx(self, g):
        # up to 100 vertices, so adjacency and reach masks pass 64 bits
        p = corpus.profile_of(g)
        assert p == index_vector(g)
        ng = nx.Graph(list(g.edges()))
        ng.add_nodes_from(range(g.n))
        assert p.w == nx.wiener_index(ng)
        assert p.diameter == nx.diameter(ng)
        assert p.radius == nx.radius(ng)
        assert p.k == len(nx.periphery(ng))

    def test_disconnected_is_none(self):
        assert corpus.profile_of(build_graph(4, [(0, 1), (2, 3)])) is None
        assert corpus.layered_profile(build_graph(4, [(0, 1), (2, 3)])) is None

    def test_single_vertex(self):
        p = corpus.profile_of(build_graph(1, []))
        assert p.n == 1 and p.diameter == 0 and p.k == 1
        assert corpus.layered_profile(build_graph(1, [])) == (p, [[1]])
        assert corpus.periphery_mask([[1]]) == 1
        assert corpus.distance_sums([[1]], 1) == [0]

    def test_complement_profile(self, rng):
        # against the definitions on networkx's complement; None exactly
        # when that complement is disconnected
        seen = set()
        for _ in range(60):
            g = random_connected(rng, rng.randrange(2, 12))
            comp = nx.complement(to_nx(g))
            p = corpus.complement_profile(g.n, g.masks)
            seen.add(p is None)
            if nx.is_connected(comp):
                assert p == index_vector(build_graph(g.n, comp.edges()))
                assert p.w == nx.wiener_index(comp)
            else:
                assert p is None
        assert seen == {True, False}

    def test_path4_complement_is_path(self):
        # P_4 = 0-1-2-3 has the complement 2-0-3-1, again a path
        assert corpus.complement_profile(4, path(4).masks) == corpus.profile_of(path(4))

    def test_large_diameter_gives_small_complement_diameter(self):
        for n in (5, 6, 7, 9):
            p = corpus.complement_profile(n, path(n).masks)  # diameter n-1 >= 4
            assert p is not None and p.diameter <= 2

    def test_complement_tree_pww_matches_profile(self):
        # every free tree on 2..10 vertices; None exactly when the
        # complement is disconnected
        for g in corpus.all_free_trees(2, 10):
            comp = nx.complement(to_nx(g))
            want = (index_vector(build_graph(g.n, comp.edges())).pww
                    if nx.is_connected(comp) else None)
            assert complement_tree_pww(as_tree(g)) == want


def _check_layers(g):
    """The layer view of g against the BFS oracle and networkx: every ball,
    the periphery, and every vertex's distance sum to the periphery."""
    p, balls = corpus.layered_profile(g)
    dm = distance_matrix(g)
    ng = nx.Graph(list(g.edges()))
    ng.add_nodes_from(range(g.n))
    nx_dist = dict(nx.all_pairs_shortest_path_length(ng))
    assert [list(row) for row in dm.dist] == [[nx_dist[v][u] for u in range(g.n)]
                                              for v in range(g.n)]
    assert p == index_vector(g, dm)
    assert len(balls) == dm.diameter + 1
    for t, layer in enumerate(balls):
        assert layer == [sum(1 << u for u, d in enumerate(row) if d <= t) for row in dm.dist]
    peri = corpus.periphery_mask(balls)
    assert peri == sum(1 << v for v in nx.periphery(ng)) == sum(1 << v for v in dm.periphery)
    assert corpus.distance_sums(balls, peri) == [peripheral_distance_number(dm, v)
                                                 for v in range(g.n)]


class TestReachLayers:
    """The layer view the audit reads, up to 100 vertices so that the
    masks pass 64 bits."""

    @given(connected_graphs(max_n=100))
    @example(path(100))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, g):
        _check_layers(g)

    def test_random_trees(self, rng):
        for _ in range(30):
            _check_layers(random_tree(rng.randrange(2, 101), seed=rng.randrange(1 << 30)))

    def test_products(self, rng):
        for _ in range(20):
            g = random_connected(rng, rng.randrange(2, 11), extra=0.1)
            h = random_connected(rng, rng.randrange(2, 100 // g.n + 1), extra=0.1)
            _check_layers(cartesian_product(g, h))


def _gnp(rng, n, p):
    """G(n, p), connected or not."""
    return build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


def _complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~m & ~(1 << v) for v, m in enumerate(g.masks)))


def _disjoint(*parts):
    edges, base = [], 0
    for g in parts:
        edges += [(base + i, base + j) for i, j in g.edges()]
        base += g.n
    return build_graph(base, edges)


class TestDenseLayers:
    """The engine on both sides of its density rule, closed neighbourhoods
    holding at least a quarter of the ordered pairs (4(n + 2m) >= n^2),
    against the BFS matrix: every ball, the radius, the whole profile, and
    None exactly when the graph is disconnected."""

    @staticmethod
    def _dense(g):
        return 4 * (g.n + 2 * g.m) >= g.n ** 2

    @staticmethod
    def _at_threshold(rng, n):
        """A connected n-vertex graph with 4(n + 2m) = n^2, n a multiple of
        4 from 12, and the same graph less one edge that is not a bridge."""
        edges = list(random_tree(n, seed=rng.randrange(1 << 30)).edges())
        extra = sorted(set(itertools.combinations(range(n), 2)) - set(edges))
        rng.shuffle(extra)
        edges += extra[:n * n // 8 - n // 2 - (n - 1)]
        at, below = build_graph(n, edges), build_graph(n, edges[:-1])
        assert 4 * (n + 2 * at.m) == n * n and below.m == at.m - 1
        return at, below

    def _inputs(self, rng):
        yield build_graph(1, [])
        yield build_graph(2, [(0, 1)])
        yield build_graph(2, [])
        # at the threshold and one edge below it: C_12 and P_12, then
        # random graphs with a spanning tree
        assert self._dense(cycle(12)) and not self._dense(path(12))
        yield cycle(12)
        yield path(12)
        for n in (12, 16, 20, 24, 40):
            yield from self._at_threshold(rng, n)
        for _ in range(40):
            yield _gnp(rng, rng.randrange(2, 70), rng.uniform(0.5, 1.0))
        for _ in range(20):
            yield _complement(random_tree(rng.randrange(4, 70), seed=rng.randrange(1 << 30)))
        for n in (4, 8, 10, 16, 36, 66):  # K_n minus a perfect matching
            yield _complement(build_graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))
        yield _disjoint(complete(5), complete(5))
        yield _disjoint(complete(12), complete(12))
        for n in (5, 8, 20, 40):  # K_n and an isolated vertex
            yield _disjoint(complete(n), complete(1))
        # sparse controls
        for _ in range(20):
            yield random_tree(rng.randrange(2, 70), seed=rng.randrange(1 << 30))
            yield _gnp(rng, rng.randrange(2, 70), rng.uniform(0.02, 0.2))
        yield path(70)
        yield cycle(69)

    def test_both_sides_match_the_oracle(self, rng, monkeypatch):
        edge_passes = []
        real = corpus._edge_list
        monkeypatch.setattr(corpus, "_edge_list",
                            lambda masks: edge_passes.append(1) or real(masks))
        sides = Counter()
        for g in self._inputs(rng):
            dense = self._dense(g)
            edge_passes.clear()
            reach = corpus.layered_profile(g)
            try:
                dm = distance_matrix(g)
            except NotConnectedError:
                assert reach is None
                sides[dense, "disconnected"] += 1
                continue
            p, balls = reach
            # index_vector needs two vertices: K_1's profile is spelled out
            assert p == (index_vector(g, dm) if g.n > 1 else
                         Profile(1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0))
            assert p.radius == dm.radius
            assert balls == [[sum(1 << u for u, d in enumerate(row) if d <= t) for row in dm.dist]
                             for t in range(dm.diameter + 1)]
            if dm.diameter >= 2:  # a layer past the closed neighbourhoods
                assert bool(edge_passes) != dense
                sides[dense, "layered"] += 1
        # both sides build later layers, and both meet disconnected graphs
        assert min(sides[dense, kind] for dense in (True, False)
                   for kind in ("layered", "disconnected")) >= 3, sides

class TestEnumeration:
    def test_labeled_connected_counts(self):
        for n in range(2, 7):
            assert sum(1 for _ in labeled_connected(n)) == LABELED_CONNECTED[n]

    def test_counts_cross_checked_by_union_find(self):
        # independent connectivity test over all edge subsets
        for n in range(2, 6):
            pairs = graph6_pairs(n)
            count = 0
            for mask in range(1 << len(pairs)):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                mm = mask
                while mm:
                    low = mm & -mm
                    i, j = pairs[low.bit_length() - 1]
                    parent[find(i)] = find(j)
                    mm ^= low
                if len({find(v) for v in range(n)}) == 1:
                    count += 1
            assert count == LABELED_CONNECTED[n]

    def test_mask_graph_round_trip(self, rng):
        # the edge mask is the data bits of the graph's graph6 record
        for _ in range(50):
            g = random_connected(rng, rng.randrange(2, 10))
            mask = nx_mask(g)
            assert corpus.g6_order_key(g) == mask
            adj = corpus.mask_adjacency(g.n, mask)
            assert Graph(g.n, adj) == g
            ng = to_nx(g)
            assert adj == tuple(sum(1 << u for u in ng[v]) for v in range(g.n))

    def test_g6_order_key_matches_string_order(self, rng):
        n = 6
        nbits = n * (n - 1) // 2
        masks = [rng.randrange(1 << nbits) for _ in range(80)]
        graphs = [Graph(n, corpus.mask_adjacency(n, m)) for m in masks]
        by_string = sorted(graphs, key=nx_graph6)
        assert sorted(graphs, key=corpus.g6_order_key) == by_string
        assert [Graph(n, corpus.mask_adjacency(n, m)) for m in sorted(masks)] == by_string


def _brute_orders(n, adj):
    """Oracle: (smallest edge mask over all n! labelings, the set of vertex
    orders that reach it); order[p] is the vertex labeled p.  A mask is the
    labeled graph's graph6 data bits, pair 0 highest."""
    edges = [(i, j) for j in range(n) for i in range(j) if adj[i] >> j & 1]
    best, orders = None, set()
    for order in itertools.permutations(range(n)):
        label = {v: p for p, v in enumerate(order)}
        labeled = {tuple(sorted((label[i], label[j]))) for i, j in edges}
        key = int("".join("1" if p in labeled else "0" for p in graph6_pairs(n)), 2)
        if best is None or key < best:
            best, orders = key, set()
        if key == best:
            orders.add(order)
    return best, orders


def _brute_automorphisms(n, adj):
    """Oracle: every permutation sigma of range(n) (sigma[v] is the image
    of v) that maps the graph with adjacency bitmasks `adj` onto itself."""
    edges = {(i, j) for j in range(n) for i in range(n) if adj[i] >> j & 1}
    return {sigma for sigma in itertools.permutations(range(n))
            if all((sigma[i], sigma[j]) in edges for i, j in edges)}


def _coset(n, orders, twins):
    """The whole coset of minimizing orders that `canonical_form` gives in
    compact form: its automorphism group, expanded, applied to its first order."""
    return {tuple(sigma[v] for v in orders[0])
            for sigma in corpus._automorphisms(n, (orders, twins))}


def _connected_without(n, adj, v):
    seen, stack = set(), [next(u for u in range(n) if u != v)]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(w for w in range(n) if adj[u] >> w & 1 and w != v)
    return len(seen) == n - 1


def _child(parent_rows, nbrs):
    """The rows of a parent with a new last vertex joined to `nbrs`."""
    new = len(parent_rows)
    return [row | (nbrs >> u & 1) << new for u, row in enumerate(parent_rows)] + [nbrs]


def _invariant(g):
    """Each vertex's degree, sorted neighbour degrees and triangle count,
    as a multiset: equal on isomorphic graphs."""
    tri = nx.triangles(g)
    return tuple(sorted((g.degree(v), tuple(sorted(g.degree(u) for u in g[v])), tri[v])
                        for v in g))


def _relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestIsomorphismReduction:
    def test_counts(self):
        level = corpus.class_levels()
        for n, expect in ISO_CONNECTED.items():
            assert len(level(n)) == expect

    def test_orbit_sums_are_labeled_counts(self):
        level = corpus.class_levels()
        for n, expect in LABELED_CONNECTED.items():
            assert sum(w for w, *_ in level(n)) == expect

    def test_weights_by_size_are_labeled_counts(self):
        # an independent count: c(n, m) labeled connected graphs of n
        # vertices and m edges are all C(C(n,2), m) edge sets less those
        # whose vertex 1 lies in a component of k < n vertices
        c = {1: {0: 1}}
        for n in range(2, 8):
            pairs = comb(n, 2)
            c[n] = {m: comb(pairs, m) - sum(
                comb(n - 1, k - 1) * ckj * comb(comb(n - k, 2), m - j)
                for k in range(1, n) for j, ckj in c[k].items() if j <= m)
                for m in range(pairs + 1)}
        level = corpus.class_levels()
        for n in range(2, 8):
            by_size = Counter()
            for weight, prof, _, _ in level(n):
                by_size[prof.m] += weight
            assert by_size == {m: count for m, count in c[n].items() if count}, n

    def test_classes_are_distinct(self):
        six = corpus.class_levels()(6)
        assert len({corpus.canonical_form(6, rows)[0] for _, _, rows, _ in six}) == len(six)

    def test_classes_are_canonical_with_profiles(self):
        level = corpus.class_levels()
        for n in range(2, 7):
            for weight, prof, rows, _ in level(n):
                key = corpus.canonical_form(n, rows)[0]
                assert key == _brute_orders(n, rows)[0]
                assert corpus.canonical_mask(n, key) == key
                assert prof == corpus.profile_of(Graph(n, corpus.mask_adjacency(n, key)))
                assert prof == corpus.profile_of(Graph(n, rows))
                assert weight == len(corpus.labelings(n, key))

    def test_labelings_are_the_relabeled_masks(self):
        # the canonical mask is the smallest of its class's labeled masks
        level = corpus.class_levels()
        for n in range(2, 6):
            for _, _, rows, _ in level(n):
                mask = corpus.canonical_form(n, rows)[0]
                g = Graph(n, corpus.mask_adjacency(n, mask))
                want = {nx_mask(_relabel(g, perm)) for perm in itertools.permutations(range(n))}
                assert corpus.labelings(n, mask) == want
                assert min(want) == mask

    def test_parents_split_the_classes(self):
        level = corpus.class_levels()
        children = [corpus.canonical_form(6, rows)[0] for parent in level(5)
                    for _, _, rows, _ in corpus.iter_connected_profiles(6, [parent])]
        assert children == [corpus.canonical_form(6, rows)[0] for _, _, rows, _ in level(6)]

    def test_class_levels_are_the_levels(self, profile_calls):
        # each order is grown once, from the order below, when first asked
        # for; a second walk grows its own levels
        level = corpus.class_levels()
        assert level(1) == [(1, corpus.profile_from_masks(1, [0]), (0,), ([(0,)], []))]
        assert profile_calls == []
        six = level(6)
        assert profile_calls == [2, 3, 4, 5, 6]
        for n in range(2, 7):
            assert level(n) == list(corpus.iter_connected_profiles(n, level(n - 1)))
        assert level(6) is six
        other = corpus.class_levels()(6)
        assert other == six and other is not six

    @pytest.mark.parametrize("n", [0, corpus.MAX_N + 1])
    def test_level_outside_the_ceiling(self, profile_calls, n):
        level = corpus.class_levels()
        with pytest.raises(InvalidParameterError, match=f"got {n}"):
            level(n)
        assert profile_calls == []

    def test_canonical_form_matches_brute_force(self):
        # every labeled connected graph on up to 5 vertices: the key, and the
        # minimizing orders, whose number is |Aut(G)|, once the twin classes
        # expand them
        for n in range(2, 6):
            for mask, _ in labeled_connected(n):
                adj = corpus.mask_adjacency(n, mask)
                key, orders, twins = corpus.canonical_form(n, adj)
                assert (key, _coset(n, orders, twins)) == _brute_orders(n, adj)
                assert len(orders) == len(set(orders))
                assert corpus.canonical_mask(n, mask) == key

    def test_children_are_the_canonical_augmentations(self):
        # a child (parent + vertex n-1 joined to nbrs) is kept exactly when
        # nbrs is the smallest set of its orbit under Aut(parent) and vertex
        # n-1 is in the orbit of m(G): of the non-cut vertices with the
        # largest (degree, sorted neighbour degrees), the one that sits last
        # in the canonical order
        level = corpus.class_levels()
        for n in range(3, 7):
            for parent in level(n - 1):
                parent_adj = parent[2]
                autos = _brute_automorphisms(n - 1, parent_adj)
                assert set(corpus._automorphisms(n - 1, parent[3])) == autos
                want = []
                for nbrs in range(1, 1 << (n - 1)):
                    image = {sum(1 << sigma[u] for u in range(n - 1) if nbrs >> u & 1)
                             for sigma in autos}
                    if min(image) != nbrs:
                        continue
                    adj = [*parent_adj, nbrs]
                    for u in range(n - 1):
                        if nbrs >> u & 1:
                            adj[u] |= 1 << (n - 1)
                    key, orders = _brute_orders(n, adj)
                    deg = [bin(a).count("1") for a in adj]
                    inv = {v: (deg[v], sorted(deg[u] for u in range(n) if adj[v] >> u & 1))
                           for v in range(n) if _connected_without(n, adj, v)}
                    tied = [v for v in inv if inv[v] == max(inv.values())]
                    first = min(orders)
                    pos = max(first.index(v) for v in tied)
                    if n - 1 in {order[pos] for order in orders}:
                        want.append((key, factorial(n) // len(orders)))
                got = [(corpus.canonical_form(n, rows)[0], weight)
                       for weight, _, rows, _ in corpus.iter_connected_profiles(n, [parent])]
                assert got == want
                assert len(set(got)) == len(got)

    def test_orbit_weights_are_automorphism_counts(self):
        # a child kept without a search holds members of the stabiliser of
        # its neighbour set, orders of n - 1 entries handed down from the
        # parent: its weight comes from their count, and must be n!/|Aut(G)|
        # all the same; a searched tie holds its search's orders and twins
        level = corpus.class_levels()
        settled = 0
        for n in range(2, 8):
            for weight, _, rows, group in corpus.iter_connected_profiles(n, level(n - 1)):
                _, orders, twins = corpus.canonical_form(n, rows)
                assert weight == factorial(n) // len(_coset(n, orders, twins))
                if len(group[0][0]) == n - 1:
                    settled += 1
                else:
                    assert group == (orders, twins)
        assert settled > sum(ISO_CONNECTED.values()) // 2

    def test_twin_tie_children_match_the_search(self):
        # a child whose ties are all twins of n-1 is kept with no search,
        # its group the twin class times the stabiliser members that fix
        # it, orders of n - 1 entries handed down from the parent: the same
        # automorphisms and weight as the search gives
        level = corpus.class_levels()
        settled = Counter()
        for n in range(3, 9):
            for weight, _, rows, group in level(n):
                if len(group[0][0]) == n - 1 and group[1]:
                    assert group[1] == [tuple(v for v in range(n) if rows[v] == rows[n - 1]
                                              or rows[v] | 1 << v == rows[n - 1] | 1 << n - 1)]
                    _, orders, twins = corpus.canonical_form(n, rows)
                    want = set(corpus._automorphisms(n, (orders, twins)))
                    autos = corpus._automorphisms(n, group)
                    assert len(autos) == len(want) and set(autos) == want
                    assert weight == factorial(n) // len(want)
                    settled[n] += 1
        # two in five of the ties at order 8 (1,738 of 4,424)
        assert settled == {3: 2, 4: 4, 5: 13, 6: 46, 7: 236, 8: 1738}

    def test_independence_number_matches_brute_force(self, rng):
        for _ in range(300):
            n = rng.randrange(1, 9)
            adj = corpus.mask_adjacency(n, rng.randrange(1 << (n * (n - 1) // 2)))
            want = max(k for k in range(n + 1) for sub in itertools.combinations(range(n), k)
                       if all(not adj[u] >> v & 1 for u, v in itertools.combinations(sub, 2)))
            assert corpus.independence_number(adj) == want

    def test_growth_ignores_the_parents_labeling(self, rng):
        # a parent entry in any labeling, its automorphisms relabeled with
        # it, grows the same classes with the same weights
        level = corpus.class_levels()
        relabeled = []
        for weight, p, rows, group in level(5):
            perm = list(range(5))
            rng.shuffle(perm)
            new_rows = [0] * 5
            for v in range(5):
                new_rows[perm[v]] = sum(1 << perm[u] for u in range(5) if rows[v] >> u & 1)
            new_autos = []
            for sigma in corpus._automorphisms(5, group):
                tau = [0] * 5
                for v in range(5):
                    tau[perm[v]] = perm[sigma[v]]
                new_autos.append(tuple(tau))
            relabeled.append((weight, p, tuple(new_rows), (new_autos, [])))
        assert relabeled != level(5)

        def keys(parents):
            grown = corpus.iter_connected_profiles(6, parents)
            return sorted((corpus.canonical_form(6, rows)[0], weight)
                          for weight, _, rows, _ in grown)

        assert keys(relabeled) == keys(level(5))

    def test_level_automorphisms_are_the_automorphism_groups(self):
        # every entry's automorphisms, handed on from level to level, map
        # its rows onto themselves, and there are |Aut(G)| of them
        level = corpus.class_levels()
        for n in range(1, 8):
            for weight, _, rows, group in level(n):
                autos = corpus._automorphisms(n, group)
                _, orders, twins = corpus.canonical_form(n, rows)
                assert len(set(autos)) == len(autos) == len(_coset(n, orders, twins))
                assert weight == factorial(n) // len(autos)
                for sigma in autos:
                    assert sorted(sigma) == list(range(n))
                    assert all(rows[sigma[v]] == sum(1 << sigma[u] for u in range(n)
                                                     if rows[v] >> u & 1) for v in range(n))

    def test_matches_networkx_atlas(self):
        # independent oracle: every connected graph of networkx's atlas (one
        # per isomorphism class, up to 7 vertices) is isomorphic to exactly
        # one class, every class is hit, and each class's weight is
        # n!/|Aut| with |Aut| counted by networkx's matcher
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() >= 2 and nx.is_connected(g)]
        level = corpus.class_levels()
        for n in range(2, 8):
            buckets = {}
            for weight, prof, rows, _ in level(n):
                g = to_nx(Graph(n, rows))
                buckets.setdefault(_invariant(g), []).append([g, weight, prof, 0])
            for h in (h for h in atlas if h.number_of_nodes() == n):
                hits = [c for c in buckets.get(_invariant(h), []) if nx.is_isomorphic(c[0], h)]
                assert len(hits) == 1
                _, weight, prof, _ = cls = hits[0]
                cls[3] += 1
                aut = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
                assert weight == factorial(n) // aut
                assert prof.w == nx.wiener_index(h)
            assert all(c[3] == 1 for bucket in buckets.values() for c in bucket)

    def test_canonical_mask_invariant_under_relabeling(self, rng):
        g = random_connected(rng, 5)
        base = corpus.canonical_mask(5, corpus.g6_order_key(g))
        for perm in itertools.islice(itertools.permutations(range(5)), 20):
            h = _relabel(g, perm)
            assert corpus.canonical_mask(5, corpus.g6_order_key(h)) == base

    @given(connected_graphs(min_n=6, max_n=8), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_canonical_mask_invariant_property(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = _relabel(g, perm)
        assert (corpus.canonical_mask(g.n, corpus.g6_order_key(h))
                == corpus.canonical_mask(g.n, corpus.g6_order_key(g)))


def _unpruned_canonical_form(n, adj):
    """Oracle: the column search with no twin pruning, which keeps every
    minimizing order, the whole coset of Aut(G): (mask, orders)."""
    non = [~row for row in adj]
    states = [((), (1 << n) - 1)]
    mask = 0
    for j in range(n):
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


def _deletion_rivals(n, adj):
    """Oracle: the cheap half of the deletion rule as
    test_children_are_the_canonical_augmentations spells it out.  None when
    a non-cut vertex other than n-1 has a larger (degree, sorted neighbour
    degrees) than n-1, else those whose invariant ties with it."""
    deg = [bin(a).count("1") for a in adj]
    inv = {v: (deg[v], sorted(deg[u] for u in range(n) if adj[v] >> u & 1))
           for v in range(n - 1) if _connected_without(n, adj, v)}
    top = (deg[n - 1], sorted(deg[u] for u in range(n) if adj[n - 1] >> u & 1))
    if any(rival > top for rival in inv.values()):
        return None
    return [v for v in inv if inv[v] == top]


@pytest.fixture(scope="module")
def searched_classes():
    """(n, rows) of every class up to n = 7 and of 2,000 classes of n = 8
    drawn with a fixed seed."""
    level = corpus.class_levels()
    small = [(n, rows) for n in range(1, 8) for _, _, rows, _ in level(n)]
    return small + [(8, entry[2]) for entry in random.Random(8).sample(level(8), 2000)]


class TestTwinPrunedSearch:
    """`canonical_form` branches on one vertex per twin class: against the
    unpruned search it gives the same mask, and its compact coset expands
    to the same orders, orbits and |Aut(G)|."""

    def test_matches_the_unpruned_search(self, searched_classes):
        for n, rows in searched_classes:
            key, orders, twins = corpus.canonical_form(n, rows)
            want_key, want_orders = _unpruned_canonical_form(n, rows)
            assert key == want_key
            assert orders[0] == want_orders[0]  # the canonical order
            assert _coset(n, orders, twins) == set(want_orders)
            assert len(set(orders)) == len(orders)
            size = len(orders)
            for cls in twins:
                size *= factorial(len(cls))
            assert size == len(want_orders)  # |Aut(G)|
            for p in range(n):
                found = {order[p] for order in orders}
                orbit = found.union(*(cls for cls in twins if found.intersection(cls)))
                assert orbit == {order[p] for order in want_orders}

    def test_twin_classes(self, searched_classes):
        # the classes are exactly the vertices with equal open or closed
        # neighbourhoods, and swapping two of them is an automorphism
        for n, rows in searched_classes:
            twins = corpus.canonical_form(n, rows)[2]
            class_of = {v: cls for cls in twins for v in cls}
            assert sum(map(len, twins)) == len(class_of)
            for u, v in itertools.combinations(range(n), 2):
                same = rows[u] == rows[v] or rows[u] | 1 << u == rows[v] | 1 << v
                assert same == (v in class_of.get(u, ()))
                if same:
                    tau = list(range(n))
                    tau[u], tau[v] = v, u
                    assert all(rows[tau[x]] == sum(1 << tau[y] for y in range(n)
                                                   if rows[x] >> y & 1) for x in range(n))

    def test_relabelings_give_one_mask(self, searched_classes):
        rng = random.Random(11)
        for n, rows in searched_classes:
            key = corpus.canonical_form(n, rows)[0]
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                new = [0] * n
                for v in range(n):
                    new[perm[v]] = sum(1 << perm[u] for u in range(n) if rows[v] >> u & 1)
                assert corpus.canonical_form(n, new)[0] == key


class TestDeletionRule:
    def test_every_grown_child(self):
        level = corpus.class_levels()
        children = Counter()
        for n in range(2, 8):
            for parent in level(n - 1):
                for nbrs, _ in corpus._orbit_minimal_sets(n - 1, parent[3]):
                    adj = [*parent[2], nbrs]
                    for u in range(n - 1):
                        if nbrs >> u & 1:
                            adj[u] |= 1 << (n - 1)
                    cuts = corpus._cut_table(n - 1, adj)
                    got = corpus._rival_deletion_vertices(n, adj, cuts)
                    assert got == _deletion_rivals(n, adj)
                    children[n] += 1
        # every call that growth up to n = 7 makes
        assert children == {2: 1, 3: 2, 4: 8, 5: 44, 6: 333, 7: 3771}

    def test_random_connected_graphs(self):
        rng = random.Random(9)
        outcomes = Counter()
        for _ in range(2000):
            g = random_connected(rng, rng.randrange(2, 10), extra=rng.random())
            adj = list(g.masks)
            want = _deletion_rivals(g.n, adj)
            cuts = corpus._cut_table(g.n - 1, adj)
            assert corpus._rival_deletion_vertices(g.n, adj, cuts) == want
            outcomes["none" if want is None else "ties" if want else "alone"] += 1
        # None 951 times, ties 994, n-1 alone 55
        assert len(outcomes) == 3 and min(outcomes.values()) >= 50


    def test_degree_bound_skips_only_rejected_sets(self):
        # with D the largest degree of a non-cut vertex of the parent, a
        # set S with 2 <= |S| < D is rejected: that vertex stays non-cut in
        # the child, with a larger degree than n-1.  So is a set with
        # 2 <= |S| = D that holds a non-cut vertex of degree D, which gets
        # degree D + 1.  The bounded listing is the full one less exactly
        # those sets
        level = corpus.class_levels()
        skipped = {n: Counter() for n in range(3, 8)}
        for n in range(3, 8):
            for _, _, rows, group in level(n - 1):
                degree = {v: rows[v].bit_count() for v in range(n - 1)
                          if _connected_without(n - 1, rows, v)}
                bound = max(degree.values())
                top = sum(1 << v for v, d in degree.items() if d == bound)
                every = corpus._orbit_minimal_sets(n - 1, group)
                below = [item for item in every if 1 < item[0].bit_count() < bound]
                at = [item for item in every
                      if 1 < item[0].bit_count() == bound and item[0] & top]
                assert corpus._orbit_minimal_sets(n - 1, group, bound) == [
                    item for item in every if item not in below]
                assert corpus._orbit_minimal_sets(n - 1, group, bound, top) == [
                    item for item in every if item not in below + at]
                for nbrs, _ in below + at:
                    assert _deletion_rivals(n, _child(rows, nbrs)) is None
                skipped[n] += Counter(below=len(below), at=len(at))
        # of the 3,771 sets listed for order 7, 1,364 below D and 619 at it
        assert skipped == {3: Counter(), 4: Counter(at=1), 5: Counter(below=4, at=8),
                           6: Counter(below=74, at=57), 7: Counter(below=1364, at=619)}

    def test_cut_table_matches_connected_on(self):
        # the components of a parent less v are a partition of the rest
        # into connected, closed parts; v is a cut vertex of the parent when
        # there are two or more, and of a child when n-1 misses one
        rng = random.Random(12)
        for _ in range(500):
            g = random_connected(rng, rng.randrange(1, 10), extra=rng.random() * 0.5)
            k, rows = g.n, g.masks
            for v, parts in enumerate(corpus._cut_table(k, rows)):
                left = ((1 << k) - 1) ^ 1 << v
                assert sum(parts) == left
                assert sum(part.bit_count() for part in parts) == left.bit_count()
                for part in parts:
                    assert _connected_on(rows, part)
                    assert all(rows[u] & left & ~part == 0 for u in _bits(part))
                assert (len(parts) < 2) == _connected_on(rows, left)
                for nbrs in rng.sample(range(1, 1 << k), min(6, (1 << k) - 1)):
                    assert (all(part & nbrs for part in parts)
                            == _connected_on(_child(rows, nbrs), ((1 << k + 1) - 1) ^ 1 << v))


def _part_counts(classes, depth):
    """A job of the class-count check: per order of one part of the sweep,
    (order, class count, labeled graphs per edge count)."""
    out = []
    for n, grown in corpus._grown_levels(classes, depth):
        count, by_size = 0, Counter()
        for weight, prof, _, _ in grown:
            count += 1
            by_size[prof.m] += weight
        out.append((n, count, by_size))
    return out


class TestClassParts:
    """The one split of a sweep into jobs covers every class once."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_parts_partition_the_walk(self, monkeypatch, threads):
        # summed over the parts, at one worker and on the pool, each order's
        # class count and weights per edge count are those of the walk
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        level = corpus.class_levels()
        want = {}
        for n in range(2, 8):
            by_size = Counter()
            for weight, prof, _, _ in level(n):
                by_size[prof.m] += weight
            want[n] = (len(level(n)), by_size)
            assert want[n][0] == ISO_CONNECTED[n]
            assert sum(by_size.values()) == LABELED_CONNECTED[n]
        for max_n in range(2, 8):
            got = {n: (0, Counter()) for n in range(2, max_n + 1)}
            jobs = ((_part_counts, part) for part in corpus._class_parts(max_n, level))
            with closing(corpus.run_jobs(jobs, threads)) as parts:
                for part in parts:
                    for n, count, by_size in part:
                        got[n] = (got[n][0] + count, got[n][1] + by_size)
            assert got == {n: want[n] for n in range(2, max_n + 1)}, max_n


class TestNoGroupAtTheTopOrder:
    """Only a class that grows children has its group expanded."""

    @pytest.fixture
    def expanded(self, monkeypatch):
        calls = []
        real = corpus._automorphisms

        def spy(n, group):
            calls.append((n, group))
            return real(n, group)

        monkeypatch.setattr(corpus, "_automorphisms", spy)
        return calls

    def test_value_scan(self, expanded):
        corpus.scan_values("pww", 7, threads=1)
        assert Counter(n for n, _ in expanded) == {1: 1, **{n: ISO_CONNECTED[n]
                                                            for n in range(2, 7)}}

    def test_audit_job(self, expanded):
        from periwiener import audit

        level = corpus.class_levels()
        ids = [cid for cid, row in audit._CLAIMS.items() if row.stream == "corpus"]
        for parent in level(5)[::4]:
            children = list(corpus.iter_connected_profiles(6, (parent,)))
            del expanded[:]
            audit._corpus_chunk(ids, [parent], 2)
            # its own group, then each order-6 child's, none of order 7
            assert expanded == [(5, parent[3])] + [(6, child[3]) for child in children]


class TestFreeTrees:
    def test_counts(self):
        for n, expect in FREE_TREES.items():
            assert len(list(corpus.all_free_trees(n, n))) == expect

    def test_matches_networkx(self):
        for n in range(2, 10):
            ours = {corpus.tree_certificate(t) for t in corpus.all_free_trees(n, n)}
            theirs = set()
            for nt in nx.nonisomorphic_trees(n):
                g = build_graph(n, list(nt.edges()))
                theirs.add(corpus.tree_certificate(g))
            assert ours == theirs

    def test_certificate_separates_path_and_star(self):
        assert corpus.tree_certificate(path(4)) != corpus.tree_certificate(star(3))

    def test_certificate_label_invariant(self):
        a = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        b = build_graph(4, [(2, 0), (0, 3), (3, 1)])  # same path relabeled
        assert corpus.tree_certificate(a) == corpus.tree_certificate(b)

    def test_walk_pinned(self):
        # the certificate and the labeled representative of every free tree
        # up to n = 12: a change to the walk or to the certificate shows here
        text = "\n".join(corpus.tree_certificate(t) + " " + repr(t.masks)
                         for n in range(1, 13) for t in corpus.all_free_trees(n, n))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "77031ac7839851ca6d1f98766c9b0ce9a251d294f2c354ee812f728f87cb9715")

    def test_walk_grows_each_order_once(self, monkeypatch):
        certified = Counter()
        certificate = corpus.tree_certificate

        def counting(g):
            certified[g.n] += 1
            return certificate(g)

        monkeypatch.setattr(corpus, "tree_certificate", counting)
        trees = list(corpus.all_free_trees(1, 10))
        assert [t.n for t in trees] == sorted(t.n for t in trees)
        assert len(trees) == sum(FREE_TREES.values())
        # order n is grown once: one candidate per vertex of each (n-1)-vertex tree
        assert certified == {1: 1, **{n: (n - 1) * FREE_TREES[n - 1] for n in range(2, 11)}}

    def test_centers_are_min_eccentricity(self):
        # leaf peeling against all-pairs eccentricities: every free tree on
        # 1..12 vertices, then random trees up to 200 vertices
        rng = random.Random(97)
        randoms = [random_tree(rng.randrange(2, 201), seed=rng.randrange(1 << 30))
                   for _ in range(50)]
        for t in itertools.chain(corpus.all_free_trees(1, 12), randoms):
            dm = distance_matrix(t)
            assert corpus._centers(t) == [v for v in range(t.n) if dm.ecc[v] == dm.radius]

    def test_all_outputs_are_trees(self):
        from periwiener.graphs import is_connected

        for t in corpus.all_free_trees(8, 8):
            assert t.m == t.n - 1 and is_connected(t)


class TestScanValues:
    def test_pw_small(self):
        attained = corpus.scan_values("pw", 4)
        assert attained[1] == (2, "A_")
        assert attained[2][0] == 3
        assert attained[3][0] == 3
        # every witness re-verifies
        from periwiener.graphio import parse_graph6

        for val, (n, g6) in attained.items():
            g = parse_graph6(g6)
            assert g.n == n
            assert index_vector(g).pw == val

    def test_pww_gaps_at_small_scale(self):
        attained = corpus.scan_values("pww", 5)
        gaps = corpus.value_gaps(attained)
        assert 2 in gaps and 5 in gaps

    def test_unknown_index(self):
        with pytest.raises(InvalidParameterError):
            corpus.scan_values("zz", 4)

    @pytest.mark.parametrize("max_n", [1, corpus.MAX_N + 1])
    def test_ceiling_checked_before_any_job(self, monkeypatch, max_n):
        # MAX_N + 1 is past the ceiling: the sweep refuses it before any job
        # runs or any pool forks
        def no_job(*args):
            raise AssertionError("a job or pool was started")

        monkeypatch.setattr(corpus, "_scan_chunk", no_job)
        monkeypatch.setattr(corpus, "iter_connected_profiles", no_job)
        monkeypatch.setattr(corpus, "get_context", no_job)
        with pytest.raises(InvalidParameterError, match=f"got {max_n}"):
            corpus.scan_values("pww", max_n)

    def test_negative_threads_refused_before_any_job(self, monkeypatch):
        def no_job(*args):
            raise AssertionError("a job or pool was started")

        monkeypatch.setattr(corpus, "_scan_chunk", no_job)
        monkeypatch.setattr(corpus, "iter_connected_profiles", no_job)
        monkeypatch.setattr(corpus, "get_context", no_job)
        with pytest.raises(InvalidParameterError, match="threads must be >= 0, got -1"):
            corpus.scan_values("pww", 5, threads=-1)

    @pytest.mark.parametrize("field", ["diameter", "n", "pendant_count", "bogus"])
    def test_non_index_refused_before_any_job(self, monkeypatch, field):
        # a Profile field that is not one of the six indices is no index
        def no_job(*args):
            raise AssertionError("a job or pool was started")

        monkeypatch.setattr(corpus, "_scan_chunk", no_job)
        monkeypatch.setattr(corpus, "class_levels", no_job)
        monkeypatch.setattr(corpus, "get_context", no_job)
        with pytest.raises(InvalidParameterError, match=f"unknown index '{field}'"):
            corpus.scan_values(field, 4)

    @pytest.mark.parametrize("index", ["w", "ww", "pw", "pww", "tw", "tww"])
    def test_largest_alpha_holds_the_smallest_mask(self, index):
        # per value, the classes of the largest independence number at the
        # smallest order that attains it, folded over every part of the
        # sweep, hold the smallest canonical mask of that order's classes
        # of the value
        level = corpus.class_levels()
        field = corpus.Profile._fields.index(index)
        smallest = {}
        for max_n in range(2, 8):
            for _, p, rows, _ in level(max_n):
                key = (max_n, corpus.canonical_form(max_n, rows)[0])
                smallest[p[field]] = min(key, smallest.get(p[field], key))
            best = {}
            for part in corpus._class_parts(max_n, level):
                corpus._best_candidates(corpus._scan_chunk(index, *part).items(), best)
            got = {val: (n, min(corpus.canonical_form(n, rows)[0] for rows in cands))
                   for val, ((n, _), cands) in best.items()}
            assert got == smallest

    def test_alpha_only_where_it_can_rank(self, monkeypatch):
        # a job computes α only for a class whose value its table does not
        # hold at a smaller order: 489 of the 995 classes up to order 7
        calls = []
        real = corpus.independence_number
        monkeypatch.setattr(corpus, "independence_number",
                            lambda adj: calls.append(len(adj)) or real(adj))
        for part in corpus._class_parts(7, corpus.class_levels()):
            corpus._scan_chunk("pww", *part)
        assert len(calls) == 489

    def test_canonical_forms_pinned(self, monkeypatch):
        # one search per tie not settled as twins of the new vertex, and per
        # largest-α class of a value first attained at its order
        calls = []
        real = corpus.canonical_form

        def counting(n, adj):
            calls.append(n)
            return real(n, adj)

        monkeypatch.setattr(corpus, "canonical_form", counting)
        corpus.scan_values("pww", 7, threads=1)
        assert len(calls) == 319

    def test_each_lower_order_grown_once(self, profile_calls):
        # orders 2..4 come from one walk of the class levels, orders 5 and 6
        # from one job per class of order 4
        corpus.scan_values("pww", 6)
        assert profile_calls == [2, 3, 4] + [5, 6] * 6

    @pytest.mark.parametrize("max_n", range(3, 9))
    def test_parent_walk_stops_two_below_max_n(self, monkeypatch, profile_calls, max_n):
        # the calling process walks the levels to low = max(2, max_n - 2)
        # and makes one job per order below low and one per class of order
        # low; with two or more jobs the workers, which hold their own copy
        # of the spy, grow every larger class
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        walked, taken = [], []
        real = corpus.run_jobs

        def spy(jobs):
            for fn, args in jobs:
                taken.append(fn)
                yield fn, args
            walked.extend(profile_calls)

        monkeypatch.setattr(corpus, "run_jobs", lambda jobs, threads: real(spy(jobs), threads))
        corpus.scan_values("pww", max_n, threads=2)
        low = max(2, max_n - 2)
        assert walked == list(range(2, low + 1))
        assert taken == [corpus._scan_chunk] * (low - 2 + ISO_CONNECTED[low])
        if len(taken) > 1:
            assert profile_calls == walked


def _finish_after(i, delay):
    """A runner job: (i, the time it ends) after `delay` seconds."""
    time.sleep(delay)
    return i, time.monotonic()


class TestRunJobs:
    """The runner takes its jobs as workers come free and yields results in
    job order; every worker ends when its consumer stops."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(corpus.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("threads, most", [(1, 1), (2, 4)])
    def test_jobs_taken_as_workers_come_free(self, threads, most):
        # before the first result: the look-ahead that sizes the pool, and
        # then one more job for each worker that has finished one
        taken = []

        def jobs():
            for i in range(50):
                taken.append(i)
                yield _finish_after, (i, 0)

        with closing(corpus.run_jobs(jobs(), threads)) as results:
            assert next(results)[0] == 0
            assert len(taken) <= most
            assert [i for i, _ in results] == list(range(1, 50))
        assert len(taken) == 50

    def test_results_in_job_order_when_jobs_end_out_of_order(self):
        jobs = [(_finish_after, (0, 0.3))] + [(_finish_after, (i, 0)) for i in range(1, 6)]
        results = list(corpus.run_jobs(iter(jobs), 2))
        assert [i for i, _ in results] == list(range(6))
        assert max(end for _, end in results[1:]) < results[0][1]  # all ended before job 0

    def test_consumer_that_stops_leaves_no_worker(self):
        jobs = ((_finish_after, (i, 0)) for i in range(1000))
        with closing(corpus.run_jobs(jobs, 2)) as results:
            for i, _ in results:
                if i == 3:
                    break
        assert multiprocessing.active_children() == []

    def test_consumer_that_raises_leaves_no_worker(self):
        jobs = ((_finish_after, (i, 0)) for i in range(1000))
        with pytest.raises(ValueError) as caught, closing(corpus.run_jobs(jobs, 2)) as results:
            for i, _ in results:
                if i == 3:
                    raise ValueError(i)
        assert multiprocessing.active_children() == [], caught  # the frame is still held
