import random

import networkx as nx
import pytest
from hypothesis import given, settings

from conftest import connected_graphs, fig2_tree, floyd_warshall, random_connected, to_nx
from periwiener.errors import NotConnectedError, SelfLoopError, VertexRangeError
from periwiener.generators import complete, cycle, path
from periwiener.graphs import (
    Graph,
    _connected_on,
    _edge_list,
    build_graph,
    cartesian_product,
    distance_matrix,
    is_connected,
)


def test_edge_list_matches_pair_loop(rng):
    # the inline low-bit loop against the definition: every pair u < v
    # with bit v of masks[u], u ascending, then v
    for _ in range(300):
        n, density = rng.randrange(1, 70), rng.random()
        pairs = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
        masks = build_graph(n, pairs).masks
        want = [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1]
        assert _edge_list(masks) == want


class TestBuildGraph:
    def test_path_graph(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.masks == (0b010, 0b101, 0b010)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_cycle(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexRangeError):
            build_graph(3, [(0, 3)])
        with pytest.raises(VertexRangeError):
            build_graph(3, [(-1, 0)])

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_zero_vertices_rejected(self):
        with pytest.raises(VertexRangeError):
            build_graph(0, [])


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(path(3))

    def test_two_components(self):
        assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))

    def test_complete_connected(self):
        assert is_connected(complete(5))

    def test_single_vertex(self):
        assert is_connected(build_graph(1, []))

    def test_matches_networkx(self, rng):
        # G(n, p) over a range of p, so that both answers occur; then every
        # single vertex removed, which is what the deletion rule asks
        answers = set()
        for _ in range(300):
            n = rng.randrange(1, 13)
            p = rng.uniform(0.05, 0.6)
            g = build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            ng = to_nx(g)
            answers.add(nx.is_connected(ng))
            assert is_connected(g) == nx.is_connected(ng)
            for v in range(n):
                rest = ng.subgraph(u for u in range(n) if u != v)
                want = n == 1 or nx.is_connected(rest)
                assert _connected_on(g.masks, ((1 << n) - 1) & ~(1 << v)) == want
        assert answers == {True, False}


class TestDistanceMatrix:
    def test_path5_profile(self):
        dm = distance_matrix(path(5))
        assert dm.diameter == 4
        assert dm.radius == 2
        assert dm.ecc == (4, 3, 2, 3, 4)
        assert dm.periphery == {0, 4}

    def test_cycle4_self_centered(self):
        dm = distance_matrix(cycle(4))
        assert set(dm.ecc) == {2}
        assert dm.radius == dm.diameter == 2
        assert dm.periphery == {0, 1, 2, 3}

    def test_fig2_tree(self):
        dm = distance_matrix(fig2_tree())
        assert dm.diameter == 3
        assert dm.periphery == {1, 2, 4}
        oracle = floyd_warshall(fig2_tree())
        for u in range(5):
            for v in range(5):
                assert dm.dist[u][v] == oracle[u][v]

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            distance_matrix(build_graph(4, [(0, 1), (2, 3)]))

    def test_matches_floyd_warshall_on_random(self, rng):
        for _ in range(50):
            g = random_connected(rng, rng.randrange(2, 14))
            dm = distance_matrix(g)
            oracle = floyd_warshall(g)
            assert all(
                dm.dist[u][v] == oracle[u][v] for u in range(g.n) for v in range(g.n)
            )

    def test_matches_networkx_on_random(self, rng):
        for _ in range(25):
            g = random_connected(rng, rng.randrange(2, 20))
            ng = nx.Graph()
            ng.add_nodes_from(range(g.n))
            ng.add_edges_from(g.edges())
            nx_dist = dict(nx.all_pairs_shortest_path_length(ng))
            dm = distance_matrix(g)
            for u in range(g.n):
                for v in range(g.n):
                    assert dm.dist[u][v] == nx_dist[u][v]

    @given(connected_graphs(max_n=24))
    @settings(max_examples=60, deadline=None)
    def test_metric_invariants(self, g):
        dm = distance_matrix(g)
        n = g.n
        for u in range(n):
            assert dm.dist[u][u] == 0
            for v in range(u + 1, n):
                d = dm.dist[u][v]
                assert d == dm.dist[v][u] > 0
                assert (d == 1) == bool(g.masks[u] >> v & 1)
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    assert dm.dist[u][w] <= dm.dist[u][v] + dm.dist[v][w]
        assert dm.ecc == tuple(max(row) for row in dm.dist)
        assert (dm.radius, dm.diameter) == (min(dm.ecc), max(dm.ecc))
        assert dm.radius <= dm.diameter <= 2 * dm.radius
        assert dm.periphery == {v for v in range(n) if dm.ecc[v] == dm.diameter}


class TestCartesianProduct:
    def test_k2_times_k2_is_c4(self):
        g = cartesian_product(complete(2), complete(2))
        assert g.n == 4 and g.m == 4
        assert all(g.degree(v) == 2 for v in range(4))
        assert distance_matrix(g).diameter == 2

    def test_grid_2x3(self):
        g = cartesian_product(path(2), path(3))
        assert g.n == 6 and g.m == 7

    def test_edge_count_formula(self, rng):
        for _ in range(20):
            g = random_connected(rng, rng.randrange(2, 7))
            h = random_connected(rng, rng.randrange(2, 7))
            assert cartesian_product(g, h).m == g.n * h.m + h.n * g.m

    def test_distances_add(self, rng):
        for _ in range(15):
            g = random_connected(rng, rng.randrange(2, 6))
            h = random_connected(rng, rng.randrange(2, 6))
            prod = cartesian_product(g, h)
            dg, dh, dp = distance_matrix(g), distance_matrix(h), distance_matrix(prod)
            for a in range(g.n):
                for x in range(h.n):
                    for b in range(g.n):
                        for y in range(h.n):
                            assert (
                                dp.dist[a * h.n + x][b * h.n + y]
                                == dg.dist[a][b] + dh.dist[x][y]
                            )

    def test_periphery_multiplies(self):
        from periwiener.corpus import class_levels

        level = class_levels()
        factors = [Graph(n, rows) for n in (2, 3, 4) for _, _, rows, _ in level(n)]
        for g in factors:
            for h in factors:
                dg, dh = distance_matrix(g), distance_matrix(h)
                dp = distance_matrix(cartesian_product(g, h))
                want = {a * h.n + x for a in dg.periphery for x in dh.periphery}
                assert set(dp.periphery) == want

