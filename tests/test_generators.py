import random

import networkx as nx
import pytest

from conftest import brute_isomorphic, to_nx
from periwiener import cli, generators
from periwiener.corpus import tree_certificate
from periwiener.errors import InvalidCodeError, InvalidParameterError, TooLargeError
from periwiener.generators import (
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    hypercube,
    lobster,
    path,
    random_connected_graph,
    random_tree,
    rooted_depth2_tree,
    star,
)
from periwiener.graphio import MAX_EDGE_LIST_ORDER
from periwiener.graphs import build_graph, cartesian_product, distance_matrix, is_connected


def _nx_caterpillar(counts):
    """The caterpillar numbering: spine 0..s-1, then each spine vertex's
    leaves in order."""
    ng = nx.path_graph(len(counts))
    for i, c in enumerate(counts):
        for _ in range(c):
            ng.add_edge(i, ng.number_of_nodes())
    return ng


def _nx_lobster(counts, c):
    """The caterpillar, then the star center joined to spine vertex 1, then
    its c leaves."""
    ng = _nx_caterpillar(counts)
    center = ng.number_of_nodes()
    ng.add_edge(1, center)
    ng.add_edges_from((center, center + 1 + i) for i in range(c))
    return ng


def _nx_double_star(m, n):
    """Centers 0 and 1, then the m leaves of 0, then the n leaves of 1."""
    return nx.Graph([(0, 1)] + [(0, 2 + i) for i in range(m)]
                    + [(1, 2 + m + j) for j in range(n)])


def _nx_hypercube(d):
    """Vertices numbered by their bit strings: adjacent iff one bit differs
    (networkx names the vertices of Q_1 0 and 1, not by 1-tuples)."""
    if d == 1:
        return nx.hypercube_graph(1)
    return nx.relabel_nodes(nx.hypercube_graph(d), lambda bits: int("".join(map(str, bits)), 2))


def _nx_random_tree(n, seed):
    """The labeled tree of the Pruefer sequence of n - 2 draws of randrange(n)."""
    rng = random.Random(seed)
    return nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])


def _nx_random_graph(n, p, seed):
    """G(n, p) with one random() per pair in graph6 column order (0,1),
    (0,2), (1,2), ..., redrawn until connected."""
    rng = random.Random(seed)
    while True:
        ng = nx.empty_graph(n)
        ng.add_edges_from((i, j) for j in range(1, n) for i in range(j) if rng.random() < p)
        if nx.is_connected(ng):
            return ng


def _nx_product(g, h):
    """networkx's product with (a, x) numbered row-major a*|V(h)| + x."""
    prod = nx.cartesian_product(to_nx(g), to_nx(h))
    return nx.relabel_nodes(prod, lambda ax: ax[0] * h.n + ax[1])


# (family, gen parameters, --seed, the networkx graph under the documented
# numbering); every family of `periwiener gen` has a case
_NX_CASES = [
    ("complete", ["1"], 0, nx.complete_graph(1)),
    ("complete", ["6"], 0, nx.complete_graph(6)),
    ("path", ["7"], 0, nx.path_graph(7)),
    ("cycle", ["7"], 0, nx.cycle_graph(7)),
    ("complete-bipartite", ["3", "4"], 0, nx.complete_bipartite_graph(3, 4)),
    ("star", ["5"], 0, nx.star_graph(5)),
    ("double-star", ["2", "3"], 0, _nx_double_star(2, 3)),
    ("hypercube", ["1"], 0, _nx_hypercube(1)),
    ("hypercube", ["5"], 0, _nx_hypercube(5)),
    ("caterpillar", ["2,0,3"], 0, _nx_caterpillar((2, 0, 3))),
    ("caterpillar", ["3"], 0, _nx_caterpillar((3,))),
    ("lobster", ["1,0,1", "2"], 0, _nx_lobster((1, 0, 1), 2)),
    ("lobster", ["2,0,0,3", "1"], 0, _nx_lobster((2, 0, 0, 3), 1)),
    ("random-tree", ["40"], 3, _nx_random_tree(40, 3)),
    ("random-tree", ["2"], 1, _nx_random_tree(2, 1)),
    ("random-graph", ["30", "0.2"], 3, _nx_random_graph(30, 0.2, 3)),
    ("random-graph", ["12", "0.15"], 8, _nx_random_graph(12, 0.15, 8)),
]


def _same_graph(g, ng):
    """g has the vertices and edges of ng, and its masks are those that
    build_graph makes of its edges: symmetric, loop-free, below bit n."""
    assert sorted(ng.nodes) == list(range(g.n))
    assert set(g.edges()) == {(min(e), max(e)) for e in ng.edges()}
    assert g == build_graph(g.n, g.edges())


class TestMatchesNetworkx:
    @pytest.mark.parametrize("family, params, seed, ng", _NX_CASES,
                             ids=[f"{f}-{'-'.join(p)}" for f, p, _, _ in _NX_CASES])
    def test_family(self, family, params, seed, ng):
        _same_graph(cli._build_family(family, params, seed), ng)

    def test_every_family_has_a_case(self):
        assert {family for family, _, _, _ in _NX_CASES} == set(cli._FAMILIES)

    def test_cartesian_product(self, rng):
        pairs = [(path(3), cycle(4)), (complete(1), path(3)), (star(3), complete(2))]
        pairs += [(random_connected_graph(rng.randrange(2, 7), 0.5, seed=rng.randrange(1 << 30)),
                   random_connected_graph(rng.randrange(2, 7), 0.5, seed=rng.randrange(1 << 30)))
                  for _ in range(10)]
        for g, h in pairs:
            _same_graph(cartesian_product(g, h), _nx_product(g, h))


class TestBasicFamilies:
    def test_complete(self):
        g = complete(4)
        assert g.n == 4 and g.m == 6
        assert distance_matrix(g).diameter == 1

    def test_cycle(self):
        g = cycle(5)
        assert g.n == 5 and g.m == 5
        assert distance_matrix(g).diameter == 2

    def test_cycle_too_small(self):
        with pytest.raises(InvalidParameterError):
            cycle(2)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6
        assert distance_matrix(g).diameter == 2

    def test_star_is_bipartite_1n(self):
        assert star(4) == complete_bipartite(1, 4)

    def test_path_single_vertex(self):
        assert path(1).n == 1


class TestDoubleStar:
    def test_s11_is_p4(self):
        assert brute_isomorphic(double_star(1, 1), path(4))

    def test_s23(self):
        g = double_star(2, 3)
        assert g.n == 7 and g.m == 6
        assert distance_matrix(g).diameter == 3

    def test_periphery_is_the_leaves(self):
        for m, n in [(1, 1), (2, 3), (4, 2)]:
            g = double_star(m, n)
            dm = distance_matrix(g)
            leaves = {v for v in range(g.n) if g.degree(v) == 1}
            assert set(dm.periphery) == leaves

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            double_star(0, 1)


class TestHypercube:
    def test_q2_is_c4(self):
        assert brute_isomorphic(hypercube(2), cycle(4))

    def test_q3(self):
        g = hypercube(3)
        assert g.n == 8 and g.m == 12
        assert distance_matrix(g).diameter == 3

    def test_bit_adjacency(self):
        for n in range(1, 6):
            g = hypercube(n)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert bool(g.masks[u] >> v & 1) == ((u ^ v).bit_count() == 1)

    def test_all_vertices_peripheral(self):
        dm = distance_matrix(hypercube(4))
        assert dm.periphery == frozenset(range(16))

    def test_iterated_product_identity(self):
        for n in range(2, 6):
            assert hypercube(n) == cartesian_product(hypercube(n - 1), complete(2))

    def test_dimension_cap(self):
        with pytest.raises(TooLargeError):
            hypercube(17)


class TestOrderCeiling:
    """Every constructor stops at the largest order `compute` reads."""

    TOP = MAX_EDGE_LIST_ORDER

    @pytest.mark.parametrize("make, args", [
        (complete, (1025,)), (path, (1025,)), (cycle, (1025,)),
        (complete_bipartite, (1, 1024)), (star, (1024,)), (double_star, (1, 1022)),
        (hypercube, (11,)), (caterpillar, ((1, 1020, 1),)), (lobster, ((1, 0, 1), 1019)),
        (rooted_depth2_tree, ((1021, 1),)), (random_tree, (1025, 1)),
        (random_connected_graph, (1025, 0.5, 1)),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_one_above_the_ceiling_raises(self, make, args):
        with pytest.raises(TooLargeError, match="exceeds the supported maximum"):
            make(*args)

    def test_the_ceiling_itself_builds(self):
        assert hypercube(10).n == path(self.TOP).n == self.TOP
        assert double_star(1, self.TOP - 3).n == self.TOP
        assert lobster((1, 0, 1), self.TOP - 6).n == self.TOP


class TestCaterpillar:
    def test_code_matches_double_star(self):
        assert brute_isomorphic(caterpillar((2, 3)), double_star(2, 3))

    def test_1_0_1_is_p5(self):
        g = caterpillar((1, 0, 1))
        assert g.n == 5
        assert distance_matrix(g).diameter == 4
        assert brute_isomorphic(g, path(5))

    def test_2_0_0_3(self):
        g = caterpillar((2, 0, 0, 3))
        dm = distance_matrix(g)
        assert dm.diameter == 5
        leaves_at_ends = {4, 5, 6, 7, 8} - {4 + 0}  # spine 0..3, leaves 4,5 on u1 and 6,7,8 on u4
        # end leaves: the 2 on spine vertex 0 and the 3 on spine vertex 3
        assert set(dm.periphery) == {4, 5, 6, 7, 8}

    def test_tree_edge_count(self):
        for code in [(1, 1), (2, 0, 3), (4,), (1, 2, 3, 4, 1)]:
            g = caterpillar(code)
            assert g.m == g.n - 1 and is_connected(g)

    def test_invalid_codes(self):
        with pytest.raises(InvalidCodeError):
            caterpillar((0, 1))  # first end empty with s >= 2
        with pytest.raises(InvalidCodeError):
            caterpillar((1, -1, 1))
        with pytest.raises(InvalidCodeError):
            caterpillar((0,))  # single vertex


class TestLobster:
    def test_vertex_count(self):
        g = lobster((1, 0, 1), 1)
        assert g.n == 7
        assert g.m == 6 and is_connected(g)

    def test_star_leaves_peripheral(self):
        g = lobster((1, 0, 1), 2)
        dm = distance_matrix(g)
        # star center is vertex 5 (after spine 0,1,2 and leaves 3,4); its leaves are 6,7
        assert {6, 7} <= set(dm.periphery)

    def test_invalid(self):
        with pytest.raises(InvalidCodeError):
            lobster((1, 1, 1), 1)  # c_2 != 0
        with pytest.raises(InvalidCodeError):
            lobster((1, 0), 1)  # spine too short
        with pytest.raises(InvalidParameterError):
            lobster((1, 0, 1), 0)


class TestDepth2Tree:
    def test_spider_2_2(self):
        g = rooted_depth2_tree([2, 2])
        assert g.n == 7 and g.m == 6
        assert distance_matrix(g).diameter == 4


class TestRandom:
    def test_random_tree_shape(self):
        g = random_tree(10, seed=1)
        assert g.n == 10 and g.m == 9 and is_connected(g)

    def test_random_tree_deterministic(self):
        assert random_tree(12, seed=5) == random_tree(12, seed=5)
        assert random_tree(12, seed=5) != random_tree(12, seed=6)

    def test_random_tree_certificates_vary(self):
        certs = {tree_certificate(random_tree(8, seed=s)) for s in range(30)}
        assert len(certs) > 3

    def test_random_connected_graph(self):
        g = random_connected_graph(8, 0.3, seed=7)
        assert g.n == 8 and is_connected(g)
        assert g == random_connected_graph(8, 0.3, seed=7)

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            random_tree(1, seed=0)
        with pytest.raises(InvalidParameterError):
            random_connected_graph(4, 0.0, seed=0)


class TestSamplerBudget:
    """The rejection sampler of random_connected_graph stops after
    min(1000, _SAMPLER_DRAWS // C(n,2)) attempts; attempts are counted by
    the connectivity checks they end in."""

    @staticmethod
    def _attempts(monkeypatch, n):
        calls = []

        def never_connected(rows, vertices):
            calls.append(len(rows))
            return False

        monkeypatch.setattr(generators, "_connected_on", never_connected)
        with pytest.raises(InvalidParameterError) as info:
            random_connected_graph(n, 0.5, seed=1)
        assert str(info.value) == (
            f"no connected sample in {len(calls)} attempts (at most 1000 attempts and "
            f"{generators._SAMPLER_DRAWS:,} pair draws; n={n}, p=0.5)")
        return len(calls)

    def test_small_orders_keep_every_attempt(self, monkeypatch):
        # the audit's random graphs have at most 24 vertices
        assert self._attempts(monkeypatch, 24) == 1000

    @pytest.mark.parametrize("n, attempts", [(10, 1000), (100, 20), (400, 1)])
    def test_attempts_bounded_by_total_draws(self, monkeypatch, n, attempts):
        monkeypatch.setattr(generators, "_SAMPLER_DRAWS", 100_000)
        assert self._attempts(monkeypatch, n) == attempts
