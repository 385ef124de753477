import networkx as nx
import pytest
from hypothesis import example, given, settings

from conftest import connected_graphs, random_connected
from periwiener import corpus
from periwiener.generators import path, star
from periwiener.graphs import build_graph, complement
from periwiener.graphio import write_graph6
from periwiener.indices import index_vector
from periwiener.trees import as_tree, complement_tree_pww

# labeled connected graph counts (recounted independently in
# test_counts_cross_checked_by_union_find below, up to n = 5)
LABELED_CONNECTED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
# non-isomorphic connected graph counts
ISO_CONNECTED = {2: 1, 3: 2, 4: 6, 5: 21}
# non-isomorphic tree counts by order
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


class TestProfile:
    """The bitmask engine against the definitional oracle (and networkx)."""

    def test_profile_matches_definitions_exhaustively(self):
        for n in range(2, 6):
            for mask, prof in corpus.iter_connected_profiles(n):
                g = corpus.mask_to_graph(n, mask)
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

    def test_single_vertex(self):
        p = corpus.profile_of(build_graph(1, []))
        assert p.n == 1 and p.diameter == 0 and p.k == 1

    def test_complement_profile(self, rng):
        for _ in range(30):
            g = random_connected(rng, rng.randrange(2, 12))
            via_masks = corpus.complement_profile(g.n, g.adjacency_masks())
            direct = corpus.profile_of(complement(g))
            assert via_masks == direct

    def test_complement_tree_pww_matches_profile(self):
        # every free tree on 2..10 vertices; None exactly when the
        # complement is disconnected
        for g in corpus.all_free_trees(2, 10):
            p = corpus.profile_of(complement(g))
            assert complement_tree_pww(as_tree(g)) == (None if p is None else p.pww)


class TestEnumeration:
    def test_labeled_connected_counts(self):
        for n, expect in LABELED_CONNECTED.items():
            assert sum(1 for _ in corpus.iter_connected_profiles(n)) == expect

    def test_counts_cross_checked_by_union_find(self):
        # independent connectivity test over all edge subsets
        for n in range(2, 6):
            pairs = corpus.pair_list(n)
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
        for _ in range(50):
            g = random_connected(rng, rng.randrange(2, 10))
            assert corpus.mask_to_graph(g.n, corpus.graph_to_mask(g)) == g

    def test_g6_order_key_matches_string_order(self, rng):
        n = 6
        nbits = n * (n - 1) // 2
        masks = [rng.randrange(1 << nbits) for _ in range(80)]
        by_key = sorted(masks, key=lambda m: corpus.g6_order_key(n, m))
        by_string = sorted(masks, key=lambda m: write_graph6(corpus.mask_to_graph(n, m)))
        assert by_key == by_string


class TestIsomorphismReduction:
    def test_counts(self):
        for n, expect in ISO_CONNECTED.items():
            assert len(corpus.nonisomorphic_connected(n)) == expect

    def test_classes_are_distinct(self):
        reps = corpus.nonisomorphic_connected(5)
        masks = {corpus.canonical_mask(5, corpus.graph_to_mask(g)) for g in reps}
        assert len(masks) == len(reps)

    def test_canonical_mask_invariant_under_relabeling(self, rng):
        import itertools

        g = random_connected(rng, 5)
        base = corpus.canonical_mask(5, corpus.graph_to_mask(g))
        for perm in itertools.islice(itertools.permutations(range(5)), 20):
            edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
            h = build_graph(5, edges)
            assert corpus.canonical_mask(5, corpus.graph_to_mask(h)) == base


class TestFreeTrees:
    def test_counts(self):
        for n, expect in FREE_TREES.items():
            assert len(corpus.free_trees(n)) == expect

    def test_matches_networkx(self):
        for n in range(2, 10):
            ours = {corpus.tree_certificate(t) for t in corpus.free_trees(n)}
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

    def test_all_outputs_are_trees(self):
        from periwiener.graphs import is_connected

        for t in corpus.free_trees(8):
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
        with pytest.raises(ValueError):
            corpus.scan_values("zz", 4)

    def test_scan_chunks_cover_range(self):
        for n in (4, 6, 7):
            chunks = corpus.scan_chunks(n)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == 1 << (n * (n - 1) // 2)
            for (a, b), (c, d) in zip(chunks, chunks[1:]):
                assert b == c
