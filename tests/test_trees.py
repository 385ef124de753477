import random
from itertools import chain

import pytest

from conftest import fig2_tree
from periwiener.corpus import all_free_trees
from periwiener.errors import (
    InvalidCodeError,
    InvalidParameterError,
    NotATreeError,
    NotConnectedError,
)
from periwiener.generators import (
    caterpillar,
    cycle,
    double_star,
    lobster,
    path,
    random_tree,
    rooted_depth2_tree,
    star,
)
from periwiener.graphs import build_graph, distance_matrix
from periwiener.indices import (
    hyper_wiener,
    index_vector,
    peripheral_hyper_wiener,
    peripheral_wiener,
    wiener,
)
from periwiener.trees import (
    as_tree,
    closed_form_caterpillar,
    closed_form_diam4,
    closed_form_double_star,
    closed_form_lobster,
    closed_form_star,
    complement_tree_pww,
    double_star_pww,
    hyper_wiener_by_path_cuts,
    lobster_pww,
    peripheral_hyper_wiener_by_path_cuts,
    peripheral_wiener_by_edge_cuts,
    tree_pww_bounds,
    wiener_by_edge_cuts,
)


def _path_cut_sum_cubic(tv, candidates):
    """O(n^3) oracle: every vertex pair, every candidate side member, sides
    read off the distance matrix (x is on the u side of the u-v path iff
    d(x,v) = d(x,u) + d(u,v))."""
    dist = distance_matrix(tv.graph).dist
    total = 0
    for u in range(tv.graph.n):
        for v in range(u + 1, tv.graph.n):
            u_side = sum(1 for x in candidates if dist[v][x] == dist[u][x] + dist[u][v])
            v_side = sum(1 for x in candidates if dist[u][x] == dist[v][x] + dist[u][v])
            total += u_side * v_side
    return total


def _random_trees(count=60, max_n=40):
    for seed in range(count):
        yield random_tree(2 + seed % (max_n - 1), seed=seed * 977 + 13)


class TestAsTree:
    def test_path_ok(self):
        assert as_tree(path(5)).graph.n == 5

    def test_cycle_rejected(self):
        with pytest.raises(NotATreeError):
            as_tree(cycle(4))

    def test_caterpillar_ok(self):
        as_tree(caterpillar((2, 0, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            as_tree(build_graph(4, [(0, 1), (2, 3)]))

    def test_flags(self):
        tv = as_tree(fig2_tree())
        assert tv.periphery == {1, 2, 4}

    def test_disconnected_with_tree_edge_count_rejected(self):
        # a triangle plus an isolated vertex has m = n - 1
        with pytest.raises(NotConnectedError):
            as_tree(build_graph(4, [(0, 1), (1, 2), (0, 2)]))

    def test_periphery_matches_distance_matrix(self):
        # the engine's periphery and profile against all-pairs distances:
        # every free tree on 1..10 vertices, then random trees up to 200 vertices
        rng = random.Random(4242)
        randoms = [random_tree(rng.randrange(2, 201), seed=rng.randrange(1 << 30))
                   for _ in range(60)]
        for g in chain(all_free_trees(1, 10), randoms, [random_tree(200, seed=11)]):
            tv = as_tree(g)
            assert tv.periphery == distance_matrix(g).periphery
            if g.n >= 2:
                assert tv.profile == index_vector(g)


class TestCutFormulas:
    def test_wiener_p4(self):
        assert wiener_by_edge_cuts(as_tree(path(4))) == 10

    def test_wiener_star4(self):
        assert wiener_by_edge_cuts(as_tree(star(4))) == 16

    def test_hyper_p3(self):
        assert hyper_wiener_by_path_cuts(as_tree(path(3))) == 5

    def test_hyper_p4(self):
        assert hyper_wiener_by_path_cuts(as_tree(path(4))) == 15

    def test_pw_p4(self):
        assert peripheral_wiener_by_edge_cuts(as_tree(path(4))) == 3

    def test_pw_star4(self):
        assert peripheral_wiener_by_edge_cuts(as_tree(star(4))) == 12

    def test_pww_p4(self):
        assert peripheral_hyper_wiener_by_path_cuts(as_tree(path(4))) == 6

    def test_pww_fig2(self):
        assert peripheral_hyper_wiener_by_path_cuts(as_tree(fig2_tree())) == 15

    def test_all_four_match_definitions_on_random_trees(self):
        for g in _random_trees():
            dm = distance_matrix(g)
            tv = as_tree(g)
            assert wiener_by_edge_cuts(tv) == wiener(dm)
            assert hyper_wiener_by_path_cuts(tv) == hyper_wiener(dm)
            assert peripheral_wiener_by_edge_cuts(tv) == peripheral_wiener(dm)
            assert peripheral_hyper_wiener_by_path_cuts(tv) == peripheral_hyper_wiener(dm)

    def test_path_cuts_match_cubic_oracle(self):
        # every free tree on 2..10 vertices, then random trees up to 200
        # vertices, with all vertices and with the periphery as side members
        rng = random.Random(31337)
        randoms = [random_tree(rng.randrange(2, 201), seed=rng.randrange(1 << 30))
                   for _ in range(4)]
        for g in chain(all_free_trees(2, 10), randoms, [random_tree(200, seed=7)]):
            tv = as_tree(g)
            assert hyper_wiener_by_path_cuts(tv) == _path_cut_sum_cubic(tv, range(g.n))
            assert (peripheral_hyper_wiener_by_path_cuts(tv)
                    == _path_cut_sum_cubic(tv, sorted(tv.periphery)))

    def test_side_count_consistency(self):
        for g in _random_trees(count=20, max_n=16):
            dm = distance_matrix(g)
            tv = as_tree(g)
            assert tv.periphery == dm.periphery
            n, k = g.n, len(dm.periphery)
            # edges: the two sides partition everything
            for u, v in g.edges():
                u_side = sum(1 for x in range(n)
                             if dm.dist[x][v] == dm.dist[x][u] + dm.dist[u][v])
                assert 0 < u_side < n
                a1 = sum(1 for x in dm.periphery
                         if dm.dist[x][v] == dm.dist[x][u] + dm.dist[u][v])
                a2 = sum(1 for x in dm.periphery
                         if dm.dist[x][u] == dm.dist[x][v] + dm.dist[u][v])
                assert a1 + a2 == k
            # longer paths: interior peripheral vertices sit on neither side
            for u in range(n):
                for v in range(u + 1, n):
                    a1 = sum(1 for x in dm.periphery
                             if dm.dist[x][v] == dm.dist[x][u] + dm.dist[u][v])
                    a2 = sum(1 for x in dm.periphery
                             if dm.dist[x][u] == dm.dist[x][v] + dm.dist[u][v])
                    assert a1 + a2 <= k


class TestClosedForms:
    def test_star(self):
        assert closed_form_star(4) == 18
        for n in range(2, 8):
            assert closed_form_star(n) == peripheral_hyper_wiener(distance_matrix(star(n)))
        with pytest.raises(InvalidParameterError):
            closed_form_star(1)

    def test_diam4_spider(self):
        assert closed_form_diam4([2, 2]) == 46
        g = rooted_depth2_tree([2, 2])
        assert peripheral_hyper_wiener(distance_matrix(g)) == 46

    def test_diam4_sweep(self):
        from itertools import combinations_with_replacement

        for size in (2, 3):
            for counts in combinations_with_replacement(range(4), size):
                if sum(1 for c in counts if c) < 2:
                    continue
                g = rooted_depth2_tree(counts)
                assert closed_form_diam4(list(counts)) == peripheral_hyper_wiener(
                    distance_matrix(g)
                )

    def test_diam4_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            closed_form_diam4([3, 0])

    def test_double_star_formula_vs_truth(self):
        # the registered form overshoots P_4: 6+3+3 = 12 against the true 6
        assert closed_form_double_star(1, 1) == 12
        assert peripheral_hyper_wiener(distance_matrix(double_star(1, 1))) == 6
        assert double_star_pww(1, 1) == 6

    def test_double_star_exact_form(self):
        for m in range(1, 6):
            for n in range(1, 6):
                got = peripheral_hyper_wiener(distance_matrix(double_star(m, n)))
                assert double_star_pww(m, n) == got

    def test_caterpillar_small(self):
        assert closed_form_caterpillar((1, 1)) == 6
        assert closed_form_caterpillar((2, 0, 3)) == 72
        g = caterpillar((2, 0, 3))
        assert peripheral_hyper_wiener(distance_matrix(g)) == 72

    def test_caterpillar_matches_double_star_at_s2(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert closed_form_caterpillar((m, n)) == double_star_pww(m, n)

    def test_caterpillar_needs_spine2(self):
        with pytest.raises(InvalidCodeError):
            closed_form_caterpillar((3,))

    def test_lobster_formula_vs_truth(self):
        # registered form doubles the far-pair term
        assert closed_form_lobster((1, 0, 1), 1) == 50
        g = lobster((1, 0, 1), 1)
        assert peripheral_hyper_wiener(distance_matrix(g)) == 30
        assert lobster_pww((1, 0, 1), 1) == 30

    def test_lobster_exact_form_sweep(self):
        for code in [(1, 0, 1), (2, 0, 1), (1, 0, 2), (3, 0, 3), (1, 0, 2, 2), (2, 0, 0, 1)]:
            for c in (1, 2, 3):
                got = peripheral_hyper_wiener(distance_matrix(lobster(code, c)))
                assert lobster_pww(code, c) == got

    def test_tree_bounds_values(self):
        assert tree_pww_bounds(3, 2) == (12, 24)
        lo, _ = tree_pww_bounds(2, 3)
        assert lo == 30  # exceeds the true PWW(K_{1,3}) = 9
        assert peripheral_hyper_wiener(distance_matrix(star(3))) == 9
        with pytest.raises(InvalidParameterError):
            tree_pww_bounds(0, 2)


# each family's generator and closed forms, which share one parameter check
FAMILY_FORMS = {
    "caterpillar": (caterpillar, closed_form_caterpillar),
    "lobster": (lobster, closed_form_lobster, lobster_pww),
    "double-star": (double_star, closed_form_double_star, double_star_pww),
}


@pytest.mark.parametrize("family, params", [
    ("caterpillar", ((),)),
    ("caterpillar", ((0, 1),)),
    ("caterpillar", ((2, 0),)),
    ("caterpillar", ((-1,),)),
    ("caterpillar", ((1, -1, 1),)),
    ("lobster", ((), 1)),
    ("lobster", ((0, 0, 1), 1)),
    ("lobster", ((1, 0, -1, 1), 1)),
    ("lobster", ((1, 0), 1)),
    ("lobster", ((1, 1, 1), 1)),
    ("lobster", ((1, 0, 1), 0)),
    ("lobster", ((1, 1), 0)),
    ("double-star", (0, 1)),
    ("double-star", (2, 0)),
    ("double-star", (-1, -1)),
])
def test_family_forms_reject_alike(family, params):
    """The generator and every closed form of the family raise the same
    error type and message on an invalid code or parameter."""
    errors = set()
    for form in FAMILY_FORMS[family]:
        with pytest.raises((InvalidCodeError, InvalidParameterError)) as info:
            form(*params)
        errors.add((type(info.value), str(info.value)))
    assert len(errors) == 1, errors


class TestComplementOfTree:
    def test_double_star_case(self):
        assert complement_tree_pww(as_tree(double_star(2, 3))) == 6

    def test_long_path_case(self):
        n = 6
        assert complement_tree_pww(as_tree(path(n))) == (n * n + 3 * n - 4) // 2 == 25

    def test_star_disconnected(self):
        assert complement_tree_pww(as_tree(star(4))) is None
        assert complement_tree_pww(as_tree(path(2))) is None

    def test_dichotomy_sampled(self):
        for g in _random_trees(count=40, max_n=14):
            tv = as_tree(g)
            got = complement_tree_pww(tv)
            if got is None:
                continue
            d = distance_matrix(g).diameter
            n = g.n
            if d == 3:
                assert got == 6
            else:
                assert d > 3
                assert got == (n * n + 3 * n - 4) // 2
