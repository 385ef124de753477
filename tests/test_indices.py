import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, fig2_tree, random_connected
from periwiener.errors import InvariantError, NotConnectedError, TrivialGraphError
from periwiener.generators import (
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    path,
    star,
)
from periwiener.graphs import DistanceMatrix, build_graph, distance_matrix
from periwiener.indices import (
    hyper_wiener,
    index_vector,
    pendant_vertices,
    peripheral_distance_number,
    peripheral_hyper_wiener,
    peripheral_wiener,
    terminal_hyper_wiener,
    terminal_wiener,
    wiener,
)


def iv(g):
    return index_vector(g)


class TestWiener:
    def test_p3(self):
        assert wiener(distance_matrix(path(3))) == 4

    def test_star4(self):
        assert wiener(distance_matrix(star(4))) == 16

    def test_p4(self):
        assert wiener(distance_matrix(path(4))) == 10

    def test_trivial(self):
        with pytest.raises(TrivialGraphError):
            wiener(distance_matrix(build_graph(1, [])))


class TestHyperWiener:
    def test_complete(self):
        for n in range(2, 7):
            assert hyper_wiener(distance_matrix(complete(n))) == comb(n, 2)

    def test_p3(self):
        assert hyper_wiener(distance_matrix(path(3))) == 5

    def test_p4(self):
        assert hyper_wiener(distance_matrix(path(4))) == 15

    def test_diameter2_closed_form(self, rng):
        # WW = 3*C(n,2) - 2m whenever the diameter is 2
        found = 0
        while found < 20:
            g = random_connected(rng, rng.randrange(4, 10), extra=0.5)
            dm = distance_matrix(g)
            if dm.diameter != 2:
                continue
            found += 1
            assert hyper_wiener(dm) == 3 * comb(g.n, 2) - 2 * g.m


class TestPeripheralDistanceNumber:
    def test_c4(self):
        dm = distance_matrix(cycle(4))
        assert all(peripheral_distance_number(dm, v) == 4 for v in range(4))

    def test_complete(self):
        for n in (3, 5):
            dm = distance_matrix(complete(n))
            assert peripheral_distance_number(dm, 0) == n - 1

    def test_p5_center(self):
        assert peripheral_distance_number(distance_matrix(path(5)), 2) == 4


class TestPeripheralWiener:
    def test_c4(self):
        assert peripheral_wiener(distance_matrix(cycle(4))) == 8

    def test_paths(self):
        for n in range(2, 9):
            assert peripheral_wiener(distance_matrix(path(n))) == n - 1

    def test_complete(self):
        for n in (2, 4, 6):
            assert peripheral_wiener(distance_matrix(complete(n))) == comb(n, 2)


class TestPeripheralHyperWiener:
    def test_p3(self):
        assert peripheral_hyper_wiener(distance_matrix(path(3))) == 3

    def test_star4(self):
        assert peripheral_hyper_wiener(distance_matrix(star(4))) == 18

    def test_fig2(self):
        assert peripheral_hyper_wiener(distance_matrix(fig2_tree())) == 15

    def test_complete(self):
        for n in range(2, 9):
            assert peripheral_hyper_wiener(distance_matrix(complete(n))) == comb(n, 2)

    def test_hypercube2(self):
        assert peripheral_hyper_wiener(distance_matrix(hypercube(2))) == 10

    def test_k23(self):
        assert peripheral_hyper_wiener(distance_matrix(complete_bipartite(2, 3))) == 18


class TestTerminal:
    def test_paths(self):
        for n in range(2, 8):
            dm = distance_matrix(path(n))
            assert terminal_wiener(dm, path(n)) == n - 1
            d = n - 1
            assert terminal_hyper_wiener(dm, path(n)) == (d + d * d) // 2

    def test_fig2(self):
        g = fig2_tree()
        dm = distance_matrix(g)
        assert pendant_vertices(g) == (1, 2, 4)
        assert terminal_wiener(dm, g) == 8
        assert terminal_hyper_wiener(dm, g) == 15

    def test_cycles_have_no_pendants(self):
        for n in (3, 5, 8):
            g = cycle(n)
            dm = distance_matrix(g)
            assert terminal_wiener(dm, g) == 0
            assert terminal_hyper_wiener(dm, g) == 0


class TestIndexVector:
    def test_p2_all_ones(self):
        v = iv(path(2))
        assert (v.w, v.ww, v.pw, v.pww, v.tw, v.tww) == (1, 1, 1, 1, 1, 1)

    def test_k4(self):
        v = iv(complete(4))
        assert (v.w, v.ww, v.pw, v.pww, v.tw, v.tww) == (6, 6, 6, 6, 0, 0)
        assert v.k == 4 and v.pendant_count == 0

    def test_c5(self):
        v = iv(cycle(5))
        assert v.pww == 20
        assert v.pww == 2 * comb(5, 2) + comb(5, 2) - 2 * 5

    def test_not_connected(self):
        with pytest.raises(NotConnectedError):
            iv(build_graph(4, [(0, 1), (2, 3)]))

    def test_trivial(self):
        with pytest.raises(TrivialGraphError):
            iv(build_graph(1, []))

    @given(connected_graphs(max_n=12))
    @settings(max_examples=80, deadline=None)
    def test_hasse_chain(self, g):
        v = iv(g)
        assert v.pw <= v.w <= v.ww
        assert v.pw <= v.pww <= v.ww

    @given(connected_graphs(max_n=10))
    @settings(max_examples=80, deadline=None)
    def test_equalities_tight_iff_peripheral(self, g):
        v = iv(g)
        dm = distance_matrix(g)
        peripheral = len(dm.periphery) == g.n
        assert (v.pw == v.w) == peripheral
        assert (v.pww == v.ww) == peripheral

    @given(connected_graphs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_four_way_equality_iff_complete(self, g):
        v = iv(g)
        complete_graph = g.m == comb(g.n, 2)
        assert (v.w == v.pw == v.ww == v.pww) == complete_graph


# an asymmetric "distance matrix": the PW pair sum is 1, the vertex sum 0
_ASYMMETRIC = DistanceMatrix(n=2, dist=((0, 1), (0, 0)), ecc=(1, 1), radius=1, diameter=1,
                             periphery=frozenset({0, 1}))


class TestInvariants:
    def test_pw_cross_check_raises(self):
        with pytest.raises(InvariantError, match="PW"):
            peripheral_wiener(_ASYMMETRIC)

    def test_cross_check_survives_optimize_flag(self):
        # explicit raises, not asserts: `python -O` keeps them
        code = ("from periwiener.errors import InvariantError\n"
                "from periwiener.graphs import DistanceMatrix\n"
                "from periwiener.indices import peripheral_wiener\n"
                f"dm = {_ASYMMETRIC!r}\n"
                "try:\n    peripheral_wiener(dm)\n"
                "except InvariantError:\n    print('raised')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.strip() == "raised", proc.stderr
