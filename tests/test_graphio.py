import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_graph6, random_connected
from periwiener.errors import (
    EdgeListSyntaxError,
    GraphError,
    MalformedGraph6Error,
    SelfLoopError,
    TooLargeError,
    VertexRangeError,
)
from periwiener.generators import complete, path
from periwiener.graphio import (
    edge_mask,
    iter_graph6,
    mask_rows,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from periwiener.graphs import _edge_list, build_graph


class TestEdgeList:
    def test_p3(self):
        assert parse_edge_list("3\n0 1\n1 2\n") == path(3)

    def test_k3_with_comment(self):
        assert parse_edge_list("# K3\n3\n0 1\n0 2\n1 2\n") == complete(3)

    def test_vertex_out_of_range_names_line(self):
        with pytest.raises(VertexRangeError, match="line 2"):
            parse_edge_list("3\n0 3\n")

    def test_self_loop_names_line(self):
        with pytest.raises(SelfLoopError, match="line 3"):
            parse_edge_list("3\n0 1\n2 2\n")

    def test_bad_tokens(self):
        with pytest.raises(EdgeListSyntaxError, match="line 2"):
            parse_edge_list("3\n0 x\n")
        with pytest.raises(EdgeListSyntaxError):
            parse_edge_list("")

    @pytest.mark.parametrize("text, line", [("²\n", 1), ("2\n0 ¹\n", 2), ("٣\n", 1)])
    def test_non_ascii_digits_rejected(self, text, line):
        # str.isdigit() accepts these, but int() does not
        with pytest.raises(EdgeListSyntaxError, match=f"line {line}"):
            parse_edge_list(text)
        with pytest.raises(EdgeListSyntaxError, match=f"line {line}"):
            parse_edge_list(text.encode("utf-8"))

    def test_whitespace_tolerant(self):
        assert parse_edge_list(b"  3 \n\n  0   1 \n 1  2  \n") == path(3)

    def test_round_trip(self, rng):
        for _ in range(50):
            g = random_connected(rng, rng.randrange(2, 15))
            assert parse_edge_list(write_edge_list(g)) == g

    @given(st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_never_crashes(self, data):
        try:
            parse_edge_list(data)
        except GraphError:
            pass


def _random_graph(rng, n, density=0.4):
    edges = [
        (i, j) for j in range(1, n) for i in range(j) if rng.random() < density
    ]
    return build_graph(n, edges)


class TestGraph6:
    def test_bw_is_k3(self):
        assert parse_graph6("Bw") == complete(3)

    def test_bg_is_p3(self):
        g = parse_graph6("Bg")
        assert set(g.edges()) == {(0, 1), (1, 2)}

    def test_at_sign_is_k1(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_order_zero_rejected(self):
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("?")

    def test_write_k3(self):
        assert write_graph6(complete(3)) == "Bw"

    def test_write_p3(self):
        assert write_graph6(path(3)) == "Bg"

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<Bw") == complete(3)

    def test_round_trip_small(self, rng):
        for _ in range(1000):
            g = _random_graph(rng, rng.randrange(1, 21))
            assert parse_graph6(write_graph6(g)) == g

    def test_round_trip_long_form(self, rng):
        for n in (63, 64, 100, 258):
            g = _random_graph(random.Random(n), n)
            s = write_graph6(g)
            assert s.startswith("~")
            assert parse_graph6(s) == g

    def test_write_too_large(self):
        g = build_graph(259, [(0, 1)])
        with pytest.raises(TooLargeError):
            write_graph6(g)

    def test_matches_networkx(self, rng):
        for _ in range(100):
            g = _random_graph(rng, rng.randrange(1, 25))
            assert write_graph6(g) == nx_graph6(g)
            back = nx.from_graph6_bytes(write_graph6(g).encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges()}

    @pytest.mark.parametrize("n", [62, 63, 64, 100, 258])
    @pytest.mark.parametrize("density", [0.02, 0.5])
    def test_matches_networkx_long_form(self, n, density):
        # both directions, on both sides of the short/long form boundary
        g = _random_graph(random.Random(n), n, density)
        record = write_graph6(g)
        assert record == nx_graph6(g)
        assert record.startswith("~") == (n > 62)
        back = nx.from_graph6_bytes(record.encode())
        assert sorted(tuple(sorted(e)) for e in back.edges()) == sorted(g.edges())
        assert parse_graph6(nx_graph6(g)) == g

    @pytest.mark.parametrize("n, pad", [(2, 5), (3, 3), (5, 2)])
    def test_nonzero_padding_rejected(self, n, pad):
        # C(n,2) mod 6 is 0, 1, 3 or 4, so 5, 3 and 2 are the padding widths
        record = write_graph6(complete(n))
        assert (6 * (len(record) - 1) - n * (n - 1) // 2) == pad
        assert parse_graph6(record) == complete(n)
        for bit in range(pad):
            bad = record[:-1] + chr(63 + ((ord(record[-1]) - 63) | 1 << bit))
            with pytest.raises(MalformedGraph6Error, match="padding"):
                parse_graph6(bad)

    def test_byte_above_range_inside_long_body(self):
        record = write_graph6(_random_graph(random.Random(1), 100))
        mid = len(record) // 2
        with pytest.raises(MalformedGraph6Error, match="byte 127 outside"):
            parse_graph6(record[:mid] + "\x7f" + record[mid + 1:])

    @pytest.mark.parametrize(
        "bad",
        [
            "",            # empty
            "B",           # truncated body
            "Bww",         # excess body
            "B\x1f",       # byte below 63
            "BC",          # nonzero padding bits for n=3
            "~?",          # truncated long form
            "~~????",      # beyond-supported long-long form
            "~??B?",       # non-canonical long form (n = 2)
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(MalformedGraph6Error):
            parse_graph6(bad)

    @given(st.sampled_from([1, 2, 3, 7, 62, 63, 64, 128, 258]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_decode_matches_bit_oracle(self, n, data):
        # the adjacency rows decoded straight from a record equal the graph
        # built from the mask's bits read by the definition: pair (i, j),
        # i < j, is bit C(n,2)-1-(j(j-1)/2+i)
        top = n * (n - 1) // 2 - 1
        mask = data.draw(st.integers(0, (1 << top + 1) - 1))
        g = build_graph(n, [(i, j) for j in range(n) for i in range(j)
                            if mask >> (top - (j * (j - 1) // 2 + i)) & 1])
        back = parse_graph6(write_graph6(g))
        assert back.masks == g.masks
        assert back == g
        assert mask_rows(n, mask) == g.masks
        assert edge_mask(n, _edge_list(mask_rows(n, mask))) == mask

    def test_multi_record(self):
        graphs = list(iter_graph6("Bw\nBg\n\nA_\n"))
        assert [g.n for g in graphs] == [3, 3, 2]
        assert graphs[0] == complete(3)

    @given(st.binary(max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_never_crashes(self, data):
        try:
            parse_graph6(data)
        except GraphError:
            pass

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_text_never_crashes(self, data):
        try:
            list(iter_graph6(data))
        except GraphError:
            pass
