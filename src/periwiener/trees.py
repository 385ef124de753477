"""Tree-specific machinery: cut-counting formulas for the four indices and
the closed forms for stars, double stars, diameter-4 trees, caterpillars,
lobsters, and tree complements.

The closed_form_* functions evaluate the registered formulas verbatim, typos
and all; the *_pww companions give the desk-corrected exact values.  The
audit is what compares both against the brute-force indices.  A
caterpillar or lobster code is a plain tuple of leaf counts (any sequence
of ints), and each closed form checks its parameters with its family's one
check in `generators`, so a parameter that breaks a family's rules raises
the same error from its generator and from its closed forms.

Side convention for path cuts: x lies on the u side of the u-v path iff
d(x,v) = d(x,u) + d(u,v).  Endpoints count for their own side; vertices
strictly interior to the path belong to neither side.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from . import corpus
from .errors import InvalidCodeError, InvalidParameterError, NotATreeError, NotConnectedError
from .generators import _caterpillar_code, _check_double_star, _depth2_counts, _lobster_code
from .graphs import Graph, _bfs, _bits
from .indices import Profile


@dataclass(frozen=True, slots=True)
class TreeView:
    """A tree with a rooted traversal order, its periphery and its profile."""

    graph: Graph
    order: tuple[int, ...]
    parent: tuple[int, ...]
    periphery: frozenset[int]
    profile: Profile


def as_tree(g: Graph) -> TreeView:
    """Check connectivity + acyclicity and set up the rooted view.

    A BFS from vertex 0 gives the rooted order and the parents; one engine
    pass (`corpus.layered_profile`) gives the profile and, from its reach
    layers, the periphery.  No distance matrix is built.
    """
    order, parent, _ = _bfs(g, 0)
    if len(order) < g.n:
        raise NotConnectedError("graph is not connected")
    if g.m != g.n - 1:
        raise NotATreeError(f"m = {g.m} but a tree on {g.n} vertices has {g.n - 1} edges")
    profile, balls = corpus.layered_profile(g)
    return TreeView(
        graph=g,
        order=tuple(order),
        parent=tuple(parent),
        periphery=frozenset(_bits(corpus.periphery_mask(balls))),
        profile=profile,
    )


def _subtree_counts(t: TreeView, marked: frozenset[int] | None) -> list[int]:
    """Per-vertex count of marked vertices in the subtree below it
    (all vertices when marked is None)."""
    if marked is None:
        size = [1] * t.graph.n
    else:
        size = [1 if v in marked else 0 for v in range(t.graph.n)]
    for v in reversed(t.order[1:]):
        size[t.parent[v]] += size[v]
    return size


def wiener_by_edge_cuts(t: TreeView) -> int:
    """W(T) as the sum over edges of the two side sizes multiplied."""
    n = t.graph.n
    size = _subtree_counts(t, None)
    return sum(size[v] * (n - size[v]) for v in t.order[1:])


def peripheral_wiener_by_edge_cuts(t: TreeView) -> int:
    """PW(T) as the sum over edges of the two peripheral side counts."""
    k = len(t.periphery)
    size = _subtree_counts(t, t.periphery)
    return sum(size[v] * (k - size[v]) for v in t.order[1:])


def _path_cut_sum(t: TreeView, marked: frozenset[int] | None) -> int:
    """Sum over unordered vertex pairs of (u-side count) * (v-side count),
    counting only `marked` vertices (all vertices when marked is None).

    The u side of the u-v path is the subtree of u when the tree hangs from
    v.  With the tree rooted as in `t` and sub[x] the marked count below x,
    that side holds sub[u] marked vertices, unless u is an ancestor of v:
    then it holds K - sub[c], for K marked in all and c the child of u
    toward v.  So a pair contributes sub[u] * sub[v] unless one endpoint is
    an ancestor of the other, and the ancestor pairs of each v are summed
    along its root path; O(n) overall.
    """
    sub = _subtree_counts(t, marked)
    k = sub[t.order[0]]
    above = [0] * t.graph.n  # sum of sub[a] over the proper ancestors a of x
    cut = [0] * t.graph.n  # sum of k - sub[y] over y from x up to below the root
    for x in t.order[1:]:
        p = t.parent[x]
        above[x] = above[p] + sub[p]
        cut[x] = cut[p] + k - sub[x]
    total = sum(sub)
    all_pairs = (total * total - sum(c * c for c in sub)) // 2
    return all_pairs + sum(c * (cut[x] - above[x]) for x, c in enumerate(sub))


def hyper_wiener_by_path_cuts(t: TreeView) -> int:
    """WW(T) as the sum over vertex pairs of the two side sizes multiplied."""
    return _path_cut_sum(t, None)


def peripheral_hyper_wiener_by_path_cuts(t: TreeView) -> int:
    """PWW(T) with sides counting peripheral vertices only."""
    return _path_cut_sum(t, t.periphery)


# --- closed forms (evaluated verbatim as registered) -----------------------


def closed_form_star(n: int) -> int:
    """Registered diameter-2 (star K_{1,n}) closed form: 3*C(n,2)."""
    if n < 2:
        raise InvalidParameterError(f"star closed form needs n >= 2 leaves, got {n}")
    return 3 * comb(n, 2)


def closed_form_double_star(m: int, n: int) -> int:
    """Registered double-star closed form, verbatim: 6mn + 3m + 3n."""
    _check_double_star(m, n)
    return 6 * m * n + 3 * m + 3 * n


def double_star_pww(m: int, n: int) -> int:
    """Exact PWW of the double star S_{m,n}: 6mn + 3*C(m,2) + 3*C(n,2)."""
    _check_double_star(m, n)
    return 6 * m * n + 3 * comb(m, 2) + 3 * comb(n, 2)


def closed_form_diam4(children_counts: Sequence[int]) -> int:
    """Registered diameter-4 closed form: 10*sum_{i<j} c_i c_j + 3*sum C(c_i,2)."""
    counts = _depth2_counts(children_counts)
    if sum(1 for c in counts if c >= 1) < 2:
        raise InvalidParameterError(
            f"diameter-4 tree needs at least two nonempty child sets, got {counts}"
        )
    cross = sum(
        counts[i] * counts[j]
        for i in range(len(counts))
        for j in range(i + 1, len(counts))
    )
    return 10 * cross + 3 * sum(comb(c, 2) for c in counts)


def closed_form_caterpillar(code: Sequence[int]) -> int:
    """Registered caterpillar closed form:
    3*C(c_1,2) + 3*C(c_s,2) + (c_1*c_s/2)(s+1)(s+2)."""
    code = _caterpillar_code(code)
    s = len(code)
    if s < 2:
        raise InvalidCodeError(f"caterpillar closed form needs spine length >= 2, got {s}")
    c1, cs = code[0], code[-1]
    # (s+1)(s+2) is a product of consecutive integers, so the halving is exact
    return 3 * comb(c1, 2) + 3 * comb(cs, 2) + c1 * cs * (s + 1) * (s + 2) // 2


def closed_form_lobster(code: Sequence[int], c: int) -> int:
    """Registered lobster closed form, verbatim:
    3C(c_1,2) + 3C(c_s,2) + 3C(c,2) + 10*c_1*c + c_s(c_1+c)(s+1)(s+2)."""
    code = _lobster_code(code, c)
    s = len(code)
    c1, cs = code[0], code[-1]
    return (
        3 * comb(c1, 2)
        + 3 * comb(cs, 2)
        + 3 * comb(c, 2)
        + 10 * c1 * c
        + cs * (c1 + c) * (s + 1) * (s + 2)
    )


def lobster_pww(code: Sequence[int], c: int) -> int:
    """Exact PWW of the lobster: same as the registered form but with the
    final term halved."""
    code = _lobster_code(code, c)
    s = len(code)
    c1, cs = code[0], code[-1]
    # (s+1)(s+2) is a product of consecutive integers, so the halving is exact
    tail = cs * (c1 + c) * (s + 1) * (s + 2) // 2
    return 3 * comb(c1, 2) + 3 * comb(cs, 2) + 3 * comb(c, 2) + 10 * c1 * c + tail


def tree_pww_bounds(d: int, k: int) -> tuple[int, int]:
    """Registered tree bounds, verbatim:
    k*C(d+2k-3, 2) <= PWW(T) <= 4*C(d+1, 2)*C(k, 2)."""
    if d < 1 or k < 2:
        raise InvalidParameterError(f"bounds need d >= 1 and k >= 2, got ({d}, {k})")
    return k * comb(d + 2 * k - 3, 2), 4 * comb(d + 1, 2) * comb(k, 2)


def complement_tree_pww(t: TreeView) -> int | None:
    """PWW of the tree's complement, or None when the complement is
    disconnected (stars, P_2, P_3) or the tree has one vertex."""
    g = t.graph
    if g.n < 2:
        return None
    p = corpus.complement_profile(g.n, g.masks)
    return None if p is None else p.pww
