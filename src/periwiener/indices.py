"""The six distance-based indices, computed straight from their definitions,
and `Profile`, the one record that holds them.

Everything here is exact integer arithmetic over a DistanceMatrix.  These
functions are the brute-force oracle that the tests hold the `corpus`
reach-layer engine to, and through it every audit check; the program itself
uses only `Profile`.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError, TrivialGraphError
from .graphs import DistanceMatrix, Graph, distance_matrix


class Profile(NamedTuple):
    """Metric summary and all six indices of one connected graph.

    A NamedTuple, because the corpus sweep builds one per isomorphism class
    and the value scan and the audit checks read fields by position
    (`Profile._fields`)."""

    n: int
    m: int
    diameter: int
    radius: int
    k: int
    pendant_count: int
    w: int
    ww: int
    pw: int
    pww: int
    tw: int
    tww: int


# the six indices: the Profile fields after its six structure fields
INDEX_NAMES = Profile._fields[6:]


def _half_even(total: int, what: str) -> int:
    """total // 2 for a sum of d + d^2 terms, which is always even."""
    if total % 2:
        raise InvariantError(f"{what}: sum of d + d^2 is odd ({total})")
    return total // 2


def _require_nontrivial(n: int) -> None:
    if n < 2:
        raise TrivialGraphError("index operations need at least 2 vertices")


def wiener(dm: DistanceMatrix) -> int:
    """Sum of distances over unordered vertex pairs."""
    _require_nontrivial(dm.n)
    return sum(dm.dist[u][v] for u in range(dm.n) for v in range(u + 1, dm.n))


def hyper_wiener(dm: DistanceMatrix) -> int:
    """Half the pair sum of d + d^2; always an exact integer."""
    _require_nontrivial(dm.n)
    total = 0
    for u in range(dm.n):
        row = dm.dist[u]
        for v in range(u + 1, dm.n):
            d = row[v]
            total += d + d * d
    return _half_even(total, "WW")


def peripheral_distance_number(dm: DistanceMatrix, v: int) -> int:
    """Sum of distances from v to every peripheral vertex."""
    _require_nontrivial(dm.n)
    row = dm.dist[v]
    return sum(row[u] for u in dm.periphery)


def _restricted_pair_sums(dm: DistanceMatrix, vertices: tuple[int, ...]) -> tuple[int, int]:
    """(sum of d, sum of d + d^2) over unordered pairs within `vertices`."""
    sum_d = 0
    sum_dd = 0
    for a in range(len(vertices)):
        row = dm.dist[vertices[a]]
        for b in range(a + 1, len(vertices)):
            d = row[vertices[b]]
            sum_d += d
            sum_dd += d + d * d
    return sum_d, sum_dd


def peripheral_wiener(dm: DistanceMatrix) -> int:
    """Sum of distances over unordered pairs of peripheral vertices."""
    _require_nontrivial(dm.n)
    peri = tuple(sorted(dm.periphery))
    total, _ = _restricted_pair_sums(dm, peri)
    # cross-check against the half-sum of peripheral distance numbers
    by_vertex = sum(peripheral_distance_number(dm, v) for v in peri)
    if 2 * total != by_vertex:
        raise InvariantError(f"PW: pair sum {total} is not half the vertex sum {by_vertex}")
    return total


def peripheral_hyper_wiener(dm: DistanceMatrix) -> int:
    """Half the pair sum of d + d^2 over pairs of peripheral vertices."""
    _require_nontrivial(dm.n)
    peri = tuple(sorted(dm.periphery))
    _, sum_dd = _restricted_pair_sums(dm, peri)
    return _half_even(sum_dd, "PWW")


def pendant_vertices(g: Graph) -> tuple[int, ...]:
    return tuple(v for v in range(g.n) if g.degree(v) == 1)


def terminal_wiener(dm: DistanceMatrix, g: Graph) -> int:
    """Sum of distances over pairs of pendant vertices; 0 if fewer than 2."""
    _require_nontrivial(dm.n)
    total, _ = _restricted_pair_sums(dm, pendant_vertices(g))
    return total


def terminal_hyper_wiener(dm: DistanceMatrix, g: Graph) -> int:
    """Half the pair sum of d + d^2 over pendant pairs; 0 if fewer than 2."""
    _require_nontrivial(dm.n)
    _, sum_dd = _restricted_pair_sums(dm, pendant_vertices(g))
    return _half_even(sum_dd, "TWW")


def index_vector(g: Graph, dm: DistanceMatrix | None = None) -> Profile:
    """The profile of g from a single distance matrix, index by index from
    the definitions (the oracle for `corpus.profile_of`)."""
    _require_nontrivial(g.n)
    if dm is None:
        dm = distance_matrix(g)
    return Profile(
        n=g.n,
        m=g.m,
        diameter=dm.diameter,
        radius=dm.radius,
        k=len(dm.periphery),
        pendant_count=len(pendant_vertices(g)),
        w=wiener(dm),
        ww=hyper_wiener(dm),
        pw=peripheral_wiener(dm),
        pww=peripheral_hyper_wiener(dm),
        tw=terminal_wiener(dm, g),
        tww=terminal_hyper_wiener(dm, g),
    )
