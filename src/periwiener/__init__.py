"""Distance-based topological indices of connected graphs, centered on the
peripheral hyper-Wiener index, plus a self-auditing registry that checks
every registered closed form and bound against brute-force oracles."""

from .errors import (
    EdgeListSyntaxError,
    GraphError,
    InvalidCodeError,
    InvalidParameterError,
    InvariantError,
    MalformedGraph6Error,
    NotATreeError,
    NotConnectedError,
    SelfLoopError,
    TooLargeError,
    TrivialGraphError,
    VertexRangeError,
)
from .graphs import (
    DistanceMatrix,
    Graph,
    build_graph,
    cartesian_product,
    distance_matrix,
    is_connected,
)
from .graphio import (
    iter_graph6,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .indices import (
    Profile,
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

__version__ = "0.1.0"

__all__ = [
    "DistanceMatrix",
    "EdgeListSyntaxError",
    "Graph",
    "GraphError",
    "InvalidCodeError",
    "InvalidParameterError",
    "InvariantError",
    "MalformedGraph6Error",
    "NotATreeError",
    "NotConnectedError",
    "Profile",
    "SelfLoopError",
    "TooLargeError",
    "TrivialGraphError",
    "VertexRangeError",
    "build_graph",
    "cartesian_product",
    "distance_matrix",
    "hyper_wiener",
    "index_vector",
    "is_connected",
    "iter_graph6",
    "parse_edge_list",
    "parse_graph6",
    "pendant_vertices",
    "peripheral_distance_number",
    "peripheral_hyper_wiener",
    "peripheral_wiener",
    "terminal_hyper_wiener",
    "terminal_wiener",
    "wiener",
    "write_edge_list",
    "write_graph6",
]
