"""Exception types shared across the package.

Every error the package raises on purpose is a GraphError built from its
message alone, so that it pickles, comes back whole from a worker process,
and can be raised again with its location prefixed.  Each class carries the
exit code the command line reports it with: 2 (bad usage or input, or a
worker process that died) unless it overrides it, 3 for a precondition on an
input graph, 4 for a failed internal cross-check."""


class GraphError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = 2


class SelfLoopError(GraphError):
    """An edge joins a vertex to itself."""


class VertexRangeError(GraphError):
    """A vertex index falls outside 0..n-1, or the vertex count is invalid."""


class NotConnectedError(GraphError):
    """A metric operation was asked for on a disconnected graph."""

    exit_code = 3


class TrivialGraphError(GraphError):
    """Index operations reject the one-vertex graph."""

    exit_code = 3


class NotATreeError(GraphError):
    """Tree-only machinery received a graph with a cycle."""

    exit_code = 3


class InvalidParameterError(GraphError):
    """A generator or closed form got parameters outside its domain."""


class InvalidCodeError(GraphError):
    """A caterpillar/lobster code violates its structural constraints."""


class EdgeListSyntaxError(GraphError):
    """Bad edge-list text; the message names the 1-based offending line."""


class MalformedGraph6Error(GraphError):
    """The byte sequence is not a valid graph6 record."""


class TooLargeError(GraphError):
    """The requested object exceeds a documented size ceiling."""


class WorkerDiedError(GraphError):
    """A worker process of `corpus.run_jobs` ended while it held a job."""


class InvariantError(GraphError):
    """An internal cross-check failed: two computations of one value disagree."""

    exit_code = 4
