"""Exceptions shared across the package."""


class PreconditionError(ValueError):
    """An operation was called on a graph that violates its precondition."""


class NonIndependentCoreError(PreconditionError):
    """The graph has two adjacent core vertices, so no core-labelling exists."""

    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(
            f"core vertices {self.pair[0]} and {self.pair[1]} are adjacent"
        )


class EdgeListParseError(ValueError):
    """Base for edge-list parse failures; carries the 1-based offending line."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class MalformedHeaderError(EdgeListParseError):
    pass


class VertexRangeError(EdgeListParseError):
    pass


class SelfLoopError(EdgeListParseError):
    pass


class DuplicateEdgeError(EdgeListParseError):
    pass


class TheoremViolationError(RuntimeError):
    """An exactly-checked structural claim failed on the given input.

    Either the implementation is wrong, or the claim does not hold as widely
    as advertised; the offending data is kept for replay either way.  Given
    the graph, report is {"edges": its edges as a list of (u, w) pairs,
    "n": its order} followed by the context keywords in the order given,
    so Graph(report["n"], report["edges"]) replays it; without a graph,
    report is None.
    """

    def __init__(self, message, graph=None, **context):
        self.report = (None if graph is None else
                       {"edges": list(graph.edges()), "n": graph.n, **context})
        super().__init__(message)
