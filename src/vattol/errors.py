"""Exception types shared across the package.

Everything derives from :class:`VattolError`, which itself derives from
``ValueError`` so generic callers can catch invalid inputs the usual way.
"""


class VattolError(ValueError):
    """Base class for all errors raised by this package."""


class BadParameter(VattolError):
    """A generator or operation argument is outside its valid range."""


class SelfLoop(VattolError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(VattolError):
    """The same undirected edge was given more than once."""


class BadVertexId(VattolError):
    """A vertex id is outside ``[0, n)``."""


class NonPositiveWeight(VattolError):
    """A vertex cost or value is not a positive finite number."""


class TrivialGraph(VattolError):
    """The graph has fewer than two vertices; resilience is undefined."""


class DisconnectedInput(VattolError):
    """The operation requires a connected graph."""


class EmptySet(VattolError):
    """A nonempty vertex set is required."""


class FullSet(VattolError):
    """A proper subset of the vertex set is required."""


class VolumeTooLarge(VattolError):
    """The set's volume exceeds half the total volume."""


class TooLarge(VattolError):
    """The graph exceeds the hard cap of exact enumeration (n = 24)."""


class EmptyRemainder(VattolError):
    """Removing the set leaves no vertices behind."""


class NotRegular(VattolError):
    """The check applies to regular graphs only."""


class IsolatedVertex(VattolError):
    """The graph has a zero-degree vertex."""


class NoConvergence(VattolError):
    """The eigensolver did not reach the requested tolerance."""


class RetryLimitExceeded(VattolError):
    """The random generator gave up after too many rejected attempts."""
