"""Immutable simple undirected graphs with bit-vector vertex sets.

Vertices are dense integer ids ``0..n-1``.  Vertex sets are plain Python
integers used as bit vectors: bit ``i`` set means vertex ``i`` is in the
set.  Arbitrary-precision ints make this exact for any ``n``, and it keeps
subset enumeration, component search and witness tie-breaking cheap and
fully deterministic.

Graphs are frozen after construction, so any number of concurrent readers
is safe and every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence

from .errors import (
    BadParameter,
    BadVertexId,
    DisconnectedInput,
    DuplicateEdge,
    EmptyRemainder,
    NonPositiveWeight,
    SelfLoop,
)

# A vertex set: bit i set <=> vertex i in the set.
VertexMask = int


def mask_from_vertices(vertices: Iterable[int]) -> VertexMask:
    """Pack an iterable of vertex ids into a bit mask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_from_mask(mask: VertexMask) -> list[int]:
    """Unpack a bit mask into a sorted list of vertex ids."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def full_mask(n: int) -> VertexMask:
    """The set of all ``n`` vertices."""
    return (1 << n) - 1


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with optional per-vertex cost/value weights.

    Fields
    ------
    n : vertex count; vertices are ids ``0..n-1``
    adj : per-vertex sorted neighbor tuples; symmetric, no loops, no
        parallel edges
    costs, values : per-vertex positive weights, or ``None`` for the
        unweighted (all ones) case; either both are set or neither is.
        An ``int`` or ``Fraction`` weight is kept as given, so it stays
        exact; any other number is stored as a ``float``

    Instances should be created through :func:`build_graph`, which
    validates all invariants.  Direct construction skips validation.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    costs: tuple[float | Fraction, ...] | None = None
    values: tuple[float | Fraction, ...] | None = None

    @cached_property
    def deg(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adj)

    @cached_property
    def m(self) -> int:
        return sum(self.deg) // 2

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighborhood of each vertex as a bit mask."""
        return tuple(mask_from_vertices(nbrs) for nbrs in self.adj)

    @cached_property
    def _connected(self) -> bool:
        return len(_walk(self.adj, 0, bytearray(self.n))) == self.n

    @cached_property
    def unit_weighted(self) -> bool:
        """True when every cost and value equals one."""
        if self.costs is None and self.values is None:
            return True
        return all(c == 1.0 for c in self.costs) and all(
            v == 1.0 for v in self.values
        )

    @cached_property
    def cost_vector(self) -> tuple[float | Fraction, ...]:
        return self.costs if self.costs is not None else (1.0,) * self.n

    @cached_property
    def value_vector(self) -> tuple[float | Fraction, ...]:
        return self.values if self.values is not None else (1.0,) * self.n

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ``(u, v)`` with ``u < v``, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __repr__(self) -> str:  # keep reprs short; adj can be huge
        w = "" if self.unit_weighted else ", weighted"
        return f"Graph(n={self.n}, m={self.m}{w})"


def _weight(x: float | Fraction) -> int | float | Fraction:
    """An integer weight (``numpy.int64`` too) as an exact ``int``, a
    ``Fraction`` as given, any other as a ``float``."""
    if isinstance(x, numbers.Integral):
        return int(x)
    return x if isinstance(x, Fraction) else float(x)


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    costs: Sequence[float | Fraction] | None = None,
    values: Sequence[float | Fraction] | None = None,
) -> Graph:
    """Validate and build a canonical :class:`Graph`.

    Rejects self-loops, duplicate edges (in either orientation), out of
    range endpoints and weights that are not positive finite numbers.  If
    only one of ``costs`` / ``values`` is given the other defaults to it;
    if neither is given the graph is unweighted.
    """
    if n < 1:
        raise BadParameter(f"vertex count must be at least 1, got {n}")
    seen: set[tuple[int, int]] = set()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise BadVertexId(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)

    cost_t = value_t = None
    if costs is not None or values is not None:
        if costs is None:
            costs = values
        if values is None:
            values = costs
        if len(costs) != n or len(values) != n:
            raise BadParameter(
                f"weight vectors must have length {n}, got {len(costs)}/{len(values)}"
            )
        cost_t = tuple(_weight(c) for c in costs)
        value_t = tuple(_weight(v) for v in values)
        for x in cost_t + value_t:
            if not 0.0 < x < math.inf:
                raise NonPositiveWeight(f"weights must be positive and finite, got {x}")

    return Graph(
        n=n,
        adj=tuple(tuple(sorted(lst)) for lst in nbrs),
        costs=cost_t,
        values=value_t,
    )


def _trusted_graph(
    n: int, adj: tuple[tuple[int, ...], ...], masks: tuple[int, ...], deg: tuple[int, ...], m: int
) -> Graph:
    """A connected unweighted graph from sorted neighbour tuples, their
    masks, the degrees and the edge count, which the caller built simple
    and symmetric; nothing is re-validated."""
    g = object.__new__(Graph)
    g.__dict__.update(
        n=n, adj=adj, costs=None, values=None, adj_masks=masks, _connected=True, deg=deg, m=m
    )
    return g


def _check_mask(g: Graph, mask: VertexMask) -> None:
    if mask < 0 or mask >> g.n:
        raise BadVertexId(f"mask {mask:#x} has bits outside [0, {g.n})")


def _walk(adj: Sequence[Sequence[int]], root: int, seen: bytearray) -> list[int]:
    """Mark in ``seen`` and list the unmarked vertices that ``root`` reaches over
    ``adj``; no bit masks, which cost n^2/16 bytes on a path-like labeling."""
    seen[root] = 1
    piece = [root]
    for u in piece:  # the loop reads what it appends
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                piece.append(v)
    return piece


def _pieces(g: Graph, removed: VertexMask) -> list[list[int]]:
    """The vertex lists of the components of ``V - removed``, most vertices
    first, ties to the piece with the lowest vertex: each piece is walked
    from its lowest vertex, and the sort is stable."""
    _check_mask(g, removed)
    seen = bytearray(g.n)
    for v in vertices_from_mask(removed):
        seen[v] = 1
    pieces = [_walk(g.adj, v, seen) for v in range(g.n) if not seen[v]]
    pieces.sort(key=len, reverse=True)
    return pieces


def components(g: Graph, removed: VertexMask = 0) -> list[VertexMask]:
    """Connected components of the subgraph induced on ``V - removed``.

    Returned as bit masks ordered by decreasing size, ties broken toward
    the component containing the smallest vertex id.  Empty list when
    every vertex is removed.  This ordering is part of the contract so
    that witness sets are reproducible across runs and platforms.
    """
    return list(map(mask_from_vertices, _pieces(g, removed)))


def largest_component(g: Graph, removed: VertexMask = 0) -> VertexMask:
    """The largest surviving component after deleting ``removed``.

    Ties break toward the component containing the smallest vertex id.
    """
    pieces = _pieces(g, removed)
    if not pieces:
        raise EmptyRemainder("removed every vertex; no component remains")
    return mask_from_vertices(pieces[0])


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches all vertices (true for n=1).
    The traversal runs once per graph; ``g`` stores the flag."""
    return g._connected


def volume(g: Graph, s: VertexMask) -> int:
    """Sum of degrees of the vertices in ``s``; ``volume(V) == 2m``."""
    _check_mask(g, s)
    return sum(map(g.deg.__getitem__, vertices_from_mask(s)))


def cut_size(g: Graph, s: VertexMask) -> int:
    """Number of edges with exactly one endpoint in ``s``.

    Symmetric: ``cut_size(g, s) == cut_size(g, complement(s))``.
    """
    _check_mask(g, s)
    adj_masks = g.adj_masks
    outside = full_mask(g.n) & ~s
    return sum((adj_masks[v] & outside).bit_count() for v in vertices_from_mask(s))


def regularity(g: Graph) -> int | None:
    """The common degree ``d`` if the graph is d-regular, else ``None``."""
    degs = set(g.deg)
    if len(degs) == 1:
        return g.deg[0]
    return None


def restrict_to_largest_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, ids relabeled to ``0..k-1``.

    Relabeling preserves the relative order of the surviving vertex ids.
    Identity on connected graphs.  This is the explicit opt-in a caller
    uses to give a disconnected graph a non-trivial resilience value.
    """
    if is_connected(g):
        return g
    keep = sorted(_pieces(g, 0)[0])
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u in keep for v in g.adj[u] if u < v]
    costs = values = None
    if g.costs is not None:
        costs = [g.costs[v] for v in keep]
        values = [g.values[v] for v in keep]
    return build_graph(len(keep), edges, costs, values)


def require_connected(g: Graph) -> None:
    """Raise :class:`DisconnectedInput` unless ``g`` is connected."""
    if not is_connected(g):
        raise DisconnectedInput(
            "graph is disconnected; restrict_to_largest_component() first"
        )


# ---------------------------------------------------------------------------
# Edge-list file format.
#
#   # comment                      '#' starts a comment line
#   w <u> <cost> <value>           optional vertex weight lines, before edges;
#                                  a weight is a decimal or an exact p/q
#   <u> <v>                        one edge per line, 0-based ids
#
# n is the number of distinct vertex ids mentioned on edge and weight
# lines, which must be exactly 0..n-1: a gap is rejected before anything
# is allocated, so n is at most twice the number of lines.  The writer
# emits edges with u < v, sorted; weight lines are emitted for every
# vertex whenever the graph is weighted or has isolated vertices (so
# round-trips are lossless).


def write_edge_list(g: Graph, out: IO[str]) -> None:
    """Write ``g`` in the edge-list text format."""
    if not g.unit_weighted or 0 in g.deg:
        cost = g.cost_vector
        value = g.value_vector
        for u in range(g.n):
            out.write(f"w {u} {cost[u]} {value[u]}\n")
    for u, v in g.edges():
        out.write(f"{u} {v}\n")


def write_edge_list_path(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)


def read_edge_list(src: IO[str]) -> Graph:
    """Parse the edge-list text format into a :class:`Graph`."""
    edges: list[tuple[int, int]] = []
    weights: dict[int, tuple[float | Fraction, float | Fraction]] = {}
    mentioned: set[int] = set()
    saw_edge = False
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "w":
            if saw_edge:
                raise BadParameter(
                    f"line {lineno}: weight lines must precede edge lines"
                )
            if len(parts) != 4:
                raise BadParameter(f"line {lineno}: expected 'w u cost value'")
            try:
                u = int(parts[1])
                cost, value = (Fraction(t) if "/" in t else float(t) for t in parts[2:])
            except (ValueError, ZeroDivisionError):
                raise BadParameter(f"line {lineno}: malformed weight line") from None
            if u < 0:
                raise BadVertexId(f"line {lineno}: negative vertex id {u}")
            if u in weights:
                raise BadParameter(f"line {lineno}: duplicate weight for vertex {u}")
            weights[u] = (cost, value)
            mentioned.add(u)
            continue
        if len(parts) != 2:
            raise BadParameter(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadParameter(f"line {lineno}: malformed edge line") from None
        if u < 0 or v < 0:
            raise BadVertexId(f"line {lineno}: negative vertex id")
        saw_edge = True
        edges.append((u, v))
        mentioned.update((u, v))
    if not mentioned:
        raise BadParameter("empty edge list: no vertices mentioned")
    n = len(mentioned)
    if max(mentioned) != n - 1:
        missing = next(u for u in range(n) if u not in mentioned)
        raise BadParameter(
            f"vertex {missing} is on no edge or weight line, "
            f"but the largest id is {max(mentioned)}"
        )
    costs = values = None
    if weights:
        costs = [weights.get(u, (1.0, 1.0))[0] for u in range(n)]
        values = [weights.get(u, (1.0, 1.0))[1] for u in range(n)]
    return build_graph(n, edges, costs, values)


def read_edge_list_path(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return read_edge_list(fh)
