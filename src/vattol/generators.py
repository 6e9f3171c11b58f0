"""Graph family constructors and exhaustive small-graph enumeration.

All generators return canonical :class:`~vattol.graph.Graph` objects and
are fully deterministic; the random family is seeded and reproduces the
same edge set for the same ``(n, d, seed)`` on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, count
from typing import Iterator

import numpy as np

from .errors import BadParameter, RetryLimitExceeded
from .graph import Graph, _trusted_graph, build_graph, is_connected, vertices_from_mask

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_RETRY_LIMIT = 10_000
#: Words drawn for one block of pairing attempts, unless one attempt needs more.
_DRAW_CELLS = 1 << 12


def path(n: int) -> Graph:
    """Path on ``n >= 2`` vertices: edges (i, i+1)."""
    if n < 2:
        raise BadParameter(f"path needs n >= 2, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices; 2-regular and connected."""
    if n < 3:
        raise BadParameter(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Complete graph on ``n >= 2`` vertices; (n-1)-regular."""
    if n < 2:
        raise BadParameter(f"complete needs n >= 2, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves: int) -> Graph:
    """Star with a given number of leaves; vertex 0 is the center."""
    if leaves < 2:
        raise BadParameter(f"star needs at least 2 leaves, got {leaves}")
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def hypercube(k: int) -> Graph:
    """k-dimensional hypercube, ``1 <= k <= 6``; 2^k vertices, k-regular."""
    if not 1 <= k <= 6:
        raise BadParameter(f"hypercube dimension must be in [1, 6], got {k}")
    n = 1 << k
    return build_graph(n, [(v, v | 1 << b) for v in range(n) for b in range(k) if not v >> b & 1])


def complete_bipartite(d: int) -> Graph:
    """Balanced complete bipartite graph K_{d,d}; d-regular on 2d vertices."""
    if d < 1:
        raise BadParameter(f"complete_bipartite needs d >= 1, got {d}")
    return build_graph(2 * d, [(u, d + v) for u in range(d) for v in range(d)])


def circulant(n: int, offsets: list[int]) -> Graph:
    """Circulant graph: edges {i, (i+o) mod n} for each offset.

    Regular with degree ``2 * len(offsets)``, minus one when ``n`` is even
    and ``n/2`` is among the offsets.
    """
    if n < 3:
        raise BadParameter(f"circulant needs n >= 3, got {n}")
    if not offsets:
        raise BadParameter("circulant needs at least one offset")
    if len(set(offsets)) != len(offsets):
        raise BadParameter(f"offsets must be distinct, got {offsets}")
    for o in offsets:
        if not 1 <= o <= n // 2:
            raise BadParameter(f"offset {o} outside [1, {n // 2}] for n={n}")
    edges = {tuple(sorted((i, (i + o) % n))) for i in range(n) for o in offsets}
    return build_graph(n, sorted(edges))


def petersen() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return build_graph(10, sorted((min(u, v), max(u, v)) for u, v in edges))


def _splitmix64(seed: int | np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` words of the splitmix64 stream of each seed, on
    a new last axis.  splitmix64 (Steele, Lea & Flood 2014) is small and
    platform-stable, and its k-th word is a pure function of
    ``seed + k * gamma``, so streams are one wrapping uint64 expression."""
    z = _GAMMA * np.arange(1, length + 1, dtype=np.uint64)
    z = z + np.asarray(seed, dtype=np.uint64)[..., None]
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= np.uint64(factor)
    return z ^ (z >> 31)


def _pairings(n: int, d: int, seed: int) -> Iterator[set[tuple[int, int]] | None]:
    """The edge set of the stub pairing of each attempt seed ``seed``,
    ``seed + 1``, .. (wrapping at 2^64), or None where it is not simple.

    Swap i (from the top down) of the shuffle takes the attempt stream's
    next word below the largest multiple of ``i + 1``, mod ``i + 1``.  The
    words of a block of attempts are drawn as one array of about
    :data:`_DRAW_CELLS` words; an attempt holding a word that this
    rejection rule discards is redrawn word by word.
    """
    if not 1 <= d < n:
        raise BadParameter(f"degree must satisfy 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise BadParameter(f"n*d must be even, got n={n}, d={d}")
    all_stubs = [v for v in range(n) for _ in range(d)]
    top = len(all_stubs) - 1
    bounds = np.arange(top + 1, 1, -1, dtype=np.uint64)
    keep = _MASK64 - (np.uint64(_MASK64) % bounds + 1) % bounds  # largest kept word
    block = max(1, _DRAW_CELLS // top)
    while True:
        seeds = seed + np.arange(block, dtype=np.uint64)
        words = _splitmix64(seeds, top)
        redraw = (words > keep).any(axis=1).tolist()
        for s, row, exact in zip(seeds.tolist(), words % bounds, redraw):
            draws = row.tolist()
            if exact:
                stream = chain.from_iterable(
                    _splitmix64((s + c * top * _GAMMA) & _MASK64, top).tolist() for c in count()
                )
                kept = zip(bounds.tolist(), keep.tolist())
                draws = [next(w for w in stream if w <= ok) % b for b, ok in kept]
            stubs = all_stubs.copy()
            edges = set()
            for i, j in zip(range(top, 0, -1), draws):
                stubs[i], stubs[j] = stubs[j], stubs[i]
                if i % 2 and i > 1:
                    continue  # stub i - 1, its partner, can still move
                k = i - i % 2  # stubs k and k + 1 are now final
                u, v = stubs[k], stubs[k + 1]
                key = (u, v) if u < v else (v, u)
                if u == v or key in edges:
                    yield None
                    break
                edges.add(key)
            else:
                yield edges
        seed = (seed + block) & _MASK64


def _first_sample(n: int, d: int, seed: int, connected: bool) -> tuple[Graph, int]:
    """The first simple (and, if asked, connected) sample of the attempts
    from ``seed``, and the seed of the run of attempts that found it."""
    seed &= _MASK64
    start = 0  # that seed's offset: one past the last sample turned down
    for offset, edges in enumerate(_pairings(n, d, seed)):
        if edges is not None:
            g = build_graph(n, sorted(edges))
            if not connected or is_connected(g):
                return g, (seed + start) & _MASK64
            start = offset + 1
            if start >= _RETRY_LIMIT:
                raise RetryLimitExceeded(
                    f"no connected {d}-regular graph on {n} vertices after {_RETRY_LIMIT} seeds"
                )
        elif offset + 1 - start == _RETRY_LIMIT:
            raise RetryLimitExceeded(
                f"no simple {d}-regular pairing on {n} vertices after {_RETRY_LIMIT} attempts"
            )


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Seeded d-regular graph from the stub-pairing (configuration) model.

    Each vertex contributes ``d`` stubs, shuffled by a Fisher-Yates driven
    by a splitmix64 stream seeded with the attempt's seed and paired
    consecutively; a pair is checked once the shuffle has fixed both its
    stubs.  An attempt that makes a self-loop or a duplicate edge ends at
    that pair and is retried with ``seed + 1`` (wrapping at 2^64), up to
    10,000 attempts.  The streams of a block of attempts, about 4,096
    words, are drawn as one array, giving the graph that word-by-word
    draws give.  Connectivity is NOT guaranteed; the caller checks.
    """
    return _first_sample(n, d, seed, connected=False)[0]


def connected_random_regular(n: int, d: int, seed: int) -> tuple[Graph, int]:
    """First connected sample at or after ``seed``; returns (graph, seed used).

    The seed used is the least ``s >= seed`` (wrapping at 2^64) whose
    :func:`random_regular` graph is connected: ``seed``, or one past the
    last simple but disconnected attempt, found in one walk of the
    attempts.  It raises as :func:`random_regular` does after 10,000
    attempts from a seed it tries, and after 10,000 seeds.
    """
    return _first_sample(n, d, seed, connected=True)


def enumerate_small_regular(n: int, d: int) -> Iterator[Graph]:
    """All labeled connected d-regular graphs on ``n <= 8`` vertices.

    Edges of K_n are indexed lexicographically ((0,1), (0,2), ..); each
    edge subset is encoded as the integer with bit i set for edge i, and
    graphs are emitted in increasing order of that encoding.  No
    isomorphism reduction: every labeled edge set appears exactly once.

    The enumeration runs at the call in numpy, a uint8 neighbour mask per
    vertex: vertex by vertex, each partial graph takes every set of
    higher-numbered neighbours that completes its vertex's degree without
    overfilling another, one subtree per neighbourhood of vertex 0.  A
    bitmask flood keeps the connected graphs, and a sort orders them.  A
    graph is built, unvalidated, when it is taken.  The arguments are
    checked at the call, before the first graph.
    """
    if not 2 <= n <= 8:
        raise BadParameter(f"exhaustive enumeration needs 2 <= n <= 8, got {n}")
    if not 0 <= d < n:
        raise BadParameter(f"degree must satisfy 0 <= d < n, got d={d}")
    if (n * d) % 2 != 0:
        raise BadParameter(f"n*d must be even, got n={n}, d={d}")

    def extend(rows: np.ndarray, v: int) -> np.ndarray:
        deg = np.bitwise_count(rows)
        sets = np.arange(0, 1 << n, 2 << v).astype(np.uint8)  # no bit <= v
        under = np.packbits(deg < d, axis=1, bitorder="little")
        fits = ((sets & ~under) == 0) & (np.bitwise_count(sets) == d - deg[:, v, None])
        rows_at, pick = np.nonzero(fits)
        rows, chosen = rows[rows_at], sets[pick]
        rows[:, v] |= chosen
        rows[:, v + 1:] |= (chosen[:, None] >> np.arange(v + 1, n, dtype=np.uint8) & 1) << v
        return rows

    # One subtree per neighbourhood of vertex 0: few partial graphs at once.
    first = extend(np.zeros((1, n), dtype=np.uint8), 0)
    rows = np.concatenate([reduce(extend, range(1, n), row[None]) for row in first])
    reach = np.ones(len(rows), dtype=np.uint8)
    for _ in range(n - 1):
        inside = reach[:, None] >> np.arange(n, dtype=np.uint8) & 1
        reach |= np.bitwise_or.reduce(rows * inside, axis=1)
    rows = rows[reach == (1 << n) - 1]
    # The encoding puts the edges from u to higher vertices above those of
    # every lower u, so it sorts as the higher-neighbour masks, last u first.
    rows = rows[np.lexsort([rows[:, u] >> (u + 1) for u in range(n - 1)])]
    nbrs = [tuple(vertices_from_mask(m)) for m in range(1 << n)]
    masks = map(np.ndarray.tolist, rows)
    return (_trusted_graph(n, tuple(map(nbrs.__getitem__, m)), tuple(m)) for m in masks)


#: Per family: its constructor, called with a spec's parameters (and seed),
#: and at most how many edges it builds at them (read as 0 if negative).
_CONSTRUCTORS = {
    "cycle": (cycle, lambda n: n),
    "complete": (complete, lambda n: n * n // 2),
    "star": (star, lambda leaves: leaves),
    "path": (path, lambda n: n),
    "hypercube": (hypercube, lambda k: 32 * min(k, 6)),
    "complete_bipartite": (complete_bipartite, lambda d: d * d),
    "circulant": (lambda n, *offsets: circulant(n, list(offsets)), lambda n, *o: n * len(o)),
    "random_regular": (random_regular, lambda n, d: n * d // 2),
    "petersen": (petersen, lambda: 15),
}
#: The most edges a :class:`FamilySpec` builds; the constructors have no bound.
SPEC_EDGE_LIMIT = 100_000
#: Per family: its usage and its number of spec fields after the colon,
#: which is one integer except for the three families listed last.
_SPEC_USAGE = {
    **{f: (f"{f} takes a single parameter", 1) for f in _CONSTRUCTORS},
    "circulant": ("circulant spec needs 'n,o1+o2+..'", 2),
    "random_regular": ("random_regular spec needs 'n,d,seed=S'", 3),
    "petersen": ("petersen takes no parameters", 0),
}


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family instance, e.g. ``cycle:6``.

    Its string form is the family, then after a colon one field per
    parameter (``_SPEC_USAGE`` counts the fields), except that
    circulant's last field joins its offsets with '+' and
    random_regular's last field is its seed: ``cycle:6``,
    ``circulant:8,1+4``, ``random_regular:20,3,seed=42``, and
    ``petersen``, which has no fields.  ``str`` and ``build`` raise
    :class:`BadParameter` when the family takes no ``len(params)``
    parameters, and ``build`` when the member could have more than
    :data:`SPEC_EDGE_LIMIT` edges, before it allocates them.
    """

    family: str
    params: tuple[int, ...] = ()
    seed: int | None = None

    def _fields(self) -> list[str]:
        """The text after the colon, split at its commas."""
        family, params = self.family, self.params
        seeded, joined = family == "random_regular", family == "circulant"
        arity = _SPEC_USAGE[family][1] - seeded if family in _SPEC_USAGE else -1
        if len(params) != arity and not (joined and len(params) > arity):
            raise BadParameter(f"no family {family!r} takes {len(params)} parameters")
        fields = [str(p) for p in params[:arity]]
        if joined:
            fields[-1] = "+".join(str(o) for o in params[arity - 1:])
        return fields + [f"seed={self.seed}"] * seeded

    def __str__(self) -> str:
        fields = self._fields()
        return f"{self.family}:{','.join(fields)}" if fields else self.family

    def build(self) -> Graph:
        self._fields()
        seed = (self.seed,) if self.family == "random_regular" else ()
        if seed == (None,):
            raise BadParameter("random_regular spec needs seed=...")
        build, edge_bound = _CONSTRUCTORS[self.family]
        edges = edge_bound(*(max(p, 0) for p in self.params))
        if edges > SPEC_EDGE_LIMIT:
            raise BadParameter(
                f"{self}: up to {edges} edges, above the spec limit {SPEC_EDGE_LIMIT}"
            )
        return build(*self.params, *seed)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical string form of a :class:`FamilySpec`."""
    text = text.strip()
    family, colon, rest = text.partition(":")
    usage, count = _SPEC_USAGE.get(family, (None, None))
    if not colon:
        if count == 0:
            return FamilySpec(family)
        raise BadParameter(f"malformed family spec {text!r}")
    if count == 0:
        raise BadParameter(usage)
    if usage is None:
        raise BadParameter(f"unknown family {family!r}")
    parts = [p for p in rest.split(",") if p]
    if not parts:
        raise BadParameter(f"family spec {text!r} needs parameters")
    seeded = family == "random_regular"
    if len(parts) != count or (seeded and not parts[2].startswith("seed=")):
        raise BadParameter(f"{usage}: {text!r}")
    seed = parts.pop()[len("seed="):] if seeded else None
    if family == "circulant":
        parts = [parts[0], *parts[1].split("+")]
    try:
        params = tuple(int(p) for p in parts)
        seed = None if seed is None else int(seed)
    except ValueError:
        raise BadParameter(f"non-integer parameter in spec {text!r}") from None
    return FamilySpec(family, params, seed)

