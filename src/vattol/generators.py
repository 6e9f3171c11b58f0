"""Graph family constructors and exhaustive small-graph enumeration.

All generators return canonical :class:`~vattol.graph.Graph` objects and
are fully deterministic; the random family is seeded and reproduces the
same edge set for the same ``(n, d, seed)`` on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BadParameter, RetryLimitExceeded
from .graph import Graph, build_graph, is_connected

_MASK64 = (1 << 64) - 1
_RETRY_LIMIT = 10_000


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
    edges = []
    for v in range(n):
        for bit in range(k):
            u = v ^ (1 << bit)
            if v < u:
                edges.append((v, u))
    return build_graph(n, edges)


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
    edges = set()
    for i in range(n):
        for o in offsets:
            j = (i + o) % n
            edges.add((min(i, j), max(i, j)))
    return build_graph(n, sorted(edges))


def petersen() -> Graph:
    """The Petersen graph: 10 vertices, 15 edges, 3-regular."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return build_graph(10, sorted((min(u, v), max(u, v)) for u, v in edges))


class _SplitMix64:
    """splitmix64: a small, named, platform-stable 64-bit generator.

    Used for the seeded shuffles so random graphs reproduce bit for bit
    everywhere, independent of any runtime's RNG internals.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` by rejection sampling."""
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            r = self.next64()
            if r < limit:
                return r % bound


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Seeded d-regular graph from the stub-pairing (configuration) model.

    Each vertex contributes ``d`` stubs; the stub list is shuffled with a
    splitmix64-driven Fisher-Yates and paired consecutively.  Attempts
    that produce a self-loop or duplicate edge are discarded and retried
    with ``seed + 1`` (wrapping at 2^64), so failures are reproducible.
    A pair is checked once the shuffle has fixed both its stubs, and a
    bad pair ends the attempt; each attempt seeds its own generator.
    Connectivity is NOT guaranteed; the caller checks.
    """
    if not 1 <= d < n:
        raise BadParameter(f"degree must satisfy 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise BadParameter(f"n*d must be even, got n={n}, d={d}")
    all_stubs = [v for v in range(n) for _ in range(d)]
    attempt_seed = seed & _MASK64
    for _ in range(_RETRY_LIMIT):
        rng = _SplitMix64(attempt_seed)
        stubs = all_stubs.copy()
        edges = set()
        for i in range(len(stubs) - 1, 0, -1):
            j = rng.below(i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
            if i % 2 and i > 1:
                continue  # stub i - 1, its partner, can still move
            k = i - i % 2  # stubs k and k + 1 are now final
            u, v = stubs[k], stubs[k + 1]
            key = (min(u, v), max(u, v))
            if u == v or key in edges:
                break
            edges.add(key)
        else:
            return build_graph(n, sorted(edges))
        attempt_seed = (attempt_seed + 1) & _MASK64
    raise RetryLimitExceeded(
        f"no simple {d}-regular pairing on {n} vertices after {_RETRY_LIMIT} attempts"
    )


def connected_random_regular(n: int, d: int, seed: int) -> tuple[Graph, int]:
    """First connected sample at or after ``seed``; returns (graph, seed used)."""
    s = seed & _MASK64
    for _ in range(_RETRY_LIMIT):
        g = random_regular(n, d, s)
        if is_connected(g):
            return g, s
        s = (s + 1) & _MASK64
    raise RetryLimitExceeded(
        f"no connected {d}-regular graph on {n} vertices after {_RETRY_LIMIT} seeds"
    )


def enumerate_small_regular(n: int, d: int) -> Iterator[Graph]:
    """All labeled connected d-regular graphs on ``n <= 8`` vertices.

    Edges of K_n are indexed lexicographically ((0,1), (0,2), ..); each
    edge subset is encoded as the integer with bit i set for edge i, and
    graphs are emitted in increasing order of that encoding.  No
    isomorphism reduction: every labeled edge set appears exactly once.

    The search walks edge indices from highest to lowest, excluding
    before including, which visits encodings in ascending order while
    degree-feasibility pruning keeps the tree near the solution count.
    It keeps its path on an explicit stack, so the generator resumes once
    per graph, not once per edge index.  The arguments are checked at the
    call, before the first graph.
    """
    if not 2 <= n <= 8:
        raise BadParameter(f"exhaustive enumeration needs 2 <= n <= 8, got {n}")
    if not 0 <= d < n:
        raise BadParameter(f"degree must satisfy 0 <= d < n, got d={d}")
    if (n * d) % 2 != 0:
        raise BadParameter(f"n*d must be even, got n={n}, d={d}")

    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def leaves() -> Iterator[Graph]:
        deg = [0] * n
        avail = [n - 1] * n  # undecided edges incident to each vertex
        chosen: list[tuple[int, int]] = []
        # per edge index on the path: 0 not entered, 1 out, 2 in
        branch = [0] * len(edge_list)
        idx = top = len(edge_list) - 1
        while idx <= top:
            if idx < 0:
                # avail is 0 everywhere, so pruning forces deg[v] == d exactly
                g = build_graph(n, list(chosen))
                if is_connected(g):
                    yield g
                idx = 0
                continue
            u, v = edge_list[idx]
            if branch[idx] == 0:
                # branch 1: leave edge idx out
                branch[idx] = 1
                avail[u] -= 1
                avail[v] -= 1
                if deg[u] + avail[u] >= d and deg[v] + avail[v] >= d:
                    idx -= 1
                    continue
            if branch[idx] == 1:
                # branch 2: put edge idx in
                branch[idx] = 2
                if deg[u] < d and deg[v] < d:
                    deg[u] += 1
                    deg[v] += 1
                    chosen.append((u, v))
                    idx -= 1
                    continue
            else:  # back from branch 2
                chosen.pop()
                deg[u] -= 1
                deg[v] -= 1
            branch[idx] = 0
            avail[u] += 1
            avail[v] += 1
            idx += 1

    return leaves()


#: Per family: its constructor, called with a spec's parameters (and seed).
_CONSTRUCTORS = {
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "path": path,
    "hypercube": hypercube,
    "complete_bipartite": complete_bipartite,
    "circulant": lambda n, *offsets: circulant(n, list(offsets)),
    "random_regular": random_regular,
    "petersen": petersen,
}
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
    parameters.
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
        return _CONSTRUCTORS[self.family](*self.params, *seed)


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

