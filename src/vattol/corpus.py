"""Deterministic graph corpora used by the verification suite and tests.

Two corpora are defined:

- :func:`standard_corpus`: a desk-scale mix (named families, exhaustive
  labeled regular graphs up to n=6, seeded random regular samples up to
  n=10) small enough to cross-check against naive reference
  implementations and to materialize as files.
- :func:`theorem_corpus`: the full verification sweep: every labeled
  connected d-regular graph on up to 8 vertices for every feasible
  degree, the regular families up to n=16, and 100 seeded connected
  random regular graphs with n up to 18.

Both are fully deterministic.  Every family member, random ones
included, is named by its :class:`~vattol.generators.FamilySpec` string
(the random ones record the seed that produced them), so any graph can
be rebuilt from its id alone; only the exhaustive members'
``exhaustive:<n>,<d>,i=<k>`` ids are formatted here.
"""

from __future__ import annotations

from typing import Iterator

from .generators import FamilySpec, connected_random_regular, enumerate_small_regular
from .graph import Graph

GraphItem = tuple[str, Graph]

_THEOREM_CIRCULANTS = (
    (8, (1, 2)),
    (8, (1, 4)),
    (10, (1, 2)),
    (10, (2, 5)),
    (12, (1, 3)),
    (12, (1, 6)),
    (13, (1, 5)),
    (14, (1, 7)),
    (15, (1, 4)),
    (16, (1, 3, 8)),
)

_STANDARD_CIRCULANTS = (
    (6, (1, 2)),
    (8, (1, 3)),
    (8, (1, 4)),
    (10, (1, 5)),
)

_RANDOM_SHAPES = tuple(
    (n, d) for n in (8, 10, 12, 14, 16, 18) for d in (3, 4, 5)
)


def _family(family: str, *params: int) -> GraphItem:
    spec = FamilySpec(family, params)
    return str(spec), spec.build()


def _random(n: int, d: int, seed: int) -> GraphItem:
    """The first connected random regular graph at or after ``seed``."""
    g, seed = connected_random_regular(n, d, seed)
    return str(FamilySpec("random_regular", (n, d), seed)), g


def exhaustive_members(n: int, d: int) -> Iterator[GraphItem]:
    """All labeled connected d-regular graphs on n vertices, id'd
    ``exhaustive:<n>,<d>,i=<k>`` with k the position in the fixed
    ascending edge-encoding order.  ``n`` and ``d`` are checked at the
    call, before the first graph.
    """
    graphs = enumerate_small_regular(n, d)
    return ((f"exhaustive:{n},{d},i={i}", g) for i, g in enumerate(graphs))


def exhaustive_regular(max_n: int = 8) -> Iterator[GraphItem]:
    """:func:`exhaustive_members` of every feasible (n, d) with n <= max_n."""
    for n in range(2, max_n + 1):
        for d in range(1, n):
            if (n * d) % 2 == 0:
                yield from exhaustive_members(n, d)


def random_regular_samples(base_seed: int = 42) -> Iterator[GraphItem]:
    """100 seeded connected random regular graphs, n up to 18.

    Shapes cycle through n in {8..18} x d in {3, 4, 5}; each sample's id
    records the exact seed that produced the connected graph, so the id
    doubles as a family spec string.
    """
    for i in range(100):
        yield _random(*_RANDOM_SHAPES[i % len(_RANDOM_SHAPES)], base_seed + 7919 * i)


def _families(ranges: dict[str, range], circulants: tuple) -> Iterator[GraphItem]:
    """Each family of ``ranges`` at each of its parameters, in order, then
    the circulants and the Petersen graph."""
    for family, params in ranges.items():
        yield from (_family(family, p) for p in params)
    yield from (_family("circulant", n, *offsets) for n, offsets in circulants)
    yield _family("petersen")


def theorem_families() -> Iterator[GraphItem]:
    """The regular families driven up to 16 vertices."""
    ranges = {"cycle": range(3, 17), "complete": range(2, 17), "hypercube": range(1, 5),
              "complete_bipartite": range(1, 9)}  # 2^k <= 16 for the hypercubes
    yield from _families(ranges, _THEOREM_CIRCULANTS)


def theorem_corpus(base_seed: int = 42) -> Iterator[GraphItem]:
    """The full corpus for the inequality verification sweep."""
    yield from exhaustive_regular()
    yield from theorem_families()
    yield from random_regular_samples(base_seed)


def standard_corpus() -> list[GraphItem]:
    """The desk-scale corpus: families, exhaustive n <= 6, 30 random samples.

    Contains well over 200 graphs with n <= 10, which is the slice the
    naive-oracle equivalence tests sweep.
    """
    ranges = {"cycle": range(3, 13), "complete": range(2, 11), "star": range(2, 9),
              "path": range(2, 11), "hypercube": range(1, 4), "complete_bipartite": range(1, 6)}
    items = [*_families(ranges, _STANDARD_CIRCULANTS), *exhaustive_regular(6)]
    shapes = tuple((n, d) for n in (6, 8, 10) for d in (3, 4, 5))
    items.extend(_random(*shapes[i % len(shapes)], 1000 + 101 * i) for i in range(30))
    return items
