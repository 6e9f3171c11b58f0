"""Slow, independent reference implementations used only by the tests.

Deliberately naive: plain dict/set adjacency, a fresh breadth-first
search per subset, no pruning, no incremental maintenance and no bit
tricks, so agreement with the optimized engines is meaningful.  The
tie-break matches the engines' contract: among equal-valued sets the one
with the lowest integer encoding (bit i = vertex i) wins.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _adjacency(g) -> dict[int, set[int]]:
    return {v: set(g.adj[v]) for v in range(g.n)}


def _components(n: int, adj: dict[int, set[int]], removed: set[int]) -> list[set[int]]:
    """The components of the graph less ``removed``, in order of their
    smallest vertex."""
    seen = set(removed)
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = set()
        while stack:
            v = stack.pop()
            comp.add(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def _component_sizes(n: int, adj: dict[int, set[int]], removed: set[int]) -> list[int]:
    return [len(c) for c in _components(n, adj, removed)]


def naive_vat(g) -> tuple[Fraction, int]:
    """Minimum attack ratio by full enumeration; returns (value, witness mask)."""
    n = g.n
    adj = _adjacency(g)
    best = None
    best_mask = None
    for code in range(1, 2**n - 1):
        s = {v for v in range(n) if (code >> v) & 1}
        cmax = max(_component_sizes(n, adj, s))
        value = Fraction(len(s), n - len(s) - cmax + 1)
        if best is None or value < best or (value == best and code < best_mask):
            best, best_mask = value, code
    return best, best_mask


def naive_fragment_sides(g, s_mask: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """The sides of the two fragment bounds of a d-regular graph at the
    attack set ``s_mask``, summed per surviving component: the components'
    boundaries against d|S|, and |V - S - T| + 1 against their sizes, with
    T the largest component (ties toward the smallest vertex).  Returns the
    two (lhs, rhs) pairs and the witness (S, T) as masks."""
    adj = _adjacency(g)
    s = {v for v in range(g.n) if (s_mask >> v) & 1}
    # a stable sort, so ties stay in order of their smallest vertex
    pieces = sorted(_components(g.n, adj, s), key=len, reverse=True)
    t = pieces[0]
    cut_total = sum(1 for c in pieces for v in c for u in adj[v] if u not in c)
    survivors = sum(len(c) for c in pieces)
    sides = (cut_total, len(adj[0]) * len(s)), (g.n - len(s) - len(t) + 1, survivors)
    return sides, (s_mask, sum(1 << v for v in t))


def naive_conductance(g) -> tuple[Fraction, int]:
    """Minimum cut/volume over half-volume sets by full enumeration."""
    n = g.n
    edges = list(g.edges())
    deg = g.deg
    m = g.m
    best = None
    best_mask = None
    for code in range(1, 2**n):
        s = {v for v in range(n) if (code >> v) & 1}
        vol = sum(deg[v] for v in s)
        if vol > m:
            continue
        cut = sum(1 for u, v in edges if (u in s) != (v in s))
        value = Fraction(cut, vol)
        if best is None or value < best or (value == best and code < best_mask):
            best, best_mask = value, code
    return best, best_mask


def naive_conductance_minimizers(g) -> tuple[Fraction, list[int]]:
    """Minimum conductance and every half-volume set achieving it, sorted."""
    n = g.n
    edges = list(g.edges())
    deg = g.deg
    best = None
    hits = []
    for code in range(1, 2**n):
        s = {v for v in range(n) if (code >> v) & 1}
        vol = sum(deg[v] for v in s)
        if vol > g.m:
            continue
        value = Fraction(sum(1 for u, v in edges if (u in s) != (v in s)), vol)
        if best is None or value < best:
            best, hits = value, [code]
        elif value == best:
            hits.append(code)
    return best, hits


def _exact(x) -> Fraction:
    """A float counts as the decimal it prints; other numbers as they are."""
    return Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)


def naive_weighted_vat(g, alpha=1, beta=0) -> tuple[Fraction, int]:
    """Weighted attack tolerance by full enumeration, in exact arithmetic."""
    n = g.n
    adj = _adjacency(g)
    cost = [_exact(c) for c in g.cost_vector]
    value_w = [_exact(v) for v in g.value_vector]
    alpha, beta = _exact(alpha), _exact(beta)
    total_value = sum(value_w)
    best = None
    best_mask = None
    for code in range(1, 2**n - 1):
        s = {v for v in range(n) if (code >> v) & 1}
        # rebuild the components to find the largest, ties to smallest member
        seen = set(s)
        comps = []
        for start in range(n):
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            comps.append(sorted(comp))
        comps.sort(key=lambda c: (-len(c), c[0]))
        cmax = comps[0]
        num = alpha * sum(cost[v] for v in s) + beta
        den = 1 + total_value - sum(value_w[v] for v in s) - sum(
            value_w[v] for v in cmax
        )
        value = num / den
        if best is None or value < best or (value == best and code < best_mask):
            best, best_mask = value, code
    return best, best_mask


def naive_sweep(g, vec, sign_eps) -> tuple[Fraction, list[int]]:
    """The spectral sweep of ``g`` along the eigenvector ``vec``, by the
    documented rules: ``vec``'s first entry above ``sign_eps`` in magnitude
    is made positive, vertices are ordered by ``vec[v] / sqrt(deg v)``
    descending, ties by id, and every proper prefix with volume at most m
    is scored.  Returns the minimum and every prefix reaching it, in
    prefix order."""
    lead = next(x for x in vec if abs(x) > sign_eps)
    sign = 1.0 if lead > 0 else -1.0
    scores = [sign * float(x) / math.sqrt(g.deg[v]) for v, x in enumerate(vec)]
    order = sorted(range(g.n), key=lambda v: (-scores[v], v))
    edges = list(g.edges())
    best = None
    hits = []
    for size in range(1, g.n):
        s = set(order[:size])
        vol = sum(g.deg[v] for v in s)
        if vol > g.m:
            continue
        value = Fraction(sum(1 for u, v in edges if (u in s) != (v in s)), vol)
        code = sum(1 << v for v in s)
        if best is None or value < best:
            best, hits = value, [code]
        elif value == best:
            hits.append(code)
    return best, hits
