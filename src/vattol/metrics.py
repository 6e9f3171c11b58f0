"""Exact vertex attack tolerance and conductance by subset enumeration.

Every value is exact: values are :class:`fractions.Fraction` and
comparisons cross-multiply integers or compare float keys that are
provably exact, so downstream inequality checks can never flip on
rounding.  A float vertex weight or (alpha, beta) parameter counts as
the decimal it prints, ``Fraction(repr(x))``, so ``0.1`` means exactly
1/10.

Witness determinism contract: whenever several sets achieve the minimum,
the reported witness is the one with the lowest integer encoding of its
bit mask (bit i = vertex i).  Every engine here enforces that tie-break
explicitly, so results do not depend on enumeration order or on how the
subset space is partitioned across workers.

Engines, none of which caches across calls:

- phi, its witness and every minimizer, for every n:
  :func:`_conductance_batch`, one numpy pass over graphs that share n,
  with tables of 2^ceil(n/2) entries per graph.
- tau for ``n <= 16`` (:data:`MINIMIZER_LIMIT`): :func:`_exact_block`,
  one numpy pass with a uint8 table of 2^n entries per graph (64 KiB at
  n = 16); :func:`exact_batch` pairs it with the conductance engine.
- tau for ``n > 16`` and every weighted and (alpha, beta) form:
  :func:`_min_ratio_exact`, the size-pruned scalar Gosper enumeration.

Temporaries of both numpy kernels span at most ``max(BLOCK_CELLS,
2^ceil(n/2))`` cells.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadParameter,
    DisconnectedInput,
    EmptySet,
    FullSet,
    TooLarge,
    TrivialGraph,
    VolumeTooLarge,
)
from .graph import (
    Graph,
    VertexMask,
    _check_mask,
    _largest_component_mask,
    cut_size,
    full_mask,
    require_connected,
    vertices_from_mask,
    volume,
)

#: Hard upper limit on exact enumeration (anything larger is hopeless anyway).
HARD_CAP = 64

#: Environment variable overriding the default enumeration limit.
LIMIT_ENV_VAR = "VATTOL_ENUM_LIMIT"

DEFAULT_LIMIT = 20

#: Largest n handled by :func:`exact_batch`, and the cap of the suite's
#: all-minimizers check.
MINIMIZER_LIMIT = 16

#: Graph x subset cells per kernel chunk, which bounds the temporaries of
#: both numpy kernels (a few arrays of this many int32/float64 cells).
BLOCK_CELLS = 1 << 13


def enumeration_limit(limit: int | None = None) -> int:
    """Resolve the effective enumeration limit.

    Explicit argument wins, then the ``VATTOL_ENUM_LIMIT`` environment
    variable, then the default of 20.  Capped at 64 bits.
    """
    if limit is None:
        env = os.environ.get(LIMIT_ENV_VAR)
        try:
            limit = int(env) if env else DEFAULT_LIMIT
        except ValueError:
            raise BadParameter(
                f"{LIMIT_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if not 1 <= limit <= HARD_CAP:
        raise BadParameter(f"enumeration limit must be in [1, {HARD_CAP}], got {limit}")
    return limit


@dataclass(frozen=True)
class MetricResult:
    """An exact metric value together with the set achieving it."""

    value: Fraction
    witness: VertexMask
    metric: str

    @property
    def witness_vertices(self) -> list[int]:
        return vertices_from_mask(self.witness)


@dataclass(frozen=True)
class WeightedValue:
    """A generalized attack-tolerance value with its witness.

    ``value`` is an exact :class:`~fractions.Fraction`; ``parameters``
    holds (alpha, beta) as the caller gave them.
    """

    value: Fraction
    witness: VertexMask
    metric: str
    parameters: tuple | None = None

    @property
    def witness_vertices(self) -> list[int]:
        return vertices_from_mask(self.witness)


@dataclass(frozen=True)
class ExactMetrics:
    """tau, phi and every conductance minimizer of one graph, by :func:`exact_batch`.

    ``minimizers`` is a sorted integer array of masks, the compact form of
    what :func:`conductance_minimizers` returns as a list.
    """

    tau: MetricResult
    phi: MetricResult
    minimizers: np.ndarray


def _require_metric_graph(g: Graph, limit: int | None = None) -> None:
    if g.n < 2:
        raise TrivialGraph("metrics need at least two vertices")
    require_connected(g)
    if limit is not None and g.n > limit:
        raise TooLarge(
            f"n={g.n} exceeds the enumeration limit {limit}; "
            f"raise it explicitly or via {LIMIT_ENV_VAR}"
        )


def set_vat(g: Graph, s: VertexMask) -> Fraction:
    """Attack-tolerance ratio of one attack set ``s``.

    ``|s|`` divided by (vertices outside ``s`` and outside the largest
    surviving component, plus one); exact.
    """
    _require_metric_graph(g)
    _check_mask(g, s)
    if s == 0:
        raise EmptySet("the attack set must be nonempty")
    full = full_mask(g.n)
    if s == full:
        raise FullSet("the attack set must be a proper subset")
    k = s.bit_count()
    cmax = _largest_component_mask(g.adj_masks, full & ~s).bit_count()
    return Fraction(k, g.n - k - cmax + 1)


def set_conductance(g: Graph, s: VertexMask) -> Fraction:
    """Conductance ratio of one set: cut edges over set volume; exact.

    Requires ``volume(s) <= volume(V) / 2``.
    """
    _require_metric_graph(g)
    _check_mask(g, s)
    if s == 0:
        raise EmptySet("the set must be nonempty")
    vol = volume(g, s)
    if vol > g.m:  # volume(V)/2 == m; the tie is admissible
        raise VolumeTooLarge(f"volume {vol} exceeds half the total {g.m}")
    return Fraction(cut_size(g, s), vol)


def exact_batch(graphs: Sequence[Graph]) -> list[ExactMetrics]:
    """tau, phi and all phi-minimizers of graphs that share one n <= 16.

    tau comes from one numpy pass over a (graphs x subsets) table of
    largest surviving components (see :func:`_exact_block`), phi and its
    minimizers from :func:`_conductance_batch`, the conductance engine
    for every n.  Values and lowest-encoding witnesses are those
    :func:`vat_exact` and :func:`conductance_exact` return.  Weights are
    ignored, as those functions ignore them.  Every graph must be
    connected.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise BadParameter("exact_batch needs graphs that share one vertex count")
    if n < 2:
        raise TrivialGraph("metrics need at least two vertices")
    if n > MINIMIZER_LIMIT:
        raise TooLarge(f"exact_batch handles n <= {MINIMIZER_LIMIT}, got n={n}")
    per_block = max(1, BLOCK_CELLS >> n)
    taus: list[MetricResult] = []
    for i in range(0, len(graphs), per_block):
        taus.extend(_exact_block(graphs[i : i + per_block], n))
    return [
        ExactMetrics(tau=tau, phi=phi, minimizers=minimizers)
        for tau, (phi, minimizers) in zip(taus, _conductance_batch(graphs))
    ]


def _union_table(adj: np.ndarray) -> np.ndarray:
    """Per row, the neighbour union of every subset of the given vertices."""
    rows, b = adj.shape
    table = np.zeros((rows, 1 << b), np.int32)
    for v in range(b):
        t = 1 << v
        table[:, t : 2 * t] = table[:, :t] | adj[:, v : v + 1]
    return table


def _exact_block(block: Sequence[Graph], n: int) -> list[MetricResult]:
    """The tau kernel behind :func:`exact_batch`, for ``len(block) << n`` cells.

    One uint8 table indexed by vertex mask, ``cmax[x]``, the largest
    component inside ``x``, is filled one top-bit layer at a time: a mask
    ``x`` in ``[2^k, 2^(k+1))`` has top vertex ``k``, and ``cmax[x]`` is
    ``max(|C|, cmax[x - C])`` with ``C`` the component of ``k``, found by
    a flood fill over all masks of the chunk at once.  ``x - C`` lacks
    vertex ``k``, so it lies in an earlier layer.

    A flood step looks up neighbour unions in two tables, over the low
    eight vertices and over the rest, so no ``2^n x n`` table exists.

    tau minimizes ``|S| / (n - |S| - cmax[V - S] + 1)``, an argmin over
    float keys, which is exact here: every numerator and denominator is
    an integer of at most n <= 16 and every key is at most 16, so two
    distinct fractions differ by at least 1/16^2 while each key, a
    correctly rounded quotient, is off by at most 16 * 2^-53; equal
    fractions get equal keys.  ``argmin`` and the ascending mask order
    keep the lowest-encoding witness.
    """
    rows = len(block)
    size = 1 << n
    full = size - 1
    chunk = BLOCK_CELLS // rows
    adj = np.array([g.adj_masks for g in block], dtype=np.int32)
    low = min(n, 8)
    low_mask = (1 << low) - 1
    row = np.arange(rows, dtype=np.int32)[:, None]
    nu_low = _union_table(adj[:, :low]).ravel()
    nu_high = _union_table(adj[:, low:]).ravel()
    low_off, high_off, table_off = row << low, row << (n - low), row << n
    cmax = np.zeros((rows, size), np.uint8)
    cmax_flat = cmax.ravel()
    for k in range(n):
        top = 1 << k
        adj_k = adj[:, k : k + 1]
        for j0 in range(0, top, chunk):
            j1 = min(top, j0 + chunk)
            x = np.arange(j0, j1, dtype=np.int32) | top
            comp = (adj_k & x) | top
            front = comp
            while True:
                reach = nu_low.take((front & low_mask) + low_off)
                if n > low:
                    reach |= nu_high.take((front >> low) + high_off)
                front = reach & x & ~comp
                if not np.count_nonzero(front):
                    break
                comp |= front
            cmax[:, top + j0 : top + j1] = np.maximum(
                np.bitwise_count(comp), cmax_flat.take((x ^ comp) + table_off)
            )
    if (cmax[:, full] != n).any():
        raise DisconnectedInput(
            "graph is disconnected; restrict_to_largest_component() first"
        )

    # Column s of this view is cmax of the survivors V - s.
    cmax_of_rest = cmax[:, ::-1]
    tau_best = np.full(rows, np.inf)
    tau_arg = np.zeros(rows, np.int64)
    for c0 in range(0, size, chunk):
        c1 = min(size, c0 + chunk)
        card = np.bitwise_count(np.arange(c0, c1, dtype=np.int32))
        # S = V is no attack set either, but its key n > 1 never wins.
        tau_key = card / ((n + 1 - card) - cmax_of_rest[:, c0:c1])
        if c0 == 0:  # nor is the empty set
            tau_key[:, 0] = np.inf
        tau_min = tau_key.min(axis=1)
        better = tau_min < tau_best
        tau_arg[better] = tau_key.argmin(axis=1)[better] + c0
        tau_best[better] = tau_min[better]

    out = []
    for r in range(rows):
        s = int(tau_arg[r])
        k = s.bit_count()
        tau = Fraction(k, n + 1 - k - int(cmax[r, full ^ s]))
        out.append(MetricResult(value=tau, witness=s, metric="vat"))
    return out


def _half_tables(
    adj: np.ndarray, first: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, vol and cut of every subset of vertices first..first+count-1.

    Filled by doubling: adding vertex v to a set x of lower vertices adds
    deg(v) to the volume and deg(v) - 2 |N(v) & x| to the cut, which
    counts every edge leaving x, whichever half it ends in.
    """
    vol = np.zeros((len(adj), 1 << count), np.int32)
    cut = np.zeros_like(vol)
    for j in range(count):
        t = 1 << j
        a = adj[:, first + j, None]
        d = np.bitwise_count(a)
        vol[:, t : 2 * t] = vol[:, :t] + d
        inner = np.bitwise_count((a >> first) & np.arange(t))
        cut[:, t : 2 * t] = cut[:, :t] + d - 2 * inner
    return vol, cut


def _conductance_batch(
    graphs: Sequence[Graph],
) -> list[tuple[MetricResult, np.ndarray]]:
    """phi, its lowest-encoding witness and every minimizer, sorted, per graph.

    The one conductance engine, for any n; the graphs share n and are
    connected.  A mask splits as ``lo | hi << h``, ``h = ceil(n / 2)``:
    ``vol(S) = vol_lo[lo] + vol_hi[hi]`` and ``cut(S) = cut_lo[lo] +
    cut_hi[hi] - 2 cross``, where ``cross``, the sum over u in lo of
    ``|N(u) & hi|``, is filled by doubling over the low vertices for a
    block of high halves at a time.  Blocks cover masks in ascending
    order; temporaries span at most ``max(BLOCK_CELLS, 2^h)`` cells and
    no table exceeds ``2^h`` entries per graph.

    phi minimizes ``cut / vol`` over ``0 < vol <= m`` by float keys,
    which is exact: there ``cut <= vol <= m <= n(n - 1)/2 < 2^11`` (n <=
    64), so two distinct fractions differ by at least 2^-22 while each
    key, a correctly rounded quotient of at most 1, is off by at most
    2^-53; equal fractions get equal keys.  The minimizers are the masks
    whose key equals the minimum, in ascending order.
    """
    n = graphs[0].n
    h = (n + 1) // 2
    highs = 1 << (n - h)
    cells = max(BLOCK_CELLS, 1 << h)
    per_chunk = max(1, cells >> n)
    out = []
    for i in range(0, len(graphs), per_chunk):
        chunk = graphs[i : i + per_chunk]
        rows = len(chunk)
        adj = np.array([g.adj_masks for g in chunk], dtype=np.int64)
        m = np.bitwise_count(adj).sum(axis=1, keepdims=True) // 2
        vol_lo, cut_lo = _half_tables(adj, 0, h)
        vol_hi, cut_hi = _half_tables(adj, h, n - h)
        high_adj = adj[:, :h, None] >> h
        per_block = min(highs, cells // (rows << h))
        best = np.full(rows, np.inf)
        phi_cut, phi_vol = np.zeros((2, rows), np.int64)
        hit_rows = hit_masks = np.zeros(0, np.int64)
        for b0 in range(0, highs, per_block):
            b1 = min(highs, b0 + per_block)
            edges_to = np.bitwise_count(high_adj & np.arange(b0, b1))
            cross = np.zeros((rows, b1 - b0, 1 << h), np.int32)
            for u in range(h):
                t = 1 << u
                cross[:, :, t : 2 * t] = cross[:, :, :t] + edges_to[:, u, :, None]
            vol = vol_lo[:, None, :] + vol_hi[:, b0:b1, None]
            cut = cut_lo[:, None, :] + cut_hi[:, b0:b1, None] - 2 * cross
            vol, cut = vol.reshape(rows, -1), cut.reshape(rows, -1)
            key = np.where(vol <= m, cut / np.maximum(vol, 1), np.inf)
            if b0 == 0:  # the empty set is not admissible
                key[:, 0] = np.inf
            # The first block holds the admissible singleton {0} (deg <= m),
            # so best is finite from then on and an all-inf block adds no hit.
            block_min = key.min(axis=1)
            better = block_min < best
            first = key.argmin(axis=1)[better]
            phi_cut[better] = cut[better, first]
            phi_vol[better] = vol[better, first]
            best[better] = block_min[better]
            keep = ~better[hit_rows]  # earlier hits of a row this block beat
            rows_now, masks_now = np.nonzero(key == best[:, None])
            hit_rows = np.concatenate([hit_rows[keep], rows_now])
            hit_masks = np.concatenate([hit_masks[keep], masks_now + (b0 << h)])
        # Rows share a chunk only when one block covers them all, so the
        # hits are sorted by row and then by mask.
        ends = np.cumsum(np.bincount(hit_rows, minlength=rows))
        for r, minimizers in enumerate(np.split(hit_masks, ends[:-1])):
            phi = Fraction(int(phi_cut[r]), int(phi_vol[r]))
            result = MetricResult(
                value=phi, witness=int(minimizers[0]), metric="conductance"
            )
            out.append((result, minimizers))
    return out


def _exact(x: float | Fraction) -> Fraction:
    """``x`` as a Fraction; a float is read as the decimal it prints."""
    return Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)


def _scaled(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers ``x * L`` for ``L`` the lcm of the denominators, and ``L``."""
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """The weight sum of every subset, indexed by its bit mask."""
    table = [0]
    for w in weights:
        table += [t + w for t in table]
    return table


def _min_ratio_exact(
    g: Graph, alpha: float | Fraction, beta: float | Fraction, weighted: bool = False
) -> tuple[Fraction, int]:
    """Minimize (alpha*cost(S) + beta) / (1 + W - value(S | C_max)) over proper S.

    cost and value are sums of the vertex weights when ``weighted``, and
    of ones otherwise (the denominator is then ``n - |S| - |C_max| + 1``);
    W is the total value.  C_max is the largest component of ``V - S`` by
    vertex count, ties to the one with the smallest vertex id, as in the
    paper's C_max(V - S); the values do not choose it, so a smaller
    component of higher value never counts.

    Exact: weights, alpha and beta become Fractions (:func:`_exact`), the
    numerator terms and the values are scaled to integers, and ratios
    compare by cross-multiplication.  Subset cost and value sums come from
    two tables over the low and the high half of the vertices.

    Enumerates subsets by size with Gosper's hack.  A size-k set costs at
    least the k cheapest vertices, and ``S | C_max`` holds at least k + 1
    vertices, so every size-k set is worth at least (k cheapest costs +
    beta) / (1 + W - the k + 1 smallest values), a bound that strictly
    increases with k; sizes whose bound exceeds the best value so far are
    skipped entirely.  The prune is sound: skipped sets can never beat the
    incumbent, and an equal-valued set at the single boundary size is
    still enumerated so the lowest-encoding witness survives.
    """
    n = g.n
    adj_masks = g.adj_masks
    full = full_mask(n)
    cost = g.cost_vector if weighted else (1,) * n
    value = g.value_vector if weighted else (1,) * n
    alpha = _exact(alpha)
    nums, num_scale = _scaled([alpha * _exact(c) for c in cost] + [_exact(beta)])
    q = nums.pop()
    vals, val_scale = _scaled([_exact(v) for v in value])
    top = val_scale + sum(vals)  # 1 + W, scaled
    h = (n + 1) // 2
    low = (1 << h) - 1
    # beta is folded into cost_lo and 1 + W into left_lo: two lookups per sum.
    cost_lo = [t + q for t in _subset_sums(nums[:h])]
    cost_hi = _subset_sums(nums[h:])
    left_lo = [top - t for t in _subset_sums(vals[:h])]
    val_hi = _subset_sums(vals[h:])
    cheapest, lightest = sorted(nums), sorted(vals)
    bound_num, bound_den = q, top - lightest[0]
    best_num = best_den = 0  # best value = best_num / best_den, unset while den == 0
    best_mask = -1
    for k in range(1, n):
        bound_num += cheapest[k - 1]
        bound_den -= lightest[k]
        if best_den and bound_num * best_den > best_num * bound_den:
            break  # every remaining size is strictly worse
        c = (1 << k) - 1
        while c <= full:
            u = c | _largest_component_mask(adj_masks, full & ~c)
            num = cost_lo[c & low] + cost_hi[c >> h]
            den = left_lo[u & low] - val_hi[u >> h]
            if (
                best_den == 0
                or num * best_den < best_num * den
                or (num * best_den == best_num * den and c < best_mask)
            ):
                best_num, best_den, best_mask = num, den, c
            # Gosper's hack: next k-subset in ascending encoding order
            v = c & -c
            t = c + v
            c = t | (((t ^ c) // v) >> 2)
    return Fraction(best_num * val_scale, best_den * num_scale), best_mask


def vat_exact(g: Graph, limit: int | None = None) -> MetricResult:
    """Exact vertex attack tolerance: the minimum attack ratio and its witness.

    The witness is the minimizing set with the lowest bit-mask encoding.
    The value always lies in (0, 1]: a single vertex already achieves at
    most 1, and removing everything is excluded because it can never beat
    a singleton.
    """
    _require_metric_graph(g, enumeration_limit(limit))
    if g.n <= MINIMIZER_LIMIT:
        return _exact_block([g], g.n)[0]
    value, witness = _min_ratio_exact(g, 1, 0)
    return MetricResult(value=value, witness=witness, metric="vat")


def _check_alpha_beta(alpha: float, beta: float) -> None:
    if not 0 < alpha < math.inf:
        raise BadParameter(f"alpha must be positive and finite, got {alpha}")
    if not 0 <= beta < math.inf:
        raise BadParameter(f"beta must be nonnegative and finite, got {beta}")


def alpha_beta_vat_exact(
    g: Graph, alpha: float, beta: float, limit: int | None = None
) -> WeightedValue:
    """Attack tolerance with the attack cost reweighted to ``alpha*|S| + beta``.

    Exact for any finite alpha > 0 and beta >= 0 (a float counts as the
    decimal it prints); vertex weights are ignored.  ``(1, 0)`` reproduces
    :func:`vat_exact` exactly.
    """
    _check_alpha_beta(alpha, beta)
    _require_metric_graph(g, enumeration_limit(limit))
    value, witness = _min_ratio_exact(g, alpha, beta)
    return WeightedValue(
        value=value, witness=witness, metric="alpha_beta_vat",
        parameters=(alpha, beta),
    )


def weighted_vat_exact(g: Graph, limit: int | None = None) -> WeightedValue:
    """Attack tolerance of a cost-value weighted graph.

    Minimizes (sum of attack costs over S) divided by
    (1 + total value - value of S - value of the largest surviving
    component), exactly.  With all weights equal to one this coincides
    with :func:`vat_exact`.
    """
    _require_metric_graph(g, enumeration_limit(limit))
    value, witness = _min_ratio_exact(g, 1, 0, weighted=True)
    return WeightedValue(value=value, witness=witness, metric="weighted_vat")


def alpha_beta_weighted_vat_exact(
    g: Graph, alpha: float, beta: float, limit: int | None = None
) -> WeightedValue:
    """The fully general form: reweighted attack cost on a weighted graph.

    Reduces exactly to each special case when parameters or weights are
    trivial.
    """
    _check_alpha_beta(alpha, beta)
    _require_metric_graph(g, enumeration_limit(limit))
    value, witness = _min_ratio_exact(g, alpha, beta, weighted=True)
    return WeightedValue(
        value=value, witness=witness, metric="alpha_beta_weighted_vat",
        parameters=(alpha, beta),
    )


def conductance_exact(g: Graph, limit: int | None = None) -> MetricResult:
    """Exact conductance: minimum cut/volume over sets of at most half volume.

    The witness is the minimizing set with the lowest bit-mask encoding.
    The value always lies in (0, 1].
    """
    _require_metric_graph(g, enumeration_limit(limit))
    return _conductance_batch([g])[0][0]


def conductance_minimizers(g: Graph, limit: int | None = None) -> list[VertexMask]:
    """Every admissible set achieving the exact conductance, sorted by encoding."""
    _require_metric_graph(g, enumeration_limit(limit))
    return _conductance_batch([g])[0][1].tolist()


def vat_witness_components(
    g: Graph, result: MetricResult
) -> tuple[VertexMask, list[VertexMask]]:
    """Decompose the survivors of a VAT witness.

    Returns ``(T, others)`` where ``T`` is the largest surviving
    component and ``others`` are the remaining components, largest first.
    """
    from .graph import components

    comps = components(g, result.witness)
    return comps[0], comps[1:]
