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
- all four VAT forms, for every n up to :data:`HARD_CAP`: one
  enumeration, :func:`_component_tables`, a uint8 table of 2^n entries
  per graph (1 MiB at n = 20).  tau is a float-key argmin over it
  (:func:`_exact_block`); the other forms share :func:`_min_ratio`.

Temporaries of the numpy kernels span at most ``max(BLOCK_CELLS,
2^ceil(n/2))`` cells at any batch width; the engines return integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadParameter,
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
    components,
    cut_size,
    full_mask,
    largest_component,
    mask_from_vertices,
    require_connected,
    vertices_from_mask,
    volume,
)

#: Largest n of every exact metric: the VAT engine keeps tables of 2^n
#: entries per graph (16 MiB each at n = 24).
HARD_CAP = 24

#: Largest n of the suite's all-minimizers check (``connected_minimizer``),
#: whose skip reason above it is part of the report.
MINIMIZER_LIMIT = 16

#: Graph x subset cells per kernel chunk, which bounds the temporaries of
#: the numpy kernels (a few arrays of this many int32/int64/float64 cells).
BLOCK_CELLS = 1 << 13


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
class WeightedValue(MetricResult):
    """A generalized attack-tolerance value with its witness; ``parameters``
    holds (alpha, beta) as the caller gave them."""

    parameters: tuple | None = None


def _require_metric_graph(g: Graph) -> None:
    if g.n < 2:
        raise TrivialGraph("metrics need at least two vertices")
    require_connected(g)


def _require_enumerable(g: Graph) -> None:
    """What every exact metric needs of ``g``, checked in this order: at
    least two vertices, connected, at most :data:`HARD_CAP` vertices."""
    _require_metric_graph(g)
    if g.n > HARD_CAP:
        raise TooLarge(f"n={g.n} exceeds the hard cap {HARD_CAP}")


def set_vat(g: Graph, s: VertexMask) -> Fraction:
    """Attack-tolerance ratio of one attack set ``s``.

    ``|s|`` divided by (vertices outside ``s`` and outside the largest
    surviving component, plus one); exact.
    """
    _require_metric_graph(g)
    _check_mask(g, s)
    if s == 0:
        raise EmptySet("the attack set must be nonempty")
    if s == full_mask(g.n):
        raise FullSet("the attack set must be a proper subset")
    k = s.bit_count()
    cmax = largest_component(g, s).bit_count()
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


class ExactMetrics(NamedTuple):
    """tau, phi and every conductance minimizer of one graph, by :func:`exact_batch`:
    tau and phi as reduced fractions with their lowest-encoding witnesses,
    and ``minimizers``, a sorted integer array of masks (the compact form of
    what :func:`conductance_minimizers` returns as a list)."""

    tau_num: int
    tau_den: int
    tau_witness: int
    phi_num: int
    phi_den: int
    phi_witness: int
    minimizers: np.ndarray

    @property
    def tau(self) -> MetricResult:
        return MetricResult(Fraction(self.tau_num, self.tau_den), self.tau_witness, "vat")

    @property
    def phi(self) -> MetricResult:
        return MetricResult(Fraction(self.phi_num, self.phi_den), self.phi_witness, "conductance")


def exact_batch(graphs: Sequence[Graph]) -> list[ExactMetrics]:
    """tau, phi and all phi-minimizers of graphs that share one n <= 24.

    tau comes from one numpy pass over a (graphs x subsets) table of
    largest surviving components (see :func:`_exact_block`), phi and its
    minimizers from :func:`_conductance_batch`, the conductance engine
    for every n.  Both take one int32 adjacency array of up to ``max(1,
    8 * BLOCK_CELLS >> n)`` graphs per call (256 at n = 8, one from n =
    16 on): a uint8 VAT table of ``max(2^n, 8 * BLOCK_CELLS)`` cells.
    Values and lowest-encoding witnesses are those :func:`vat_exact` and
    :func:`conductance_exact` return, and so are the errors, raised in
    the same order.  Weights are ignored, as those functions ignore them.
    The records hold integers; the minimizers are views of one array.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise BadParameter("exact_batch needs graphs that share one vertex count")
    for g in graphs:
        _require_enumerable(g)
    per_call = max(1, (8 * BLOCK_CELLS) >> n)
    out: list[ExactMetrics] = []
    for i in range(0, len(graphs), per_call):
        adj = np.array([g.adj_masks for g in graphs[i : i + per_call]], np.int32)
        tau = (a.tolist() for a in _exact_block(adj))
        phi_num, phi_den, hits, ends = _conductance_batch(adj)
        starts = [0, *ends[:-1]]
        minimizers = [hits[a:b] for a, b in zip(starts, ends)]
        phi = phi_num.tolist(), phi_den.tolist(), hits[starts].tolist()
        out += map(ExactMetrics._make, zip(*tau, *phi, minimizers))
    return out


def _flood_fill(adj: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A flood fill over many masks at once for the graphs whose rows are ``adj``.

    ``flood(comp, within)`` grows each mask of ``comp`` (rows x masks, a
    fresh array, grown in place) to its component inside ``within``.  A
    step looks up neighbour unions in two tables, over the low eight
    vertices and over the rest, so no ``2^n x n`` table exists.
    """
    rows, n = adj.shape
    low = min(n, 8)
    low_mask = (1 << low) - 1
    unions = []
    for part in (adj[:, :low], adj[:, low:]):
        table = np.zeros((rows, 1 << part.shape[1]), adj.dtype)
        for v in range(part.shape[1]):
            table[:, 1 << v : 2 << v] = table[:, : 1 << v] | part[:, v : v + 1]
        unions.append(table.ravel())
    row = np.arange(rows, dtype=np.int32)[:, None]
    low_off, high_off = row << low, row << (n - low)

    def flood(comp: np.ndarray, within: np.ndarray) -> np.ndarray:
        front = comp
        while True:
            reach = unions[0].take((front & low_mask) + low_off)
            if n > low:
                reach |= unions[1].take((front >> low) + high_off)
            front = reach & within & ~comp
            if not np.count_nonzero(front):
                return comp
            comp |= front

    return flood


def _component_tables(
    adj: np.ndarray, lowest: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per row and vertex mask ``x``, the size and lowest vertex of C_max in ``x``.

    The one VAT enumeration.  C_max is the component with the most
    vertices, ties to the smaller lowest vertex; ``cmax[x]`` is its size
    and, when ``lowest``, ``cmin[x]`` its lowest vertex (uint8 tables).  A
    mask ``x`` in ``[2^k, 2^(k+1))`` has top vertex ``k``; its components
    are ``C``, that of ``k``, flooded over all masks of a chunk at once,
    and those of ``x - C``, which lacks ``k`` and so lies in an earlier
    layer.  Temporaries span ``BLOCK_CELLS`` cells of the dtype of ``adj``.
    """
    rows, n = adj.shape
    chunk = max(1, BLOCK_CELLS // rows)
    flood = _flood_fill(adj)
    table_off = np.arange(rows, dtype=np.int32)[:, None] << n
    cmax = np.zeros((rows, 1 << n), np.uint8)
    cmin = np.zeros_like(cmax) if lowest else None
    for k in range(n):
        top = 1 << k
        adj_k = adj[:, k : k + 1]
        for j0 in range(0, top, chunk):
            j1 = min(top, j0 + chunk)
            x = np.arange(j0, j1, dtype=adj.dtype) | top
            comp = flood((adj_k & x) | top, x)
            rest = (x ^ comp) + table_off
            size, size_rest = np.bitwise_count(comp), cmax.ravel().take(rest)
            cmax[:, top + j0 : top + j1] = np.maximum(size, size_rest)
            if lowest:
                first = np.bitwise_count((comp & -comp) - 1)
                first_rest = cmin.ravel().take(rest)
                wins = (size > size_rest) | ((size == size_rest) & (first < first_rest))
                cmin[:, top + j0 : top + j1] = np.where(wins, first, first_rest)
    return cmax, cmin


def _exact_block(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau of the connected graphs in the rows of ``adj``: num, den, witness.

    tau minimizes ``|S| / (n - |S| - cmax[V - S] + 1)`` over the table of
    :func:`_component_tables`, an argmin over float keys, which is exact
    here: every numerator and denominator is an integer of at most
    n + 1 <= 25 and every key is at most 24, so two distinct fractions
    differ by at least 1/25^2 while each key, a correctly rounded
    quotient, is off by at most 24 * 2^-53; equal fractions get equal
    keys.  ``argmin`` and the ascending mask order, in chunks of
    ``BLOCK_CELLS`` cells, keep the lowest-encoding witness.  Up to n = 8
    the masks are uint8, so the union table of a suite batch is 64 KiB.
    """
    rows, n = adj.shape
    size = 1 << n
    chunk = max(1, BLOCK_CELLS // rows)
    cmax, _ = _component_tables(adj.astype(np.uint8) if n <= 8 else adj, lowest=False)

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

    k = np.bitwise_count(tau_arg)
    den = n + 1 - k - cmax[np.arange(rows), (size - 1) ^ tau_arg]
    common = np.gcd(k, den)
    return k // common, den // common, tau_arg


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
    adj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """phi's num and den per row of ``adj`` (connected graphs), and every
    minimizer of all rows, by row then ascending, with each row's end.

    The one conductance engine, for any n.  A mask splits as ``lo | hi <<
    h``, ``h = ceil(n / 2)``: ``vol(S) = vol_lo[lo] + vol_hi[hi]`` and
    ``cut(S) = cut_lo[lo] + cut_hi[hi] - 2 cross``, where ``cross``, the
    sum over u in lo of ``|N(u) & hi|``, is filled by doubling over the
    low vertices for a block of high halves at a time.  Rows go in
    chunks of ``max(1, cells >> n)``, ``cells = max(BLOCK_CELLS, 2^h)``,
    so rows share a chunk only when one block covers them all; a lone
    row's blocks cover its masks in ascending order.  Temporaries span
    at most ``cells`` cells and no table exceeds ``2^h`` entries per row.

    phi minimizes ``cut / vol`` over ``0 < vol <= m`` by float keys,
    which is exact: there ``cut <= vol <= m <= n(n - 1)/2 < 2^11`` (n <=
    64), so two distinct fractions differ by at least 2^-22 while each
    key, a correctly rounded quotient of at most 1, is off by at most
    2^-53; equal fractions get equal keys.  The minimizers are the masks
    whose key equals the minimum; the lowest is phi's witness.
    """
    n = adj.shape[1]
    h = (n + 1) // 2
    highs = 1 << (n - h)
    cells = max(BLOCK_CELLS, 1 << h)
    per_chunk = max(1, cells >> n)
    m_all = np.bitwise_count(adj).sum(axis=1, keepdims=True) // 2
    tables = (*_half_tables(adj, 0, h), *_half_tables(adj, h, n - h), adj[:, :h, None] >> h)
    phi_cut, phi_vol = np.zeros((2, len(adj)), np.int64)
    hits, counts = [], []
    for i in range(0, len(adj), per_chunk):
        m = m_all[i : i + per_chunk]
        vol_lo, cut_lo, vol_hi, cut_hi, high_adj = (t[i : i + per_chunk] for t in tables)
        rows = len(m)
        per_block = min(highs, cells // (rows << h))
        best = np.full(rows, np.inf)
        chunk_cut, chunk_vol = phi_cut[i : i + rows], phi_vol[i : i + rows]
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
            chunk_cut[better] = cut[better, first]
            chunk_vol[better] = vol[better, first]
            best[better] = block_min[better]
            keep = ~better[hit_rows]  # earlier hits of a row this block beat
            rows_now, masks_now = np.nonzero(key == best[:, None])
            hit_rows = np.concatenate([hit_rows[keep], rows_now])
            hit_masks = np.concatenate([hit_masks[keep], masks_now + (b0 << h)])
        hits.append(hit_masks)
        counts.append(np.bincount(hit_rows, minlength=rows))
    common = np.gcd(phi_cut, phi_vol)
    ends = np.cumsum(np.concatenate(counts)).tolist()
    return phi_cut // common, phi_vol // common, np.concatenate(hits), ends


def _exact(x: float | Fraction) -> Fraction:
    """``x`` as a Fraction; a float is read as the decimal it prints."""
    return Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)


def _scaled(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integers ``x * L`` for ``L`` the lcm of the denominators, and ``L``."""
    scale = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (scale // x.denominator) for x in xs], scale


def _sum_bounds(
    xs: Sequence[int], const: int
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """int64 bounds on ``(const + the sum of xs over a mask) / 2^s``, per mask.

    ``s`` is the least shift that brings ``const + sum(xs)`` below 2^30.
    The lower bound sums the shifted terms rounded down, from tables over
    the low and the high half of the items; the upper bound adds one for
    each term that the shift does not divide.
    """
    shift = max(0, (const + sum(xs)).bit_length() - 30)
    h = (len(xs) + 1) // 2
    ragged = mask_from_vertices(v for v, x in enumerate(xs) if x % (1 << shift))
    up = int(const % (1 << shift) > 0)
    tables = [np.array([const >> shift], np.int64), np.zeros(1, np.int64)]
    for v, x in enumerate(xs):
        tables[v >= h] = np.concatenate([tables[v >= h], tables[v >= h] + (x >> shift)])
    lo_table, hi_table = tables

    def bounds(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        floor = lo_table[masks & ((1 << h) - 1)] + hi_table[masks >> h]
        return floor, floor + np.bitwise_count(masks & ragged) + up

    return bounds


def _min_ratio(
    g: Graph, alpha: float | Fraction, beta: float | Fraction, weighted: bool = False
) -> tuple[Fraction, int]:
    """Minimize (alpha*cost(S) + beta) / (1 + W - value(S | C_max)) over proper S.

    cost and value are sums of the vertex weights when ``weighted``, and
    of ones otherwise (the denominator is then ``n - |S| - |C_max| + 1``);
    W is the total value.  C_max is the largest component of ``V - S`` by
    vertex count, ties to the one with the smallest vertex id, as in the
    paper's C_max(V - S); the values do not choose it, so a smaller
    component of higher value never counts.

    Exact: weights, alpha and beta become Fractions (:func:`_exact`) and
    then integers, so the ratio of S is a fixed multiple of ``N / D``, with
    ``N = alpha cost(S) + beta`` and ``D = 1 + value(V - S - C_max)``.

    A filter, then an exact check.  For the masks of a chunk at once,
    C_max is flooded from its lowest vertex (:func:`_component_tables`)
    and :func:`_sum_bounds` gives ``N_lo <= N / 2^a <= N_hi`` and ``D_lo
    <= D / 2^b <= D_hi``, each below 2^30 + 25.  ``U`` (+inf at first) is
    ``N_hi / D_lo`` of one mask, so it bounds the scaled minimum from
    above; a chunk's mask with the least float key ``N_hi / D_lo`` replaces
    it when smaller.  A mask is kept while ``N_lo / D_hi <= U``, an int64
    cross-product below 2^62.  Every minimizer S* is kept: a and b
    are shared, so for every mask T, ``N_lo(S*) / D_hi(S*) <= 2^(b-a)
    N(S*) / D(S*) <= 2^(b-a) N(T) / D(T) <= N_hi(T) / D_lo(T)``.  The kept
    masks are re-checked in exact integers in ascending order, and the
    first of the least wins, the lowest-encoding witness.  Without a shift
    only the minimizers are kept; weights with a huge spread only widen
    the kept set.
    """
    n = g.n
    full = full_mask(n)
    cost = g.cost_vector if weighted else (1,) * n
    value = g.value_vector if weighted else (1,) * n
    alpha = _exact(alpha)
    nums, num_scale = _scaled([alpha * _exact(c) for c in cost] + [_exact(beta)])
    q = nums.pop()
    vals, val_scale = _scaled([_exact(v) for v in value])
    adj = np.array([g.adj_masks], dtype=np.int32)
    flood = _flood_fill(adj)
    cmin = _component_tables(adj, lowest=True)[1].ravel()
    num_bounds, den_bounds = _sum_bounds(nums, q), _sum_bounds(vals, val_scale)
    up_num, up_den = 1, 0  # U = up_num / up_den, +inf until a D_lo is positive
    kept = np.zeros((4, 0), np.int64)  # rows S, V - S - C_max, N_lo, D_hi
    for c0 in range(1, full, BLOCK_CELLS):
        s = np.arange(c0, min(full, c0 + BLOCK_CELLS), dtype=np.int32)
        rest = full ^ s
        r = rest ^ flood((np.int32(1) << cmin.take(rest))[None], rest)[0]
        n_lo, n_hi = num_bounds(s)
        d_lo, d_hi = den_bounds(r)
        key = np.divide(n_hi, d_lo, out=np.full(len(s), np.inf), where=d_lo > 0)
        i = key.argmin()
        if d_lo[i] and int(n_hi[i]) * up_den < up_num * int(d_lo[i]):
            up_num, up_den = int(n_hi[i]), int(d_lo[i])
        new = n_lo * up_den <= up_num * d_hi
        kept = np.concatenate([kept, [a[new] for a in (s, r, n_lo, d_hi)]], axis=1)
        kept = kept[:, kept[2] * up_den <= up_num * kept[3]]
    best_num = best_den = best_mask = 0
    for s, r in zip(kept[0].tolist(), kept[1].tolist()):
        num = q + sum(nums[v] for v in vertices_from_mask(s))
        den = val_scale + sum(vals[v] for v in vertices_from_mask(r))
        if not best_den or num * best_den < best_num * den:
            best_num, best_den, best_mask = num, den, s
    return Fraction(best_num * val_scale, best_den * num_scale), best_mask


def vat_exact(g: Graph) -> MetricResult:
    """Exact vertex attack tolerance: the minimum attack ratio and its witness.

    The witness is the minimizing set with the lowest bit-mask encoding.
    The value always lies in (0, 1]: a single vertex already achieves at
    most 1, and removing everything is excluded because it can never beat
    a singleton.
    """
    _require_enumerable(g)
    num, den, witness = (int(a[0]) for a in _exact_block(np.array([g.adj_masks], np.int32)))
    return MetricResult(Fraction(num, den), witness, "vat")


def _check_alpha_beta(alpha: float, beta: float) -> None:
    if not 0 < alpha < math.inf:
        raise BadParameter(f"alpha must be positive and finite, got {alpha}")
    if not 0 <= beta < math.inf:
        raise BadParameter(f"beta must be nonnegative and finite, got {beta}")


def alpha_beta_vat_exact(g: Graph, alpha: float, beta: float) -> WeightedValue:
    """Attack tolerance with the attack cost reweighted to ``alpha*|S| + beta``.

    Exact for any finite alpha > 0 and beta >= 0 (a float counts as the
    decimal it prints); vertex weights are ignored.  ``(1, 0)`` reproduces
    :func:`vat_exact` exactly.
    """
    _check_alpha_beta(alpha, beta)
    _require_enumerable(g)
    value, witness = _min_ratio(g, alpha, beta)
    return WeightedValue(
        value=value, witness=witness, metric="alpha_beta_vat",
        parameters=(alpha, beta),
    )


def weighted_vat_exact(g: Graph) -> WeightedValue:
    """Attack tolerance of a cost-value weighted graph.

    Minimizes (sum of attack costs over S) divided by
    (1 + total value - value of S - value of the largest surviving
    component), exactly.  With all weights equal to one this coincides
    with :func:`vat_exact`.
    """
    _require_enumerable(g)
    value, witness = _min_ratio(g, 1, 0, weighted=True)
    return WeightedValue(value=value, witness=witness, metric="weighted_vat")


def alpha_beta_weighted_vat_exact(g: Graph, alpha: float, beta: float) -> WeightedValue:
    """The fully general form: reweighted attack cost on a weighted graph.

    Reduces exactly to each special case when parameters or weights are
    trivial.
    """
    _check_alpha_beta(alpha, beta)
    _require_enumerable(g)
    value, witness = _min_ratio(g, alpha, beta, weighted=True)
    return WeightedValue(
        value=value, witness=witness, metric="alpha_beta_weighted_vat",
        parameters=(alpha, beta),
    )


def conductance_exact(g: Graph) -> MetricResult:
    """Exact conductance: minimum cut/volume over sets of at most half volume.

    The witness is the minimizing set with the lowest bit-mask encoding.
    The value always lies in (0, 1].
    """
    _require_enumerable(g)
    num, den, minimizers, _ = _conductance_batch(np.array([g.adj_masks], np.int32))
    return MetricResult(Fraction(int(num[0]), int(den[0])), int(minimizers[0]), "conductance")


def conductance_minimizers(g: Graph) -> list[VertexMask]:
    """Every admissible set achieving the exact conductance, sorted by encoding."""
    _require_enumerable(g)
    return _conductance_batch(np.array([g.adj_masks], np.int32))[2].tolist()


def vat_witness_components(
    g: Graph, result: MetricResult
) -> tuple[VertexMask, list[VertexMask]]:
    """Decompose the survivors of a VAT witness.

    Returns ``(T, others)`` where ``T`` is the largest surviving
    component and ``others`` are the remaining components, largest first.
    """
    comps = components(g, result.witness)
    return comps[0], comps[1:]
