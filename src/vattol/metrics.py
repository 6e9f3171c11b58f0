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

Engines, none of which keeps a result across calls:

- phi and its witness, for every n: :func:`_conductance_batch`, one
  numpy pass over graphs that share n, with tables of 2^ceil(n/2)
  entries per graph.
- all four VAT forms, for every n up to :data:`HARD_CAP`: one
  enumeration, :func:`_component_tables`, fills a table of 2^n entries
  per graph by flooding the component of each mask's top vertex
  (:func:`_flood_fill`, which drops settled masks): uint8 sizes for tau
  (:func:`_exact_block`, 1 MiB at n = 20), int32 masks of C_max for the
  other forms (:func:`_min_ratio`, 1 MiB at n = 18, 64 MiB at n = 24).

Temporaries of the numpy kernels span at most ``max(BLOCK_CELLS,
2^ceil(n/2))`` cells at any batch width; the engines return Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    cut_size,
    full_mask,
    largest_component,
    mask_from_vertices,
    require_connected,
    vertices_from_mask,
    volume,
)

#: Largest n of every exact metric: the VAT engine keeps a table of 2^n
#: entries per graph (at n = 24, 16 MiB of sizes or 64 MiB of masks).
HARD_CAP = 24

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
    """tau and phi of one graph, by :func:`exact_batch`: reduced fractions
    with their lowest-encoding witnesses, as plain ints."""

    tau_num: int
    tau_den: int
    tau_witness: int
    phi_num: int
    phi_den: int
    phi_witness: int

    @property
    def tau(self) -> MetricResult:
        return MetricResult(Fraction(self.tau_num, self.tau_den), self.tau_witness, "vat")

    @property
    def phi(self) -> MetricResult:
        return MetricResult(Fraction(self.phi_num, self.phi_den), self.phi_witness, "conductance")


def exact_batch(graphs: Sequence[Graph]) -> list[ExactMetrics]:
    """tau and phi of graphs that share one n <= 24.

    tau comes from one numpy pass over a (graphs x subsets) table of
    largest surviving components (see :func:`_exact_block`), phi from
    :func:`_conductance_batch`, the conductance engine for every n.
    Both take one int32 adjacency array of up to ``max(1, 8 *
    BLOCK_CELLS >> n)`` graphs per call (256 at n = 8, one from n = 16
    on): a uint8 VAT table of ``max(2^n, 8 * BLOCK_CELLS)`` cells.
    Values and lowest-encoding witnesses are those :func:`vat_exact` and
    :func:`conductance_exact` return, and so are the errors, raised in
    the same order.  Weights are ignored, as those functions ignore them.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise BadParameter("exact_batch needs graphs that share one vertex count")
    for g in graphs:
        _require_enumerable(g)
    adj = np.array([g.adj_masks for g in graphs], np.int32)
    return list(map(ExactMetrics._make, zip(*_exact_columns(adj))))


def _exact_columns(adj: np.ndarray) -> list[list[int]]:
    """The fields of :class:`ExactMetrics` as six columns, one entry per
    row of ``adj`` (connected graphs sharing one n <= 24), by the calls
    :func:`exact_batch` describes."""
    per_call = max(1, (8 * BLOCK_CELLS) >> adj.shape[1])
    columns: list[list[int]] = [[] for _ in ExactMetrics._fields]
    for i in range(0, len(adj), per_call):
        part = adj[i : i + per_call]
        for column, values in zip(columns, (*_exact_block(part), *_conductance_batch(part))):
            column += values
    return columns


def _flood_fill(adj: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A flood fill over many masks at once for the graphs whose rows are ``adj``.

    ``flood(comp, within)`` grows each mask of ``comp`` (rows x masks, a
    fresh array, grown in place) to its component inside ``within``, one
    mask per column or, as a rows x 1 array, per row.  A step looks up
    neighbour unions in two tables, over the low eight vertices and over
    the rest, so no ``2^n x n`` table exists, and adds the vertices of
    ``within`` not yet in the component.  A single-graph flood drops its
    settled masks whenever fewer than half still grow, and writes them
    back; a batch flood steps all masks until the last settles.
    Temporaries span at most the cells of ``comp``, which callers keep
    within :data:`BLOCK_CELLS`.
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
    offsets = row << low, row << (n - low)

    def lookup(half: int, index: np.ndarray) -> np.ndarray:
        # One row's offsets are zeros, and adding them costs a pass.
        return unions[half].take(index if rows == 1 else index + offsets[half])

    def flood(comp: np.ndarray, within: np.ndarray) -> np.ndarray:
        # one row: a view, so writes reach comp
        out, within = (comp[0], within.reshape(-1)) if rows == 1 else (comp, within)
        grown, front, avail = out, out, within & ~out
        at = None  # once compacted, the masks of out that grown holds
        while True:
            reach = lookup(0, front & low_mask)
            if n > low:
                reach |= lookup(1, front >> low)
            front = reach & avail
            growing = np.count_nonzero(front)
            if rows == 1 and 2 * growing < len(front):
                if at is not None:
                    out[at] = grown
                keep = front.nonzero()[0]
                at = keep if at is None else at[keep]
                grown, front, avail = grown[keep], front[keep], avail[keep]
            if not growing:
                return comp
            grown |= front
            avail ^= front

    return flood


def _component_tables(adj: np.ndarray, masks: bool) -> np.ndarray:
    """Per row and vertex mask ``x``, C_max in ``x``: its size (uint8), or
    with ``masks`` the component itself (a mask of the dtype of ``adj``).

    The one VAT enumeration.  C_max is the component with the most
    vertices, ties to the smaller lowest vertex.  A mask ``x`` in ``[2^k,
    2^(k+1))`` has top vertex ``k``; its components are ``C``, that of
    ``k``, flooded over all masks of a chunk at once, and those of ``x -
    C``, which lacks ``k`` and so lies in an earlier layer.  Temporaries
    span ``BLOCK_CELLS`` cells of the dtype of ``adj``.
    """
    rows, n = adj.shape
    chunk = max(1, BLOCK_CELLS // rows)
    flood = _flood_fill(adj)
    table_off = np.arange(rows, dtype=np.int32)[:, None] << n
    table = np.zeros((rows, 1 << n), adj.dtype if masks else np.uint8)
    for k in range(n):
        top = 1 << k
        adj_k = adj[:, k : k + 1]
        for j0 in range(0, top, chunk):
            j1 = min(top, j0 + chunk)
            x = np.arange(j0, j1, dtype=adj.dtype) | top
            comp = flood((adj_k & x) | top, x)
            rest = x ^ comp if rows == 1 else (x ^ comp) + table_off  # one row: offsets 0
            old = table.ravel().take(rest)
            if masks:
                size, size_old = np.bitwise_count(comp), np.bitwise_count(old)
                wins = (size > size_old) | ((size == size_old) & ((comp & -comp) < (old & -old)))
                table[:, top + j0 : top + j1] = np.where(wins, comp, old)
            else:
                table[:, top + j0 : top + j1] = np.maximum(np.bitwise_count(comp), old)
    return table


def _first_min(blocks: Iterable[tuple[int, int, np.ndarray]], rows: int) -> np.ndarray:
    """Per row, the mask of the first least key over ``blocks`` of (first
    row, first mask, keys), in ascending mask order per row: the first
    ``argmin`` in a block and a strict ``<`` across blocks keep the
    lowest-encoding witness."""
    best = np.full(rows, np.inf)
    arg = np.zeros(rows, np.int64)
    for r0, c0, key in blocks:
        low = key.min(axis=1)
        at = slice(r0, r0 + len(key))
        better = low < best[at]
        arg[at][better] = key.argmin(axis=1)[better] + c0
        best[at][better] = low[better]
    return arg


def _exact_block(adj: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """tau of the connected graphs in the rows of ``adj``: num, den, witness.

    tau minimizes ``|S| / (n - |S| - cmax[V - S] + 1)`` over the table of
    :func:`_component_tables`, by :func:`_first_min` over float keys in
    chunks of ``BLOCK_CELLS`` cells, which is exact here: every numerator
    and denominator is an integer of at most n + 1 <= 25 and every key is
    at most 24, so two distinct fractions differ by at least 1/25^2 while
    each key, a correctly rounded quotient, is off by at most 24 * 2^-53;
    equal fractions get equal keys.  Up to n = 8 the masks are uint8, so
    the union table of a suite batch is 64 KiB.
    """
    rows, n = adj.shape
    size = 1 << n
    chunk = max(1, BLOCK_CELLS // rows)
    cmax = _component_tables(adj.astype(np.uint8) if n <= 8 else adj, masks=False)

    # Column s of this view is cmax of the survivors V - s.
    cmax_of_rest = cmax[:, ::-1]

    def blocks():
        for c0 in range(0, size, chunk):
            card = np.bitwise_count(np.arange(c0, min(size, c0 + chunk), dtype=np.int32))
            # S = V is no attack set either, but its key n > 1 never wins.
            key = card / ((n + 1 - card) - cmax_of_rest[:, c0 : c0 + chunk])
            if c0 == 0:  # nor is the empty set
                key[:, 0] = np.inf
            yield 0, c0, key

    tau_arg = _first_min(blocks(), rows)
    k = np.bitwise_count(tau_arg)
    den = n + 1 - k - cmax[np.arange(rows), (size - 1) ^ tau_arg]
    common = np.gcd(k, den)
    return (k // common).tolist(), (den // common).tolist(), tau_arg.tolist()


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


def _conductance_keys(adj: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Blocks of conductance keys of the rows of ``adj``, for :func:`_first_min`.

    A key is ``cut / vol`` where ``0 < vol <= m``, else inf.  A mask splits
    as ``lo | hi << h``, ``h = ceil(n / 2)``: ``vol(S) = vol_lo[lo] +
    vol_hi[hi]`` and ``cut(S) = cut_lo[lo] + cut_hi[hi] - 2 cross``, where
    ``2 cross``, twice the sum over u in lo of ``|N(u) & hi|``, is filled
    by doubling over the low vertices for a block of high halves at a
    time.  Rows go in chunks of ``max(1, cells >> n)``, ``cells =
    max(BLOCK_CELLS, 2^h)``, so rows share a chunk only when one block
    covers them all; a lone row's blocks cover its masks in ascending
    order.  Temporaries span at most ``cells`` cells and no table exceeds
    ``2^h`` entries per row.
    """
    n = adj.shape[1]
    h = (n + 1) // 2
    highs = 1 << (n - h)
    cells = max(BLOCK_CELLS, 1 << h)
    per_chunk = max(1, cells >> n)
    m_all = np.bitwise_count(adj).sum(axis=1, keepdims=True) // 2
    tables = (*_half_tables(adj, 0, h), *_half_tables(adj, h, n - h), adj[:, :h, None] >> h)
    for i in range(0, len(adj), per_chunk):
        m = m_all[i : i + per_chunk]
        vol_lo, cut_lo, vol_hi, cut_hi, high_adj = (t[i : i + per_chunk] for t in tables)
        rows = len(m)
        per_block = min(highs, cells // (rows << h))
        for b0 in range(0, highs, per_block):
            b1 = min(highs, b0 + per_block)
            twice_edges = 2 * np.bitwise_count(high_adj & np.arange(b0, b1))
            twice_cross = np.zeros((rows, b1 - b0, 1 << h), np.int32)
            for u in range(h):
                t = 1 << u
                twice_cross[:, :, t : 2 * t] = twice_cross[:, :, :t] + twice_edges[:, u, :, None]
            vol = vol_lo[:, None, :] + vol_hi[:, b0:b1, None]
            cut = cut_lo[:, None, :] + cut_hi[:, b0:b1, None] - twice_cross
            vol, cut = vol.reshape(rows, -1), cut.reshape(rows, -1)
            if b0 == 0:  # the empty set is not admissible
                vol[:, :1] = m + 1
            yield i, b0 << h, np.where(vol <= m, cut / vol, np.inf)


def _conductance_batch(adj: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """phi's num, den and witness per row of ``adj`` (connected graphs).

    The one conductance engine, for any n: :func:`_first_min` over the
    keys of :func:`_conductance_keys`, which are exact: where ``0 < vol
    <= m``, ``cut <= vol <= m <= n(n - 1)/2 < 2^11`` (n <= 64), so two
    distinct fractions differ by at least 2^-22 while each key, a
    correctly rounded quotient of at most 1, is off by at most 2^-53;
    equal fractions get equal keys.  The witness S has ``vol = sum of
    deg v`` over v in S and ``cut = vol - sum of |N(v) & S|``.
    """
    witness = _first_min(_conductance_keys(adj), len(adj))
    inside = (witness[:, None] >> np.arange(adj.shape[1])) & 1
    vol = (inside * np.bitwise_count(adj)).sum(axis=1)
    cut = vol - (inside * np.bitwise_count(adj & witness[:, None])).sum(axis=1)
    common = np.gcd(cut, vol)
    return (cut // common).tolist(), (vol // common).tolist(), witness.tolist()


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
    C_max is read from the table of :func:`_component_tables` and
    :func:`_sum_bounds` gives ``N_lo <= N / 2^a <= N_hi`` and ``D_lo
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
    cmask = _component_tables(np.array([g.adj_masks], np.int32), masks=True).ravel()
    num_bounds, den_bounds = _sum_bounds(nums, q), _sum_bounds(vals, val_scale)
    up_num, up_den = 1, 0  # U = up_num / up_den, +inf until a D_lo is positive
    kept = np.zeros((4, 0), np.int64)  # rows S, V - S - C_max, N_lo, D_hi
    for c0 in range(1, full, BLOCK_CELLS):
        s = np.arange(c0, min(full, c0 + BLOCK_CELLS), dtype=np.int32)
        rest = full ^ s
        r = rest ^ cmask.take(rest)
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
    num, den, witness = (a[0] for a in _exact_block(np.array([g.adj_masks], np.int32)))
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
    num, den, witness = (a[0] for a in _conductance_batch(np.array([g.adj_masks], np.int32)))
    return MetricResult(Fraction(num, den), witness, "conductance")


def conductance_minimizers(g: Graph) -> list[VertexMask]:
    """Every admissible set achieving the exact conductance, sorted by encoding:
    one pass keeps the masks whose key equals the least so far, restarting
    when a block's least key is lower (block 0 holds the finite key of {0})."""
    _require_enumerable(g)
    best, found = np.inf, []
    for _, c0, key in _conductance_keys(np.array([g.adj_masks], np.int32)):
        low = key.min()
        if low < best:
            best, found = low, []
        if low == best:
            found += (np.flatnonzero(key[0] == best) + c0).tolist()
    return found
