"""Exact vertex attack tolerance and conductance by subset enumeration.

Every value is exact: values are :class:`fractions.Fraction` and
comparisons cross-multiply integers (or, in :func:`exact_batch`, compare
float keys that are provably exact), so downstream inequality checks can
never flip on rounding.  A float vertex weight or (alpha, beta) parameter
counts as the decimal it prints, ``Fraction(repr(x))``, so ``0.1`` means
exactly 1/10.

Witness determinism contract: whenever several sets achieve the minimum,
the reported witness is the one with the lowest integer encoding of its
bit mask (bit i = vertex i).  Every engine here enforces that tie-break
explicitly, so results do not depend on enumeration order or on how the
subset space is partitioned across workers.

Engines, chosen by vertex count:

- ``n <= 16`` (:data:`MINIMIZER_LIMIT`): :func:`exact_batch`, one numpy
  pass over (graphs x subsets) tables that yields tau, phi and every
  phi-minimizer together; :func:`vat_exact`, :func:`conductance_exact`
  and :func:`conductance_minimizers` call it with a batch of one.  Its
  memory is bounded: temporaries cover at most :data:`BLOCK_CELLS`
  (2^13) graph x subset cells, and the tables it keeps per call are three
  uint8 entries per subset (64 KiB each at n = 16) plus neighbour-union
  tables over the low eight vertices and over the rest; nothing is
  cached across calls.
- ``n > 16``: scalar loops, the size-pruned Gosper enumeration for tau
  and a Gray-code scan for phi.

The weighted and (alpha, beta) forms always use the scalar Gosper
enumeration, :func:`_min_ratio_exact`, the one engine behind every VAT
form.
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
    full_mask,
    require_connected,
    vertices_from_mask,
)

#: Hard upper limit on exact enumeration (anything larger is hopeless anyway).
HARD_CAP = 64

#: Environment variable overriding the default enumeration limit.
LIMIT_ENV_VAR = "VATTOL_ENUM_LIMIT"

DEFAULT_LIMIT = 20

#: Largest n handled by :func:`exact_batch`, and the cap of the suite's
#: all-minimizers check.
MINIMIZER_LIMIT = 16

#: Graph x subset cells per kernel chunk, which bounds the kernel's
#: temporaries (a few arrays of this many int32/float64 cells).
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
    """tau, phi and every conductance minimizer of one graph, from one pass.

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
    deg = g.deg
    adj_masks = g.adj_masks
    outside = full_mask(g.n) & ~s
    vol = 0
    cut = 0
    t = s
    while t:
        bit = t & -t
        t ^= bit
        v = bit.bit_length() - 1
        vol += deg[v]
        cut += (adj_masks[v] & outside).bit_count()
    if vol > g.m:  # volume(V)/2 == m; the tie is admissible
        raise VolumeTooLarge(f"volume {vol} exceeds half the total {g.m}")
    return Fraction(cut, vol)


def exact_batch(graphs: Sequence[Graph]) -> list[ExactMetrics]:
    """tau, phi and all phi-minimizers of graphs that share one n <= 16.

    Lays the graphs out as (graphs x subsets) tables and fills them in one
    pass (see :func:`_exact_block`).  Values, lowest-encoding witnesses
    and minimizer lists are those of the scalar engines that
    :func:`vat_exact` and :func:`conductance_exact` run above n = 16.
    Weights are ignored, as those functions ignore them.  Every graph
    must be connected.
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
    out: list[ExactMetrics] = []
    for i in range(0, len(graphs), per_block):
        out.extend(_exact_block(graphs[i : i + per_block], n))
    return out


def _union_table(adj: np.ndarray) -> np.ndarray:
    """Per row, the neighbour union of every subset of the given vertices."""
    rows, b = adj.shape
    table = np.zeros((rows, 1 << b), np.int32)
    for v in range(b):
        t = 1 << v
        table[:, t : 2 * t] = table[:, :t] | adj[:, v : v + 1]
    return table


def _exact_block(block: Sequence[Graph], n: int) -> list[ExactMetrics]:
    """The kernel behind :func:`exact_batch`, for ``len(block) << n`` cells.

    Three uint8 tables indexed by vertex mask are filled one top-bit layer
    at a time: a mask ``x`` in ``[2^k, 2^(k+1))`` has top vertex ``k``,
    and ``y = x - 2^k`` is already known, so

    - ``vol[x] = vol[y] + deg(k)`` and
      ``cut[x] = cut[y] + deg(k) - 2 |N(k) & y|``;
    - ``cmax[x]``, the largest component inside ``x``, is
      ``max(|C|, cmax[x - C])`` with ``C`` the component of ``k``, found
      by a flood fill over all masks of the chunk at once.  ``x - C`` lacks
      vertex ``k``, so it lies in an earlier layer.

    A flood step looks up neighbour unions in two tables, over the low
    eight vertices and over the rest, so no ``2^n x n`` table exists.

    tau minimizes ``|S| / (n - |S| - cmax[V - S] + 1)`` and phi minimizes
    ``cut[S] / vol[S]`` over ``vol[S] <= m``.  Both are argmins over float
    keys, which is exact here.  Every numerator and denominator is an
    integer of at most 240 (vol <= 2m <= 240 at n <= 16) and every key
    is at most 15, so two distinct fractions differ by at least 1/240^2
    while each key, a correctly rounded quotient, is off by less than
    15 * 2^-53; equal fractions get equal keys.  ``argmin`` and the
    ascending mask order keep the lowest-encoding witness.
    """
    rows = len(block)
    size = 1 << n
    full = size - 1
    chunk = BLOCK_CELLS // rows
    adj = np.array([g.adj_masks for g in block], dtype=np.int32)
    deg = np.bitwise_count(adj)
    m = deg.sum(axis=1) // 2
    low = min(n, 8)
    low_mask = (1 << low) - 1
    row = np.arange(rows, dtype=np.int32)[:, None]
    nu_low = _union_table(adj[:, :low]).ravel()
    nu_high = _union_table(adj[:, low:]).ravel()
    low_off, high_off, table_off = row << low, row << (n - low), row << n
    vol = np.zeros((rows, size), np.uint8)
    cut = np.zeros((rows, size), np.uint8)
    cmax = np.zeros((rows, size), np.uint8)
    cmax_flat = cmax.ravel()
    for k in range(n):
        top = 1 << k
        adj_k = adj[:, k : k + 1]
        deg_k = deg[:, k : k + 1]
        for j0 in range(0, top, chunk):
            j1 = min(top, j0 + chunk)
            y = np.arange(j0, j1, dtype=np.int32)
            dst = slice(top + j0, top + j1)
            # uint8 arithmetic wraps mod 256, and every true value fits.
            vol[:, dst] = vol[:, j0:j1] + deg_k
            cut[:, dst] = cut[:, j0:j1] + deg_k - 2 * np.bitwise_count(adj_k & y)
            x = y | top
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
            cmax[:, dst] = np.maximum(
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
    phi_best = np.full(rows, np.inf)
    hits: list[list[np.ndarray]] = [[] for _ in range(rows)]
    for c0 in range(0, size, chunk):
        c1 = min(size, c0 + chunk)
        card = np.bitwise_count(np.arange(c0, c1, dtype=np.int32))
        # S = V is no attack set either, but its key n > 1 never wins.
        tau_key = card / ((n + 1 - card) - cmax_of_rest[:, c0:c1])
        vol_s = vol[:, c0:c1]
        admissible = vol_s <= m[:, None]
        if c0 == 0:  # the empty set is neither an attack set nor admissible
            tau_key[:, 0] = np.inf
            admissible[:, 0] = False
        phi_key = np.full(tau_key.shape, np.inf)
        np.divide(cut[:, c0:c1], vol_s, out=phi_key, where=admissible)

        tau_min = tau_key.min(axis=1)
        better = tau_min < tau_best
        tau_arg[better] = tau_key.argmin(axis=1)[better] + c0
        tau_best[better] = tau_min[better]
        # The first chunk holds the admissible singleton {0} (deg <= m),
        # so phi_best is finite from then on and an all-inf chunk adds no hit.
        phi_min = phi_key.min(axis=1)
        for r in np.flatnonzero(phi_min <= phi_best):
            found = np.flatnonzero(phi_key[r] == phi_min[r]) + c0
            if phi_min[r] < phi_best[r]:
                hits[r] = [found]
            else:
                hits[r].append(found)
        phi_best = np.minimum(phi_best, phi_min)

    out = []
    for r in range(rows):
        s = int(tau_arg[r])
        k = s.bit_count()
        tau = Fraction(k, n + 1 - k - int(cmax[r, full ^ s]))
        minimizers = np.concatenate(hits[r])
        w = int(minimizers[0])
        phi = Fraction(int(cut[r, w]), int(vol[r, w]))
        out.append(
            ExactMetrics(
                tau=MetricResult(value=tau, witness=s, metric="vat"),
                phi=MetricResult(value=phi, witness=w, metric="conductance"),
                minimizers=minimizers,
            )
        )
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
        return exact_batch([g])[0].tau
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


def _conductance_scan(
    g: Graph, collect: tuple[int, int] | None = None
) -> tuple[int, int, int] | list[int]:
    """One Gray-code sweep over all subsets maintaining (cut, volume).

    Successive Gray codes differ in one vertex, so the cut updates in
    O(1) bit operations per step.  With ``collect=None`` returns the
    minimizing ``(cut, vol, mask)``; otherwise collects every admissible
    mask whose ratio equals the fraction ``collect = (num, den)``.
    """
    n = g.n
    deg = g.deg
    adj_masks = g.adj_masks
    m = g.m
    cur = 0
    vol = 0
    cut = 0
    best_cut = best_vol = 0
    best_mask = -1
    have = False
    hits: list[int] = []
    want_num = want_den = 0
    if collect is not None:
        want_num, want_den = collect
    for i in range(1, 1 << n):
        bit = i & -i
        v = bit.bit_length() - 1
        av = adj_masks[v]
        if cur & bit:
            cur ^= bit
            vol -= deg[v]
            cut -= deg[v] - 2 * (av & cur).bit_count()
        else:
            cut += deg[v] - 2 * (av & cur).bit_count()
            cur ^= bit
            vol += deg[v]
        if vol > m:
            continue
        if collect is None:
            if (
                not have
                or cut * best_vol < best_cut * vol
                or (cut * best_vol == best_cut * vol and cur < best_mask)
            ):
                best_cut, best_vol, best_mask = cut, vol, cur
                have = True
        elif cut * want_den == want_num * vol:
            hits.append(cur)
    if collect is None:
        return best_cut, best_vol, best_mask
    hits.sort()
    return hits


def conductance_exact(g: Graph, limit: int | None = None) -> MetricResult:
    """Exact conductance: minimum cut/volume over sets of at most half volume.

    The witness is the minimizing set with the lowest bit-mask encoding.
    The value always lies in (0, 1].
    """
    _require_metric_graph(g, enumeration_limit(limit))
    if g.n <= MINIMIZER_LIMIT:
        return exact_batch([g])[0].phi
    cut, vol, mask = _conductance_scan(g)
    return MetricResult(value=Fraction(cut, vol), witness=mask, metric="conductance")


def conductance_minimizers(g: Graph, limit: int | None = None) -> list[VertexMask]:
    """Every admissible set achieving the exact conductance, sorted by encoding."""
    if g.n <= MINIMIZER_LIMIT:
        _require_metric_graph(g, enumeration_limit(limit))
        return exact_batch([g])[0].minimizers.tolist()
    result = conductance_exact(g, limit)
    return _conductance_scan(
        g, (result.value.numerator, result.value.denominator)
    )


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
