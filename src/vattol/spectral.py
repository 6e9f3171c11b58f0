"""Normalized adjacency spectrum and a sweep-cut conductance upper bound.

The matrix built here is the symmetrically normalized adjacency
N[u, v] = 1 / sqrt(d_u * d_v) on edges.  It is similar to the
row-stochastic random-walk matrix (D^-1 A), so the two share their
spectrum, and for d-regular graphs they are entrywise equal (both 1/d on
edges).  Symmetric matrices get us a stable, deterministic dense
eigensolver; for irregular graphs only the eigenvalues are quoted, which
the similarity transform makes matrix-variant independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import IsolatedVertex, NoConvergence, TrivialGraph
from .graph import Graph, VertexMask, require_connected, vertices_from_mask

_SIGN_EPS = 1e-12

#: Largest accepted max-norm residual of the computed lambda2 eigenpair.
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SpectralResult:
    """Second largest normalized-adjacency eigenvalue and derived gap."""

    lambda2: float
    gap: float
    residual: float
    n: int


@dataclass(frozen=True)
class SweepResult:
    """Best conductance found along the spectral sweep; an upper bound.

    The value is exact (cut and volume are integers), so comparisons
    against the exact conductance never suffer float rounding.
    """

    value: Fraction
    witness: VertexMask

    @property
    def witness_vertices(self) -> list[int]:
        return vertices_from_mask(self.witness)


def _require_spectral_graph(g: Graph) -> None:
    if g.n < 2:
        raise TrivialGraph("spectral quantities need at least two vertices")
    if any(d == 0 for d in g.deg):
        raise IsolatedVertex("normalization needs every degree positive")
    require_connected(g)


def _normalized_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """The normalized adjacency matrices of graphs that share n and have
    no isolated vertex, as one ``(k, n, n)`` stack."""
    n = graphs[0].n
    deg = np.array([g.deg for g in graphs])
    which, rows = np.divmod(np.repeat(np.arange(deg.size), deg.ravel()), n)
    adj = chain.from_iterable(g.adj for g in graphs)
    cols = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=len(rows))
    inv_sqrt = 1.0 / np.sqrt(deg)
    mats = np.zeros((len(graphs), n, n))
    mats[which, rows, cols] = inv_sqrt[which, rows] * inv_sqrt[which, cols]
    return mats


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric normalized adjacency matrix of ``g``."""
    _require_spectral_graph(g)
    return _normalized_stack([g])[0]


def _eigenpairs(
    mats: np.ndarray,
) -> tuple[list[SpectralResult | None], np.ndarray, list[float]]:
    """One ``eigh`` over a ``(k, n, n)`` stack.  Per matrix: the result of
    its second largest eigenpair, None if the pair's max-norm residual is
    above :data:`_RESIDUAL_TOL`; the eigenvector (row i); the residual."""
    try:
        evals, evecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    # eigh sorts ascending; the second largest sits at index n-2
    lams, vecs = evals[:, -2], evecs[:, :, -2]
    products = np.matmul(mats, vecs[:, :, None])[:, :, 0]
    residuals = np.abs(products - lams[:, None] * vecs).max(axis=1).tolist()
    n = mats.shape[1]
    results = [
        SpectralResult(lambda2=lam, gap=1.0 - lam, residual=res, n=n)
        if res <= _RESIDUAL_TOL
        else None
        for lam, res in zip(lams.tolist(), residuals)
    ]
    return results, vecs, residuals


def _lambda2_pair(g: Graph) -> tuple[SpectralResult, np.ndarray]:
    (result,), vecs, (residual,) = _eigenpairs(normalized_adjacency(g)[None])
    if result is None:
        raise NoConvergence(f"eigenpair residual {residual:.3e} above tolerance")
    vec = vecs[0].copy()
    # fix the sign: first entry of non-negligible magnitude is made positive
    for x in vec:
        if abs(x) > _SIGN_EPS:
            if x < 0:
                vec = -vec
            break
    return result, vec


def lambda2(g: Graph) -> SpectralResult:
    """Second largest eigenvalue of the normalized adjacency matrix.

    Eigenvalues are sorted descending; the top one is 1 (simple, because
    the graph is connected), so ``1 - lambda2`` is the spectral gap.
    """
    return _lambda2_pair(g)[0]


def _lambda2_batch(graphs: Sequence[Graph]) -> list[SpectralResult | None]:
    """:func:`lambda2` of connected graphs that share one n >= 2, by one
    stacked ``eigh``: bit for bit its result, or None where it raises."""
    try:
        return _eigenpairs(_normalized_stack(graphs))[0]
    except NoConvergence:
        return [None] * len(graphs)


def spectral_gap(g: Graph) -> float:
    """``1 - lambda2``; positive for every connected graph."""
    return lambda2(g).gap


def sweep_conductance(g: Graph) -> SweepResult:
    """Cheeger-style sweep: an exact upper bound on conductance.

    Vertices are ordered by the lambda2 eigenvector rescaled per vertex
    by 1/sqrt(degree) (the random-walk eigenvector), descending, ties
    broken by vertex id ascending; every prefix with volume at most half
    the total is scored with its exact cut/volume ratio and the best one
    is returned.  Since each prefix is an admissible set, the result can
    never be below the true conductance.
    """
    _, vec = _lambda2_pair(g)
    scores = vec / np.sqrt(np.array(g.deg, dtype=float))
    order = np.lexsort((np.arange(g.n), -scores))
    deg = g.deg
    adj_masks = g.adj_masks
    m = g.m
    cur = 0
    vol = 0
    cut = 0
    best_cut = best_vol = 0
    best_mask = -1
    have = False
    for v in order[:-1]:
        v = int(v)
        bit = 1 << v
        cut += deg[v] - 2 * (adj_masks[v] & cur).bit_count()
        cur |= bit
        vol += deg[v]
        if vol > m:
            break  # prefix volumes only grow
        if (
            not have
            or cut * best_vol < best_cut * vol
            or (cut * best_vol == best_cut * vol and cur < best_mask)
        ):
            best_cut, best_vol, best_mask = cut, vol, cur
            have = True
    return SweepResult(value=Fraction(best_cut, best_vol), witness=best_mask)
