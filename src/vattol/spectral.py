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

import numpy as np

from .errors import DisconnectedInput, IsolatedVertex, NoConvergence, TrivialGraph
from .graph import Graph, VertexMask, is_connected, vertices_from_mask

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
    if not is_connected(g):
        raise DisconnectedInput(
            "graph is disconnected; restrict_to_largest_component() first"
        )


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric normalized adjacency matrix of ``g``."""
    _require_spectral_graph(g)
    inv_sqrt = np.array([1.0 / np.sqrt(d) for d in g.deg])
    mat = np.zeros((g.n, g.n))
    for u, v in g.edges():
        w = inv_sqrt[u] * inv_sqrt[v]
        mat[u, v] = w
        mat[v, u] = w
    return mat


def _lambda2_pair(g: Graph) -> tuple[float, np.ndarray, float]:
    mat = normalized_adjacency(g)
    try:
        evals, evecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    # eigh sorts ascending; the second largest sits at index n-2
    lam = float(evals[-2])
    vec = evecs[:, -2].copy()
    residual = float(np.max(np.abs(mat @ vec - lam * vec)))
    if residual > _RESIDUAL_TOL:
        raise NoConvergence(f"eigenpair residual {residual:.3e} above tolerance")
    # fix the sign: first entry of non-negligible magnitude is made positive
    for x in vec:
        if abs(x) > _SIGN_EPS:
            if x < 0:
                vec = -vec
            break
    return lam, vec, residual


def lambda2(g: Graph) -> SpectralResult:
    """Second largest eigenvalue of the normalized adjacency matrix.

    Eigenvalues are sorted descending; the top one is 1 (simple, because
    the graph is connected), so ``1 - lambda2`` is the spectral gap.
    """
    lam, _, residual = _lambda2_pair(g)
    return SpectralResult(lambda2=lam, gap=1.0 - lam, residual=residual, n=g.n)


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
    _, vec, _ = _lambda2_pair(g)
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
