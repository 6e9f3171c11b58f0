"""Normalized adjacency spectrum and a sweep-cut conductance upper bound.

The matrix used here is the symmetrically normalized adjacency
N[u, v] = 1 / sqrt(d_u * d_v) on edges.  It is similar to the
row-stochastic random-walk matrix (D^-1 A), so the two share their
spectrum, and for d-regular graphs they are entrywise equal (both 1/d on
edges).  For irregular graphs only the eigenvalues are quoted, which the
similarity transform makes matrix-variant independent.

lambda2 and its eigenvector come from one of two solvers, picked by size:

- up to :data:`_DENSE_MAX_N` vertices (every graph of the standard
  corpus), a dense ``numpy.linalg.eigh`` of the n x n matrix, O(n^3)
  time and O(n^2) memory; the suite's stacked solve (:func:`_gap_batch`),
  which builds its matrices from the neighbour masks of graphs with
  n <= 24, gives the same bits;
- above it, matrix-free Lanczos (:func:`_lanczos`): N is applied edge by
  edge, the known top eigenvector ``D^{1/2} 1`` is deflated, and each
  new Krylov vector is orthogonalized twice against the whole basis,
  allocated once for every row the loop can reach.  Time is
  O(k^2 n + k m) and memory O(k n) for a Krylov dimension k, about 200
  to 300 on random cubic graphs with n = 2000.  Clustered spectra
  (cycles, paths) would need k near n; there Lanczos gives up early and
  the dense solve runs instead, or raises :class:`NoConvergence` if its
  matrix is over :data:`_MEMORY_BUDGET` (n > 5,792), which also caps the basis.

The cutoff is the measured crossover.  On random d-regular graphs
(d = 3, 4, 5; a 2-vCPU Xeon VM), Lanczos with its fallbacks takes 0.8-1.05
of the dense time at n = 384 and under half of it from n = 640.  Where
it falls back, a call costs about 1.2 times the dense solve; that is
most long cycles and paths, and 2 in 100 random cubic graphs at n = 2000.

Both solvers return the raw pair and its max-norm residual
``|N v - lambda v|``, computed with N's one set of values (:func:`_nonzeros`);
:func:`_certified` refuses the pair when that residual is above
:data:`_RESIDUAL_TOL`, and a refused pair raises :class:`NoConvergence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import IsolatedVertex, NoConvergence, TrivialGraph
from .generators import _splitmix64
from .graph import Graph, VertexMask, mask_from_vertices, require_connected, vertices_from_mask

_SIGN_EPS = 1e-12

#: Largest accepted max-norm residual of the computed lambda2 eigenpair.
_RESIDUAL_TOL = 1e-10

#: Largest n solved by a dense ``eigh``; larger graphs take :func:`_lanczos`.
_DENSE_MAX_N = 384
#: Lanczos stops at a Ritz residual estimate this far under the
#: certificate, so its vector orders the sweep as the dense one does.
_RITZ_TOL = 1e-12
#: Lanczos hands the graph to the dense solve before its Krylov dimension
#: passes this share of n.
_KRYLOV_SHARE = 0.6
#: Lanczos steps between Ritz checks.
_CHECK_EVERY = 20
#: Bytes of float64 one solve may hold: the n x n matrix of the dense
#: solve, or the Lanczos basis (``eigh``'s own workspace not counted).
_MEMORY_BUDGET = 256 << 20


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
    ``spectral`` is the :func:`lambda2` result whose eigenvector ordered
    the sweep, so lambda2 and the gap need no second solve.
    """

    value: Fraction
    witness: VertexMask
    spectral: SpectralResult

    @property
    def witness_vertices(self) -> list[int]:
        return vertices_from_mask(self.witness)


def _require_spectral_graph(g: Graph) -> None:
    if g.n < 2:
        raise TrivialGraph("spectral quantities need at least two vertices")
    if any(d == 0 for d in g.deg):
        raise IsolatedVertex("normalization needs every degree positive")
    require_connected(g)


def _nonzeros(g: Graph) -> tuple[np.ndarray, ...]:
    """The nonzeros of the normalized adjacency matrix of ``g``, which has
    no isolated vertex: row, column and value."""
    deg = np.array(g.deg)
    rows = np.repeat(np.arange(g.n), deg)
    cols = np.fromiter(chain.from_iterable(g.adj), dtype=np.intp, count=len(rows))
    inv_sqrt = 1.0 / np.sqrt(deg)
    return rows, cols, inv_sqrt[rows] * inv_sqrt[cols]


def normalized_adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric normalized adjacency matrix of ``g``."""
    _require_spectral_graph(g)
    rows, cols, values = _nonzeros(g)
    mat = np.zeros((g.n, g.n))
    mat[rows, cols] = values
    return mat


def _certified(lam: float, residual: float, n: int) -> SpectralResult | None:
    """The result of an eigenpair of an n-vertex graph, or None when its
    max-norm residual is above :data:`_RESIDUAL_TOL`."""
    if residual > _RESIDUAL_TOL:
        return None
    return SpectralResult(lambda2=lam, gap=1.0 - lam, residual=residual, n=n)


def _eigenpairs(mats: np.ndarray) -> tuple[list[float], np.ndarray, list[float]]:
    """One ``eigh`` over a ``(k, n, n)`` stack.  Per matrix: its second
    largest eigenvalue, its eigenvector (row i) and the pair's max-norm
    residual."""
    try:
        evals, evecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    # eigh sorts ascending; the second largest sits at index n-2
    lams, vecs = evals[:, -2], evecs[:, :, -2]
    products = np.matmul(mats, vecs[:, :, None])[:, :, 0]
    residuals = np.abs(products - lams[:, None] * vecs).max(axis=1).tolist()
    return lams.tolist(), vecs, residuals


def _lanczos(g: Graph) -> tuple[float, np.ndarray, float] | None:
    """The second eigenpair of ``g``'s normalized adjacency and its
    max-norm residual, or None when Lanczos gives up and the dense solve
    should run.

    Row 0 of the basis is the top eigenvector ``D^{1/2} 1``, so
    orthogonalizing each new vector against the whole basis, twice, also
    deflates it.  Every :data:`_CHECK_EVERY` steps the top Ritz pair of the
    tridiagonal T is taken once its residual estimate ``|beta_k y_k|`` is
    at most :data:`_RITZ_TOL`, and returned with its residual recomputed
    with N.  It gives up once k passes :data:`_KRYLOV_SHARE` of n or the
    rows that fit :data:`_MEMORY_BUDGET`, or sooner when the Kaniel-Paige
    rate on the current Ritz values says the estimate cannot get under the
    tolerance by then.  The start vector is a fixed splitmix64 stream, so
    the result is the same on every platform.
    """
    n = g.n
    rows, cols, weights = _nonzeros(g)

    def apply(x: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=weights * x[cols], minlength=n)

    x = (_splitmix64(n, n) >> 11).astype(np.float64) * 2.0**-53 - 0.5
    limit = min(int(_KRYLOV_SHARE * n), _MEMORY_BUDGET // (8 * n) - _CHECK_EVERY)
    if limit <= 0:
        return None
    # every row reachable: the first check at or past the limit returns
    basis = np.empty((limit + _CHECK_EVERY, n))
    sqrt_deg = np.sqrt(np.array(g.deg, dtype=float))
    basis[0] = sqrt_deg / np.linalg.norm(sqrt_deg)
    alpha: list[float] = []
    beta: list[float] = []
    while True:
        k = len(alpha)
        for _ in range(2):
            x -= (basis[: k + 1] @ x) @ basis[: k + 1]
        b = float(np.linalg.norm(x))
        if k and (k % _CHECK_EVERY == 0 or b <= _RITZ_TOL):
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, y = np.linalg.eigh(tri)
            estimate = abs(b * y[-1, -1])
            if estimate <= _RITZ_TOL:
                vec = y[:, -1] @ basis[1 : k + 1]
                vec /= np.linalg.norm(vec)
                lam = float(theta[-1])
                return lam, vec, float(np.abs(apply(vec) - lam * vec).max())
            # The estimate shrinks about exp(-2 sqrt(gap / spread)) a step.
            shrink = math.log(estimate / _RITZ_TOL)
            gap, spread = theta[-1] - theta[-2], theta[-2] - theta[0]
            if k >= limit or shrink**2 * spread > 4 * (limit - k) ** 2 * gap:
                return None
        if k:
            beta.append(b)
        basis[k + 1] = x / b
        x = apply(basis[k + 1])
        alpha.append(float(basis[k + 1] @ x))


def _lambda2_pair(g: Graph) -> tuple[SpectralResult, np.ndarray]:
    """``g``'s certified lambda2 result and eigenvector; see :func:`_certified`."""
    _require_spectral_graph(g)
    pair = _lanczos(g) if g.n > _DENSE_MAX_N else None
    if pair is None:
        if 8 * g.n**2 > _MEMORY_BUDGET:
            mib = _MEMORY_BUDGET >> 20
            raise NoConvergence(f"n={g.n}: Lanczos gave up and a dense solve exceeds {mib} MiB")
        (lam,), vecs, (residual,) = _eigenpairs(normalized_adjacency(g)[None])
        pair = lam, vecs[0], residual
    lam, vec, residual = pair
    result = _certified(lam, residual, g.n)
    if result is None:
        raise NoConvergence(f"eigenpair residual {residual:.3e} above tolerance")
    return result, vec


def lambda2(g: Graph) -> SpectralResult:
    """Second largest eigenvalue of the normalized adjacency matrix.

    Eigenvalues are sorted descending; the top one is 1 (simple, because
    the graph is connected), so ``1 - lambda2`` is the spectral gap.
    """
    return _lambda2_pair(g)[0]


def _gap_batch(adj: np.ndarray) -> list[float | None]:
    """The gap of :func:`lambda2` of connected graphs that share one
    2 <= n <= 24, given as int32 neighbour masks, one row per graph, by one
    stacked ``eigh``: bit for bit, as entry (u, v) is :func:`_nonzeros`'s
    ``inv_sqrt[u] * inv_sqrt[v]`` where bit v of row u is set; or None where
    :func:`_certified` refuses the pair or the solve fails."""
    inv_sqrt = 1.0 / np.sqrt(np.bitwise_count(adj).astype(np.int64))
    edge = (adj[:, :, None] >> np.arange(adj.shape[1], dtype=np.int32) & 1).astype(bool)
    # a masked product into zeros: float (k, n, n) temporaries cost 2% peak RSS
    mats = np.zeros(edge.shape)
    np.multiply(inv_sqrt[:, :, None], inv_sqrt[:, None, :], out=mats, where=edge)
    try:
        lams, _, residuals = _eigenpairs(mats)
    except NoConvergence:
        return [None] * len(adj)
    return [None if res > _RESIDUAL_TOL else 1.0 - lam for lam, res in zip(lams, residuals)]


def spectral_gap(g: Graph) -> float:
    """``1 - lambda2``; positive for every connected graph."""
    return lambda2(g).gap


def sweep_conductance(g: Graph) -> SweepResult:
    """Cheeger-style sweep: an exact upper bound on conductance.

    Vertices are ordered by the lambda2 eigenvector, its first entry above
    :data:`_SIGN_EPS` in magnitude made positive, rescaled per vertex by
    1/sqrt(degree) (the random-walk eigenvector), descending, ties broken
    by vertex id ascending.  Every prefix with volume at most half the
    total is scored with its exact cut/volume ratio; the first best one,
    a subset of every later one, is returned.  Since each prefix is an
    admissible set, the result can never be below the true conductance.
    """
    spectral, vec = _lambda2_pair(g)
    if vec[np.argmax(np.abs(vec) > _SIGN_EPS)] < 0:
        vec = -vec
    scores = vec / np.sqrt(np.array(g.deg, dtype=float))
    order = np.lexsort((np.arange(g.n), -scores)).tolist()
    deg = g.deg
    adj = g.adj
    m = g.m
    inside = bytearray(g.n)  # the prefix
    vol = 0
    cut = 0
    best_cut, best_vol, best_k = 1, 0, 0  # cut/vol = +inf
    for k, v in enumerate(order[:-1], 1):
        cut += deg[v] - 2 * sum(map(inside.__getitem__, adj[v]))
        inside[v] = 1
        vol += deg[v]
        if vol > m:
            break  # prefix volumes only grow
        if cut * best_vol < best_cut * vol:
            best_cut, best_vol, best_k = cut, vol, k
    return SweepResult(Fraction(best_cut, best_vol), mask_from_vertices(order[:best_k]), spectral)
