import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import vattol as vt
from vattol import DisconnectedInput, IsolatedVertex, TrivialGraph
from vattol import spectral as spectral_mod
from vattol.corpus import standard_corpus, theorem_families
from vattol.spectral import _RESIDUAL_TOL
from naive_oracle import naive_sweep

F = Fraction


class TestNormalizedAdjacency:
    def test_k2(self):
        mat = vt.normalized_adjacency(vt.complete(2))
        assert np.allclose(mat, [[0, 1], [1, 0]])

    def test_c4(self):
        mat = vt.normalized_adjacency(vt.cycle(4))
        for u, v in vt.cycle(4).edges():
            assert mat[u, v] == pytest.approx(0.5)
        assert mat[0, 2] == 0

    def test_star_two_leaves(self):
        mat = vt.normalized_adjacency(vt.star(2))
        assert mat[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert mat[0, 2] == pytest.approx(1 / math.sqrt(2))
        assert mat[1, 2] == 0

    def test_symmetric(self):
        mat = vt.normalized_adjacency(vt.petersen())
        assert np.array_equal(mat, mat.T)

    def test_errors(self):
        with pytest.raises(IsolatedVertex):
            vt.normalized_adjacency(vt.build_graph(3, [(0, 1)]))
        with pytest.raises(DisconnectedInput):
            vt.normalized_adjacency(
                vt.build_graph(4, [(0, 1), (2, 3)])
            )


class TestLambda2:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (vt.complete(2), -1.0),
            (vt.complete(4), -1 / 3),
            (vt.cycle(6), 0.5),
            (vt.petersen(), 1 / 3),
            (vt.hypercube(3), 1 / 3),
        ],
    )
    def test_closed_forms(self, g, expected):
        res = vt.lambda2(g)
        assert res.lambda2 == pytest.approx(expected, abs=1e-9)
        assert res.gap == pytest.approx(1 - expected, abs=1e-9)

    def test_residual_tiny(self):
        res = vt.lambda2(vt.petersen())
        assert res.residual < 1e-8

    def test_top_eigenvalue_simple(self):
        # connectivity makes the top eigenvalue 1 and only that one
        for g in (vt.cycle(7), vt.star(5), vt.complete_bipartite(3)):
            evals = np.linalg.eigvalsh(vt.normalized_adjacency(g))
            assert evals[-1] == pytest.approx(1.0, abs=1e-9)
            assert evals[-2] < 1.0 - 1e-9 or g.n == 2

    def test_lambda2_below_one_when_connected(self):
        for g in (vt.cycle(11), vt.petersen(), vt.star(6)):
            assert vt.lambda2(g).lambda2 < 1.0 - 1e-9

    def test_errors(self):
        with pytest.raises(TrivialGraph):
            vt.lambda2(vt.build_graph(1, []))
        with pytest.raises(DisconnectedInput):
            vt.lambda2(vt.build_graph(4, [(0, 1), (2, 3)]))


class TestRowStochasticAgreement:
    def test_star_spectra_match(self):
        # the row-normalized walk matrix is similar to the symmetric one,
        # so their spectra agree even off the regular case
        for leaves in (2, 4, 6):
            g = vt.star(leaves)
            sym = vt.normalized_adjacency(g)
            walk = np.zeros((g.n, g.n))
            for u in range(g.n):
                for v in g.adj[u]:
                    walk[u, v] = 1.0 / g.deg[u]
            sym_vals = np.sort(np.linalg.eigvalsh(sym))
            walk_vals = np.sort(np.real(np.linalg.eigvals(walk)))
            assert np.allclose(sym_vals, walk_vals, atol=1e-9)

    def test_regular_matrices_equal(self):
        g = vt.cycle(8)
        sym = vt.normalized_adjacency(g)
        for u in range(g.n):
            for v in g.adj[u]:
                assert sym[u, v] == pytest.approx(1.0 / g.deg[u])


class TestSpectralGap:
    def test_values(self):
        assert vt.spectral_gap(vt.complete(2)) == pytest.approx(2.0, abs=1e-9)
        assert vt.spectral_gap(vt.cycle(6)) == pytest.approx(0.5, abs=1e-9)
        assert vt.spectral_gap(vt.petersen()) == pytest.approx(2 / 3, abs=1e-9)


class TestSweep:
    def test_c6(self):
        assert vt.sweep_conductance(vt.cycle(6)).value == F(1, 3)

    def test_k4(self):
        assert vt.sweep_conductance(vt.complete(4)).value == F(2, 3)

    def test_upper_bounds_exact(self):
        for g in (
            vt.cycle(9),
            vt.petersen(),
            vt.hypercube(4),
            vt.complete_bipartite(5),
            vt.random_regular(14, 3, seed=3),
        ):
            if not vt.is_connected(g):
                continue
            sweep = vt.sweep_conductance(g)
            exact = vt.conductance_exact(g)
            assert sweep.value >= exact.value
            assert vt.set_conductance(g, sweep.witness) == sweep.value

    def test_large_random_cheeger_sanity(self):
        g, _ = vt.connected_random_regular(100, 3, 7)
        res = vt.lambda2(g)
        sweep = vt.sweep_conductance(g)
        assert 0 < float(sweep.value) <= 1
        assert res.gap <= 2 * float(sweep.value) + 1e-9

    def test_deterministic(self):
        g = vt.petersen()
        a = vt.sweep_conductance(g)
        b = vt.sweep_conductance(g)
        assert a == b

    @pytest.mark.parametrize(
        "g",
        [vt.petersen(), vt.connected_random_regular(500, 3, 11)[0]],
        ids=["dense", "lanczos"],
    )
    def test_returns_its_lambda2(self, g, monkeypatch):
        solve = spectral_mod._lambda2_pair
        calls = []

        def counted(graph):
            calls.append(graph)
            return solve(graph)

        monkeypatch.setattr(spectral_mod, "_lambda2_pair", counted)
        sweep = vt.sweep_conductance(g)
        assert len(calls) == 1  # one eigensolve serves lambda2 and the sweep
        assert sweep.spectral == vt.lambda2(g)


class TestSweepOracle:
    """The sweep against :func:`naive_oracle.naive_sweep` along the same
    eigenvector, in value and witness: the first minimal prefix the engine
    keeps is also the lowest-encoding one."""

    def test_matches_naive_sweep(self):
        graphs = [(i, g) for i, g in standard_corpus() if g.n >= 2 and vt.is_connected(g)]
        graphs += theorem_families()
        graphs.append(("lanczos", vt.connected_random_regular(400, 3, 3)[0]))
        for graph_id, g in graphs:
            _, vec = spectral_mod._lambda2_pair(g)
            value, hits = naive_sweep(g, vec.tolist(), spectral_mod._SIGN_EPS)
            sweep = vt.sweep_conductance(g)
            assert (sweep.value, sweep.witness) == (value, hits[0]), graph_id
            assert hits[0] == min(hits), graph_id

    def test_sweep_builds_no_masks(self):
        g = vt.connected_random_regular(500, 3, 11)[0]
        vt.sweep_conductance(g)
        assert "adj_masks" not in vars(g)


CUTOFF = spectral_mod._DENSE_MAX_N


def _random_regular(n, d):
    n += (n * d) % 2  # n * d must be even
    return vt.connected_random_regular(n, d, 11)[0]


def _gnp_largest_component(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return vt.restrict_to_largest_component(vt.build_graph(n, edges))


class TestLanczos:
    """Above the cutoff lambda2 and the sweep come from Lanczos; the dense
    spectrum is the oracle."""

    def _check(self, g):
        assert g.n > CUTOFF
        expected = np.linalg.eigvalsh(vt.normalized_adjacency(g))[-2]
        res = vt.lambda2(g)
        assert abs(res.lambda2 - expected) <= 1e-12
        assert res.gap == 1.0 - res.lambda2
        assert 0 <= res.residual <= _RESIDUAL_TOL
        sweep = vt.sweep_conductance(g)
        assert vt.set_conductance(g, sweep.witness) == sweep.value
        assert vt.volume(g, sweep.witness) <= g.m

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("n", [CUTOFF + 1, 600, 1000])
    def test_random_regular(self, n, d):
        g = _random_regular(n, d)
        assert spectral_mod._lanczos(g) is not None  # no dense fallback
        self._check(g)

    @pytest.mark.parametrize(
        "g",
        [
            vt.star(CUTOFF + 1),
            vt.complete(CUTOFF + 1),  # lambda2 of multiplicity n - 1
            vt.cycle(CUTOFF + 2),  # lambda2 of multiplicity 2
            vt.path(CUTOFF + 1),
            _gnp_largest_component(600, 3 / 600, 5),
        ],
        ids=["star", "complete", "cycle", "path", "gnp"],
    )
    def test_families_and_irregular(self, g):
        self._check(g)

    def test_residual_certificate(self, monkeypatch):
        # a converged Ritz pair is still refused above the residual bound
        g = _random_regular(CUTOFF + 1, 3)
        monkeypatch.setattr(spectral_mod, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(vt.NoConvergence):
            vt.lambda2(g)

    def test_memory_budget_bounds_both_solvers(self, monkeypatch):
        # a budget of one check interval of rows leaves Lanczos no row,
        # and the dense matrix is over it too
        g = _random_regular(CUTOFF + 1, 3)
        budget = 8 * g.n * spectral_mod._CHECK_EVERY
        monkeypatch.setattr(spectral_mod, "_MEMORY_BUDGET", budget)
        assert spectral_mod._lanczos(g) is None
        with pytest.raises(vt.NoConvergence, match=f"^n={g.n}: Lanczos gave up and a dense"):
            vt.lambda2(g)

    def test_clustered_spectrum_falls_back_to_dense(self):
        # a path needs a Krylov dimension near n, so Lanczos gives up
        g = vt.path(CUTOFF + 1)
        assert spectral_mod._lanczos(g) is None
        (lam,), _, (residual,) = spectral_mod._eigenpairs(vt.normalized_adjacency(g)[None])
        assert vt.lambda2(g) == spectral_mod._certified(lam, residual, g.n)

    @pytest.mark.parametrize(
        "n,value,size,digest",
        [
            (500, F(73, 747), 249,
             "d14ce6162554337fb1cccca6f72d154426c69fda2eadca2e04c66823077a3716"),
            (2000, F(307, 2979), 993,
             "950f0f8ae3a9f350bc97e97ed9535774fcc8d2f972e5246de424c5f131fc14be"),
        ],
    )
    def test_sweep_pinned_to_dense_solver(self, n, value, size, digest):
        # value and witness as the dense solver found them
        g = vt.connected_random_regular(n, 3, 11)[0]
        sweep = vt.sweep_conductance(g)
        assert sweep.value == value
        assert sweep.witness.bit_count() == size
        assert hashlib.sha256(hex(sweep.witness).encode()).hexdigest() == digest
