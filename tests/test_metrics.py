import tracemalloc
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import vattol as vt
from vattol import (
    BadParameter,
    BadVertexId,
    DisconnectedInput,
    EmptySet,
    FullSet,
    TooLarge,
    TrivialGraph,
    VolumeTooLarge,
    metrics,
    verify,
)
from vattol.corpus import (
    exhaustive_members,
    exhaustive_regular,
    random_regular_samples,
    theorem_families,
)
from naive_oracle import naive_conductance_minimizers, naive_vat, naive_weighted_vat

F = Fraction


def two_triangles():
    return vt.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestSetVat:
    def test_star_center(self):
        g = vt.star(4)
        assert vt.set_vat(g, 1) == F(1, 4)

    def test_c4_single(self):
        g = vt.cycle(4)
        for v in range(4):
            assert vt.set_vat(g, 1 << v) == F(1)

    def test_c6_antipodal(self):
        assert vt.set_vat(vt.cycle(6), vt.mask_from_vertices([0, 3])) == F(2, 3)

    def test_errors(self):
        g = vt.cycle(4)
        with pytest.raises(EmptySet):
            vt.set_vat(g, 0)
        with pytest.raises(FullSet):
            vt.set_vat(g, vt.full_mask(4))
        with pytest.raises(DisconnectedInput):
            vt.set_vat(two_triangles(), 1)
        with pytest.raises(TrivialGraph):
            vt.set_vat(vt.build_graph(1, []), 1)
        with pytest.raises(BadVertexId, match=r"^mask 0x20 has bits outside \[0, 5\)$"):
            vt.set_vat(vt.cycle(5), 1 << 5)


class TestVatExact:
    def test_star_five(self):
        r = vt.vat_exact(vt.star(5))
        assert r.value == F(1, 5)
        assert r.witness_vertices == [0]

    def test_k2(self):
        r = vt.vat_exact(vt.complete(2))
        assert r.value == F(1)
        assert r.witness_vertices == [0]

    def test_c6(self):
        r = vt.vat_exact(vt.cycle(6))
        assert r.value == F(2, 3)
        assert r.witness_vertices == [0, 3]

    def test_witness_consistency(self):
        for g in (vt.cycle(7), vt.petersen(), vt.hypercube(3), vt.star(6)):
            r = vt.vat_exact(g)
            assert vt.set_vat(g, r.witness) == r.value

    def test_errors(self):
        with pytest.raises(DisconnectedInput):
            vt.vat_exact(two_triangles())
        with pytest.raises(TrivialGraph):
            vt.vat_exact(vt.build_graph(1, []))
        with pytest.raises(TooLarge):
            vt.vat_exact(vt.cycle(25))

    def test_n18_matches_naive_oracle(self):
        g = vt.connected_random_regular(18, 3, 1)[0]
        r = vt.vat_exact(g)
        assert (r.value, r.witness) == naive_vat(g)

    @pytest.mark.parametrize(
        "d, expected", [(3, (F(1, 2), 65689)), (4, (F(5, 8), 315408)), (5, (F(1), 1))]
    )
    def test_n20_witnesses(self, d, expected):
        r = vt.vat_exact(vt.connected_random_regular(20, d, 7)[0])
        assert (r.value, r.witness) == expected

    def test_range_invariant(self):
        for g in (vt.cycle(5), vt.complete(6), vt.star(7), vt.petersen()):
            r = vt.vat_exact(g)
            assert 0 < r.value <= 1
            assert vt.largest_component(g, r.witness) != 0


class TestAlphaBetaVat:
    def test_identity_at_one_zero(self):
        for g in (vt.cycle(6), vt.star(5), vt.petersen()):
            base = vt.vat_exact(g)
            r = vt.alpha_beta_vat_exact(g, 1, 0)
            assert r.value == base.value and r.witness == base.witness

    def test_k2_one_one(self):
        r = vt.alpha_beta_vat_exact(vt.complete(2), 1, 1)
        assert r.value == F(2)

    def test_star_scaling(self):
        r = vt.alpha_beta_vat_exact(vt.star(5), 2, 0)
        assert r.value == F(2, 5)
        assert r.witness_vertices == [0]
        assert isinstance(r, vt.MetricResult) and r.parameters == (2, 0)

    def test_float_parameters(self):
        g = vt.cycle(5)
        r = vt.alpha_beta_vat_exact(g, 2.5, 0.5)
        assert isinstance(r.value, Fraction)
        assert (r.value, r.witness) == naive_weighted_vat(g, alpha=2.5, beta=0.5)

    def test_bad_parameters(self):
        # (alpha, beta) are checked before the graph: too large and
        # disconnected graphs still raise BadParameter.
        disconnected = vt.build_graph(4, [(0, 1), (2, 3)])
        for g in (vt.cycle(4), vt.cycle(25), disconnected):
            for fn in (vt.alpha_beta_vat_exact, vt.alpha_beta_weighted_vat_exact):
                for alpha, beta in ((0, 0), (-1, 0), (1, -0.5)):
                    with pytest.raises(BadParameter):
                        fn(g, alpha, beta)

    @pytest.mark.parametrize(
        "alpha, beta",
        [(float("inf"), 0), (float("nan"), 0), (1, float("inf")), (1, float("nan"))],
    )
    def test_non_finite_parameters(self, alpha, beta):
        g = vt.cycle(4)
        for fn in (vt.alpha_beta_vat_exact, vt.alpha_beta_weighted_vat_exact):
            with pytest.raises(BadParameter, match="finite"):
                fn(g, alpha, beta)


class TestWeightedVat:
    def test_unweighted_equals_vat(self):
        for g in (vt.cycle(6), vt.star(4), vt.hypercube(3)):
            base = vt.vat_exact(g)
            r = vt.weighted_vat_exact(g)
            assert r.value == base.value and r.witness == base.witness
            assert isinstance(r.value, Fraction)

    def test_costly_center_shifts_witness(self):
        g = vt.build_graph(
            6,
            [(0, i) for i in range(1, 6)],
            costs=[10.0] + [1.0] * 5,
            values=[1.0] * 6,
        )
        r = vt.weighted_vat_exact(g)
        assert r.value == 1.0
        assert r.witness_vertices == [1]  # one leaf, the smallest id

    def test_k2_uniform_weights(self):
        g = vt.build_graph(2, [(0, 1)], costs=[3.0, 3.0], values=[3.0, 3.0])
        r = vt.weighted_vat_exact(g)
        ref, mask = naive_weighted_vat(g)
        assert r.value == ref == 3.0
        assert r.witness == mask == 1

    def test_matches_naive_oracle(self):
        g = vt.build_graph(
            5,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
            costs=[1.5, 2.0, 0.5, 1.0, 3.0],
            values=[1.0, 0.5, 2.0, 1.0, 0.25],
        )
        r = vt.weighted_vat_exact(g)
        assert (r.value, r.witness) == naive_weighted_vat(g)

    def test_decimal_weights_lowest_witness(self):
        # {1} and {2} both reach 1/6 in exact decimal arithmetic; a float
        # engine rounds {1} above {2} and loses the lowest encoding.
        g = vt.build_graph(
            5,
            list(vt.path(5).edges()),
            costs=[0.7, 0.2, 0.2, 0.4, 0.4],
            values=[0.2, 1, 0.2, 0.1, 0.1],
        )
        r = vt.weighted_vat_exact(g)
        assert (r.value, r.witness) == (F(1, 6), 0b10)
        r = vt.alpha_beta_weighted_vat_exact(g, 1.5, 0.5)
        assert (r.value, r.witness) == (F(2, 3), 0b10)

    def test_extreme_magnitudes(self):
        # 1 + 1e-300 rounds to 1 in floats, which ties {1} with {0}.
        g = vt.build_graph(3, [(0, 1), (1, 2)], costs=[1e308] * 3, values=[1e-300] * 3)
        r = vt.weighted_vat_exact(g)
        assert r.witness == 0b10
        assert r.value == F(10**308) / (1 + F(1, 10**300))

    def test_fraction_weights_stay_exact(self):
        g = vt.build_graph(3, [(0, 1), (1, 2)], costs=[F(1, 3)] * 3, values=[1] * 3)
        assert vt.weighted_vat_exact(g).value == F(1, 6)

    def test_numpy_integer_weights_stay_exact(self):
        costs = [np.int64(2**60 + 1)] * 3
        g = vt.build_graph(3, [(0, 1), (1, 2)], costs=costs, values=[1] * 3)
        assert vt.weighted_vat_exact(g).value == F(2**60 + 1, 2)

    def test_weights_spanning_2_to_the_40(self):
        # Shifted to 30 bits, the unit weights round to 0 or 1, so the
        # int64 filter keeps several masks for the exact check.
        g = vt.build_graph(
            8,
            list(vt.circulant(8, [1, 2]).edges()),
            costs=[2**40, 1, 1, 2**40, 1, 2**40, 1, 1],
            values=[1, 2**40, 1, 1, 2**40, 1, 1, 3],
        )
        for alpha, beta in ((1, 0), (3, 2**41)):
            r = vt.alpha_beta_weighted_vat_exact(g, alpha, beta)
            assert (r.value, r.witness) == naive_weighted_vat(g, alpha, beta)

    def test_n17_matches_naive_oracle(self):
        g = vt.build_graph(
            17,
            list(vt.circulant(17, [1, 3]).edges()),
            costs=[(v % 5 + 1) / 10 for v in range(17)],
            values=[(v % 3 + 1) / 4 for v in range(17)],
        )
        r = vt.alpha_beta_weighted_vat_exact(g, 1.5, 0.5)
        assert (r.value, r.witness) == naive_weighted_vat(g, 1.5, 0.5)

    def test_largest_component_counts_vertices_not_value(self):
        # Deleting 2 from the path 0-1-2-3 leaves {0, 1} and the smaller but
        # heavier {3}; C_max is {0, 1}, so the denominator is 1 + 13 - 3.
        g = vt.build_graph(
            4, [(0, 1), (1, 2), (2, 3)], costs=[100, 100, 1, 100], values=[1, 1, 1, 10]
        )
        r = vt.weighted_vat_exact(g)
        assert (r.value, r.witness) == (F(1, 11), 0b100)


class TestAlphaBetaWeighted:
    def test_reduction_chain(self):
        for g in (vt.cycle(6), vt.petersen(), vt.star(5)):
            base = vt.vat_exact(g)
            r = vt.alpha_beta_weighted_vat_exact(g, 1, 0)
            assert r.value == base.value and r.witness == base.witness

    def test_unit_weights_match_alpha_beta(self):
        g = vt.complete(2)
        assert (
            vt.alpha_beta_weighted_vat_exact(g, 1, 1).value
            == vt.alpha_beta_vat_exact(g, 1, 1).value
            == F(2)
        )

    def test_star4_center_set_value(self):
        # direct formula check: the (2,1)-cost of attacking the center
        g = vt.star(4)
        r = vt.alpha_beta_weighted_vat_exact(g, 2, 1)
        assert (r.value, r.witness) == naive_weighted_vat(g, alpha=2, beta=1)
        # attacking the center costs (2*1+1)/4
        assert F(3, 4) >= r.value  # the oracle minimum can only be at or below

    def test_weighted_float_path(self):
        g = vt.build_graph(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], costs=[1.0, 2.0, 1.0, 2.0]
        )
        r = vt.alpha_beta_weighted_vat_exact(g, 1.5, 0.25)
        assert (r.value, r.witness) == naive_weighted_vat(g, alpha=1.5, beta=0.25)


class TestSetConductance:
    def test_c6_arc(self):
        assert vt.set_conductance(vt.cycle(6), 0b111) == F(1, 3)

    def test_star_center_admissible(self):
        assert vt.set_conductance(vt.star(5), 1) == F(1)

    def test_k4_pair(self):
        assert vt.set_conductance(vt.complete(4), 0b11) == F(2, 3)

    def test_errors(self):
        g = vt.cycle(6)
        with pytest.raises(EmptySet):
            vt.set_conductance(g, 0)
        with pytest.raises(VolumeTooLarge):
            vt.set_conductance(g, vt.mask_from_vertices([0, 1, 2, 3]))
        with pytest.raises(DisconnectedInput):
            vt.set_conductance(two_triangles(), 1)
        with pytest.raises(BadVertexId, match=r"^mask -0x1 has bits outside \[0, 5\)$"):
            vt.set_conductance(vt.cycle(5), -1)


class TestConductanceExact:
    def test_stars_maximal(self):
        for leaves in range(3, 9):
            assert vt.conductance_exact(vt.star(leaves)).value == F(1)

    def test_c6(self):
        r = vt.conductance_exact(vt.cycle(6))
        assert r.value == F(1, 3)
        assert r.witness_vertices == [0, 1, 2]

    def test_k4(self):
        r = vt.conductance_exact(vt.complete(4))
        assert r.value == F(2, 3)
        assert r.witness_vertices == [0, 1]

    def test_witness_consistency_and_admissibility(self):
        for g in (vt.cycle(9), vt.petersen(), vt.hypercube(3)):
            r = vt.conductance_exact(g)
            assert vt.set_conductance(g, r.witness) == r.value
            assert vt.volume(g, r.witness) * 2 <= 2 * g.m
            assert 0 < r.value <= 1

    def test_minimizers_contains_witness(self):
        g = vt.cycle(6)
        mins = vt.conductance_minimizers(g)
        r = vt.conductance_exact(g)
        assert r.witness == mins[0]
        assert all(vt.set_conductance(g, s) == r.value for s in mins)
        assert len(mins) == 6  # the six arcs of three consecutive vertices

    def test_above_16_matches_naive_oracle(self):
        g = vt.cycle(17)
        phi, minimizers = naive_conductance_minimizers(g)
        assert len(minimizers) == 17  # the arcs of eight consecutive vertices
        assert vt.conductance_minimizers(g) == minimizers
        r = vt.conductance_exact(g)
        assert (r.value, r.witness) == (phi, minimizers[0])


def _by_n(graphs):
    groups = {}
    for g in graphs:
        groups.setdefault(g.n, []).append(g)
    return groups.values()


def _kernel_tuple(e, g):
    minimizers = vt.conductance_minimizers(g)
    return (e.tau.value, e.tau.witness), (e.phi.value, e.phi.witness), minimizers


class TestExactBatch:
    def test_matches_naive_oracle(self):
        graphs = [g for _, g in vt.standard_corpus() if g.n <= 10]
        assert len(graphs) >= 200
        for group in _by_n(graphs):
            for g, e in zip(group, vt.exact_batch(group)):
                phi, minimizers = naive_conductance_minimizers(g)
                expected = naive_vat(g), (phi, minimizers[0]), minimizers
                assert _kernel_tuple(e, g) == expected

    def test_matches_naive_oracle_at_11_to_16(self):
        items = list(theorem_families()) + list(random_regular_samples())
        graphs = [g for _, g in items if 11 <= g.n <= 16]
        assert {g.n for g in graphs} == set(range(11, 17))
        for group in _by_n(graphs):
            results = vt.exact_batch(group)
            for g, e in zip(group, results):
                assert vt.set_vat(g, e.tau.witness) == e.tau.value
            # Everything against the naive oracle on one graph per n.
            g = group[-1]
            phi, minimizers = naive_conductance_minimizers(g)
            expected = naive_vat(g), (phi, minimizers[0]), minimizers
            assert _kernel_tuple(results[-1], g) == expected

    def test_chunk_budget_and_prefill_change_no_result(self, monkeypatch):
        graphs = [g for _, g in exhaustive_regular(8) if g.n == 8][::140]
        assert len(graphs) >= 300 and {g.m for g in graphs} == {8, 12, 16, 20, 24}
        results = {}
        # 16 cells: one graph per call, chunks of 16 masks, one high half
        # per conductance block; 2^16 cells: one call, chunks of 256 rows.
        for cells in (1 << 4, 1 << 16):
            monkeypatch.setattr(metrics, "BLOCK_CELLS", cells)
            results[cells] = [_kernel_tuple(e, g) for g, e in zip(graphs, vt.exact_batch(graphs))]
        assert results[1 << 4] == results[1 << 16]
        monkeypatch.undo()
        rec = verify._prefill([(f"g{i}", g) for i, g in enumerate(graphs)], spectral=False)
        for i, (g, expected) in enumerate(zip(graphs, results[1 << 4])):
            batch, fresh = vt.ExactMetrics(*rec.exact[:, i].tolist()), vt.exact_batch([g])[0]
            assert _kernel_tuple(batch, g) == _kernel_tuple(fresh, g) == expected
            assert batch == fresh and rec.d[i] == vt.regularity(g)

    def test_batch_width_costs_no_more_memory_than_one_n18_graph(self):
        """The tracemalloc peak of a suite batch of cubic n = 8 graphs in
        one call stays within that of one cubic n = 18 graph."""
        cubic8 = [g for _, g in exhaustive_members(8, 3)][:256]
        assert len(cubic8) == 256
        g18 = vt.connected_random_regular(18, 3, 1)[0]

        def peak(graphs):
            vt.exact_batch(graphs)  # numpy's first-use allocations
            tracemalloc.start()
            try:
                vt.exact_batch(graphs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(cubic8) <= peak([g18])

    def test_errors(self):
        assert vt.exact_batch([]) == []
        with pytest.raises(BadParameter):
            vt.exact_batch([vt.cycle(5), vt.cycle(6)])
        with pytest.raises(TrivialGraph):
            vt.exact_batch([vt.build_graph(1, [])])
        assert vt.exact_batch([vt.cycle(17)])[0].tau.value == F(1, 4)
        with pytest.raises(TooLarge):
            vt.exact_batch([vt.cycle(25)])
        with pytest.raises(DisconnectedInput):
            vt.exact_batch([vt.cycle(6), two_triangles()])

    def test_records_compare(self):
        a, b = vt.exact_batch([vt.cycle(6)])[0], vt.exact_batch([vt.cycle(6)])[0]
        assert a == b and not a != b
        other = a._replace(tau_witness=a.tau_witness + 1)
        assert a != other and not a == other
        assert len(a) == 6 and a == tuple(a)
        assert all(type(x) is int for x in a)


def _random_floods(n, count, dtype, seed):
    """``count`` (start, within) pairs over n vertices, each within holding
    its one-bit start, at densities spread over (0, 1) so deep floods occur."""
    rng = np.random.default_rng(seed)
    density = rng.random((count, 1))
    bits = rng.random((count, n)) < density
    start = rng.integers(0, n, count)
    bits[np.arange(count), start] = True
    within = (bits.astype(np.int64) << np.arange(n)).sum(axis=1)
    return (np.int64(1) << start).astype(dtype), within.astype(dtype)


class TestFloodFill:
    """The vectorized flood against the scalar one, mask by mask."""

    @staticmethod
    def check(graphs, count, dtype, seed):
        adj = np.array([g.adj_masks for g in graphs], dtype)
        starts, within = _random_floods(adj.shape[1], count, dtype, seed)
        comp = np.repeat(starts[None], len(graphs), axis=0)
        grown = metrics._flood_fill(adj)(comp, within)
        pairs = list(zip(starts.tolist(), within.tolist()))
        for g, row in zip(graphs, grown.tolist()):
            full = vt.full_mask(g.n)
            pieces = [vt.components(g, full ^ b) for _, b in pairs]
            assert row == [next(c for c in cs if c & a) for cs, (a, _) in zip(pieces, pairs)]

    @pytest.mark.parametrize(
        "g",
        # A path's floods run 19 steps deep next to 1-step ones, so the
        # flood drops settled masks several times before the last settles.
        [vt.path(20), vt.connected_random_regular(20, 3, 5)[0]],
        ids=["path", "cubic"],
    )
    def test_one_row_at_n20(self, g):
        self.check([g], 4096, np.int32, seed=1)

    def test_uint8_batch_at_n8(self):
        cubic8 = [g for _, g in exhaustive_members(8, 3)]
        graphs = [cubic8[i % len(cubic8)] for i in range(256)]
        self.check(graphs, 64, np.uint8, seed=2)

    def test_chunking_changes_no_table(self, monkeypatch):
        adj = np.array([vt.path(18).adj_masks], np.int32)
        default = [metrics._component_tables(adj, masks) for masks in (False, True)]
        monkeypatch.setattr(metrics, "BLOCK_CELLS", 16)
        small = [metrics._component_tables(adj, masks) for masks in (False, True)]
        assert all(np.array_equal(a, b) for a, b in zip(default, small))


class TestComponentTables:
    """Both tables against the scalar C_max, mask by mask: the masks table
    holds ``largest_component`` of the survivors (0 for no survivor), the
    size table its vertex count.  A path ties often, so the lower lowest
    vertex decides many entries."""

    @pytest.mark.parametrize(
        "graphs, dtype",
        [
            ([vt.path(9)], np.int32),
            ([vt.petersen()], np.int32),
            ([g for _, g in islice(exhaustive_members(8, 3), 3)], np.uint8),
        ],
        ids=["path9", "petersen", "cubic8-batch"],
    )
    def test_tables_match_largest_component(self, graphs, dtype):
        adj = np.array([g.adj_masks for g in graphs], dtype)
        sizes = metrics._component_tables(adj, masks=False)
        masks = metrics._component_tables(adj, masks=True)
        assert sizes.dtype == np.uint8 and masks.dtype == dtype
        for g, size_row, mask_row in zip(graphs, sizes.tolist(), masks.tolist()):
            full = vt.full_mask(g.n)
            want = [0] + [vt.largest_component(g, full ^ x) for x in range(1, full + 1)]
            assert mask_row == want
            assert size_row == [c.bit_count() for c in want]


class TestConductanceBlocks:
    @pytest.mark.parametrize(
        "g, blocks",
        [(vt.cycle(16), [0, 1, 3, 7]), (vt.hypercube(4), [0, 15, 51, 85])],
        ids=["cycle16", "hypercube4"],
    )
    def test_ties_after_blocks_without_one(self, monkeypatch, g, blocks):
        """At 16 cells each of the 256 blocks holds one high half, and the
        minimizers fall in 16 and 8 of them: ties come after blocks with
        none, which add no hit and move no witness."""
        phi, minimizers = naive_conductance_minimizers(g)
        assert sorted({s >> 8 for s in minimizers})[:4] == blocks
        monkeypatch.setattr(metrics, "BLOCK_CELLS", 16)
        assert vt.conductance_minimizers(g) == minimizers
        r = vt.conductance_exact(g)
        assert (r.value, r.witness) == (phi, minimizers[0])

    def test_tie_list_restarts_when_a_later_block_is_lower(self, monkeypatch):
        """cycle(16) with vertices 0-7 at the even positions: block 0 is an
        independent set, whose 255 masks all tie at key 1, and a later
        block beats them, so the list of ties restarts."""
        label = [p // 2 if p % 2 == 0 else 8 + p // 2 for p in range(16)]
        g = vt.build_graph(16, [(label[p], label[(p + 1) % 16]) for p in range(16)])
        phi, minimizers = naive_conductance_minimizers(g)
        assert phi == F(1, 8) and len(minimizers) == 16
        monkeypatch.setattr(metrics, "BLOCK_CELLS", 16)
        assert vt.conductance_minimizers(g) == minimizers
        r = vt.conductance_exact(g)
        assert (r.value, r.witness) == (phi, minimizers[0])


def test_vat_n20_memory_stays_under_budget():
    """The tracemalloc peak of one n = 20 tau, after a warm-up call: the
    2^20-byte table and temporaries within BLOCK_CELLS cells."""
    g = vt.connected_random_regular(20, 3, 7)[0]
    vt.vat_exact(g)  # numpy's first-use allocations
    tracemalloc.start()
    try:
        vt.vat_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


class TestHardCap:
    """Every exact metric takes any n up to 24 and raises one message above."""

    def test_n22_values_and_witnesses(self):
        g = vt.random_regular(22, 3, 22)  # connected
        r = vt.vat_exact(g)
        assert (r.value, r.witness) == (F(3, 8), 896)
        r = vt.conductance_exact(g)
        assert (r.value, r.witness) == (F(2, 15), 443566)
        weighted = vt.build_graph(
            22,
            list(g.edges()),
            costs=[1 + v % 3 for v in range(22)],
            values=[1 + v % 2 for v in range(22)],
        )
        r = vt.weighted_vat_exact(weighted)
        assert (r.value, r.witness) == (F(3, 8), 4672)

    @pytest.mark.parametrize(
        "call",
        [
            vt.vat_exact,
            vt.conductance_exact,
            vt.conductance_minimizers,
            vt.weighted_vat_exact,
            lambda g: vt.alpha_beta_vat_exact(g, 1, 0),
            lambda g: vt.alpha_beta_weighted_vat_exact(g, 1, 0),
            lambda g: vt.exact_batch([g]),
        ],
        ids=[
            "vat_exact",
            "conductance_exact",
            "conductance_minimizers",
            "weighted_vat_exact",
            "alpha_beta_vat_exact",
            "alpha_beta_weighted_vat_exact",
            "exact_batch",
        ],
    )
    def test_n25_raises_one_message(self, call):
        with pytest.raises(TooLarge, match=r"^n=25 exceeds the hard cap 24$"):
            call(vt.cycle(25))


class TestWitnessComponents:
    def test_c6(self):
        g = vt.cycle(6)
        r = vt.vat_exact(g)
        t, *others = vt.components(g, r.witness)
        assert t.bit_count() == 2
        assert [c.bit_count() for c in others] == [2]

    def test_star(self):
        g = vt.star(5)
        t, *others = vt.components(g, vt.vat_exact(g).witness)
        assert t.bit_count() == 1
        assert len(others) == 4

    def test_k4(self):
        g = vt.complete(4)
        t, *others = vt.components(g, vt.vat_exact(g).witness)
        assert t.bit_count() == 3 and others == []


class TestMonotoneSanity:
    def test_vat_is_global_minimum(self):
        g = vt.petersen()
        best = vt.vat_exact(g).value
        masks = [1, 0b11, 0b1010, vt.mask_from_vertices([0, 4, 7]), 0b1111100000]
        for s in masks:
            assert best <= vt.set_vat(g, s)


def test_oracle_spotcheck_small():
    for g in (vt.cycle(5), vt.star(4), vt.hypercube(3), vt.complete_bipartite(3)):
        value, mask = naive_vat(g)
        r = vt.vat_exact(g)
        assert (r.value, r.witness) == (value, mask)
