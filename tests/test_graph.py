import io
import tracemalloc
from fractions import Fraction

import pytest

import vattol as vt
from vattol import (
    BadParameter,
    BadVertexId,
    DuplicateEdge,
    EmptyRemainder,
    NonPositiveWeight,
    SelfLoop,
)


def triangles_disjoint():
    return vt.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestBuild:
    def test_k2(self):
        g = vt.build_graph(2, [(0, 1)])
        assert g.n == 2 and g.m == 1
        assert g.adj == ((1,), (0,))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            vt.build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdge):
            vt.build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            vt.build_graph(3, [(1, 1)])

    def test_bad_vertex_id(self):
        with pytest.raises(BadVertexId):
            vt.build_graph(3, [(0, 3)])
        with pytest.raises(BadVertexId):
            vt.build_graph(3, [(-1, 0)])

    def test_disconnected_is_buildable(self):
        g = triangles_disjoint()
        assert g.m == 6
        assert not vt.is_connected(g)

    def test_nonpositive_weight(self):
        with pytest.raises(NonPositiveWeight):
            vt.build_graph(2, [(0, 1)], costs=[1.0, 0.0])
        with pytest.raises(NonPositiveWeight):
            vt.build_graph(2, [(0, 1)], values=[-1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_weight(self, bad):
        with pytest.raises(NonPositiveWeight, match="positive and finite"):
            vt.build_graph(2, [(0, 1)], costs=[1.0, bad])
        with pytest.raises(NonPositiveWeight, match="positive and finite"):
            vt.build_graph(2, [(0, 1)], costs=[1.0, 1.0], values=[bad, 1.0])

    def test_weight_fill_rules(self):
        g = vt.build_graph(2, [(0, 1)], costs=[2.0, 3.0])
        assert g.values == (2.0, 3.0)
        g = vt.build_graph(2, [(0, 1)], values=[4.0, 5.0])
        assert g.costs == (4.0, 5.0)
        g = vt.build_graph(2, [(0, 1)])
        assert g.costs is None and g.unit_weighted
        assert g.cost_vector == (1.0, 1.0)

    def test_adjacency_sorted_and_symmetric(self):
        g = vt.build_graph(4, [(2, 0), (3, 1), (0, 3), (0, 1)])
        for u in range(4):
            assert list(g.adj[u]) == sorted(g.adj[u])
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestConnectivity:
    def test_examples(self):
        assert vt.is_connected(vt.complete(2))
        assert vt.is_connected(vt.cycle(6))
        assert not vt.is_connected(triangles_disjoint())
        assert vt.is_connected(vt.build_graph(1, []))

    def test_connectivity_builds_no_masks(self):
        # The masks of a long cycle would take about 24 MiB at n = 20,000.
        g = vt.cycle(20_000)
        tracemalloc.start()
        try:
            assert vt.is_connected(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "adj_masks" not in vars(g)
        assert peak < 4 << 20

    def test_components_cycle_split(self):
        g = vt.cycle(6)
        comps = vt.components(g, vt.mask_from_vertices([0, 3]))
        assert [vt.vertices_from_mask(c) for c in comps] == [[1, 2], [4, 5]]

    def test_components_star_center(self):
        g = vt.star(5)
        comps = vt.components(g, vt.mask_from_vertices([0]))
        assert [vt.vertices_from_mask(c) for c in comps] == [[1], [2], [3], [4], [5]]

    def test_components_complete(self):
        comps = vt.components(vt.complete(4), 1)
        assert len(comps) == 1
        assert vt.vertices_from_mask(comps[0]) == [1, 2, 3]

    def test_components_empty_remainder(self):
        g = vt.complete(3)
        assert vt.components(g, vt.full_mask(3)) == []

    def test_components_partition(self):
        g = triangles_disjoint()
        removed = vt.mask_from_vertices([1])
        comps = vt.components(g, removed)
        union = 0
        for c in comps:
            assert c & union == 0
            union |= c
        assert union == vt.full_mask(6) & ~removed

    def test_largest_component_tiebreak(self):
        g = vt.cycle(6)
        top = vt.largest_component(g, vt.mask_from_vertices([0, 3]))
        assert vt.vertices_from_mask(top) == [1, 2]

    def test_largest_component_star(self):
        top = vt.largest_component(vt.star(5), 1)
        assert vt.vertices_from_mask(top) == [1]

    def test_largest_component_whole_graph(self):
        g = vt.cycle(5)
        assert vt.largest_component(g, 0) == vt.full_mask(5)

    def test_largest_component_empty_remainder(self):
        with pytest.raises(EmptyRemainder):
            vt.largest_component(vt.complete(2), 3)


class TestVolumesAndCuts:
    def test_volume(self):
        assert vt.volume(vt.complete(4), vt.mask_from_vertices([0, 1])) == 6
        assert vt.volume(vt.cycle(6), vt.mask_from_vertices([0, 2, 4])) == 6
        assert vt.volume(vt.cycle(6), 0) == 0
        g = vt.star(4)
        assert vt.volume(g, vt.full_mask(g.n)) == 2 * g.m

    def test_cut_size(self):
        assert vt.cut_size(vt.star(5), 1) == 5
        assert vt.cut_size(vt.cycle(6), vt.mask_from_vertices([0, 1, 2])) == 2
        g = vt.petersen()
        assert vt.cut_size(g, vt.full_mask(g.n)) == 0

    def test_cut_symmetry(self):
        g = vt.petersen()
        s = vt.mask_from_vertices([0, 2, 6, 7])
        assert vt.cut_size(g, s) == vt.cut_size(g, vt.full_mask(g.n) & ~s)

    def test_volume_complement(self):
        g = vt.hypercube(3)
        s = vt.mask_from_vertices([0, 1, 5])
        assert vt.volume(g, s) + vt.volume(g, vt.full_mask(g.n) & ~s) == 2 * g.m


class TestRegularity:
    def test_examples(self):
        assert vt.regularity(vt.cycle(6)) == 2
        assert vt.regularity(vt.star(5)) is None
        assert vt.regularity(vt.complete(4)) == 3


class TestRestrict:
    def test_two_triangles(self):
        g = vt.restrict_to_largest_component(triangles_disjoint())
        assert g.n == 3 and g.m == 3

    def test_connected_identity(self):
        g = vt.cycle(6)
        assert vt.restrict_to_largest_component(g) is g

    def test_with_isolated_vertex(self):
        g = vt.build_graph(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        r = vt.restrict_to_largest_component(g)
        assert r.n == 4 and r.m == 6 and vt.regularity(r) == 3

    def test_preserves_weights(self):
        g = vt.build_graph(
            4, [(0, 1), (2, 3)], costs=[1.0, 2.0, 3.0, 4.0]
        )
        r = vt.restrict_to_largest_component(g)
        assert r.n == 2 and r.costs == (1.0, 2.0)

    def test_walks_without_masks(self):
        # Two weighted 10,000-cycles: their masks would take about 30 MiB.
        n = 10_000
        edges = [(c + i, c + (i + 1) % n) for c in (0, n) for i in range(n)]
        g = vt.build_graph(2 * n, edges, costs=[Fraction(v + 1) for v in range(2 * n)])
        tracemalloc.start()
        try:
            r = vt.restrict_to_largest_component(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "adj_masks" not in vars(g)
        assert peak < 8 << 20
        assert r.n == n and r.m == n and r.costs == g.costs[:n] and r.values == g.values[:n]
        first = vt.full_mask(n)
        assert vt.components(g) == [first, first << n]
        assert vt.largest_component(g, 1) == first << n  # the other piece lost vertex 0
        cycle = vt.cycle(2 * n)
        assert vt.set_vat(cycle, 1 | 1 << n) == Fraction(2, n)
        assert "adj_masks" not in vars(g) and "adj_masks" not in vars(cycle)

    def test_tie_goes_to_the_piece_with_the_lowest_vertex(self):
        # pieces {0, 1}, {2, 3, 4} and {5, 6, 7}: the largest two tie
        edges = [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7)]
        g = vt.build_graph(8, edges, costs=[Fraction(v + 1) for v in range(8)])
        keep = vt.vertices_from_mask(vt.largest_component(g))
        assert keep == [2, 3, 4]
        r = vt.restrict_to_largest_component(g)
        assert r.n == 3 and r.m == 2 and r.costs == tuple(Fraction(v + 1) for v in keep)


class TestMasks:
    def test_round_trip(self):
        ids = [0, 3, 17]
        assert vt.vertices_from_mask(vt.mask_from_vertices(ids)) == ids

    def test_full(self):
        assert vt.full_mask(3) == 0b111

    def test_negative_mask_is_rejected(self):
        # -1 has infinitely many set bits in two's complement, so a bit
        # walk over it would never end.
        with pytest.raises(BadVertexId, match="negative"):
            vt.vertices_from_mask(-1)
        with pytest.raises(BadVertexId):
            vt.MetricResult(Fraction(1), -4, "vat").witness_vertices


class TestEdgeListFormat:
    def roundtrip(self, g):
        buf = io.StringIO()
        vt.write_edge_list(g, buf)
        return vt.read_edge_list(io.StringIO(buf.getvalue()))

    def test_plain_round_trip(self):
        g = vt.petersen()
        assert self.roundtrip(g) == g

    def test_weighted_round_trip(self):
        g = vt.build_graph(3, [(0, 1), (1, 2)], costs=[0.5, 2.0, 3.25])
        assert self.roundtrip(g) == g

    def test_fraction_weight_round_trip(self):
        g = vt.build_graph(
            3, [(0, 1), (1, 2)], costs=[Fraction(1, 3), 2, 0.5], values=[Fraction(2, 7)] * 3
        )
        assert g.costs == (Fraction(1, 3), 2, 0.5)
        back = self.roundtrip(g)
        assert back == g and back.costs[0] == Fraction(1, 3)

    def test_isolated_vertex_round_trip(self):
        # the isolated vertex is the largest id, then an inner id: the
        # reader rejects id gaps, so both need weight lines
        for edges in ([(0, 1)], [(0, 2)]):
            back = self.roundtrip(vt.build_graph(3, edges))
            assert back.n == 3 and list(back.edges()) == edges

    def test_comments_and_blanks(self):
        text = "# a comment\n\n0 1\n# another\n1 2\n"
        g = vt.read_edge_list(io.StringIO(text))
        assert g.n == 3 and g.m == 2

    def test_weight_line_after_edge_rejected(self):
        with pytest.raises(BadParameter):
            vt.read_edge_list(io.StringIO("0 1\nw 0 1.0 1.0\n"))

    def test_malformed_lines(self):
        with pytest.raises(BadParameter):
            vt.read_edge_list(io.StringIO("0 1 2\n"))
        with pytest.raises(BadParameter):
            vt.read_edge_list(io.StringIO("a b\n"))
        with pytest.raises(BadParameter):
            vt.read_edge_list(io.StringIO("# nothing else\n"))
        with pytest.raises(BadParameter):
            vt.read_edge_list(io.StringIO("w 0 1/0 1\n0 1\n"))

    def test_id_gap_rejected(self):
        # n must not outgrow the input: a lone large id is refused before
        # any per-vertex allocation
        with pytest.raises(BadParameter, match="vertex 0 is on no edge"):
            vt.read_edge_list(io.StringIO("1 300000000\n"))
        with pytest.raises(BadParameter, match="vertex 1 is on no edge"):
            vt.read_edge_list(io.StringIO("0 2\n"))
        g = vt.read_edge_list(io.StringIO("w 1 1.0 1.0\n0 2\n"))
        assert g.n == 3 and g.m == 1

    def test_writer_sorted_edges(self):
        g = vt.cycle(5)
        buf = io.StringIO()
        vt.write_edge_list(g, buf)
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        pairs = [tuple(map(int, l.split())) for l in lines]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)
