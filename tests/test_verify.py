import io
import os
import random
from itertools import islice
from fractions import Fraction

import numpy as np
import pytest

import vattol as vt
from vattol import BadParameter, DisconnectedInput, TooLarge, TrivialGraph, verify
from vattol import graph as graph_mod
from vattol import spectral as spectral_mod
from vattol.corpus import exhaustive_members, exhaustive_regular, theorem_families
from fraction_facts import mediant_between, series_lower_bound
from given_results import Given, given_results
from naive_oracle import naive_fragment_sides
from vattol.metrics import HARD_CAP
from vattol.spectral import _RESIDUAL_TOL
from vattol.verify import clamp_jobs, normalize_checks, run_suite

F = Fraction


def suite_reports(g, checks="all", graph_id="graph"):
    """The reports of ``checks`` on one graph, a suite batch of one."""
    return run_suite([(graph_id, g)], checks).reports


def by_theorem(reports):
    return {r.theorem: r for r in reports}


def assert_all_skipped(reports, reason_prefix):
    assert reports
    for r in reports:
        assert r.skipped and r.holds is None
        assert r.skip_reason.startswith(reason_prefix), r.skip_reason


_TWO_TRIANGLES = vt.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestExactErrors:
    def test_errors_match_vat_exact_in_order(self):
        ring = [(v, (v + 1) % 13) for v in range(13)]
        two_rings = vt.build_graph(26, ring + [(u + 13, v + 13) for u, v in ring])
        cases = [
            (vt.build_graph(1, []), TrivialGraph),
            (two_rings, DisconnectedInput),  # over the cap, but disconnected first
            (vt.cycle(25), TooLarge),
        ]
        for g, error in cases:
            with pytest.raises(error):
                vt.vat_exact(g)
            with pytest.raises(error):
                vt.exact_batch([g])


class TestCheeger:
    def test_k2(self):
        lower, upper = suite_reports(vt.complete(2), "cheeger")
        assert lower.lhs == F(1, 2) and lower.rhs == pytest.approx(2.0)
        assert lower.holds and lower.strict_holds
        assert upper.lhs == pytest.approx(2.0) and upper.rhs == F(2)
        assert upper.holds and not upper.strict_holds  # equality

    def test_c6(self):
        lower, upper = suite_reports(vt.cycle(6), "cheeger")
        assert lower.lhs == F(1, 18)
        assert lower.rhs == pytest.approx(0.5)
        assert upper.rhs == F(2, 3)
        assert lower.holds and upper.holds and upper.strict_holds

    def test_k4_upper_equality(self):
        _, upper = suite_reports(vt.complete(4), "cheeger")
        assert upper.lhs == pytest.approx(4 / 3)
        assert upper.rhs == F(4, 3)
        assert upper.holds and not upper.strict_holds

    def test_star_not_regular(self):
        assert_all_skipped(suite_reports(vt.star(5), "cheeger"), "NotRegular: ")


class TestVatUpper:
    def test_c6_conditional_skipped(self):
        reports = by_theorem(suite_reports(vt.cycle(6), "vat_upper"))
        cond = reports["vat_upper_conditional"]
        assert cond.skipped and "hypothesis" in cond.skip_reason
        uncond = reports["vat_upper_unconditional"]
        assert uncond.lhs == F(2, 3) and uncond.rhs == F(4, 3)
        assert uncond.holds and uncond.strict_holds

    def test_k2_boundary_skips_conditional(self):
        reports = by_theorem(suite_reports(vt.complete(2), "vat_upper"))
        assert reports["vat_upper_conditional"].skipped
        uncond = reports["vat_upper_unconditional"]
        assert uncond.lhs == F(1) and uncond.rhs == F(1)
        assert uncond.holds and not uncond.strict_holds

    def test_c12_conditional_equality(self):
        # phi(C12) = 1/6 < 1/4, tau(C12) = 1/3 = d*phi: holds, non-strict
        reports = by_theorem(suite_reports(vt.cycle(12), "vat_upper"))
        cond = reports["vat_upper_conditional"]
        assert not cond.skipped
        assert cond.lhs == F(1, 3) and cond.rhs == F(1, 3)
        assert cond.holds and not cond.strict_holds

    def test_boundary_counterexample_skipped(self):
        # phi == 1/d^2 exactly and tau > d*phi: the strict hypothesis
        # excludes it, the unconditional bound still holds
        g, _ = vt.connected_random_regular(18, 3, 118827)
        reports = by_theorem(suite_reports(g, "vat_upper", "boundary"))
        assert reports["vat_upper_conditional"].skipped
        uncond = reports["vat_upper_unconditional"]
        assert uncond.lhs == F(3, 8) and uncond.rhs == 9 * F(1, 9)  # tau, and d^2 phi
        assert uncond.holds


class TestVatLower:
    def test_c6_strict(self):
        (r,) = suite_reports(vt.cycle(6), "vat_lower")
        assert r.lhs == F(1, 3) and r.rhs == F(4, 3)
        assert r.holds and r.strict_holds

    def test_k4_strict(self):
        (r,) = suite_reports(vt.complete(4), "vat_lower")
        assert r.lhs == F(2, 3) and r.rhs == F(3)
        assert r.holds and r.strict_holds

    def test_k2_equality(self):
        (r,) = suite_reports(vt.complete(2), "vat_lower")
        assert r.lhs == F(1) and r.rhs == F(1)
        assert r.holds and not r.strict_holds and r.equality


class TestSpectralVat:
    def test_c6_values(self):
        reports = by_theorem(suite_reports(vt.cycle(6), "spectral_vat"))
        lower = reports["spectral_vat_lower"]
        assert lower.lhs == F(1, 72)
        assert lower.rhs == pytest.approx(0.5)
        upper = reports["spectral_vat_upper"]
        assert upper.rhs == F(8, 3)
        assert lower.holds and upper.holds
        assert reports["spectral_vat_lower_conditional"].skipped

    def test_k4_values(self):
        reports = by_theorem(suite_reports(vt.complete(4), "spectral_vat"))
        assert reports["spectral_vat_lower"].lhs == F(1, 162)
        assert reports["spectral_vat_lower"].rhs == pytest.approx(4 / 3)
        assert reports["spectral_vat_upper"].rhs == F(6)
        assert all(
            r.holds for r in reports.values() if not r.skipped
        )

    def test_hypercube3(self):
        reports = by_theorem(suite_reports(vt.hypercube(3), "spectral_vat"))
        for r in reports.values():
            assert r.skipped or r.holds

    def test_c12_conditional_emitted(self):
        reports = by_theorem(suite_reports(vt.cycle(12), "spectral_vat"))
        cond = reports["spectral_vat_lower_conditional"]
        assert not cond.skipped
        assert cond.lhs == F(1, 72)  # (1/3)^2 / (2*4)
        assert cond.holds


class TestConnectedMinimizer:
    def test_c6(self):
        (r,) = suite_reports(vt.cycle(6), "connected_minimizer")
        assert r.holds
        assert r.witnesses["S"] == [0, 1, 2]  # an arc: connected path

    def test_k4(self):
        (r,) = suite_reports(vt.complete(4), "connected_minimizer")
        assert r.holds and r.witnesses["S"] == [0, 1]

    def test_reads_minimizers_from_cache(self):
        given = Given("graph", vt.cycle(6), fields={"phi_witness": 0b111000})
        with given_results([given]):
            (r,) = suite_reports(given.g, "connected_minimizer")
        assert r.witnesses["S"] == [3, 4, 5]

    def test_hypercube3_face(self):
        (r,) = suite_reports(vt.hypercube(3), "connected_minimizer")
        assert r.holds
        s = vt.mask_from_vertices(r.witnesses["S"])
        assert vt.set_conductance(vt.hypercube(3), s) == F(1, 3)

    def test_too_large(self):
        g, _ = vt.connected_random_regular(18, 3, 0)
        reports = suite_reports(g, "connected_minimizer")
        assert_all_skipped(reports, "TooLarge: ")


class TestFragmentBounds:
    def test_c6(self):
        cut_r, size_r = suite_reports(vt.cycle(6), "fragment_bounds")
        assert cut_r.lhs == F(4) and cut_r.rhs == F(4)
        assert cut_r.holds and not cut_r.strict_holds
        assert size_r.lhs == F(3) and size_r.rhs == F(4)
        assert size_r.holds and size_r.strict_holds

    def test_k4(self):
        cut_r, size_r = suite_reports(vt.complete(4), "fragment_bounds")
        assert cut_r.lhs == F(3) and cut_r.rhs == F(3)
        assert size_r.lhs == F(1) and size_r.rhs == F(3)
        assert cut_r.holds and size_r.holds

    def test_star_not_regular(self):
        reports = suite_reports(vt.star(4), "fragment_bounds")
        assert_all_skipped(reports, "NotRegular: ")

    @staticmethod
    def assert_key_is_per_piece_sum(items):
        """The rows built from the batch key at tau's witness and at hand-set
        witnesses (empty, each vertex, V less each vertex, seeded random
        masks) of every graph, all in one batch, have the per-piece sums of
        the naive oracle as sides: boundaries sum to cut(S), sizes to
        n - |S|; the witness is (S, T)."""
        given, expected = [], []
        for graph_id, g in items:
            full = vt.full_mask(g.n)
            rng = random.Random(g.n * 1000 + g.m)
            record = vt.exact_batch([g])[0]
            masks = [record.tau_witness, 0, *(1 << v for v in range(g.n))]
            masks += [full ^ (1 << v) for v in range(g.n)]
            masks += [rng.randrange(full) for _ in range(8)]
            for mask in masks:
                given.append(Given(f"{graph_id} S={mask}", g, fields={"tau_witness": mask}))
                expected.append(naive_fragment_sides(g, mask))
        with given_results(given):
            rec = verify._prefill([entry.item for entry in given], False)
        columns = rec.key_columns()
        keys = list(zip(*(columns[c] for c in verify._CHECKS["fragment_bounds"].key)))
        witnesses = rec.witnesses()["st"]
        for entry, key, witness, (sides, pair) in zip(given, keys, witnesses, expected):
            rows = verify._entry("fragment_bounds", key).rows
            assert ([(r.lhs, r.rhs) for r in rows], witness) == (list(sides), pair), entry.graph_id
        assert len(keys) == len(given)

    def test_key_matches_per_piece_oracle_on_corpora(self):
        self.assert_key_is_per_piece_sum([*exhaustive_regular(6), *theorem_families()])

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_key_matches_per_piece_oracle_on_random_regular(self, d):
        self.assert_key_is_per_piece_sum(
            (f"random:{n},{d}", vt.connected_random_regular(n, d, 100 * d + n)[0])
            for n in range(d + 1, 21)
            if n * d % 2 == 0
        )

    def test_witness_of_every_vertex_skips_both_rows(self):
        given = Given("graph", vt.cycle(6), fields={"tau_witness": vt.full_mask(6)})
        with given_results([given]):
            reports = suite_reports(given.g, "fragment_bounds")
        assert_all_skipped(reports, "EmptyRemainder: removed every vertex; no component remains")
        with given_results([given]):
            tau_r, _ = suite_reports(given.g, "value_ranges")
        assert not tau_r.skipped and tau_r.holds is False
        assert tau_r.witnesses == {"S": list(range(6))}


class TestValueRanges:
    def test_star(self):
        tau_r, phi_r = suite_reports(vt.star(5), "value_ranges")
        assert tau_r.lhs == F(1, 5) and tau_r.holds and tau_r.strict_holds
        assert phi_r.lhs == F(1) and phi_r.holds and not phi_r.strict_holds

    def test_k2_boundary(self):
        tau_r, phi_r = suite_reports(vt.complete(2), "value_ranges")
        assert tau_r.holds and not tau_r.strict_holds
        assert phi_r.holds and not phi_r.strict_holds

    def test_c6(self):
        tau_r, phi_r = suite_reports(vt.cycle(6), "value_ranges")
        assert tau_r.holds and phi_r.holds


class TestEvaluateAndSuite:
    @pytest.mark.parametrize("group", vt.CHECK_GROUPS)
    def test_one_group_is_its_share_of_all(self, group):
        graphs = [
            vt.complete(2),
            vt.cycle(6),
            vt.cycle(12),
            vt.star(5),
            _TWO_TRIANGLES,
            vt.connected_random_regular(18, 3, 0)[0],
        ]
        theorems = verify.GROUP_THEOREMS[group]
        for g in graphs:
            every = suite_reports(g, "all")
            alone = suite_reports(g, group)
            assert alone == [r for r in every if r.theorem in theorems]
            assert [r.theorem for r in alone] == list(theorems)

    def test_star_skips_regular_only_checks(self):
        reports = suite_reports(vt.star(5), graph_id="star:5")
        by = {}
        for r in reports:
            by.setdefault(r.theorem, r)
        assert by["cheeger_lower"].skipped
        assert "NotRegular" in by["cheeger_lower"].skip_reason
        assert by["vat_range"].holds and by["conductance_range"].holds

    def test_all_cycles_hold(self):
        graphs = [(f"cycle:{n}", vt.cycle(n)) for n in range(3, 9)]
        result = run_suite(graphs)
        assert result.all_hold
        assert result.failures == []
        assert result.summary.skipped > 0  # conditional branches skip on dense cycles

    def test_exhaustive_cubic_on_six_hold(self):
        graphs = exhaustive_members(6, 3)
        result = run_suite(graphs, checks="vat_lower,vat_upper,cheeger")
        assert result.all_hold

    def test_jobs_do_not_change_reports(self):
        graphs = [(f"cycle:{n}", vt.cycle(n)) for n in range(3, 11)]
        serial = run_suite(graphs, jobs=1)
        for jobs in (0, 2):
            assert run_suite(graphs, jobs=jobs).reports == serial.reports

    def test_batch_boundaries_change_nothing(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITE_BATCH", 32)
        small = list(exhaustive_regular(6))  # n = 2..6
        mixed = [
            ("complete:2", vt.complete(2)),
            ("star:5", vt.star(5)),
            ("two-triangles", _TWO_TRIANGLES),
            ("cycle:25", vt.cycle(25)),  # above the hard cap
            ("petersen", vt.petersen()),
            ("hypercube:3", vt.hypercube(3)),
        ]
        cycles = [(f"cycle:{n}", vt.cycle(n)) for n in range(3, 12)]
        items = small[:45] + mixed + small[45:] + cycles
        assert len(items) > 5 * verify.SUITE_BATCH
        alone = [r for i, g in items for r in suite_reports(g, graph_id=i)]
        reasons = {r.skip_reason.split(":")[0] for r in alone if r.skipped}
        assert {"NotRegular", "DisconnectedInput", "TooLarge"} <= reasons
        for jobs in (1, 2):
            assert run_suite(items, jobs=jobs).reports == alone

    def test_clamp_jobs(self, monkeypatch):
        # Under an affinity or cpuset limit the CPUs this process may run
        # on are fewer than the machine's; the lower count wins.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert clamp_jobs(-1) == clamp_jobs(0) == clamp_jobs(1) == 1
        assert clamp_jobs(2) == clamp_jobs(8) == clamp_jobs(10**9) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert clamp_jobs(10**9) == 8

    def test_one_job_pulls_one_batch_ahead(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITE_BATCH", 4)
        pulled, seen = [0], []

        def graphs():
            for n in range(3, 15):
                pulled[0] += 1
                yield f"cycle:{n}", vt.cycle(n)

        class Recording(io.StringIO):
            def write(self, text):
                seen.append(pulled[0])
                return super().write(text)

        # CSV: the header, then each batch; JSON: each batch, then the closing "]"
        for fmt, expected in (("csv", [0, 4, 8, 12]), ("json", [4, 8, 12, 12])):
            pulled[0], seen[:] = 0, []
            verify.write_reports(graphs(), "all", 1, fmt, Recording())
            assert seen == expected, fmt
        pulled[0] = 0
        next(vt.iter_suite(graphs()))
        assert pulled[0] == 4

    def test_report_order_is_input_order(self):
        graphs = [("complete:3", vt.complete(3)), ("cycle:4", vt.cycle(4))]
        result = run_suite(graphs, checks="vat_lower")
        assert [r.graph_id for r in result.reports] == ["complete:3", "cycle:4"]

    def test_equalities_collected(self):
        result = run_suite([("complete:2", vt.complete(2))], checks="vat_lower")
        assert [r.theorem for r in result.equalities] == ["vat_lower"]

    def test_selection_validation(self):
        with pytest.raises(BadParameter):
            normalize_checks("nosuch")
        assert normalize_checks("all") == vt.CHECK_GROUPS
        groups = normalize_checks("cheeger, vat_lower")
        assert groups == ("cheeger", "vat_lower")
        assert normalize_checks(groups) == groups
        assert normalize_checks("vat_lower,cheeger,vat_lower") == ("vat_lower", "cheeger")

    def test_all_mixed_with_a_group_is_rejected(self):
        for checks in ("all,cheeger", ["all", "cheeger"], ["cheeger", "all"]):
            with pytest.raises(BadParameter, match="'all' selects every check group"):
                normalize_checks(checks)
        with pytest.raises(BadParameter, match="list it alone"):
            suite_reports(vt.cycle(4), ["all", "cheeger"])
        assert normalize_checks("all,all") == vt.CHECK_GROUPS


class TestPrefill:
    """The batch prefill gives each graph what its own calls would."""

    def test_check_table_and_record_name_the_same_columns(self):
        # each name a group's key reads is a record column, and each column is read
        columns = verify._prefill([("c6", vt.cycle(6))]).key_columns()
        read = {name for check in verify._CHECKS.values() for name in check.key}
        assert read == columns.keys()

    def test_spectral_matches_lambda2_bit_for_bit(self):
        items = list(vt.standard_corpus())
        by_n = {}
        for graph_id, g in items:
            by_n.setdefault(g.n, []).append((graph_id, g))
        batch = {}
        for group in by_n.values():
            gaps = spectral_mod._gap_batch(np.array([g.adj_masks for _, g in group], np.int32))
            batch.update(zip((graph_id for graph_id, _ in group), gaps))
        for graph_id, g in items:  # 228 regular and 15 irregular graphs
            gap = batch[graph_id]
            assert gap is not None, graph_id
            assert gap.hex() == vt.lambda2(g).gap.hex(), graph_id
        rec = verify._prefill(items)
        assert not rec.unmet["exact"] and not rec.unmet["spectral"]
        for i, (graph_id, _) in enumerate(items):
            if rec.d[i] is None:  # no check reads lambda2 of an irregular graph
                assert rec.gap[i] == 0, graph_id
            else:
                assert rec.gap[i].hex() == batch[graph_id].hex(), graph_id
        # the largest n the prefill stacks, HARD_CAP
        g = vt.connected_random_regular(HARD_CAP, 3, 1)[0]
        (gap,) = spectral_mod._gap_batch(np.array([g.adj_masks], np.int32))
        assert gap is not None and gap.hex() == vt.lambda2(g).gap.hex()

    def test_one_exact_batch_per_n_across_degrees(self, monkeypatch):
        calls = []
        exact_columns, gap_batch = verify._exact_columns, verify._gap_batch

        def counting(batch):
            def call(graphs):
                calls.append((batch, len(graphs)))
                return batch(graphs)

            return call

        monkeypatch.setattr(verify, "_exact_columns", counting(exact_columns))
        monkeypatch.setattr(verify, "_gap_batch", counting(gap_batch))
        items = [
            ("d3", vt.connected_random_regular(8, 3, 1)[0]),
            ("star", vt.star(7)),
            ("d4", vt.connected_random_regular(8, 4, 2)[0]),
            ("d3b", vt.connected_random_regular(8, 3, 3)[0]),
        ]
        rec = verify._prefill(items)
        assert calls == [(exact_columns, 4), (gap_batch, 3)]
        for i, (graph_id, g) in enumerate(items):
            assert tuple(rec.exact[:, i].tolist()) == vt.exact_batch([g])[0], graph_id
            if rec.d[i] is None:
                assert rec.gap[i] == 0
                continue
            assert rec.gap[i].hex() == vt.lambda2(g).gap.hex(), graph_id

    def test_failed_eigensolve_skips_with_its_error(self, monkeypatch):
        def failing(mats):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        g = vt.cycle(6)
        gaps = spectral_mod._gap_batch(np.array([g.adj_masks] * 2, np.int32))
        assert [type(gap) for gap in gaps] == [vt.NoConvergence] * 2
        assert [str(gap) for gap in gaps] == ["eigensolver failed: no convergence"] * 2
        reports = run_suite([("c6", g)], "cheeger").reports
        assert [r.theorem for r in reports] == ["cheeger_lower", "cheeger_upper"]
        assert all(r.skipped and r.holds is None for r in reports)
        reason = "NoConvergence: eigensolver failed: no convergence"
        assert {r.skip_reason for r in reports} == {reason}

    def test_failed_stack_is_solved_one_graph_at_a_time(self, monkeypatch):
        eigh, shapes = np.linalg.eigh, []

        def failing_near_one_half(mats):
            # only the cycle has entries near 1/2; (1/sqrt(2))**2 is just under it
            shapes.append(mats.shape)
            if (mats > 0.4).any():
                raise np.linalg.LinAlgError("no convergence")
            return eigh(mats)

        cubic = [vt.connected_random_regular(8, 3, seed)[0] for seed in (1, 3)]
        expected = [vt.lambda2(g).gap.hex() for g in cubic]
        items = [("cycle:8", vt.cycle(8)), ("cubic:1", cubic[0]), ("cubic:3", cubic[1])]
        monkeypatch.setattr(np.linalg, "eigh", failing_near_one_half)
        rec = verify._prefill(items)
        assert shapes == [(3, 8, 8)] + [(1, 8, 8)] * 3
        assert rec.unmet["spectral"] == {0: "NoConvergence: eigensolver failed: no convergence"}
        assert [gap.hex() for gap in rec.gap[1:].tolist()] == expected

    def test_no_eigensolve_no_check_can_read(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)  # any call fails
        cap = HARD_CAP
        star, big = vt.star(5), vt.cycle(cap + 1)
        rec = verify._prefill([("star", star), ("big", big)])
        assert rec.exact[:, 0].any() and not rec.exact[:, 1].any()
        reason = f"TooLarge: n={cap + 1} exceeds the hard cap {cap}"
        assert rec.unmet["exact"] == {1: reason} and not rec.unmet["spectral"]
        reports = suite_reports(big, "cheeger,spectral_vat", graph_id="big")
        assert all(r.skipped for r in reports)
        assert {r.skip_reason for r in reports} == {reason}

    def test_graphs_it_cannot_take_keep_their_errors(self):
        reasons = {
            "trivial": {None: "TrivialGraph: metrics need at least two vertices"},
            "isolated": {
                None: "NotRegular: isolated: the check needs a regular graph",
                "value_ranges": "DisconnectedInput: graph is disconnected; "
                "restrict_to_largest_component() first",
            },
            "disconnected": {
                None: "DisconnectedInput: graph is disconnected; "
                "restrict_to_largest_component() first"
            },
        }
        triangle = [(0, 1), (1, 2), (0, 2)]
        items = [
            ("trivial", vt.build_graph(1, [])),
            ("isolated", vt.build_graph(3, [(0, 1)])),
            ("disconnected", vt.build_graph(6, triangle + [(3, 4), (4, 5), (3, 5)])),
        ]
        rec = verify._prefill(items)
        assert not rec.exact.any() and not rec.gap.any()
        assert sorted(rec.unmet["exact"]) == [0, 1, 2]
        batch = iter(run_suite(items).reports)
        for graph_id, g in items:
            reports = suite_reports(g, graph_id=graph_id)
            assert [r.theorem for r in reports] == list(verify.ALL_THEOREMS)
            assert reports == list(islice(batch, len(reports)))
            expected = reasons[graph_id]
            for group, theorems in verify.GROUP_THEOREMS.items():
                for r in reports:
                    if r.theorem in theorems:
                        assert r.skipped and r.holds is None
                        assert r.skip_reason == expected.get(group, expected[None])

    def test_failed_residual_check_gives_the_error(self, monkeypatch):
        g = vt.petersen()
        monkeypatch.setattr(spectral_mod, "_RESIDUAL_TOL", -1.0)
        (gap,) = spectral_mod._gap_batch(np.array([g.adj_masks], np.int32))
        assert isinstance(gap, vt.NoConvergence) and str(gap).startswith("eigenpair residual")
        rec = verify._prefill([("p", g)])
        assert rec.exact[:, 0].any() and rec.gap[0] == 0
        assert rec.unmet["spectral"][0].startswith("NoConvergence: eigenpair residual")
        reports = by_theorem(suite_reports(g, "cheeger,vat_lower", graph_id="p"))
        assert reports["cheeger_lower"].skipped
        assert reports["cheeger_lower"].skip_reason.startswith("NoConvergence: eigenpair residual")
        assert reports["vat_lower"].holds

    def test_given_results_change_no_report(self):
        items = [(f"c{n}", vt.cycle(n)) for n in (5, 6, 6, 7)] + [("k4", vt.complete(4))]
        rec = verify._prefill(items)
        assert rec.exact.all() and rec.gap.all() and not rec.unmet["spectral"]
        alone = [r for graph_id, g in items for r in suite_reports(g, graph_id=graph_id)]
        assert run_suite(items).reports == alone

    def test_one_connectivity_traversal_per_graph(self, monkeypatch):
        calls = []
        original = graph_mod._walk

        def counting(adj, root, seen):
            calls.append(root)
            return original(adj, root, seen)

        monkeypatch.setattr(graph_mod, "_walk", counting)
        items = [(f"c{n}", vt.cycle(n)) for n in (5, 6, 6, 7)]
        verify._prefill(items)
        assert len(calls) == len(items)
        vt.exact_batch([items[1][1], items[2][1]])
        vt.lambda2(items[0][1])
        assert len(calls) == len(items)

    def test_one_regularity_test_per_graph(self, monkeypatch):
        calls = []
        original = verify.regularity

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(verify, "regularity", counting)
        items = [(f"c{n}", vt.cycle(n)) for n in (5, 6, 6, 7)] + [("star", vt.star(5))]
        list(vt.iter_suite(items))
        assert len(calls) == len(items)

    def test_checks_without_lambda2_skip_the_eigensolve(self, monkeypatch):
        monkeypatch.setattr(verify, "_gap_batch", None)  # any call fails
        reports = list(vt.iter_suite([("c6", vt.cycle(6))], checks="vat_lower"))
        assert [r.theorem for r in reports] == ["vat_lower"]


class TestMediant:
    def test_examples(self):
        assert mediant_between(1, 3, 2, 3) == F(1, 2)
        assert mediant_between(1, 2, 1, 2) == F(1, 2)
        assert mediant_between(2, 7, 3, 5) == F(5, 12)

    def test_sandwich(self):
        a, x, b, y = 2, 7, 3, 5
        mid = mediant_between(a, x, b, y)
        assert F(a, x) < mid < F(b, y)

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            mediant_between(0, 1, 1, 1)
        with pytest.raises(BadParameter):
            mediant_between(1, 1, 1, -2)


class TestSeriesLowerBound:
    def test_examples(self):
        assert series_lower_bound([(1, 2), (3, 4)], F(1, 2))
        assert series_lower_bound([(5, 7)], F(5, 7))  # single pair, equality
        assert series_lower_bound([(1, 10), (9, 10)], F(1, 10))

    def test_false_case(self):
        assert not series_lower_bound([(1, 10), (1, 10)], F(1, 2))

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            series_lower_bound([], F(1))
        with pytest.raises(BadParameter):
            series_lower_bound([(0, 1)], F(1))
