import os
from fractions import Fraction

import numpy as np
import pytest

import vattol as vt
from vattol import BadParameter, DisconnectedInput, TooLarge, TrivialGraph, verify
from vattol import graph as graph_mod
from vattol import spectral as spectral_mod
from vattol.corpus import exhaustive_members, exhaustive_regular
from fraction_facts import mediant_between, series_lower_bound
from vattol.spectral import _RESIDUAL_TOL
from vattol.verify import (
    MetricCache,
    clamp_jobs,
    evaluate_graph,
    normalize_checks,
    run_suite,
)

F = Fraction


def by_theorem(reports):
    return {r.theorem: r for r in reports}


def assert_all_skipped(reports, reason_prefix):
    assert reports
    for r in reports:
        assert r.skipped and r.holds is None
        assert r.skip_reason.startswith(reason_prefix), r.skip_reason


_TWO_TRIANGLES = vt.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestMetricCache:
    def test_one_exact_batch_call_serves_tau_phi_and_minimizers(self, monkeypatch):
        calls = []

        def counting(graphs):
            calls.append(len(graphs))
            return vt.exact_batch(graphs)

        monkeypatch.setattr(verify, "exact_batch", counting)
        g = vt.petersen()
        cache = MetricCache(g)
        assert cache.exact.tau == vt.vat_exact(g)
        assert cache.exact.phi == vt.conductance_exact(g)
        assert cache.exact.minimizers.tolist() == vt.conductance_minimizers(g)
        assert calls == [1]

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
            for name in ("tau", "phi", "minimizers"):
                with pytest.raises(error):
                    getattr(MetricCache(g).exact, name)


class TestCheeger:
    def test_k2(self):
        lower, upper = evaluate_graph(MetricCache(vt.complete(2)), "cheeger")
        assert lower.lhs == F(1, 2) and lower.rhs == pytest.approx(2.0)
        assert lower.holds and lower.strict_holds
        assert upper.lhs == pytest.approx(2.0) and upper.rhs == F(2)
        assert upper.holds and not upper.strict_holds  # equality

    def test_c6(self):
        lower, upper = evaluate_graph(MetricCache(vt.cycle(6)), "cheeger")
        assert lower.lhs == F(1, 18)
        assert lower.rhs == pytest.approx(0.5)
        assert upper.rhs == F(2, 3)
        assert lower.holds and upper.holds and upper.strict_holds

    def test_k4_upper_equality(self):
        _, upper = evaluate_graph(MetricCache(vt.complete(4)), "cheeger")
        assert upper.lhs == pytest.approx(4 / 3)
        assert upper.rhs == F(4, 3)
        assert upper.holds and not upper.strict_holds

    def test_star_not_regular(self):
        assert_all_skipped(evaluate_graph(MetricCache(vt.star(5)), "cheeger"), "NotRegular: ")


class TestVatUpper:
    def test_c6_conditional_skipped(self):
        reports = by_theorem(evaluate_graph(MetricCache(vt.cycle(6)), "vat_upper"))
        cond = reports["vat_upper_conditional"]
        assert cond.skipped and "hypothesis" in cond.skip_reason
        uncond = reports["vat_upper_unconditional"]
        assert uncond.lhs == F(2, 3) and uncond.rhs == F(4, 3)
        assert uncond.holds and uncond.strict_holds

    def test_k2_boundary_skips_conditional(self):
        reports = by_theorem(evaluate_graph(MetricCache(vt.complete(2)), "vat_upper"))
        assert reports["vat_upper_conditional"].skipped
        uncond = reports["vat_upper_unconditional"]
        assert uncond.lhs == F(1) and uncond.rhs == F(1)
        assert uncond.holds and not uncond.strict_holds

    def test_c12_conditional_equality(self):
        # phi(C12) = 1/6 < 1/4, tau(C12) = 1/3 = d*phi: holds, non-strict
        reports = by_theorem(evaluate_graph(MetricCache(vt.cycle(12)), "vat_upper"))
        cond = reports["vat_upper_conditional"]
        assert not cond.skipped
        assert cond.lhs == F(1, 3) and cond.rhs == F(1, 3)
        assert cond.holds and not cond.strict_holds

    def test_boundary_counterexample_skipped(self):
        # phi == 1/d^2 exactly and tau > d*phi: the strict hypothesis
        # excludes it, the unconditional bound still holds
        g, _ = vt.connected_random_regular(18, 3, 118827)
        cache = MetricCache(g, graph_id="boundary")
        assert cache.exact.phi.value == F(1, 9)
        assert cache.exact.tau.value == F(3, 8)
        reports = by_theorem(evaluate_graph(cache, "vat_upper"))
        assert reports["vat_upper_conditional"].skipped
        assert reports["vat_upper_unconditional"].holds


class TestVatLower:
    def test_c6_strict(self):
        (r,) = evaluate_graph(MetricCache(vt.cycle(6)), "vat_lower")
        assert r.lhs == F(1, 3) and r.rhs == F(4, 3)
        assert r.holds and r.strict_holds

    def test_k4_strict(self):
        (r,) = evaluate_graph(MetricCache(vt.complete(4)), "vat_lower")
        assert r.lhs == F(2, 3) and r.rhs == F(3)
        assert r.holds and r.strict_holds

    def test_k2_equality(self):
        (r,) = evaluate_graph(MetricCache(vt.complete(2)), "vat_lower")
        assert r.lhs == F(1) and r.rhs == F(1)
        assert r.holds and not r.strict_holds and r.equality


class TestSpectralVat:
    def test_c6_values(self):
        reports = by_theorem(evaluate_graph(MetricCache(vt.cycle(6)), "spectral_vat"))
        lower = reports["spectral_vat_lower"]
        assert lower.lhs == F(1, 72)
        assert lower.rhs == pytest.approx(0.5)
        upper = reports["spectral_vat_upper"]
        assert upper.rhs == F(8, 3)
        assert lower.holds and upper.holds
        assert reports["spectral_vat_lower_conditional"].skipped

    def test_k4_values(self):
        reports = by_theorem(evaluate_graph(MetricCache(vt.complete(4)), "spectral_vat"))
        assert reports["spectral_vat_lower"].lhs == F(1, 162)
        assert reports["spectral_vat_lower"].rhs == pytest.approx(4 / 3)
        assert reports["spectral_vat_upper"].rhs == F(6)
        assert all(
            r.holds for r in reports.values() if not r.skipped
        )

    def test_hypercube3(self):
        reports = by_theorem(evaluate_graph(MetricCache(vt.hypercube(3)), "spectral_vat"))
        for r in reports.values():
            assert r.skipped or r.holds

    def test_c12_conditional_emitted(self):
        reports = by_theorem(evaluate_graph(MetricCache(vt.cycle(12)), "spectral_vat"))
        cond = reports["spectral_vat_lower_conditional"]
        assert not cond.skipped
        assert cond.lhs == F(1, 72)  # (1/3)^2 / (2*4)
        assert cond.holds


class TestConnectedMinimizer:
    def test_c6(self):
        (r,) = evaluate_graph(MetricCache(vt.cycle(6)), "connected_minimizer")
        assert r.holds
        assert r.witnesses["S"] == [0, 1, 2]  # an arc: connected path

    def test_k4(self):
        (r,) = evaluate_graph(MetricCache(vt.complete(4)), "connected_minimizer")
        assert r.holds and r.witnesses["S"] == [0, 1]

    def test_reads_minimizers_from_cache(self):
        g = vt.cycle(6)
        cache = MetricCache(g)
        cache.exact = vt.exact_batch([g])[0]._replace(minimizers=np.array([0b111000]))
        (r,) = evaluate_graph(cache, "connected_minimizer")
        assert r.witnesses["S"] == [3, 4, 5]

    def test_hypercube3_face(self):
        (r,) = evaluate_graph(MetricCache(vt.hypercube(3)), "connected_minimizer")
        assert r.holds
        s = vt.mask_from_vertices(r.witnesses["S"])
        assert vt.set_conductance(vt.hypercube(3), s) == F(1, 3)

    def test_too_large(self):
        g, _ = vt.connected_random_regular(18, 3, 0)
        reports = evaluate_graph(MetricCache(g), "connected_minimizer")
        assert_all_skipped(reports, "TooLarge: ")


class TestFragmentBounds:
    def test_c6(self):
        cut_r, size_r = evaluate_graph(MetricCache(vt.cycle(6)), "fragment_bounds")
        assert cut_r.lhs == F(4) and cut_r.rhs == F(4)
        assert cut_r.holds and not cut_r.strict_holds
        assert size_r.lhs == F(3) and size_r.rhs == F(4)
        assert size_r.holds and size_r.strict_holds

    def test_k4(self):
        cut_r, size_r = evaluate_graph(MetricCache(vt.complete(4)), "fragment_bounds")
        assert cut_r.lhs == F(3) and cut_r.rhs == F(3)
        assert size_r.lhs == F(1) and size_r.rhs == F(3)
        assert cut_r.holds and size_r.holds

    def test_star_not_regular(self):
        reports = evaluate_graph(MetricCache(vt.star(4)), "fragment_bounds")
        assert_all_skipped(reports, "NotRegular: ")


class TestValueRanges:
    def test_star(self):
        tau_r, phi_r = evaluate_graph(MetricCache(vt.star(5)), "value_ranges")
        assert tau_r.lhs == F(1, 5) and tau_r.holds and tau_r.strict_holds
        assert phi_r.lhs == F(1) and phi_r.holds and not phi_r.strict_holds

    def test_k2_boundary(self):
        tau_r, phi_r = evaluate_graph(MetricCache(vt.complete(2)), "value_ranges")
        assert tau_r.holds and not tau_r.strict_holds
        assert phi_r.holds and not phi_r.strict_holds

    def test_c6(self):
        tau_r, phi_r = evaluate_graph(MetricCache(vt.cycle(6)), "value_ranges")
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
            every = evaluate_graph(MetricCache(g), "all")
            alone = evaluate_graph(MetricCache(g), group)
            assert alone == [r for r in every if r.theorem in theorems]
            assert [r.theorem for r in alone] == list(theorems)

    def test_star_skips_regular_only_checks(self):
        reports = evaluate_graph(MetricCache(vt.star(5), "star:5"))
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
        alone = [r for i, g in items for r in evaluate_graph(MetricCache(g, i))]
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


class TestPrefill:
    """The batch prefill gives each graph what its own calls would."""

    def test_spectral_matches_lambda2_bit_for_bit(self):
        items = list(vt.standard_corpus())
        by_n = {}
        for graph_id, g in items:
            by_n.setdefault(g.n, []).append((graph_id, g))
        batch = {}
        for group in by_n.values():
            spectra = spectral_mod._lambda2_batch([g for _, g in group])
            batch.update(zip((graph_id for graph_id, _ in group), spectra))
        for graph_id, g in items:  # 228 regular and 15 irregular graphs
            expected, spectral = vt.lambda2(g), batch[graph_id]
            assert spectral is not None, graph_id
            assert spectral.lambda2.hex() == expected.lambda2.hex(), graph_id
            assert spectral.gap.hex() == expected.gap.hex(), graph_id
            assert spectral.n == g.n
            assert 0 <= spectral.residual <= _RESIDUAL_TOL
        caches = [MetricCache(g, graph_id) for graph_id, g in items]
        verify._prefill(caches)
        for cache in caches:
            assert "exact" in vars(cache), cache.graph_id
            if cache.d is None:
                assert "spectral" not in vars(cache), cache.graph_id
            else:
                assert vars(cache)["spectral"] == batch[cache.graph_id], cache.graph_id
        # the largest n the dense solver takes, next to the Lanczos cutoff
        g = vt.connected_random_regular(spectral_mod._DENSE_MAX_N, 3, 1)[0]
        (spectral,) = spectral_mod._lambda2_batch([g])
        assert spectral is not None and vt.lambda2(g) == spectral

    def test_no_eigensolve_no_check_can_read(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)  # any call fails
        cap = verify.HARD_CAP
        star, big = vt.star(5), vt.cycle(cap + 1)
        star_cache, big_cache = MetricCache(star, "star"), MetricCache(big, "big")
        verify._prefill([star_cache, big_cache])
        assert "exact" in vars(star_cache) and "spectral" not in vars(star_cache)
        assert "exact" not in vars(big_cache) and "spectral" not in vars(big_cache)
        reports = evaluate_graph(big_cache, "cheeger,spectral_vat")
        assert all(r.skipped for r in reports)
        reason = f"TooLarge: n={cap + 1} exceeds the hard cap {cap}"
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
        caches = [MetricCache(g, graph_id) for graph_id, g in items]
        verify._prefill(caches)
        for cache in caches:
            assert "exact" not in vars(cache) and "spectral" not in vars(cache)
            reports = evaluate_graph(cache)
            assert [r.theorem for r in reports] == list(verify.ALL_THEOREMS)
            expected = reasons[cache.graph_id]
            for group, theorems in verify.GROUP_THEOREMS.items():
                for r in reports:
                    if r.theorem in theorems:
                        assert r.skipped and r.holds is None
                        assert r.skip_reason == expected.get(group, expected[None])

    def test_failed_residual_check_gives_none_then_the_error(self, monkeypatch):
        g = vt.petersen()
        monkeypatch.setattr(spectral_mod, "_RESIDUAL_TOL", -1.0)
        cache = MetricCache(g, "p")
        verify._prefill([cache])
        assert "exact" in vars(cache) and "spectral" not in vars(cache)
        reports = by_theorem(evaluate_graph(cache, "cheeger,vat_lower"))
        assert reports["cheeger_lower"].skipped
        assert reports["cheeger_lower"].skip_reason.startswith(
            "NoConvergence: eigenpair residual"
        )
        assert reports["vat_lower"].holds

    def test_given_results_change_no_report(self):
        items = [(f"c{n}", vt.cycle(n)) for n in (5, 6, 6, 7)] + [("k4", vt.complete(4))]
        caches = [MetricCache(g, graph_id) for graph_id, g in items]
        verify._prefill(caches)
        for cache in caches:
            assert {"exact", "spectral"} <= vars(cache).keys()
            alone = MetricCache(cache.g, cache.graph_id)
            assert evaluate_graph(cache, "all") == evaluate_graph(alone)

    def test_one_connectivity_traversal_per_graph(self, monkeypatch):
        calls = []
        original = graph_mod._component

        def counting(adj_masks, seed, within):
            calls.append(seed)
            return original(adj_masks, seed, within)

        monkeypatch.setattr(graph_mod, "_component", counting)
        items = [(f"c{n}", vt.cycle(n)) for n in (5, 6, 6, 7)]
        verify._prefill([MetricCache(g, graph_id) for graph_id, g in items])
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
        monkeypatch.setattr(verify, "_lambda2_batch", None)  # any call fails
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
