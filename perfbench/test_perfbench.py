"""Self-tests of the benchmark: its checks, its counters, its self times.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from vattol import generators, metrics
from vattol.graph import build_graph

from common import ROOT, THEOREM_SUMMARY_42, theorem_failures
from layers import LAYER_METRICS, LayerTrace
from tracer import Tracer, self_times, totals
from workloads import ExactN20, WeightedN18


@pytest.fixture(scope="module")
def exact_inputs():
    return ExactN20().setup(ExactN20.ref_seed)


def _exact_outcomes():
    return [
        metrics.MetricResult(value=value, witness=witness, metric="x")
        for d in ExactN20.degrees
        for value, witness in ExactN20.expected[d]
    ]


def test_exact_check_accepts_the_recorded_outputs(exact_inputs):
    assert ExactN20().failures(exact_inputs, _exact_outcomes(), None, 7) == 0


def test_exact_check_counts_a_wrong_witness_and_a_raise(exact_inputs):
    outcomes = _exact_outcomes()
    tau = outcomes[0]
    outcomes[0] = metrics.MetricResult(tau.value, tau.witness ^ 0b11, "vat")
    outcomes[3] = RuntimeError("engine failed")
    assert ExactN20().failures(exact_inputs, outcomes, None, 7) == 2
    # Off the reference seed the witness is re-scored exactly instead.
    assert ExactN20().failures(exact_inputs, outcomes, None, 8) == 2


def test_weighted_check_counts_the_known_witness_defect():
    # path:5 with these tenths: {1} reaches exactly 1/6 (and 2/3 in the
    # alpha-beta form) with the lowest encoding; the float engine reports
    # {2} for both weighted forms.
    cost10, value10 = [7, 2, 2, 4, 4], [2, 10, 2, 1, 1]
    g = generators.path(5)
    weighted = build_graph(
        5, list(g.edges()),
        costs=[c / 10 for c in cost10], values=[v / 10 for v in value10],
    )
    inputs = (g, weighted, cost10, value10)
    w = WeightedN18()
    ref = w.reference(inputs, seed=0)
    assert ref[:2] == [(Fraction(1, 6), 0b10), (Fraction(2, 3), 0b10)]
    outcomes = w.run_pass(inputs)
    assert [r.witness for r in outcomes[:2]] == [0b100, 0b100]
    assert w.failures(inputs, outcomes, ref, seed=0) == 2


def _fake_sweep(tmp_path, rows: int, summary: str):
    csv_path = tmp_path / "out.csv"
    csv_path.write_text("header\n" + "row\n" * rows)
    return csv_path, summary + "\n"


def test_theorem_check_accepts_a_well_formed_sweep(tmp_path):
    csv_path, err = _fake_sweep(
        tmp_path, 26, "graphs=2 reports=26 holds=20 strict=10 failed=0 skipped=6"
    )
    assert theorem_failures(5, 0, err, csv_path) == (2, 0)


def test_theorem_check_counts_a_wrong_digest_and_a_nonzero_exit(tmp_path):
    csv_path, err = _fake_sweep(tmp_path, 597363, THEOREM_SUMMARY_42)
    assert theorem_failures(42, 0, err, csv_path) == (45951, 45951)
    csv_path, err = _fake_sweep(
        tmp_path, 26, "graphs=2 reports=26 holds=20 strict=10 failed=0 skipped=6"
    )
    assert theorem_failures(5, 1, err, csv_path) == (2, 2)
    assert theorem_failures(5, 0, "Traceback\n", csv_path) == (45951, 45951)


@pytest.mark.parametrize(
    "graph, space, steps",
    [
        # tau(C6) = 2/3: sizes 1 and 2 pass k/(6-k) <= 2/3, size 3 does not.
        (generators.cycle(6), 6 + 15, 2 * (2**6 - 1)),
        # tau(Petersen) = 4/5: sizes 1..4 pass k/(10-k) <= 4/5.
        (generators.petersen(), 10 + 45 + 120 + 210, 2 * (2**10 - 1)),
    ],
)
def test_counters_match_hand_computed_values(graph, space, steps):
    trace = LayerTrace()

    def one_pass():
        metrics.vat_exact(graph)
        metrics.conductance_minimizers(graph)  # two scans: its own and phi's

    trace.run(one_pass)
    assert trace.counters["metrics.vat.search_space"] == space
    assert trace.counters["metrics.conductance.gray_steps"] == steps


def test_self_time_arithmetic_on_nested_spans():
    # pass [0, 10] > conductance_minimizers [1, 9] > conductance_exact [2, 5]
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([10.0, 9.0, 5.0])
    parent = np.array([-1, 0, 1])
    assert self_times(start, end, parent).tolist() == [2.0, 5.0, 3.0]


def test_nested_call_is_traced_where_the_caller_looks_it_up():
    trace = LayerTrace()
    g = generators.petersen()
    trace.run(lambda: metrics.conductance_minimizers(g))
    tracer = trace.tracer
    names = [tracer.names[i] for i in tracer.name]
    outer = names.index("metrics.conductance_minimizers")
    inner = names.index("metrics.conductance_exact")
    assert tracer.parent[inner] == outer
    t = totals(tracer)
    outer_s = tracer.end[outer] - tracer.start[outer]
    inner_s = tracer.end[inner] - tracer.start[inner]
    assert t["metrics.conductance_minimizers"]["self_s"] == pytest.approx(outer_s - inner_s)
    # Uninstalled after the pass: the program is back to its own functions.
    assert not hasattr(metrics.conductance_exact, "__wrapped__")


def test_generator_spans_cover_only_the_generator_body():
    tracer = Tracer()
    gen = tracer.wrap("gen", lambda: (yield from range(3)))
    assert list(gen()) == [0, 1, 2]
    assert len(tracer.name) == 4  # three items and the final resumption


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in LAYER_METRICS
    ]
    trace = LayerTrace()
    trace.run(metrics.vat_exact, generators.cycle(6))
    assert set(trace.metrics(1.0, 1.0, cli_pass=False)) == {n for n, *_ in LAYER_METRICS}
