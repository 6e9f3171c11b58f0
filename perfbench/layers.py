"""The traced layers: which functions get spans, the counters, the metrics.

Every public function of the six layer modules is traced, except
those in ``UNTRACED``.  ``cli.main`` is the pass boundary: the time it
spends outside every traced call is the CLI writer's share
(``cli.write_s``).  The other three are thin helpers called once per
report or per metric call; they do no layer work of their own, and a
span for each would cost more than they do.  ``numpy.linalg.eigh`` is traced too, because
it is the spectral layer's solve.  A function reached only through a
table built at import, such as the check functions in
``verify._CHECK_FUNCTIONS``, keeps no span of its own, so its time is
its caller's self time: the check arithmetic is part of
``verify.evaluate_graph.self_s``.

``LAYER_METRICS`` lists each per-layer metric with the end-to-end metric
and workload it should move (``metric@workload``), so that a later
performance change can quote both.  Metrics of a layer a workload does
not run read 0 on that workload.
"""

from __future__ import annotations

import inspect
import sys
from math import comb
from multiprocessing.reduction import ForkingPickler
from types import ModuleType
from typing import Callable

from tracer import Tracer, totals

LAYER_MODULES = ("corpus", "generators", "metrics", "spectral", "verify", "cli")
UNTRACED = {
    "cli.main",
    "verify.iter_suite",
    "verify.normalize_checks",
    "metrics.enumeration_limit",
}
PASS_SPAN = "pass"
PICKLE_SPAN = "trace.ipc_pickle"

_THEOREM = "wall_s@theorem"
_EXACT = "wall_s@exact-n20"
_SPECTRAL = ("wall_s@spectral-n2000", "peak_rss_mb@spectral-n2000", "wall_s@theorem")
_WEIGHTED = ("wall_s@weighted-n18",)

#: (name, unit, better, end-to-end metrics and workloads it should move)
LAYER_METRICS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("corpus.theorem_corpus.s", "s", "lower", (_THEOREM,)),
    ("corpus.exhaustive_regular.s", "s", "lower", (_THEOREM,)),
    ("corpus.theorem_families.s", "s", "lower", (_THEOREM,)),
    ("corpus.random_regular_samples.s", "s", "lower", (_THEOREM,)),
    ("corpus.graphs", "count", "higher", (_THEOREM,)),
    ("generators.random_regular.calls", "count", "lower", (_THEOREM,)),
    ("metrics.vat_exact.self_s", "s", "lower", (_EXACT, _THEOREM)),
    ("metrics.vat_exact.calls", "count", "lower", (_EXACT, _THEOREM)),
    ("metrics.vat.search_space", "count", "lower", (_EXACT, _THEOREM)),
    ("metrics.vat_exact.ns_per_subset", "ns", "lower", (_EXACT, _THEOREM)),
    ("metrics.conductance_exact.self_s", "s", "lower", (_THEOREM, _EXACT)),
    ("metrics.conductance_exact.calls", "count", "lower", (_THEOREM, _EXACT)),
    ("metrics.conductance_minimizers.self_s", "s", "lower", (_THEOREM,)),
    ("metrics.conductance_minimizers.calls", "count", "lower", (_THEOREM,)),
    ("metrics.conductance.gray_steps", "count", "lower", (_THEOREM, _EXACT)),
    ("metrics.conductance.ns_per_step", "ns", "lower", (_THEOREM, _EXACT)),
    ("metrics.vat_witness_components.self_s", "s", "lower", (_THEOREM,)),
    ("metrics.weighted_vat_exact.self_s", "s", "lower", _WEIGHTED),
    ("metrics.alpha_beta_weighted_vat_exact.self_s", "s", "lower", _WEIGHTED),
    ("metrics.alpha_beta_vat_exact.self_s", "s", "lower", _WEIGHTED),
    ("metrics.weighted.subsets", "count", "lower", _WEIGHTED),
    ("spectral.lambda2.self_s", "s", "lower", _SPECTRAL),
    ("spectral.normalized_adjacency.self_s", "s", "lower", _SPECTRAL),
    ("spectral.sweep_conductance.self_s", "s", "lower", _SPECTRAL),
    ("spectral.eigh.calls", "count", "lower", _SPECTRAL),
    ("spectral.eigh.s", "s", "lower", _SPECTRAL),
    ("spectral.max_residual", "abs", "lower", _SPECTRAL),
    ("verify.evaluate_graph.self_s", "s", "lower", (_THEOREM,)),
    ("verify.reports", "count", "higher", (_THEOREM,)),
    ("verify.reports_skipped", "count", "lower", (_THEOREM,)),
    ("verify.ipc_bytes", "B", "lower", ("verify.jobs2.wall_s@theorem",)),
    ("verify.jobs2.wall_s", "s", "lower", ()),
    ("verify.jobs2.speedup", "x", "higher", ()),
    ("cli.report_to_csv_row.self_s", "s", "lower", (_THEOREM,)),
    ("cli.write_s", "s", "lower", (_THEOREM,)),
    ("cli.bytes", "B", "lower", (_THEOREM,)),
    ("trace.coverage_frac", "frac", "higher", ()),
    ("trace.overhead_frac", "frac", "lower", ()),
    ("trace.spans", "count", "lower", ()),
)


def layer_functions() -> dict[str, Callable]:
    """Span name -> original function, for every traced function."""
    import numpy.linalg

    found: dict[str, Callable] = {"spectral.eigh": numpy.linalg.eigh}
    for short in LAYER_MODULES:
        module = sys.modules[f"vattol.{short}"]
        for attr, value in vars(module).items():
            name = f"{short}.{attr}"
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and name not in UNTRACED
            ):
                found[name] = value
    return found


def binding_modules() -> list[ModuleType]:
    """Every module where a traced function may be looked up."""
    import numpy.linalg

    names = [n for n in sys.modules if n == "vattol" or n.startswith("vattol.")]
    return [sys.modules[n] for n in sorted(names)] + [numpy.linalg]


def search_space(n: int, tau) -> int:
    """Subsets of the sizes k the VAT size bound k/(n-k) <= tau cannot exclude."""
    return sum(
        comb(n, k)
        for k in range(1, n)
        if k * tau.denominator <= tau.numerator * (n - k)
    )


class LayerTrace:
    """A tracer over the layer functions plus the counters the hooks keep."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters = dict.fromkeys(
            (
                "corpus.graphs",
                "metrics.vat.search_space",
                "metrics.conductance.gray_steps",
                "metrics.weighted.subsets",
                "verify.reports",
                "verify.reports_skipped",
                "verify.ipc_bytes",
            ),
            0,
        )
        self.max_residual = 0.0
        self._pass_nid = self.tracer.intern(PASS_SPAN)
        self._pickle_nid = self.tracer.intern(PICKLE_SPAN)
        self._space_cache: dict[tuple[int, object], int] = {}
        self.passes = 0

    def _hooks(self) -> dict[str, Callable]:
        c = self.counters

        def corpus_item(item) -> None:
            c["corpus.graphs"] += 1

        def vat(args, kwargs, result) -> None:
            key = (args[0].n, result.value)
            space = self._space_cache.get(key)
            if space is None:
                space = self._space_cache[key] = search_space(*key)
            c["metrics.vat.search_space"] += space

        def scan(args, kwargs, result) -> None:
            c["metrics.conductance.gray_steps"] += (1 << args[0].n) - 1

        def weighted(args, kwargs, result) -> None:
            c["metrics.weighted.subsets"] += (1 << args[0].n) - 2

        def spectral(args, kwargs, result) -> None:
            self.max_residual = max(self.max_residual, result.residual)

        def evaluate(args, kwargs, reports) -> None:
            c["verify.reports"] += len(reports)
            c["verify.reports_skipped"] += sum(r.skipped for r in reports)
            # What a pool worker would ship back; its own span keeps the
            # pickling out of every layer's self time.
            i = self.tracer.open(self._pickle_nid)
            c["verify.ipc_bytes"] += len(ForkingPickler.dumps(reports))
            self.tracer.close(i)

        return {
            "corpus.theorem_corpus": corpus_item,
            "metrics.vat_exact": vat,
            "metrics.conductance_exact": scan,
            "metrics.conductance_minimizers": scan,
            "metrics.weighted_vat_exact": weighted,
            "metrics.alpha_beta_weighted_vat_exact": weighted,
            "metrics.alpha_beta_vat_exact": weighted,
            "spectral.lambda2": spectral,
            "verify.evaluate_graph": evaluate,
        }

    def run(self, fn: Callable, *args):
        """Call ``fn`` as one traced pass; returns (result, wall seconds)."""
        self.tracer.install(layer_functions(), self._hooks(), binding_modules())
        try:
            i = self.tracer.open(self._pass_nid)
            try:
                result = fn(*args)
            finally:
                self.tracer.close(i)
        finally:
            self.tracer.uninstall()
        self.passes += 1
        return result, self.tracer.end[i] - self.tracer.start[i]

    def metrics(
        self, untraced_wall: float, traced_wall: float, cli_pass: bool
    ) -> dict[str, float]:
        """Per-layer metrics, per pass; walls are per-pass means.

        ``cli_pass`` says the pass was a call to ``cli.main``, whose
        untraced remainder is then the CLI writer's time.
        """
        t = totals(self.tracer)
        per = 1.0 / self.passes
        zero = {"count": 0, "s": 0.0, "self_s": 0.0}

        def get(name: str, field: str) -> float:
            return t.get(name, zero)[field] * per

        out: dict[str, float] = {}
        for name, _, _, _ in LAYER_METRICS:
            head, _, field = name.rpartition(".")
            if name in self.counters:
                out[name] = self.counters[name] * per
            elif field == "calls":
                out[name] = get(head, "count")
            elif field in ("s", "self_s"):
                out[name] = get(head, field)
        vat_s = out["metrics.vat_exact.self_s"]
        space = out["metrics.vat.search_space"]
        out["metrics.vat_exact.ns_per_subset"] = vat_s / space * 1e9 if space else 0.0
        scan_s = out["metrics.conductance_exact.self_s"] + out["metrics.conductance_minimizers.self_s"]
        steps = out["metrics.conductance.gray_steps"]
        out["metrics.conductance.ns_per_step"] = scan_s / steps * 1e9 if steps else 0.0
        out["spectral.max_residual"] = self.max_residual
        layer_self = sum(
            v["self_s"] for k, v in t.items() if k not in (PASS_SPAN, PICKLE_SPAN)
        ) * per
        pickle_s = get(PICKLE_SPAN, "s")
        out["trace.coverage_frac"] = layer_self / untraced_wall
        out["trace.overhead_frac"] = (traced_wall - pickle_s - untraced_wall) / untraced_wall
        out["trace.spans"] = sum(v["count"] for v in t.values()) * per
        out["cli.write_s"] = get(PASS_SPAN, "self_s") if cli_pass else 0.0
        # Filled in by the theorem run, which alone writes a CSV and runs jobs=2.
        out["cli.bytes"] = 0.0
        out["verify.jobs2.wall_s"] = 0.0
        out["verify.jobs2.speedup"] = 0.0
        return out
