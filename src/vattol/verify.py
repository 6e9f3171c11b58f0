"""Mechanical checking of the resilience inequalities on supplied graphs.

Each check compares two exactly-computed (or, for spectral quantities,
tightly-toleranced) sides of one inequality and emits a structured
:class:`TheoremReport`.  Inequalities are judged in non-strict form for
``holds``; strictness is recorded separately, because some of the bounds
are achieved with equality on boundary graphs (the single edge K2 most
prominently) and an equality must be auditable rather than a failure.

A check is a function of one :class:`MetricCache`, e.g.
``check_vat_lower(MetricCache(g))``.  The cache carries the graph, its
id and its degree, and computes tau, phi and the conductance minimizers
(one :func:`exact_batch` result, so n <= 24) and lambda2 at most once
per graph.  :func:`evaluate_graph` runs the selected checks on one
cache; a check raises on an unmet precondition, and it turns that into
skipped reports, built like every skipped report by ``_skipped``.  The
suite takes graphs in batches of :data:`SUITE_BATCH`, each evaluated by
``_evaluate_batch`` (in process at ``jobs=1``, in a pool task
otherwise): it builds the batch's caches, and ``_prefill`` fills them in
place per (n, d), by one :func:`exact_batch` call and, if regular, one
stacked ``eigh``.  The sides that (d, tau, phi) fix and their exact
verdicts come from a bounded memo.  Spectral sides compare with the
fixed absolute tolerance :data:`SPECTRAL_TOL`.  One :class:`SuiteSummary`
counts the outcome of a run, for :func:`run_suite` and ``vattol verify``
alike.

One table, ``_CHECKS``, names each check group in report order with
its function, its theorems and whether it reads lambda2;
:data:`CHECK_GROUPS`, :data:`GROUP_THEOREMS` and :data:`ALL_THEOREMS`
derive from it.  The groups and the inequalities they cover, for a
connected d-regular graph with attack tolerance tau, conductance phi and
spectral gap ``gap = 1 - lambda2``:

- ``cheeger``: phi^2 / 2 <= gap and gap <= 2 phi (the classical Cheeger
  sandwich for the normalized adjacency spectrum)
- ``vat_upper``: tau <= d phi whenever phi < 1/d^2, and the
  unconditional weakening tau <= d^2 phi
- ``vat_lower``: phi <= d tau (so tau and phi agree up to the factor d)
- ``spectral_vat``: tau^2 / (2 d^4) <= gap <= 2 d tau, and the sharper
  conditional lower bound tau^2 / (2 d^2) <= gap when phi < 1/d^2
- ``connected_minimizer``: some conductance minimizer induces a
  connected subgraph (all minimizers are enumerated, so n <= 16,
  ``MINIMIZER_LIMIT``)
- ``fragment_bounds``: with S a minimizing attack set and C_1..C_q+1 the
  surviving components, d|S| bounds the total component boundary, and
  the attack ratio denominator is bounded by the survivor count
- ``value_ranges``: 0 < tau <= 1 (with a nonempty surviving component at
  the witness) and 0 < phi <= 1, on any connected graph

The conditional hypothesis is strict on purpose.  On the boundary
phi == 1/d^2 the sharp bound tau <= d phi can genuinely fail: there is
an 18-vertex cubic graph with phi exactly 1/9 and tau = 3/8 > 1/3, found
by exhaustive search and confirmed against an independent naive
enumeration.  Strictly inside the region no violation is known: the
theorem corpus has none, and its 45,799 exhaustive graphs on n <= 8 are
labeled copies of just 32 isomorphism classes (OEIS A005177), beside 52
family members and 100 random samples.  So the strict form is what gets
checked; boundary graphs are reported as skipped for the conditional
checks and remain covered by the unconditional bound.

The pure fraction facts used by the bound proofs (the mediant sandwich
and the ratio-series lower bound) live here too, as tested utilities.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParameter, NotRegular, TooLarge, VattolError
from .graph import (
    Graph,
    _component,
    cut_size,
    full_mask,
    is_connected,
    regularity,
    vertices_from_mask,
)
from .metrics import (
    HARD_CAP,
    MINIMIZER_LIMIT,
    ExactMetrics,
    MetricResult,
    exact_batch,
    vat_witness_components,
)
from .spectral import SpectralResult, _lambda2_batch, lambda2

#: Absolute tolerance of every comparison with a spectral side.
SPECTRAL_TOL = 1e-9

#: Graphs per unit of suite work: one :func:`exact_batch` prefill, and
#: one pool task when ``jobs > 1``.
SUITE_BATCH = 32

@dataclass
class TheoremReport:
    """Outcome of one inequality check on one graph.

    ``lhs <= rhs`` is the checked direction.  Fraction sides compare
    exactly; when either side is a float (a spectral quantity) the
    comparison uses an absolute tolerance.  ``skipped`` reports record a
    precondition that was not met instead of a verdict.  The reports of
    one graph share their ``witnesses`` dicts and vertex lists, so treat
    them as read-only.
    """

    theorem: str
    graph_id: str
    n: int
    m: int
    d: int | None
    lhs: Fraction | float | None
    rhs: Fraction | float | None
    holds: bool | None
    strict_holds: bool | None
    slack: float | None
    witnesses: dict[str, list[int]] | None = None
    skipped: bool = False
    skip_reason: str = ""

    @property
    def equality(self) -> bool:
        """True when the inequality held but only just (lhs == rhs)."""
        return self.holds is True and self.strict_holds is False


class _Side(NamedTuple):
    """One side of a check with its float, computed once."""

    value: Fraction | float
    real: float


def _side(value: Fraction) -> _Side:
    return _Side(value, float(value))


class _Verdict(NamedTuple):
    """The ``lhs`` to ``slack`` fields of a :class:`TheoremReport`."""

    lhs: Fraction | float | None
    rhs: Fraction | float | None
    holds: bool | None
    strict_holds: bool | None
    slack: float | None


def _compare(lhs: _Side, rhs: _Side, spectral: bool) -> tuple[bool, bool]:
    if spectral:
        l, r = lhs.real, rhs.real
        return l <= r + SPECTRAL_TOL, l < r - SPECTRAL_TOL
    return lhs.value <= rhs.value, lhs.value < rhs.value


def _verdict(lhs: _Side, rhs: _Side, spectral: bool) -> _Verdict:
    holds, strict = _compare(lhs, rhs, spectral)
    return _Verdict(lhs.value, rhs.value, holds, strict, rhs.real - lhs.real)


@lru_cache(maxsize=4096)
def _derived(
    d: int | None, tau_num: int, tau_den: int, phi_num: int, phi_den: int
) -> Mapping[str, _Side | _Verdict | bool]:
    """What (d, tau, phi) fix, by theorem: the verdict of an exact check,
    the rational side of a check against the gap, and ``"hypothesis"``,
    phi < 1/d^2.  Only the value ranges when ``d`` is None.  Plain ints
    are cheap to hash as a key; a theorem sweep repeats few triples."""
    tau, phi = Fraction(tau_num, tau_den), Fraction(phi_num, phi_den)
    tau_side, phi_side, one = _side(tau), _side(phi), _side(Fraction(1))
    out: dict[str, _Side | _Verdict | bool] = {
        "vat_range": _verdict(tau_side, one, False),
        "conductance_range": _verdict(phi_side, one, False),
    }
    if d is not None:
        out.update(
            hypothesis=phi < Fraction(1, d * d),
            cheeger_lower=_side(phi * phi / 2),
            cheeger_upper=_side(2 * phi),
            vat_upper_conditional=_verdict(tau_side, _side(d * phi), False),
            vat_upper_unconditional=_verdict(tau_side, _side(d * d * phi), False),
            vat_lower=_verdict(phi_side, _side(d * tau), False),
            spectral_vat_lower=_side(tau * tau / (2 * d**4)),
            spectral_vat_upper=_side(2 * d * tau),
            spectral_vat_lower_conditional=_side(tau * tau / (2 * d**2)),
        )
    return MappingProxyType(out)  # shared by every caller, so read-only


@lru_cache(maxsize=4096)
def _int_verdict(lhs: int, rhs: int) -> _Verdict:
    """The exact verdict of two integer sides; the theorem sweep makes
    91,902 calls with 61 distinct pairs."""
    return _verdict(_side(Fraction(lhs)), _side(Fraction(rhs)), False)


_NO_VERDICT = _Verdict(None, None, None, None, None)


def _report(
    theorem: str,
    ctx: "MetricCache",
    verdict: _Verdict = _NO_VERDICT,
    witnesses: dict[str, list[int]] | None = None,
    **skip,
) -> TheoremReport:
    return TheoremReport(
        theorem, ctx.graph_id, ctx.g.n, ctx.g.m, ctx.d, *verdict, witnesses, **skip
    )


def _skipped(theorem: str, ctx: "MetricCache", reason: str) -> TheoremReport:
    """A report recording that ``theorem`` was not checked, and why."""
    return _report(theorem, ctx, skipped=True, skip_reason=reason)


class MetricCache:
    """Lazily computed per-graph quantities shared across checks.

    Every ``check_*`` function takes one cache and reads the graph and
    its id from it.  Computing tau, phi and lambda2 once per graph instead
    of once per check keeps large suite runs within their time budget.
    tau, phi and the conductance minimizers all come from ``exact``, the
    graph's :func:`exact_batch` result, and lambda2 from ``spectral``:
    each set in place by the suite's batch prefill, or else computed on
    first use, which raises what :func:`vat_exact` or :func:`lambda2`
    would.  ``sides`` come from a bounded memo of (d, tau, phi), and the
    ``{"S": ...}`` witness dicts of tau and phi are built once.
    """

    def __init__(self, g: Graph, graph_id: str = "graph") -> None:
        self.g = g
        self.graph_id = graph_id
        self.d = regularity(g)

    @cached_property
    def exact(self) -> ExactMetrics:
        return exact_batch([self.g])[0]

    @property
    def tau(self) -> MetricResult:
        return self.exact.tau

    @property
    def phi(self) -> MetricResult:
        return self.exact.phi

    @property
    def minimizers(self) -> Sequence[int]:
        """Every conductance minimizer, sorted by encoding."""
        return self.exact.minimizers

    @cached_property
    def spectral(self) -> SpectralResult:
        return lambda2(self.g)

    @cached_property
    def sides(self) -> Mapping[str, _Side | _Verdict | bool]:
        tau, phi = self.tau.value, self.phi.value
        key = (tau.numerator, tau.denominator, phi.numerator, phi.denominator)
        return _derived(self.d, *key)

    @cached_property
    def tau_witness(self) -> dict[str, list[int]]:
        return {"S": self.tau.witness_vertices}

    @cached_property
    def phi_witness(self) -> dict[str, list[int]]:
        return {"S": self.phi.witness_vertices}

    def require_regular(self) -> int:
        if self.d is None:
            raise NotRegular(f"{self.graph_id}: the check needs a regular graph")
        return self.d

    def hypothesis_small_conductance(self) -> bool:
        """Exact test of the conditional-bound hypothesis phi < 1/d^2.

        Strict: boundary graphs with phi exactly 1/d^2 can violate the
        sharp conditional bound (see the module docstring).
        """
        self.require_regular()
        return self.sides["hypothesis"]


_HYPOTHESIS_NOT_MET = "hypothesis not met: conductance not strictly below 1/d^2"


def _exact(theorem: str, ctx: MetricCache, witnesses) -> TheoremReport:
    """The report of an exact check, whose verdict (d, tau, phi) fix."""
    return _report(theorem, ctx, ctx.sides[theorem], witnesses)


def _against_gap(
    theorem: str, ctx: MetricCache, witnesses, below: bool
) -> TheoremReport:
    """The report of ``side <= gap`` if ``below``, else ``gap <= side``."""
    side, gap = ctx.sides[theorem], _Side(ctx.spectral.gap, ctx.spectral.gap)
    verdict = _verdict(side, gap, True) if below else _verdict(gap, side, True)
    return _report(theorem, ctx, verdict, witnesses)


def check_cheeger(ctx: MetricCache) -> list[TheoremReport]:
    """Cheeger sandwich: phi^2/2 <= gap <= 2 phi on a regular graph."""
    ctx.require_regular()
    wit = ctx.phi_witness
    return [
        _against_gap("cheeger_lower", ctx, wit, below=True),
        _against_gap("cheeger_upper", ctx, wit, below=False),
    ]


def check_vat_upper(ctx: MetricCache) -> list[TheoremReport]:
    """Attack tolerance bounded above by conductance on a regular graph.

    The sharp form tau <= d phi applies when phi < 1/d^2 (otherwise the
    conditional report is emitted as skipped); the weaker tau <= d^2 phi
    is checked unconditionally.
    """
    ctx.require_regular()
    wit = ctx.tau_witness
    if ctx.hypothesis_small_conductance():
        conditional = _exact("vat_upper_conditional", ctx, wit)
    else:
        conditional = _skipped("vat_upper_conditional", ctx, _HYPOTHESIS_NOT_MET)
    return [conditional, _exact("vat_upper_unconditional", ctx, wit)]


def check_vat_lower(ctx: MetricCache) -> list[TheoremReport]:
    """Conductance bounded by d times the attack tolerance; exact."""
    ctx.require_regular()
    return [_exact("vat_lower", ctx, ctx.tau_witness)]


def check_spectral_vat(ctx: MetricCache) -> list[TheoremReport]:
    """Spectral gap sandwiched by attack tolerance on a regular graph.

    General form: tau^2/(2 d^4) <= gap <= 2 d tau.  When phi < 1/d^2
    the sharper lower bound tau^2/(2 d^2) <= gap is checked as well,
    otherwise that report is emitted as skipped.
    """
    ctx.require_regular()
    wit = ctx.tau_witness
    conditional = "spectral_vat_lower_conditional"
    return [
        _against_gap("spectral_vat_lower", ctx, wit, below=True),
        _against_gap("spectral_vat_upper", ctx, wit, below=False),
        _against_gap(conditional, ctx, wit, below=True)
        if ctx.hypothesis_small_conductance()
        else _skipped(conditional, ctx, _HYPOTHESIS_NOT_MET),
    ]


def check_connected_minimizer(ctx: MetricCache) -> list[TheoremReport]:
    """Some conductance minimizer induces a connected subgraph.

    Enumerates every minimizing set (so the graph must be small enough,
    ``n <= MINIMIZER_LIMIT``) and records the first connected one.
    """
    ctx.require_regular()
    g = ctx.g
    if g.n > MINIMIZER_LIMIT:
        raise TooLarge(
            f"{ctx.graph_id}: all-minimizers enumeration capped at n={MINIMIZER_LIMIT}"
        )
    connected_witness = next(
        (
            s
            for s in map(int, ctx.minimizers)
            if _component(g.adj_masks, s & -s, s) == s
        ),
        None,
    )
    holds = connected_witness is not None
    witnesses = {"S": vertices_from_mask(connected_witness)} if holds else None
    verdict = _NO_VERDICT._replace(holds=holds)
    return [_report("connected_minimizer", ctx, verdict, witnesses)]


def check_fragment_bounds(ctx: MetricCache) -> list[TheoremReport]:
    """Structural facts about a minimizing attack set, exact.

    With S the attack witness, T the largest surviving component and
    C_1..C_q the other components: every edge leaving a surviving
    component must end in S, so d|S| bounds the summed component
    boundaries; and the attack denominator |V-S-T| + 1 is bounded by the
    survivor count, the components being a partition of V-S.
    """
    d = ctx.require_regular()
    g = ctx.g
    s_mask = ctx.tau.witness
    t_mask, others = vat_witness_components(g, ctx.tau)
    pieces = [t_mask] + others
    cut_total = sum(cut_size(g, c) for c in pieces)
    survivors = sum(c.bit_count() for c in pieces)
    s_size = s_mask.bit_count()
    outside = g.n - s_size - t_mask.bit_count()
    wit = {"S": ctx.tau_witness["S"], "T": vertices_from_mask(t_mask)}
    return [
        _report("fragment_cut_bound", ctx, _int_verdict(cut_total, d * s_size), wit),
        _report("fragment_size_bound", ctx, _int_verdict(outside + 1, survivors), wit),
    ]


def check_value_ranges(ctx: MetricCache) -> list[TheoremReport]:
    """Both metrics land in (0, 1] on any connected non-trivial graph.

    The attack-tolerance report additionally requires that the witness
    leaves a nonempty largest component (removing everything can never
    be optimal).
    """
    survivor = full_mask(ctx.g.n) & ~ctx.tau.witness
    tau_report = _exact("vat_range", ctx, ctx.tau_witness)
    # A Fraction's denominator is positive, so its sign is its numerator's.
    if ctx.tau.value.numerator <= 0 or survivor == 0:
        tau_report.holds = False
    phi_report = _exact("conductance_range", ctx, ctx.phi_witness)
    if ctx.phi.value.numerator <= 0:
        phi_report.holds = False
    return [tau_report, phi_report]


#: Per check group, in report order: its function, its theorems in
#: report order, and whether it reads lambda2.
_CHECKS = {
    "cheeger": (check_cheeger, ("cheeger_lower", "cheeger_upper"), True),
    "vat_upper": (
        check_vat_upper, ("vat_upper_conditional", "vat_upper_unconditional"), False
    ),
    "vat_lower": (check_vat_lower, ("vat_lower",), False),
    "spectral_vat": (
        check_spectral_vat,
        ("spectral_vat_lower", "spectral_vat_upper", "spectral_vat_lower_conditional"),
        True,
    ),
    "connected_minimizer": (check_connected_minimizer, ("connected_minimizer",), False),
    "fragment_bounds": (
        check_fragment_bounds, ("fragment_cut_bound", "fragment_size_bound"), False
    ),
    "value_ranges": (check_value_ranges, ("vat_range", "conductance_range"), False),
}


class _Selection(tuple):
    """Check group names as :func:`normalize_checks` resolved them."""


CHECK_GROUPS = _Selection(_CHECKS)
GROUP_THEOREMS = {group: theorems for group, (_, theorems, _) in _CHECKS.items()}
ALL_THEOREMS = tuple(t for theorems in GROUP_THEOREMS.values() for t in theorems)

#: The bounds the paper claims strictly; a suite summary lists each of
#: their equality cases by graph id.
STRICT_CLAIMS = ("vat_lower", "vat_upper_unconditional")


class SuiteSummary:
    """The outcome of a suite run, counted as its reports stream past."""

    def __init__(self) -> None:
        self.graphs: set[str] = set()
        self.total = self.holds = self.strict = self.failed = self.skipped = 0
        self.equality_counts: dict[str, int] = {}
        self.strict_claim_equalities: dict[str, list[str]] = {
            theorem: [] for theorem in STRICT_CLAIMS
        }

    def count(self, reports: Iterable[TheoremReport]) -> Iterator[TheoremReport]:
        """Yield each report unchanged, after counting it."""
        equalities, cases = self.equality_counts, self.strict_claim_equalities
        for r in reports:
            self.graphs.add(r.graph_id)
            self.total += 1
            if r.skipped:
                self.skipped += 1
            else:
                if r.holds:
                    self.holds += 1
                else:
                    self.failed += 1
                if r.strict_holds:
                    self.strict += 1
                if r.equality:
                    equalities[r.theorem] = equalities.get(r.theorem, 0) + 1
                    if r.theorem in cases:
                        cases[r.theorem].append(r.graph_id)
            yield r

    def lines(self) -> str:
        """The summary that ``vattol verify`` prints to stderr: the counts,
        then the equalities per theorem and the equality cases of each
        strict claim, each line ending in a newline."""
        lines = [
            f"graphs={len(self.graphs)} reports={self.total} holds={self.holds} "
            f"strict={self.strict} failed={self.failed} skipped={self.skipped}"
        ]
        if self.equality_counts:
            parts = " ".join(f"{t}={c}" for t, c in sorted(self.equality_counts.items()))
            lines.append(f"equalities by theorem: {parts}")
        lines += [
            f"equality cases for {t}: {', '.join(ids)}"
            for t, ids in self.strict_claim_equalities.items()
            if ids
        ]
        return "".join(line + "\n" for line in lines)


def normalize_checks(checks: str | Sequence[str]) -> tuple[str, ...]:
    """Resolve a check selection ('all', a name, or a list) to group names,
    each once, at its first position.

    A selection it resolved before is returned as it is, so the suite
    resolves once per run, not once per graph.
    """
    if isinstance(checks, _Selection):
        return checks
    if isinstance(checks, str):
        checks = [c.strip() for c in checks.split(",") if c.strip()]
    checks = list(dict.fromkeys(checks))
    if checks == ["all"]:
        return CHECK_GROUPS
    known = f"known: all, {', '.join(CHECK_GROUPS)}"
    if not checks:
        raise BadParameter(f"no check selected; {known}")
    for c in checks:
        if c not in _CHECKS:
            raise BadParameter(f"unknown check {c!r}; {known}")
    return _Selection(checks)


def evaluate_graph(
    cache: MetricCache, checks: str | Sequence[str] = "all"
) -> list[TheoremReport]:
    """Run the selected checks on one graph's cache, mapping precondition
    violations to skipped reports instead of raising."""
    reports: list[TheoremReport] = []
    for group in normalize_checks(checks):
        run, theorems, _ = _CHECKS[group]
        try:
            reports.extend(run(cache))
        except VattolError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            reports.extend(_skipped(t, cache, reason) for t in theorems)
    return reports


def _prefill(caches: Sequence[MetricCache], spectral: bool = True) -> None:
    """Set ``exact`` and, if ``spectral``, ``spectral`` of a batch's caches.

    Both take the connected graphs with ``2 <= n <= HARD_CAP`` (each
    tested once), one call per (n, d): :func:`exact_batch` all of them,
    the stacked ``eigh`` the regular ones if ``spectral``, as no check
    reads lambda2 of any other.  A cache left unset, or whose eigensolve
    failed its residual check, raises its graph's error on first use.
    """
    groups: dict[tuple[int, int | None], list[MetricCache]] = {}
    for cache in caches:
        g = cache.g
        if 2 <= g.n <= HARD_CAP and is_connected(g):
            groups.setdefault((g.n, cache.d), []).append(cache)
    for (_, d), group in groups.items():
        graphs = [cache.g for cache in group]
        for cache, exact in zip(group, exact_batch(graphs)):
            cache.exact = exact
        if spectral and d is not None:
            for cache, result in zip(group, _lambda2_batch(graphs)):
                if result is not None:
                    cache.spectral = result


def _evaluate_batch(
    checks: tuple[str, ...], items: Sequence[tuple[str, Graph]]
) -> list[TheoremReport]:
    """The reports of one batch, in order, after one :func:`_prefill`."""
    caches = [MetricCache(g, graph_id) for graph_id, g in items]
    _prefill(caches, any(_CHECKS[c][2] for c in checks))
    return [report for cache in caches for report in evaluate_graph(cache, checks)]


def clamp_jobs(jobs: int) -> int:
    """The worker count ``jobs`` limited to ``[1, os.cpu_count()]``."""
    return max(1, min(jobs, os.cpu_count() or 1))


def iter_suite(
    graphs: Iterable[tuple[str, Graph]],
    checks: str | Sequence[str] = "all",
    jobs: int = 1,
) -> Iterator[TheoremReport]:
    """Stream reports for every graph, in input order.

    Graphs are taken in batches of :data:`SUITE_BATCH`, whose tau, phi
    and conductance minimizers come from :func:`exact_batch`.  With
    ``jobs > 1`` (at most the CPU count) a process pool checks the
    batches; the order of the emitted reports is still exactly the input
    order, so the output is byte-for-byte independent of the worker count.
    """
    evaluate = partial(_evaluate_batch, normalize_checks(checks))
    it = iter(graphs)
    batches = iter(lambda: list(islice(it, SUITE_BATCH)), [])
    jobs = clamp_jobs(jobs)
    with multiprocessing.Pool(jobs) if jobs > 1 else nullcontext() as pool:
        for reports in (map if pool is None else pool.imap)(evaluate, batches):
            yield from reports


@dataclass
class SuiteResult:
    """A materialized suite run: every report, and their :class:`SuiteSummary`."""

    reports: list[TheoremReport]
    summary: SuiteSummary

    @property
    def failures(self) -> list[TheoremReport]:
        return [r for r in self.reports if not r.skipped and r.holds is not True]

    @property
    def equalities(self) -> list[TheoremReport]:
        """Every report where the bound held with exact equality."""
        return [r for r in self.reports if r.equality]

    @property
    def all_hold(self) -> bool:
        return not self.summary.failed


def run_suite(
    graphs: Iterable[tuple[str, Graph]],
    checks: str | Sequence[str] = "all",
    jobs: int = 1,
) -> SuiteResult:
    """Run the checks over a corpus and collect every report."""
    summary = SuiteSummary()
    reports = list(summary.count(iter_suite(graphs, checks=checks, jobs=jobs)))
    return SuiteResult(reports, summary)


# ---------------------------------------------------------------------------
# Fraction facts used by the bound proofs, kept as tested utilities.


def _positive_fraction(x, name: str) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise BadParameter(f"{name} must be positive, got {x}")
    return f


def mediant_between(a, x, b, y) -> Fraction:
    """The mediant (a+b)/(x+y) of the fractions a/x and b/y.

    For positive inputs with a/x < b/y the mediant lies strictly between
    the two; that sandwich is what the property tests pin down.
    """
    a, x, b, y = (
        _positive_fraction(a, "a"),
        _positive_fraction(x, "x"),
        _positive_fraction(b, "b"),
        _positive_fraction(y, "y"),
    )
    return (a + b) / (x + y)


def series_lower_bound(pairs: Sequence[tuple], c) -> bool:
    """Exact test of c <= (sum of numerators) / (sum of denominators).

    Whenever c is at most every individual ratio a_i/b_i, this is
    guaranteed true (summing preserves a common lower bound); the
    property tests exercise exactly that implication.
    """
    if not pairs:
        raise BadParameter("need at least one (numerator, denominator) pair")
    nums = []
    dens = []
    for a, b in pairs:
        nums.append(_positive_fraction(a, "numerator"))
        dens.append(_positive_fraction(b, "denominator"))
    return Fraction(c) <= sum(nums) / sum(dens)
