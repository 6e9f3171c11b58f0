"""Mechanical checking of the resilience inequalities on supplied graphs.

Each check compares the two sides of one inequality and emits a
structured :class:`TheoremReport`.  One rule decides every verdict:
Fraction sides compare exactly, and a float side is the spectral gap,
compared with the fixed absolute tolerance :data:`SPECTRAL_TOL`.
Inequalities are judged in non-strict form for ``holds``; strictness is
recorded separately, because some of the bounds are achieved with
equality on boundary graphs (the single edge K2 most prominently) and
an equality must be auditable rather than a failure.

:func:`evaluate_graph` runs check groups on one :class:`MetricCache`,
e.g. ``evaluate_graph(MetricCache(g), "vat_upper")``; an unmet
precondition gives skipped reports whose reason starts with the error
type, e.g. ``NotRegular: ...``.  The cache carries the graph, its id and
its degree, and computes tau and phi (one :func:`exact_batch` result,
so n <= 24) and lambda2 at most once per graph.  One table,
``_CHECKS``, names each check group in report order with its key
function, its row builder, its theorems and whether it reads lambda2;
:data:`CHECK_GROUPS`, :data:`GROUP_THEOREMS` and :data:`ALL_THEOREMS`
derive from it.  Each theorem of the four groups on (d, tau, phi)
carries its inequality there as code, (d, tau, phi [, gap]) -> (lhs,
rhs), and whether it is conditional on phi < 1/d^2.
A key function reduces a cache to a verdict key, the inputs that decide
the group's reports, and the graph's witness masks; a group that raises
on an unmet precondition is keyed ``None``, its reports taking their
skip reason from the error.  A bounded row table maps each (group, key)
to its rows, which the row builder makes from (theorems, *key): theorem,
verdict, CSV and JSON text and summary counts.
:func:`evaluate_graph`, :func:`iter_suite` and :func:`run_suite` build
reports from those rows; :func:`write_reports`, which writes ``vattol
verify``'s CSV or JSON, joins their text with each graph's prefix and
witness text, and builds no report.

The groups and the inequalities they cover, for a connected d-regular
graph with attack tolerance tau, conductance phi and spectral gap
``gap = 1 - lambda2``:

- ``cheeger``: phi^2 / 2 <= gap and gap <= 2 phi (the classical Cheeger
  sandwich for the normalized adjacency spectrum)
- ``vat_upper``: tau <= d phi whenever phi < 1/d^2, and the
  unconditional weakening tau <= d^2 phi
- ``vat_lower``: phi <= d tau (so tau and phi agree up to the factor d)
- ``spectral_vat``: tau^2 / (2 d^4) <= gap <= 2 d tau, and the sharper
  conditional lower bound tau^2 / (2 d^2) <= gap when phi < 1/d^2
- ``connected_minimizer``: some conductance minimizer induces a
  connected subgraph.  The check floods phi's witness, the lowest-encoding
  minimizer, which is always connected: cut and volume add over
  components, so each component of a disconnected minimizer is itself a
  minimizer, with a smaller encoding.  Its skip above n = 16
  (``MINIMIZER_LIMIT``) stays only as report contract: lifting it would
  change 15 rows of the theorem CSV and the summary the acceptance test pins
- ``fragment_bounds``: with S a minimizing attack set and T the largest
  surviving component, d|S| bounds the total boundary of the surviving
  components, since every edge leaving one ends in S, and |V-S-T| + 1 is
  at most the survivor count.  The components share no edge and
  partition V-S, so their boundaries sum to cut(S) and their sizes to
  n - |S|.  As cut(S) <= vol(S) = d|S| for any S, the first bound cannot
  fail, and its equalities in the summary are no finding
- ``value_ranges``: 0 < tau <= 1 and 0 < phi <= 1, on any connected
  graph; the tau report also needs a nonempty surviving component at
  the witness, as removing every vertex is never optimal

The suite takes graphs in batches of :data:`SUITE_BATCH`, each evaluated
by ``_evaluate_batch``, in process or as one pool task: ``_prefill``
fills the batch's caches per n, by one :func:`exact_batch` pass and
one stacked ``eigh`` of the regular graphs, and the batch returns each
graph's reports, or its CSV or JSON text, with its summary counts, so a
worker of ``vattol verify`` ships text, not reports.  One
:class:`SuiteSummary` sums the batches of a run.

The conditional hypothesis is strict on purpose.  On the boundary
phi == 1/d^2 the sharp bound tau <= d phi can genuinely fail: there is
an 18-vertex cubic graph with phi exactly 1/9 and tau = 3/8 > 1/3, found
by exhaustive search and confirmed against an independent naive
enumeration.  Strictly inside the region the theorem corpus tests little:
at seed 42, ``vat_upper_conditional`` and ``spectral_vat_lower_conditional``
are each checked on 7 graphs, all cycles (d = 2, n = 10..16), and skipped
on the other 45,944; no graph with d >= 3 meets the hypothesis there.  The
strict form is what gets checked; boundary graphs are reported as skipped
for the conditional checks and remain covered by the unconditional bound.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain, islice
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import BadParameter, NotRegular, TooLarge, VattolError
from .graph import (
    Graph,
    _component,
    cut_size,
    full_mask,
    is_connected,
    largest_component,
    regularity,
    vertices_from_mask,
)
from .metrics import HARD_CAP, ExactMetrics, exact_batch
from .spectral import SpectralResult, _lambda2_batch, lambda2

#: Absolute tolerance of every comparison with a spectral side.
SPECTRAL_TOL = 1e-9

#: Graphs per unit of suite work: one :func:`_prefill` and, when
#: ``jobs > 1``, one pool task.
SUITE_BATCH = 256

#: Entries of the row table, and of each memo behind it.
_TABLE_SIZE = 4096


@dataclass
class TheoremReport:
    """Outcome of one inequality check on one graph.

    ``lhs <= rhs`` is the checked direction.  Fraction sides compare
    exactly; a float side is the spectral gap, and the comparison then
    allows :data:`SPECTRAL_TOL`.  ``skipped`` reports record a
    precondition that was not met instead of a verdict.  Each report has
    its own ``witnesses`` dict, built from the graph's witness masks.
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


def _verdict(lhs: Fraction | float, rhs: Fraction | float) -> tuple:
    """The ``lhs`` to ``slack`` fields of ``lhs <= rhs``, exact on Fractions;
    a float side is the spectral gap, so the comparison then allows
    :data:`SPECTRAL_TOL`."""
    l, r = float(lhs), float(rhs)
    if isinstance(lhs, float) or isinstance(rhs, float):
        holds, strict = l <= r + SPECTRAL_TOL, l < r - SPECTRAL_TOL
    else:
        holds, strict = lhs <= rhs, lhs < rhs
    return lhs, rhs, holds, strict, r - l


# ---------------------------------------------------------------------------
# CSV text of report fields.


def _float(value: Fraction) -> float:
    """``float(value)``; a value beyond the float range is a clean error."""
    try:
        return float(value)
    except OverflowError:
        raise VattolError("a value is beyond the float range of the decimal field") from None


def _real_str(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def _side_csv(value: Fraction | float | None) -> tuple[str, str, str]:
    if value is None:
        return "", "", ""
    if isinstance(value, Fraction):
        return str(value.numerator), str(value.denominator), _real_str(_float(value))
    return "", "", _real_str(value)


def _bool_str(b: bool | None) -> str:
    return "" if b is None else ("true" if b else "false")


def _witness_str(witnesses: dict[str, list[int]] | None) -> str:
    if not witnesses:
        return ""
    return ";".join(
        f"{name}=" + " ".join(str(v) for v in ids)
        for name, ids in witnesses.items()
    )


#: The columns of ``vattol verify``'s CSV, one row per report.
VERIFY_CSV_COLUMNS = (
    "graph_id",
    "n",
    "m",
    "d",
    "theorem",
    "lhs_num",
    "lhs_den",
    "lhs_real",
    "rhs_num",
    "rhs_den",
    "rhs_real",
    "holds",
    "strict_holds",
    "slack",
    "witness",
)


def report_to_csv_row(r: TheoremReport) -> list[str]:
    """The :data:`VERIFY_CSV_COLUMNS` fields of one report."""
    return [
        r.graph_id,
        str(r.n),
        str(r.m),
        "" if r.d is None else str(r.d),
        r.theorem,
        *_side_csv(r.lhs),
        *_side_csv(r.rhs),
        _bool_str(r.holds),
        _bool_str(r.strict_holds),
        _real_str(r.slack),
        _witness_str(r.witnesses),
    ]


class _LineWriter:
    """A file whose ``write`` returns the text it is given, so that the
    ``writerow`` of a ``csv.writer`` over it returns the row's text."""

    def write(self, text: str) -> str:
        return text


#: The ``csv`` module's text of one row, line end included; every CSV
#: line of the CLI is written with it.
_csv_line = csv.writer(_LineWriter(), lineterminator="\n").writerow


# ---------------------------------------------------------------------------
# JSON text of report fields.


def _real(x: float) -> float:
    """Decimal convenience value: 12 significant digits."""
    return float(f"{x:.12g}")


def _side_json(value: Fraction | float | None):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return {
            "num": value.numerator,
            "den": value.denominator,
            "real": _real(_float(value)),
        }
    return {"real": _real(value)}


def report_to_json(r: TheoremReport) -> dict:
    return {
        "graph_id": r.graph_id,
        "n": r.n,
        "m": r.m,
        "d": r.d,
        "theorem": r.theorem,
        "lhs": _side_json(r.lhs),
        "rhs": _side_json(r.rhs),
        "holds": r.holds,
        "strict_holds": r.strict_holds,
        "slack": None if r.slack is None else _real(r.slack),
        "witness": r.witnesses,
        "skipped": r.skipped,
        "skip_reason": r.skip_reason,
    }


#: The JSON text of a value; ``vattol verify`` writes every record with it.
_json = json.JSONEncoder(separators=(", ", ": ")).encode

#: A field that the text of a row's report is split at, to be filled per
#: graph: a private-use character, which the ``csv`` module writes as it
#: is and JSON as ``"\ue000"``.  No field of a row holds it.
_HOLE = "\ue000"
_HOLE_JSON = _json(_HOLE)
_GRAPH_HOLES = (_HOLE,) * 4  # graph_id, n, m and d


def _witness_dict(masks: tuple[int, ...]) -> dict[str, list[int]]:
    """The set ``S`` of a witness, then the largest survivor ``T`` if any."""
    return dict(zip("ST", map(vertices_from_mask, masks)))


@lru_cache(maxsize=_TABLE_SIZE)
def _witness_line(masks: tuple[int, ...]) -> str:
    """The last CSV field of a row with this witness, line end included."""
    return _csv_line([_witness_str(_witness_dict(masks))])


@lru_cache(maxsize=_TABLE_SIZE)
def _witness_json(masks: tuple[int, ...]) -> str:
    """The ``witness`` field of a record with this witness."""
    return _json(_witness_dict(masks))


# ---------------------------------------------------------------------------
# The row table.


class _Row(NamedTuple):
    """A report less its graph; ``witness`` indexes its group's witnesses."""

    theorem: str
    lhs: Fraction | float | None = None
    rhs: Fraction | float | None = None
    holds: bool | None = None
    strict_holds: bool | None = None
    slack: float | None = None
    skip_reason: str = ""
    witness: int | None = 0


def _report(row: _Row, graph: tuple, witnesses, reason: str = "") -> TheoremReport:
    """``row`` as a report on ``graph`` (id, n, m, d), skipped for ``reason`` if given."""
    reason = reason or row.skip_reason
    verdict = row.lhs, row.rhs, row.holds, row.strict_holds, row.slack
    return TheoremReport(row.theorem, *graph, *verdict, witnesses, bool(reason), reason)


class _Theorem(NamedTuple):
    """A theorem of a check group.  ``sides``: its inequality lhs <= rhs,
    (d, tau, phi[, gap]) -> (lhs, rhs), the gap given if its group reads
    lambda2; None where the group's row builder states it.
    ``conditional``: its row is skipped unless phi < 1/d^2."""

    name: str
    sides: Callable[..., tuple[Fraction | float, Fraction | float]] | None = None
    conditional: bool = False


@dataclass(frozen=True, eq=False)  # hashed by identity, so cheap to count
class _Entry:
    """The rows of one (group, key).  ``tally``: what they add to a
    :class:`SuiteSummary` (reports, holds, strict, failed, skipped, and
    the theorems of their equalities), with ``claims`` the strict claims
    among those.  ``lines``: per row, its CSV text between the graph's
    prefix and a witness line, and that line's index (-1: none)."""

    rows: tuple[_Row, ...]
    tally: tuple[int, int, int, int, int, tuple[str, ...]]
    claims: tuple[str, ...]
    lines: tuple[tuple[str, int], ...]

    @cached_property  # built by the first JSON render, so CSV runs hold none
    def records(self) -> list[tuple[str, int, list[str]]]:
        """Per row, its JSON text between the graph's prefix and its
        witness, the witness's index as in ``lines``, and the text after
        the witness, split at the skip reason if that is a hole."""
        reports = (_report(r, _GRAPH_HOLES, _HOLE) for r in self.rows)
        texts = [_json(report_to_json(r)).split(_HOLE_JSON) for r in reports]
        return [(t[4], i, t[5:]) for t, (_, i) in zip(texts, self.lines)]


@lru_cache(maxsize=_TABLE_SIZE)
def _entry(group: str, key: tuple | None) -> _Entry:
    """The entry of ``group`` at ``key``.  Key ``None``: an unmet
    precondition, whose rows are skipped whatever the error; their skip
    reason is a hole that the error fills."""
    _, build, theorems, _ = _CHECKS[group]
    if key is None:
        rows = tuple(_Row(t.name, skip_reason=_HOLE, witness=None) for t in theorems)
    else:
        rows = build(theorems, *key)
    checked = [r for r in rows if not r.skip_reason]
    equalities = tuple(r.theorem for r in rows if r.holds is True and r.strict_holds is False)
    holds = sum(1 for r in checked if r.holds)
    strict = sum(1 for r in checked if r.strict_holds)
    tally = (len(rows), holds, strict, len(checked) - holds, len(rows) - len(checked), equalities)
    texts = (_csv_line(report_to_csv_row(_report(r, _GRAPH_HOLES, None))) for r in rows)
    ends = (-1 if r.witness is None else r.witness for r in rows)
    lines = tuple((t.split(_HOLE)[4][:-1], i) for t, i in zip(texts, ends))
    return _Entry(rows, tally, tuple(t for t in equalities if t in STRICT_CLAIMS), lines)


class MetricCache:
    """Per-graph quantities shared across checks, each computed once.

    ``exact`` is the graph's :func:`exact_batch` record (tau, phi and
    their witnesses, in integers) and ``spectral`` its lambda2: each set
    in place by the suite's batch prefill, or else computed on first use,
    which raises what :func:`vat_exact` or :func:`lambda2` would.
    ``values`` is (d, tau_num, tau_den, phi_num, phi_den).
    """

    def __init__(self, g: Graph, graph_id: str = "graph") -> None:
        self.g = g
        self.graph_id = graph_id
        self.d = regularity(g)

    @cached_property
    def exact(self) -> ExactMetrics:
        return exact_batch([self.g])[0]

    @cached_property
    def spectral(self) -> SpectralResult:
        return lambda2(self.g)

    @cached_property
    def values(self) -> tuple[int | None, int, int, int, int]:
        exact = self.exact
        return (self.d, exact.tau_num, exact.tau_den, exact.phi_num, exact.phi_den)

    def require_regular(self) -> int:
        if self.d is None:
            raise NotRegular(f"{self.graph_id}: the check needs a regular graph")
        return self.d


_HYPOTHESIS_NOT_MET = "hypothesis not met: conductance not strictly below 1/d^2"


def _triple_key(witness: str, spectral: bool, ctx: MetricCache):
    """(d, tau, phi), with the gap if ``spectral``; the witness named ``witness``.
    A zero gap is keyed by its repr, as -0.0 == 0.0 but they print apart."""
    ctx.require_regular()
    key = ctx.values
    if spectral:
        gap = ctx.spectral.gap
        key = (*key, gap or repr(float(gap)))
    return key, ((getattr(ctx.exact, witness),),)


def _triple_rows(theorems, d, tau_num, tau_den, phi_num, phi_den, *gap) -> tuple[_Row, ...]:
    """The verdict of each theorem on its sides at (d, tau, phi), with
    the gap if the key has one; a conditional one is skipped unless
    phi < 1/d^2."""
    tau, phi = Fraction(tau_num, tau_den), Fraction(phi_num, phi_den)
    values = (d, tau, phi, *map(float, gap))
    hypothesis = phi_num * d * d < phi_den  # phi < 1/d^2
    return tuple(
        _Row(t.name, *_verdict(*t.sides(*values)))
        if hypothesis or not t.conditional
        else _Row(t.name, skip_reason=_HYPOTHESIS_NOT_MET, witness=None)
        for t in theorems
    )


#: Largest n of the ``connected_minimizer`` check, whose skip reason above
#: it is part of the report.
MINIMIZER_LIMIT = 16


def _connected_minimizer_key(ctx: MetricCache):
    ctx.require_regular()
    g = ctx.g
    if g.n > MINIMIZER_LIMIT:
        raise TooLarge(
            f"{ctx.graph_id}: all-minimizers enumeration capped at n={MINIMIZER_LIMIT}"
        )
    s = ctx.exact.phi_witness
    holds = _component(g.adj_masks, s & -s, s) == s
    return (holds,), ((s,),) if holds else ()


def _connected_minimizer_rows(theorems, holds: bool) -> tuple[_Row, ...]:
    return (_Row(theorems[0].name, holds=holds, witness=0 if holds else None),)


def _fragment_bounds_key(ctx: MetricCache):
    d = ctx.require_regular()
    g = ctx.g
    s_mask = ctx.exact.tau_witness
    t_mask = largest_component(g, s_mask)
    s_size = s_mask.bit_count()
    outside = g.n - s_size - t_mask.bit_count()
    key = (cut_size(g, s_mask), d * s_size), (outside + 1, g.n - s_size)
    return key, ((s_mask, t_mask),)


def _fragment_bounds_rows(theorems, *pairs: tuple[int, int]) -> tuple[_Row, ...]:
    """Per theorem, the verdict of its pair of integer sides."""
    return tuple(_Row(t.name, *_verdict(*map(Fraction, p))) for t, p in zip(theorems, pairs))


def _value_ranges_key(ctx: MetricCache):
    exact = ctx.exact
    no_survivor = full_mask(ctx.g.n) & ~exact.tau_witness == 0
    return (*ctx.values, no_survivor), ((exact.tau_witness,), (exact.phi_witness,))


def _value_ranges_rows(
    theorems, d, tau_num, tau_den, phi_num, phi_den, no_survivor: bool
) -> tuple[_Row, ...]:
    """0 < x <= 1 for tau, which also needs a survivor, and for phi."""
    tau, phi = Fraction(tau_num, tau_den), Fraction(phi_num, phi_den)
    tau_row = _Row(theorems[0].name, *_verdict(tau, Fraction(1)))
    phi_row = _Row(theorems[1].name, *_verdict(phi, Fraction(1)), witness=1)
    return (
        tau_row._replace(holds=not no_survivor and 0 < tau <= 1),
        phi_row._replace(holds=0 < phi <= 1),
    )


#: Per check group, in report order: its key function, its row builder,
#: its theorems in report order, and whether it reads lambda2.
_CHECKS = {
    "cheeger": (
        partial(_triple_key, "phi_witness", True),
        _triple_rows,
        (
            _Theorem("cheeger_lower", lambda d, tau, phi, gap: (phi * phi / 2, gap)),
            _Theorem("cheeger_upper", lambda d, tau, phi, gap: (gap, 2 * phi)),
        ),
        True,
    ),
    "vat_upper": (
        partial(_triple_key, "tau_witness", False),
        _triple_rows,
        (
            _Theorem(
                "vat_upper_conditional", lambda d, tau, phi: (tau, d * phi), conditional=True
            ),
            _Theorem("vat_upper_unconditional", lambda d, tau, phi: (tau, d * d * phi)),
        ),
        False,
    ),
    "vat_lower": (
        partial(_triple_key, "tau_witness", False),
        _triple_rows,
        (_Theorem("vat_lower", lambda d, tau, phi: (phi, d * tau)),),
        False,
    ),
    "spectral_vat": (
        partial(_triple_key, "tau_witness", True),
        _triple_rows,
        (
            _Theorem("spectral_vat_lower", lambda d, tau, phi, gap: (tau * tau / (2 * d**4), gap)),
            _Theorem("spectral_vat_upper", lambda d, tau, phi, gap: (gap, 2 * d * tau)),
            _Theorem(
                "spectral_vat_lower_conditional",
                lambda d, tau, phi, gap: (tau * tau / (2 * d**2), gap),
                conditional=True,
            ),
        ),
        True,
    ),
    "connected_minimizer": (
        _connected_minimizer_key,
        _connected_minimizer_rows,
        (_Theorem("connected_minimizer"),),
        False,
    ),
    "fragment_bounds": (
        _fragment_bounds_key,
        _fragment_bounds_rows,
        (_Theorem("fragment_cut_bound"), _Theorem("fragment_size_bound")),
        False,
    ),
    "value_ranges": (
        _value_ranges_key,
        _value_ranges_rows,
        (_Theorem("vat_range"), _Theorem("conductance_range")),
        False,
    ),
}


CHECK_GROUPS = tuple(_CHECKS)
GROUP_THEOREMS = {
    group: tuple(t.name for t in theorems) for group, (_, _, theorems, _) in _CHECKS.items()
}
ALL_THEOREMS = tuple(t for theorems in GROUP_THEOREMS.values() for t in theorems)

#: The bounds the paper claims strictly; a suite summary lists each of
#: their equality cases by graph id.
STRICT_CLAIMS = ("vat_lower", "vat_upper_unconditional")

_Verdicts = list[tuple[_Entry, tuple, str]]


def _verdicts(cache: MetricCache, checks: Sequence[str]) -> _Verdicts:
    """Per selected group: its table entry for ``cache``, its witnesses, and
    an unmet precondition's skip reason, ``"<error type>: <message>"``."""
    out = []
    for group in checks:
        try:
            key, witnesses = _CHECKS[group][0](cache)
            reason = ""
        except VattolError as exc:
            key, witnesses, reason = None, (), f"{type(exc).__name__}: {exc}"
        out.append((_entry(group, key), witnesses, reason))
    return out


def _reports(cache: MetricCache, verdicts: _Verdicts) -> list[TheoremReport]:
    graph = (cache.graph_id, cache.g.n, cache.g.m, cache.d)
    out = []
    for entry, witnesses, reason in verdicts:
        for row in entry.rows:
            w = row.witness
            witness = None if w is None else _witness_dict(witnesses[w])
            out.append(_report(row, graph, witness, reason))
    return out


def _csv_text(cache: MetricCache, verdicts: _Verdicts) -> str:
    """The graph's CSV rows: its prefix, each row's text, its witness line."""
    g = cache.g
    prefix = _csv_line((cache.graph_id, g.n, g.m, cache.d))[:-1]
    out = []
    for entry, witnesses, _ in verdicts:
        ends = [*map(_witness_line, witnesses), "\n"]
        out += [prefix + text + ends[i] for text, i in entry.lines]
    return "".join(out)


#: The JSON text of a record before each of its four graph fields.
_GRAPH_KEYS = _json(report_to_json(_report(_Row(""), _GRAPH_HOLES, None))).split(_HOLE_JSON)[:4]


def _json_text(cache: MetricCache, verdicts: _Verdicts) -> str:
    """The graph's JSON records, each led by a comma and a new line: its
    prefix, then each row's head, its witness text and its tail, whose
    pieces join at an unmet precondition's reason."""
    g = cache.g
    fields = map(_json, (cache.graph_id, g.n, g.m, cache.d))
    prefix = ",\n " + "".join(map(str.__add__, _GRAPH_KEYS, fields))
    out = []
    for entry, witnesses, reason in verdicts:
        ends = [*map(_witness_json, witnesses), "null"]
        fill = _json(reason)
        out += [prefix + head + ends[i] + fill.join(tail) for head, i, tail in entry.records]
    return "".join(out)


class _Batch(NamedTuple):
    """One batch of a run: each graph's output from the run's renderer (so
    ``len(out)`` is its graph count), the (graph, group) count per tally,
    and each strict claim's equality ids."""

    out: list
    tallies: dict[tuple, int]
    cases: dict[str, list[str]]


class SuiteSummary:
    """The outcome of a suite run, summed per batch as the batches stream past."""

    def __init__(self) -> None:
        self.graphs = self.total = self.holds = self.strict = self.failed = self.skipped = 0
        self.equality_counts: dict[str, int] = {}
        self.strict_claim_equalities: dict[str, list[str]] = {
            theorem: [] for theorem in STRICT_CLAIMS
        }

    def _count(self, batches: Iterable[_Batch]) -> Iterator[_Batch]:
        """Yield each batch unchanged, after adding it."""
        equalities = self.equality_counts
        for batch in batches:
            self.graphs += len(batch.out)
            for (total, holds, strict, failed, skipped, theorems), k in batch.tallies.items():
                self.total += k * total
                self.holds += k * holds
                self.strict += k * strict
                self.failed += k * failed
                self.skipped += k * skipped
                for theorem in theorems:
                    equalities[theorem] = equalities.get(theorem, 0) + k
            for theorem, ids in batch.cases.items():
                self.strict_claim_equalities[theorem] += ids
            yield batch

    def lines(self) -> str:
        """The summary that ``vattol verify`` prints to stderr: the counts,
        then the equalities per theorem and the equality cases of each
        strict claim, each line ending in a newline."""
        lines = [
            f"graphs={self.graphs} reports={self.total} holds={self.holds} "
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
    each once, at its first position."""
    if isinstance(checks, str):
        checks = [c.strip() for c in checks.split(",") if c.strip()]
    checks = list(dict.fromkeys(checks))
    if checks == ["all"]:
        return CHECK_GROUPS
    known = f"known: all, {', '.join(CHECK_GROUPS)}"
    if not checks:
        raise BadParameter(f"no check selected; {known}")
    if "all" in checks:
        raise BadParameter("'all' selects every check group; list it alone")
    for c in checks:
        if c not in _CHECKS:
            raise BadParameter(f"unknown check {c!r}; {known}")
    return tuple(checks)


def evaluate_graph(
    cache: MetricCache, checks: str | Sequence[str] = "all"
) -> list[TheoremReport]:
    """Run the selected check groups on one graph's cache.  A group whose
    precondition is unmet gives skipped reports, with the reason
    ``"<error type>: <message>"``, instead of raising."""
    return _reports(cache, _verdicts(cache, normalize_checks(checks)))


def _prefill(caches: Sequence[MetricCache], spectral: bool = True) -> None:
    """Set ``exact`` and, if ``spectral``, ``spectral`` of a batch's caches.

    Both take the connected graphs with ``2 <= n <= HARD_CAP`` (each
    tested once), one call per n: :func:`exact_batch` all of them, the
    stacked ``eigh`` the regular ones if ``spectral``, as no check
    reads lambda2 of any other.  A cache left unset, or whose
    eigensolve failed its residual check, raises its graph's error on
    first use.
    """
    groups: dict[int, list[MetricCache]] = {}
    for cache in caches:
        g = cache.g
        if 2 <= g.n <= HARD_CAP and is_connected(g):
            groups.setdefault(g.n, []).append(cache)
    for group in groups.values():
        for cache, exact in zip(group, exact_batch([cache.g for cache in group])):
            cache.exact = exact
        regular = [cache for cache in group if cache.d is not None]
        if spectral and regular:
            for cache, result in zip(regular, _lambda2_batch([cache.g for cache in regular])):
                if result is not None:
                    cache.spectral = result


def _render(caches: Sequence[MetricCache], checks: Sequence[str], render: Callable) -> _Batch:
    """The batch of ``caches``, each graph's output from ``render``."""
    entries: list[_Entry] = []
    cases: dict[str, list[str]] = {theorem: [] for theorem in STRICT_CLAIMS}
    out = []
    for cache in caches:
        verdicts = _verdicts(cache, checks)
        for entry, _, _ in verdicts:
            entries.append(entry)
            for theorem in entry.claims:
                cases[theorem].append(cache.graph_id)
        out.append(render(cache, verdicts))
    tallies: Counter[tuple] = Counter()
    for entry, k in Counter(entries).items():
        tallies[entry.tally] += k
    return _Batch(out, tallies, cases)


def _evaluate_batch(
    checks: tuple[str, ...], render: Callable, items: Sequence[tuple[str, Graph]]
) -> _Batch:
    """One batch, after one :func:`_prefill`: what a pool worker returns,
    so the parent only writes and sums."""
    caches = [MetricCache(g, graph_id) for graph_id, g in items]
    _prefill(caches, any(_CHECKS[c][3] for c in checks))
    return _render(caches, checks, render)


def clamp_jobs(jobs: int) -> int:
    """The worker count ``jobs`` limited to [1, the CPUs this process may run on]."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return max(1, min(jobs, len(usable) if usable else os.cpu_count() or 1))


def _suite_batches(
    graphs: Iterable[tuple[str, Graph]], checks: str | Sequence[str], jobs: int, render: Callable
) -> Iterator[_Batch]:
    """The batches of a run, each graph rendered by ``render``, in input
    order at any ``jobs`` (a process pool if more than 1, at most the usable
    CPUs), so the output is byte-for-byte independent of the worker count."""
    evaluate = partial(_evaluate_batch, normalize_checks(checks), render)
    it = iter(graphs)
    batches = iter(lambda: list(islice(it, SUITE_BATCH)), [])
    jobs = clamp_jobs(jobs)
    if jobs == 1:
        yield from map(evaluate, batches)
        return
    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(evaluate, batches)


def iter_suite(
    graphs: Iterable[tuple[str, Graph]],
    checks: str | Sequence[str] = "all",
    jobs: int = 1,
) -> Iterator[TheoremReport]:
    """Stream reports for every graph, in input order, from batches of
    :data:`SUITE_BATCH` (256) graphs checked in ``jobs`` processes."""
    for batch in _suite_batches(graphs, checks, jobs, _reports):
        yield from chain.from_iterable(batch.out)


def write_reports(
    graphs: Iterable[tuple[str, Graph]],
    checks: str | Sequence[str],
    jobs: int,
    fmt: str,
    out: IO[str],
) -> SuiteSummary:
    """Write ``vattol verify``'s output for ``graphs`` to ``out``, each
    batch's text as it arrives, and return the run's summary.  ``fmt``
    ``"json"``: ``[``, the records, the first without its leading comma,
    then ``\\n]\\n``; else the CSV header, then the rows."""
    summary = SuiteSummary()
    json_out = fmt == "json"
    render = _json_text if json_out else _csv_text
    batches = summary._count(_suite_batches(graphs, checks, jobs, render))
    texts = ("".join(batch.out) for batch in batches)
    if json_out:
        out.write("[" + next(texts, ",")[1:])
        out.writelines(texts)
        out.write("\n]\n")
    else:
        out.write(_csv_line(VERIFY_CSV_COLUMNS))
        out.writelines(texts)
    return summary


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
    batches = summary._count(_suite_batches(graphs, checks, jobs, _reports))
    return SuiteResult([r for batch in batches for out in batch.out for r in out], summary)
