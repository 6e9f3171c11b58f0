"""Mechanical checking of the resilience inequalities on supplied graphs.

Each check compares the two sides of one inequality and emits a
structured :class:`TheoremReport`.  One rule decides every verdict:
Fraction sides compare exactly, and a float side is the spectral gap,
compared with the fixed absolute tolerance :data:`SPECTRAL_TOL`.
Inequalities are judged in non-strict form for ``holds``; strictness is
recorded separately, because some of the bounds are achieved with
equality on boundary graphs (the single edge K2 most prominently) and
an equality must be auditable rather than a failure.

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
  minimizer, which is always connected (each component of a disconnected
  minimizer is a minimizer with a smaller encoding).  Its skip above
  n = 16 (``MINIMIZER_LIMIT``) stays only as report contract
- ``fragment_bounds``: with S a minimizing attack set and T the largest
  surviving component, d|S| bounds the total boundary of the surviving
  components, whose sum is cut(S) <= vol(S) = d|S|, so it cannot fail,
  and |V-S-T| + 1 is at most the survivor count n - |S|
- ``value_ranges``: 0 < tau <= 1 and 0 < phi <= 1, on any connected
  graph; the tau report also needs a nonempty surviving component at
  the witness, as removing every vertex is never optimal

Every run checks graphs a batch at a time, :data:`SUITE_BATCH` graphs
in process or as one pool task.  ``_prefill`` makes a batch a record of
columns, filled per n by one ``_exact_columns`` pass, one stacked
``eigh`` over matrices built from the neighbour masks that pass read,
and bulk floods, with each graph's unmet preconditions.
``_CHECKS`` states each group in report order: the record's facts that
key its rows, by name (e.g. d, tau and phi in integers), its
preconditions, and its theorems, each an inequality of named facts that
one row builder, ``_row``, judges.  Each graph is keyed once for all
groups, with the groups whose preconditions it fails (each skipped
with the first one's reason, ``"<error type>: <message>"``, built from
the error's class); each distinct key maps once per batch to its entries in
a bounded row table: rows, summary counts and ``%``-templates of their
text.  A batch's CSV or JSON text is one ``%`` of its graphs' templates
with their prefix and witness columns, so a pool worker ships text.

The conditional hypothesis is strict on purpose: on the boundary
phi == 1/d^2 the sharp bound tau <= d phi can genuinely fail, as on an
18-vertex cubic graph with phi = 1/9 and tau = 3/8 > 1/3 (found by
exhaustive search, confirmed by a naive enumeration).  Boundary graphs
are skipped by the conditional checks and stay covered by the
unconditional bound.  Strictly inside the region the theorem corpus
tests little: at seed 42 the two conditional theorems are checked on 7
graphs, all cycles (d = 2, n = 10..16), and skipped on the other 45,944.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BadParameter, EmptyRemainder, NotRegular, TooLarge, VattolError
from .graph import Graph, regularity, vertices_from_mask
from .metrics import _exact_columns, _flood_fill, _require_enumerable
from .spectral import _gap_batch

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
    """The ``lhs`` to ``slack`` fields of ``lhs <= rhs``, exact on Fractions
    and ints, which it reports as Fractions; a float side is the spectral
    gap, so the comparison then allows :data:`SPECTRAL_TOL`."""
    if isinstance(lhs, float) or isinstance(rhs, float):
        l, r = float(lhs), float(rhs)
        return lhs, rhs, l <= r + SPECTRAL_TOL, l < r - SPECTRAL_TOL, r - l
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return lhs, rhs, lhs <= rhs, lhs < rhs, float(rhs) - float(lhs)


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
    return ";".join(f"{name}=" + " ".join(map(str, ids)) for name, ids in witnesses.items())


#: The columns of ``vattol verify``'s CSV, one row per report.
VERIFY_CSV_COLUMNS = (
    "graph_id", "n", "m", "d", "theorem", "lhs_num", "lhs_den", "lhs_real",
    "rhs_num", "rhs_den", "rhs_real", "holds", "strict_holds", "slack", "witness",
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


#: The ``csv`` module's text of one row, line end included, from a writer
#: over a file whose ``write`` returns its text; every CSV line of the CLI
#: is written with it.
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _side_json(value: Fraction | float | None):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator, **_side_json(_float(value))}
    return {"real": float(_real_str(value))}


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
        "slack": None if r.slack is None else float(_real_str(r.slack)),
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
    """A report less its graph; ``witness``: whether it shows its theorem's witness."""

    theorem: str
    lhs: Fraction | float | None = None
    rhs: Fraction | float | None = None
    holds: bool | None = None
    strict_holds: bool | None = None
    slack: float | None = None
    skip_reason: str = ""
    witness: bool = True


def _report(row: _Row, graph: tuple, witnesses, reason: str = "") -> TheoremReport:
    """``row`` as a report on ``graph`` (id, n, m, d), skipped for ``reason`` if given."""
    reason = reason or row.skip_reason
    verdict = row.lhs, row.rhs, row.holds, row.strict_holds, row.slack
    return TheoremReport(row.theorem, *graph, *verdict, witnesses, bool(reason), reason)


class _Theorem(NamedTuple):
    """A theorem of a check group.  ``witness``: what its row shows, the
    set S of ``"tau"`` or ``"phi"``, or ``"st"``, tau's S and the largest
    survivor T.  ``sides``: its inequality lhs <= rhs, as (lhs, rhs) of
    the :class:`_Facts` of its group's key; None if ``holds`` alone is its
    verdict.  ``conditional``: its row is skipped unless phi < 1/d^2.
    ``holds``: a further condition on the facts, ANDed into the verdict."""

    name: str
    witness: str
    sides: Callable[..., tuple[Fraction | float, Fraction | float]] | None = None
    conditional: bool = False
    holds: Callable[..., bool] = lambda v: True


class _Facts(dict):
    """A group's key by name, read as attributes: tau and phi as the
    Fractions of their reduced parts, the gap as the float of its bits."""

    __getattr__ = dict.__getitem__
    tau = property(lambda v: Fraction(v.tau_num, v.tau_den))
    phi = property(lambda v: Fraction(v.phi_num, v.phi_den))
    gap = property(lambda v: np.int64(v["gap"]).view(np.float64).item())


_HYPOTHESIS_NOT_MET = "hypothesis not met: conductance not strictly below 1/d^2"


def _row(t: _Theorem, v: _Facts) -> _Row:
    """The row of ``t`` at the facts ``v``: skipped if it is conditional and
    not phi < 1/d^2; else the verdict of its sides with ``holds`` ANDed in,
    or with no sides, ``holds``, whose witness shows only if it holds."""
    if t.conditional and not v.phi * v.d**2 < 1:
        return _Row(t.name, skip_reason=_HYPOTHESIS_NOT_MET, witness=False)
    if t.sides is None:
        holds = t.holds(v)
        return _Row(t.name, holds=holds, witness=holds)
    lhs, rhs, holds, strict, slack = _verdict(*t.sides(v))
    return _Row(t.name, lhs, rhs, holds and t.holds(v), strict, slack)


def _escaped(text: str) -> str:
    return text.replace("%", "%%")


def _csv_template(row: _Row) -> str:
    """The ``%``-template of ``row``'s CSV line: the graph's prefix, the
    row's fields, then its witness line, or nothing and the line end."""
    text = _csv_line(report_to_csv_row(_report(row, _GRAPH_HOLES, None))).split(_HOLE)[4]
    return "%s" + _escaped(text[:-1]) + ("%s" if row.witness else "%.0s\n")


def _json_template(row: _Row) -> str:
    """The ``%``-template of ``row``'s JSON record: the graph's prefix, the
    row's fields and its witness, or ``null``; a row whose skip reason is
    a hole takes its group's reason in the witness's place."""
    head, *tail = _json(report_to_json(_report(row, _GRAPH_HOLES, _HOLE))).split(_HOLE_JSON)[4:]
    if len(tail) == 2:
        return "%s" + _escaped(head) + "null" + "%s".join(map(_escaped, tail))
    return "%s" + _escaped(head) + ("%s" if row.witness else "null%.0s") + _escaped(tail[0])


@dataclass(frozen=True)
class _Entry:
    """The rows of one (group, key).  ``tally``: what they add to a
    :class:`SuiteSummary` (reports, holds, strict, failed, skipped, and
    the theorems of their equalities); ``csv`` and ``json``: the
    templates of their text."""

    rows: tuple[_Row, ...]
    tally: tuple[int, int, int, int, int, tuple[str, ...]]
    csv: str

    @cached_property  # built by the first JSON render, so CSV runs hold none
    def json(self) -> str:
        return "".join(map(_json_template, self.rows))


@lru_cache(maxsize=_TABLE_SIZE)
def _entry(group: str, key: tuple | None) -> _Entry:
    """The entry of ``group`` at ``key``.  Key ``None``: an unmet
    precondition, whose rows are skipped whatever the error; their skip
    reason is a hole that the error fills."""
    check = _CHECKS[group]
    if key is None:
        rows = tuple(_Row(t.name, skip_reason=_HOLE, witness=False) for t in check.theorems)
    else:
        facts = _Facts(zip(check.key, key))
        rows = tuple(_row(t, facts) for t in check.theorems)
    checked = [r for r in rows if not r.skip_reason]
    equalities = tuple(r.theorem for r in rows if r.holds is True and r.strict_holds is False)
    holds = sum(1 for r in checked if r.holds)
    strict = sum(1 for r in checked if r.strict_holds)
    tally = (len(rows), holds, strict, len(checked) - holds, len(rows) - len(checked), equalities)
    return _Entry(rows, tally, "".join(map(_csv_template, rows)))


#: Largest n of the ``connected_minimizer`` check, whose skip reason above
#: it is part of the report.
MINIMIZER_LIMIT = 16


def _reason(exc: VattolError) -> str:
    return f"{type(exc).__name__}: {exc}"


class _Record:
    """A batch as columns, one value per graph: id, n, m, degree d (None:
    not regular); ``exact``, the six ``ExactMetrics`` fields as rows;
    the gap; at tau's witness S, the largest survivor T (0 if none) and
    cut(S); whether phi's witness is connected.  A graph without a
    value has 0.  ``unmet``: per precondition that a :data:`_CHECKS` group
    needs, the skip reason of each graph (by index) that fails it."""

    def __init__(self, items: Sequence[tuple[str, Graph]], degrees: list[int | None]) -> None:
        self.ids = [graph_id for graph_id, _ in items]
        self.graphs = [g for _, g in items]
        self.n, self.m, self.d = [g.n for g in self.graphs], [g.m for g in self.graphs], degrees
        self.exact = np.zeros((6, len(items)), np.int64)
        self.gap = np.zeros(len(items))
        self.survivor, self.cut = np.zeros_like(self.exact[:2])
        self.connected = np.zeros(len(items), bool)
        needs = chain.from_iterable(check.needs for check in _CHECKS.values())
        self.unmet: dict[str, dict[int, str]] = {need: {} for need in needs}

    def fill(self, rows: list[int], columns: Sequence[Sequence[int]] | None = None) -> np.ndarray:
        """Set the exact record of ``rows``, graphs that share one n <= 24,
        to ``columns`` (:func:`_exact_columns` if None), then what bulk
        floods give from it; return the graphs' int32 neighbour masks."""
        adj = np.array([self.graphs[i].adj_masks for i in rows], np.int32)
        exact = np.array(_exact_columns(adj) if columns is None else columns, np.int64)
        self.exact[:, rows] = exact
        n = adj.shape[1]
        s, phi_witness = exact[[2, 5]].astype(np.int32)
        flood = _flood_fill(adj)
        # T: of the components flooded from each survivor, the first largest
        rest = (((1 << n) - 1) & ~s)[:, None]
        pieces = flood((1 << np.arange(n, dtype=np.int32)) & rest, rest)
        self.survivor[rows] = pieces[np.arange(len(rows)), np.bitwise_count(pieces).argmax(axis=1)]
        inside = (s[:, None] >> np.arange(n)) & 1
        self.cut[rows] = (inside * np.bitwise_count(adj & ~s[:, None])).sum(axis=1)
        for i in np.asarray(rows)[rest[:, 0] == 0].tolist():
            empty = EmptyRemainder("removed every vertex; no component remains")
            self.unmet["remainder"][i] = _reason(empty)
        seed = (phi_witness & -phi_witness)[:, None]
        self.connected[rows] = flood(seed, phi_witness[:, None])[:, 0] == phi_witness
        return adj

    def key_columns(self) -> dict[str, list]:
        """Per fact that a group's key can name, one value per graph: d, tau and
        phi reduced, the gap's float64 bits (-0.0 and 0.0 print apart), whether
        phi's witness is connected, and at tau's witness S, cut(S), n, s = |S|
        and t = |T| (0: no vertex survives)."""
        tau_num, tau_den, _, phi_num, phi_den, _ = self.exact.tolist()
        s, t = np.bitwise_count(self.exact[2]).tolist(), np.bitwise_count(self.survivor).tolist()
        return dict(
            d=self.d, tau_num=tau_num, tau_den=tau_den, phi_num=phi_num, phi_den=phi_den,
            gap=self.gap.view(np.int64).tolist(), connected=self.connected.tolist(),
            cut=self.cut.tolist(), n=self.n, s=s, t=t,
        )

    def witnesses(self) -> dict[str, Iterator[tuple[int, ...]]]:
        """Per witness a row can show (see :class:`_Theorem`), per graph its masks."""
        tau, phi = self.exact[[2, 5]].tolist()
        return {"tau": zip(tau), "phi": zip(phi), "st": zip(tau, self.survivor.tolist())}


class _Check(NamedTuple):
    """A check group: ``key``, the names of the :meth:`_Record.key_columns`
    that decide its rows, which :func:`_row` builds from its theorems at
    their values; ``needs``, its preconditions in order; its theorems in
    report order."""

    key: tuple[str, ...]
    needs: tuple[str, ...]
    theorems: tuple[_Theorem, ...]


_TRIPLE = ("d", "tau_num", "tau_den", "phi_num", "phi_den")
_ON_TRIPLE = ("regular", "exact")
_ON_GAP = ("regular", "exact", "spectral")

#: Per check group, in report order.
_CHECKS = {
    "cheeger": _Check((*_TRIPLE, "gap"), _ON_GAP, (
        _Theorem("cheeger_lower", "phi", lambda v: (v.phi * v.phi / 2, v.gap)),
        _Theorem("cheeger_upper", "phi", lambda v: (v.gap, 2 * v.phi)),
    )),
    "vat_upper": _Check(_TRIPLE, _ON_TRIPLE, (
        _Theorem("vat_upper_conditional", "tau", lambda v: (v.tau, v.d * v.phi), True),
        _Theorem("vat_upper_unconditional", "tau", lambda v: (v.tau, v.d * v.d * v.phi)),
    )),
    "vat_lower": _Check(_TRIPLE, _ON_TRIPLE, (
        _Theorem("vat_lower", "tau", lambda v: (v.phi, v.d * v.tau)),
    )),
    "spectral_vat": _Check((*_TRIPLE, "gap"), _ON_GAP, (
        _Theorem("spectral_vat_lower", "tau", lambda v: (v.tau**2 / (2 * v.d**4), v.gap)),
        _Theorem("spectral_vat_upper", "tau", lambda v: (v.gap, 2 * v.d * v.tau)),
        _Theorem(
            "spectral_vat_lower_conditional", "tau",
            lambda v: (v.tau**2 / (2 * v.d**2), v.gap), True,
        ),
    )),
    "connected_minimizer": _Check(("connected",), ("regular", "minimizer", "exact"), (
        _Theorem("connected_minimizer", "phi", holds=lambda v: v.connected),
    )),
    "fragment_bounds": _Check(("d", "cut", "n", "s", "t"), ("regular", "exact", "remainder"), (
        _Theorem("fragment_cut_bound", "st", lambda v: (v.cut, v.d * v.s)),
        _Theorem("fragment_size_bound", "st", lambda v: (v.n - v.s - v.t + 1, v.n - v.s)),
    )),
    "value_ranges": _Check(("tau_num", "tau_den", "phi_num", "phi_den", "t"), ("exact",), (
        _Theorem("vat_range", "tau", lambda v: (v.tau, 1), holds=lambda v: 0 < v.tau and v.t > 0),
        _Theorem("conductance_range", "phi", lambda v: (v.phi, 1), holds=lambda v: 0 < v.phi),
    )),
}


CHECK_GROUPS = tuple(_CHECKS)
GROUP_THEOREMS = {
    group: tuple(t.name for t in check.theorems) for group, check in _CHECKS.items()
}
ALL_THEOREMS = tuple(t for theorems in GROUP_THEOREMS.values() for t in theorems)

#: The bounds the paper claims strictly; a suite summary lists each of
#: their equality cases by graph id.
STRICT_CLAIMS = ("vat_lower", "vat_upper_unconditional")


@lru_cache(maxsize=_TABLE_SIZE)
def _graph_entries(
    checks: tuple[str, ...], names: tuple[str, ...], key: tuple
) -> tuple[_Entry, ...]:
    """Per group of ``checks``, the entry of a graph keyed ``key``: its
    values of the key columns ``names``, then, as bits in ``checks``
    order, the groups whose preconditions it fails."""
    *values, skipped = key
    at = dict(zip(names, values))
    return tuple(
        _entry(group, None if skipped >> bit & 1 else tuple(at[c] for c in _CHECKS[group].key))
        for bit, group in enumerate(checks)
    )


class _Outcome(NamedTuple):
    """The checks on a batch: the groups, each distinct graph key's entries,
    per graph its key's index, and per group the graphs' skip reasons."""

    checks: tuple[str, ...]
    table: list[tuple[_Entry, ...]]
    codes: list[int]
    reasons: list[dict[int, str]]


_GRAPH_KEYS = _json(report_to_json(_report(_Row(""), _GRAPH_HOLES, None))).split(_HOLE_JSON)[:4]
#: The ``%``-template of a JSON record's prefix, its comma and new line first.
_JSON_PREFIX = ",\n " + "".join(_escaped(key) + "%s" for key in _GRAPH_KEYS)


def _text(json_out: bool, rec: _Record, outcome: _Outcome) -> str:
    """The batch's CSV lines, or its JSON records each led by a comma and a
    new line: one ``%`` of each graph's template at its entries, taking
    per row the graph's prefix and its witness text or, in a JSON row
    skipped for an unmet precondition, its skip reason."""
    if json_out:
        d = ["null" if d is None else d for d in rec.d]
        fields = zip(map(encode_basestring_ascii, rec.ids), rec.n, rec.m, d)
        prefix, witness_text = list(map(_JSON_PREFIX.__mod__, fields)), _witness_json
    else:
        lines = map(_csv_line, zip(rec.ids, rec.n, rec.m, rec.d))
        prefix, witness_text = [line[:-1] for line in lines], _witness_line
    texts = {kind: list(map(witness_text, masks)) for kind, masks in rec.witnesses().items()}
    columns = []
    for group, reasons in zip(outcome.checks, outcome.reasons):
        shown = texts
        if json_out and reasons:
            shown = {kind: column.copy() for kind, column in texts.items()}
            for column in shown.values():
                for i, reason in reasons.items():
                    column[i] = _json(reason)
        columns += chain.from_iterable((prefix, shown[t.witness]) for t in _CHECKS[group].theorems)
    templates = ["".join(e.json if json_out else e.csv for e in t) for t in outcome.table]
    text = "".join(map(templates.__getitem__, outcome.codes))
    return text % tuple(chain.from_iterable(zip(*columns)))


def _reports(rec: _Record, outcome: _Outcome) -> list[TheoremReport]:
    """The batch's reports, each with its own witness dict."""
    masks = {kind: list(column) for kind, column in rec.witnesses().items()}
    out = []
    for i, (graph, code) in enumerate(zip(zip(rec.ids, rec.n, rec.m, rec.d), outcome.codes)):
        for group, entry, reasons in zip(outcome.checks, outcome.table[code], outcome.reasons):
            for row, t in zip(entry.rows, _CHECKS[group].theorems):
                witness = _witness_dict(masks[t.witness][i]) if row.witness else None
                out.append(_report(row, graph, witness, reasons.get(i, "")))
    return out


class _Batch(NamedTuple):
    """One batch of a run: its graph count, its renderer's output, the
    (graph, group) count per tally, and each strict claim's equality ids."""

    graphs: int
    out: str | list[TheoremReport]
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
            self.graphs += batch.graphs
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


def _prefill(items: Sequence[tuple[str, Graph]], spectral: bool = True) -> _Record:
    """The record of a batch of (id, graph) pairs with each graph's unmet
    preconditions, filled per n by one :func:`_exact_columns` call over the
    graphs that take an exact record; any other gets the error that
    :func:`_require_enumerable` raises.  If ``spectral``, each regular graph
    with an exact record gets what :func:`_gap_batch` gives it from one
    stacked ``eigh`` per n over the neighbour masks that the exact pass read
    (no check reads lambda2 of any other): its gap, or the error that
    refuses its eigenpair."""
    rec = _Record(items, [regularity(g) for _, g in items])
    limit = f"all-minimizers enumeration capped at n={MINIMIZER_LIMIT}"
    by_n: dict[int, list[int]] = {}
    for i, (name, g, d) in enumerate(zip(rec.ids, rec.graphs, rec.d)):
        if d is None:
            irregular = NotRegular(f"{name}: the check needs a regular graph")
            rec.unmet["regular"][i] = _reason(irregular)
        if g.n > MINIMIZER_LIMIT:
            rec.unmet["minimizer"][i] = _reason(TooLarge(f"{name}: {limit}"))
        try:
            _require_enumerable(g)
        except VattolError as exc:
            rec.unmet["exact"][i] = _reason(exc)
        else:
            by_n.setdefault(g.n, []).append(i)
    for rows in by_n.values():
        adj = rec.fill(rows)
        regular = np.array([rec.d[i] is not None for i in rows])
        if spectral and regular.any():
            for i, gap in zip(np.array(rows)[regular].tolist(), _gap_batch(adj[regular])):
                if isinstance(gap, VattolError):
                    rec.unmet["spectral"][i] = _reason(gap)
                else:
                    rec.gap[i] = gap
    return rec


def _evaluate_batch(checks: tuple[str, ...], render: Callable, items: Sequence) -> _Batch:
    """One batch, its output from ``render`` after one :func:`_prefill`: what a
    pool worker returns, so the parent only writes and sums.  Each graph
    is keyed once for every group (see :func:`_graph_entries`); each
    distinct key maps to its entries once per batch, and tallies and
    equality cases come from per-key counts."""
    rec = _prefill(items, any("spectral" in _CHECKS[c].needs for c in checks))
    reasons: list[dict[int, str]] = [{} for _ in checks]
    skipped = [0] * len(rec.ids)
    for bit, group in enumerate(checks):
        for need in reversed(_CHECKS[group].needs):  # the first unmet one wins
            reasons[bit].update(rec.unmet[need])
        for i in reasons[bit]:
            skipped[i] |= 1 << bit
    columns = rec.key_columns()
    keys = list(zip(*columns.values(), skipped))
    at = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    codes = list(map(at.__getitem__, keys))
    table = [_graph_entries(checks, tuple(columns), key) for key in at]
    tallies: Counter[tuple] = Counter()
    for code, k in Counter(codes).items():
        for entry in table[code]:
            tallies[entry.tally] += k
    cases: dict[str, list[str]] = {theorem: [] for theorem in STRICT_CLAIMS}
    # per key, the strict claims among the equalities of its entries' tallies
    claims = [[t for entry in entries for t in entry.tally[5] if t in cases] for entries in table]
    for graph_id, code in zip(rec.ids, codes):
        for theorem in claims[code]:
            cases[theorem].append(graph_id)
    outcome = _Outcome(checks, table, codes, reasons)
    return _Batch(len(rec.ids), render(rec, outcome), tallies, cases)


def clamp_jobs(jobs: int) -> int:
    """The worker count ``jobs`` limited to [1, the CPUs this process may run on]."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return max(1, min(jobs, len(usable) if usable else os.cpu_count() or 1))


def _suite_batches(
    graphs: Iterable[tuple[str, Graph]], checks: str | Sequence[str], jobs: int, render: Callable
) -> Iterator[_Batch]:
    """The batches of a run, each rendered by ``render``, in input order
    at any ``jobs`` (a process pool if more than 1, at most the usable
    CPUs), so the output is byte-for-byte independent of the worker count."""
    evaluate = partial(_evaluate_batch, normalize_checks(checks), render)
    it = iter(graphs)
    batches = iter(lambda: list(islice(it, SUITE_BATCH)), [])
    jobs = clamp_jobs(jobs)
    if jobs == 1:
        yield from map(evaluate, batches)
        return
    import multiprocessing  # here, as only a pool needs it

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(evaluate, batches)


def iter_suite(
    graphs: Iterable[tuple[str, Graph]], checks: str | Sequence[str] = "all", jobs: int = 1
) -> Iterator[TheoremReport]:
    """Stream reports for every graph, in input order, from batches of
    :data:`SUITE_BATCH` (256) graphs checked in ``jobs`` processes."""
    for batch in _suite_batches(graphs, checks, jobs, _reports):
        yield from batch.out


def write_reports(
    graphs: Iterable[tuple[str, Graph]], checks: str | Sequence[str], jobs: int, fmt: str,
    out: IO[str],
) -> SuiteSummary:
    """Write ``vattol verify``'s output for ``graphs`` to ``out``, each
    batch's text as it arrives, and return the run's summary.  ``fmt``
    ``"json"``: ``[``, the records, the first without its leading comma,
    then ``\\n]\\n``; ``"csv"``: the CSV header, then the rows.  Any other
    ``fmt`` raises :class:`BadParameter` before anything is written."""
    if fmt not in ("csv", "json"):
        raise BadParameter(f"unknown format {fmt!r}; use 'csv' or 'json'")
    summary = SuiteSummary()
    json_out = fmt == "json"
    batches = summary._count(_suite_batches(graphs, checks, jobs, partial(_text, json_out)))
    texts = (batch.out for batch in batches)
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
    graphs: Iterable[tuple[str, Graph]], checks: str | Sequence[str] = "all", jobs: int = 1
) -> SuiteResult:
    """Run the checks over a corpus and collect every report."""
    summary = SuiteSummary()
    batches = summary._count(_suite_batches(graphs, checks, jobs, _reports))
    return SuiteResult([r for batch in batches for r in batch.out], summary)
