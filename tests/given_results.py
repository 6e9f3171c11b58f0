"""Hand-set results for the suite's tests.

``given_results(given, jobs)`` patches ``verify._prefill`` to run the
real prefill, then to overwrite what each :class:`Given` graph sets:
its exact fields, through ``_Record.fill`` so that the floods follow
them, and its gap, which also clears its spectral skip reason.  A batch
takes its graphs' entries in order at ``jobs`` 1 and by graph id
otherwise, as each pool worker sees only its own batches.  A batch may
repeat a graph under many hand-set witnesses, so the patched prefill
computes the exact record of each distinct adjacency once.
"""

from __future__ import annotations

from typing import NamedTuple
from unittest import mock

import numpy as np

from vattol import ExactMetrics, Graph, verify


class Given(NamedTuple):
    """A graph, with the gap and the ``ExactMetrics`` fields (by name)
    that replace those of its prefilled record."""

    graph_id: str
    g: Graph
    gap: float | None = None
    fields: dict = {}

    @property
    def item(self) -> tuple[str, Graph]:
        return self.graph_id, self.g


def given_results(given: list[Given], jobs: int = 1):
    """A patch of ``verify._prefill`` that sets ``given``'s results."""
    prefill, exact_columns = verify._prefill, verify._exact_columns
    by_id = {entry.graph_id: entry for entry in given}
    order = iter(given)

    def each_graph_once(adj):
        distinct, index = np.unique(adj, axis=0, return_inverse=True)
        return np.array(exact_columns(distinct))[:, index.reshape(-1)].tolist()

    def hand_set(items, spectral):
        with mock.patch.object(verify, "_exact_columns", each_graph_once):
            rec = prefill(items, spectral)
        chosen = [next(order) if jobs == 1 else by_id[graph_id] for graph_id, _ in items]
        by_n: dict[int, list[int]] = {}
        for i, entry in enumerate(chosen):
            if entry.fields:
                by_n.setdefault(entry.g.n, []).append(i)
            if entry.gap is not None:
                rec.gap[i] = entry.gap
                rec.unmet["spectral"].pop(i, None)
        for rows in by_n.values():
            records = [
                ExactMetrics(*rec.exact[:, i].tolist())._replace(**chosen[i].fields)
                for i in rows
            ]
            rec.fill(rows, list(zip(*records)))
        return rec

    return mock.patch.object(verify, "_prefill", hand_set)
