"""The four fixed workloads: inputs from a seed, one pass, exact checks.

Each workload builds its inputs from the seed alone in ``setup``, runs
one pass of program calls in ``run_pass`` and counts wrong outputs in
``failures``.  ``reference`` computes what the checks compare against;
it runs once per benchmark run, after the timed passes, and is never
part of set-up or of a timed pass.  An operation is one program call,
and one that raises counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from vattol import cli, generators, metrics, spectral
from vattol.graph import build_graph

from common import theorem_args


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation, counted by the check
        return exc


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def _largest_component(adj_masks, remaining: int) -> int:
    """Largest component of ``remaining``: most vertices, ties to the lowest id."""
    best = best_size = 0
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj_masks[v]
            frontier = reach & remaining & ~comp
            comp |= frontier
        remaining ^= comp
        if comp.bit_count() > best_size:
            best, best_size = comp, comp.bit_count()
    return best


class Theorem:
    """The theorem sweep through the CLI, as users run it.

    Its output check is ``common.theorem_failures``, which ``run.py``
    also applies to the timed sweep in its own ``vattol`` process.
    """

    name = "theorem"

    def setup(self, seed):
        return None  # importing vattol.cli is the whole set-up

    def run_pass(self, seed: int, csv_path: Path, jobs: int = 1) -> tuple[int, str]:
        """One in-process ``vattol verify`` sweep; (exit code, stderr)."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(theorem_args(seed, csv_path, jobs))
        return code, err.getvalue()


class ExactN20:
    """Exact tau and phi on one 20-vertex random regular graph per degree."""

    name = "exact-n20"
    ops_per_pass = 6
    degrees = (3, 4, 5)
    ref_seed = 7
    #: Per degree at the reference seed: (tau, witness), (phi, witness).
    expected = {
        3: ((Fraction(1, 2), 65689), (Fraction(5, 27), 252948)),
        4: ((Fraction(5, 8), 315408), (Fraction(1, 5), 145054)),
        5: ((Fraction(1), 1), (Fraction(8, 25), 28799)),
    }

    def setup(self, seed):
        warm = generators.petersen()
        metrics.vat_exact(warm)
        metrics.conductance_exact(warm)
        return [generators.connected_random_regular(20, d, seed)[0] for d in self.degrees]

    def run_pass(self, graphs):
        out = []
        for g in graphs:
            out.append(_call(metrics.vat_exact, g))
            out.append(_call(metrics.conductance_exact, g))
        return out

    def reference(self, graphs, seed):
        return None

    def failures(self, graphs, outcomes, ref, seed) -> int:
        failed = 0
        for i, r in enumerate(outcomes):
            g, d = graphs[i // 2], self.degrees[i // 2]
            recompute = metrics.set_vat if i % 2 == 0 else metrics.set_conductance
            try:
                ok = (
                    isinstance(r, metrics.MetricResult)
                    and 0 < r.value <= 1
                    and recompute(g, r.witness) == r.value
                )
            except Exception:
                ok = False
            if seed == self.ref_seed:
                ok = ok and (r.value, r.witness) == self.expected[d][i % 2]
            failed += not ok
        return failed


def _normalized_adjacency(g) -> np.ndarray:
    """D^-1/2 A D^-1/2, built independently of the program's own."""
    edges = np.array(list(g.edges()))
    deg = np.array(g.deg, dtype=float)
    w = 1.0 / np.sqrt(deg[edges[:, 0]] * deg[edges[:, 1]])
    mat = np.zeros((g.n, g.n))
    mat[edges[:, 0], edges[:, 1]] = w
    mat[edges[:, 1], edges[:, 0]] = w
    return mat


class SpectralN2000:
    """lambda2 and the sweep on random cubic graphs with n = 500 and 2000."""

    name = "spectral-n2000"
    ops_per_pass = 4
    sizes = (500, 2000)
    ref_seed = 11
    #: Per size at the reference seed: (lambda2, sweep value).
    expected = {
        500: (0.9407348713693502, Fraction(73, 747)),
        2000: (0.9445277166205471, Fraction(307, 2979)),
    }

    def setup(self, seed):
        graphs = [generators.connected_random_regular(n, 3, seed)[0] for n in self.sizes]
        # The first solve in a process pays LAPACK's start-up (about 1 s
        # against 0.04 s warm at n = 500); keep it out of the timed passes.
        np.linalg.eigh(_normalized_adjacency(graphs[0]))
        return graphs

    def run_pass(self, graphs):
        out = []
        for g in graphs:
            out.append(_call(spectral.lambda2, g))
            out.append(_call(spectral.sweep_conductance, g))
        return out

    def reference(self, graphs, seed):
        return [float(np.linalg.eigvalsh(_normalized_adjacency(g))[-2]) for g in graphs]

    def failures(self, graphs, outcomes, ref, seed) -> int:
        failed = 0
        for i, r in enumerate(outcomes):
            g, lam = graphs[i // 2], ref[i // 2]
            expected = self.expected[g.n] if seed == self.ref_seed else None
            if i % 2 == 0:
                ok = (
                    isinstance(r, spectral.SpectralResult)
                    and r.residual <= 1e-10
                    and abs(r.lambda2 - lam) <= 1e-9
                    and (expected is None or abs(r.lambda2 - expected[0]) <= 1e-9)
                )
            else:
                ok = isinstance(r, spectral.SweepResult) and self._sweep_ok(g, r, lam)
                ok = ok and (expected is None or r.value == expected[1])
            failed += not ok
        return failed

    @staticmethod
    def _sweep_ok(g, r, lam: float) -> bool:
        s = r.witness
        if not 0 < s < (1 << g.n) - 1:
            return False
        vol = sum(g.deg[v] for v in _bits(s))
        cut = sum((g.adj_masks[v] & ~s).bit_count() for v in _bits(s))
        return Fraction(cut, vol) == r.value and vol <= g.m and 1.0 - lam <= 2 * r.value


class WeightedN18:
    """The float VAT engine on a weighted random cubic graph with n = 18."""

    name = "weighted-n18"
    ops_per_pass = 3
    n = 18
    alpha, beta = Fraction(3, 2), Fraction(1, 2)

    def setup(self, seed):
        rng = random.Random(seed)
        g = generators.connected_random_regular(self.n, 3, seed)[0]
        cost10 = [rng.randint(1, 10) for _ in range(self.n)]
        value10 = [rng.randint(1, 10) for _ in range(self.n)]
        weighted = build_graph(
            self.n, list(g.edges()),
            costs=[c / 10 for c in cost10], values=[v / 10 for v in value10],
        )
        warm = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], costs=[0.5] * 4)
        metrics.weighted_vat_exact(warm)
        return g, weighted, cost10, value10

    def run_pass(self, inputs):
        g, weighted, _, _ = inputs
        a, b = float(self.alpha), float(self.beta)
        return [
            _call(metrics.weighted_vat_exact, weighted),
            _call(metrics.alpha_beta_weighted_vat_exact, weighted, a, b),
            _call(metrics.alpha_beta_vat_exact, g, a, b),
        ]

    def reference(self, inputs, seed):
        """Exact minimizers of the three forms, lowest encoding on ties.

        Weights are whole tenths, so every ratio is a quotient of
        integers and compares exactly by cross-multiplication.  The
        surviving component that counts is the one with the most
        vertices, ties to the lowest vertex id, as the program defines it.
        """
        g, _, cost10, value10 = inputs
        n, adj = g.n, g.adj_masks
        an, ad = self.alpha.numerator, self.alpha.denominator
        bn, bd = self.beta.numerator, self.beta.denominator
        full = (1 << n) - 1
        total10 = sum(value10)
        best: list[tuple[int, int, int] | None] = [None, None, None]
        for s in range(1, full):
            comp = _largest_component(adj, full & ~s)
            k = s.bit_count()
            cost = sum(cost10[v] for v in _bits(s))
            left10 = 10 + total10 - sum(value10[v] for v in _bits(s | comp))
            survivors = n - k - comp.bit_count() + 1
            candidates = (
                (cost, left10),
                (an * bd * cost + 10 * ad * bn, ad * bd * left10),
                (an * bd * k + ad * bn, ad * bd * survivors),
            )
            for j, (num, den) in enumerate(candidates):
                b = best[j]
                if b is None or num * b[1] < b[0] * den:
                    best[j] = (num, den, s)
        return [(Fraction(num, den), s) for num, den, s in best]

    def failures(self, inputs, outcomes, ref, seed) -> int:
        failed = 0
        for r, (value, witness) in zip(outcomes, ref):
            ok = (
                isinstance(r, metrics.WeightedValue)
                and r.witness == witness
                and abs(Fraction(r.value) - value) <= value / 10**12
            )
            failed += not ok
        return failed


WORKLOADS = {w.name: w for w in (Theorem(), ExactN20(), SpectralN2000(), WeightedN18())}
