"""Acceptance suite: every release criterion, one test each, with a
printed pass/fail line per criterion (run with ``pytest -s`` to see them
for passing runs)."""

import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import vattol as vt
from fraction_facts import mediant_between, series_lower_bound
from naive_oracle import naive_conductance, naive_vat

F = Fraction
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# The theorem sweep at seed 42: any change that must not alter a report
# has to keep these bytes and this summary.
THEOREM_CSV_SHA256 = "08e5d543c3069a4f9c19b3ccb094482329ca684f387a7b84bf4ac20190c13ac1"
THEOREM_SUMMARY = (
    "graphs=45951 reports=597363 holds=505460 strict=365829 failed=0 skipped=91903"
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "vattol.cli", *args],
        capture_output=True,
        text=True,
        timeout=900,
    )


def test_criterion_1_star_goldens():
    start = time.perf_counter()
    ok = True
    for leaves in range(3, 9):
        g = vt.star(leaves)
        tau = vt.vat_exact(g)
        phi = vt.conductance_exact(g)
        ok &= tau.value == F(1, leaves) and tau.witness_vertices == [0]
        ok &= phi.value == F(1)
        # independent confirmation for the smaller stars
        if leaves <= 6:
            ok &= naive_vat(g) == (tau.value, tau.witness)
            ok &= naive_conductance(g)[0] == phi.value
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _line(1, ok, f"star tolerance 1/k, conductance 1 for k=3..8 ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_family_goldens():
    checks = []
    c6 = vt.cycle(6)
    checks.append(vt.vat_exact(c6).value == F(2, 3))
    checks.append(vt.conductance_exact(c6).value == F(1, 3))
    checks.append(abs(vt.lambda2(c6).lambda2 - 0.5) <= 1e-9)
    k4 = vt.complete(4)
    checks.append(vt.vat_exact(k4).value == F(1))
    checks.append(vt.conductance_exact(k4).value == F(2, 3))
    checks.append(abs(vt.lambda2(k4).lambda2 - (-1 / 3)) <= 1e-9)
    k2 = vt.complete(2)
    checks.append(vt.vat_exact(k2).value == F(1))
    checks.append(vt.conductance_exact(k2).value == F(1))
    checks.append(abs(vt.lambda2(k2).lambda2 - (-1.0)) <= 1e-9)
    checks.append(abs(vt.lambda2(vt.petersen()).lambda2 - 1 / 3) <= 1e-9)
    ok = all(checks)
    _line(2, ok, f"{sum(checks)}/{len(checks)} golden values exact")
    assert ok


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    small = [(gid, g) for gid, g in vt.standard_corpus() if g.n <= 10]
    mismatches = []
    for gid, g in small:
        tau = vt.vat_exact(g)
        if naive_vat(g) != (tau.value, tau.witness):
            mismatches.append((gid, "vat"))
        phi = vt.conductance_exact(g)
        if naive_conductance(g) != (phi.value, phi.witness):
            mismatches.append((gid, "conductance"))
    elapsed = time.perf_counter() - start
    ok = len(small) >= 200 and not mismatches and elapsed < 120
    _line(
        3,
        ok,
        f"naive oracle agrees on {len(small)} graphs incl. witnesses "
        f"({elapsed:.1f}s)",
    )
    assert len(small) >= 200
    assert mismatches == []
    assert elapsed < 120


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def test_criterion_4_theorem_suite(theorem_verify_run):
    run = theorem_verify_run
    graphs = set()
    families = set()
    failures = []
    per_kind = {"exhaustive": set(), "random_regular": set()}
    for row in _read_rows(run.csv_path):
        graphs.add(row["graph_id"])
        kind = row["graph_id"].split(":")[0]
        per_kind.setdefault(kind, set()).add(row["graph_id"])
        if row["holds"] == "false":
            failures.append((row["graph_id"], row["theorem"]))
    family_count = len(graphs) - len(per_kind["exhaustive"]) - len(
        per_kind["random_regular"]
    )
    ok = (
        run.exit_code == 0
        and not failures
        and len(per_kind["exhaustive"]) == 45799  # all labeled graphs, n <= 8
        and len(per_kind["random_regular"]) == 100
        and family_count == 52
        and run.elapsed < 600
    )
    _line(
        4,
        ok,
        f"exit={run.exit_code}, {len(graphs)} graphs, {len(failures)} failures, "
        f"{run.elapsed:.0f}s",
    )
    assert run.exit_code == 0, run.stderr
    assert failures == []
    assert len(per_kind["exhaustive"]) == 45799
    assert len(per_kind["random_regular"]) == 100
    assert family_count == 52
    assert run.elapsed < 600


def test_theorem_csv_bytes_pinned(theorem_verify_run):
    with open(theorem_verify_run.csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert THEOREM_SUMMARY in theorem_verify_run.stderr.splitlines()
    assert digest == THEOREM_CSV_SHA256


def test_criterion_5_strictness_audit(theorem_verify_run):
    with open(os.path.join(GOLDEN_DIR, "strictness_audit.json")) as fh:
        golden = json.load(fh)
    counts: dict[str, int] = {}
    strict_claim = {"vat_lower": [], "vat_upper_unconditional": []}
    d_values = {"vat_lower": set(), "vat_upper_unconditional": set()}
    for row in _read_rows(theorem_verify_run.csv_path):
        if row["holds"] == "true" and row["strict_holds"] == "false":
            theorem = row["theorem"]
            counts[theorem] = counts.get(theorem, 0) + 1
            if theorem in strict_claim:
                strict_claim[theorem].append(row["graph_id"])
                d_values[theorem].add(row["d"])
    only_d1 = all(ds <= {"1"} for ds in d_values.values())
    ok = (
        counts == golden["equality_counts"]
        and strict_claim == golden["strict_claim_equalities"]
        and only_d1
    )
    _line(
        5,
        ok,
        f"audit matches golden ({sum(counts.values())} equalities, "
        f"strict-claim cases all at d=1)",
    )
    assert only_d1
    assert strict_claim == golden["strict_claim_equalities"]
    assert counts == golden["equality_counts"]


def test_criterion_6_fraction_lemmas():
    start = time.perf_counter()
    rng = random.Random(12345)
    sandwich_bad = 0
    for _ in range(10_000):
        a, x, b, y = (rng.randint(1, 10**6) for _ in range(4))
        if F(a, x) > F(b, y):
            a, x, b, y = b, y, a, x
        if F(a, x) == F(b, y):
            continue
        mid = mediant_between(a, x, b, y)
        if not (F(a, x) < mid < F(b, y)):
            sandwich_bad += 1
    series_bad = 0
    for _ in range(10_000):
        n = rng.randint(1, 20)
        pairs = [(rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(n)]
        least = min(F(a, b) for a, b in pairs)
        c = least * F(rng.randint(0, 64), 64)  # anything at or below the min
        if not series_lower_bound(pairs, c):
            series_bad += 1
    elapsed = time.perf_counter() - start
    ok = sandwich_bad == 0 and series_bad == 0 and elapsed < 10
    _line(6, ok, f"10k mediant + 10k series instances, 0 violations ({elapsed:.1f}s)")
    assert sandwich_bad == 0
    assert series_bad == 0
    assert elapsed < 10


def test_criterion_7_reduction_chain():
    bad = []
    for gid, g in vt.standard_corpus():
        base = vt.vat_exact(g)
        for r in (
            vt.alpha_beta_vat_exact(g, 1, 0),
            vt.weighted_vat_exact(g),
            vt.alpha_beta_weighted_vat_exact(g, 1, 0),
        ):
            if r.value != base.value or r.witness != base.witness:
                bad.append((gid, r.metric))
    ok = not bad
    _line(7, ok, f"identity chain exact on {len(vt.standard_corpus())} graphs")
    assert bad == []


def test_criterion_8_determinism(tmp_path):
    j1 = tmp_path / "jobs1.csv"
    j8 = tmp_path / "jobs8.csv"
    p1 = run_cli("verify", "--corpus", "standard", "--jobs", "1", "-o", str(j1))
    p8 = run_cli("verify", "--corpus", "standard", "--jobs", "8", "-o", str(j8))
    identical = j1.read_bytes() == j8.read_bytes()
    a = vt.random_regular(18, 3, seed=42)
    b = vt.random_regular(18, 3, seed=42)
    reproducible = list(a.edges()) == list(b.edges())
    ok = p1.returncode == 0 and p8.returncode == 0 and identical and reproducible
    _line(8, ok, "jobs=1 vs jobs=8 byte-identical; seeded generator reproducible")
    assert p1.returncode == 0 and p8.returncode == 0
    assert identical
    assert reproducible


def test_criterion_9_scale():
    g20, _ = vt.connected_random_regular(20, 3, 7)
    start = time.perf_counter()
    tau = vt.vat_exact(g20)
    phi = vt.conductance_exact(g20)
    exact_elapsed = time.perf_counter() - start
    g500, _ = vt.connected_random_regular(500, 3, 11)
    start = time.perf_counter()
    res = vt.lambda2(g500)
    sweep = vt.sweep_conductance(g500)
    spectral_elapsed = time.perf_counter() - start
    cheeger_sane = res.gap <= 2 * float(sweep.value) + 1e-9
    ok = (
        exact_elapsed < 300
        and spectral_elapsed < 30
        and cheeger_sane
        and 0 < tau.value <= 1
        and 0 < phi.value <= 1
    )
    _line(
        9,
        ok,
        f"n=20 exact in {exact_elapsed:.1f}s, n=500 spectral in "
        f"{spectral_elapsed:.1f}s, gap <= 2*sweep",
    )
    assert exact_elapsed < 300
    assert spectral_elapsed < 30
    assert cheeger_sane
