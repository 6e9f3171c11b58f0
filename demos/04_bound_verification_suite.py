"""Mechanically verifying the resilience inequalities over a corpus.

Each check compares two exactly computed sides of one inequality on one
graph; a suite run streams structured reports.  Bounds are judged
non-strictly, with equality cases collected separately, because several
of them are achieved exactly on boundary graphs (the single edge K2 most
prominently).
"""

import vattol as vt
from vattol.verify import run_suite

graphs = []
graphs += [(f"cycle:{n}", vt.cycle(n)) for n in range(3, 13)]
graphs += [(f"complete:{n}", vt.complete(n)) for n in range(2, 8)]
graphs += [(f"hypercube:{k}", vt.hypercube(k)) for k in (2, 3)]
graphs += [("petersen", vt.petersen()), ("star:5", vt.star(5))]
graphs += [
    (f"exhaustive:6,3,i={i}", g)
    for i, g in enumerate(vt.enumerate_small_regular(6, 3))
]

result = run_suite(graphs, checks="all")
print(f"{len(graphs)} graphs; the summary that `vattol verify` prints:")
print(result.summary.lines(), end="")
assert result.all_hold

print()
print("Equality cases (bound met exactly), grouped by inequality:")
for theorem, count in sorted(result.summary.equality_counts.items()):
    examples = [r.graph_id for r in result.equalities if r.theorem == theorem][:3]
    print(f"  {theorem:24s} {count:3d}   e.g. {', '.join(examples)}")

print()
print("Skips are first-class outcomes, recorded with their reason:")
star_skips = [
    r for r in result.reports if r.graph_id == "star:5" and r.skipped
]
print(f"  star:5 skipped {len(star_skips)} regular-only checks "
      f"({star_skips[0].skip_reason})")

print()
print("The sharp conditional upper bound applies when phi < 1/d^2; long")
print("cycles are the classic family satisfying it, and they meet it exactly:")
for r in result.reports:
    if r.theorem == "vat_upper_conditional" and not r.skipped:
        print(f"  {r.graph_id:10s} tau = {r.lhs}  d*phi = {r.rhs}  "
              f"equality={r.equality}")
