"""Exact metric values, witnesses, and the weighted generalizations.

Every form, weighted or not, is computed in exact rational arithmetic,
and the reported witness is reproducible: among all minimizing sets, the
one whose bit-mask encoding is smallest.
"""

from fractions import Fraction

import vattol as vt

print("Set-level metrics are exact fractions:")
c6 = vt.cycle(6)
s = vt.mask_from_vertices([0, 3])
print(f"  set_vat(C6, {{0,3}}) = {vt.set_vat(c6, s)}   "
      f"(two antipodal deletions split the cycle)")
arc = vt.mask_from_vertices([0, 1, 2])
print(f"  set_conductance(C6, {{0,1,2}}) = {vt.set_conductance(c6, arc)}")

print()
print("Exact minimization returns value plus witness:")
for name, g in [("cycle(6)", c6), ("hypercube(3)", vt.hypercube(3)),
                ("petersen", vt.petersen())]:
    tau = vt.vat_exact(g)
    phi = vt.conductance_exact(g)
    print(f"  {name:12s} tau = {str(tau.value):4s} at {tau.witness_vertices}   "
          f"phi = {str(phi.value):4s} at {phi.witness_vertices}")

print()
print("Linear reweighting of the attack cost ((alpha, beta) form):")
star = vt.star(5)
for alpha, beta in [(1, 0), (2, 0), (1, 1)]:
    r = vt.alpha_beta_vat_exact(star, alpha, beta)
    print(f"  star(5) alpha={alpha} beta={beta}: value = {r.value} "
          f"at {r.witness_vertices}")

print()
print("Cost/value weights move the optimal attack away from pricey hubs:")
weighted_star = vt.build_graph(
    6, [(0, i) for i in range(1, 6)],
    costs=[10.0, 1.0, 1.0, 1.0, 1.0, 1.0],   # the hub is expensive to remove
    values=[1.0] * 6,
)
plain = vt.weighted_vat_exact(vt.star(5))
priced = vt.weighted_vat_exact(weighted_star)
print(f"  unit weights:  value = {plain.value} at {plain.witness_vertices}")
print(f"  costly hub:    value = {priced.value} at {priced.witness_vertices}")

print()
print("With unit weights every generalization collapses to plain VAT, exactly:")
g = vt.petersen()
base = vt.vat_exact(g)
chain = [
    vt.alpha_beta_vat_exact(g, 1, 0),
    vt.weighted_vat_exact(g),
    vt.alpha_beta_weighted_vat_exact(g, 1, 0),
]
assert all(r.value == base.value and r.witness == base.witness for r in chain)
print(f"  petersen: all four forms return {base.value} "
      f"at {base.witness_vertices}")
assert isinstance(base.value, Fraction)
