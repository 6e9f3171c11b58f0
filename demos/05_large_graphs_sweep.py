"""Beyond exact enumeration: spectral bounds for larger graphs.

Exact conductance enumerates subsets, so it stops being practical past a
few dozen vertices.  For larger graphs the spectral sweep gives a
certified upper bound (every sweep prefix is an admissible set), and
Cheeger's inequality turns the gap into a lower-bound sanity check:
gap <= 2 * phi <= 2 * sweep value.
"""

import time

import vattol as vt

print("Seeded random regular graphs reproduce identically:")
a = vt.random_regular(500, 3, seed=11)
b = vt.random_regular(500, 3, seed=11)
assert list(a.edges()) == list(b.edges())
print(f"  random_regular(500, 3, seed=11): n={a.n} m={a.m}, bit-identical rerun")

g, used = vt.connected_random_regular(500, 3, 11)
print(f"  first connected sample at seed {used}")

start = time.perf_counter()
sweep = vt.sweep_conductance(g)
res = sweep.spectral  # the lambda2 solve that ordered the sweep
elapsed = time.perf_counter() - start

print()
print(f"n=500 cubic expander, solved in {elapsed:.2f}s:")
print(f"  lambda2       = {res.lambda2:.6f}  (residual {res.residual:.1e})")
print(f"  spectral gap  = {res.gap:.6f}")
print(f"  sweep bound   = {sweep.value} = {float(sweep.value):.6f} "
      f"(cut set of {sweep.witness.bit_count()} vertices)")
assert res.gap <= 2 * float(sweep.value) + 1e-9
print(f"  sanity: gap <= 2 * sweep  ({res.gap:.4f} <= {2 * float(sweep.value):.4f})")

print()
print("On small graphs the sweep is checkably above the exact value:")
for name, g in [("cycle(12)", vt.cycle(12)), ("petersen", vt.petersen()),
                ("hypercube(4)", vt.hypercube(4))]:
    exact = vt.conductance_exact(g).value
    bound = vt.sweep_conductance(g).value
    print(f"  {name:12s} exact = {str(exact):5s}  sweep = {str(bound):5s}  "
          f"{'(tight)' if exact == bound else ''}")
