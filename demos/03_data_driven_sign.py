"""Data-driven robust synthesis from interval-quantized transitions.

The plant is never identified.  Observed transitions only reveal the bin
of each next-state component, which carves out a polytope of consistent
plants; the sign-enumerated LP then stabilizes every one of them at once.
"""

import numpy as np

from quantstab import (QuantizerSpec, build_polytope, builtin_partition,
                       builtin_system, closed_loop_vertex_gain,
                       contains_plant, generate_dataset, prune_redundant,
                       robust_verify, synthesize_sign)

sys = builtin_system("sys1")
part = builtin_partition("p1")

# --- collect quantized data -------------------------------------------------

ds = generate_dataset(sys, part, T=100, seed=1)
poly = build_polytope(ds)
print(f"dataset: {len(ds)} transitions -> polytope with {poly.num_faces} "
      f"faces in R^{poly.dim}")

pruned = prune_redundant(poly)
print(f"after pruning: {pruned.num_faces} nonredundant faces")
print("true plant consistent:", contains_plant(pruned, sys.A, sys.B))

# --- robust synthesis over every consistent plant ---------------------------

rho = 0.7
spec = QuantizerSpec.uniform(rho, sys.m)
res = synthesize_sign(pruned, spec, mode="ess", objective="min-lambda")
cert = res.certificate
print(f"\nrho = {rho}: robustly feasible, certified lambda = {cert.lam:.4f}")
print("K =\n", np.round(cert.K, 4))

# the size of the exact Farkas LP; synthesize_sign reaches the same answer
# by vertex cuts, without solving it
counts = res.extras["counts"]
print(f"Farkas LP size: {counts['robust_inequalities']} robust rows, "
      f"{counts['farkas_variables']} multiplier variables")

# --- independent audit ------------------------------------------------------

# support-function check of every robust inequality, no multipliers reused
report = robust_verify(pruned, cert, spec)
print(f"\nindependent verification: {report.verified}, "
      f"worst margin {report.worst_margin:.3e}")
wc = report.worst_case
print("tightest at row", wc["i"], "sign pattern", wc["alpha"])

# the (unknown to the method) true plant is one of the consistent ones
gain = closed_loop_vertex_gain(sys, cert.K, cert.v, spec)
print(f"true-plant vertex gain {gain:.4f} <= certified {cert.lam:.4f}")
