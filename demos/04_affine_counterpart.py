"""Affine counterpart on the 5-state benchmark: trading exactness for size.

The sign-enumerated LP is exact but spends one multiplier block per sign
pattern: n 2^(n+m) robust rows.  Restricting the per-plant envelope M to
an affine function of (A, B) keeps the count polynomial in n, at the cost
of some conservatism.  With n = 5, m = 3 the difference already matters.
"""

import time

import numpy as np

from quantstab import (QuantizerSpec, build_polytope, builtin_partition,
                       builtin_system, count_constraints_aarc,
                       count_constraints_sign, eval_affine_M,
                       generate_dataset, prune_redundant, robust_verify,
                       synthesize_aarc)

sys = builtin_system("sys2")
part = builtin_partition("p2")
print("5-state plant, spectral radius "
      f"{np.max(np.abs(np.linalg.eigvals(sys.A))):.4f} (unstable)")

# --- data and pruning -------------------------------------------------------

t0 = time.monotonic()
ds = generate_dataset(sys, part, T=350, seed=7)
poly = build_polytope(ds)
pruned = prune_redundant(poly)
print(f"polytope: {poly.num_faces} faces -> {pruned.num_faces} after "
      f"pruning ({time.monotonic() - t0:.1f}s)")

# Every data face constrains one row of [A B], so a robust row of state i
# only needs multipliers on the L_i faces of row i (the columns c with
# c % n == i).  That holds for the envelope rows too: row i of the envelope
# M depends on row i of [A B] alone, which loses nothing on such a product.
row_faces = [int(np.count_nonzero(pruned.G[:, i::sys.n].any(axis=1)))
             for i in range(sys.n)]
sign_size = count_constraints_sign(sys.n, sys.m, row_faces)
aarc_size = count_constraints_aarc(sys.n, sys.m, row_faces)
print(f"faces per row of [A B]: {row_faces}")
print(f"robust rows: sign {sign_size['robust_inequalities']}, "
      f"affine {aarc_size['robust_inequalities']}")
print(f"multipliers: sign {sign_size['farkas_variables']}, "
      f"affine {aarc_size['farkas_variables']}")
print(f"equality rows: sign {sign_size['equality_rows']}, "
      f"affine {aarc_size['equality_rows']}")

# --- synthesis at rho = 0.8 -------------------------------------------------

rho = 0.8
spec = QuantizerSpec.uniform(rho, sys.m)
t0 = time.monotonic()
# feasibility solve; bisecting lambda down is possible but slow at this size
res = synthesize_aarc(pruned, spec, mode="ess")
print(f"\naffine counterpart at rho = {rho}: {res.status} "
      f"({time.monotonic() - t0:.1f}s)")
cert = res.certificate
print("K =\n", np.round(cert.K, 4))

report = robust_verify(pruned, cert, spec)
print(f"independent verification: {report.verified}, "
      f"worst margin {report.worst_margin:.3e}")

# --- the adjustable envelope in action --------------------------------------

# M is not one matrix: it adapts affinely to the plant hypothesis.
param = res.extras["m_param"]
M_true = eval_affine_M(param, sys.A, sys.B)
Y = np.diag(cert.v)
worst = max(np.max(np.abs(sys.A @ Y + sys.B @ (b[:, None] * cert.S)))
            for b in spec.beta_vertices())
print(f"\nenvelope at the true plant: max M_ij = {np.max(M_true):.4f}, "
      f"max closed-loop entry = {worst:.4f}")
print("envelope row sums / v (certified <= 1):",
      np.round(M_true.sum(axis=1) / cert.v, 4))
