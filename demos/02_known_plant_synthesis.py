"""Known-plant quantized stabilization on the 3-state benchmark.

Finds state feedback making the closed loop superstable for every linear
loop in the quantizer's sector family, then simulates the true nonlinear
quantized loop and checks the certified decay rate.
"""

import numpy as np

from quantstab import (QuantizerSpec, builtin_system, closed_loop_vertex_gain,
                       decay_check, min_feasible_rho, plant_vec,
                       scaled_infty_norm, simulate_quantized, synthesize_sign)

sys = builtin_system("sys1")
z = plant_vec(sys.A, sys.B)   # the known plant: a one-point plant set
print("A =\n", sys.A)
print("open-loop ||A||_inf =", f"{scaled_infty_norm(sys.A, np.ones(3)):.4f}",
      " eigenvalues:", np.round(np.sort(np.linalg.eigvals(sys.A).real), 4))

# --- extended superstabilization at a moderate density ---------------------

rho = 0.5
spec = QuantizerSpec.uniform(rho, sys.m)
res = synthesize_sign(z, spec, mode="ess", objective="min-lambda")
cert = res.certificate
print(f"\nrho = {rho}: lambda = {cert.lam:.4f}")
print("K =\n", np.round(cert.K, 4))
print("v =", np.round(cert.v, 4))

# audit: the certified gain dominates every sector-vertex closed loop
gain = closed_loop_vertex_gain(sys, cert.K, cert.v, spec)
print(f"worst vertex gain = {gain:.4f} <= lambda")

# --- simulate the actual quantized loop ------------------------------------

x0 = np.array([1.0, -1.0, 0.5])
traj, status = simulate_quantized(sys, cert.K, spec, x0, 100)
w = np.max(np.abs(traj) / cert.v[None, :], axis=1)
print(f"\nsimulation: {status}; weighted norm {w[0]:.3f} -> {w[-1]:.2e}")
print("decay bound respected:", decay_check(traj, cert.v, cert.lam))

# --- how coarse can the quantizer get? -------------------------------------

for mode in ("ss", "ess"):
    def probe(r, mode=mode):
        return synthesize_sign(z, QuantizerSpec.uniform(r, sys.m), mode=mode)

    rho_star, _ = min_feasible_rho(probe, tol=1e-4)
    print(f"minimal density ({mode}): {rho_star:.4f}")
