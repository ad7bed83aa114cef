"""Gain-versus-density tradeoff and the conservatism ladder.

Sweeps the quantizer density and records the best certified gain at each
point, then compares the minimal workable density across three levels of
knowledge: the true plant, exact data-driven synthesis, and the affine
counterpart on the same data.
"""

import numpy as np

from quantstab import (QuantizerSpec, build_polytope, builtin_partition,
                       builtin_system, generate_dataset, min_feasible_rho,
                       plant_vec, prune_redundant, synthesize_aarc,
                       synthesize_sign)

sys = builtin_system("sys1")
part = builtin_partition("p1")
ds = generate_dataset(sys, part, T=100, seed=1)
poly = prune_redundant(build_polytope(ds))
m = sys.m
z = plant_vec(sys.A, sys.B)   # the known plant: a one-point plant set

# --- lambda vs rho ----------------------------------------------------------

print("rho     known-plant   data-driven")
for rho in np.linspace(1.0, 0.3, 8):
    spec = QuantizerSpec.uniform(rho, m)
    nom = synthesize_sign(z, spec, mode="ess", objective="min-lambda")
    dat = synthesize_sign(poly, spec, mode="ess", objective="min-lambda")
    nl = f"{nom.certificate.lam:.4f}" if nom.feasible else "  -   "
    dl = f"{dat.certificate.lam:.4f}" if dat.feasible else "  -   "
    print(f"{rho:.3f}     {nl}        {dl}")

# Coarser quantization (smaller rho) widens the sector, so the certified
# gain can only grow along the sweep, in both columns.

# --- minimal densities ------------------------------------------------------


def nominal_probe(r):
    return synthesize_sign(z, QuantizerSpec.uniform(r, m), mode="ess")


def sign_probe(r):
    return synthesize_sign(poly, QuantizerSpec.uniform(r, m), mode="ess")


def aarc_probe(r):
    return synthesize_aarc(poly, QuantizerSpec.uniform(r, m), mode="ess")


print()
for name, probe in (("known plant", nominal_probe),
                    ("data, exact", sign_probe),
                    ("data, affine", aarc_probe)):
    rho_star, _ = min_feasible_rho(probe, tol=1e-4)
    shown = f"{rho_star:.4f}" if rho_star is not None else "none <= 1"
    print(f"minimal density, {name:13s}: {shown}")

# Less knowledge costs density: the data-driven thresholds sit at or above
# the known-plant one, and the affine restriction can only push higher.
