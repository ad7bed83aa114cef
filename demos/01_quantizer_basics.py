"""Logarithmic quantization in isolation: levels, sector bound, data bins."""

import numpy as np

from quantstab import (Partition, QuantizerSpec, delta_from_rho,
                       interval_quantize, log_quantize, log_quantize_vector)

# A logarithmic quantizer with density rho maps z to the nearest level
# +-rho^i in the multiplicative sense.  Coarseness is governed by the
# sector bound delta = (1 - rho) / (1 + rho).

for rho in (0.9, 0.5, 0.2):
    print(f"rho = {rho:.1f}  ->  delta = {delta_from_rho(rho):.4f}")

rho = 0.4
delta = delta_from_rho(rho)
print(f"\nlevels around 1 for rho = {rho}:",
      [round(rho ** i, 4) for i in range(2, -3, -1)])

# The defining property: the relative error never exceeds delta.
rng = np.random.default_rng(0)
z = rng.uniform(-100, 100, size=10_000)
err = np.array([abs(zi - log_quantize(zi, rho)) for zi in z])
print(f"max |z - g(z)| / |z| = {np.max(err / np.abs(z)):.6f}"
      f"  (bound delta = {delta:.6f})")

# Vector inputs quantize per channel, each with its own density.
spec = QuantizerSpec(rho=np.array([0.5, 1.0]))
u = np.array([1.2, 1.2])
print(f"\ng({u}) with densities (0.5, 1.0) = {log_quantize_vector(u, spec)}")

# The closed loop under quantization lives in a sector family: its vertex
# gains are evaluated over all corners prod_j {1 - delta_j, 1 + delta_j}.
print("sector vertices:")
print(QuantizerSpec.uniform(0.5, 2).beta_vertices())

# State measurements are interval-quantized: we only learn the bin.
part = Partition.regular(-4, 4, 1)
for value in (0.368, 3.7, 10.0):
    lo, hi = interval_quantize(value, part)
    print(f"x+ = {value:6.3f}  ->  bin [{lo}, {hi}]")
