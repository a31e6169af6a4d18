"""Partitions, their lattice encodings, and the two-parameter measure.

Walks through the basic objects: Young diagrams with modified Frobenius
coordinates, the two point-configuration encodings (finite balanced
configuration, and the semi-infinite Maya diagram as its occupancy row under
the particle/hole involution), and the probability weights
the measure assigns to partitions.  Everything here is exact integer /
log-space arithmetic; run it with

    python3 demos/01_weights_and_partitions.py
"""

import math

import numpy as np

from gammakernel import (
    HalfInt,
    Params,
    Partition,
    XiParams,
    correlation_oracle,
    enumerate_weights,
    log_weight_partition,
    to_balanced_config,
)
from gammakernel.lattice import involute_occupancy

H = HalfInt

print("=" * 72)
print("Young diagrams and their lattice encodings")
print("=" * 72)

lam = Partition((4, 3, 1))
print(f"partition {lam.rows}, size {lam.size}")
print(f"modified Frobenius coordinates (arm+1/2, leg+1/2): {lam.frobenius}")

config = to_balanced_config(lam)
print(f"balanced configuration X(lambda): {[str(x) for x in config.points]}")
print(f"  balanced: {config.is_balanced()}")

# The Maya diagram {lambda_i - i + 1/2} is X(lambda) XOR the negative half:
# the involution of X(lambda)'s occupancy row on the probed points.
probe = [H(-7), H(-5), H(-3), H(-1), H(1), H(3), H(5), H(7)]
maya = involute_occupancy(np.array([[x in config for x in probe]]), probe)[0]
print("Maya diagram membership on |x| <= 7/2:")
print("  " + "  ".join(f"{str(x)}:{'*' if b else '.'}" for x, b in zip(probe, maya)))

print()
print("=" * 72)
print("Measure weights")
print("=" * 72)

# A complementary-series pair (both parameters real, same unit interval)
# and a principal-series pair (complex conjugates).
for params in (Params(0.5, 0.5), Params(0.3 + 0.5j, 0.3 - 0.5j)):
    xp = XiParams(params, 0.4)
    print(f"\nparameters {params}, xi = {xp.xi}")
    for rows in ((), (1,), (2,), (1, 1), (2, 1)):
        w = math.exp(log_weight_partition(Partition(rows), xp))
        print(f"  weight{str(rows):12s} = {w:.12f}")
    items, tail = enumerate_weights(xp, max_size=24)
    total = math.fsum(w for _, w in items)
    print(f"  sum over |lambda| <= 24: {total:.15f}  (tail bound {tail:.3e})")

print()
print("=" * 72)
print("Correlations by exhaustive enumeration")
print("=" * 72)

xp = XiParams(Params(0.5, 0.5), 0.4)
for pts in ([H(1)], [H(-1)], [H(1), H(3)]):
    oracle = correlation_oracle(pts, xp, max_size=22, process="maya")
    names = ", ".join(str(x) for x in pts)
    print(
        f"P[{{{names}}} in Maya diagram] = {oracle.value:.12f}"
        f"  (+- {oracle.tail_mass:.2e})"
    )
