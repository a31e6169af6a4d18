"""Exact sampling of the determinantal window process.

Draws exact samples of the lattice process restricted to a finite window
(spectral decomposition, Bernoulli selection of eigenvectors, then a
diagonal Schur-complement chain), checks the empirical one- and
two-point statistics against the kernel, and applies the particle/hole
involution to reach the finitary process.  Sampling is bit-reproducible
for a fixed seed, and a batch is a prefix of a larger one drawn with the
same seed.  Run with

    python3 demos/05_sampling.py
"""

from gammakernel import (
    HalfInt,
    Params,
    TestFunction,
    expectation_det,
    j_transform,
    sample_underline_then_involute,
    sample_window,
    underline_limit_window,
)

H = HalfInt
params = Params(0.5, 0.5)
kern = underline_limit_window(6, params)

print("=" * 72)
print("Window samples vs kernel predictions")
print("=" * 72)
batch = sample_window(kern, 20_000, seed=2026)
print(f"{batch.count} samples on [-{kern.N}, {kern.N}], algorithm: {batch.algorithm}")
print(f"mean points per sample: {batch.mean_count()}")
print(f"{'x':>6s} {'empirical':>12s} {'+-':>9s} {'kernel':>12s}")
for x in (H(-5), H(-1), H(1), H(5)):
    est = batch.rho1(x)
    print(f"{str(x):>6s} {est.value:12.6f} {est.se:9.6f} {kern.entry(x, x):12.6f}")

x, y = H(-1), H(1)
pair = batch.pair_frequency(x, y)
exact = kern.entry(x, x) * kern.entry(y, y) - kern.entry(x, y) ** 2
print(f"pair ({x}, {y}): empirical {pair.value:.6f} (+- {pair.se:.6f})  minor {exact:.6f}")

print()
print("=" * 72)
print("Particle/hole involution: sampling the finitary process")
print("=" * 72)
flipped = sample_underline_then_involute(kern, 20_000, seed=2026)
f = TestFunction({H(-1): -0.6, H(1): 0.4, H(3): -0.2}.items())
emp = flipped.phi_mean(f)
kj = j_transform(kern)
print(f"E[Phi_f] empirical:   {emp.value:.6f} (+- {emp.se:.6f})")
print(f"E[Phi_f] determinant: {expectation_det(f, kj):.6f}")
print(f"avoidance of {{-1/2}} empirical: {flipped.avoidance([H(-1)]).value:.6f}")
print(f"                     exact:      {1.0 - kj.entry(H(-1), H(-1)):.6f}")

print()
print("=" * 72)
print("Reproducibility")
print("=" * 72)
again = sample_window(kern, 1000, seed=2026)
first = sample_window(kern, 1000, seed=2026)
print(f"two runs with seed 2026 identical: {first.configs == again.configs}")
other = sample_window(kern, 1000, seed=2027)
print(f"run with seed 2027 identical:      {other.configs == first.configs}")
