"""Expectations of multiplicative functionals, two ways.

For a test function f on the lattice, the multiplicative functional
Phi_f(X) = prod_{x in X} (1 + f(x)) has expectation equal to a Fredholm
determinant of the f-weighted kernel.  This demo computes E[Phi_f] by
direct weight enumeration and by the determinant on nested windows, and
shows the certified sparseness bound used when evaluating Phi_f on
configurations with infinite support.  Run with

    python3 demos/03_fredholm_expectations.py
"""

from gammakernel import (
    HalfInt,
    InverseDecay,
    Params,
    SparseConfig,
    TestFunction,
    XiParams,
    expectation_det,
    expectation_sum,
    j_transform,
    phi_eval,
    underline_prelimit_window,
)

H = HalfInt
xp = XiParams(Params(0.5, 0.5), 0.3)

print("=" * 72)
print("E[Phi_f]: weight enumeration vs Fredholm determinant")
print("=" * 72)

kern = j_transform(underline_prelimit_window(32, xp, tol=1e-10))
examples = {
    "indicator bump": TestFunction({H(1): 0.5}.items()),
    "odd two-point": TestFunction({H(-1): -0.4, H(3): 0.25}.items()),
    "smooth window": TestFunction.from_callable(lambda t: -0.3 / (1.0 + t * t), 5),
}
for name, f in examples.items():
    s = expectation_sum(f, xp, max_size=18)
    d = expectation_det(f, kern, tol=1e-10, full_output=True)
    print(f"\n{name}:")
    print(f"  enumeration  {s.value:.15f}  (error bar {s.error:.2e})")
    print(f"  determinant  {d.value:.15f}  on windows {d.windows}")
    print(f"  |difference| {abs(s.value - d.value):.2e}")

print()
print("=" * 72)
print("Phi_f on a sparse configuration with a certified tail bound")
print("=" * 72)

# f decays like 0.2/|x| beyond the table; the configuration has two far
# points beyond it plus a declared bound on the inverse first moment of its
# unlisted tail.  f is known out there only through its envelope, so the far
# points enter the bound with the tail: expm1(0.2 (0.04 + 2/41 + 2/63)).
f = TestFunction({H(1): 0.3, H(-1): -0.2}.items(), tail=InverseDecay(0.2))
sparse = SparseConfig((H(1), H(-1), H(41), H(-63)), tail_sum_bound=0.04)
value, rel_bound = phi_eval(f, sparse)
print(f"Phi_f(core points) = {value:.12f}")
print(f"certified relative slack from the far points and the tail: {rel_bound:.3e}")
