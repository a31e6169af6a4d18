"""Radon-Nikodym derivatives under finite lattice permutations.

A finitary permutation sigma of the lattice, acting on configurations
through the particle/hole-respecting modified action, transports the
measure to an equivalent one.  The density of the transported measure has
an explicit closed form a * xi^k * Phi_f.  This demo checks the closed
form against exact weight ratios, demonstrates the cocycle (chain) rule,
evaluates the xi -> 1 limit density with its certified bound, and runs
the transport identities E[F o sigma~] = E[mu_sigma F] for both the
pre-limit and the limit measure.  Run with

    python3 demos/04_quasi_invariance.py
"""

from gammakernel import (
    CylinderFunction,
    FiniteConfig,
    FinitaryPermutation,
    HalfInt,
    Params,
    Partition,
    SparseConfig,
    XiParams,
    apply_sigma_modified,
    j_transform,
    rn_compose,
    rn_exact,
    rn_limit,
    to_balanced_config,
    underline_limit_window,
    verify_limit_transport,
    verify_transport,
)

H = HalfInt
params = Params(0.5, 0.5)
xp = XiParams(params, 0.3)

print("=" * 72)
print("Closed form vs exact weight ratio")
print("=" * 72)
X = to_balanced_config(Partition((3, 1)))
print(f"configuration X = {[str(x) for x in X.points]}")
for word in ([0], [1], [-2], [1, 0], [2, -1, 0]):
    exact = rn_exact(word, X, xp)
    expr = rn_compose(word, X, params, N=4, radius=32)
    closed = expr.evaluate(X, xp.xi)
    print(
        f"  word {str(word):12s} exact {exact:.12f}  closed {closed:.12f}"
        f"  rel diff {abs(closed - exact) / exact:.2e}"
    )

print()
print("=" * 72)
print("Cocycle rule: density of a composition factors along the orbit")
print("=" * 72)
u, v = [2], [0, 1]
inv_u = FinitaryPermutation(u).inverse()
whole = rn_exact(u + v, X, xp)
chained = rn_exact(v, apply_sigma_modified(inv_u, X), xp) * rn_exact(u, X, xp)
print(f"mu(uv, X)              = {whole:.15f}")
print(f"mu(v, u~^-1 X) mu(u,X) = {chained:.15f}")

print()
print("=" * 72)
print("Limit density with certified truncation bound")
print("=" * 72)
# At xi -> 1 the density still makes sense on configurations whose inverse
# first moment is finite; far points enter through the rational tail of the
# closed form, and an unlisted remainder contributes a certified slack.
sparse = SparseConfig((H(29), H(-29)), tail_sum_bound=0.05)
expr = rn_compose([0], FiniteConfig(()), params, N=1, radius=32)
lim = rn_limit(expr, sparse)
print(
    f"limit density of sigma_0 at {{29/2, -29/2, ...}}: "
    f"{lim.value:.12f}  (+- {lim.bound:.2e})"
)

print()
print("=" * 72)
print("Transport identities")
print("=" * 72)
F = CylinderFunction.contains(H(1))
rep = verify_transport([1, 0], F, xp, max_size=16)
print(
    f"pre-limit (xi = {xp.xi}): lhs {rep.lhs:.12f}  rhs {rep.rhs:.12f}"
    f"  diff {rep.difference:.2e}  passed: {rep.passed}"
)
limit_kernel = j_transform(underline_limit_window(256, params))
rep = verify_limit_transport([1, 0], F, params, limit_kernel)
print(
    f"limit:               lhs {rep.lhs:.12f}  rhs {rep.rhs:.12f}"
    f"  diff {rep.difference:.2e}  passed: {rep.passed}"
)
