"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises one headline capability at its stated tolerance and
prints a one-line metric summary (visible with ``pytest -s`` and in failure
reports).  The suite is self-contained: expensive kernels are built once at
module scope and shared.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from gammakernel.lattice import (
    FiniteConfig,
    FinitaryPermutation,
    HalfInt,
    apply_sigma_modified,
)
from gammakernel.zmeasure import Params, XiParams, correlation_oracle
from gammakernel.kernels import (
    WindowKernel,
    density_constant,
    j_transform,
    underline_limit_window,
    underline_prelimit_window,
    weighted_blocks,
    window_points,
)
from gammakernel.kernels import _contour_grid, _difference_operator, _limit_closed_form
from gammakernel.fredholm import (
    InverseDecay,
    TestFunction,
    expectation_det,
    expectation_sum,
)
from gammakernel.rn import (
    CylinderFunction,
    rn_compose,
    rn_exact,
    verify_limit_transport,
    verify_transport,
)
from gammakernel.sampler import sample_window

H = HalfInt

EQUAL = Params(0.5, 0.5)
PRINCIPAL = Params(0.3 + 0.5j, 0.3 - 0.5j)
BOTH_SERIES = (EQUAL, PRINCIPAL)


@lru_cache(maxsize=None)
def limit_k_kernel(N: int, p: Params = EQUAL) -> WindowKernel:
    """J-transformed limit kernel on [-N, N], shared across tests."""
    return j_transform(underline_limit_window(N, p))


def crop(wk: WindowKernel, n: int) -> WindowKernel:
    """Restrict a window kernel to the centered subwindow [-n, n]."""
    idx = [i for i, x in enumerate(wk.points) if abs(x.twice) <= 2 * n - 1]
    return WindowKernel(n, wk.kind, wk.values[np.ix_(idx, idx)], wk.params, xi=wk.xi)


def _floats(pts) -> np.ndarray:
    """Half-integer points as the float array the grid routines take."""
    return np.array([float(t) for t in pts])


def balanced_window_configs(N: int) -> list[FiniteConfig]:
    """All configurations in [-N, N] with equal counts on each half-lattice."""
    pts = window_points(N)
    neg = [x for x in pts if x.twice < 0]
    pos = [x for x in pts if x.twice > 0]
    out = []
    for k in range(min(len(neg), len(pos)) + 1):
        for a in itertools.combinations(pos, k):
            for b in itertools.combinations(neg, k):
                out.append(FiniteConfig(a + b))
    return out


def test_criterion_1_oracle_correlation_agreement():
    """1-, 2-, 3-point correlations of the pre-limit contour kernel match
    exhaustive-enumeration probabilities on the window |x| <= 7/2."""
    pts = window_points(4)
    worst = 0.0
    checked = 0
    for p in BOTH_SERIES:
        xp = XiParams(p, 0.2)
        m = _contour_grid(_floats(pts), _floats(pts), xp)["value"]
        for size in (1, 2, 3):
            for idx in itertools.combinations(range(len(pts)), size):
                subset = [pts[i] for i in idx]
                oracle = correlation_oracle(subset, xp, max_size=18, process="maya")
                minor = float(np.linalg.det(m[np.ix_(idx, idx)]))
                diff = abs(oracle.value - minor)
                assert diff <= oracle.tail_mass + 1e-7, (
                    f"correlation mismatch at {subset} ({p}): "
                    f"oracle {oracle.value} vs minor {minor}"
                )
                worst = max(worst, diff)
                checked += 1
    print(
        f"\n[criterion 1] {checked} correlations x 2 series: "
        f"worst |oracle - minor| = {worst:.3e} (budget tail + 1e-7)"
    )


def test_criterion_2_four_method_kernel_consistency():
    """The integrable form, both contour representations, and the spectral
    projections all produce the same kernels at their stated accuracies."""
    # Limit kernel: integrable closed form vs contour integration on grids,
    # both contour representations on the mixed-sign (positive, negative)
    # block.
    xv = _floats(window_points(5))
    hi, lo = xv[xv > 0], xv[xv < 0]
    worst_contour = 0.0
    for p in BOTH_SERIES:
        got = _contour_grid(xv, xv, p)["value"]
        worst_contour = max(worst_contour, np.max(np.abs(got - _limit_closed_form(xv, xv, p))))
        for variant in ("sum", "difference"):
            got = _contour_grid(hi, lo, p, variant=variant)["value"]
            worst_contour = max(worst_contour, np.max(np.abs(got - _limit_closed_form(hi, lo, p))))
    assert worst_contour <= 1e-8

    # Pre-limit kernel: contour integration vs tridiagonal spectral
    # projection, on interiors where the window restriction is certified.
    xv = _floats(window_points(6))
    worst_spectral = 0.0
    for p in BOTH_SERIES:
        for xi in (0.5, 0.9):
            xp = XiParams(p, xi)
            wnd = underline_prelimit_window(6, xp, tol=1e-9)
            got = _contour_grid(xv, xv, xp)["value"]
            worst_spectral = max(worst_spectral, np.max(np.abs(wnd.values - got)))
            if xi == 0.5:
                # Raw fixed-window diagonalization is already interior-accurate
                # at moderate xi (correlation scale 1/(1-xi) << window).
                # [-6, 6] rows of the eigensolver's projection on [-32, 32].
                w, v = eigh_tridiagonal(*_difference_operator(32, xp))
                rows = v[32 - 6 : 32 + 6, w > 0.0]
                raw = rows @ rows.T
                worst_spectral = max(worst_spectral, np.max(np.abs(np.diag(raw) - np.diag(got))))
    assert worst_spectral <= 1e-6
    print(
        f"\n[criterion 2] limit integrable vs contour (both representations): "
        f"worst {worst_contour:.3e} (budget 1e-8); "
        f"pre-limit contour vs spectral: worst {worst_spectral:.3e} (budget 1e-6)"
    )


def test_criterion_3_density_asymptotics():
    """|x| rho_1(x) at x = +-99/2 is within 3% of the density constant for
    both parameter series."""
    rows = []
    for p in BOTH_SERIES:
        kern = j_transform(underline_limit_window(50, p))
        const = density_constant(p)
        for x in (H(99), H(-99)):
            rel = abs(abs(float(x)) * kern.entry(x, x) - const) / const
            assert rel <= 0.03, f"density asymptotics off at {x} ({p}): rel {rel}"
            rows.append(rel)
    print(
        f"\n[criterion 3] |x| rho_1 vs constant at +-99/2, both series: "
        f"worst rel = {max(rows):.4f} (budget 0.03)"
    )


def _random_test_functions(rng: random.Random, count: int) -> list[TestFunction]:
    """Half finite-support, half inverse-decay-envelope test functions."""
    out = []
    for k in range(count):
        radius = rng.choice((3, 4, 5, 6))
        vals = {x: rng.uniform(-0.5, 0.8) for x in window_points(radius)}
        tail = InverseDecay(rng.uniform(0.1, 0.5)) if k % 2 else None
        out.append(TestFunction(vals.items(), tail))
    return out


def test_criterion_4_fredholm_expectation_identity():
    """E[Phi_f] by weight enumeration equals the Fredholm determinant of the
    weighted kernel, within the combined error budget, for randomized f."""
    rng = random.Random(20260815)
    funcs = _random_test_functions(rng, 24)
    worst_excess = -math.inf
    checked = 0
    for xi in (0.1, 0.3):
        xp = XiParams(EQUAL, xi)
        kern = j_transform(underline_prelimit_window(32, xp, tol=1e-10))
        for f in funcs:
            s = expectation_sum(f, xp, max_size=18)
            d = expectation_det(f, kern, tol=1e-8, full_output=True)
            det_err = 10.0 * d.increments[-1] if d.increments else 0.0
            budget = s.error + det_err + 1e-9
            diff = abs(s.value - d.value)
            assert diff <= budget, (
                f"expectation mismatch at xi={xi}: sum {s.value} vs det {d.value}, "
                f"diff {diff} > budget {budget}"
            )
            worst_excess = max(worst_excess, diff - budget)
            checked += 1
    print(
        f"\n[criterion 4] {checked} randomized functionals, xi in (0.1, 0.3): "
        f"worst diff-over-budget margin = {worst_excess:.3e} (<= 0 passes)"
    )


def test_criterion_5_radon_nikodym_exactness():
    """The closed-form density equals the exact weight ratio to relative
    1e-10, exhaustively over every balanced configuration in the window
    [-4, 4] and every generator word of length <= 3; the cocycle identity
    holds at the same scale."""
    xi = 0.3
    xp = XiParams(EQUAL, xi)
    configs = balanced_window_configs(4)
    gens = range(-3, 4)
    words = [()]
    for length in (1, 2, 3):
        words.extend(itertools.product(gens, repeat=length))

    cache: dict[tuple, float] = {}

    def mu(word: tuple, X: FiniteConfig) -> float:
        key = (word, X.points)
        if key not in cache:
            cache[key] = rn_exact(list(word), X, xp)
        return cache[key]

    worst_closed = 0.0
    for word in words:
        for X in configs:
            exact = mu(word, X)
            closed = rn_compose(list(word), X, EQUAL, N=4, radius=8).evaluate(X, xi)
            rel = abs(closed - exact) / exact
            assert rel <= 1e-10, (
                f"closed form off for word {word} on {X}: "
                f"closed {closed} vs exact {exact}, rel {rel}"
            )
            worst_closed = max(worst_closed, rel)

    worst_cocycle = 0.0
    split_words = [w for w in words if len(w) >= 2]
    for word in split_words:
        for cut in range(1, len(word)):
            u, v = word[:cut], word[cut:]
            inv_u = FinitaryPermutation(list(u)).inverse()
            for X in configs:
                whole = mu(word, X)
                chained = mu(v, apply_sigma_modified(inv_u, X)) * mu(u, X)
                rel = abs(whole - chained) / whole
                assert rel <= 1e-10, (
                    f"cocycle identity off for {word} split at {cut} on {X}"
                )
                worst_cocycle = max(worst_cocycle, rel)
    print(
        f"\n[criterion 5] {len(words)} words x {len(configs)} configs: "
        f"worst closed-vs-exact rel = {worst_closed:.3e}; "
        f"worst cocycle rel = {worst_cocycle:.3e} (budget 1e-10)"
    )


def test_criterion_6_prelimit_transport_identity():
    """E[F o sigma~] equals E[mu F] under the pre-limit measure for ten
    (permutation, cylinder function) pairs, both series, at the enumeration
    tail budget."""
    f_half = CylinderFunction.contains(H(1))
    f_pair = CylinderFunction.from_callable(
        (H(-1), H(1)), lambda s: 1.0 + 0.5 * len(s) - 2.0 * (H(-1) in s)
    )
    f_wide = CylinderFunction.from_callable(
        (H(-3), H(1), H(5)), lambda s: math.cos(float(len(s)))
    )
    pairs = [
        ([0], f_half),
        ([1], f_half),
        ([-1], f_pair),
        ([2], f_wide),
        ([-2], f_half),
        ([1, 0], f_pair),
        ([0, 1], f_half),
        ([1, -1], f_wide),
        ([2, 1, 0], f_pair),
        ([-1, 0, 1], f_wide),
    ]
    worst = 0.0
    for p in BOTH_SERIES:
        xp = XiParams(p, 0.2)
        for word, func in pairs:
            rep = verify_transport(word, func, xp, max_size=16)
            assert rep.passed, (
                f"transport identity failed for word {word} ({p}): "
                f"lhs {rep.lhs} vs rhs {rep.rhs}, diff {rep.difference} > {rep.bound}"
            )
            worst = max(worst, rep.difference)
    print(
        f"\n[criterion 6] {len(pairs)} (word, F) pairs x 2 series: "
        f"worst |lhs - rhs| = {worst:.3e} (budget tail-based, passes)"
    )


def test_criterion_7_limit_transport_and_xi_convergence():
    """The transport identity holds for the limit measure at the declared
    stabilization budget, and pre-limit expectations converge to the limit
    expectation as xi -> 1 with monotonically shrinking gaps."""
    kern = limit_k_kernel(256)
    f_a = CylinderFunction.contains(H(1))
    f_b = CylinderFunction.from_callable(
        (H(-1), H(1), H(3)), lambda s: 0.5 + 0.25 * len(s) - 1.0 * (H(1) in s)
    )
    worst = 0.0
    for word in ([0], [1], [-1], [1, 0]):
        for func in (f_a, f_b):
            rep = verify_limit_transport(word, func, EQUAL, kernel=kern, atol=1e-5)
            assert rep.passed, (
                f"limit transport failed for word {word}: "
                f"diff {rep.difference} > {rep.tolerance}"
            )
            worst = max(worst, rep.difference)

    f = TestFunction.from_callable(lambda t: -0.3 / abs(t), 4)
    target = expectation_det(f, limit_k_kernel(8))
    gaps = []
    for xi in (0.9, 0.99, 0.999):
        xp = XiParams(EQUAL, xi)
        kx = j_transform(underline_prelimit_window(8, xp, tol=1e-8))
        gaps.append(abs(expectation_det(f, kx) - target))
    assert gaps[0] > gaps[1] > gaps[2], f"gaps not shrinking: {gaps}"
    print(
        f"\n[criterion 7] transport: worst diff = {worst:.3e} (budget 1e-5); "
        f"xi-sweep gaps to limit expectation = "
        + " > ".join(f"{g:.4f}" for g in gaps)
    )


def test_criterion_8_block_norm_convergence():
    """The weighted kernel's diagonal-block trace and off-diagonal-block
    Hilbert-Schmidt norm are Cauchy in the window size, and their pre-limit
    values approach the limit values monotonically as xi -> 1."""
    kern = limit_k_kernel(256)
    chain = [weighted_blocks(crop(kern, n)) for n in (16, 32, 64, 128)]
    chain.append(weighted_blocks(kern))
    inc_tr = [abs(b.trace_pp - a.trace_pp) for a, b in zip(chain, chain[1:])]
    inc_hs = [abs(b.hs_pm - a.hs_pm) for a, b in zip(chain, chain[1:])]
    assert all(b < a for a, b in zip(inc_tr, inc_tr[1:])), inc_tr
    assert all(b < a for a, b in zip(inc_hs, inc_hs[1:])), inc_hs
    assert inc_tr[-1] < 1e-3 and inc_hs[-1] < 1e-3

    limit = chain[-1]
    gap_tr, gap_hs = [], []
    for xi in (0.9, 0.99, 0.999):
        xp = XiParams(EQUAL, xi)
        kx = j_transform(underline_prelimit_window(256, xp, tol=1e-8))
        blocks = weighted_blocks(kx)
        gap_tr.append(abs(blocks.trace_pp - limit.trace_pp))
        gap_hs.append(abs(blocks.hs_pm - limit.hs_pm))
    assert gap_tr[0] > gap_tr[1] > gap_tr[2], gap_tr
    assert gap_hs[0] > gap_hs[1] > gap_hs[2], gap_hs
    print(
        f"\n[criterion 8] doubling increments at N=256: trace {inc_tr[-1]:.3e}, "
        f"HS {inc_hs[-1]:.3e} (budget 1e-3); xi-sweep gaps trace "
        + " > ".join(f"{g:.4f}" for g in gap_tr)
        + ", HS "
        + " > ".join(f"{g:.4f}" for g in gap_hs)
    )


def test_criterion_9_sampler_statistics():
    """10^5 exact window samples reproduce the kernel diagonal within three
    standard errors at >= 95% of grid points, and seeded runs are bit-exact."""
    kern = underline_limit_window(10, EQUAL)
    batch = sample_window(kern, 100_000, seed=20260815)
    hits = 0
    worst_sigma = 0.0
    for x, est in batch.diagonal:
        exact = kern.entry(x, x)
        sigma = abs(est.value - exact) / est.se
        worst_sigma = max(worst_sigma, sigma)
        hits += sigma <= 3.0
    total = len(batch.diagonal)
    assert hits >= math.ceil(0.95 * total), f"only {hits}/{total} points within 3 SE"

    again = sample_window(kern, 5000, seed=31)
    assert sample_window(kern, 5000, seed=31).configs == again.configs
    print(
        f"\n[criterion 9] {batch.count} samples on 2N={total} points: "
        f"{hits}/{total} within 3 SE (worst {worst_sigma:.2f} SE); "
        f"seeded rerun bit-exact"
    )
