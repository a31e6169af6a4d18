"""Tests for the lattice-permutation density machinery.

Three independent routes to the same density are cross-checked: the exact
weight ratio, the single-generator closed form, and the word composition via
the cocycle rule.  The transport harnesses are then checked end to end for a
pre-limit measure (exhaustive enumeration) and for the limit measure
(determinant sums over nested windows).
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from gammakernel.lattice import (
    FinitaryPermutation,
    FiniteConfig,
    HalfInt,
    Partition,
    apply_sigma_modified,
    partitions_up_to,
    to_balanced_config,
)
from gammakernel.zmeasure import (
    Params,
    XiParams,
    enumerate_weights,
    log_weight_config,
    log_weight_partition,
    pair_product,
)
from gammakernel.fredholm import (
    InverseDecay,
    SparseConfig,
    TestFunction,
    ZeroTail,
    _doubling_windows,
    _factor,
    _weighted_kernel,
    _window_dets,
)
from gammakernel.kernels import (
    j_transform,
    underline_limit_window,
    underline_prelimit_window,
    window_points,
)
from gammakernel.rn import (
    CylinderFunction,
    RnExpression,
    _avoidance_rows,
    _compose,
    _limit_groups,
    rn_compose,
    rn_exact,
    rn_limit,
    verify_limit_transport,
    verify_transport,
    word_window,
)
from test_lattice import modified_by_maya

H = HalfInt
EQUAL = Params(0.5, 0.5)
PRINCIPAL = Params(0.4 + 0.7j, 0.4 - 0.7j)

BALANCED = [to_balanced_config(lam) for lam in partitions_up_to(7)]


def _modified_by_maya(word, X):
    """The set reference for sigma~ (test_lattice.modified_by_maya) on a
    FiniteConfig."""
    return FiniteConfig(H(t) for t in modified_by_maya(word, {x.twice for x in X}))


def xi_params(base, xi):
    return XiParams(base, xi)


def _det_one_plus(a):
    """det(I + a) by slogdet, the reference for _window_dets."""
    sign, logmag = np.linalg.slogdet(np.eye(a.shape[0]) + a)
    return float(sign * math.exp(logmag))


# ---------------------------------------------------------------------------
# Exact route
# ---------------------------------------------------------------------------

def test_rn_exact_identity_word():
    p = xi_params(EQUAL, 0.3)
    for X in BALANCED[:10]:
        assert rn_exact(FinitaryPermutation(()), X, p) == 1.0


def test_rn_exact_frozen_values():
    # sigma_0 on the empty configuration toggles the central pair in:
    # the ratio is xi * z * z'.
    for base in (EQUAL, PRINCIPAL):
        for xi in (0.2, 0.7):
            got = rn_exact(0, FiniteConfig(()), xi_params(base, xi))
            assert got == pytest.approx(xi * base.zz, rel=1e-13)
    # sigma_1 moves the particle at 1/2 up to 3/2 (inverse moves it back):
    # the ratio is xi * (z + 1)(z' + 1) / 4.
    X = to_balanced_config(Partition((1,)))
    assert X == FiniteConfig((H(-1), H(1)))
    for base in (EQUAL, PRINCIPAL):
        got = rn_exact(1, X, xi_params(base, 0.4))
        want = 0.4 * ((base.z + 1) * (base.z_prime + 1)).real / 4.0
        assert got == pytest.approx(want, rel=1e-13)


def test_rn_exact_positive():
    p = xi_params(PRINCIPAL, 0.35)
    words = [(0,), (1,), (-1,), (1, 0), (0, 1, -1), (2, 0)]
    for w in words:
        sigma = FinitaryPermutation(w)
        for X in BALANCED:
            assert rn_exact(sigma, X, p) > 0.0


def test_rn_exact_cocycle():
    # mu(sigma tau, X) = mu(sigma, X) * mu(tau, sigma~^(-1) X).
    p = xi_params(EQUAL, 0.45)
    pairs = [((0,), (1,)), ((1, 0), (-1,)), ((2,), (0, 1)), ((1, -1), (0, 0, 1))]
    worst = 0.0
    for u, v in pairs:
        sigma, tau = FinitaryPermutation(u), FinitaryPermutation(v)
        both = FinitaryPermutation(u + v)
        for X in BALANCED:
            lhs = rn_exact(both, X, p)
            moved = apply_sigma_modified(sigma.inverse(), X)
            rhs = rn_exact(sigma, X, p) * rn_exact(tau, moved, p)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_word_window():
    assert word_window(FinitaryPermutation((0,))) == 1
    assert word_window(FinitaryPermutation((2, -1))) == 3
    assert word_window(3) == 4


def test_closed_form_identity_patterns():
    # A generator whose window pattern it fixes contributes the unit density.
    expr = rn_compose((1,), FiniteConfig(()), EQUAL, N=2)
    assert (expr.a, expr.k, expr.f) == (1.0, 0, TestFunction(()))
    # Mixed central pair is fixed by sigma_0.
    expr = rn_compose((0,), FiniteConfig((H(1),)), EQUAL, N=1)
    assert expr.k == 0 and expr.a == 1.0


def test_closed_form_add_case_constants():
    # sigma_0 on the empty window restriction: k = 1, a = zz'.
    for base in (EQUAL, PRINCIPAL):
        expr = rn_compose((0,), FiniteConfig(()), base, N=1)
        assert expr.k == 1
        assert expr.a == pytest.approx(base.zz, rel=1e-14)
        # The tail functional is inverse-decay bounded, not zero:
        # f(x) = ((2|x| - 1) / (2|x| + 1))^2 - 1 outside the window.
        assert isinstance(expr.f.tail, InverseDecay)
        assert expr.f(H(3)) == pytest.approx((2.0 / 4.0) ** 2 - 1.0, rel=1e-14)
        assert expr.f(H(-5)) == pytest.approx((4.0 / 6.0) ** 2 - 1.0, rel=1e-14)


def test_closed_form_shift_case_constants():
    # sigma_1 moving 1/2 -> 3/2 on W = {-1/2, 1/2}: a = (z+1)(z'+1)/4, k = 1.
    W = FiniteConfig((H(-1), H(1)))
    expr = rn_compose((1,), W, EQUAL, N=2)
    assert expr.k == 1
    # (z+1)(z'+1)/n^2 from the moved pair, over the squared interaction with
    # the in-window point at -1/2: net (z+1)(z'+1)/4.
    want = ((EQUAL.z + 1) * (EQUAL.z_prime + 1)).real / 4.0
    assert expr.a == pytest.approx(want, rel=1e-13)


def test_closed_form_matches_exact():
    """The closed form, evaluated on the full configuration, equals the exact
    weight ratio for every generator and every small partition."""
    xi = 0.3
    worst = 0.0
    for base in (EQUAL, PRINCIPAL):
        p = xi_params(base, xi)
        for n in (-2, -1, 0, 1, 2):
            N = abs(n) + 1
            for X in BALANCED:
                if X.restrict(16) != X:
                    continue
                expr = rn_compose((n,), X.restrict(N), base, N=N, radius=24)
                got = expr.evaluate(X, xi=xi)
                want = rn_exact(n, X, p)
                worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-10


def test_closed_form_negative_n_by_reflection():
    # The density for sigma_(-n) at X is the density for sigma_n at -X with
    # both parameters negated; spot-check against the exact route.
    p = xi_params(PRINCIPAL, 0.5)
    X = to_balanced_config(Partition((3, 1)))
    expr = rn_compose((-1,), X.restrict(2), PRINCIPAL, N=2, radius=24)
    assert expr.evaluate(X, xi=0.5) == pytest.approx(rn_exact(-1, X, p), rel=1e-12)


def test_closed_form_tail_bound_certified():
    # Every tabulated out-of-window value obeys |f(x)| <= c / |x|.
    for n in (-2, -1, 0, 1, 2):
        for bits in range(4):
            W = FiniteConfig(
                x
                for i, x in enumerate((H(2 * abs(n) - 1), H(2 * abs(n) + 1)))
                if bits >> i & 1
            )
            expr = rn_compose((n,), W, EQUAL, radius=64)
            if isinstance(expr.f.tail, ZeroTail):
                continue
            c = expr.f.tail.c
            for x in expr.f.support:
                assert abs(expr.f(x)) <= c / abs(float(x)) * (1 + 1e-12)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        rn_compose((2,), FiniteConfig(()), EQUAL, N=2)  # need N > |n|
    with pytest.raises(ValueError):
        rn_compose((0,), FiniteConfig((H(5),)), EQUAL, N=1)  # point outside window
    with pytest.raises(ValueError):
        RnExpression(1.0, 0, TestFunction(()), 4, FiniteConfig(()), 2)


@pytest.mark.parametrize("radius", [-4, 0, 1])
def test_rn_compose_rejects_radius_inside_window(radius):
    # Checked before the tail table of 2 * radius points is built; radius == N
    # tabulates no tail.
    with pytest.raises(ValueError, match=f"radius {radius} smaller than the window 2"):
        rn_compose((1,), FiniteConfig(()), EQUAL, N=2, radius=radius)
    assert rn_compose((1,), FiniteConfig(()), EQUAL, N=2, radius=2).radius == 2


@pytest.mark.parametrize("outside", [H(-5), H(5)], ids=["left", "right"])
def test_window_restriction_outside_the_window_raises(outside):
    # A window restriction reaching past [-N, N] on either side is rejected by
    # rn_compose and by RnExpression, each with its own message; points on
    # the window's edge are accepted by both.
    W = FiniteConfig((H(-3), outside, H(1)))
    with pytest.raises(ValueError, match=r"window restriction .* has points outside \[-2, 2\]"):
        rn_compose((1,), W, EQUAL, N=2)
    with pytest.raises(ValueError, match=r"window configuration .* has points outside \[-2, 2\]"):
        RnExpression(1.0, 0, TestFunction(()), 2, W, 4)
    edge = FiniteConfig((H(-3), H(3)))
    assert rn_compose((1,), edge, EQUAL, N=2).window_config == edge
    assert RnExpression(1.0, 0, TestFunction(()), 2, edge, 4).window_config == edge


# ---------------------------------------------------------------------------
# Expressions: evaluation semantics
# ---------------------------------------------------------------------------

def test_expression_window_mismatch_evaluates_to_zero():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1)
    assert expr.evaluate(FiniteConfig((H(-1), H(1))), xi=0.5) == 0.0


def test_expression_xi_validation():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1)
    with pytest.raises(ValueError):
        expr.evaluate(FiniteConfig(()), xi=0.0)
    with pytest.raises(ValueError):
        expr.evaluate(FiniteConfig(()), xi=1.5)


def test_expression_radius_guard():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1, radius=8)
    far = FiniteConfig((H(2 * 40 + 1), H(-(2 * 40 + 1))))
    with pytest.raises(ValueError):
        expr.evaluate(far, xi=0.5)


def test_expression_xi_isolation():
    """The expression scales as xi^k: dividing the evaluation by xi^k gives a
    constant across xi."""
    X = to_balanced_config(Partition((2, 1)))
    expr = rn_compose((1,), X.restrict(2), EQUAL, N=2, radius=24)
    ref = expr.evaluate(X, xi=1.0)
    for xi in (0.1, 0.35, 0.8):
        assert expr.evaluate(X, xi=xi) / xi**expr.k == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# Word composition
# ---------------------------------------------------------------------------

def test_compose_matches_exact():
    xi = 0.45
    words = [(0,), (1, 0), (0, 1), (1, -1, 0), (0, 0), (2, 0, -1)]
    worst = 0.0
    for base in (EQUAL, PRINCIPAL):
        p = xi_params(base, xi)
        for w in words:
            sigma = FinitaryPermutation(w)
            N = word_window(sigma)
            for lam in partitions_up_to(6):
                X = to_balanced_config(lam)
                expr = rn_compose(sigma, X.restrict(N), base, radius=24)
                got = expr.evaluate(X, xi=xi)
                want = rn_exact(sigma, X, p)
                worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-10


def test_compose_involution_is_unit():
    # sigma_n^2 = id, so the composed expression must be the unit density.
    for n in (0, 1, -2):
        for X in (FiniteConfig(()), to_balanced_config(Partition((2, 2, 1)))):
            N = abs(n) + 1
            expr = rn_compose((n, n), X.restrict(N), EQUAL, radius=24)
            assert expr.k == 0
            assert expr.a == pytest.approx(1.0, rel=1e-12)
            assert np.abs(expr.f.table).max(initial=0.0) < 1e-12
            assert expr.evaluate(X, xi=0.6) == pytest.approx(1.0, rel=1e-11)


def _fold(f, g):
    """The explicit product 1 + h = (1 + f)(1 + g): h = f + g + fg point by
    point on the larger of the two windows, and the decay constant
    c_f + c_g + c_f c_g / w beyond the radius w of both tables (zero if both
    tails are zero)."""
    R = max(len(f.table), len(g.table)) // 2
    vals = tuple((x, f(x) + g(x) + f(x) * g(x)) for x in map(H, range(1 - 2 * R, 2 * R, 2)))
    if isinstance(f.tail, ZeroTail) and isinstance(g.tail, ZeroTail):
        return TestFunction(vals)
    cf, cg = (t.c if isinstance(t, InverseDecay) else 0.0 for t in (f.tail, g.tail))
    w = max(0.5, f.window_radius, g.window_radius)
    return TestFunction(vals, InverseDecay(cf + cg + cf * cg / w))


def test_compose_bit_identical_to_closed_form_fold():
    # rn_compose multiplies tail arrays.  The reference folds its one-letter
    # steps through the explicit product _fold along the modified-action
    # trajectory of W, one word prefix at a time.  Values, tail constant, a
    # and k must agree bit for bit on every word of length <= 3 over
    # generators -2..2 and every window configuration at N = 3.
    N = 3
    pts = window_points(N)
    configs = [FiniteConfig(c) for r in range(len(pts) + 1)
               for c in itertools.combinations(pts, r)]
    words = [w for length in range(1, 4) for w in itertools.product(range(-2, 3), repeat=length)]
    for W in configs:
        folds = {(): (1.0, 0, TestFunction(()), W)}
        for word in words:  # every prefix comes before its extensions
            a, k, f, cur = folds[word[:-1]]
            step = rn_compose((word[-1],), cur, PRINCIPAL, N=N)
            a, k, f = a * step.a, k + step.k, _fold(f, step.f)
            folds[word] = (a, k, f, _modified_by_maya(word[-1:], cur))
        for word, (a, k, f, _) in folds.items():
            expr = rn_compose(word, W, PRINCIPAL, N=N)
            assert (expr.a, expr.k) == (a, k), (word, W)
            assert np.array_equal(expr.f.table, f.table), (word, W)
            assert expr.f.tail == f.tail, (word, W)


def _set_step(n, W, p, N, grid):
    """An independent set-based form of _step, its reference: (a, k, f on
    grid, c) from an in-window loop in two sign branches, separate tail
    formulas, and negative n through the reflected configuration with both
    parameters negated."""
    if n < 0:
        a, k, fv, c = _set_step(-n, FiniteConfig(-x for x in W), Params(-p.z, -p.z_prime), N, grid)
        return a, k, None if fv is None else fv[::-1], c
    x_min = N + 0.5
    if n == 0:
        lo, hi = H(-1), H(1)
        if (lo in W) != (hi in W):
            return 1.0, 0, None, 0.0
        sign = -1 if lo in W else 1
        a = p.zz ** sign
        for t in (abs(float(x)) for x in W.points if x != lo and x != hi):
            a *= ((t - 0.5) / (t + 0.5)) ** (2 * sign)
        vals = [((2.0 * t - 1.0) / (2.0 * t + 1.0)) ** (2 * sign) - 1.0
                for t in np.abs(grid).tolist()]
        c = 2.0 if sign == 1 else 2.0 * ((2.0 * x_min) / (2.0 * x_min - 1.0)) ** 2
        return a, sign, np.array(vals), c
    lo, hi = H(2 * n - 1), H(2 * n + 1)
    if (lo in W) == (hi in W):
        return 1.0, 0, None, 0.0
    sign = 1 if lo in W else -1
    moved = lo if sign == 1 else hi
    pv = float(moved)
    a = (pair_product(p.z, p.z_prime, n) / n**2) ** sign
    for pj in (float(x) for x in W.positives if x != moved):
        a *= ((pj - pv - sign) / (pj - pv)) ** 2
    for qj in (-float(x) for x in W.negatives):
        a /= ((qj + pv + sign) / (qj + pv)) ** 2
    vals = [(1.0 - sign / (t - pv)) ** 2 - 1.0 if t > 0 else (1.0 + sign / (-t + pv)) ** (-2) - 1.0
            for t in grid.tolist()]
    if sign == 1:
        c = max(2.0 * x_min / (x_min - pv), 2.0)
    else:
        c = max((2.0 + 1.0 / (x_min - pv)) * x_min / (x_min - pv),
                2.0 / (1.0 - 1.0 / (x_min + pv)) ** 2)
    return a, sign, np.array(vals), c


def _set_extend(state, m, p, N, grid, memo):
    """The reference (a, k, f, c, W) of a word extended by the generator m:
    _set_step on W, the fold of the tails, and W moved along its set
    trajectory; memo keeps the step and the move of each (m, W)."""
    a, k, f, c, W = state
    if (m, W) not in memo:
        memo[m, W] = _set_step(m, W, p, N, grid), _modified_by_maya((m,), W)
    (sa, sk, g, cg), moved = memo[m, W]
    if g is not None:
        w = float(grid[-1])
        f, c = (g, cg) if f is None else (f + g + f * g, c + cg + c * cg / w)
    return a * sa, k + sk, f, c, moved


@pytest.mark.parametrize("base", [EQUAL, Params(0.3 + 0.5j, 0.3 - 0.5j), Params(-1.6, -1.2)],
                         ids=["equal", "principal", "complementary"])
def test_compose_matches_set_step_reference(base):
    # Criterion 5's grid: every word of length <= 3 over -3..3 on every
    # balanced configuration of [-4, 4], N = 4, radius 8; single generators
    # also on all 256 window restrictions, balanced or not.  a, the tail
    # table and c agree to 1e-14 with the set-based reference, k exactly.
    N, radius = 4, 8
    t = np.arange(1 - 2 * radius, 2 * radius, 2) / 2.0
    grid = t[np.abs(t) > N]
    pts, memo = window_points(N), {}
    for row in (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool):
        W = FiniteConfig(x for x, b in zip(pts, row) if b)
        longest = 3 if W.is_balanced() else 1
        ref = {(): (1.0, 0, None, 0.0, W)}
        for word in (w for length in range(1, longest + 1)
                     for w in itertools.product(range(-3, 4), repeat=length)):
            ref[word] = _set_extend(ref[word[:-1]], word[-1], base, N, grid, memo)
        for word, (ra, rk, rf, rc, _) in ref.items():
            a, k, f, c = _compose(FinitaryPermutation(word), row, base, grid)
            assert k == rk and (f is None) == (rf is None), (word, W)
            assert abs(a - ra) <= 1e-14 * abs(ra) and abs(c - rc) <= 1e-14 * rc, (word, W)
            assert f is None or (np.abs(f - rf) <= 1e-14 * np.maximum(1.0, np.abs(rf))).all(), (word, W)


def test_compose_window_too_small():
    with pytest.raises(ValueError):
        rn_compose((2, 0), FiniteConfig(()), EQUAL, N=1)


# ---------------------------------------------------------------------------
# Limit evaluation on sparse configurations
# ---------------------------------------------------------------------------

def test_rn_limit_add_case():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1)
    out = rn_limit(expr, FiniteConfig(()))
    assert out.value == pytest.approx(EQUAL.zz, rel=1e-14)
    assert out.bound == 0.0  # fully materialized, zero certified tail


def test_rn_limit_window_mismatch():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1)
    assert rn_limit(expr, FiniteConfig((H(1), H(-1)))) == (0.0, 0.0)


def test_rn_limit_sparse_bound_positive():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1, radius=16)
    sparse = SparseConfig((H(29), H(-29)), tail_sum_bound=0.05)
    out = rn_limit(expr, sparse)
    # value = zz' * prod (1 + f(x)) over the two materialized points.
    want = EQUAL.zz * ((28.0 / 30.0) ** 2) ** 2
    assert out.value == pytest.approx(want, rel=1e-12)
    # bound = |value| * expm1(c * tail certificate), c = 2 for the add case.
    assert out.bound == pytest.approx(abs(want) * math.expm1(2 * 0.05), rel=1e-12)


def test_rn_limit_is_xi_to_one_limit():
    """evaluate(X, xi) approaches the xi = 1 value as xi -> 1, with
    decreasing gaps."""
    X = to_balanced_config(Partition((3, 1, 1)))
    expr = rn_compose((1, 0), X.restrict(2), PRINCIPAL, radius=24)
    limit = rn_limit(expr, X).value
    gaps = [abs(expr.evaluate(X, xi=xi) - limit) for xi in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2 * max(1.0, abs(limit))


def test_rn_limit_radius_guard():
    expr = rn_compose((0,), FiniteConfig(()), EQUAL, N=1, radius=8)
    with pytest.raises(ValueError):
        rn_limit(expr, SparseConfig((H(101),), tail_sum_bound=0.01))


# ---------------------------------------------------------------------------
# Mass preservation
# ---------------------------------------------------------------------------

def test_mass_preservation_prelimit():
    """sum_lambda P(lambda) mu(sigma, X(lambda)) = 1: the density integrates
    to one against the measure, up to the enumeration tail."""
    p = xi_params(EQUAL, 0.2)
    items, tail = enumerate_weights(p, 14)
    for w in ((0,), (1, 0)):
        sigma = FinitaryPermutation(w)
        total = math.fsum(
            wt * rn_exact(sigma, to_balanced_config(lam), p) for lam, wt in items
        )
        assert abs(total - 1.0) <= 50 * tail + 1e-9


# ---------------------------------------------------------------------------
# Cylinder functions
# ---------------------------------------------------------------------------

def test_cylinder_basics():
    F = CylinderFunction.contains(H(1))
    assert F(FiniteConfig((H(1), H(-1)))) == 1.0
    assert F(FiniteConfig((H(-1),))) == 0.0
    assert F.sup_norm == 1.0
    G = CylinderFunction.constant(2.5)
    assert G(FiniteConfig(())) == 2.5
    P = F.times(G)
    assert P(FiniteConfig((H(1),))) == 2.5
    assert P(FiniteConfig(())) == 0.0


def test_cylinder_validation():
    with pytest.raises(ValueError):
        CylinderFunction((H(1),), [1.0])  # missing the singleton
    with pytest.raises(ValueError):
        CylinderFunction((H(1),), [0.0, math.inf])


def test_cylinder_transform():
    F = CylinderFunction.contains(H(1))
    # F o sigma~_1 asks whether sigma~_1(X) contains 1/2, i.e. whether X
    # contains 3/2 (when the swap fires) or 1/2 (when both slots agree).
    G = F.transform((1,))
    assert G(FiniteConfig((H(3),))) == 1.0
    assert G(FiniteConfig((H(1),))) == 0.0
    assert G(FiniteConfig((H(1), H(3)))) == 1.0
    # F o sigma~_0 on the empty configuration sees the toggled-in pair.
    G0 = F.transform((0,))
    assert G0(FiniteConfig(())) == 1.0
    assert G0(FiniteConfig((H(1), H(-1)))) == 0.0


def _expand_cylinder(F):
    """F as (beta_T, TestFunction -1 on T) pairs, read off
    rn._avoidance_rows on the smallest window holding F's points."""
    R = max([abs(x.twice) // 2 + 1 for x in F.points], default=1)
    beta, us = _avoidance_rows(F, R)
    pts = window_points(R)
    return tuple((b, TestFunction([(pts[j], -1.0) for j in np.flatnonzero(u)]))
                 for b, u in zip(beta.tolist(), us))


def test_expand_cylinder_reconstructs():
    import random

    rng = random.Random(7)
    pts = (H(-3), H(-1), H(1), H(5))
    table = {}
    subsets = []
    for bits in range(16):
        sub = frozenset(p for i, p in enumerate(pts) if bits >> i & 1)
        subsets.append(sub)
        table[sub] = rng.uniform(-2, 2)
    F = CylinderFunction.from_callable(pts, table.__getitem__)
    terms = _expand_cylinder(F)
    for sub in subsets:
        got = math.fsum(
            beta * math.prod(1.0 + f(x) for x in sub) for beta, f in terms
        )
        assert got == pytest.approx(F(sub), abs=1e-12)


def test_expand_cylinder_indicator():
    # The avoidance expansion of 1{x in X} is Phi_0 - Phi_(-1 at x).
    F = CylinderFunction.contains(H(1))
    terms = sorted(_expand_cylinder(F), key=lambda t: len(t[1].support))
    assert len(terms) == 2
    assert terms[0][0] == pytest.approx(1.0)
    assert terms[0][1] == TestFunction(())
    assert terms[1][0] == pytest.approx(-1.0)
    assert terms[1][1] == TestFunction({H(1): -1.0}.items())


def test_cylinder_array_matches_mapping():
    # The array constructor is indexed by bit pattern over the sorted points,
    # the order from_callable fills it in from a function of subsets.
    pts = (H(5), H(-3), H(1))
    F = CylinderFunction.from_callable(pts, lambda s: sum(float(x) ** 2 for x in s))
    squares = [float(x) ** 2 for x in sorted(pts)]
    G = CylinderFunction(pts, [sum(v for i, v in enumerate(squares) if b >> i & 1) for b in range(8)])
    assert G.points == F.points == (H(-3), H(1), H(5))
    assert np.array_equal(G.table, F.table)
    assert F(FiniteConfig((H(5), H(-3), H(7)))) == 34.0 / 4
    with pytest.raises(ValueError):
        CylinderFunction(pts, np.zeros(7))


def test_cylinder_transform_matches_subset_action():
    # transform acts on all subset rows at once; the reference applies
    # inv o sigma o inv to each subset as a FiniteConfig.
    F = CylinderFunction.from_callable(
        (H(-3), H(1), H(5)), lambda s: math.cos(float(len(s))) + float(H(1) in s))
    for word in ((0,), (1,), (1, -1), (2, 1, 0), (-1, 0, 1), (0, 0)):
        G = F.transform(word)
        perm = FinitaryPermutation(word)
        for b in range(1 << len(G.points)):
            sub = FiniteConfig(x for i, x in enumerate(G.points) if b >> i & 1)
            assert G.table[b] == F(_modified_by_maya(perm.word, sub)), (word, sub)
        FG = F.times(G)
        for b in range(1 << len(FG.points)):
            sub = FiniteConfig(x for i, x in enumerate(FG.points) if b >> i & 1)
            assert FG.table[b] == F(sub) * G(sub)


def _inclusion_exclusion(F):
    """Every beta_T of F's avoidance expansion by inclusion-exclusion over
    subset pairs, each an exactly rounded fsum of its 2^|T| signed values
    F(complement of S), S <= T, with the sum of their magnitudes: the
    reference for the Moebius transform in _avoidance_rows."""
    m, full = len(F.points), (1 << len(F.points)) - 1
    values = [F(FiniteConfig(x for i, x in enumerate(F.points) if b >> i & 1))
              for b in range(1 << m)]
    betas, sizes = [], []
    for t in range(1 << m):
        parts, s = [], t
        while True:
            parts.append((-1.0) ** (t ^ s).bit_count() * values[full ^ s])
            if s == 0:
                break
            s = (s - 1) & t
        betas.append(math.fsum(parts))
        sizes.append(math.fsum(abs(v) for v in parts))
    return betas, sizes


def _criteria_cylinders():
    """The F's of acceptance criteria 6 and 7, and their compositions with
    the criteria's words, which the limit harness expands."""
    fs = [
        CylinderFunction.contains(H(1)),
        CylinderFunction.from_callable(
            (H(-1), H(1)), lambda s: 1.0 + 0.5 * len(s) - 2.0 * (H(-1) in s)),
        CylinderFunction.from_callable((H(-3), H(1), H(5)), lambda s: math.cos(float(len(s)))),
        CylinderFunction.from_callable(
            (H(-1), H(1), H(3)), lambda s: 0.5 + 0.25 * len(s) - 1.0 * (H(1) in s)),
    ]
    words = [(0,), (1,), (-1,), (2,), (-2,), (1, 0), (0, 1), (1, -1), (2, 1, 0), (-1, 0, 1)]
    return fs + [F.transform(w) for F in fs for w in words]


def test_expand_cylinder_moebius_matches_inclusion_exclusion():
    # The Moebius transform sums in another order than the exactly rounded
    # reference; its error stays below 1e-15 of the magnitudes summed into
    # each beta_T, and it keeps the same terms under the 1e-13 drop rule.
    rng = np.random.default_rng(12)
    cases = _criteria_cylinders()
    for m in range(7):
        pts = [H(2 * i - 5) for i in range(m)]
        for _ in range(40):
            table = rng.uniform(-2.0, 2.0, 1 << m) * 10.0 ** rng.uniform(-3.0, 3.0, 1 << m)
            cases.append(CylinderFunction(pts, table))
    worst = 0.0
    for F in cases:
        betas, sizes = _inclusion_exclusion(F)
        scale = max(1.0, F.sup_norm)
        want = {t: b for t, b in enumerate(betas) if abs(b) > 1e-13 * scale}
        bit = {x: 1 << i for i, x in enumerate(F.points)}
        got = {sum(bit[x] for x in g.support): beta for beta, g in _expand_cylinder(F)}
        assert got.keys() == want.keys()
        for t, beta in got.items():
            worst = max(worst, abs(beta - betas[t]) / sizes[t])
    assert worst <= 1e-15, worst


# ---------------------------------------------------------------------------
# Transport identity: pre-limit
# ---------------------------------------------------------------------------

def test_verify_transport_passes():
    F = CylinderFunction.contains(H(1))
    for base in (EQUAL, PRINCIPAL):
        report = verify_transport((0,), F, xi_params(base, 0.2), max_size=14)
        assert report.passed, report
        assert report.difference < 1e-6


def test_verify_transport_identity_word_exact():
    F = CylinderFunction.contains(H(1))
    report = verify_transport((), F, xi_params(EQUAL, 0.3), max_size=10)
    assert report.lhs == report.rhs


F_HALF = CylinderFunction.contains(H(1))
F_PAIR = CylinderFunction.from_callable(
    (H(-1), H(1)), lambda s: 1.0 + 0.5 * len(s) - 2.0 * (H(-1) in s)
)
F_WIDE = CylinderFunction.from_callable(
    (H(-3), H(1), H(5)), lambda s: math.cos(float(len(s)))
)
F_FAR = CylinderFunction.from_callable(
    (H(1), H(41)), lambda s: 1.0 + 2.0 * (H(1) in s) - 3.0 * (H(41) in s)
)
# Criterion 6's pairs at max_size 12, then a word reaching past the
# ensemble's window [-2, 2] and functions reading points past [-16, 16].
TRANSPORT_CASES = [(w, F, 12) for w, F in [
    ((0,), F_HALF), ((1,), F_HALF), ((-1,), F_PAIR), ((2,), F_WIDE), ((-2,), F_HALF),
    ((1, 0), F_PAIR), ((0, 1), F_HALF), ((1, -1), F_WIDE), ((2, 1, 0), F_PAIR),
    ((-1, 0, 1), F_WIDE),
]] + [
    ((5,), F_HALF, 2),
    ((3, 2, 1, 0), CylinderFunction.contains(H(7)), 2),
    ((1, 0), CylinderFunction.contains(H(41)), 16),
    ((1, 0), F_FAR, 16),
]


@pytest.mark.parametrize("base", [EQUAL, PRINCIPAL])
@pytest.mark.parametrize("word,F,max_size", TRANSPORT_CASES)
def test_verify_transport_matches_per_partition_sums(base, word, F, max_size):
    """Both pairings against sums written one partition at a time."""
    p = xi_params(base, 0.2)
    sigma = FinitaryPermutation(word)
    items, tail = enumerate_weights(p, max_size)
    configs = [(to_balanced_config(lam), w) for lam, w in items]
    lhs = math.fsum(w * F(apply_sigma_modified(sigma, X)) for X, w in configs)
    mus = [rn_exact(sigma, X, p) for X, _ in configs]
    rhs = math.fsum(w * mu * F(X) for (X, w), mu in zip(configs, mus))
    report = verify_transport(word, F, p, max_size=max_size)
    assert report.lhs == pytest.approx(lhs, rel=1e-13)
    assert report.rhs == pytest.approx(rhs, rel=1e-13)
    assert report.tail_mass == tail
    assert report.bound == pytest.approx(tail * F.sup_norm * max(1.0, *mus) + 1e-9, rel=1e-13)


def test_verify_transport_mass():
    report = verify_transport(
        (1, 0), CylinderFunction.constant(1.0), xi_params(EQUAL, 0.2), max_size=14
    )
    assert report.passed
    assert report.lhs == pytest.approx(1.0, abs=1e-4)
    assert report.rhs == pytest.approx(1.0, abs=1e-4)


def test_near_underflow_pair_keeps_weights_and_transport_finite():
    """(z+3)(z'+3) = 1e-320 is subnormal but admissible: at xi = 1e-3 the
    weights on 7/2 still agree with the box formula, and verify_transport,
    whose padded window holds 7/2, stays finite without a warning, also on
    words that move 7/2, where mu overflows on rows whose weight underflows."""
    p = XiParams(Params(-3 + 1e-160j, -3 - 1e-160j), 1e-3)
    for lam in partitions_up_to(10):
        want = log_weight_partition(lam, p)
        assert log_weight_config(to_balanced_config(lam), p) == pytest.approx(want, rel=1e-12)
    for word in [(0,), (1, 0), (2,), (3,), (-3,), (3, 2)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = verify_transport(word, F_HALF, p, max_size=12)
        assert math.isfinite(report.lhs) and math.isfinite(report.rhs), report
        assert report.passed, report


# ---------------------------------------------------------------------------
# Transport identity: limit measure
# ---------------------------------------------------------------------------

K64 = j_transform(underline_limit_window(64, EQUAL))


def test_verify_limit_transport_identity_word():
    F = CylinderFunction.contains(H(1))
    report = verify_limit_transport((), F, EQUAL, kernel=K64)
    assert report.passed
    assert report.difference < 1e-9


def test_verify_limit_transport_small_window():
    F = CylinderFunction.contains(H(1))
    report = verify_limit_transport((0,), F, EQUAL, kernel=K64, atol=2e-4)
    assert report.passed, report
    assert report.difference < 2e-4
    assert report.windows[-1] == 64
    assert len(report.rhs_by_window) == len(report.windows)
    assert report.n_terms > 0
    assert report.residual >= 0.0
    assert report.rank == 64  # the certified rank of K_w on its 128 points


def test_verify_limit_transport_rejects_underline_kernel():
    raw = underline_limit_window(16, EQUAL)
    F = CylinderFunction.contains(H(1))
    with pytest.raises(ValueError):
        verify_limit_transport((0,), F, EQUAL, kernel=raw)


def test_verify_limit_transport_rejects_prelimit_kernel():
    # The identity holds for this pre-limit measure (verify_transport agrees),
    # but the limit check would drop the density's xi^k factor and report a
    # false failure, so it refuses the kernel and names the factor.
    xp = XiParams(EQUAL, 0.3)
    F = CylinderFunction.contains(H(1))
    assert verify_transport((0,), F, xp).passed
    pre = j_transform(underline_prelimit_window(64, xp))
    with pytest.raises(ValueError, match=r"k_prelimit.*xi\^k"):
        verify_limit_transport((0,), F, EQUAL, kernel=pre)


def test_verify_limit_transport_word_exceeds_kernel():
    # The smallest kernel window with a residual (N = 5), one short of the word's.
    small = j_transform(underline_limit_window(5, EQUAL))
    F = CylinderFunction.contains(H(1))
    with pytest.raises(ValueError, match="too small"):
        verify_limit_transport((5,), F, EQUAL, kernel=small)


@pytest.mark.parametrize("K", [1, 2, 4])
def test_verify_limit_transport_needs_a_measured_residual(K):
    # The chains 1, 2, 4 and shorter leave one value after two Richardson
    # levels, so no residual is measured.  The chain 1, 2, 4, 5 is the
    # shortest with one.
    F = CylinderFunction.contains(H(1))
    with pytest.raises(ValueError, match="N >= 5"):
        verify_limit_transport((1,), F, EQUAL, j_transform(underline_limit_window(K, EQUAL)))
    report = verify_limit_transport((1,), F, EQUAL, j_transform(underline_limit_window(5, EQUAL)))
    assert report.windows == (1, 2, 4, 5) and report.residual > 0.0


def test_verify_limit_transport_rejects_a_kernel_of_other_params():
    # K64 is built for the equal pair: against p = (0.3, 0.7) it would report
    # a failed identity (difference 8.8e-4) where only the inputs disagree.
    F = CylinderFunction.contains(H(1))
    with pytest.raises(ValueError, match="kernel built for"):
        verify_limit_transport((1,), F, Params(0.3, 0.7), K64)


def test_verify_limit_transport_f_exceeds_kernel():
    # A point of F beyond the kernel window would drop out of every
    # determinant and leave lhs = rhs = 0.
    small = j_transform(underline_limit_window(8, EQUAL))
    with pytest.raises(ValueError, match="too small"):
        verify_limit_transport((0,), CylinderFunction.contains(H(21)), EQUAL, kernel=small)


@pytest.mark.parametrize("atol", [-1e-5, math.nan], ids=["negative", "nan"])
def test_verify_limit_transport_rejects_atol_below_zero(atol):
    # A nan floor compares false against every difference; atol = 0 is a
    # valid floor.
    F = CylinderFunction.contains(H(1))
    with pytest.raises(ValueError, match="atol must be >= 0"):
        verify_limit_transport((0,), F, EQUAL, kernel=K64, atol=atol)
    assert verify_limit_transport((), F, EQUAL, kernel=K64, atol=0.0).tolerance >= 0.0


F_HALF = CylinderFunction.contains(H(1))
F_THREE = CylinderFunction.from_callable(  # the three-point F of acceptance criterion 7
    (H(-1), H(1), H(3)), lambda s: 0.5 + 0.25 * len(s) - 1.0 * (H(1) in s)
)


def _grouped_worst(kernel, p, word):
    """Worst relative gap between _window_dets on the kernel's factor and each
    job's own full-operator det(I + D_h K_w), h = f + u, on every chain window,
    with the number of (group, window) pairs holding only part of the rows'
    support; the left side's avoidance jobs enter as one more f = 0 group."""
    K = kernel.N
    ns = _doubling_windows(K)
    kw = _weighted_kernel(kernel)
    uv = _factor(kw)
    perm = FinitaryPermutation(word)
    worst, partial = 0.0, 0
    for F in (F_HALF, F_THREE):
        lhs_jobs = _expand_cylinder(F.transform(perm))
        groups = _limit_groups(perm, F, p, K) + [
            (np.zeros(2 * K), None, np.array([g.on_window(K) for _, g in lhs_jobs]))]
        for fw, cs, us in groups:
            assert len(us) > 0
            dets = _window_dets(fw, us, uv, ns)
            support = set(np.flatnonzero(us.any(axis=0)))
            for i, n in enumerate(ns):
                partial += not all(K - n <= j < K + n for j in support)
                for u, got in zip(us, dets[:, i]):
                    full = (fw + u)[:, None] * kw
                    want = _det_one_plus(full[K - n:K + n, K - n:K + n])
                    worst = max(worst, abs(got - want) / abs(want))
    return worst, partial


@pytest.mark.parametrize("word", [(1, 0), (-1, 0), (0,)])
def test_grouped_determinants_match_full_operators(word):
    # One r x r LU per tail group (none where f vanishes) plus the determinant
    # lemma must reproduce each job's own det(I + D_h K_w), including on
    # windows that hold only part of the rows' support.
    worst, partial = _grouped_worst(K64, EQUAL, word)
    assert partial > 0
    assert worst < 1e-13, worst


@pytest.mark.parametrize("p", [PRINCIPAL, Params(0.3, 0.7)], ids=["principal", "distinct"])
def test_grouped_determinants_match_full_operators_k256(p):
    # At the transport checks' kernel window the factor's rank (64) is far
    # below the 512 points, and the r x r route still matches the full
    # operators of every job on every window.
    worst, partial = _grouped_worst(j_transform(underline_limit_window(256, p)), p, (1, 0))
    assert partial > 0
    assert worst < 1e-12, worst
