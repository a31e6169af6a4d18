"""Tests for multiplicative functionals and their two expectation routes.

The enumeration route carries a rigorous error bar (tail mass times a bound
on |Phi_f|), so route agreement is asserted against that self-reported bar.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gammakernel.lattice import FiniteConfig, HalfInt, to_balanced_config
from gammakernel.zmeasure import Params, XiParams, correlation_oracle, enumerate_weights
from scipy.linalg import lu_factor, lu_solve

from gammakernel.kernels import (
    NonConvergenceError,
    j_transform,
    underline_limit_window,
    underline_prelimit_window,
)
from gammakernel.fredholm import (
    ExpectationDet,
    InverseDecay,
    PhiValue,
    SparseConfig,
    TestFunction,
    _factor,
    _weighted_kernel,
    expectation_det,
    expectation_sum,
    phi_eval,
    phi_rows,
    sparseness_certificate,
)

H = HalfInt
EQUAL = Params(0.5, 0.5)
PRINCIPAL = Params(0.4 + 0.7j, 0.4 - 0.7j)


def _det_one_plus(a):
    """det(I + a) by slogdet, the reference for _window_dets."""
    sign, logmag = np.linalg.slogdet(np.eye(a.shape[0]) + a)
    return float(sign * math.exp(logmag))


def k_window(base, xi, N):
    return j_transform(underline_prelimit_window(N, XiParams(base, xi)))


# ---------------------------------------------------------------------------
# Test functions and Phi_f
# ---------------------------------------------------------------------------

def test_test_function_basics():
    f = TestFunction({H(1): -1.0, H(3): 0.25}.items())
    assert f(H(1)) == -1.0
    assert f(H(3)) == 0.25
    assert f(H(5)) == 0.0  # outside the tabulation
    assert f.support == (H(1), H(3))
    assert f.window_radius == 1.5
    g = TestFunction.from_callable(lambda t: 1.0 / abs(t), 2)
    assert g(H(-3)) == pytest.approx(2.0 / 3.0)
    assert g.window_radius == 1.5


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(((H(1), 1.0), (H(1), 2.0)))
    with pytest.raises(ValueError):
        TestFunction(((H(1), math.nan),))
    with pytest.raises(ValueError):
        InverseDecay(-1.0)
    with pytest.raises(ValueError):
        SparseConfig((H(1),), tail_sum_bound=-0.1)
    with pytest.raises(ValueError):
        SparseConfig((H(1),), tail_sum_bound=math.inf)


def test_phi_trivials():
    zero = TestFunction(())
    assert phi_eval(zero, FiniteConfig([H(1), H(-3)])).value == 1.0
    f = TestFunction({H(1): 0.5}.items())
    assert phi_eval(f, FiniteConfig([])).value == 1.0
    kill = TestFunction({H(1): -1.0}.items())
    assert phi_eval(kill, FiniteConfig([H(1), H(3)])).value == 0.0
    assert phi_eval(kill, [H(3)]).value == 1.0


def test_phi_multiplicativity():
    rng = np.random.default_rng(3)
    pts = [H(t) for t in (-5, -3, -1, 1, 3, 5)]
    for _ in range(10):
        f = TestFunction(tuple((x, rng.uniform(-1.5, 1.0)) for x in pts[:4]))
        g = TestFunction(tuple((x, rng.uniform(-1.5, 1.0)) for x in pts[2:]))
        # The explicit fold 1 + h = (1 + f)(1 + g), that is h = f + g + fg.
        h = TestFunction(tuple((x, f(x) + g(x) + f(x) * g(x)) for x in pts))
        idx = rng.choice(len(pts), size=rng.integers(0, 6), replace=False)
        X = FiniteConfig([pts[i] for i in idx])
        want = phi_eval(f, X).value * phi_eval(g, X).value
        assert phi_eval(h, X).value == pytest.approx(want, abs=1e-12)


def test_phi_sparse_certified():
    f = TestFunction({H(1): 0.5}.items(), tail=InverseDecay(2.0))
    X = SparseConfig((H(1), H(3)), tail_sum_bound=0.1)
    out = phi_eval(f, X)
    assert isinstance(out, PhiValue)
    assert out.value == pytest.approx(1.5)
    # The listed point 3/2 lies beyond f's table, where f is known only
    # through its envelope 2/|x|; it enters the bound with the unlisted tail.
    assert out.relative_bound == pytest.approx(math.expm1(2.0 * (0.1 + 2.0 / 3.0)))
    # On a finite configuration only the points beyond the table count.
    fin = phi_eval(f, FiniteConfig((H(1), H(3), H(-5))))
    assert fin == (pytest.approx(1.5), pytest.approx(math.expm1(2.0 * (2.0 / 3.0 + 2.0 / 5.0))))
    assert phi_eval(f, FiniteConfig((H(1), H(-1)))) == (1.5, 0.0)
    # A zero-tail function is unaffected by the unlisted remainder.
    g = TestFunction({H(1): 0.5}.items())
    assert phi_eval(g, X).relative_bound == 0.0


def test_phi_rows_matches_column_loop():
    # phi_rows is one masked product over each row; the reference multiplies
    # the rows holding each column by 1 + f there, column by column in
    # ascending order, so the two agree bit for bit.
    rng = np.random.default_rng(11)
    for _ in range(60):
        N, R = (int(v) for v in rng.integers(1, 13, size=2))
        f = TestFunction(rng.uniform(-1.0, 3.0, 2 * R) * (rng.random(2 * R) < 0.7))
        occ = rng.random((int(rng.integers(1, 200)), 2 * N)) < rng.uniform(0.05, 0.9)
        fv, want = f.on_window(N), np.ones(len(occ))
        for j in np.flatnonzero((fv != 0.0) & occ.any(axis=0)):
            want[occ[:, j]] *= 1.0 + fv[j]
        assert np.array_equal(phi_rows(f, occ, N), want)


def test_phi_raw_iterable_is_a_set():
    # A raw point list is read as a configuration: a repeated point counts
    # once, and the factors multiply in ascending point order whatever the
    # list's order, so every route gives the same bits.
    f = TestFunction({H(1): 0.5}.items())
    assert phi_eval(f, [H(1), H(1)]).value == phi_eval(f, FiniteConfig([H(1), H(1)])).value == 1.5
    rng = np.random.default_rng(5)
    pts = [H(t) for t in range(-11, 12, 2)]
    for _ in range(20):
        g = TestFunction(tuple((x, rng.uniform(-0.9, 3.0)) for x in pts))
        picked = [pts[i] for i in rng.choice(len(pts), size=8)]  # with repeats
        want = 1.0
        for x in sorted(set(picked)):
            want *= 1.0 + g(x)
        assert phi_eval(g, picked[::-1]).value == phi_eval(g, FiniteConfig(picked)).value == want


def test_test_function_array_form():
    # The pair constructor tabulates on the smallest window [-R, R]; the array
    # constructor takes that table directly, and on_window slices or pads it.
    f = TestFunction({H(-3): 0.25, H(1): -0.5, H(5): 0.0}.items())
    assert np.array_equal(f.table, [0.0, 0.25, 0.0, -0.5, 0.0, 0.0])
    assert f == TestFunction(np.array(f.table))
    assert f != TestFunction(np.array(f.table), InverseDecay(1.0))
    assert f.support == (H(-3), H(1))
    assert (f.window_radius, f.support_radius) == (2.5, 1.5)
    assert np.array_equal(f.on_window(1), [0.0, -0.5])
    assert np.array_equal(f.on_window(4), [0.0] + list(f.table) + [0.0])
    with pytest.raises(ValueError):
        f.on_window(3)[0] = 1.0  # a view of the stored table
    assert TestFunction.from_callable(lambda t: t, 2) == TestFunction(
        tuple((H(t), t / 2) for t in (-3, -1, 1, 3)))
    with pytest.raises(ValueError):
        TestFunction(np.zeros(3))


# ---------------------------------------------------------------------------
# Enumeration route
# ---------------------------------------------------------------------------

def test_expectation_sum_trivial():
    px = XiParams(EQUAL, 0.3)
    out = expectation_sum(TestFunction(()), px, max_size=12)
    assert out.value == pytest.approx(1.0, abs=out.tail_mass + 1e-15)
    assert out.error == pytest.approx(out.tail_mass)


def test_expectation_sum_avoidance():
    # f = -1 at {1/2} turns E[Phi_f] into the avoidance probability
    # 1 - rho_1(1/2) of the finitary process.
    px = XiParams(EQUAL, 0.3)
    f = TestFunction({H(1): -1.0}.items())
    out = expectation_sum(f, px, max_size=18)
    rho = correlation_oracle([H(1)], px, max_size=18, process="config")
    assert abs(out.value - (1.0 - rho.value)) <= out.error + rho.tail_mass + 1e-12


@pytest.mark.parametrize("max_size", [0, 1, 6, 14])
def test_expectation_sum_matches_per_partition_reference(max_size):
    # Reference: Phi_f of each X(lambda), weighted and summed one by one.
    # Tabulated points reach |x| = 25/2, beyond the ensemble's window.
    fs = [
        TestFunction(()),
        TestFunction({H(1): -1.0, H(-3): 0.5, H(25): 3.0}.items()),
        TestFunction.from_callable(lambda t: -0.3 / abs(t), 12, InverseDecay(0.3)),
    ]
    for base, xi in ((EQUAL, 0.3), (PRINCIPAL, 0.5)):
        px = XiParams(base, xi)
        items, tail = enumerate_weights(px, max_size)
        for f in fs:
            ref = math.fsum(w * phi_eval(f, to_balanced_config(lam)).value for lam, w in items)
            out = expectation_sum(f, px, max_size=max_size)
            assert abs(out.value - ref) <= 1e-15 * abs(ref)
            assert out.tail_mass == tail


# ---------------------------------------------------------------------------
# Determinant route and route agreement
# ---------------------------------------------------------------------------

def test_expectation_det_trivials():
    K = k_window(EQUAL, 0.3, 8)
    assert expectation_det(TestFunction(()), K) == 1.0
    f = TestFunction({H(1): -1.0}.items())
    want = 1.0 - K.entry(H(1), H(1))
    assert expectation_det(f, K) == pytest.approx(want, abs=1e-14)


def test_expectation_det_requires_k_kind():
    un = underline_prelimit_window(4, XiParams(EQUAL, 0.3))
    with pytest.raises(ValueError):
        expectation_det(TestFunction(()), un)


def test_expectation_det_support_must_fit():
    K = k_window(EQUAL, 0.3, 4)
    f = TestFunction({H(11): 0.5}.items())
    with pytest.raises(ValueError):
        expectation_det(f, K)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_expectation_det_rejects_tol_not_above_zero(tol):
    # A decaying f can never meet increment < tol when tol <= 0 or nan; a
    # zero-tail f, which runs to its cover whatever tol is, is held to the
    # same rule.
    K = k_window(EQUAL, 0.3, 8)
    f = TestFunction({H(1): -0.3}.items(), tail=InverseDecay(0.3))
    zero = TestFunction({H(1): -1.0}.items())
    for g in (f, zero):
        with pytest.raises(ValueError, match="tol must be > 0"):
            expectation_det(g, K, tol=tol)


def test_expectation_det_runs_a_gapped_zero_tail_f_to_its_cover():
    # Windows 1, 2, 4 hold only the point 1/2 of the support {1/2, 41/2}, so
    # their determinants agree and two zero increments follow; the chain
    # must still run to window 32, the first to cover 41/2.
    K = j_transform(underline_limit_window(64, EQUAL))
    f = TestFunction({H(1): -0.5, H(41): -0.5}.items())
    out = expectation_det(f, K, full_output=True)
    assert out.windows == (1, 2, 4, 8, 16, 32)
    assert out.increments[:2] == (0.0, 0.0)
    fv = f.on_window(32)
    assert out.value == _dense_window_det(0.0 * fv, fv, _weighted_kernel(K, 32))
    assert abs(out.value - out.determinants[2]) > 1e-3


def test_expectation_det_full_output():
    K = k_window(EQUAL, 0.3, 8)
    f = TestFunction({H(1): 0.5, H(-3): -0.5}.items())
    out = expectation_det(f, K, full_output=True)
    assert isinstance(out, ExpectationDet)
    assert out.windows[0] == 1 and out.windows[-1] <= 8
    assert len(out.determinants) == len(out.windows)
    assert len(out.increments) == len(out.windows) - 1
    assert out.value == out.determinants[-1]


def test_expectation_det_nonconvergence():
    K = k_window(EQUAL, 0.3, 8)
    f = TestFunction.from_callable(lambda t: 0.8 / abs(t), 8, tail=InverseDecay(0.8))
    with pytest.raises(NonConvergenceError) as exc:
        expectation_det(f, K, tol=1e-12)
    assert exc.value.op == "expectation_det"
    assert exc.value.cap == "window half-width" and exc.value.nodes == 8
    assert "at the window half-width 8" in str(exc.value)
    assert "node cap" not in str(exc.value)


@pytest.mark.parametrize("base", [EQUAL, PRINCIPAL], ids=["equal", "principal"])
@pytest.mark.parametrize("xi", [0.1, 0.3])
def test_finite_support_routes_agree(base, xi):
    # Random finitely supported f: the determinant is exact, the enumeration
    # carries its own error bar.
    rng = np.random.default_rng(11)
    px = XiParams(base, xi)
    K = k_window(base, xi, 8)
    pts = [H(t) for t in (-7, -5, -3, -1, 1, 3, 5, 7)]
    for _ in range(6):
        sel = rng.choice(len(pts), size=4, replace=False)
        f = TestFunction(tuple((pts[i], rng.uniform(-1.5, 0.8)) for i in sel))
        s = expectation_sum(f, px, max_size=20)
        d = expectation_det(f, K)
        assert abs(s.value - d) <= s.error + 1e-8, (f.table, s, d)


def test_decaying_f_routes_agree():
    # f = g h^2 with g = -0.5 (bounded), truncated at |x| <= 4.
    px = XiParams(EQUAL, 0.2)
    K = k_window(EQUAL, 0.2, 16)
    f = TestFunction.from_callable(lambda t: -0.5 / abs(t), 4, tail=InverseDecay(0.5))
    s = expectation_sum(f, px, max_size=20)
    d = expectation_det(f, K)
    assert abs(s.value - d) <= s.error + 1e-8


def test_expectation_det_increments_decrease():
    px = XiParams(EQUAL, 0.3)
    K = k_window(EQUAL, 0.3, 32)
    f = TestFunction.from_callable(lambda t: -0.3 / abs(t), 16, tail=InverseDecay(0.3))
    out = expectation_det(f, K, tol=1e-6, full_output=True)
    # Recorded nonzero increments shrink as the window doubles.
    incs = [i for i in out.increments if i > 0.0]
    assert all(a > b for a, b in zip(incs, incs[1:])), out.increments
    # Each window's determinant is det(1 + A_g A_h K A_h) of that window.
    s = np.sqrt([abs(float(x)) for x in K.points])
    weighted = (f.on_window(K.N) * s)[:, None] * K.values / s[None, :]
    for n, got in zip(out.windows, out.determinants):
        block = weighted[K.N - n:K.N + n, K.N - n:K.N + n]
        assert got == pytest.approx(_det_one_plus(block), rel=1e-13), n


def _dense_window_det(fw, u, kw):
    """det(I + D_(f+u) K_w) by one dense LU of I + D_f K_w and the determinant
    lemma on u's support, operation for operation the route _window_dets
    took before it factored K_w: the bit-exact reference for small kernels."""
    n2, s = len(fw), np.flatnonzero(u)
    if not fw.any():
        det_a, m = 1.0, kw[np.ix_(s, s)]
    else:
        a = fw[:, None] * kw
        a.flat[:: n2 + 1] += 1.0
        lu, piv = lu_factor(a, overwrite_a=True, check_finite=False)
        diag = np.diag(lu)
        flips = np.count_nonzero(piv != np.arange(n2)) + np.count_nonzero(diag < 0)
        det_a = (-1.0) ** flips * math.exp(np.sum(np.log(np.abs(diag))))
        e_s = np.zeros((n2, len(s)))
        e_s[s, np.arange(len(s))] = 1.0
        m = kw[s, :] @ lu_solve((lu, piv), e_s, check_finite=False)
    return det_a * np.linalg.det(np.eye(len(s)) + u[None, s, None] * m)[0]


@pytest.mark.parametrize("base", [EQUAL, PRINCIPAL], ids=["equal", "principal"])
def test_expectation_det_small_windows_bit_identical_to_dense_route(base):
    # Every window of a 2K <= 64 kernel is factored as the exact pair (K_w, I),
    # so both a zero-tail f (row on its support) and a decaying f (one LU per
    # window) reproduce the dense route bit for bit.
    K = k_window(base, 0.3, 32)
    zero = TestFunction({H(1): -1.0, H(-3): 0.5, H(39): -0.25}.items())
    decay = TestFunction.from_callable(lambda t: -0.4 / abs(t), 8, tail=InverseDecay(0.4))
    for f in (zero, decay):  # the zero-tail f runs to its cover, 39/2
        out = expectation_det(f, K, full_output=True)
        assert out.windows[-1] == 32
        for n, got in zip(out.windows, out.determinants):
            fv, kw = f.on_window(n), _weighted_kernel(K, n)
            want = _dense_window_det(0.0 * fv, fv, kw) if f is zero else _dense_window_det(fv, 0.0 * fv, kw)
            assert got == want, (n, got, want)


# ---------------------------------------------------------------------------
# Low-rank factor of the weighted kernel
# ---------------------------------------------------------------------------

def _factor_residual(kw):
    u, v = _factor(kw)
    return u.shape[1], np.abs(kw - u @ v.T).max() / np.abs(kw).max()


@pytest.mark.parametrize("base", [EQUAL, PRINCIPAL, Params(0.3, 0.7)],
                         ids=["equal", "principal", "distinct"])
def test_factor_certified_on_limit_kernel(base):
    # 512 points, and the numerical rank is a few dozen: the first sketch
    # width certifies.
    r, res = _factor_residual(_weighted_kernel(j_transform(underline_limit_window(256, base))))
    assert r == 64
    assert res <= 1e-12, res


@pytest.mark.parametrize("xi", [0.5, 0.9])
def test_factor_certified_on_prelimit_kernel(xi):
    r, res = _factor_residual(_weighted_kernel(k_window(EQUAL, xi, 64)))
    assert r < 128
    assert res <= 1e-12, res


def test_factor_small_kernel_is_exact_pair():
    kw = _weighted_kernel(k_window(EQUAL, 0.3, 32))
    u, v = _factor(kw)
    assert u is kw and np.array_equal(v, np.eye(64))


def test_factor_full_rank_reaches_full_width():
    eye = np.eye(130)
    u, v = _factor(eye)
    assert u.shape[1] == 130
    assert np.abs(u @ v.T - eye).max() <= 1e-15


def test_factor_forms_no_full_block():
    # A 2048 x 2048 kernel of rank 100 (singular values 0.8^k): the sketch
    # certifies at width 128 after failing at 64, and the residual of each
    # width is taken by row blocks, so the peak stays far below one n x n
    # float64 array (33.5 MB).
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2048, 100)) * 0.8 ** np.arange(100)
    kw = x @ rng.standard_normal((100, 2048))
    tracemalloc.start()
    try:
        u, v = _factor(kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.shape[1] == 128
    assert np.abs(kw - u @ v.T).max() <= 1e-12 * np.abs(kw).max()
    assert peak < 16e6, peak


def test_factor_is_deterministic():
    kw = _weighted_kernel(j_transform(underline_limit_window(128, PRINCIPAL)))
    (u1, v1), (u2, v2) = _factor(kw), _factor(kw)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)


# ---------------------------------------------------------------------------
# Sparseness certificate
# ---------------------------------------------------------------------------

def test_sparseness_certificate_limit_density():
    # The finitary-process density decays like C/|x|, so the weighted sums
    # contract at ratio about 1/2 per doubling.
    K = j_transform(underline_limit_window(64, EQUAL))
    density = {x: K.entry(x, x) for x in K.points}
    report = sparseness_certificate(density)
    assert report.passed
    assert report.window_sizes[0] == 4 and report.window_sizes[-1] == 64
    assert all(r <= 0.75 for r in report.ratios)


def test_sparseness_certificate_negative_control():
    pts = [H(t) for t in range(-127, 128, 2)]
    report = sparseness_certificate({x: 1.0 for x in pts})
    assert not report.passed  # harmonic growth: increments do not contract


def test_sparseness_certificate_fast_decay():
    pts = [H(t) for t in range(-127, 128, 2)]
    report = sparseness_certificate({x: 1.0 / float(x) ** 2 for x in pts})
    assert report.passed
    assert all(r <= 0.30 for r in report.ratios)


def test_sparseness_certificate_rise_after_flat_doubling_fails():
    # rho = 1 on [-32, 32] but 0 on 8 < |x| <= 16: the increments are
    # (1.38, 0, 1.39), and the rise after the flat doubling does not contract.
    pts = [H(t) for t in range(-63, 64, 2)]
    report = sparseness_certificate({x: 0.0 if 8 < abs(float(x)) <= 16 else 1.0 for x in pts})
    assert report.increments[1] == 0.0 < report.increments[2]
    assert report.ratios[1] == math.inf
    assert not report.passed


def test_sparseness_certificate_validation():
    with pytest.raises(ValueError):
        sparseness_certificate({})
    with pytest.raises(ValueError):
        sparseness_certificate({H(1): 1.0})
    with pytest.raises(ValueError):
        sparseness_certificate({H(t): -1.0 for t in range(-63, 64, 2)})
