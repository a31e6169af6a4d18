"""Tests for the four kernel evaluation routes and the kernel transforms.

Ground truths used here:
  * a closed-form frozen value of the limit kernel at (1/2, 1/2) for z = z' = 1/2,
  * brute-force correlation sums from the weight enumeration (small xi),
  * mutual agreement of independent evaluation routes (integrable form,
    hairpin contours, circle contours, spectral projection),
  * structural identities: projection property, J-symmetry, reflection
    symmetry under parameter negation,
  * mpmath for the equal-real diagonal (psi') and the contour Gamma prefactor.
"""

import cmath
import math
import tracemalloc
from itertools import combinations, islice

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import gammakernel.kernels as kernels_module
from gammakernel.lattice import HalfInt
from gammakernel.zmeasure import Params, XiParams, correlation_oracle
from gammakernel.kernels import (
    NonConvergenceError,
    density_constant,
    j_transform,
    underline_limit_contour,
    underline_limit_integrable,
    underline_limit_window,
    underline_prelimit_contour,
    underline_prelimit_window,
    weighted_blocks,
    window_points,
)
from gammakernel.kernels import (
    RHO1,
    RHO2,
    SLOPE2,
    _auto_u_max,
    _circle_contour,
    _circle_radii,
    _circle_sum,
    _contour_value,
    _coupled_sum,
    _difference_operator,
    _eigen_count,
    _gamma_prefactor,
    _contour_grid,
    _hairpin_nodes,
    _log_factor,
    _sign_quadrature,
    _spectral_center,
)

PRINCIPAL = Params(0.4 + 0.7j, 0.4 - 0.7j)
EQUAL = Params(0.5, 0.5)
DISTINCT = Params(0.4, 0.6)
SHIFTED = Params(2.3, 2.7)
NEGATED = Params(-1.3, -1.6)
ALL_PARAMS = [PRINCIPAL, EQUAL, DISTINCT, SHIFTED]

H = HalfInt


# ---------------------------------------------------------------------------
# Frozen values
# ---------------------------------------------------------------------------

def test_frozen_diagonal_equal_half():
    # For z = z' = 1/2 the diagonal value at x = 1/2 is
    # (sin(pi/2)/pi)^2 * psi'(3/2) = (pi^2/2 - 4)/pi^2 = 1/2 - 4/pi^2.
    want = 0.5 - 4.0 / math.pi**2
    got = underline_limit_integrable(H(1), H(1), EQUAL)
    assert abs(got - want) < 1e-14


def test_frozen_density_constants():
    assert abs(density_constant(EQUAL) - 1.0 / math.pi**2) < 1e-15
    # Distinct real parameters: direct formula evaluation.
    want = (
        math.sin(math.pi * 2.3)
        * math.sin(math.pi * 2.7)
        * (2.3 - 2.7)
        / (math.pi * math.sin(math.pi * (2.3 - 2.7)))
    )
    assert abs(density_constant(SHIFTED) - want) < 1e-15
    # Conjugate pair: the formula is real and positive.
    z = PRINCIPAL.z
    w = cmath.sin(math.pi * z) * cmath.sin(math.pi * z.conjugate()) * (z - z.conjugate())
    w /= math.pi * cmath.sin(math.pi * (z - z.conjugate()))
    assert abs(w.imag) < 1e-15
    assert abs(density_constant(PRINCIPAL) - w.real) < 1e-15


def test_density_constant_positive():
    for p in ALL_PARAMS + [NEGATED]:
        assert density_constant(p) > 0.0


# ---------------------------------------------------------------------------
# Limit kernel: integrable form vs hairpin contours
# ---------------------------------------------------------------------------

PAIRS = [
    (1, 1),
    (1, 3),
    (-1, 1),
    (1, -3),
    (-3, -5),
    (-3, -7),
    (5, -5),
    (9, 11),
]


@pytest.mark.parametrize("p", ALL_PARAMS, ids=["principal", "equal", "distinct", "shifted"])
def test_limit_contour_matches_integrable(p):
    for tx, ty in PAIRS:
        a = underline_limit_integrable(H(tx), H(ty), p)
        b = underline_limit_contour(H(tx), H(ty), p)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), (tx, ty, a, b)


def test_limit_contour_negated_parameters():
    for tx, ty in [(1, 1), (-1, 1), (-3, -5), (5, -5)]:
        a = underline_limit_integrable(H(tx), H(ty), NEGATED)
        b = underline_limit_contour(H(tx), H(ty), NEGATED)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


MIXED_CELLS = [(1, -1), (1, -11), (11, -1), (11, -11), (5, -7)]  # |x|, |y| <= 11/2
FAR_MIXED_CELLS = [(1, -39), (19, -31), (59, -59)]


@pytest.mark.parametrize("p", ALL_PARAMS + [NEGATED],
                         ids=["principal", "equal", "distinct", "shifted", "negated"])
def test_limit_contour_difference_tilted_rays(p):
    # Mixed-sign entries take the "difference" route, whose outer rays tilt
    # away from the inner contour: they stabilize by 256 nodes per ray (512
    # for the negated pair at (1/2, -11/2)) and stay within 1e-10 of the
    # closed form, also far from the origin.
    cap = 512 if p is NEGATED else 256
    for tx, ty in MIXED_CELLS + FAR_MIXED_CELLS:
        ref = underline_limit_integrable(H(tx), H(ty), p)
        val, info = underline_limit_contour(H(tx), H(ty), p, full_output=True)
        assert info["variant"] == "difference"
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref)), (tx, ty, val, ref)
        if (tx, ty) in MIXED_CELLS:
            assert info["nodes_per_contour"] <= cap, (tx, ty, info)


@pytest.mark.parametrize("p", [EQUAL, Params(0.3 + 0.5j, 0.3 - 0.5j), Params(0.3, 0.7)],
                         ids=["equal", "principal", "distinct"])
def test_limit_contour_near_mixed_cells_stop_at_256(p):
    # Every mixed-sign cell with |x|, |y| <= 11/2 of the three parameter pairs
    # the contour benchmark draws from stabilizes by 256 nodes per ray on the
    # slope-8 outer rays (slope 2 took 512), within 1e-10 of the closed form.
    for a, b in ((a, b) for a in range(1, 12, 2) for b in range(1, 12, 2)):
        ref = underline_limit_integrable(H(a), H(-b), p)
        val, info = underline_limit_contour(H(a), H(-b), p, full_output=True)
        assert info["variant"] == "difference" and info["nodes_per_contour"] <= 256, (a, b, info)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref)), (a, b, val, ref)


def test_limit_contour_variants_agree():
    # Mixed-sign pair where both representations are usable.
    x, y = H(5), H(-3)
    for p in ALL_PARAMS:
        ref = underline_limit_integrable(x, y, p)
        s = underline_limit_contour(x, y, p, variant="sum")
        d = underline_limit_contour(x, y, p, variant="difference")
        assert abs(s - ref) <= 1e-8 * max(1.0, abs(ref))
        assert abs(d - ref) <= 1e-8 * max(1.0, abs(ref))


def test_limit_contour_symmetric_in_arguments():
    for p in (EQUAL, PRINCIPAL):
        a = underline_limit_contour(H(-3), H(1), p)
        b = underline_limit_contour(H(1), H(-3), p)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_limit_contour_full_output():
    val, info = underline_limit_contour(H(1), H(3), EQUAL, full_output=True)
    plain = underline_limit_contour(H(1), H(3), EQUAL)
    assert val == plain
    assert info["variant"] == "sum"
    assert info["nodes_per_contour"] >= 64
    assert info["last_increment"] <= 1e-10 * max(1.0, abs(val))
    assert 0.0 <= info["tail_bound"] < 1e-8


def test_limit_window_matches_scalar():
    for p in ALL_PARAMS:
        wk = underline_limit_window(4, p)
        for x in wk.points:
            for y in wk.points:
                assert abs(wk.entry(x, y) - underline_limit_integrable(x, y, p)) < 1e-13


def test_limit_window_matches_contour():
    # The window's closed form against the independent hairpin-contour route,
    # same-sign and mixed-sign pairs, in each parameter branch.
    pts = [H(t) for t in (-11, -3, 1, 11)]
    for p in (PRINCIPAL, EQUAL, DISTINCT):
        wk = underline_limit_window(6, p)
        for i, x in enumerate(pts):
            for y in pts[i:]:
                assert abs(wk.entry(x, y) - underline_limit_contour(x, y, p)) < 1e-8, (p, x, y)


def test_hairpin_nodes_one_entry_per_tuple():
    # The window-5 sweep doubles n = 64, ..., 256 per ray in its "sum" block
    # (rows and columns on one flat hairpin) and in its "difference" block,
    # whose inner hairpin is the "sum" one: six hairpins in all, each built
    # once.
    _hairpin_nodes.cache_clear()
    xv = np.arange(-9, 10, 2) / 2.0
    _contour_grid(xv, xv, EQUAL)
    info = _hairpin_nodes.cache_info()
    assert info.currsize == info.misses == 6 and info.hits == 6


@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("u_max", [math.inf, 1e12])
def test_hairpin_nodes_conjugation_symmetric(n, u_max):
    # Node n-1-k is the conjugate of node k, bit for bit, on the flat inner
    # hairpin and the tilted outer one; the order runs lower ray (from +inf),
    # arc through -rho, upper ray.
    for rho, slope in ((RHO1, 0.0), (RHO2, SLOPE2)):
        u, w = _hairpin_nodes(rho, n, u_max, slope=slope)
        assert np.array_equal(u[::-1], np.conj(u)) and np.array_equal(w[::-1], -np.conj(w))
        assert len(u) % 2 == 0 and np.all(u[: len(u) // 2].imag < 0)
        assert u[0].real == np.max(u.real) and np.argmin(u.real) in (len(u) // 2 - 1, len(u) // 2)


def test_hairpin_nodes_cached_read_only():
    # One build per argument tuple, shared read-only and bit-identical to a
    # fresh build.
    for args in ((RHO1, 128, 1e12, 0.0), (RHO2, 256, math.inf, SLOPE2)):
        u, w = _hairpin_nodes(*args)
        fu, fw = _hairpin_nodes.__wrapped__(*args)
        assert np.array_equal(u, fu) and np.array_equal(w, fw)
        assert _hairpin_nodes(*args)[0] is u and not u.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0


def _dense_coupled(a, b, u1, u2, mode):
    """The plain double sum sum_ij a_i b_j / denom_ij and its absolute sum."""
    c = 1.0 / (u1[:, None] + (u2 + 1.0 if mode == "sum" else -u2)[None, :])
    a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
    return a2 @ c @ b2.T, np.abs(a2) @ np.abs(c) @ np.abs(b2).T


@pytest.mark.parametrize("mode", ["sum", "difference"])
@pytest.mark.parametrize("n", [64, 128])
def test_coupled_sum_matches_dense_double_sum(n, mode):
    # The half-block sum against the full double sum it replaces, on one real
    # hairpin level: principal-series factor rows for a 1x1 entry (1-D rows)
    # and a 3x4 grid, then seeded random factors (no symmetry of their own)
    # with an odd first contour whose middle node -rho is self-conjugate.
    p = Params(0.3 + 0.5j, 0.3 - 0.5j)
    z, zp = p.z, p.z_prime
    rho_2, slope2 = (RHO1, 0.0) if mode == "sum" else (RHO2, SLOPE2)
    u1, w1 = _hairpin_nodes(RHO1, n, _auto_u_max(-1.0, 1e-10))
    u2, w2 = _hairpin_nodes(rho_2, n, _auto_u_max(-1.0, 1e-10), slope=slope2)
    for rows, cols in (([0.5], [1.5]), ([-2.5, 0.5, 3.5], [-1.5, 0.5, 1.5, 4.5])):
        rows, cols = np.array(rows), np.array(cols)
        a2, b2 = (z + cols - 0.5, -zp - cols - 0.5)[:: 1 if mode == "sum" else -1]
        if len(rows) == 1:
            rows, a2, b2 = rows[0], a2[0], b2[0]
        a = _log_factor(u1, zp + rows - 0.5, -z - rows - 0.5) * w1
        b = _log_factor(u2, a2, b2) * w2
        got = _coupled_sum(a, b, u1, u2, mode)
        want, scale = _dense_coupled(a, b, u1, u2, mode)
        assert np.shape(got) == np.shape(np.squeeze(want))
        assert np.all(np.abs(got - np.squeeze(want)) <= 1e-13 * np.squeeze(scale)), (got, want)
    rng = np.random.default_rng([n, mode == "sum"])
    m = len(u1) // 2
    odd = np.concatenate([u1[:m], [-RHO1 + 0j], u1[m:]])
    a, b = (rng.standard_normal((k, len(v))) + 1j * rng.standard_normal((k, len(v)))
            for k, v in ((3, odd), (2, u2)))
    want, scale = _dense_coupled(a, b, odd, u2, mode)
    assert np.all(np.abs(_coupled_sum(a, b, odd, u2, mode) - want) <= 1e-13 * scale)


def _route(p, xi):
    """The grid parameters, 1x1 entry function and node-count key of the
    hairpin route (xi None, the limit kernel) or the circle route at xi."""
    if xi is None:
        return p, underline_limit_contour, "nodes_per_contour"
    return XiParams(p, xi), underline_prelimit_contour, "nodes_per_circle"


_GRID_PAIRS = {"equal": EQUAL, "principal": Params(0.3 + 0.5j, 0.3 - 0.5j),
               "distinct": Params(0.3, 0.7)}


@pytest.mark.parametrize("p, xi", [
    *((p, None) for p in _GRID_PAIRS.values()),
    *((p, xi) for xi in (0.5, 0.9) for p in _GRID_PAIRS.values()),
], ids=[*_GRID_PAIRS, *(f"xi{xi}-{name}" for xi in (0.5, 0.9) for name in _GRID_PAIRS)])
def test_limit_contour_grid_matches_entries(p, xi):
    # One block per variant over the window [-5, 5] against the entries one
    # at a time (the 1x1 grids), on hairpins (the limit kernel; the bare ids)
    # and on circles (the pre-limit kernel at xi).  An entry and its
    # transpose share one computation, so the upper triangle covers the
    # window.  Each block runs to the node count of its slowest entry.
    pp, entry, nodes = _route(p, xi)
    pts = window_points(5)
    xv = np.array([float(t) for t in pts])
    grid = _contour_grid(xv, xv, pp)
    for i, x in enumerate(pts):
        for j in range(i, len(pts)):
            val, info = entry(x, pts[j], pp, full_output=True)
            for a, b in ((i, j), (j, i)):
                assert abs(grid["value"][a, b] - val) <= 1e-10, (x, pts[j])
                assert grid["variant"][a, b] == info["variant"]
                assert grid[nodes][a, b] >= info[nodes]
    for mode in ("sum", "difference"):
        assert len(set(grid[nodes][grid["variant"] == mode])) == 1


def test_limit_contour_grid_non_square():
    # Rows and columns of both signs: all four sign blocks, each entry
    # against its 1x1 grid, under 'auto' and a fixed variant, on hairpins
    # and on circles.
    xs, ys = [H(t) for t in (-7, -1, 3)], [H(t) for t in (-5, 1, 9, 11)]
    xv, yv = (np.array([float(t) for t in ts]) for ts in (xs, ys))
    for xi in (None, 0.5, 0.9):
        pp, entry, _ = _route(PRINCIPAL, xi)
        for variant in ("auto", "sum"):
            grid = _contour_grid(xv, yv, pp, variant=variant)
            assert grid["value"].shape == (3, 4)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    want = entry(x, y, pp, variant=variant)
                    assert abs(grid["value"][i, j] - want) <= 1e-10, (xi, variant, x, y)


def test_contour_entries_take_their_own_route_params():
    # The type of the parameters picks the contour, so each public entry
    # refuses the other route's parameters instead of switching routes.
    with pytest.raises(TypeError, match="expected Params parameters"):
        underline_limit_contour(H(1), H(1), XiParams(EQUAL, 0.5))
    with pytest.raises(TypeError, match="expected XiParams parameters"):
        underline_prelimit_contour(H(1), H(1), EQUAL)


def test_limit_diagonal_in_unit_interval():
    for p in ALL_PARAMS + [NEGATED]:
        for t in range(-19, 20, 2):
            v = underline_limit_integrable(H(t), H(t), p)
            assert 0.0 < v < 1.0, (p.z, p.z_prime, t, v)


@pytest.mark.parametrize("z", [0.5, -0.5, 2.3, -1.3])
def test_limit_equal_real_diagonal_matches_mpmath(z):
    # Equal real parameters: K(x, x) = (sin(pi z)/pi)^2 psi'(z + x + 1/2),
    # including arguments far out on the negative real axis.
    wk = underline_limit_window(64, Params(z, z))
    with mpmath.workdps(40):
        scale = (mpmath.sinpi(z) / mpmath.pi) ** 2
        for x, got in zip(wk.points, np.diag(wk.values)):
            want = float(scale * mpmath.psi(1, z + float(x) + 0.5))
            assert abs(got - want) <= 1e-14 * abs(want), (x, got, want)


@pytest.mark.parametrize("p", [Params(0.3 + 0.5j, 0.3 - 0.5j), Params(0.3, 0.7)],
                         ids=["principal", "complementary"])
def test_gamma_prefactor_matches_mpmath(p):
    # Gamma(-z'-x+1/2) Gamma(-z-y+1/2) over the positive root of the
    # four-factor product; large x or y puts the Gamma arguments on the
    # negative real axis (complementary) or to its left (principal).
    z, zp = p.z, p.z_prime
    with mpmath.workdps(40):
        def g(w):
            return mpmath.gamma(mpmath.mpc(w))

        for tx, ty in [(1, 1), (5, -3), (-7, 9), (21, 13), (-1, -15)]:
            x, y = tx / 2, ty / 2
            num = g(-zp - x + 0.5) * g(-z - y + 0.5)
            den = g(-z - x + 0.5) * g(-zp - x + 0.5) * g(-z - y + 0.5) * g(-zp - y + 0.5)
            want = complex(num / mpmath.sqrt(mpmath.re(den)))
            got = _gamma_prefactor(x, y, p)
            assert abs(got - want) <= 1e-13 * abs(want), (tx, ty, got, want)


# ---------------------------------------------------------------------------
# Pre-limit kernel: circle contours vs spectral projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xi", [0.5, 0.9])
@pytest.mark.parametrize("p", ALL_PARAMS, ids=["principal", "equal", "distinct", "shifted"])
def test_prelimit_contour_matches_spectral(p, xi):
    px = XiParams(p, xi)
    wk = underline_prelimit_window(16, px)
    for tx, ty in [(1, 1), (1, 3), (-1, 1), (1, -3), (-3, -5), (5, -5)]:
        spec = wk.entry(H(tx), H(ty))
        cont = underline_prelimit_contour(H(tx), H(ty), px)
        assert abs(spec - cont) <= 1e-6 * max(1.0, abs(spec)), (tx, ty, spec, cont)


def _explicit_circle_sum(a, b, r1, r2, mode):
    """The O(n^2) double sum over n equispaced nodes on circles of radii r1
    and r2.  Each denominator is written without cancellation in the reduced
    phase s = 2 pi k/n, |k| <= n/2, of the node product (sum) or ratio
    (difference): t e^(is) - 1 = (t - 1) e^(is) + (e^(is) - 1) and
    r1 e^(ip) - r2 e^(iq) = e^(ip) ((r1 - r2) - r2 (e^(is) - 1)), with
    e^(is) - 1 = 2i sin(s/2) e^(is/2).  The plain u1 u2 - 1 loses up to 2e-13
    relative at xi = 0.99, where the circles nearly meet the poles."""
    n = len(a)
    i, j = np.ogrid[:n, :n]
    k = i + j if mode == "sum" else j - i
    s = 2 * math.pi * ((k + n // 2) % n - n // 2) / n
    em1 = 2j * np.sin(s / 2) * np.exp(0.5j * s)
    if mode == "sum":
        denom = (r1 * r2 - 1.0) * np.exp(1j * s) + em1
    else:
        denom = np.exp(2j * math.pi * i / n) * ((r1 - r2) - r2 * em1)
    return np.sum(a[:, None] * b[None, :] / denom)


@pytest.mark.parametrize("xi", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [8, 64, 512])
def test_circle_sums_match_explicit_double_sum(n, xi):
    # Both FFT circle sums against the double sum they replace, on the radii
    # _circle_radii picks at this xi, with seeded random factors: one factor
    # on each circle (a value), then 3 and 2 factor rows (a 3x2 matrix).
    r1, r2 = _circle_radii(xi)
    rng = np.random.default_rng([n, round(1000 * xi)])
    a, b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    fa, fb = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)) for k in (3, 2))
    ring = np.exp(2j * math.pi * np.arange(n) / n)
    for mode, rb in (("sum", r1), ("difference", r2)):
        want = _explicit_circle_sum(a, b, r1, rb, mode)
        got = _circle_sum(a.copy(), b.copy(), r1 * ring, rb * ring, mode)  # it overwrites its rows
        assert abs(got - want) <= 1e-13 * abs(want), (mode, got, want)
        rows = _circle_sum(fa.copy(), fb.copy(), r1 * ring, rb * ring, mode)
        assert rows.shape == (3, 2)
        for r, s in np.ndindex(rows.shape):
            want = _explicit_circle_sum(fa[r], fb[s], r1, rb, mode)
            assert abs(rows[r, s] - want) <= 1e-13 * abs(want), (mode, r, s, rows[r, s], want)


def test_circle_contour_shares_one_circle():
    # Rows and columns on one circle from one call are bit-identical to two
    # calls, and so is the whole "sum" grid (values and info) built either way.
    rng = np.random.default_rng(3)
    exps = [tuple(rng.standard_normal(k) for _ in range(3)) for k in (3, 4)]
    om, *rows = _circle_contour(1.1, 256, 0.9, *exps)
    for e, f in zip(exps, rows):
        om2, f2 = _circle_contour(1.1, 256, 0.9, e)
        assert np.array_equal(om, om2) and np.array_equal(f, f2)

    def two_calls(radius, n, sq, *exponents):
        return (_circle_contour(radius, n, sq)[0],
                *(_circle_contour(radius, n, sq, e)[1] for e in exponents))

    xv = np.arange(-9, 10, 2) / 2.0
    for p in (XiParams(EQUAL, 0.9), XiParams(Params(0.3 + 0.5j, 0.3 - 0.5j), 0.5)):
        for variant in ("auto", "sum"):
            shared = _contour_grid(xv, xv, p, variant)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels_module, "_circle_contour", two_calls)
                split = _contour_grid(xv, xv, p, variant)
            assert shared.keys() == split.keys()
            assert all(np.array_equal(shared[k], split[k]) for k in shared), (p, variant)


def test_prelimit_contour_variants_agree():
    px = XiParams(DISTINCT, 0.5)
    for tx, ty in [(1, -3), (3, -1), (5, -5)]:
        s = underline_prelimit_contour(H(tx), H(ty), px, variant="sum")
        d = underline_prelimit_contour(H(tx), H(ty), px, variant="difference")
        assert abs(s - d) <= 1e-9 * max(1.0, abs(s))


def _eigensolver_projection(M, px):
    """The positive spectral projection of the difference operator on the
    raw window [-M, M], by a dense eigensolve (interior-accurate only)."""
    w, v = eigh_tridiagonal(*_difference_operator(M, px))
    vp = v[:, w > 0.0]
    return vp @ vp.T


def test_prelimit_spectral_window_consistency():
    # The padded-window route must agree with a much larger raw spectral
    # window on the interior.
    px = XiParams(EQUAL, 0.5)
    small = underline_prelimit_window(8, px)
    big = _eigensolver_projection(256, px)
    assert np.max(np.abs(small.values - big[256 - 8 : 256 + 8, 256 - 8 : 256 + 8])) < 1e-8


def test_prelimit_projection_property():
    # The center block of a projection has its spectrum in [0, 1].
    px = XiParams(PRINCIPAL, 0.7)
    ev = np.linalg.eigvalsh(underline_prelimit_window(12, px).values)
    assert ev.min() > -1e-6 and ev.max() < 1.0 + 1e-6


def test_prelimit_diagonal_matches_maya_enumeration():
    # The underline kernel correlates the semi-infinite (maya) process: its
    # density tends to 1 far to the left.  The enumeration oracle bounds its
    # own truncation error.
    for base in (EQUAL, PRINCIPAL):
        px = XiParams(base, 0.2)
        wk = underline_prelimit_window(6, px)
        for t in (-3, -1, 1, 3):
            oracle = correlation_oracle([H(t)], px, max_size=16, process="maya")
            got = wk.entry(H(t), H(t))
            assert abs(got - oracle.value) <= oracle.tail_mass + 1e-9, (base.z, t)


def test_prelimit_pair_matches_maya_enumeration():
    px = XiParams(DISTINCT, 0.2)
    wk = underline_prelimit_window(6, px)
    for tx, ty in [(-1, 1), (1, 3)]:
        oracle = correlation_oracle([H(tx), H(ty)], px, max_size=16, process="maya")
        got = float(np.linalg.det(wk.submatrix([H(tx), H(ty)])))
        assert abs(got - oracle.value) <= oracle.tail_mass + 1e-9


# ---------------------------------------------------------------------------
# Padding ladder: resolvent quadrature against the eigensolver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xi", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("p", [EQUAL, PRINCIPAL, DISTINCT], ids=["equal", "principal", "distinct"])
def test_prelimit_center_block_matches_eigensolver(p, xi):
    # The quadrature center block of a padded window (the ladder's first
    # rung) against a dense eigensolve of the same window, and the
    # certificate the ladder reports.  2N = 12 fills one tile; 2N = 40 and
    # 80 span several and end in a ragged one.
    px = XiParams(p, xi)
    tol = 1e-9
    for N in (6, 20, 40):
        M = N + 2 * max(16, math.ceil(1.0 / (1.0 - xi)))
        block, cert = _spectral_center(N, M, px, tol)
        w, v = eigh_tridiagonal(*_difference_operator(M, px))
        rows = v[M - N : M + N, w > 0.0]
        assert np.max(np.abs(block - rows @ rows.T)) <= 1e-10, N
        assert cert["positive_eigenvalues"] == rows.shape[1]
        assert 0.0 < cert["spectral_gap"] <= np.min(np.abs(w))
    meta = underline_prelimit_window(4, px, tol=tol).meta
    assert meta["quadrature_bound"] <= tol / 1000
    assert meta["padding_residual"] <= tol
    assert meta["quadrature_nodes"] > 0 and meta["spectral_gap"] > 0.0


def test_prelimit_window_beyond_eigensolver_reach():
    # Padding 32000: all eigenvectors of the 64016-point window would take
    # about 32 GB; the quadrature ladder needs O(padding) memory.
    wk = underline_prelimit_window(8, XiParams(EQUAL, 0.999), tol=1e-6, max_pad=1 << 15)
    assert wk.meta["padding_residual"] <= 1e-6
    assert wk.meta["quadrature_bound"] <= 1e-9
    ev = np.linalg.eigvalsh(wk.values)
    assert ev.min() > -1e-6 and ev.max() < 1.0 + 1e-6


def test_prelimit_window_default_cap_reaches_xi_09999():
    # The ladder at xi = 0.9999 starts at padding 10001 and stabilizes at
    # 320032, past 2^16: the default cap 2^20 lets it finish.
    wk = underline_prelimit_window(8, XiParams(EQUAL, 0.9999), tol=1e-6)
    assert wk.meta["padding"] > 1 << 16
    assert wk.meta["padding_residual"] <= 1e-6


def test_prelimit_center_block_memory_is_linear_in_padding():
    # One rung at M = 8000: an M x M array alone would take 2 GB.  At N = 256
    # the tiled fill keeps O(N nodes) beside the 2 MB block (about 200 nodes).
    tracemalloc.start()
    try:
        _spectral_center(4, 8000, XiParams(PRINCIPAL, 0.999), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _spectral_center(256, 4352, XiParams(EQUAL, 0.999), 1e-8)
        wide = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak
    assert wide < 32e6, wide


@pytest.mark.parametrize("N", [0, -1])
def test_prelimit_window_rejects_non_positive_half_width(N):
    with pytest.raises(ValueError, match="window half-width must be a positive integer"):
        underline_prelimit_window(N, XiParams(EQUAL, 0.5))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_prelimit_window_rejects_tol_not_above_zero(monkeypatch, tol):
    # The ladder stops at residual <= tol, which a tol <= 0 or nan never
    # reliably meets, so the check comes before the first rung: the
    # eigensolver is never reached.
    monkeypatch.setattr(kernels_module, "_spectral_center", None)
    with pytest.raises(ValueError, match="tol must be > 0"):
        underline_prelimit_window(4, XiParams(EQUAL, 0.5), tol=tol)


def test_prelimit_window_padding_cap_reports_residual():
    px = XiParams(EQUAL, 0.99)
    with pytest.raises(NonConvergenceError) as exc:
        underline_prelimit_window(4, px, tol=1e-12, max_pad=500)
    err = exc.value
    assert err.op == "underline_prelimit_window"
    assert err.tol < err.achieved < math.inf
    assert err.nodes == 500
    assert "padding cap max_pad 500" in str(err)


@pytest.mark.parametrize("xi, max_pad", [(0.9999, 5000), (0.99, 500)], ids=["first-rung", "later-rung"])
def test_prelimit_window_runs_no_rung_past_max_pad(monkeypatch, xi, max_pad):
    # The cap is checked before every rung, the first included: at xi=0.9999
    # the first rung needs padding 10001, so none runs and nothing was refined.
    calls = []

    def spy(N, M, p, tol):
        calls.append(M)
        return _spectral_center(N, M, p, tol)

    monkeypatch.setattr(kernels_module, "_spectral_center", spy)
    with pytest.raises(NonConvergenceError) as exc:
        underline_prelimit_window(4, XiParams(EQUAL, xi), tol=1e-12, max_pad=max_pad)
    assert all(M <= max_pad for M in calls)
    assert f"padding cap max_pad {max_pad}" in str(exc.value)
    if xi == 0.9999:
        assert calls == [] and exc.value.achieved == math.inf
        assert "the first rung needs padding 10001 (half-width 10005)" in str(exc.value)
    else:
        assert len(calls) >= 2 and exc.value.achieved < math.inf


def test_sign_quadrature_fails_without_spectral_gap():
    # [[1, 1], [1, 1]] has the eigenvalue 0: no gap around 0 can be certified.
    with pytest.raises(NonConvergenceError) as exc:
        _sign_quadrature(np.array([1.0, 1.0]), np.array([1.0]), 1e-9)
    assert "gap" in exc.value.op
    msg = str(exc.value)
    assert "1 eigenvalue(s) within 1.819e-12 of 0" in msg
    assert msg.endswith("at the window half-width 1")
    assert "successive refinements" not in msg


# The reference route: Sturm counts at 0 and at +-every trial gap from one
# sweep vectorized over 161 shifts, and the center from two separate pivot
# sweeps, one from each end, and the block filled one row at a time.  The
# library bisects over the trial gaps with compiled LAPACK counts (stebz),
# runs both sweeps as one flat row per step and fills the block in tiles; its
# gap and positive count must match this bit for bit and, over the same
# nodes and weights, its values within 1e-15.  The trapezoid rule in
# s = log t that the library used before Zolotarev's poles stays here as an
# independent sign rule with its own a priori bound.

def _reference_pivot_sweep(diag, off2, shifts):
    d = diag[0] - shifts
    yield d
    for a, b2 in zip(diag[1:], off2):
        d = (a - shifts) - b2 / d
        yield d


def _reference_counts(diag, off2, shifts):
    neg = np.zeros(len(shifts), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in _reference_pivot_sweep(list(diag), list(off2), np.asarray(shifts, dtype=float)):
            neg += d < 0
    return neg


def _reference_gap(diag, off):
    """lam_max (Gershgorin), the widest clear trial gap and the positive count."""
    r = np.abs(off)
    lam_max = float(np.max(np.abs(diag) + np.r_[0.0, r] + np.r_[r, 0.0]))
    deltas = lam_max * 2.0 ** (-0.5 * np.arange(1, 81))
    neg = _reference_counts(diag.tolist(), (r * r).tolist(), np.r_[0.0, deltas, -deltas])
    clear = neg[1 : 1 + len(deltas)] == neg[1 + len(deltas) :]
    assert clear.any()
    return lam_max, float(deltas[np.argmax(clear)]), len(diag) - int(neg[0])


def _trapezoid_sign_quadrature(diag, off, tol):
    """sign(D) = (2/pi) int e^s Re[(D - i e^s)^-1] ds by the trapezoid rule in s:
    step h errs by at most 2 sum_m sech(pi^2 m/h) (Poisson summation), the range
    [log gap - u, log lam_max + u] cuts tails of at most (2/pi) e^-u each, and
    P+ is entrywise within half their sum, <= max(tol/1000, 1e-14)."""
    lam_max, gap, positive = _reference_gap(diag, off)
    eps = max(tol / 1000.0, 1e-14)
    q = eps / 8.0
    h = math.pi**2 / math.log(1.0 / q)
    u = math.log(4.0 / (math.pi * eps))
    s0 = math.log(gap) - u
    s = s0 + h * np.arange(math.ceil((math.log(lam_max) + u - s0) / h) + 1)
    disc = 4.0 * q / (1.0 - q)
    tails = (2.0 / math.pi) * (math.exp(math.log(lam_max) - s[-1]) + math.exp(-u))
    t = np.exp(s)
    cert = {"spectral_gap": gap, "quadrature_nodes": len(t), "quadrature_bound": (disc + tails) / 2}
    return t, (2.0 / math.pi) * h * t, positive, cert


def _reference_center(N, M, p, tol, rule=_trapezoid_sign_quadrature):
    diag, off = _difference_operator(M, p)
    t, w, positive, cert = rule(diag, off, tol)
    z = 1j * t
    lo, m = M - N, 2 * N
    off2 = off * off
    a, b2 = diag.tolist(), off2.tolist()
    left = np.array(list(islice(_reference_pivot_sweep(a, b2, z), lo - 1, lo + m - 1)))
    right = np.array(list(islice(_reference_pivot_sweep(a[::-1], b2[::-1], z), lo - 1, lo + m - 1)))[::-1]
    g = 1.0 / (diag[lo : lo + m, None] - z - off2[lo - 1 : lo + m - 1, None] / left
               - off2[lo : lo + m, None] / right)
    ratio = -off[lo : lo + m - 1, None] / right[:-1]
    sign = np.diag(g.real @ w)
    for i in range(m - 1):
        sign[i, i + 1 :] = sign[i + 1 :, i] = (g[i] * np.cumprod(ratio[i:], axis=0)).real @ w
    return 0.5 * (np.eye(m) + sign), dict(cert, positive_eigenvalues=positive)


def _reference_window(N, p, tol):
    pad = max(16, N // 2, math.ceil(1.0 / (1.0 - p.xi)))
    prev, _ = _reference_center(N, N + pad, p, tol)
    while True:
        pad *= 2
        cur, cert = _reference_center(N, N + pad, p, tol)
        residual = float(np.max(np.abs(cur - prev)))
        if residual <= tol:
            return cur, dict(cert, padding=pad, padding_residual=residual)
        prev = cur


@pytest.mark.parametrize("xi", [0.3, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("p", [EQUAL, PRINCIPAL, DISTINCT], ids=["equal", "principal", "distinct"])
def test_spectral_center_matches_reference_bit_for_bit(p, xi):
    # The gap and positive count bit for bit; the sweep and the tiled fill
    # against the row loop over the library's own nodes and weights.
    px = XiParams(p, xi)
    pad = max(16, math.ceil(1.0 / (1.0 - xi)))
    for N, M, tol in ((4, 4 + pad, 1e-9), (8, 8 + 2 * pad, 1e-6), (16, 16 + 4 * pad, 2e-3)):
        diag, off = _difference_operator(M, px)
        positive, cert = _sign_quadrature(diag, off, tol)[2:]
        assert (cert["spectral_gap"], positive) == _reference_gap(diag, off)[1:]
        block, meta = _spectral_center(N, M, px, tol)
        rblock, rmeta = _reference_center(N, M, px, tol, rule=_sign_quadrature)
        assert meta == rmeta
        # The tiles group the products and sums differently from the row loop.
        assert np.max(np.abs(block - rblock)) <= 1e-15, (N, M, tol)


def test_prelimit_window_matches_reference_on_ladder_inputs():
    # The benchmark ladder's windows: N=64 at tol max(1e-7, 2(1 - xi)) on its
    # three pairs, and N=8 at xi=0.99, tol 1e-6, against the trapezoid rule's
    # ladder: the same rungs, gaps and positive counts, and values within the
    # sum of the two rules' bounds (both approximate the same projection).
    equal, principal, distinct = Params(0.5, 0.5), Params(0.3 + 0.5j, 0.3 - 0.5j), Params(0.3, 0.7)
    cases = [(64, XiParams(p, xi), max(1e-7, 2.0 * (1.0 - xi)))
             for p, sweep in ((equal, (0.9, 0.99, 0.999)), (principal, (0.9, 0.99, 0.999)),
                              (distinct, (0.9, 0.99)))
             for xi in sweep]
    for N, px, tol in cases + [(8, XiParams(equal, 0.99), 1e-6)]:
        wk = underline_prelimit_window(N, px, tol=tol)
        values, meta = _reference_window(N, px, tol)
        for key in ("padding", "spectral_gap", "positive_eigenvalues"):
            assert wk.meta[key] == meta[key], (key, N, px, tol)
        bound = wk.meta["quadrature_bound"] + meta["quadrature_bound"]
        assert np.max(np.abs(wk.values - values)) <= bound, (N, px, tol)


def _tail_start_case(j):
    # A symmetric tridiagonal whose clear trial gaps start at trial j: its
    # eigenvalue nearest 0 is moved between trials j and j - 1 (or, for j = 0,
    # every eigenvalue lies beyond the first trial).
    if j == 0:
        return np.array([1.0, -1.0, 1.0, -1.0]), np.array([0.1, 0.1, 0.1])
    rng = np.random.default_rng(11)
    diag, off = rng.normal(size=50), rng.normal(size=49)
    w = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    diag = diag - w[np.argmin(np.abs(w))]
    r = np.abs(off)
    lam_max = float(np.max(np.abs(diag) + np.r_[0.0, r] + np.r_[r, 0.0]))
    return diag + lam_max * 2.0 ** (-0.5 * j - 0.25), off


# Evaluating sum_k w_k x/(x^2 + t_k^2) in double precision rounds each of its
# positive terms; near 1 that is a few units of 2.2e-16, allowed once here.
_RULE_ROUNDING = 1e-15


def _rule_error(t, w, lo, hi, n=20001):
    """max |1 - sum_k w_k x/(x^2 + t_k^2)| on a dense log grid over [lo, hi]."""
    x = np.geomspace(lo, hi, n)
    return float(np.max(np.abs(1.0 - (x[:, None] / (x[:, None] ** 2 + t**2)) @ w)))


@pytest.mark.parametrize("j", [0, 79], ids=["first-trial", "last-trial"])
def test_sign_quadrature_bisection_ends_match_reference(j):
    diag, off = _tail_start_case(j)
    lam_max, gap, rpositive = _reference_gap(diag, off)
    t, w, positive, cert = _sign_quadrature(diag, off, 1e-9)
    assert gap == lam_max * 2.0 ** (-0.5 * (j + 1))  # the case hits what it names
    assert cert["spectral_gap"] == gap and positive == rpositive
    # The rule against sign on the certified [gap, lam_max] (it is odd).
    assert cert["quadrature_bound"] <= 1e-12 / 2
    assert _rule_error(t, w, gap, lam_max) <= 2 * cert["quadrature_bound"] + _RULE_ROUNDING


def _mp_zolotarev(j, r):
    """Poles, weights and error of the (2r-1, 2r) Zolotarev rule in 60 digits,
    straight from mpmath's Jacobi functions at parameter 1 - l^2."""
    with mpmath.workdps(60):
        ell = mpmath.mpf(2) ** (-mpmath.mpf(j + 1) / 2)
        m1 = 1 - ell**2
        kp = mpmath.ellipk(m1)
        c = [ell**2 * mpmath.ellipfun("sc", i * kp / (2 * r), m1) ** 2 for i in range(1, 2 * r)]
        odd, even = c[0::2], c[1::2]
        res = [mpmath.fprod(e - o for e in even) / mpmath.fprod(q - o for q in odd if q != o)
               for o in odd]
        xs = [ell / mpmath.ellipfun("dn", i * kp / (2 * r), m1) for i in range(2 * r + 1)]
        s = [x * mpmath.fsum(a / (x * x + o) for a, o in zip(res, odd)) for x in xs]
        hi, lo = max(s), min(s)
        return ([float(mpmath.sqrt(o)) for o in odd], [float(2 * a / (hi + lo)) for a in res],
                float((hi - lo) / (hi + lo)))


@pytest.mark.parametrize("r", [8, 30, 60])
@pytest.mark.parametrize("j", [0, 20, 46, 55, 79])
def test_zolotarev_table_matches_mpmath(j, r):
    # Down to l = 2^-40 the AGM at the imaginary argument keeps every pole
    # and weight to 1e-12; the error read off in double precision stays
    # within the 1e-14 floor of the certified one.
    t, w, delta = kernels_module._zolotarev(j, r)
    mt, mw, mdelta = _mp_zolotarev(j, r)
    assert len(t) == len(w) == r and np.all(w > 0)
    assert np.max(np.abs(t / mt - 1.0)) <= 1e-12 and np.max(np.abs(w / mw - 1.0)) <= 1e-12
    assert abs(delta - mdelta) <= 1e-14, (delta, mdelta)
    assert not t.flags.writeable and kernels_module._zolotarev(j, r)[0] is t


@pytest.mark.parametrize("j", [0, 13, 30, 46, 55, 79])  # l = 2^(-(j+1)/2); 55 and 79: l <= 4e-9
def test_zolotarev_error_matches_dense_evaluation(j):
    # The error read off at the 2r + 1 equioscillation points is the rule's
    # maximum on [l, 1]: a dense grid reaches it to within its spacing and
    # never exceeds it by more than rounding.
    ell = 2.0 ** (-0.5 * (j + 1))
    for r in (2, 8, 20, 45):
        t, w, delta = kernels_module._zolotarev(j, r)
        assert np.all(w > 0)
        err = _rule_error(t, w, ell, 1.0)
        assert 0.99 * delta - _RULE_ROUNDING <= err <= delta + _RULE_ROUNDING, (r, err, delta)


def test_sign_quadrature_meets_the_floor_on_every_trial():
    # At tol 1e-11 every one of the 80 trial gaps reaches the 1e-14 floor with
    # positive weights, and no smaller pole count would.
    for j in range(80):
        # Eigenvalues +-1 and one between trials j and j - 1: lam_max 1, gap trial j.
        diag, off = np.array([1.0, -1.0, 2.0 ** (0.25 - 0.5 * (j + 1))]), np.zeros(2)
        t, w, positive, cert = _sign_quadrature(diag, off, 1e-11)
        r = cert["quadrature_nodes"]
        assert cert["spectral_gap"] == 2.0 ** (-0.5 * (j + 1)) and positive == 2, j
        assert len(t) == r and np.all(w > 0) and cert["quadrature_bound"] <= 0.5e-14, j
        assert r == 1 or kernels_module._zolotarev(j, r - 1)[2] > 1e-14, j


@pytest.mark.parametrize("xi, pad", [(0.9, 256), (0.99, 4096), (0.999, 32000)])
def test_sign_quadrature_needs_a_third_of_the_trapezoid_nodes(xi, pad):
    # Criterion 8's last rungs (N = 256, tol 1e-8): at most a third of the
    # trapezoid rule's nodes over the same gap, at a tighter bound.
    diag, off = _difference_operator(256 + pad, XiParams(EQUAL, xi))
    cert = _sign_quadrature(diag, off, 1e-8)[3]
    ref = _trapezoid_sign_quadrature(diag, off, 1e-8)[3]
    assert ref["spectral_gap"] == cert["spectral_gap"]
    assert 3 * cert["quadrature_nodes"] <= ref["quadrature_nodes"], (cert, ref)
    assert cert["quadrature_bound"] <= ref["quadrature_bound"]


@pytest.mark.parametrize(
    "diag, off, shift",
    [
        ([0.5, 2.0, -1.0, 3.0], [1.0, 0.5, 2.0], 0.5),  # shift equal to diag[0]
        ([-0.0, 2.0, -1.0], [1.0, 0.5], 0.0),  # a -0 first pivot
        ([1.0, 1.0, 3.0, -2.0, 1.0], [1.0, 1.0, 1.0, 0.5], 0.0),  # zero pivot mid-sweep
        ([1.0, 1.0, 3.0, -2.0], [1.0, 0.0, 1.0], 0.0),  # 0/0 mid-sweep
        ([2.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 0.0),  # 0/0 twice
    ],
    ids=["shift-at-diag0", "negative-zero", "zero-pivot", "zero-over-zero", "zero-over-zero-twice"],
)
def test_sturm_count_zero_pivots_match_numpy(diag, off, shift):
    # The compiled count of eigenvalues in (lo, hi] on matrices with a zero
    # pivot at `shift`: ends off the spectrum match NumPy's IEEE pivot sweep as
    # ref(hi) - ref(lo), and intervals ending at `shift` itself (an eigenvalue
    # in the last two cases) match a dense eigensolve, half-open.
    off2 = [b * b for b in off]
    with np.errstate(divide="ignore", invalid="ignore"):
        pivots = np.array(list(_reference_pivot_sweep(diag, off2, np.array([shift]))))
    assert np.any((pivots == 0.0) | np.isnan(pivots))  # the case hits what it names
    d, e = np.array(diag), np.array(off)
    ends = [shift - 1.0, shift - 0.25, shift + 0.25, shift + 1.0]
    ref = _reference_counts(diag, off2, ends)
    for i, k in combinations(range(len(ends)), 2):
        assert _eigen_count(d, e, ends[i], ends[k]) == ref[k] - ref[i]
    w = np.round(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)), 12)
    for lo, hi in ((shift - 0.25, shift), (shift, shift + 0.25)):
        assert _eigen_count(d, e, lo, hi) == np.count_nonzero((lo < w) & (w <= hi))


def test_sturm_count_matches_numpy_on_random_shifts():
    rng = np.random.default_rng(7)
    diag, off = rng.normal(size=200), rng.normal(size=199)
    shifts = np.unique(np.r_[rng.normal(size=40), 0.0, diag[0], np.linspace(-3.0, 3.0, 13)])
    ref = _reference_counts(diag.tolist(), (off * off).tolist(), shifts)
    counts = np.zeros((len(shifts), len(shifts)), dtype=int)
    for i, k in combinations(range(len(shifts)), 2):
        counts[i, k] = _eigen_count(diag, off, shifts[i], shifts[k])
        assert counts[i, k] == ref[k] - ref[i], (shifts[i], shifts[k])
    # Monotone in the interval: widening either end never counts fewer.
    for i in range(len(shifts)):
        assert np.all(np.diff(counts[i, i + 1 :]) >= 0) and np.all(np.diff(counts[:i, i]) <= 0)


# ---------------------------------------------------------------------------
# J-transform and blocks
# ---------------------------------------------------------------------------

def _eps(x):
    # The J-transform's sign reference: 1 on positives, (-1)^(|x| - 1/2) on
    # negatives, so -1 at -3/2, -7/2, ...
    return -1.0 if x.twice < 0 and (-x.twice - 1) // 2 % 2 else 1.0


def test_j_transform_blocks():
    px = XiParams(PRINCIPAL, 0.5)
    un = underline_prelimit_window(8, px)
    K = j_transform(un)
    assert K.kind == "k_prelimit"
    for x in K.points:
        for y in K.points:
            e = _eps(x) * _eps(y)
            base = un.entry(x, y)
            if float(x) < 0:
                base = (1.0 if x == y else 0.0) - base
            assert abs(K.entry(x, y) - e * base) < 1e-14


def test_j_transform_j_symmetry():
    # Same-side symmetric, mixed-pair antisymmetric.
    px = XiParams(DISTINCT, 0.6)
    K = j_transform(underline_prelimit_window(8, px))
    for x in K.points:
        for y in K.points:
            s = 1.0 if (x.twice > 0) == (y.twice > 0) else -1.0
            assert abs(K.entry(x, y) - s * K.entry(y, x)) < 1e-12


def test_j_transform_diagonal_matches_config_enumeration():
    # Flipping holes/particles on the negative half-lattice turns the
    # semi-infinite process into the finite balanced-configuration process.
    px = XiParams(EQUAL, 0.2)
    K = j_transform(underline_prelimit_window(6, px))
    for t in (-3, -1, 1):
        oracle = correlation_oracle([H(t)], px, max_size=16, process="config")
        assert abs(K.entry(H(t), H(t)) - oracle.value) <= oracle.tail_mass + 1e-9


def test_j_transform_pair_matches_config_enumeration():
    px = XiParams(EQUAL, 0.2)
    K = j_transform(underline_prelimit_window(6, px))
    for pair in [(-3, -1), (-1, 3)]:
        pts = [H(pair[0]), H(pair[1])]
        oracle = correlation_oracle(pts, px, max_size=16, process="config")
        got = float(np.linalg.det(K.submatrix(pts)))
        assert abs(got - oracle.value) <= oracle.tail_mass + 1e-9


def test_weighted_blocks_structure():
    px = XiParams(PRINCIPAL, 0.5)
    K = j_transform(underline_prelimit_window(12, px))
    wb = weighted_blocks(K)
    # Independent trace recomputation: sum over x > 0 of K(x, x)/|x|.
    want_pp = sum(K.entry(H(t), H(t)) / (t / 2.0) for t in range(1, 2 * 12, 2))
    assert abs(wb.trace_pp - want_pp) < 1e-12
    # J-symmetry makes the mixed blocks transposes up to sign.
    assert abs(wb.hs_pm - wb.hs_mp) < 1e-12
    # The weighted positive block of the underline kernel is PSD.
    h = np.array([1.0 / math.sqrt(t / 2.0) for t in range(1, 2 * 12, 2)])
    pp = K.values[12:, 12:] * h[:, None] * h[None, :]
    evs = np.linalg.eigvalsh(pp + pp.T) / 2.0
    assert evs.min() > -1e-10


def _reference_j_transform(wk):
    # Per-point signs and sides, the J-transform's defining formula.
    pts = wk.points
    eps = np.array([_eps(t) for t in pts])
    neg = np.array([t.twice < 0 for t in pts])
    inner = wk.values.copy()
    inner[neg, :] *= -1.0
    inner[neg, neg] += 1.0
    return inner * eps[:, None] * eps[None, :]


def _reference_weighted_blocks(K):
    # The dense arrangement A_h K A_h and its four blocks.
    pts = K.points
    h = np.array([1.0 / math.sqrt(abs(float(t))) for t in pts])
    a = K.values * h[:, None] * h[None, :]
    pos = np.array([t.twice > 0 for t in pts])
    neg = ~pos
    return (float(np.trace(a[np.ix_(pos, pos)])), float(np.trace(a[np.ix_(neg, neg)])),
            float(np.linalg.norm(a[np.ix_(pos, neg)])), float(np.linalg.norm(a[np.ix_(neg, pos)])))


@pytest.mark.parametrize("N", [8, 64, 256])
@pytest.mark.parametrize("p", [EQUAL, PRINCIPAL, DISTINCT], ids=["equal", "principal", "distinct"])
def test_j_transform_and_weighted_blocks_match_dense_reference_bit_for_bit(p, N):
    for un in (underline_limit_window(N, p), underline_prelimit_window(N, XiParams(p, 0.5), tol=1e-6)):
        K = j_transform(un)
        assert K.values.tobytes() == _reference_j_transform(un).tobytes(), un.kind
        wb = weighted_blocks(K)
        assert (wb.trace_pp, wb.trace_mm, wb.hs_pm, wb.hs_mp) == _reference_weighted_blocks(K), un.kind


def test_weighted_blocks_forms_no_full_window_array():
    K = j_transform(underline_limit_window(1024, EQUAL))
    tracemalloc.start()
    try:
        weighted_blocks(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K.values.nbytes, peak  # one 2048 x 2048 float64 array is 32 MB


def test_weighted_blocks_requires_k_kind():
    px = XiParams(EQUAL, 0.5)
    un = underline_prelimit_window(4, px)
    with pytest.raises(ValueError):
        weighted_blocks(un)


# ---------------------------------------------------------------------------
# Reflection symmetry under parameter negation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [EQUAL, PRINCIPAL, SHIFTED], ids=["equal", "principal", "shifted"])
def test_reflection_symmetry_prelimit(p):
    xi = 0.7
    K = j_transform(underline_prelimit_window(10, XiParams(p, xi)))
    Kn = j_transform(underline_prelimit_window(10, XiParams(Params(-p.z, -p.z_prime), xi)))
    for x in K.points:
        for y in K.points:
            # +1 for a same-side pair, -1 for a mixed pair.
            sign = 1.0 if (x.twice > 0) == (y.twice > 0) else -1.0
            lhs = K.entry(x, y)
            rhs = sign * Kn.entry(H(-x.twice), H(-y.twice))
            assert abs(lhs - rhs) < 1e-7, (x, y, lhs, rhs)


# ---------------------------------------------------------------------------
# Quadrature plumbing
# ---------------------------------------------------------------------------

def test_quadrature_config_validation():
    # Both contour routes check tol and max_nodes before building any node.
    for route, p in ((underline_limit_contour, EQUAL),
                     (underline_prelimit_contour, XiParams(EQUAL, 0.5))):
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                route(H(1), H(1), p, tol=tol)
        # Stabilization compares two node counts from 64, so the cap must allow a doubling.
        for cap in (32, 64, 127):
            with pytest.raises(ValueError, match="max_nodes must be at least 128"):
                route(H(1), H(1), p, max_nodes=cap)
        assert math.isfinite(route(H(1), H(1), p, tol=1e-3, max_nodes=128))


def test_circle_radius_band():
    assert 1.0 < _circle_radii(0.5)[0] < 2.0**0.5


def test_bad_variant_rejected():
    with pytest.raises(ValueError):
        underline_limit_contour(H(1), H(1), EQUAL, variant="other")


def test_nonconvergence_error_reported():
    with pytest.raises(NonConvergenceError) as exc:
        underline_limit_contour(H(1), H(1), EQUAL, tol=1e-14, max_nodes=128)
    err = exc.value
    assert err.op == "underline_limit_contour"
    assert err.nodes == 128
    assert err.achieved > err.tol
    assert "at the node cap 128" in str(err)


def test_contour_imaginary_residue_reports_nodes():
    # A stable but non-real quadrature value: three coincident nodes whose
    # coupled sum is 3, times a prefactor that makes the value 3 + 3i.
    def contours(n):
        return np.full(3, 2.0 + 0j), np.ones(3), np.ones(1, complex), np.ones(1)

    pref = (2j * math.pi) ** 2 * (1 + 1j)
    with pytest.raises(NonConvergenceError) as exc:
        _contour_value("op", pref, "difference", contours, tol=1e-10, max_nodes=2**19)
    err = exc.value
    assert err.op == "op (imaginary residue)"
    # The count is n per ray / circle at the level that stabilized (the
    # second), the unit of max_nodes, not len(u1).
    assert err.nodes == 128 and err.achieved == pytest.approx(3.0)
    assert "imaginary part 3.000e+00 > limit 1.500e-08 at the node count 128" in str(err)


@pytest.mark.parametrize("tol, cap", [(1e-3, 128), (1e-6, 256), (1e-10, 2**19)])
def test_hairpin_node_count_is_per_ray_within_the_cap(tol, cap):
    # nodes_per_contour counts n per ray, the unit of max_nodes: a doubling
    # level, at most the cap (the whole hairpin has about 2n + n/4 nodes).
    for x, y in ((1, 1), (5, -3)):
        info = underline_limit_contour(H(x), H(y), EQUAL, tol=tol, max_nodes=cap, full_output=True)[1]
        n = info["nodes_per_contour"]
        assert n <= cap and n >= 64 and n & (n - 1) == 0, (x, y, info)
    assert underline_limit_contour(H(1), H(1), EQUAL, full_output=True)[1]["nodes_per_contour"] == 256


# ---------------------------------------------------------------------------
# xi -> 1 pointwise approach
# ---------------------------------------------------------------------------

def test_xi_to_one_pointwise():
    # The diagonal value overshoots the limit for moderate xi (peak near 0.8);
    # the approach is monotone from 0.9 on.  Deeper sweeps run in the
    # acceptance suite.
    limit = underline_limit_integrable(H(1), H(1), EQUAL)
    gaps = []
    for xi in (0.9, 0.95, 0.98):
        wk = underline_prelimit_window(2, XiParams(EQUAL, xi), tol=1e-6)
        gaps.append(abs(wk.entry(H(1), H(1)) - limit))
    assert gaps[0] > gaps[1] > gaps[2], gaps
    assert gaps[-1] < 0.05


@pytest.mark.parametrize("p", [EQUAL, PRINCIPAL, DISTINCT], ids=["equal", "principal", "distinct"])
def test_prelimit_contour_matches_ladder_near_one(p):
    # Near xi = 1 the circle contours (up to 32768 nodes per circle) are an
    # independent check of the padding ladder, on every entry of [-2, 2].
    px = XiParams(p, 0.99)
    wk = underline_prelimit_window(2, px, tol=1e-12, max_pad=1 << 18)
    for x in wk.points:
        for y in wk.points:
            cont = underline_prelimit_contour(x, y, px)
            assert abs(wk.entry(x, y) - cont) <= 1e-10, (x, y, wk.entry(x, y), cont)


def test_prelimit_contour_matches_ladder_at_xi_0999():
    # At xi = 0.999 the contours need up to 2^18 nodes per circle near the origin.
    px = XiParams(DISTINCT, 0.999)
    wk = underline_prelimit_window(1, px, tol=1e-12, max_pad=1 << 18)
    for x in wk.points:
        for y in wk.points:
            cont, info = underline_prelimit_contour(x, y, px, full_output=True)
            assert abs(wk.entry(x, y) - cont) <= 1e-10, (x, y, wk.entry(x, y), cont, info)


def test_prelimit_contour_far_entry_at_xi_0999_within_default_cap():
    # Away from the origin at xi = 0.999 the doubling needs 2^19 nodes per
    # circle (at 2^18 the increment is still about 2e-8): the default cap
    # must admit it, and the value must match the certified padding ladder.
    px = XiParams(DISTINCT, 0.999)
    x, y = H(-11), H(-7)
    cont, info = underline_prelimit_contour(x, y, px, full_output=True)
    assert info["nodes_per_circle"] == 2**19, info
    assert info["last_increment"] < 1e-10  # the default tol
    wk = underline_prelimit_window(6, px, tol=1e-12, max_pad=1 << 18)
    assert abs(wk.entry(x, y) - cont) <= 1e-10, (wk.entry(x, y), cont, info)
