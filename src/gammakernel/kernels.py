"""Correlation kernels on the half-integer lattice, by four independent routes.

The central objects are the "underline" kernels: the spectral projection of
the second-order difference operator

    D f(x) = sqrt(xi (z+x+1/2)(z'+x+1/2)) f(x+1)
           + sqrt(xi (z+x-1/2)(z'+x-1/2)) f(x-1)
           - [x + xi (z+z'+x)] f(x)

onto the positive part of its spectrum (the pre-limit kernel, 0 < xi < 1), and
its xi -> 1 limit (the Gamma kernel).  Four evaluation methods are provided:

  * underline_limit_integrable -- closed form through SciPy's Gamma, psi and
    psi' (the equal-real diagonal), one body (_limit_closed_form) for single
    entries and for underline_limit_window;
  * underline_limit_contour    -- double contour integral over hairpin
    contours [+inf - i rho, 0-, +inf + i rho], in two variants ("sum"
    denominator u1+u2+1, and "difference" denominator u1-u2 with rho1 < rho2
    and outer rays tilted away from the inner ones, which halves its nodes):
    factor rows times one Cauchy matrix per node doubling, of which the
    conjugation-symmetric node order (_hairpin_nodes) lets only the first
    half of the rows be built, in row blocks never kept (_coupled_sum);
  * underline_prelimit_contour -- double contour integral over origin-centered
    circles, in the same two variants (omega1 omega2 - 1, and omega1 - omega2
    with an inner second circle), whose equispaced trapezoid sums are exact
    DFT products, A diag(g) B^T in O(n log n) per factor row (_circle_sum);
    both are the 1x1 case of one grid driver (_contour_grid: one block per
    variant, the contour picked by the type of the parameters), which
    supplies each route's nodes and factor rows to one node-doubling
    trapezoid loop (_contour_value);
  * underline_prelimit_window   -- the spectral projection itself: the
    center block of P+ = (I + sign D)/2 on padded windows [-M, M] from a
    certified trapezoid rule over resolvents, in O(M + N^2) work per node and
    no O(M^2) array, the padding doubled until the block stabilizes.

The J-transform converts underline kernels into the kernels of the finitary
process (delta - underline on negative rows, with alternating signs), and
weighted_blocks computes the trace/Hilbert-Schmidt data of A_h K A_h with
h(x) = |x|^(-1/2).
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from scipy.linalg.lapack import dstebz
from scipy.special import digamma as _sp_digamma
from scipy.special import gammasgn as _sp_gammasgn
from scipy.special import loggamma as _sp_loggamma
from scipy.special import polygamma as _sp_polygamma

from .lattice import HalfInt, window_index
from .zmeasure import Params, XiParams

__all__ = [
    "NonConvergenceError",
    "WindowKernel",
    "window_points",
    "underline_limit_integrable",
    "underline_limit_contour",
    "underline_prelimit_contour",
    "underline_prelimit_window",
    "underline_limit_window",
    "j_transform",
    "WeightedBlocks",
    "weighted_blocks",
    "density_constant",
]


class NonConvergenceError(RuntimeError):
    """A computation missed its accuracy target.  After adaptive refinement,
    achieved is the last increment reached (inf if none) and nodes the value
    of the cap `cap` names.  A non-iterative check passes `detail`, naming the
    quantity, its value and its limit, in place of the refinement wording."""

    def __init__(self, op: str, achieved: float, tol: float, nodes: int,
                 cap: str = "node cap", detail: str | None = None):
        detail = detail or f"successive refinements differ by {achieved:.3e} > tol {tol:.3e}"
        super().__init__(f"{op}: {detail} at the {cap} {nodes}")
        self.op = op
        self.achieved = achieved
        self.tol = tol
        self.nodes = nodes
        self.cap = cap


# ---------------------------------------------------------------------------
# Configuration and window containers
# ---------------------------------------------------------------------------

RHO1, RHO2, SLOPE2 = 0.2, 0.4, 2.0  # hairpin offsets; slope of the outer "difference" rays
_START_NODES = 64  # nodes per ray / circle at the first contour level, doubled from there
_TILE = 16  # rows per tile of the ladder's center block (timed against 8, 32 and 64)


def _circle_radii(xi: float) -> tuple[float, float]:
    """The pre-limit circles: xi^(-1/4), mid-band in (max(1, sqrt(xi)), 1/sqrt(xi)),
    and the "difference" variant's inner radius, inside (sqrt(xi), 1)."""
    return xi ** (-0.25), (1 + math.sqrt(xi)) / 2


def window_points(N: int) -> tuple[HalfInt, ...]:
    """The 2N half-integers of the symmetric window [-N, N], ascending."""
    if N < 1:
        raise ValueError("window half-width must be a positive integer")
    return tuple(HalfInt(t) for t in range(-2 * N + 1, 2 * N, 2))


_UNDERLINE_KINDS = ("underline_prelimit", "underline_limit")
_K_KINDS = ("k_prelimit", "k_limit")


@dataclass
class WindowKernel:
    """A kernel restricted to the window Z' in [-N, N], stored densely.

    values[i, j] is the kernel at (points[i], points[j]) with points ascending.
    kind is one of 'underline_prelimit', 'underline_limit' (symmetric
    projection-type kernels), 'k_prelimit', 'k_limit' (their J-transforms).
    xi is the pre-limit parameter, None for limit kinds.
    """

    N: int
    kind: str
    values: np.ndarray
    params: Params
    xi: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _UNDERLINE_KINDS + _K_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (2 * self.N, 2 * self.N):
            raise ValueError(
                f"values must be {2 * self.N}x{2 * self.N} for N={self.N}, got {vals.shape}"
            )
        self.values = vals
        if ("prelimit" in self.kind) != (self.xi is not None):
            raise ValueError("xi must be set exactly for pre-limit kinds")

    @property
    def points(self) -> tuple[HalfInt, ...]:
        return window_points(self.N)

    def index_of(self, x: HalfInt) -> int:
        x = HalfInt.make(x)
        i = window_index(x, self.N)
        if i is None:
            raise KeyError(f"{x} outside window [-{self.N}, {self.N}]")
        return i

    def entry(self, x, y) -> float:
        return float(self.values[self.index_of(x), self.index_of(y)])

    def submatrix(self, pts: Iterable) -> np.ndarray:
        idx = [self.index_of(t) for t in pts]
        return self.values[np.ix_(idx, idx)]

    def minor(self, pts: Iterable) -> float:
        """Principal minor det K(x_i, x_j) over the given points."""
        sub = self.submatrix(pts)
        if sub.size == 0:
            return 1.0
        return float(np.linalg.det(sub))


# ---------------------------------------------------------------------------
# Route 1: integrable closed form for the limit kernel
# ---------------------------------------------------------------------------

def _sinpi(w: complex) -> complex:
    """sin(pi w), reduced by the nearest integer first so that the zeros at
    large |Re w| keep full relative accuracy."""
    w = complex(w)
    n = math.floor(w.real + 0.5)
    s = cmath.sin(cmath.pi * complex(w.real - n, w.imag))
    return -s if n % 2 else s


def _limit_closed_form(xv: np.ndarray, yv: np.ndarray, p: Params) -> np.ndarray:
    """The limit (Gamma) kernel at every pair (xv[i], yv[j]) of half-integers,
    in its diagonal form wherever x == y.

    Evaluated in a cancellation-free real arrangement per parameter branch:
    for conjugate non-real parameters through arg Gamma, for distinct real
    parameters through log|Gamma| differences with explicit Gamma signs, and
    for equal real parameters through psi/psi' carrying the same signs (the
    sign pair is what the distinct-parameter form degenerates to).
    """
    z, zp = p.z, p.z_prime
    same = xv[:, None] == yv[None, :]
    diff = np.where(same, 1.0, xv[:, None] - yv[None, :])  # same-point entries are replaced

    def at(f):  # f on xv and on yv, once when they are the same grid
        fx = f(xv)
        return fx, fx if yv is xv else f(yv)

    if p.series == "principal":
        th_x, th_y = at(lambda v: np.imag(_sp_loggamma(z + v + 0.5)))
        off = np.sin(th_x[:, None] - th_y[None, :]) / diff
        on = np.imag(_sp_digamma(z + xv + 0.5 + 0j))
        scale = 2.0 * abs(_sinpi(z)) ** 2 / (math.pi * math.sinh(2 * math.pi * z.imag))
        return np.where(same, on[:, None], off) * scale
    zr, zpr = z.real, zp.real
    sg_x, sg_y = at(lambda v: _sp_gammasgn(zr + v + 0.5))
    sg = sg_x[:, None] * sg_y[None, :]
    if zr == zpr:
        psi_x, psi_y = at(lambda v: _sp_digamma(zr + v + 0.5))
        off = sg * (psi_x[:, None] - psi_y[None, :]) / diff
        on = _sp_polygamma(1, zr + xv + 0.5)
        scale = (_sinpi(zr).real / math.pi) ** 2
    else:
        d_x, d_y = at(lambda v: 0.5 * np.array(
            [math.lgamma(zr + t + 0.5) - math.lgamma(zpr + t + 0.5) for t in v]))
        off = sg * 2.0 * np.sinh(d_x[:, None] - d_y[None, :]) / diff
        on = _sp_digamma(zr + xv + 0.5) - _sp_digamma(zpr + xv + 0.5)
        scale = (_sinpi(zr) * _sinpi(zpr) / (math.pi * _sinpi(zr - zpr))).real
    return np.where(same, on[:, None], off) * scale


def underline_limit_integrable(x, y, p: Params) -> float:
    """The limit (Gamma) kernel entry at (x, y) via its Gamma/psi closed form."""
    xv, yv = (np.array([float(HalfInt.make(t))]) for t in (x, y))
    return float(_limit_closed_form(xv, yv, p)[0, 0])


def underline_limit_window(N: int, p: Params) -> WindowKernel:
    """Window kernel of the limit kernel: the closed form on the window grid."""
    xv = np.array([float(t) for t in window_points(N)])
    return WindowKernel(N=N, kind="underline_limit", values=_limit_closed_form(xv, xv, p),
                        params=p, xi=None)


# ---------------------------------------------------------------------------
# Gamma prefactor and quadrature driver shared by the contour routes
# ---------------------------------------------------------------------------

def _gamma_prefactor(x: float, y: float, p: Params | XiParams) -> complex:
    """Gamma(-z'-x+1/2) Gamma(-z-y+1/2) divided by the positive square root of
    Gamma(-z-x+1/2) Gamma(-z'-x+1/2) Gamma(-z-y+1/2) Gamma(-z'-y+1/2);
    assembled in log space (the four-factor product is strictly positive for
    admissible parameters, so its square root is exp of half the real part)."""
    z, zp = p.z, p.z_prime

    # Complex arguments keep the principal branch (and the sign of Gamma) on
    # the negative real axis.  No argument is a pole: complementary z is a
    # non-integer real and principal z is non-real.
    def lg(w):
        return complex(_sp_loggamma(complex(w)))

    lg_num = lg(-zp - x + 0.5) + lg(-z - y + 0.5)
    lg_den = lg(-z - x + 0.5) + lg(-zp - x + 0.5) + lg(-z - y + 0.5) + lg(-zp - y + 0.5)
    return cmath.exp(lg_num - 0.5 * lg_den.real)


def _coupled_sum(a: np.ndarray, b: np.ndarray, u1: np.ndarray, u2: np.ndarray, mode: str):
    """sum_{i,j} a_i b_j C_ij over hairpin nodes, C_ij = 1/denom(u1_i, u2_j)
    with denom u1 + u2 + 1 ('sum') or u1 - u2 ('difference').  Factor rows a
    (..., n1) and b (..., n2) give the matrix a C b^T.  In _hairpin_nodes'
    order, u[::-1] == conj(u), row n1-1-i of C is row i reversed and
    conjugated, so the first ceil(n1/2) rows, built in row blocks of about 2^18
    entries never kept, times [b, conj(b reversed)]^T serve both halves."""
    bb = np.reshape(b, (-1, b.shape[-1]))
    rhs = np.concatenate([bb, np.conj(bb[:, ::-1])]).T
    k, half, mirrored, total = len(bb), (len(u1) + 1) // 2, len(u1) // 2, 0j  # odd n1: middle row once
    chunk = max(1, 2**18 // max(len(u2), 1))
    v2 = u2 + 1.0 if mode == "sum" else -u2
    for s in range(0, half, chunk):
        denom = u1[s : min(s + chunk, half), None] + v2
        prod = np.reciprocal(denom, out=denom) @ rhs
        total += a[..., s : s + len(prod)] @ prod[:, :k]
        total += a[..., ::-1][..., s : min(s + chunk, mirrored)] @ np.conj(prod[: mirrored - s, k:])
    return total if b.ndim > 1 else total[..., 0]


def _circle_sum(a: np.ndarray, b: np.ndarray, u1: np.ndarray, u2: np.ndarray, mode: str):
    """The same sum over n equispaced nodes u = r e^(2 pi i k/n) per circle
    (as _circle_contour makes them), exactly in O(n log n) per factor row:
    expanding 1/denom in powers of the node ratio gives DFT products whose
    aliased geometric tails sum in closed form, so with A = fft(a),
    B = fft(b), B' = n ifft(b) along the rows the matrix is A diag(g) B^T:
      'sum' (u1 u2 - 1, one radius r, t = r^2 > 1):
          g_m = t^(-m') / (1 - t^(-n)),  m' = m for m >= 1, m' = n for m = 0;
      'difference' (u1 - u2, radii r2 < r1, rho = r2/r1), A shifted by one:
          A_((m+1) mod n) B'_m with g_m = rho^m / (r1 (1 - rho^n)).
    The complex rows a and b are transformed in place: they are overwritten."""
    n, r1, r2 = a.shape[-1], u1[0].real, u2[0].real
    fa = np.fft.fft(a, out=a)
    if mode == "sum":
        t = r1 * r2
        return (fa * (t ** -np.r_[n, 1:n] / (1.0 - t**-n))) @ np.fft.fft(b, out=b).T
    rho = r2 / r1
    g = rho ** np.arange(n) * (n / (r1 * (1.0 - rho**n)))
    return (np.roll(fa, -1, axis=-1) * g) @ np.fft.ifft(b, out=b).T


def _contour_value(op: str, pref, mode: str, contours: Callable[[int], tuple],
                   coupled: Callable = _coupled_sum, *, tol: float, max_nodes: int) -> tuple:
    """pref (a matrix, 0 off the requested pairs) times the coupled trapezoid
    sum over two contours, divided by (2 pi i)^2.  contours(n) returns
    (u1, f1, u2, f2): the nodes of each contour at n nodes per ray / circle
    and the weighted factors there, one row per grid row and column, which
    coupled (_coupled_sum on hairpins, _circle_sum on circles) sums over the
    denominator mode names.  n doubles from _START_NODES until successive
    values agree within tol on every entry (past max_nodes NonConvergenceError
    carries the largest last increment); each value must then be real within
    max(1e-9, 50 tol).  Returns the real values, nodes per contour and last
    increments."""
    n, prev = _START_NODES, None  # max_nodes >= 2 * _START_NODES: an increment precedes the cap
    while True:
        u1, f1, u2, f2 = contours(n)
        val = pref * coupled(f1, f2, u1, u2, mode) / (2j * math.pi) ** 2
        if prev is not None:
            achieved = np.abs(val - prev)
            if np.all(achieved <= tol * np.maximum(1.0, np.abs(val))):
                break
        prev = val
        n *= 2
        if n > max_nodes:
            raise NonConvergenceError(op, float(np.max(achieved)), tol, n // 2)
    limit = max(1e-9, 50.0 * tol) * np.maximum(1.0, np.abs(val.real))
    bad = np.abs(val.imag) > limit
    if np.any(bad):
        imag, limit = (float(np.ravel(v)[np.argmax(bad)]) for v in (np.abs(val.imag), limit))
        raise NonConvergenceError(
            op + " (imaginary residue)", imag, limit, len(u1), cap="node count",
            detail=f"imaginary part {imag:.3e} > limit {limit:.3e}",
        )
    return val.real, len(u1), achieved


# ---------------------------------------------------------------------------
# Route 2: limit kernel via hairpin contour integrals
# ---------------------------------------------------------------------------

def _hairpin_nodes(
    rho: float, n_ray: int, u_max: float, slope: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights for the contour [+inf-i rho, 0-, +inf+i rho].

    Rays use the double-exponential map t = exp(pi sinh(tau)) on (0, u_max)
    (geometric convergence for power-law integrands); the semicircle around 0
    uses Gauss-Legendre.  Weights include the complex line element and the
    traversal orientation.  Nodes come in traversal order: the lower ray from
    infinity to 0, the semicircle clockwise from -i rho through -rho to +i rho,
    the upper ray from 0 to infinity.  The second half is built as the
    conjugate of the first, so u[::-1] == conj(u) and w[::-1] == -conj(w)
    exactly (which lets _coupled_sum form half its Cauchy block).

    slope > 0 tilts the rays outward, u = t +- i (rho + slope*t), a legal
    deformation (no cut or pole is crossed, the integrand still decays), for
    the outer contour of nested pairs: their distance, which sets the trapezoid
    rate over 1/(u1 - u2), then grows like slope * t.  The _auto_u_max envelope
    still bounds the tail: |u| >= t sqrt(1 + slope^2) gives |u|^(d-1) |du| past
    U the bound (1 + slope^2)^(d/2) U^d/(-d) <= U^d/(-d), as d < 0.
    """
    h = 2.0 * 3.9 / n_ray  # tau on [-3.9, 3.9], descending: t from +inf to 0
    tau = np.arange(n_ray // 2, -(n_ray // 2) - 1, -1) * h
    t = np.exp(np.pi * np.sinh(tau))
    dt = h * np.pi * np.cosh(tau) * t
    keep = (t > 0) & (t <= u_max) & np.isfinite(dt)
    t, dt = t[keep], dt[keep]
    half_arc = max(8, n_ray // 8)  # half of the semicircle's nodes, theta from -pi/2 to -pi
    gx, gw = (v[:half_arc] for v in _gauss_legendre(2 * half_arc))
    arc_u = rho * np.exp(-1j * np.pi * (1.0 + 0.5 * gx))  # theta = -pi - (pi/2) gx
    u = np.concatenate([t - 1j * (rho + slope * t), arc_u])
    w = np.concatenate([-(1.0 - 1j * slope) * dt, -0.5j * np.pi * gw * arc_u])
    return np.concatenate([u, np.conj(u[::-1])]), np.concatenate([w, -np.conj(w[::-1])])


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once per
    size and shared read-only: the semicircle rule of every hairpin level."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _log_factor(u: np.ndarray, alpha, beta) -> np.ndarray:
    """(-u)^alpha (1+u)^beta with the hairpin branch conventions: principal
    logarithms are exact because -u never meets (-inf, 0] and 1+u stays in the
    right half-plane on the contour.  Array exponents give one row each."""
    return np.exp(np.multiply.outer(alpha, np.log(-u)) + np.multiply.outer(beta, np.log1p(u)))


def _auto_u_max(tail_exp: float, tol: float) -> float:
    """Smallest ray cutoff U whose analytic tail envelope
    U^tail_exp / (-tail_exp) falls below tol/10 (tail_exp < 0).  Returns inf
    (no truncation) when the decay is too slow for any reachable cutoff."""
    if tail_exp >= -0.05:
        return math.inf
    u = (0.1 * tol * (-tail_exp)) ** (1.0 / tail_exp)
    u = max(1e12, u)
    return u if u < 1e33 else math.inf


# ---------------------------------------------------------------------------
# Route 3: pre-limit kernel via circle contour integrals
# ---------------------------------------------------------------------------

def _circle_contour(radius: float, n: int, sq: float, alpha: np.ndarray, beta: np.ndarray,
                    power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n trapezoid nodes omega on the positively oriented origin-centered
    circle, starting at omega = radius, and there one row per entry of the
    exponent arrays: the weighted factor (1 - sq*omega)^alpha
    (1 - sq/omega)^beta omega^power (2 pi i/n) omega.  On a legal circle both
    bases have positive real part, so principal logarithms implement the
    required branches; the omega powers are integers, single-valued."""
    om = radius * np.exp(2j * math.pi * np.arange(n) / n)
    f = np.multiply.outer(alpha, np.log1p(-sq * om))  # one array, updated in place
    f += np.multiply.outer(beta, np.log1p(-sq / om))
    np.exp(f, out=f)
    f *= om ** power[:, None]
    return om, np.multiply(f, (2j * math.pi / n) * om, out=f)


# ---------------------------------------------------------------------------
# Routes 2 and 3: one grid driver, single entries as its 1x1 case
# ---------------------------------------------------------------------------

def _distinct(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of v ascending and each entry's index among them:
    np.unique(v, return_inverse=True) without its fixed cost on a few values."""
    vals = np.array(sorted(set(v.tolist())))
    return vals, np.searchsorted(vals, v)


def _contour_grid(xv, yv, p: Params | XiParams, variant: str = "auto", *,
                  tol: float = 1e-10, max_nodes: int = 2**19) -> dict:
    """The kernel at every pair (xv[i], yv[j]) of half-integers by its double
    contour integral: over circles (the pre-limit kernel) if p is an XiParams,
    over hairpins (the limit kernel) if it is a Params.  'auto' picks the
    variant 'difference' for a mixed-sign pair, ordered (positive, negative)
    by the kernels' symmetry, and 'sum' otherwise.  One block per variant:
    its entries share the nodes of each doubling level, as the contours
    depend only on the parameters and tol, until its last entry stabilizes.
    Nodes double from _START_NODES while an increment exceeds tol, up to
    max_nodes per ray / circle, which must admit two levels to compare.
    Returns arrays over the grid: value, nodes_per_circle or
    nodes_per_contour, variant, last_increment and, on hairpins, tail_bound
    (the analytic ray-tail envelope)."""
    if variant not in ("auto", "sum", "difference"):
        raise ValueError(f"unknown variant {variant!r}")
    if not tol > 0:  # nan too: no increment is ever below it
        raise ValueError("tol must be positive")
    if max_nodes < 2 * _START_NODES:
        raise ValueError(f"max_nodes must be at least {2 * _START_NODES} so that two "
                         f"refinements can be compared, got {max_nodes}")
    circles, caps = isinstance(p, XiParams), {"tol": tol, "max_nodes": max_nodes}
    x, y = np.asarray(xv, float)[:, None], np.asarray(yv, float)[None, :]
    diff = x * y < 0 if variant == "auto" else np.full((x.size, y.size), variant == "difference")
    swap = diff & (x < 0) if variant == "auto" else np.zeros(diff.shape, bool)
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    z, zp, scale = p.z, p.z_prime, 1.0 - p.xi if circles else 1.0  # pre-limit factor 1 - xi
    nodes = np.zeros(x.shape, int)
    out = {"value": np.zeros(x.shape), "variant": np.where(diff, "difference", "sum"),
           "nodes_per_circle" if circles else "nodes_per_contour": nodes,
           "last_increment": np.zeros(x.shape)}
    for mode, sel in (("sum", ~diff), ("difference", diff)):
        if not sel.any():
            continue
        (rows, ri), (cols, ci) = _distinct(x[sel]), _distinct(y[sel])
        pref = np.zeros((len(rows), len(cols)), complex)  # 0 off the requested pairs
        for i, j in set(zip(ri.tolist(), ci.tolist())):
            pref[i, j] = _gamma_prefactor(rows[i], cols[j], p) * scale
        a1, b1 = zp + rows - 0.5, -z - rows - 0.5
        a2, b2 = (z + cols - 0.5, -zp - cols - 0.5)[:: 1 if mode == "sum" else -1]
        if circles:
            sq, (r1, r_inner) = math.sqrt(p.xi), _circle_radii(p.xi)
            r2, pow2 = (r1, -cols - 0.5) if mode == "sum" else (r_inner, cols - 0.5)

            def contours(n):
                inner = _circle_contour(r2, n, sq, a2, b2, pow2)
                return (*_circle_contour(r1, n, sq, a1, b1, -rows - 0.5), *inner)

            val, n, achieved = _contour_value("underline_prelimit_contour", pref, mode,
                                              contours, _circle_sum, **caps)
        else:
            mu = (zp - z).real
            rho_2, slope2, sign = (RHO1, 0.0, 1.0) if mode == "sum" else (RHO2, SLOPE2, -1.0)
            decays = (mu - 1.0, sign * mu - 1.0)
            umax1, umax2 = (_auto_u_max(d, tol) for d in decays)

            def contours(n):
                u1, w1 = _hairpin_nodes(RHO1, n, umax1)
                u2, w2 = _hairpin_nodes(rho_2, n, umax2, slope=slope2)
                return u1, _log_factor(u1, a1, b1) * w1, u2, _log_factor(u2, a2, b2) * w2

            val, n, achieved = _contour_value("underline_limit_contour", pref, mode, contours, **caps)
            tail = sum(u**d / -d for u, d in zip((umax1, umax2), decays)
                       if math.isfinite(u) and d < -1e-12)
            out.setdefault("tail_bound", np.zeros(x.shape))[sel] = tail * np.abs(pref[ri, ci])
        out["value"][sel], nodes[sel], out["last_increment"][sel] = val[ri, ci], n, achieved[ri, ci]
    return out


def _contour_entry(x, y, p, variant: str, full_output: bool, kind: type, **caps):
    """One entry, the 1x1 case of _contour_grid; p's type, kind, picks the contour."""
    if not isinstance(p, kind):
        raise TypeError(f"expected {kind.__name__} parameters, got {type(p).__name__}")
    grid = _contour_grid(*([float(HalfInt.make(t))] for t in (x, y)), p, variant, **caps)
    info = {key: arr[0, 0].item() for key, arr in grid.items()}
    value = info.pop("value")
    return (value, info) if full_output else value


def underline_limit_contour(x, y, p: Params, variant: str = "auto", full_output: bool = False,
                            *, tol: float = 1e-10, max_nodes: int = 2**19):
    """The limit kernel via the double hairpin-contour integral.

    variant='sum' uses the representation with denominator u1+u2+1 (equal
    contour offsets RHO1); variant='difference' uses the denominator u1-u2
    with offsets RHO1 < RHO2; 'auto' picks 'difference' for mixed-sign
    (positive, negative) pairs and 'sum' otherwise.  Node counts double from
    64 per ray until the value stabilizes within tol, at most max_nodes.  The
    1x1 case of _contour_grid; full_output adds nodes_per_contour, variant,
    tail_bound and last_increment.
    """
    return _contour_entry(x, y, p, variant, full_output, Params, tol=tol, max_nodes=max_nodes)


def underline_prelimit_contour(x, y, p: XiParams, variant: str = "auto",
                               full_output: bool = False, *, tol: float = 1e-10,
                               max_nodes: int = 2**19):
    """The pre-limit kernel via the double contour integral over circles.

    variant='sum' integrates over two circles of the same radius with
    denominator omega1*omega2 - 1; variant='difference' uses denominator
    omega1 - omega2 with the second circle strictly inside the first.
    Trapezoid rule is spectrally accurate here, and each node count costs
    O(n log n) (_circle_sum); node counts double from 64 per circle until
    stabilization within tol, at most max_nodes.  The 1x1 case of
    _contour_grid; full_output adds nodes_per_circle, variant and
    last_increment.
    """
    return _contour_entry(x, y, p, variant, full_output, XiParams, tol=tol, max_nodes=max_nodes)


# ---------------------------------------------------------------------------
# Route 4: pre-limit kernel via tridiagonal spectral projection
# ---------------------------------------------------------------------------

def _difference_operator(N: int, p: XiParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the difference operator on the window."""
    xv = np.arange(-2 * N + 1, 2 * N, 2) / 2.0
    s = (p.z + p.z_prime).real
    diag = -(xv + p.xi * (s + xv))
    m = xv[:-1] + 0.5  # x + 1/2, integers
    off = np.sqrt(p.xi * np.real((p.z + m) * (p.z_prime + m)))  # pair_product, vectorized
    return diag, off


def _eigen_count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """Eigenvalues in (lo, hi]: LAPACK stebz Sturm counts at both ends, with
    abstol the interval's width so that it does not bisect."""
    return int(dstebz(diag, off, 1, lo, hi, 0, 0, hi - lo, "E")[0])


def _sign_quadrature(diag: np.ndarray, off: np.ndarray, tol: float) -> tuple:
    """Trapezoid rule in s for sign(D) = (2/pi) int e^s Re[(D - i e^s)^-1] ds,
    whose integrand at an eigenvalue lam is sign(lam) sech(s - log|lam|)/2.
    The gap is the widest trial 2^(-j/2) lam_max (Gershgorin) whose interval
    (-gap, gap] holds no eigenvalue: the counts are monotone in the trial, so
    a bisection over the 80 trials finds it in seven compiled counts.
    Step h errs by at most 2 sum_m sech(pi^2 m/h) (Poisson summation) and the
    range [log gap - u, log lam_max + u] cuts tails of at most (2/pi) e^-u each,
    so P+ = (I + sign D)/2 is entrywise within quadrature_bound <= max(tol/1000,
    1e-14).  Returns nodes t = e^s, weights, positive count, certificate."""
    r = np.abs(off)
    lam_max = float(np.max(np.abs(diag) + np.r_[0.0, r] + np.r_[r, 0.0]))
    # Trial gaps down to 2^-40 lam_max, far above the eps * lam_max backward
    # error of the counts.
    deltas = (lam_max * 2.0 ** (-0.5 * np.arange(1, 81))).tolist()
    inside = lambda j: _eigen_count(diag, off, -deltas[j], deltas[j])
    # Counts are monotone in the shift, so the clear trials are a tail: bisect for its
    # start.  The trial it returns is one it counted clear, so the gap holds regardless.
    j = bisect_left(range(len(deltas)), True, key=lambda j: inside(j) == 0)
    if j == len(deltas):
        raise NonConvergenceError(
            "underline_prelimit_window (no certified gap at 0)", math.inf, tol, len(diag) // 2,
            cap="window half-width",
            detail=f"{inside(j - 1)} eigenvalue(s) within {deltas[-1]:.3e} of 0, the narrowest gap tried,",
        )
    gap = deltas[j]
    eps = max(tol / 1000.0, 1e-14)
    q = eps / 8.0
    h = math.pi**2 / math.log(1.0 / q)
    u = math.log(4.0 / (math.pi * eps))
    s0 = math.log(gap) - u
    s = s0 + h * np.arange(math.ceil((math.log(lam_max) + u - s0) / h) + 1)
    disc = 4.0 * q / (1.0 - q)  # >= 2 sum_m sech(pi^2 m/h), as sech x <= 2 e^-x
    tails = (2.0 / math.pi) * (math.exp(math.log(lam_max) - s[-1]) + math.exp(-u))
    t = np.exp(s)
    cert = {"spectral_gap": gap, "quadrature_nodes": len(t), "quadrature_bound": (disc + tails) / 2}
    return t, (2.0 / math.pi) * h * t, _eigen_count(diag, off, 0.0, 2.0 * lam_max), cert


def _spectral_center(N: int, M: int, p: XiParams, tol: float) -> tuple[np.ndarray, dict]:
    """Center [-N, N] block of the positive spectral projection of the
    difference operator on [-M, M], M > N, by the sign quadrature.  One
    two-ended pivot sweep gives the resolvent's diagonal g and the ratios of
    G(i, j > i) = g_i prod_{k=i}^{j-1} ratio_k, so tile (I, J > I) of b x b tiles
    is Re(A_I diag(w c_IJ) B_J^T) (suffix, gap and prefix products; no division)
    and the b diagonals that hold the diagonal tiles are running products over
    all rows.  O(b + N/b) steps, O(N nodes) memory besides the block."""
    diag, off = _difference_operator(M, p)
    t, w, positive, cert = _sign_quadrature(diag, off, tol)
    z, w = 1j * t, 0.5 * w  # P+ = (I + sign D)/2: half weights, then 1/2 on the diagonal
    lo, m = M - N, 2 * N
    off2 = off * off
    # LDL^T pivots d_k = diag_k - z - off2_(k-1)/d_(k-1), |d_k| >= |Im z|: row k steps the
    # left sweep on diag[k] and the right on diag[-1-k] as one flat row of 2T entries.
    # diag - z and off2 come 64 rows at a time (128-row blocks of flat rows timed
    # slower at ~130 nodes); k = lo-1 .. lo+m-2 are kept.
    ends, ends2 = (np.stack([v, v[::-1]], axis=1) for v in (diag, off2))
    kept = deque([(ends[0, :, None] - z).ravel()], maxlen=m)
    for k in range(1, lo + m - 1, 64):
        rows = slice(k, min(k + 64, lo + m - 1))
        b2s = np.repeat(ends2[rows.start - 1 : rows.stop - 1], len(z), axis=1)
        for a, b2 in zip((ends[rows, :, None] - z).reshape(len(b2s), -1), b2s):
            kept.append(a - b2 / kept[-1])
    pivots = np.array(kept).reshape(m, 2, len(z))
    del kept  # stacked above: freeing it lowers the peak by 2N x 2T complex
    left, right = pivots[:, 0], pivots[::-1, 1]  # right ones at indices lo+1 .. lo+m
    g = 1.0 / (diag[lo : lo + m, None] - z - off2[lo - 1 : lo + m - 1, None] / left
               - off2[lo : lo + m, None] / right)
    ratio = -off[lo : lo + m - 1, None] / right[:-1]
    b, T = min(_TILE, m), len(z)
    nt, n = -(-m // b), (m - 1) // b * b  # tiles, rows of the tiles with one to their right
    suffix = np.cumprod(ratio[:n].reshape(nt - 1, b, T)[:, ::-1], axis=1)  # [I, -1]: whole tile
    A = np.multiply(g[:n].reshape(nt - 1, b, T), suffix[:, ::-1], order="C")
    wc = np.full((nt - 1, T), w, complex)  # w c_IJ for tile rows I < J
    sign = np.empty((m, m))
    for J in range(1, nt):
        wc[: J - 1] *= suffix[J - 1, -1]
        s, e = J * b, min(J * b + b, m)
        B = np.cumprod(np.vstack([np.ones(T), ratio[s : e - 1]]), axis=0)
        # Re(X B^T) as one real product: X's (re, im) pairs against B's (re, -im).
        tile = (A[:J] * wc[:J, None]).reshape(s, T).view(np.float64) @ B.conj().view(np.float64).T
        sign[:s, s:e], sign[s:e, :s] = tile, tile.T
    flat, y = sign.reshape(-1), g
    for d in range(b):
        flat[d : (m - d) * m : m + 1] = flat[d * m :: m + 1] = y.real @ w
        y = y[:-1] * ratio[d:]
    flat[:: m + 1] += 0.5
    return sign, dict(cert, positive_eigenvalues=positive)


def underline_prelimit_window(N: int, p: XiParams, tol: float = 1e-9,
                              max_pad: int = 1 << 16) -> WindowKernel:
    """Pre-limit kernel on [-N, N] with certified interior accuracy.

    Center blocks of window projections on [-M, M] (boundary effects decay
    into the interior) come from a resolvent quadrature of the sign function
    certified a priori to max(tol/1000, 1e-14), in tiles of one semiseparable
    product; no O(M^2) array is formed.  The padding M - N doubles until
    successive blocks differ by at most tol; a rung with M > max_pad is not
    run: NonConvergenceError carries the last residual (inf if the first rung
    is past the cap).  meta records padding, padding_residual,
    positive_eigenvalues, spectral_gap, quadrature_nodes and quadrature_bound."""
    if N < 1:
        raise ValueError("window half-width must be a positive integer")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    pad = max(16, N // 2, math.ceil(1.0 / (1.0 - p.xi)))
    if N + pad > max_pad:
        need = f"the first rung needs padding {pad} (half-width {N + pad}), none ran,"
        raise NonConvergenceError("underline_prelimit_window", math.inf, tol, max_pad,
                                  cap="padding cap max_pad", detail=need)
    cur, residual = _spectral_center(N, N + pad, p, tol)[0], math.inf
    while not residual <= tol:
        pad *= 2
        if N + pad > max_pad:
            raise NonConvergenceError("underline_prelimit_window", residual, tol, max_pad,
                                      cap="padding cap max_pad")
        prev, (cur, cert) = cur, _spectral_center(N, N + pad, p, tol)
        residual = float(np.max(np.abs(cur - prev)))
    return WindowKernel(N=N, kind="underline_prelimit", values=cur, params=p.base, xi=p.xi,
                        meta=dict(cert, padding=pad, padding_residual=residual))


# ---------------------------------------------------------------------------
# Transforms and block data
# ---------------------------------------------------------------------------

def j_transform(wk: WindowKernel) -> WindowKernel:
    """Convert an underline kernel into the kernel of the finitary process:

        eps(x) K(x,y) eps(y) = underline(x,y)            for x > 0,
        eps(x) K(x,y) eps(y) = delta_xy - underline(x,y) for x < 0,

    with eps = 1 on positives and alternating signs on negatives.  The
    result is J-symmetric: K(x,y) = K(y,x) for same-side pairs and
    K(x,y) = -K(y,x) for mixed pairs.
    """
    if wk.kind not in _UNDERLINE_KINDS:
        raise ValueError(f"j_transform requires an underline kernel, got {wk.kind!r}")
    N = wk.N  # the negative points are the first N, -1/2 the last of them
    eps = np.ones(2 * N)
    eps[:N][::-1][1::2] = -1.0  # -1 at -3/2, -7/2, ...
    inner = wk.values.copy()
    inner[:N] *= -1.0
    inner[np.arange(N), np.arange(N)] += 1.0
    out = inner * eps[:, None] * eps[None, :]
    kind = "k_prelimit" if wk.kind == "underline_prelimit" else "k_limit"
    return WindowKernel(
        N=wk.N, kind=kind, values=out, params=wk.params, xi=wk.xi, meta=dict(wk.meta)
    )


@dataclass
class WeightedBlocks:
    """Trace and Hilbert-Schmidt data of A_h K A_h, h(x) = |x|^(-1/2), on a window:
    trace_pp/trace_mm trace its positive semi-definite (positive, positive) and
    (negative, negative) blocks, so they are also their nuclear norms up to the
    kernel's own residual; hs_pm/hs_mp are the Frobenius norms of its mixed
    blocks, positive rows with negative columns and the reverse."""

    trace_pp: float
    trace_mm: float
    hs_pm: float
    hs_mp: float


def weighted_blocks(wk: WindowKernel) -> WeightedBlocks:
    """Block data of A_h K A_h, h(x) = |x|^(-1/2), read off diag(K) and K's two
    mixed N x N quarters (the negative points are the first N); the weighted
    2N x 2N arrangement itself is never formed."""
    if wk.kind not in _K_KINDS:
        raise ValueError(f"weighted_blocks requires a K-kind kernel, got {wk.kind!r}")
    N, K = wk.N, wk.values
    h = 1.0 / np.sqrt(np.abs(np.arange(1 - 2 * N, 2 * N, 2)) / 2.0)
    diag = np.diagonal(K) * h * h

    def hs(rows: slice, cols: slice) -> float:
        block = K[rows, cols] * h[rows, None]
        block *= h[cols]
        return float(np.linalg.norm(block))

    neg, pos = slice(None, N), slice(N, None)
    return WeightedBlocks(trace_pp=float(diag[pos].sum()), trace_mm=float(diag[neg].sum()),
                          hs_pm=hs(pos, neg), hs_mp=hs(neg, pos))


def density_constant(p: Params) -> float:
    """The constant C(z, z') in the density asymptotics rho_1(x) ~ C/|x|:
    sin(pi z) sin(pi z') (z - z') / (pi sin(pi (z - z'))) for z != z', and
    (sin(pi z)/pi)^2 for equal real parameters."""
    z, zp = p.z, p.z_prime
    if z == zp:
        return float((_sinpi(z).real / math.pi) ** 2)
    val = _sinpi(z) * _sinpi(zp) * (z - zp) / (math.pi * _sinpi(z - zp))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise AssertionError(f"density constant should be real, got {val}")
    if val.real <= 0:
        raise AssertionError(f"density constant should be positive, got {val.real}")
    return float(val.real)
