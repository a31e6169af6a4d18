"""Multiplicative functionals and their expectations.

For a function f on the lattice and a point configuration X, the
multiplicative functional is Phi_f(X) = prod_{x in X} (1 + f(x)).  Under a
determinantal measure its expectation is a Fredholm determinant, which on a
window reduces to finite linear algebra in the weighted arrangement

    det(1 + A_g A_h K A_h),    f = g h^2,   h(x) = |x|^(-1/2),

with g = f/h^2 bounded when f decays like 1/|x|.  This module provides the
function/configuration types, the expectation by exhaustive weight enumeration
and by nested-window determinants, and the sparseness certificate for
densities decaying like C/|x|.

A TestFunction is stored as one array, its values on the 2R ascending points
of a window [-R, R], the column order of the occupancy matrices it is applied
to: on_window slices or pads the array, and phi_eval is the one-row case of
phi_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Union

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .kernels import NonConvergenceError, WindowKernel
from .lattice import FiniteConfig, HalfInt, window_index
from .zmeasure import XiParams, partition_ensemble

__all__ = [
    "ZeroTail",
    "InverseDecay",
    "TestFunction",
    "SparseConfig",
    "PhiValue",
    "phi_eval",
    "phi_rows",
    "ExpectationSum",
    "expectation_sum",
    "ExpectationDet",
    "expectation_det",
    "SparsenessReport",
    "sparseness_certificate",
]


# ---------------------------------------------------------------------------
# Test functions with declared tail behavior
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTail:
    """The function vanishes beyond its tabulated points."""


@dataclass(frozen=True)
class InverseDecay:
    """Declared envelope |f(x)| <= c/|x| beyond the tabulated points."""

    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"decay constant must be finite and >= 0, got {self.c}")


TailModel = Union[ZeroTail, InverseDecay]


class TestFunction:
    """A real lattice function tabulated on the window [-R, R].

    table holds its values at the 2R ascending points of the window (R = 0
    for the zero function), and evaluation returns 0 beyond them; the tail
    model declares how large an idealized extension may be out there, which
    error reports and domain checks consume.  The constructor takes that
    array, or (point, value) pairs on the smallest window holding them all.
    """

    __test__ = False  # not a test case despite the name
    __slots__ = ("table", "tail")

    def __init__(self, values=(), tail: TailModel | None = None):
        if isinstance(values, np.ndarray):
            table = values.astype(float)
            if table.ndim != 1 or len(table) % 2:
                raise ValueError("a test-function array holds the 2R points of [-R, R]")
        else:
            pairs = [(HalfInt.make(x).twice, float(v)) for x, v in values]
            if len({t for t, _ in pairs}) != len(pairs):
                raise ValueError("duplicate points in test-function table")
            R = max(((abs(t) + 1) // 2 for t, _ in pairs), default=0)
            table = np.zeros(2 * R)
            table[[(t + 2 * R - 1) // 2 for t, _ in pairs]] = [v for _, v in pairs]
        if not np.isfinite(table).all():
            raise ValueError("test-function values must be finite")
        table.flags.writeable = False  # on_window hands out views
        self.table, self.tail = table, tail or ZeroTail()

    @classmethod
    def from_map(cls, mapping: Mapping, tail: TailModel | None = None) -> "TestFunction":
        return cls(tuple(mapping.items()), tail)

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], N: int, tail: TailModel | None = None
    ) -> "TestFunction":
        """Tabulate fn(float(x)) on the window [-N, N]."""
        return cls(np.array([float(fn(t)) for t in (np.arange(1 - 2 * N, 2 * N, 2) / 2).tolist()]), tail)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TestFunction) and self.tail == other.tail
                and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((tuple(self.table.tolist()), self.tail))

    def __call__(self, x) -> float:
        j = window_index(HalfInt.make(x), len(self.table) // 2)
        return 0.0 if j is None else float(self.table[j])

    @property
    def support(self) -> tuple[HalfInt, ...]:
        return tuple(HalfInt(2 * j + 1 - len(self.table)) for j in np.flatnonzero(self.table).tolist())

    def on_window(self, N: int) -> np.ndarray:
        """Values at the 2N ascending points of [-N, N], 0 off the table."""
        d = len(self.table) // 2 - N
        return self.table[d : len(self.table) - d] if d >= 0 else np.pad(self.table, -d)

    @property
    def window_radius(self) -> float:
        """Smallest W with all tabulated points in [-W, W] (0 if empty)."""
        return max(0.0, len(self.table) / 2 - 0.5)

    @property
    def support_radius(self) -> float:
        return max((abs(x.twice) / 2 for x in self.support), default=0.0)


# ---------------------------------------------------------------------------
# Sparse configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseConfig:
    """A configuration with a certified finite sum of 1/|x|.

    points is the materialized part; tail_sum_bound certifies that the
    unlisted remainder contributes at most that much to sum 1/|x|.
    """

    points: tuple[HalfInt, ...]
    tail_sum_bound: float = 0.0

    def __post_init__(self) -> None:
        pts = sorted({HalfInt.make(p) for p in self.points})
        object.__setattr__(self, "points", tuple(pts))
        if not (math.isfinite(self.tail_sum_bound) and self.tail_sum_bound >= 0.0):
            raise ValueError(
                "sparseness certificate failure: tail bound must be finite and >= 0, "
                f"got {self.tail_sum_bound}"
            )


# ---------------------------------------------------------------------------
# Phi_f evaluation
# ---------------------------------------------------------------------------

class PhiValue(NamedTuple):
    """Partial product over the materialized points with a relative bound on
    the contribution of the unmaterialized remainder."""

    value: float
    relative_bound: float


def phi_eval(f: TestFunction, X, full_output: bool = False):
    """Phi_f(X) = prod over x in X of (1 + f(x)).

    When |f| <= c/|x| beyond f's table, the points there can change log Phi_f
    by at most c times their sum of 1/|x| (log(1+t) <= t): the listed points
    beyond the table and, for a SparseConfig, the unlisted remainder's
    tail_sum_bound.  The certified relative bound is returned with
    full_output=True.  Any other X is read as a FiniteConfig, a set; the value
    is the one-row case of phi_rows on f's window.
    """
    pts = X.points if isinstance(X, (SparseConfig, FiniteConfig)) else FiniteConfig(X).points
    R = len(f.table) // 2
    cols = [window_index(x, R) for x in pts]
    row = np.zeros((1, 2 * R), dtype=bool)
    row[0, [j for j in cols if j is not None]] = True
    value = float(phi_rows(f, row, R)[0])
    if not full_output:
        return value
    tail_sum = math.fsum([1.0 / abs(float(x)) for x, j in zip(pts, cols) if j is None]
                         + [X.tail_sum_bound if isinstance(X, SparseConfig) else 0.0])
    return PhiValue(value, math.expm1(f.tail.c * tail_sum) if isinstance(f.tail, InverseDecay) else 0.0)


def phi_rows(f: TestFunction, occupancy: np.ndarray, N: int) -> np.ndarray:
    """Phi_f of every row of an occupancy matrix over the window [-N, N],
    multiplied in ascending point order; phi_eval is its one-row case."""
    return np.where(occupancy, 1.0 + f.on_window(N), 1.0).prod(axis=1)


# ---------------------------------------------------------------------------
# Expectations: enumeration route
# ---------------------------------------------------------------------------

class ExpectationSum(NamedTuple):
    """Enumeration estimate of E[Phi_f] with a rigorous error bar."""

    value: float
    error: float
    tail_mass: float


def expectation_sum(f: TestFunction, p: XiParams, max_size: int = 20) -> ExpectationSum:
    """E[Phi_f] under the finitary-configuration measure, by exhaustive
    enumeration of partition weights up to max_size.

    The error bar is tail_mass * sup |Phi_f|, where the sup runs over all
    configurations (each factor contributes at most max(1, |1+f(x)|), and
    factors outside the tabulation equal 1).
    """
    occ, weights, tail = partition_ensemble(p, max_size)
    total = math.fsum(weights * phi_rows(f, occ, occ.shape[1] // 2))
    bound = math.prod((max(1.0, abs(1.0 + v)) for v in f.table.tolist()), start=1.0)
    return ExpectationSum(value=total, error=tail * bound, tail_mass=tail)


# ---------------------------------------------------------------------------
# Expectations: determinant route
# ---------------------------------------------------------------------------

class ExpectationDet(NamedTuple):
    """Nested-window determinant value with its stabilization record: the
    chain's windows, the determinant on each and their relative increments."""

    value: float
    windows: tuple[int, ...]
    determinants: tuple[float, ...]
    increments: tuple[float, ...]


def _doubling_windows(N: int) -> list[int]:
    """The nested window chain 1, 2, 4, ..., its last step capped at N."""
    ns = [1]
    while ns[-1] < N:
        ns.append(min(2 * ns[-1], N))
    return ns


def _weighted_kernel(kernel: WindowKernel, n: int | None = None) -> np.ndarray:
    """K_w = s K s^-1 on the central window [-n, n] of the kernel (by default
    all of it), entries sqrt(|x|/|y|) K(x, y), so that D_f K_w is the
    weighted operator A_g A_h K A_h of f = g h^2."""
    n, K = n or kernel.N, kernel.N
    s = np.sqrt(np.abs(np.arange(1 - 2 * n, 2 * n, 2)) / 2.0)
    kw = kernel.values[K - n : K + n, K - n : K + n] * s[:, None]
    kw /= s  # in place: no second 2n x 2n temporary
    return kw


def _factor(kw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K_w = U V^T at its numerical rank: a finitary process holds few points
    in a window (rho_1 ~ c/|x|), so a seeded Gaussian sketch of width 64, U =
    qr(K_w Omega) and V^T = U^T K_w, doubles its width until the exact
    residual max|K_w - U V^T| is at most 1e-12 max|K_w|, taken over row
    blocks of about 2^17 entries (no n x n temporary).  A kernel of at most
    64 points, or a sketch reaching its full width, gives the pair (K_w, I)."""
    n, r, bound = len(kw), 64, 1e-12 * max(kw.max(), -kw.min())
    step = max(1, 2**17 // n)
    while r < n:
        q = np.linalg.qr(kw @ np.random.default_rng(0).standard_normal((n, r)))[0]
        vt = q.T @ kw
        res = (np.abs(q[s : s + step] @ vt - kw[s : s + step]).max() for s in range(0, n, step))
        if max(res) <= bound:
            return q, vt.T
        r *= 2
    return kw, np.eye(n)


def _window_dets(fw: np.ndarray, us: np.ndarray, factor, ns) -> np.ndarray:
    """det(I + D_(f+u) K_w) on each central window [-n, n] of ns (columns) for
    each row u of us, all given on [-K, K], with K_w = U V^T from _factor.
    With C = I_r + V^T D_f U on the window and S the rows' joint support,
    det(I + D_(f+u) K_w) = det(C) det(I_S + D_u U_S C^-1 V_S^T) (Sylvester and
    V^T (I + D_f U V^T)^-1 = C^-1 V^T): one r x r LU per window, none where f
    vanishes there (C = I)."""
    U, V = factor
    K = len(fw) // 2
    support = np.flatnonzero(np.any(us != 0.0, axis=0))
    out = np.empty((len(us), len(ns)))
    for i, n in enumerate(ns):
        sl = slice(K - n, K + n)  # the window [-n, n] is a central slice
        s = support[(support >= K - n) & (support < K + n)]
        if not fw[sl].any():
            det_c, m = 1.0, U[s] @ V[s].T
        else:
            c = (V[sl].T * fw[sl]) @ U[sl]
            c.flat[:: len(c) + 1] += 1.0
            lu, piv = lu_factor(c, overwrite_a=True, check_finite=False)
            diag = np.diag(lu)
            flips = np.count_nonzero(piv != np.arange(len(c))) + np.count_nonzero(diag < 0)
            det_c = (-1.0) ** flips * math.exp(np.sum(np.log(np.abs(diag))))
            m = U[s] @ lu_solve((lu, piv), V[s].T, check_finite=False)
        out[:, i] = det_c * np.linalg.det(np.eye(len(s)) + us[:, s, None] * m)
    return out


def expectation_det(f: TestFunction, kernel: WindowKernel, tol: float = 1e-8,
                    full_output: bool = False):
    """E[Phi_f] = det(1 + A_g A_h K A_h) on nested windows until stabilization.

    kernel must be of a finitary-process kind (k_prelimit or k_limit).  The
    weighted operator D_f K_w has entries f(x) sqrt(|x|/|y|) K(x, y), and
    _window_dets evaluates it on the window chain 1, 2, 4, ..., weighting
    and factoring each window's block only when the chain reaches it.  A
    zero-tail f enters as a row on its support, with no LU, and is exact
    once the chain covers that support; a decaying f costs one r x r LU per
    window (r the block's certified rank, _factor) and must stabilize below
    tol > 0 on two consecutive doublings within the kernel window (tol = 0
    runs a zero-tail f to its cover).
    """
    if not kernel.kind.startswith("k_"):
        raise ValueError(
            f"expectation_det requires a finitary-process kernel, got {kernel.kind!r}"
        )
    zero_tail = isinstance(f.tail, ZeroTail)
    if not (tol > 0 or zero_tail and tol == 0):
        raise ValueError(f"tol must be > 0, got {tol}")
    cover = int(math.ceil(f.support_radius)) if zero_tail else None
    if zero_tail and f.support_radius > kernel.N:
        raise ValueError(
            f"kernel window [-{kernel.N}, {kernel.N}] does not cover the support "
            f"radius {f.support_radius}"
        )

    windows, dets, increments = [], [], []
    fv, K = f.on_window(kernel.N), kernel.N
    fw, us = (0.0 * fv, fv[None]) if zero_tail else (fv, 0.0 * fv[None])
    for n in _doubling_windows(K):
        windows.append(n)
        sl, kw = slice(K - n, K + n), _weighted_kernel(kernel, n)  # only the windows reached
        dets.append(float(_window_dets(fw[sl], us[:, sl], _factor(kw), [n])[0, 0]))
        if len(dets) >= 2:
            increments.append(abs(dets[-1] - dets[-2]) / max(1.0, abs(dets[-1])))
        done_exact = zero_tail and n >= cover
        done_stable = len(increments) >= 2 and increments[-1] < tol and increments[-2] < tol
        if done_exact or done_stable:
            break
    else:
        achieved = max(increments[-2:]) if increments else math.inf
        raise NonConvergenceError("expectation_det", achieved, tol, K, cap="window half-width")

    result = ExpectationDet(dets[-1], tuple(windows), tuple(dets), tuple(increments))
    return result if full_output else result.value


# ---------------------------------------------------------------------------
# Sparseness certificate
# ---------------------------------------------------------------------------

class SparsenessReport(NamedTuple):
    """Partial sums of rho(x)/|x| over doubling windows with their increments;
    passes when the increments contract (ratio <= 0.75 per doubling)."""

    window_sizes: tuple[int, ...]
    partial_sums: tuple[float, ...]
    increments: tuple[float, ...]
    ratios: tuple[float, ...]
    passed: bool


def sparseness_certificate(density) -> SparsenessReport:
    """Check that sum over the window of rho(x)/|x| is Cauchy in window size.

    density maps window points to rho_1 values (mapping or pair iterable,
    read as a TestFunction table).  Windows double from 4 up to the
    tabulated radius; the certificate passes when each doubling adds at most
    0.75 of the previous increment, which a density rho ~ C/|x| satisfies
    (increments ~ C/N) and a non-decaying density does not (increments
    approach a positive constant).
    """
    rho = TestFunction(density.items() if isinstance(density, Mapping) else density).table
    if not rho.size:
        raise ValueError("empty density table")
    if rho.min() < -1e-12:
        raise ValueError(f"density values must be nonnegative, got {rho.min()}")
    n_max = len(rho) // 2
    if n_max < 32:
        raise ValueError("need a density window of size at least 32 for a certificate")
    sizes = _doubling_windows(n_max)[2:]  # 4, 8, ..., n_max
    terms = rho / np.abs(np.arange(1 - 2 * n_max, 2 * n_max, 2) / 2.0)
    sums = tuple(math.fsum(terms[n_max - n : n_max + n].tolist()) for n in sizes)
    incs = tuple(b - a for a, b in zip(sums, sums[1:]))
    # A rise after a flat doubling does not contract: only two flat ones give ratio 0.
    ratios = tuple(b / a if a > 0.0 else math.inf if b > 0.0 else 0.0
                   for a, b in zip(incs, incs[1:]))
    passed = len(ratios) >= 2 and all(r <= 0.75 for r in ratios)
    return SparsenessReport(window_sizes=tuple(sizes), partial_sums=sums, increments=incs,
                            ratios=ratios, passed=passed)
