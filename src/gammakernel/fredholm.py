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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .kernels import NonConvergenceError, WindowKernel, window_points
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


@dataclass(frozen=True)
class TestFunction:
    """A real lattice function tabulated on finitely many points.

    Evaluation returns 0 outside the tabulation; the tail model declares how
    large an idealized extension may be out there, which error reports and
    domain checks consume.
    """

    __test__ = False  # not a test case despite the name

    values: tuple[tuple[HalfInt, float], ...]
    tail: TailModel = field(default_factory=ZeroTail)

    def __post_init__(self) -> None:
        cleaned = sorted(
            (HalfInt.make(x), float(v)) for x, v in self.values
        )
        pts = [x for x, _ in cleaned]
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points in test-function table")
        for _, v in cleaned:
            if not math.isfinite(v):
                raise ValueError("test-function values must be finite")
        object.__setattr__(self, "values", tuple(cleaned))
        object.__setattr__(self, "_table", dict(cleaned))

    @classmethod
    def from_map(cls, mapping: Mapping, tail: TailModel | None = None) -> "TestFunction":
        return cls(tuple(mapping.items()), tail or ZeroTail())

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], N: int, tail: TailModel | None = None
    ) -> "TestFunction":
        """Tabulate fn(float(x)) on the window [-N, N]."""
        vals = tuple((t, float(fn(float(t)))) for t in window_points(N))
        return cls(vals, tail or ZeroTail())

    def __call__(self, x) -> float:
        return self._table.get(HalfInt.make(x), 0.0)

    @property
    def support(self) -> tuple[HalfInt, ...]:
        return tuple(x for x, v in self.values if v != 0.0)

    def on_window(self, N: int) -> np.ndarray:
        """Values at the 2N ascending points of [-N, N], 0 off the table."""
        out = np.zeros(2 * N)
        for x, v in self.values:
            j = window_index(x, N)
            if j is not None:
                out[j] = v
        return out

    @property
    def window_radius(self) -> float:
        """Smallest W with all tabulated points in [-W, W] (0 if empty)."""
        if not self.values:
            return 0.0
        return max(abs(float(x)) for x, _ in self.values)

    @property
    def support_radius(self) -> float:
        sup = self.support
        return max(abs(float(x)) for x in sup) if sup else 0.0


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

    @property
    def partial_inverse_sum(self) -> float:
        return math.fsum(1.0 / abs(float(x)) for x in self.points)

    @property
    def inverse_sum_bound(self) -> float:
        """Certified upper bound on sum over the whole configuration of 1/|x|."""
        return self.partial_inverse_sum + self.tail_sum_bound


# ---------------------------------------------------------------------------
# Phi_f evaluation
# ---------------------------------------------------------------------------

class PhiValue(NamedTuple):
    """Partial product over the materialized points with a relative bound on
    the contribution of the unmaterialized remainder."""

    value: float
    relative_bound: float


def _config_points(X) -> tuple[Sequence[HalfInt], float]:
    """Materialized points of X plus its certified 1/|x| tail bound."""
    if isinstance(X, SparseConfig):
        return X.points, X.tail_sum_bound
    if isinstance(X, FiniteConfig):
        return X.points, 0.0
    return tuple(HalfInt.make(p) for p in X), 0.0


def phi_eval(f: TestFunction, X, full_output: bool = False):
    """Phi_f(X) = prod over x in X of (1 + f(x)).

    For a SparseConfig with a nonzero tail bound, the unlisted remainder can
    change log Phi_f by at most c * tail_sum_bound when |f| <= c/|x| out
    there (log(1+t) <= t); the certified relative bound is returned with
    full_output=True.
    """
    pts, tail_sum = _config_points(X)
    value = 1.0
    for x in pts:
        value *= 1.0 + f(x)
    if isinstance(f.tail, InverseDecay):
        rel = math.expm1(f.tail.c * tail_sum)
    else:
        rel = 0.0
    if full_output:
        return PhiValue(value, rel)
    return value


def phi_rows(f: TestFunction, occupancy: np.ndarray, N: int) -> np.ndarray:
    """Phi_f of every row of an occupancy matrix over the window [-N, N],
    multiplied in ascending point order as phi_eval does."""
    fv = f.on_window(N)
    out = np.ones(occupancy.shape[0])
    for j in np.flatnonzero(fv):
        out[occupancy[:, j]] *= 1.0 + fv[j]
    return out


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
    bound = 1.0
    for _, v in f.values:
        bound *= max(1.0, abs(1.0 + v))
    return ExpectationSum(value=total, error=tail * bound, tail_mass=tail)


# ---------------------------------------------------------------------------
# Expectations: determinant route
# ---------------------------------------------------------------------------

class ExpectationDet(NamedTuple):
    """Nested-window determinant value with its stabilization record."""

    value: float
    windows: tuple[int, ...]
    determinants: tuple[float, ...]
    increments: tuple[float, ...]
    condition_number: float


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
    return s[:, None] * kernel.values[K - n : K + n, K - n : K + n] / s[None, :]


def _window_dets(fw: np.ndarray, us: np.ndarray, kw: np.ndarray, ns) -> np.ndarray:
    """det(I + D_(f+u) K_w) on each central window [-n, n] of ns (columns) for
    each row u of us, all given on [-K, K].  With A = I + D_f K_w and S the
    rows' joint support, det(I + D_(f+u) K_w) = det(A) det(I_S + D_u K_w[S, :]
    A^-1 E_S): one LU of A per window, none where f vanishes there (A = I)."""
    K = len(fw) // 2
    support = np.flatnonzero(np.any(us != 0.0, axis=0))
    out = np.empty((len(us), len(ns)))
    for i, n in enumerate(ns):
        sl = slice(K - n, K + n)  # the window [-n, n] is a central slice
        s = support[(support >= K - n) & (support < K + n)]
        if not fw[sl].any():
            det_a, m = 1.0, kw[np.ix_(s, s)]
        else:
            a = fw[sl, None] * kw[sl, sl]
            a.flat[:: 2 * n + 1] += 1.0
            lu, piv = lu_factor(a, overwrite_a=True, check_finite=False)
            diag = np.diag(lu)
            flips = np.count_nonzero(piv != np.arange(2 * n)) + np.count_nonzero(diag < 0)
            det_a = (-1.0) ** flips * math.exp(np.sum(np.log(np.abs(diag))))
            e_s = np.zeros((2 * n, len(s)))
            e_s[s - (K - n), np.arange(len(s))] = 1.0
            m = kw[s, sl] @ lu_solve((lu, piv), e_s, check_finite=False)
        out[:, i] = det_a * np.linalg.det(np.eye(len(s)) + us[:, s, None] * m)
    return out


def expectation_det(f: TestFunction, kernel: WindowKernel, tol: float = 1e-8,
                    full_output: bool = False):
    """E[Phi_f] = det(1 + A_g A_h K A_h) on nested windows until stabilization.

    kernel must be of a finitary-process kind (k_prelimit or k_limit).  The
    weighted operator D_f K_w has entries f(x) sqrt(|x|/|y|) K(x, y), and
    _window_dets evaluates it on the window chain 1, 2, 4, ..., weighting
    each window's block only when the chain reaches it.  A zero-tail f
    enters as a row on its support, with no LU, and is exact once the chain
    covers that support; a decaying f is LU-factored on each window and must
    stabilize below tol on two consecutive doublings within the kernel window.
    """
    if not kernel.kind.startswith("k_"):
        raise ValueError(
            f"expectation_det requires a finitary-process kernel, got {kernel.kind!r}"
        )
    zero_tail = isinstance(f.tail, ZeroTail)
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
        dets.append(float(_window_dets(fw[sl], us[:, sl], kw, [n])[0, 0]))
        if len(dets) >= 2:
            increments.append(abs(dets[-1] - dets[-2]) / max(1.0, abs(dets[-1])))
        done_exact = zero_tail and n >= cover
        done_stable = len(increments) >= 2 and increments[-1] < tol and increments[-2] < tol
        if done_exact or done_stable:
            break
    else:
        achieved = max(increments[-2:]) if increments else math.inf
        raise NonConvergenceError("expectation_det", achieved, tol, K, cap="window half-width")

    cond = float(np.linalg.cond(np.eye(2 * n) + fv[sl, None] * kw))
    result = ExpectationDet(
        value=dets[-1],
        windows=tuple(windows),
        determinants=tuple(dets),
        increments=tuple(increments),
        condition_number=cond,
    )
    if full_output:
        return result
    return result.value


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

    density maps window points to rho_1 values (mapping or pair iterable).
    Windows double from 4 up to the tabulated radius; the certificate passes
    when each doubling adds at most 0.75 of the previous increment, which a
    density rho ~ C/|x| satisfies (increments ~ C/N) and a non-decaying
    density does not (increments approach a positive constant).
    """
    if isinstance(density, Mapping):
        items = [(HalfInt.make(x), float(v)) for x, v in density.items()]
    else:
        items = [(HalfInt.make(x), float(v)) for x, v in density]
    if not items:
        raise ValueError("empty density table")
    for _, v in items:
        if v < -1e-12:
            raise ValueError(f"density values must be nonnegative, got {v}")
    radius = max(abs(float(x)) for x, _ in items)
    n_max = int(radius + 0.5)
    if n_max < 32:
        raise ValueError("need a density window of size at least 32 for a certificate")
    sizes = [4]
    while sizes[-1] * 2 <= n_max:
        sizes.append(sizes[-1] * 2)
    if sizes[-1] != n_max:
        sizes.append(n_max)
    sums = tuple(
        math.fsum(v / abs(float(x)) for x, v in items if abs(float(x)) <= n)
        for n in sizes
    )
    incs = tuple(b - a for a, b in zip(sums, sums[1:]))
    ratios = tuple(
        b / a if a > 0.0 else 0.0 for a, b in zip(incs, incs[1:])
    )
    passed = len(ratios) >= 2 and all(r <= 0.75 for r in ratios)
    return SparsenessReport(
        window_sizes=tuple(sizes),
        partial_sums=sums,
        increments=incs,
        ratios=ratios,
        passed=passed,
    )
