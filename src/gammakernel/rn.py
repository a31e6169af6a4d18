"""Radon-Nikodym derivatives under finitary permutations of the lattice.

The finitary permutations of Z' are generated by the transpositions sigma_n
of n - 1/2 and n + 1/2.  Under the modified action on balanced
configurations, a single generator changes the configuration weight by an
explicitly computable factor: a constant depending on the configuration
near the origin, times an integer power of xi, times a multiplicative
functional Phi_f whose f decays like 1/|x|.  Words of generators compose by
the cocycle rule

    mu(sigma tau, X) = mu(sigma, X) * mu(tau, sigma~^(-1) X).

Because the xi-dependence sits entirely in the xi^k factor, setting xi = 1
extends the density to the xi -> 1 limit measure.  The two verify_*
harnesses check the transport identity

    < F o sigma~, P > = < mu(sigma, .) F, P >

by exhaustive enumeration for the pre-limit measures and by Fredholm
determinants of the limit kernel.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .lattice import (
    FiniteConfig,
    FinitaryPermutation,
    HalfInt,
    _apply_modified,
    _sigma_modified_once,
    apply_sigma_modified,
    to_balanced_config,
)
from .zmeasure import Params, XiParams, enumerate_weights, log_weight_config, pair_product
from .fredholm import (
    InverseDecay,
    SparseConfig,
    TestFunction,
    _det_one_plus,
    _doubling_windows,
    _nested_operators,
    expectation_det,
    multiply_functionals,
    phi_eval,
)
from .kernels import WindowKernel, j_transform, underline_limit_window, window_points

__all__ = [
    "RnExpression",
    "RnLimitValue",
    "word_window",
    "rn_exact",
    "rn_closed_form",
    "rn_compose",
    "rn_limit",
    "CylinderFunction",
    "expand_cylinder",
    "TransportReport",
    "verify_transport",
    "LimitTransportReport",
    "verify_limit_transport",
]


def _as_permutation(sigma) -> FinitaryPermutation:
    if isinstance(sigma, FinitaryPermutation):
        return sigma
    if isinstance(sigma, int):
        return FinitaryPermutation((sigma,))
    return FinitaryPermutation(sigma)


def _as_config(X) -> FiniteConfig:
    return X if isinstance(X, FiniteConfig) else FiniteConfig(X)


def word_window(sigma) -> int:
    """Smallest window half-width N valid for the word: N > |n| for every
    generator, so all moved points stay inside [-N, N]."""
    return _as_permutation(sigma).max_index + 1


# ---------------------------------------------------------------------------
# Exact weight-ratio route
# ---------------------------------------------------------------------------

def rn_exact(sigma, X, p: XiParams) -> float:
    """mu(sigma, X) = P(sigma~^(-1) X) / P(X) as an exact weight ratio.

    Both log-weights carry the identical zz' * log(1 - xi) prefactor, which
    cancels exactly in the difference, so the ratio is free of the
    cancellation error that plagues the prefactor near xi = 1.
    """
    perm = _as_permutation(sigma)
    config = _as_config(X)
    moved = apply_sigma_modified(perm.inverse(), config)
    return math.exp(log_weight_config(moved, p) - log_weight_config(config, p))


# ---------------------------------------------------------------------------
# Closed-form expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RnExpression:
    """a * xi^k * Phi_f, conditioned on the configuration inside
    [-window, window] equaling window_config.

    f vanishes inside the window, is tabulated on the lattice points out to
    +-radius, and carries an inverse-decay constant certifying
    |f(x)| <= c / |x| beyond the window.  Evaluation returns 0 on
    configurations whose window restriction differs (the expression is one
    cylinder piece of the full density).
    """

    a: float
    k: int
    f: TestFunction
    window: int
    window_config: FiniteConfig
    radius: int

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.radius < self.window:
            raise ValueError(
                f"radius {self.radius} smaller than the window {self.window}"
            )
        if self.window_config.outside(self.window).points:
            raise ValueError(
                f"window configuration {self.window_config} has points outside "
                f"[-{self.window}, {self.window}]"
            )

    def _check_radius(self, points: Iterable[HalfInt]) -> None:
        if not isinstance(self.f.tail, InverseDecay):
            return
        far = [x for x in points if abs(x.twice) > 2 * self.radius]
        if far:
            raise ValueError(
                f"configuration reaches {far[-1]} beyond the tabulated radius "
                f"{self.radius}; rebuild the expression with a larger radius"
            )

    def evaluate(self, X, xi: float = 1.0) -> float:
        """Exact value on a finite configuration with all points tabulated."""
        if not (0.0 < xi <= 1.0):
            raise ValueError(f"xi must lie in (0, 1], got {xi}")
        config = _as_config(X)
        if config.restrict(self.window) != self.window_config:
            return 0.0
        self._check_radius(config.points)
        return self.a * xi ** self.k * phi_eval(self.f, config)


class RnLimitValue(NamedTuple):
    """Value of an expression at xi = 1 with a certified error bound for the
    unmaterialized remainder of a sparse configuration."""

    value: float
    bound: float


def rn_limit(expr: RnExpression, X) -> RnLimitValue:
    """Evaluate the density expression at xi = 1 on a sparse configuration.

    The materialized points must include everything within the tabulated
    radius; the unmaterialized remainder enters only through the certified
    bound, via f's inverse-decay constant and the configuration's
    tail sum certificate.
    """
    if isinstance(X, SparseConfig):
        sparse = X
    else:
        sparse = SparseConfig(_as_config(X).points)
    listed = FiniteConfig(sparse.points)
    if listed.restrict(expr.window) != expr.window_config:
        return RnLimitValue(0.0, 0.0)
    expr._check_radius(listed.points)
    v = phi_eval(expr.f, sparse, full_output=True)
    value = expr.a * v.value
    return RnLimitValue(value, abs(value) * v.relative_bound)


def _outside_grid(N: int, radius: int) -> list[HalfInt]:
    return [x for x in window_points(radius) if abs(x.twice) > 2 * N]


def _identity_expression(N: int, W: FiniteConfig, radius: int) -> RnExpression:
    return RnExpression(1.0, 0, TestFunction(()), N, W, radius)


def rn_closed_form(
    n: int,
    window_config,
    p: Params,
    N: int | None = None,
    radius: int | None = None,
) -> RnExpression:
    """Single-generator density as one term a * xi^k * Phi_f, conditioned on
    the configuration inside [-N, N].

    The generator either fixes the window pattern (term (1, 0, 0)), shifts
    one coordinate by 1 (k = +-1; a collects the shifted weight factors over
    in-window coordinates; f is the two-sided rational tail the same factors
    produce at out-of-window coordinates), or adds/removes the central pair
    {-1/2, 1/2} (n = 0, with a = (zz')^(+-1) times the in-window products).
    Negative n reduces to -n by reflecting the lattice and negating both
    parameters.
    """
    n = int(n)
    W = _as_config(window_config)
    if N is None:
        N = abs(n) + 1
    if N <= abs(n):
        raise ValueError(f"window too small: need N > |n| = {abs(n)}, got {N}")
    if radius is None:
        radius = max(2 * N, 16)
    if W.outside(N).points:
        raise ValueError(
            f"window restriction {W} has points outside [-{N}, {N}]"
        )

    if n < 0:
        mirror = rn_closed_form(
            -n, FiniteConfig(-x for x in W), p.negated(), N=N, radius=radius
        )
        f = TestFunction(tuple((-x, v) for x, v in mirror.f.values), mirror.f.tail)
        return RnExpression(mirror.a, mirror.k, f, N, W, radius)

    x_min = N + 0.5  # nearest lattice point beyond the window
    grid = _outside_grid(N, radius)

    if n == 0:
        lo, hi = HalfInt(-1), HalfInt(1)
        if (lo in W) != (hi in W):
            return _identity_expression(N, W, radius)
        sign = -1 if lo in W else 1  # both present -> remove; neither -> add
        a = p.zz ** sign
        for x in W.points:
            if x == lo or x == hi:
                continue
            t = abs(float(x))
            a *= ((t - 0.5) / (t + 0.5)) ** (2 * sign)
        vals = []
        for x in grid:
            t = abs(float(x))
            vals.append((x, ((2.0 * t - 1.0) / (2.0 * t + 1.0)) ** (2 * sign) - 1.0))
        if sign == 1:
            c = 2.0
        else:
            c = 2.0 * ((2.0 * x_min) / (2.0 * x_min - 1.0)) ** 2
        f = TestFunction(tuple(vals), InverseDecay(c))
        return RnExpression(a, sign, f, N, W, radius)

    lo, hi = HalfInt(2 * n - 1), HalfInt(2 * n + 1)
    if (lo in W) == (hi in W):
        return _identity_expression(N, W, radius)
    sign = 1 if lo in W else -1  # particle at n - 1/2 moves up, or back down
    moved = lo if sign == 1 else hi
    pv = float(moved)
    a = (pair_product(p.z, p.z_prime, n) / n**2) ** sign
    for x in W.positives:
        if x == moved:
            continue
        pj = float(x)
        a *= ((pj - pv - sign) / (pj - pv)) ** 2
    for x in W.negatives:
        qj = -float(x)
        a /= ((qj + pv + sign) / (qj + pv)) ** 2
    vals = []
    for x in grid:
        t = float(x)
        if t > 0:
            vals.append((x, (1.0 - sign / (t - pv)) ** 2 - 1.0))
        else:
            vals.append((x, (1.0 + sign / (-t + pv)) ** (-2) - 1.0))
    # |f(x)| <= c/|x| beyond the window: the sup of |f(x) x| is controlled by
    # the nearest admissible point on each side.
    if sign == 1:
        c_right = 2.0 * x_min / (x_min - pv)
        c_left = 2.0
    else:
        u_max = 1.0 / (x_min - pv)
        c_right = (2.0 + u_max) * x_min / (x_min - pv)
        c_left = 2.0 / (1.0 - 1.0 / (x_min + pv)) ** 2
    f = TestFunction(tuple(vals), InverseDecay(max(c_right, c_left)))
    return RnExpression(a, sign, f, N, W, radius)


def rn_compose(
    sigma,
    window_config,
    p: Params,
    N: int | None = None,
    radius: int | None = None,
) -> RnExpression:
    """Density of a word of generators, folded into a single term for the
    given window restriction.

    The cocycle rule turns the word into a product of single-generator
    factors evaluated along the trajectory of the window configuration;
    constants multiply, xi exponents add, and the tail functionals combine
    through (1 + f)(1 + g) = 1 + (f + g + fg).
    """
    perm = _as_permutation(sigma)
    min_N = perm.max_index + 1
    if N is None:
        N = min_N
    if N < min_N:
        raise ValueError(f"window too small: the word needs N >= {min_N}, got {N}")
    if radius is None:
        radius = max(2 * N, 16)
    W = _as_config(window_config)
    if W.outside(N).points:
        raise ValueError(f"window restriction {W} has points outside [-{N}, {N}]")
    a, k = 1.0, 0
    f = TestFunction(())
    cur = W
    for m in perm.word:  # leftmost factor first; the trajectory tracks the rest
        step = rn_closed_form(m, cur, p, N=N, radius=radius)
        a *= step.a
        k += step.k
        f = multiply_functionals(f, step.f)
        cur = _sigma_modified_once(m, cur)
    return RnExpression(a, k, f, N, W, radius)


# ---------------------------------------------------------------------------
# Cylinder functions
# ---------------------------------------------------------------------------

def _subsets(pts: tuple[HalfInt, ...]):
    for bits in range(1 << len(pts)):
        yield frozenset(p for i, p in enumerate(pts) if bits >> i & 1)


class CylinderFunction:
    """A function of configurations that depends only on the intersection
    with a finite window of points, stored as a table over all subsets."""

    __slots__ = ("points", "table")

    def __init__(self, points: Iterable, table: Mapping):
        pts = tuple(sorted({HalfInt.make(x) for x in points}))
        tab = {
            frozenset(HalfInt.make(x) for x in key): float(v)
            for key, v in table.items()
        }
        if len(tab) != 1 << len(pts):
            raise ValueError("table must cover every subset of the window")
        allowed = set(pts)
        for key, v in tab.items():
            if not key <= allowed:
                raise ValueError(f"table key {sorted(key)} leaves the window")
            if not math.isfinite(v):
                raise ValueError("cylinder values must be finite")
        self.points = pts
        self.table = tab

    @classmethod
    def from_callable(cls, points: Iterable, fn) -> "CylinderFunction":
        pts = tuple(sorted({HalfInt.make(x) for x in points}))
        return cls(pts, {sub: fn(sub) for sub in _subsets(pts)})

    @classmethod
    def constant(cls, c: float) -> "CylinderFunction":
        return cls((), {frozenset(): c})

    @classmethod
    def contains(cls, x) -> "CylinderFunction":
        """Indicator of the event that x belongs to the configuration."""
        pt = HalfInt.make(x)
        return cls((pt,), {frozenset(): 0.0, frozenset((pt,)): 1.0})

    def __call__(self, X) -> float:
        if isinstance(X, FiniteConfig):
            pts = X.points
        else:
            pts = tuple(HalfInt.make(p) for p in X)
        return self.table[frozenset(pts) & set(self.points)]

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for v in self.table.values())

    def times(self, other: "CylinderFunction") -> "CylinderFunction":
        pts = set(self.points) | set(other.points)
        return CylinderFunction.from_callable(pts, lambda W: self(W) * other(W))

    def transform(self, sigma) -> "CylinderFunction":
        """The composition X -> self(sigma~(X)), a cylinder function on the
        window enlarged by every point the word touches."""
        perm = _as_permutation(sigma)
        touched = {HalfInt(2 * n + s) for n in perm.word for s in (-1, 1)}
        pts = set(self.points) | touched

        def fn(W):
            return self(_apply_modified(perm, FiniteConfig(W)))

        return CylinderFunction.from_callable(pts, fn)


def expand_cylinder(F: CylinderFunction) -> tuple[tuple[float, TestFunction], ...]:
    """Write F as sum_T beta_T Phi_(-1 on T).

    Phi with f = -1 on T kills every configuration meeting T, so it is the
    indicator that X avoids T; those indicators form a basis of the cylinder
    functions on the window, inverted here by inclusion-exclusion over
    subsets.  Returns the nonzero (beta_T, TestFunction) pairs.
    """
    pts = F.points
    m = len(pts)
    full = (1 << m) - 1
    values = [
        F(frozenset(pts[i] for i in range(m) if bits >> i & 1))
        for bits in range(1 << m)
    ]
    scale = max(1.0, max(abs(v) for v in values))
    out = []
    for t_mask in range(1 << m):
        parts = []
        s = t_mask
        while True:
            sign = -1.0 if (t_mask ^ s).bit_count() & 1 else 1.0
            parts.append(sign * values[full ^ s])
            if s == 0:
                break
            s = (s - 1) & t_mask
        beta = math.fsum(parts)
        if abs(beta) > 1e-13 * scale:
            f = TestFunction(
                tuple((pts[i], -1.0) for i in range(m) if t_mask >> i & 1)
            )
            out.append((beta, f))
    return tuple(out)


# ---------------------------------------------------------------------------
# Transport-identity harnesses
# ---------------------------------------------------------------------------

class TransportReport(NamedTuple):
    """Both sides of < F o sigma~, P > = < mu(sigma, .) F, P > by exhaustive
    enumeration, with the rigorous bound the partial sums allow."""

    lhs: float
    rhs: float
    difference: float
    bound: float
    tail_mass: float
    passed: bool


def verify_transport(sigma, F: CylinderFunction, p: XiParams, max_size: int = 16) -> TransportReport:
    """Check the transport identity for a pre-limit measure by enumerating
    every partition up to max_size and comparing both pairings."""
    perm = _as_permutation(sigma)
    items, tail = enumerate_weights(p, max_size)
    lhs_parts, rhs_parts = [], []
    max_mu = 1.0
    for lam, w in items:
        X = to_balanced_config(lam)
        lhs_parts.append(w * F(apply_sigma_modified(perm, X)))
        mu = rn_exact(perm, X, p)
        max_mu = max(max_mu, mu)
        rhs_parts.append(w * mu * F(X))
    lhs = math.fsum(lhs_parts)
    rhs = math.fsum(rhs_parts)
    diff = abs(lhs - rhs)
    bound = tail * F.sup_norm * max_mu + 1e-9
    return TransportReport(lhs, rhs, diff, bound, tail, diff <= bound)


class LimitTransportReport(NamedTuple):
    """Both sides of the transport identity for the limit measure.

    The right side is a sum of Fredholm determinants evaluated on shared
    nested windows: the individual terms' truncation tails decay like 1/n
    but cancel in the sum, so the residual tracks the summed sequence."""

    lhs: float
    rhs: float
    difference: float
    tolerance: float
    windows: tuple[int, ...]
    rhs_by_window: tuple[float, ...]
    residual: float
    n_terms: int
    passed: bool


def verify_limit_transport(
    sigma,
    F: CylinderFunction,
    p: Params,
    kernel: WindowKernel | None = None,
    kernel_window: int = 256,
    atol: float = 1e-5,
) -> LimitTransportReport:
    """Check the transport identity for the limit measure.

    The left side expands F o sigma~ into avoidance functionals, whose
    expectations are exact finite determinants of the limit kernel.  The
    right side groups the density's cylinder pieces by their shared tail
    functional, expands each grouped coefficient times F into avoidance
    functionals, and sums the resulting Fredholm determinants over nested
    windows of the same kernel; the last per-doubling increment of the sum
    is the reported residual.
    """
    perm = _as_permutation(sigma)
    if kernel is None:
        kernel = j_transform(underline_limit_window(kernel_window, p))
    if not kernel.kind.startswith("k_"):
        raise ValueError(
            f"transport check requires a finitary-process kernel, got {kernel.kind!r}"
        )
    N = word_window(perm)
    if N > kernel.N:
        raise ValueError(
            f"kernel window [-{kernel.N}, {kernel.N}] too small for the word "
            f"(needs N >= {N})"
        )

    lhs_terms = expand_cylinder(F.transform(perm))
    lhs = math.fsum(c * expectation_det(g, kernel) for c, g in lhs_terms)

    # Group the per-window-configuration expressions by tail functional.
    wpts = tuple(window_points(N))
    groups: dict[TestFunction, dict[frozenset, float]] = {}
    for W in _subsets(wpts):
        expr = rn_compose(perm, FiniteConfig(W), p, N=N, radius=kernel.N)
        groups.setdefault(expr.f, {})[W] = expr.a
    # Each job is c Phi_h, h = g + f + g f as in multiply_functionals(g, f).
    jobs: list[tuple[float, np.ndarray]] = []
    for f, amap in groups.items():
        coeff = CylinderFunction(wpts, {W: amap.get(W, 0.0) for W in _subsets(wpts)})
        fv = f.on_window(kernel.N)
        for c, g in expand_cylinder(coeff.times(F)):
            gv = g.on_window(kernel.N)
            jobs.append((c, gv + fv + gv * fv))

    ns = _doubling_windows(kernel.N)
    totals = np.zeros(len(ns))
    for c, hv in jobs:
        for i, (_, block) in enumerate(_nested_operators(hv, kernel)):
            totals[i] += c * _det_one_plus(block)
    # The truncation error of the raw sums decays like a power series in 1/n
    # on the doubling chain (the 1/|x| tails of the density functionals meet
    # the 1/|x| decay of the kernel diagonal), so two Richardson levels in
    # 1/n accelerate the limit by two orders.
    seq = [float(v) for v in totals]
    for factor in (2.0, 4.0):
        if len(seq) < 2:
            break
        seq = [
            (factor * seq[i] - seq[i - 1]) / (factor - 1.0)
            for i in range(1, len(seq))
        ]
    rhs = seq[-1]
    residual = abs(seq[-1] - seq[-2]) if len(seq) >= 2 else 0.0
    tolerance = max(atol, 10.0 * residual)
    diff = abs(lhs - rhs)
    return LimitTransportReport(
        lhs=lhs,
        rhs=rhs,
        difference=diff,
        tolerance=tolerance,
        windows=tuple(ns),
        rhs_by_window=tuple(float(v) for v in totals),
        residual=residual,
        n_terms=len(jobs),
        passed=diff <= tolerance,
    )
