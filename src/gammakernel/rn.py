"""Radon-Nikodym derivatives under finitary permutations of the lattice.

The finitary permutations of Z' are generated by the transpositions sigma_n
of n - 1/2 and n + 1/2.  Under the modified action on balanced
configurations, a single generator changes the configuration weight by
one factor const * xi^k * prod (1 + g(x)) over the points x of X off the
moved pair: inside a window [-N, N] the product is the constant a, beyond
it the multiplicative functional Phi_f with f = g, which decays like 1/|x|.
Words of generators compose by the cocycle rule

    mu(sigma tau, X) = mu(sigma, X) * mu(tau, sigma~^(-1) X).

Because the xi-dependence sits entirely in the xi^k factor, setting xi = 1
extends the density to the xi -> 1 limit measure.  The two verify_*
harnesses check the transport identity

    < F o sigma~, P > = < mu(sigma, .) F, P >

by exhaustive enumeration for the pre-limit measures and by Fredholm
determinants of a limit kernel the caller builds for the same parameters,
which the check compares.  Window configurations are occupancy rows
on [-N, N], and sigma~ moves them by lattice._modified_occupancy.
"""

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

import numpy as np

from .lattice import FiniteConfig, FinitaryPermutation, HalfInt, _modified_occupancy, window_index
from .zmeasure import (
    Params, XiParams, _log_weight_form, _log_weights, pair_product, partition_ensemble,
)
from .fredholm import (
    InverseDecay,
    PhiValue,
    SparseConfig,
    TestFunction,
    _doubling_windows,
    _factor,
    _weighted_kernel,
    _window_dets,
    phi_eval,
)
from .kernels import WindowKernel, window_points

__all__ = [
    "RnExpression",
    "RnLimitValue",
    "word_window",
    "rn_exact",
    "rn_compose",
    "rn_limit",
    "CylinderFunction",
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

def _log_mu_rows(perm: FinitaryPermutation, occupancy: np.ndarray, twice,
                 p: XiParams) -> np.ndarray:
    """log mu(sigma, X) = log P(sigma~^(-1) X) - log P(X) for every balanced
    row X of an occupancy matrix on the ascending points twice / 2, which hold
    the points the word moves.  With log P = c + o^T H o and o' the moved row,
    log mu = (o' - o)^T H (o' + o) reads only the rows S of H the word moves,
    c cancels exactly, and a fixed row gets log mu = 0 exactly."""
    moved = _modified_occupancy(perm.inverse(), occupancy, twice)
    S = [twice.index(t) for t in sorted({2 * n + s for n in perm.word for s in (-1, 1)})]
    d = moved[:, S].astype(float) - occupancy[:, S]
    cols = np.array(twice, dtype=int)
    return ((d @ _log_weight_form(cols[S], cols, p)) * (moved + 1.0 * occupancy)).sum(1)


def rn_exact(sigma, X, p: XiParams) -> float:
    """mu(sigma, X) = P(sigma~^(-1) X) / P(X) as an exact weight ratio, the
    one-row case of _log_mu_rows on X's points and the word's: the zz' log(1 - xi)
    prefactor cancels exactly, so the ratio stays accurate near xi = 1."""
    perm = _as_permutation(sigma)
    config = _as_config(X)
    if not config.is_balanced():
        raise ValueError(f"modified action requires a balanced configuration, got {config}")
    held = {x.twice for x in config.points}
    twice = sorted(held | {2 * n + s for n in perm.word for s in (-1, 1)})
    return math.exp(_log_mu_rows(perm, np.array([[t in held for t in twice]]), twice, p)[0])


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
            raise ValueError(f"radius {self.radius} smaller than the window {self.window}")
        if any(abs(x.twice) > 2 * self.window for x in self.window_config.points):
            raise ValueError(
                f"window configuration {self.window_config} has points outside "
                f"[-{self.window}, {self.window}]"
            )

    def _phi(self, X) -> PhiValue | None:
        """phi_eval of f on a finite or sparse configuration, with its certified
        bound, or None where the window restriction differs.  With an
        inverse-decay tail, every listed point must lie within the radius."""
        listed = FiniteConfig(X.points) if isinstance(X, SparseConfig) else _as_config(X)
        if listed.restrict(self.window) != self.window_config:
            return None
        far = [x for x in listed.points if abs(x.twice) > 2 * self.radius]
        if far and isinstance(self.f.tail, InverseDecay):
            raise ValueError(
                f"configuration reaches {far[-1]} beyond the tabulated radius "
                f"{self.radius}; rebuild the expression with a larger radius"
            )
        return phi_eval(self.f, X if isinstance(X, SparseConfig) else listed)

    def evaluate(self, X, xi: float = 1.0) -> float:
        """Exact value on a finite configuration with all points tabulated."""
        if not (0.0 < xi <= 1.0):
            raise ValueError(f"xi must lie in (0, 1], got {xi}")
        v = self._phi(X)
        return 0.0 if v is None else self.a * xi ** self.k * v.value


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
    v = expr._phi(X)
    if v is None:
        return RnLimitValue(0.0, 0.0)
    value = expr.a * v.value
    return RnLimitValue(value, abs(value) * v.relative_bound)


def _step(n: int, row: np.ndarray, p: Params, grid: np.ndarray):
    """Generator n on the window occupancy row W of [-N, N] as (a, k, f on
    grid, c): a = const * prod of (1 + g) over W's points off the moved pair,
    f = g on the grid beyond the window, and |f(x)| <= c/|x| there; f is None
    for the unit term.  For n != 0 the particle at P = n - d/2 moves by
    d = +-1, k = d sign(n), const = ((z+n)(z'+n)/n^2)^k and 1 + g(t) = r^2
    with r = (t-P-d)/(t-P) where t has the sign of n, 1/r^2 elsewhere.  For
    n = 0, k = +1 adds the central pair and k = -1 removes it, const = (zz')^k
    and 1 + g(t) = ((|t|-1/2)/(|t|+1/2))^(2k)."""
    occ, N = row.tolist(), len(row) // 2
    lo, hi = N + n - 1, N + n  # the columns of n - 1/2 and n + 1/2
    if (occ[lo] == occ[hi]) != (n == 0):
        return 1.0, 0, None, 0.0
    x_min = N + 0.5  # nearest lattice point beyond the window
    if n == 0:
        k = -1 if occ[lo] else 1
        const = p.zz ** k
        c = 2.0 if k == 1 else 2.0 * ((2.0 * x_min) / (2.0 * x_min - 1.0)) ** 2

        def one_g(t):  # on a point or an array of points
            return ((abs(t) - 0.5) / (abs(t) + 0.5)) ** (2 * k)
    else:
        d = 1 if occ[lo] else -1
        P, k = n - d / 2, d if n > 0 else -d
        const, q = (pair_product(p.z, p.z_prime, n) / n**2) ** k, abs(P)
        # the sup of |f(x) x| beyond the window is controlled by the nearest
        # point on n's side and on the other, x_min - |P| and x_min + |P| from P
        c = (max(2.0 * x_min / (x_min - q), 2.0) if k == 1 else
             max((2.0 + 1.0 / (x_min - q)) * x_min / (x_min - q), 2.0 / (1.0 - 1.0 / (x_min + q)) ** 2))

        def one_g(t):  # r^(2 sign(tn)), on a point or an array of points
            return ((t - P - d) / (t - P)) ** (2 * t * n / abs(t * n))
    held = [i - (N - 0.5) for i, b in enumerate(occ) if b and i != lo and i != hi]
    return math.prod(map(one_g, held), start=const), k, one_g(grid) - 1.0, c


def _compose(perm: FinitaryPermutation, row: np.ndarray, p: Params, grid: np.ndarray):
    """The word's density on the window occupancy row of [-N, N] as (a, k,
    f on grid, c), one _step per generator along the row's trajectory under
    _modified_occupancy, folding the steps' tails by
    (1 + f)(1 + g) = 1 + (f + g + fg), evaluated as f + g + f*g, and their
    decay constants by c + c_g + c c_g/w, with w the grid radius
    (|f g| <= c c_g/(w |x|) beyond it)."""
    w = max(0.5, float(grid[-1])) if grid.size else 0.5
    twice = range(1 - len(row), len(row), 2)
    a, k, f, c = 1.0, 0, None, 0.0
    for i, m in enumerate(perm.word, 1):  # leftmost factor first; the trajectory tracks the rest
        sa, sk, g, cg = _step(m, row, p, grid)
        a, k = a * sa, k + sk
        if g is not None:
            f, c = (g, cg) if f is None else (f + g + f * g, c + cg + c * cg / w)
        if i < len(perm.word):
            row = _modified_occupancy(FinitaryPermutation((m,)), row[None], twice)[0]
    return a, k, f, c


def rn_compose(sigma, window_config, p: Params, N: int | None = None,
               radius: int | None = None) -> RnExpression:
    """Density of a word of generators, folded into a single term for the
    given window restriction.

    The cocycle rule turns the word into a product of single-generator
    factors evaluated along the trajectory of the window configuration;
    constants multiply, xi exponents add, and the tail functionals combine
    through (1 + f)(1 + g) = 1 + (f + g + fg), as arrays on the outside grid.
    A single generator n (or the word (n,)) either fixes the window pattern,
    term (1, 0, 0), or moves one particle by 1 or adds or removes the central
    pair {-1/2, 1/2} (n = 0), with k = +-1 (see _step).
    """
    perm = _as_permutation(sigma)
    min_N = perm.max_index + 1
    if N is None:
        N = min_N
    if N < min_N:
        raise ValueError(f"window too small: the word needs N >= {min_N}, got {N}")
    if radius is None:
        radius = max(2 * N, 16)
    if radius < N:
        raise ValueError(f"radius {radius} smaller than the window {N}")
    W = _as_config(window_config)
    row, cols = np.zeros(2 * N, dtype=bool), [window_index(x, N) for x in W.points]
    if None in cols:  # window_index marks a point outside the window
        raise ValueError(f"window restriction {W} has points outside [-{N}, {N}]")
    row[cols] = True
    t = np.arange(1 - 2 * radius, 2 * radius, 2) / 2.0  # [-radius, radius]
    outside = np.abs(t) > N
    a, k, fv, c = _compose(perm, row, p, t[outside])
    table = np.zeros(2 * radius)
    table[outside] = 0.0 if fv is None else fv
    f = TestFunction() if fv is None else TestFunction(table, InverseDecay(c))
    return RnExpression(a, k, f, N, W, radius)


# ---------------------------------------------------------------------------
# Cylinder functions
# ---------------------------------------------------------------------------

def _subset_rows(m: int) -> np.ndarray:
    """Occupancy rows of all 2^m subsets of m points, in bit-pattern order:
    row b holds point i exactly when bit i of b is set."""
    return (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(bool)


class CylinderFunction:
    """A function of configurations that depends only on the intersection
    with a finite window of m points, stored as one array of 2^m values
    indexed by bit pattern: table[b] is the value on the subset holding
    points[i] exactly when bit i of b is set.  The constructor takes that
    array over the sorted points; from_callable fills it from a function of
    subsets."""

    __slots__ = ("points", "table")

    def __init__(self, points: Iterable, table):
        pts = tuple(sorted({HalfInt.make(x) for x in points}))
        table = np.array(table, dtype=float)
        if len(table) != 1 << len(pts):
            raise ValueError("table must cover every subset of the window")
        if not np.isfinite(table).all():
            raise ValueError("cylinder values must be finite")
        self.points, self.table = pts, table

    @classmethod
    def from_callable(cls, points: Iterable, fn) -> "CylinderFunction":
        pts = tuple(sorted({HalfInt.make(x) for x in points}))
        return cls(pts, [fn(frozenset(compress(pts, row))) for row in _subset_rows(len(pts)).tolist()])

    @classmethod
    def constant(cls, c: float) -> "CylinderFunction":
        return cls((), [c])

    @classmethod
    def contains(cls, x) -> "CylinderFunction":
        """Indicator of the event that x belongs to the configuration."""
        return cls((x,), [0.0, 1.0])

    def __call__(self, X) -> float:
        held = set(_as_config(X).points)
        return float(self.table[sum(1 << i for i, x in enumerate(self.points) if x in held)])

    def _gather(self, occupancy: np.ndarray, twice) -> np.ndarray:
        """self on every row of an occupancy matrix on the points twice / 2,
        which hold self.points: the table at each row's bit pattern there."""
        cols = [twice.index(x.twice) for x in self.points]
        return self.table[occupancy[:, cols] @ (1 << np.arange(len(cols)))]

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.table).max())

    def times(self, other: "CylinderFunction") -> "CylinderFunction":
        twice = sorted({x.twice for x in self.points + other.points})
        rows = _subset_rows(len(twice))
        return CylinderFunction(map(HalfInt, twice), self._gather(rows, twice) * other._gather(rows, twice))

    def transform(self, sigma) -> "CylinderFunction":
        """The composition X -> self(sigma~(X)), a cylinder function on the
        window enlarged by every point the word touches: sigma~ acts on the
        occupancy rows of all its subsets at once."""
        perm = _as_permutation(sigma)
        twice = sorted({x.twice for x in self.points} | {2 * n + s for n in perm.word for s in (-1, 1)})
        moved = _modified_occupancy(perm, _subset_rows(len(twice)), twice)
        return CylinderFunction(map(HalfInt, twice), self._gather(moved, twice))


def _avoidance_rows(F: CylinderFunction, K: int) -> tuple[np.ndarray, np.ndarray]:
    """F as sum_T beta_T Phi_(-1 on T): the kept beta_T, and one row per T
    holding -1 on T at the 2K points of [-K, K] (which hold F's points), 0
    elsewhere.

    Phi with f = -1 on T kills every configuration meeting T, so it is the
    indicator that X avoids T, and F on the complement of S is the sum of
    beta_T over the subsets T of S.  The subset Moebius transform inverts
    that, beta_T = sum over S <= T of (-1)^|T - S| F(complement of S), in
    place on the table read backwards (pattern S then holds F on the
    complement of S): one pass per point subtracts each pattern without the
    point from the same pattern with it, m 2^(m - 1) subtractions in all.
    The T with |beta_T| > 1e-13 max(1, sup |F|) are kept, in bit-pattern
    order."""
    beta = F.table[::-1].copy()  # pattern full ^ S sits at index S
    for i in range(len(F.points)):
        pairs = beta.reshape(-1, 2, 1 << i)  # axis 1 is bit i
        pairs[:, 1] -= pairs[:, 0]
    ts = np.flatnonzero(np.abs(beta) > 1e-13 * max(1.0, F.sup_norm))
    us = np.zeros((len(ts), 2 * K))
    us[:, [window_index(x, K) for x in F.points]] = -(ts[:, None] >> np.arange(len(F.points)) & 1)
    return beta[ts], us


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
    """Check the transport identity for a pre-limit measure: both pairings over
    every partition up to max_size, on the ensemble's occupancy padded to the
    word's and F's points, with F read off each row's bits on its points.  The
    right side sums w mu as exp(log w + log mu), which stays finite where mu
    overflows on rows whose weight underflows."""
    perm = _as_permutation(sigma)
    occ, weights, tail = partition_ensemble(p, max_size)
    W = occ.shape[1] // 2
    N = max([W, word_window(perm)] + [abs(x.twice) // 2 + 1 for x in F.points])
    occ, twice = np.pad(occ, ((0, 0), (N - W, N - W))), list(range(1 - 2 * N, 2 * N, 2))
    log_mu = _log_mu_rows(perm, occ, twice, p)
    lhs = math.fsum(weights * F._gather(_modified_occupancy(perm, occ, twice), twice))
    rhs = math.fsum(np.exp(_log_weights(p, max_size) + log_mu) * F._gather(occ, twice))
    diff = abs(lhs - rhs)
    # tail sup|F| max(1, max mu), which is 0 at tail 0 even where mu overflows
    top, scale = max(0.0, float(log_mu.max())), tail * F.sup_norm
    bound = 1e-9 + (0.0 if not scale else scale * math.exp(top) if top < 709.0 else math.inf)
    return TransportReport(lhs, rhs, diff, bound, tail, diff <= bound)


def _limit_groups(perm: FinitaryPermutation, F: CylinderFunction, p: Params, K: int):
    """The right side's determinant jobs c Phi_h, h = f + u, grouped by the
    density's tail functional f: a list of (f, the jobs' c, the jobs' u as
    rows), functions as values on [-K, K]; u = g (1 + f), where each g is -1
    on a finite set of points and 0 elsewhere."""
    N = word_window(perm)
    t = np.arange(1 - 2 * K, 2 * K, 2) / 2.0
    outside = np.abs(t) > N
    wpts = tuple(window_points(N))
    groups: dict = {}
    for b, row in enumerate(_subset_rows(len(wpts))):
        a, _, fv, c = _compose(perm, row, p, t[outside])
        key = None if fv is None else (fv.tobytes(), c)
        groups.setdefault(key, (fv, np.zeros(1 << len(wpts))))[1][b] = a
    out = []
    for fv, coeff in groups.values():
        fw = np.zeros(2 * K)
        fw[outside] = 0.0 if fv is None else fv
        cs, us = _avoidance_rows(CylinderFunction(wpts, coeff).times(F), K)
        if len(cs):
            out.append((fw, cs, us * (1.0 + fw)))
    return out


class LimitTransportReport(NamedTuple):
    """Both sides of the transport identity for the limit measure.

    The right side is a sum of n_terms Fredholm determinants on shared nested
    windows, by at most one rank x rank LU per tail group and window (rank is
    the width of K_w's certified factor): the terms' truncation tails decay
    like 1/n but cancel in the sum, so the residual tracks the summed
    sequence (rhs_by_window, before Richardson)."""

    lhs: float
    rhs: float
    difference: float
    tolerance: float
    windows: tuple[int, ...]
    rhs_by_window: tuple[float, ...]
    residual: float
    n_terms: int
    passed: bool
    rank: int


def verify_limit_transport(sigma, F: CylinderFunction, p: Params, kernel: WindowKernel,
                           atol: float = 1e-5) -> LimitTransportReport:
    """Check the transport identity for the limit measure on a k_limit kernel
    built for p, such as j_transform(underline_limit_window(256, p)).

    Both sides sum determinants det(I + D_h K_w) by one routine
    (fredholm._window_dets) on K_w = U V^T, factored once at its certified
    numerical rank r (fredholm._factor): the window holds few particles, so r
    is a few dozen against 2K points.  The left side expands F o sigma~ into
    avoidance functionals u, finite determinants on their supports (f = 0,
    no LU).  The right side groups the density's cylinder pieces by their
    shared tail functional f, expands each grouped coefficient times F into
    avoidance functionals g, and sums h = f + g (1 + f) over nested central
    windows: one r x r LU of I + V^T D_f U per group and window where f does
    not vanish serves every job.  The last per-doubling increment of the
    Richardson-accelerated sum is the reported residual, so the chain needs
    four windows (a kernel window K >= 5) to leave two accelerated values.
    """
    if not atol >= 0:
        raise ValueError(f"atol must be >= 0, got {atol}")
    ns = _doubling_windows(kernel.N)
    if len(ns) < 4:
        raise ValueError(f"the window chain {ns} leaves no residual after two Richardson "
                         "levels: the kernel window needs N >= 5")
    if kernel.kind != "k_limit":
        raise ValueError(f"limit transport check requires a k_limit kernel, got {kernel.kind!r}: "
                         "the limit density omits the pre-limit factor xi^k (use verify_transport)")
    if kernel.params != p:
        raise ValueError(f"kernel built for {kernel.params}, not for {p}")
    perm, K = _as_permutation(sigma), kernel.N
    need = max([word_window(perm)] + [abs(x.twice) // 2 + 1 for x in F.points])
    if need > K:
        raise ValueError(f"kernel window [-{K}, {K}] too small for the word and F "
                         f"(needs N >= {need})")

    uv = _factor(_weighted_kernel(kernel))
    cs, us = _avoidance_rows(F.transform(perm), K)
    lhs = math.fsum(cs * _window_dets(np.zeros(2 * K), us, uv, [K])[:, 0])

    totals = np.zeros(len(ns))
    n_terms = 0
    for fw, cs, us in _limit_groups(perm, F, p, K):
        totals += cs @ _window_dets(fw, us, uv, ns)
        n_terms += len(cs)
    # The truncation error of the raw sums decays like a power series in 1/n
    # on the doubling chain (the 1/|x| tails of the density functionals meet
    # the 1/|x| decay of the kernel diagonal), so two Richardson levels in
    # 1/n accelerate the limit by two orders.
    seq = [float(v) for v in totals]
    for factor in (2.0, 4.0):
        seq = [(factor * b - a) / (factor - 1.0) for a, b in zip(seq, seq[1:])]
    rhs = seq[-1]
    residual = abs(seq[-1] - seq[-2])
    tolerance = max(atol, 10.0 * residual)
    diff = abs(lhs - rhs)
    return LimitTransportReport(
        lhs=lhs, rhs=rhs, difference=diff, tolerance=tolerance, windows=tuple(ns),
        rhs_by_window=tuple(float(v) for v in totals), residual=residual,
        n_terms=n_terms, passed=diff <= tolerance, rank=uv[0].shape[1])
