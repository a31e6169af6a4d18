"""Two-parameter z-measures on partitions and the induced measures on
balanced point configurations of the half-integer lattice.

The weight of a partition lambda is

    M(lambda) = (1 - xi)^(z z') * xi^|lambda| * (z)_lambda (z')_lambda
                * (dim lambda / |lambda|!)^2

for admissible parameter pairs (z, z'), meaning (z + k)(z' + k) > 0 for every
integer k.  Two families satisfy this: the principal series (z non-real,
z' = conj(z)) and the complementary series (z, z' real, non-integer, lying in
a common open interval (N, N+1)).  In both cases each pairwise factor
(z + c)(z' + c) is a positive real, so all weights are strictly positive and
can be accumulated in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .lattice import (
    FiniteConfig,
    HalfInt,
    Partition,
    dim_ratio,
    involute_occupancy,
    partitions_up_to,
    to_balanced_config,
    window_index,
)

__all__ = [
    "Params",
    "XiParams",
    "pair_product",
    "log_weight_partition",
    "log_weight_config",
    "enumerate_weights",
    "OracleValue",
    "correlation_oracle",
    "partition_ensemble",
]

def pair_product(z: complex, z_prime: complex, shift: complex) -> float:
    """The real positive value (z + shift)(z' + shift) for admissible pairs."""
    val = (z + shift) * (z_prime + shift)
    return float(np.real(val))


@dataclass(frozen=True)
class Params:
    """An admissible parameter pair (z, z') with its series classification.

    Principal series: z not real and z' = conj(z).
    Complementary series: z, z' real non-integers with floor(z) == floor(z').
    Either way (z + k)(z' + k) > 0 in exact arithmetic for all integers k,
    and |z + k| >= 1 unless k is one of the two integers bracketing -Re z.
    Only there can the floating-point product vanish by underflow, so the
    constructor evaluates it at those two k and rejects a product <= 0.
    """

    z: complex
    z_prime: complex
    series: str = field(init=False)

    def __post_init__(self) -> None:
        z = complex(self.z)
        zp = complex(self.z_prime)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "z_prime", zp)
        if z.imag != 0.0 or zp.imag != 0.0:
            if zp != z.conjugate():
                raise ValueError(
                    f"non-real z requires z_prime = conj(z); got z={z}, z_prime={zp}"
                )
            series = "principal"
        else:
            x, y = z.real, zp.real
            if x == int(x) or y == int(y):
                raise ValueError(f"real parameters must be non-integer; got z={x}, z_prime={y}")
            if math.floor(x) != math.floor(y):
                raise ValueError(
                    f"real parameters must share an interval (N, N+1); got z={x}, z_prime={y}"
                )
            series = "complementary"
        for k in (-np.floor(z.real), -np.floor(z.real) - 1.0):
            if not pair_product(z, zp, k) > 0.0:
                raise ValueError(
                    f"(z+k)(z'+k) must be positive for all integers k; fails at k={k + 0.0:g}"
                )
        object.__setattr__(self, "series", series)

    @property
    def zz(self) -> float:
        """The product z z', a positive real for admissible pairs."""
        return pair_product(self.z, self.z_prime, 0.0)

    def __str__(self) -> str:
        return f"(z={self.z}, z'={self.z_prime}, {self.series})"


@dataclass(frozen=True)
class XiParams:
    """Admissible (z, z') together with xi in the open unit interval."""

    base: Params
    xi: float

    def __post_init__(self) -> None:
        xi = float(self.xi)
        if not (0.0 < xi < 1.0):
            raise ValueError(f"xi must lie in (0, 1), got {self.xi!r}")
        object.__setattr__(self, "xi", xi)

    @property
    def z(self) -> complex:
        return self.base.z

    @property
    def z_prime(self) -> complex:
        return self.base.z_prime

    def __str__(self) -> str:
        return f"{self.base}, xi={self.xi}"


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def _box_rows(parts: Sequence[Partition]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parameter-free part of log M(lambda) for each partition: the
    contents c = j - i of the boxes (i, j), a range that holds 0, each
    partition's number of boxes of each content, and log (dim/|lambda|!)^2."""
    lo = 1 - max([len(lam) for lam in parts] + [1])
    contents = np.arange(lo, max([lam[1] for lam in parts] + [1]))
    counts = np.zeros((len(parts), len(contents)))
    logdim = np.empty(len(parts))
    for row, lam in enumerate(parts):
        for i, r in enumerate(lam.rows, start=1):  # row i holds the contents 1 - i .. r - i
            counts[row, 1 - i - lo : r + 1 - i - lo] += 1.0
        fr = dim_ratio(lam)
        logdim[row] = 2.0 * (math.log(fr.numerator) - math.log(fr.denominator))
    return contents, counts, logdim


def _box_log_weights(contents: np.ndarray, counts: np.ndarray, logdim: np.ndarray,
                     p: XiParams) -> np.ndarray:
    """log M(lambda) of _box_rows' rows by the box formula zz' log(1 - xi) +
    sum_c counts_c log[xi (z + c)(z' + c)] + log (dim lambda / |lambda|!)^2,
    the logs of xi and of each pair summed apart so that a subnormal pair stays finite."""
    pair = ((p.z + contents) * (p.z_prime + contents)).real
    if not (pair > 0.0).all():
        k = int(np.argmin(pair > 0.0))
        raise ValueError(f"non-positive pair factor at content {contents[k]}: {pair[k]}")
    logs = np.log(pair) + math.log(p.xi)
    return p.base.zz * math.log1p(-p.xi) + counts @ logs + logdim


def log_weight_partition(lam: Partition, p: XiParams) -> float:
    """log M(lambda), M(lambda) = (1-xi)^(zz') xi^|lambda| (z)_lam (z')_lam
    (dim/|lam|!)^2 > 0, accumulated in log space to survive |lambda| ~ 30:
    the one-row case of the ensemble's box formula."""
    return float(_box_log_weights(*_box_rows([lam]), p)[0])


def _log_weight_form(rows: np.ndarray, cols: np.ndarray, p: XiParams) -> np.ndarray:
    """The block H[rows, cols] of log P(X) = zz' log(1 - xi) + o^T H o, which
    holds for every balanced X on ascending points (given as twice their
    values), o its 0/1 occupancy vector: G/2 off the diagonal and l on it
    (log_weight_config), l summed from separate logs so that it stays finite."""
    k = np.abs(rows) // 2  # the factors of l(x): |x| - 1/2
    shift = np.arange(int(k.max(initial=0)) + 1) * np.array([[-1], [1]])  # negative, positive side
    pair = ((p.z + shift) * (p.z_prime + shift)).real  # zz' in column 0
    steps = np.log(pair) + (math.log(p.xi) - 2.0 * np.log(np.maximum(shift[1], 1)))
    steps[:, 0] *= 0.5  # l(-+1/2) = 1/2 log(xi zz')
    ell = steps.cumsum(axis=1)[(rows > 0).astype(int), k]
    same = rows[:, None] == cols  # the diagonal, which l replaces below
    off = np.copysign(np.log(np.abs(rows[:, None] - cols + same) / 2.0), rows[:, None] * cols)
    return np.where(same, ell[:, None], off)  # off it, log|x - y| >= 0 takes the sign of xy


def log_weight_config(config: FiniteConfig, p: XiParams) -> float:
    """log of the configuration weight, direct in Frobenius coordinates.

    For X = {-q_d, ..., -q_1, p_1, ..., p_d} balanced,

        P(X) = (1-xi)^(zz') xi^(sum p_i + q_i) (zz')^d
               * prod_i (z+1)_(p_i-1/2) (z'+1)_(p_i-1/2)
                        (-z+1)_(q_i-1/2) (-z'+1)_(q_i-1/2)
                        / ((p_i-1/2)!)^2 ((q_i-1/2)!)^2
               * prod_(i<j) (p_j-p_i)^2 (q_j-q_i)^2 / prod_(i,j) (p_i+q_j)^2.

    Its log is a quadratic form in X's 0/1 occupancy vector o on any
    ascending points that hold X, evaluated here on X's own points (o = 1):

        log P(X) = zz' log(1-xi) + o . l + 1/2 o^T G o,

    G(x, y) = 2 s(x) s(y) log|x - y| (s the sign; 0 when x = y) and
    l(x) = 1/2 log(xi zz') + sum_(m=1)^(|x|-1/2) log[xi (z+s m)(z'+s m) / m^2].
    """
    if not config.is_balanced():
        raise ValueError(f"configuration {config} is not balanced")
    twice = np.array([x.twice for x in config.points], dtype=int)
    return p.base.zz * math.log1p(-p.xi) + float(_log_weight_form(twice, twice, p).sum())


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ensemble_table(max_size: int) -> tuple[tuple[Partition, ...], np.ndarray, tuple]:
    """Every |lambda| <= max_size in enumeration order, with the occupancy of
    X(lambda) on the window of half-width max(max_size, 1), which holds every
    Frobenius coordinate (p_1, q_1 <= max_size - 1/2), and _box_rows."""
    if not 0 <= max_size <= 30:
        raise ValueError(f"max_size must lie in [0, 30], got {max_size}")
    parts = tuple(partitions_up_to(max_size))
    W = max(max_size, 1)
    occ = np.zeros((len(parts), 2 * W), dtype=bool)
    for row, lam in enumerate(parts):
        occ[row, [window_index(x, W) for x in to_balanced_config(lam)]] = True
    occ.flags.writeable = False
    return parts, occ, _box_rows(parts)


def _log_weights(p: XiParams, max_size: int) -> np.ndarray:
    """log M(lambda) for every row of the ensemble table."""
    return _box_log_weights(*_ensemble_table(max_size)[2], p)


@lru_cache(maxsize=2)
def _enumerate_cached(p: XiParams, max_size: int) -> tuple[np.ndarray, float]:
    weights = np.exp(_log_weights(p, max_size))
    weights.flags.writeable = False
    total = math.fsum(weights)
    tail = 1.0 - total
    if tail < -1e-9:
        raise AssertionError(f"weights sum to {total} > 1; parameter or formula error")
    return weights, max(tail, 0.0)


def enumerate_weights(
    p: XiParams, max_size: int
) -> tuple[list[tuple[Partition, float]], float]:
    """All (lambda, M(lambda)) with |lambda| <= max_size, plus the tail mass
    1 - sum of listed weights (nonnegative; shrinks as max_size grows).
    The two most recent weight vectors are cached, keyed by (parameters, max_size)."""
    weights, tail = _enumerate_cached(p, max_size)
    return list(zip(_ensemble_table(max_size)[0], weights.tolist())), tail


def partition_ensemble(p: XiParams, max_size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The z-measure ensemble of all |lambda| <= max_size as (occupancy of the
    balanced configurations X(lambda) on [-W, W], W = max(max_size, 1),
    weights M(lambda), tail mass), rows in enumeration order."""
    weights, tail = _enumerate_cached(p, max_size)
    return _ensemble_table(max_size)[1], weights, tail


class OracleValue(NamedTuple):
    """An enumeration-oracle estimate with its tail-mass error bar."""

    value: float
    tail_mass: float


def correlation_oracle(
    points: Sequence[HalfInt],
    p: XiParams,
    max_size: int,
    process: str = "config",
) -> OracleValue:
    """Correlation rho(points) = Prob{X contains all the points}, by exhaustive
    enumeration over |lambda| <= max_size.

    process='config' uses membership in the balanced configuration X(lambda)
    (the finite point process); process='maya' uses membership in the Maya
    diagram of lambda (its particle/hole involution, the lattice process with
    densely packed negative tail).  The true value differs from the reported
    one by at most tail_mass.
    """
    pts = [HalfInt.make(x) for x in points]
    if len(set(pts)) != len(pts):
        raise ValueError("correlation points must be distinct")
    if process not in ("config", "maya"):
        raise ValueError(f"process must be 'config' or 'maya', got {process!r}")
    occ, weights, tail = partition_ensemble(p, max_size)
    W = occ.shape[1] // 2
    inside = [x for x in pts if window_index(x, W) is not None]
    # No X(lambda) reaches beyond the window, so out there every Maya diagram
    # equals Z'_-: negative points are always present, positive ones never.
    if any(process == "config" or x.twice > 0 for x in pts if x not in inside):
        return OracleValue(0.0, tail)
    sub = occ[:, [window_index(x, W) for x in inside]]
    if process == "maya":
        sub = involute_occupancy(sub, inside)
    return OracleValue(math.fsum(weights[sub.all(axis=1)]), tail)
