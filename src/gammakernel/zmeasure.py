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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .lattice import (
    FiniteConfig,
    HalfInt,
    Partition,
    dim_ratio,
    partitions_up_to,
    to_balanced_config,
    to_maya,
)

__all__ = [
    "Params",
    "XiParams",
    "pair_product",
    "log_weight_partition",
    "weight_partition",
    "log_weight_config",
    "weight_config",
    "enumerate_weights",
    "OracleValue",
    "correlation_oracle",
]

_EXHAUSTIVE_K = 10**6


@lru_cache(maxsize=None)
def _positivity_scan(z: complex, z_prime: complex) -> float | None:
    """Worst integer shift k with (z+k)(z'+k) <= 0 on |k| <= 10^6, or None.

    Cached: the scan is a pure function of the pair, and reflections
    reconstruct the same pair many times over."""
    ks = np.arange(-_EXHAUSTIVE_K, _EXHAUSTIVE_K + 1, dtype=np.float64)
    vals = np.real((z + ks) * (z_prime + ks))
    if np.all(vals > 0.0):
        return None
    return float(ks[np.argmin(vals)])


def pair_product(z: complex, z_prime: complex, shift: complex) -> float:
    """The real positive value (z + shift)(z' + shift) for admissible pairs."""
    val = (z + shift) * (z_prime + shift)
    return float(np.real(val))


@dataclass(frozen=True)
class Params:
    """An admissible parameter pair (z, z') with its series classification.

    Principal series: z not real and z' = conj(z).
    Complementary series: z, z' real non-integers with floor(z) == floor(z').
    Either way (z + k)(z' + k) > 0 for all integers k; the constructor
    verifies this exhaustively on |k| <= 10^6 (beyond which the product is
    dominated by k^2 > 0).
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
        k_bad = _positivity_scan(z, zp)
        if k_bad is not None:
            raise ValueError(
                f"(z+k)(z'+k) must be positive for all integers k; fails at k={k_bad:g}"
            )
        object.__setattr__(self, "series", series)

    @property
    def zz(self) -> float:
        """The product z z', a positive real for admissible pairs."""
        return pair_product(self.z, self.z_prime, 0.0)

    def negated(self) -> "Params":
        """The admissible pair (-z, -z'), used by reflection symmetries."""
        return Params(-self.z, -self.z_prime)

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

    def negated(self) -> "XiParams":
        return XiParams(self.base.negated(), self.xi)

    def __str__(self) -> str:
        return f"{self.base}, xi={self.xi}"


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def _log_pair_pochhammer_boxes(z: complex, zp: complex, lam: Partition) -> float:
    """log[(z)_lambda (z')_lambda] via the box products (z+c)(z'+c), c = j-i."""
    total = 0.0
    for i, r in enumerate(lam.rows, start=1):
        for j in range(1, r + 1):
            v = pair_product(z, zp, j - i)
            if v <= 0.0:
                raise ValueError(f"non-positive pair factor at content {j - i}: {v}")
            total += math.log(v)
    return total


def log_weight_partition(lam: Partition, p: XiParams) -> float:
    """log M(lambda), accumulated in log space to survive |lambda| ~ 30."""
    zz = p.base.zz
    out = zz * math.log1p(-p.xi) + lam.size * math.log(p.xi)
    out += _log_pair_pochhammer_boxes(p.z, p.z_prime, lam)
    fr = dim_ratio(lam)
    out += 2.0 * (math.log(fr.numerator) - math.log(fr.denominator))
    return out


def weight_partition(lam: Partition, p: XiParams) -> float:
    """M(lambda) = (1-xi)^(zz') xi^|lambda| (z)_lam (z')_lam (dim/|lam|!)^2 > 0."""
    return math.exp(log_weight_partition(lam, p))


def log_weight_config(config: FiniteConfig, p: XiParams) -> float:
    """log of the configuration weight, direct in Frobenius coordinates.

    For X = {-q_d, ..., -q_1, p_1, ..., p_d} balanced,

        P(X) = (1-xi)^(zz') xi^(sum p_i + q_i) (zz')^d
               * prod_i (z+1)_(p_i-1/2) (z'+1)_(p_i-1/2)
                        (-z+1)_(q_i-1/2) (-z'+1)_(q_i-1/2)
                        / ((p_i-1/2)!)^2 ((q_i-1/2)!)^2
               * prod_(i<j) (p_j-p_i)^2 (q_j-q_i)^2 / prod_(i,j) (p_i+q_j)^2.
    """
    if not config.is_balanced():
        raise ValueError(f"configuration {config} is not balanced")
    z, zp, xi = p.z, p.z_prime, p.xi
    ps = sorted((x.twice - 1) // 2 for x in config.positives)   # p_i - 1/2 as ints
    qs = sorted((abs(x).twice - 1) // 2 for x in config.negatives)
    d = len(ps)
    zz = p.base.zz
    out = zz * math.log1p(-xi)
    out += (sum(ps) + sum(qs) + d) * math.log(xi)  # sum(p_i + q_i) = sum ints + d
    out += d * math.log(zz)
    for a in ps:
        for m in range(a):  # (z+1)_(p-1/2) has p-1/2 = a factors
            out += math.log(pair_product(z, zp, 1 + m))
        out -= 2.0 * math.lgamma(a + 1)
    for b in qs:
        for m in range(b):
            out += math.log(pair_product(-z, -zp, 1 + m))
        out -= 2.0 * math.lgamma(b + 1)
    for i in range(d):
        for j in range(i + 1, d):
            out += 2.0 * (math.log(ps[j] - ps[i]) + math.log(qs[j] - qs[i]))
    for a in ps:
        for b in qs:
            out -= 2.0 * math.log(a + b + 1)  # p_i + q_j = a + b + 1
    return out


def weight_config(config: FiniteConfig, p: XiParams) -> float:
    """P(X) for a balanced configuration; equals M of the matching partition."""
    return math.exp(log_weight_config(config, p))


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _enumerate_cached(
    p: XiParams, max_size: int
) -> tuple[tuple[tuple[Partition, float], ...], float]:
    items = tuple((lam, weight_partition(lam, p)) for lam in partitions_up_to(max_size))
    total = math.fsum(w for _, w in items)
    tail = 1.0 - total
    if tail < -1e-9:
        raise AssertionError(f"weights sum to {total} > 1; parameter or formula error")
    return items, max(tail, 0.0)


def enumerate_weights(
    p: XiParams, max_size: int
) -> tuple[list[tuple[Partition, float]], float]:
    """All (lambda, M(lambda)) with |lambda| <= max_size, plus the tail mass
    1 - sum of listed weights (nonnegative; shrinks as max_size grows).
    Recent enumerations are cached, keyed by (parameters, max_size)."""
    if max_size > 30:
        raise ValueError(f"max_size must be <= 30, got {max_size}")
    if max_size < 0:
        raise ValueError(f"max_size must be >= 0, got {max_size}")
    items, tail = _enumerate_cached(p, max_size)
    return list(items), tail


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
    items, tail = enumerate_weights(p, max_size)
    acc = []
    for lam, w in items:
        if process == "config":
            support = to_balanced_config(lam)
            if all(x in support for x in pts):
                acc.append(w)
        else:
            maya = to_maya(lam)
            if all(x in maya for x in pts):
                acc.append(w)
    return OracleValue(math.fsum(acc), tail)
