"""Exact combinatorics of the half-integer lattice Z' = Z + 1/2.

Provides half-integer points, Young diagrams with modified Frobenius
coordinates, finite configurations, the balanced configuration X(lambda) of
a partition, and the finitary permutation group generated by the adjacent
transpositions sigma_n of the pair (n - 1/2, n + 1/2).

An ensemble of configurations inside a window [-N, N] is stored as a boolean
occupancy matrix: one row per configuration, one column per window point in
ascending order (``window_index``).  Maya diagrams are involuted occupancy
rows: the Maya diagram {lambda_i - i + 1/2 : i >= 1} of a partition is its
X(lambda) XOR the negative half Z'_- (``involute_occupancy``, the
particle/hole involution), and the modified action sigma~ = inv o sigma o inv
swaps or flips columns (``_modified_occupancy``).

All arithmetic in this module is exact: half-integers store twice their value
as a Python int and dimension ratios are Fractions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "HalfInt",
    "Partition",
    "FiniteConfig",
    "FinitaryPermutation",
    "to_balanced_config",
    "window_index",
    "involute_occupancy",
    "apply_sigma_modified",
    "dim_ratio",
    "partitions_of",
    "partitions_up_to",
]

_HALF_RE = re.compile(r"\s*(-?\d+)\s*/\s*2\s*\Z")


@total_ordering
@dataclass(frozen=True)
class HalfInt:
    """A point of Z' = Z + 1/2, stored exactly as twice its value.

    ``twice`` must be odd; the represented value is twice/2.
    """

    twice: int

    def __post_init__(self) -> None:
        if not isinstance(self.twice, int) or self.twice % 2 == 0:
            raise ValueError(f"HalfInt requires an odd integer twice-value, got {self.twice!r}")

    @classmethod
    def make(cls, value) -> "HalfInt":
        """Coerce a HalfInt, an exact float like 1.5, or an 'n/2' string."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        twice = 2 * float(value)
        if not twice.is_integer():
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(twice))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse the external 'n/2' form with odd n, e.g. '-1/2' or '3/2': an
        optional minus sign and decimal digits, no '+' and no underscores."""
        m = _HALF_RE.match(text)
        if not m:
            raise ValueError(f"half-integers must be written 'n/2' with odd n, got {text!r}")
        return cls(int(m.group(1)))

    def __str__(self) -> str:
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"

    def __float__(self) -> float:
        return self.twice / 2.0

    def __lt__(self, other: "HalfInt") -> bool:
        return self.twice < other.twice

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))


class Partition:
    """A Young diagram: weakly decreasing positive row lengths.

    Exposes the modified Frobenius coordinates (p_i, q_i): for each of the d
    diagonal boxes, p_i = lambda_i - i + 1/2 (arm + 1/2) and
    q_i = lambda'_i - i + 1/2 (leg + 1/2), stored ascending in i after
    reversal so that p_1 < ... < p_d and q_1 < ... < q_d.
    """

    __slots__ = ("rows", "_frobenius")

    def __init__(self, rows: Iterable[int] = ()):
        rows = tuple(int(r) for r in rows)
        if any(r <= 0 for r in rows):
            raise ValueError(f"partition rows must be positive, got {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"partition rows must be weakly decreasing, got {rows}")
        self.rows = rows
        self._frobenius: tuple[tuple[HalfInt, HalfInt], ...] | None = None

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows)

    def __repr__(self) -> str:
        return f"Partition({list(self.rows)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> int:
        """Row length lambda_i with 1-based index, 0 beyond the last row."""
        if i < 1:
            raise IndexError("rows are 1-indexed")
        return self.rows[i - 1] if i <= len(self.rows) else 0

    @property
    def size(self) -> int:
        return sum(self.rows)

    def transpose(self) -> "Partition":
        cols = [0] * max(self.rows, default=0)
        for r in self.rows:
            for j in range(r):
                cols[j] += 1
        return Partition(cols)

    @property
    def frobenius(self) -> tuple[tuple[HalfInt, HalfInt], ...]:
        """Modified Frobenius coordinates ((p_1,q_1),...,(p_d,q_d)), ascending."""
        if self._frobenius is None:
            t = self.transpose()
            d = sum(1 for i, r in enumerate(self.rows, start=1) if r >= i)  # diagonal boxes
            pairs = []
            for i in range(d, 0, -1):  # reverse so p ascends
                p = HalfInt(2 * (self[i] - i) + 1)
                q = HalfInt(2 * (t[i] - i) + 1)
                pairs.append((p, q))
            self._frobenius = tuple(pairs)
        return self._frobenius


class FiniteConfig:
    """A finite subset of Z', kept sorted ascending."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable = ()):
        pts = sorted({HalfInt.make(p) for p in points})
        self.points = tuple(pts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.points)

    def __repr__(self) -> str:
        return f"FiniteConfig([{', '.join(str(p) for p in self.points)}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteConfig) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __contains__(self, x) -> bool:
        return HalfInt.make(x) in set(self.points)

    def __iter__(self) -> Iterator[HalfInt]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def positives(self) -> tuple[HalfInt, ...]:
        return tuple(p for p in self.points if p.twice > 0)

    @property
    def negatives(self) -> tuple[HalfInt, ...]:
        return tuple(p for p in self.points if p.twice < 0)

    def is_balanced(self) -> bool:
        return len(self.positives) == len(self.negatives)

    def restrict(self, window: int) -> "FiniteConfig":
        """Points with |x| <= window."""
        return FiniteConfig(p for p in self.points if abs(p.twice) <= 2 * window)


@dataclass(frozen=True)
class FinitaryPermutation:
    """A word in the elementary transpositions sigma_n, rightmost acting first.

    sigma_n transposes the lattice points n - 1/2 and n + 1/2; a word
    [w_1, ..., w_m] denotes the composition sigma_(w_1) o ... o sigma_(w_m).
    """

    word: tuple[int, ...] = ()

    def __init__(self, word: Iterable[int] = ()):
        object.__setattr__(self, "word", tuple(int(n) for n in word))

    def inverse(self) -> "FinitaryPermutation":
        """Generators are involutions, so the inverse is the reversed word."""
        return FinitaryPermutation(tuple(reversed(self.word)))

    @property
    def max_index(self) -> int:
        return max((abs(n) for n in self.word), default=0)

    def __str__(self) -> str:
        return "[" + ",".join(str(n) for n in self.word) + "]"


# ---------------------------------------------------------------------------
# Balanced configurations, occupancy rows and the modified action
# ---------------------------------------------------------------------------

def to_balanced_config(lam: Partition) -> FiniteConfig:
    """X(lambda) = {-q_d, ..., -q_1, p_1, ..., p_d}; always balanced."""
    return FiniteConfig(x for p, q in lam.frobenius for x in (p, -q))


def window_index(x: HalfInt, N: int) -> int | None:
    """Column of x among the 2N ascending points of [-N, N]; None outside."""
    return (x.twice + 2 * N - 1) // 2 if abs(x.twice) < 2 * N else None


def involute_occupancy(occupancy: np.ndarray, points: Sequence[HalfInt]) -> np.ndarray:
    """The particle/hole involution of every row of an occupancy matrix whose
    columns are the given points: XOR with the negative half Z'_-.  It maps
    the row of X(lambda) to the Maya diagram of lambda and back."""
    return occupancy ^ np.array([x.twice < 0 for x in points], dtype=bool)


def _modified_occupancy(sigma: FinitaryPermutation, occupancy: np.ndarray,
                        twice: Sequence[int]) -> np.ndarray:
    """sigma~ on every row of an occupancy matrix on the ascending points
    twice / 2, balanced or not (window restrictions too), the word's
    generators applied from the rightmost: sigma~_n swaps the columns of
    n -+ 1/2 for n != 0; sigma~_0 flips both central columns in the rows where
    they agree.  The one implementation of the modified action."""
    col = {t: i for i, t in enumerate(twice)}
    out = occupancy.copy()
    for n in reversed(sigma.word):
        if 2 * n - 1 not in col or 2 * n + 1 not in col:
            raise ValueError(f"sigma_{n} moves a point with no column")
        i, j = col[2 * n - 1], col[2 * n + 1]
        if n != 0:
            out[:, [i, j]] = out[:, [j, i]]
        else:
            out[:, [i, j]] ^= (out[:, i] == out[:, j])[:, None]
    return out


def apply_sigma_modified(sigma: FinitaryPermutation, config: FiniteConfig) -> FiniteConfig:
    """sigma~(X) = inv(sigma(inv(X))) for balanced X, the one-row case of
    _modified_occupancy on X's points and the word's; preserves balancedness."""
    if not config.is_balanced():
        raise ValueError(f"modified action requires a balanced configuration, got {config}")
    held = {x.twice for x in config.points}
    twice = sorted(held | {2 * n + s for n in sigma.word for s in (-1, 1)})
    moved = _modified_occupancy(sigma, np.array([[t in held for t in twice]]), twice)[0]
    return FiniteConfig(HalfInt(t) for t, b in zip(twice, moved.tolist()) if b)


# ---------------------------------------------------------------------------
# Dimension ratio
# ---------------------------------------------------------------------------

def dim_ratio(lam: Partition) -> Fraction:
    """dim(lambda) / |lambda|! as an exact rational, via the Frobenius-
    coordinate product formula

        prod_(i<j) (p_j - p_i)(q_j - q_i)
        ---------------------------------------------------
        prod_i (p_i - 1/2)! (q_i - 1/2)! * prod_(i,j) (p_i + q_j)
    """
    fr = lam.frobenius
    d = len(fr)
    ps = [(p.twice - 1) // 2 for p, _ in fr]  # p_i - 1/2 as ints
    qs = [(q.twice - 1) // 2 for _, q in fr]
    num = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= (ps[j] - ps[i]) * (qs[j] - qs[i])
    den = 1
    for i in range(d):
        den *= factorial(ps[i]) * factorial(qs[i])
        for j in range(d):
            den *= ps[i] + qs[j] + 1  # p_i + q_j = ps[i] + qs[j] + 1
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Partition enumeration
# ---------------------------------------------------------------------------

def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n (n >= 0), in lexicographically decreasing order."""
    if n < 0:
        return

    def gen(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            prefix.append(first)
            yield from gen(remaining - first, first, prefix)
            prefix.pop()

    yield from gen(n, n, [])


def partitions_up_to(max_size: int) -> Iterator[Partition]:
    """All partitions with |lambda| <= max_size, smallest sizes first."""
    for n in range(max_size + 1):
        yield from partitions_of(n)
