"""Exact sampling of window restrictions of the determinantal processes.

A symmetric window kernel with spectrum in [0, 1] defines a point process on
the window whose correlation functions are the principal minors of the
kernel.  Sampling is spectral: each eigenvector independently joins a random
projection with probability its eigenvalue, and the projection is then
sampled one point at a time.  Only the diagonal of the conditioned
projection is kept (Tremblay, Barthelme and Amblard, 2018): a point is drawn
by inverse CDF from that diagonal, and each drawn point adds one normalized
Schur-complement column whose square it subtracts.  The samples of a chunk
run this chain in lockstep.

Batches are reproducible: a documented 64-bit seed feeds a counter-based
generator, and work is split into fixed-size chunks with seeds derived by
``numpy.random.SeedSequence.spawn``.  Each sample reads only its own row of
uniforms, so a batch is bit-identical for a fixed seed and is a prefix of a
larger one for any count.  A batch stores its configurations as a boolean
occupancy matrix over the window points, and every estimator is a reduction
over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Iterator, NamedTuple

import numpy as np

from .lattice import FiniteConfig, HalfInt, involute_occupancy, window_index
from .kernels import NonConvergenceError, WindowKernel
from .fredholm import TestFunction, phi_rows

__all__ = [
    "Estimate",
    "SampleBatch",
    "point_names",
    "sample_underline_then_involute",
    "sample_window",
]

CLAMP_LIMIT = 1e-4
_CHUNK = 4096
_BLOCK = 64


class Estimate(NamedTuple):
    """A Monte Carlo estimate with its standard error."""

    value: float
    se: float


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A reproducible batch of window configurations with estimators.

    ``occupancy[s, i]`` says whether sample s holds ``points[i]``; ``configs``
    is the same batch as point sets; ``diagonal`` holds the per-point
    occupation frequencies with standard errors; ``max_clamp`` is the largest
    spectral correction applied to push eigenvalues into [0, 1].  Every
    batch names the one algorithm and generator that drew it.
    """

    algorithm: ClassVar[str] = "spectral projection mixture + lockstep diagonal Schur-complement chain"
    rng: ClassVar[str] = "numpy Philox (counter-based), 64-bit seed, SeedSequence chunk spawn"

    N: int
    seed: int
    kind: str
    count: int
    points: tuple[HalfInt, ...]
    occupancy: np.ndarray
    diagonal: tuple[tuple[HalfInt, Estimate], ...]
    max_clamp: float

    @cached_property
    def configs(self) -> tuple[FiniteConfig, ...]:
        """The sampled configurations as point sets, one per occupancy row,
        each taking its row's valid, ascending points as they are (no sort)."""
        pts = np.array(self.points, dtype=object)
        out = [object.__new__(FiniteConfig) for _ in self.occupancy]
        for config, row in zip(out, self.occupancy):
            config.points = tuple(pts[row])
        return tuple(out)

    def _hits(self, pts, present: bool) -> Estimate:
        """Frequency of samples holding every point of pts (present) or none
        of them; no sample holds a point outside the window."""
        cols = [window_index(HalfInt.make(x), self.N) for x in pts]
        if present and None in cols:
            return _bernoulli(0, self.count)
        sub = self.occupancy[:, [j for j in cols if j is not None]]
        hits = sub.all(axis=1) if present else ~sub.any(axis=1)
        return _bernoulli(int(np.count_nonzero(hits)), self.count)

    def rho1(self, x) -> Estimate:
        """Empirical one-point function at a window point."""
        x = HalfInt.make(x)
        j = window_index(x, self.N)
        if j is not None:
            return self.diagonal[j][1]
        raise KeyError(f"{x} outside window [-{self.N}, {self.N}]")

    def pair_frequency(self, x, y) -> Estimate:
        """Empirical two-point function (frequency both points occupied)."""
        x, y = HalfInt.make(x), HalfInt.make(y)
        if x == y:
            raise ValueError("two-point estimator needs distinct points")
        return self._hits((x, y), present=True)

    def avoidance(self, pts: Iterable) -> Estimate:
        """Empirical probability that the configuration misses every point."""
        return self._hits(pts, present=False)

    def mean_count(self) -> Estimate:
        """Empirical mean number of points per configuration."""
        return _mean(self.occupancy.sum(axis=1))

    def phi_mean(self, f: TestFunction) -> Estimate:
        """Empirical mean of the multiplicative functional Phi_f."""
        return _mean(phi_rows(f, self.occupancy, self.N))

    def balance_frequency(self) -> Estimate:
        """Frequency of configurations with equally many points on each side
        of zero."""
        negative = self.occupancy[:, : self.N].sum(axis=1)
        positive = self.occupancy[:, self.N :].sum(axis=1)
        return _bernoulli(int(np.count_nonzero(negative == positive)), self.count)


def _bernoulli(hits: int, n: int) -> Estimate:
    p = hits / n
    return Estimate(p, math.sqrt(p * (1.0 - p) / n))


def _mean(values: np.ndarray) -> Estimate:
    arr = np.asarray(values, dtype=float)
    se = arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return Estimate(float(arr.mean()), float(se))


def _check_sampleable(kernel: WindowKernel) -> None:
    if not kernel.kind.startswith("underline_"):
        raise ValueError(
            "sampling needs a symmetric kernel with spectrum in [0, 1]; "
            f"got kind {kernel.kind!r} (J-transformed kernels are not symmetric)"
        )
    if not np.allclose(kernel.values, kernel.values.T, atol=1e-10):
        raise ValueError("kernel matrix is not symmetric")


def _spectrum(kernel: WindowKernel) -> tuple[np.ndarray, np.ndarray, float]:
    w, vecs = np.linalg.eigh(kernel.values)
    max_clamp = float(max(0.0, -w.min(initial=0.0), w.max(initial=0.0) - 1.0))
    if max_clamp > CLAMP_LIMIT:
        raise NonConvergenceError(
            "spectral clamp while sampling", max_clamp, CLAMP_LIMIT, len(w), cap="window size",
            detail=f"eigenvalues leave [0, 1] by {max_clamp:.3e} > limit {CLAMP_LIMIT:.3e}",
        )
    return np.clip(w, 0.0, 1.0), vecs, max_clamp


def _sample_chunk(
    w: np.ndarray, vecs: np.ndarray, occupancy: np.ndarray, rng: np.random.Generator
) -> None:
    """Fill each row of ``occupancy`` with one sample.

    Row s reads only its own uniforms: ``u[s, :d]`` select the eigenvectors
    and ``u[s, d + t]`` draws its t-th point.  Rows sorted by point count run
    the chain in lockstep, ``_BLOCK`` rows at a time, and stacked per-row
    products keep each row's arithmetic independent of its block, so the
    output depends neither on the chunk size nor on the block size.
    """
    d = len(w)
    u = rng.random((len(occupancy), 2 * d))
    sel = u[:, :d] < w
    order = np.argsort(-sel.sum(axis=1), kind="stable")
    for start in range(0, len(order), _BLOCK):
        rows = order[start : start + _BLOCK]
        occupancy[rows] = _chain(vecs, sel[rows], u[rows, d:])


def _chain(vecs: np.ndarray, sel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Occupancy drawn by the diagonal-only Schur chain for rows sorted by
    descending point count.  ``diag`` is each row's selection density given
    its points so far; ``cols[:, t]`` is the normalized Schur column of the
    point drawn at step t, and the rows still drawing are a prefix."""
    count = sel.sum(axis=1)
    n, d = sel.shape
    sel_vecs = sel.astype(float)[:, None, :]
    diag = np.matmul(sel_vecs, (vecs * vecs).T)[:, 0, :]
    cols = np.empty((n, int(count[0]), d))
    occ = np.zeros((n, d), dtype=bool)
    for t in range(cols.shape[1]):
        a = int(np.count_nonzero(count > t))
        ar = np.arange(a)
        cdf = np.maximum(diag[:a], 0.0).cumsum(axis=1)
        total = cdf[:, -1]
        # The total is exactly the number of points left to draw; rounding
        # moves it by O(d eps), a rank-deficient selection by about 1.
        _fail_unless(abs(total - (count[:a] - t)) < 0.5, total, "selection total",
                     "within 1/2 of the points left to draw", d)
        target = np.minimum(u[:a, t] * total, np.nextafter(total, 0.0))
        i = np.count_nonzero(cdf <= target[:, None], axis=1)
        col = (np.matmul(sel_vecs[:a] * vecs[i][:, None, :], vecs.T)
               - np.matmul(cols[ar, :t, i][:, None, :], cols[:a, :t]))[:, 0, :]
        pivot = col[ar, i]
        _fail_unless((pivot > 0.0) & (pivot < np.inf), pivot, "Schur pivot",
                     "positive and finite", d)
        col /= np.sqrt(pivot)[:, None]
        cols[:a, t] = col
        diag[:a] -= col * col
        occ[ar, i] = True
    return occ


def _fail_unless(ok: np.ndarray, values: np.ndarray, what: str, limit: str, d: int) -> None:
    if not ok.all():
        bad = float(values[~ok][0])
        raise NonConvergenceError(f"{what} while sampling", bad, 0.0, d, cap="window size",
                                  detail=f"{what} {bad:.3e} is not {limit}")


def _make_batch(
    kernel: WindowKernel, kind: str, seed: int, occupancy: np.ndarray, max_clamp: float
) -> SampleBatch:
    occupancy.flags.writeable = False
    count = len(occupancy)
    hits = occupancy.sum(axis=0).tolist()
    return SampleBatch(
        N=kernel.N,
        seed=seed,
        kind=kind,
        count=count,
        points=kernel.points,
        occupancy=occupancy,
        diagonal=tuple((x, _bernoulli(h, count)) for x, h in zip(kernel.points, hits)),
        max_clamp=max_clamp,
    )


def sample_window(kernel: WindowKernel, count: int, seed: int) -> SampleBatch:
    """Draw exact determinantal samples of the window restriction.

    Chunk boundaries and chunk seeds depend only on (count, seed), so the
    batch is bit-identical for a fixed seed; eigenvalues outside [0, 1] are
    clamped, and a clamp beyond 1e-4 aborts.
    """
    _check_sampleable(kernel)
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    w, vecs, max_clamp = _spectrum(kernel)
    occupancy = np.zeros((count, len(w)), dtype=bool)
    seeds = np.random.SeedSequence(int(seed)).spawn(math.ceil(count / _CHUNK))
    for start, ss in zip(range(0, count, _CHUNK), seeds):
        rng = np.random.Generator(np.random.Philox(ss))
        _sample_chunk(w, vecs, occupancy[start : start + _CHUNK], rng)
    return _make_batch(kernel, kernel.kind, int(seed), occupancy, max_clamp)


def sample_underline_then_involute(kernel: WindowKernel, count: int, seed: int) -> SampleBatch:
    """Sample the symmetric process, then flip occupancy on the negative half
    of the window.

    The flipped configurations follow the process whose correlation minors
    come from the J-transformed kernel, so their statistics cross-check that
    kernel's minors.
    """
    base = sample_window(kernel, count, seed)
    flipped = involute_occupancy(base.occupancy, kernel.points)
    return _make_batch(
        kernel, kernel.kind + "+involution", int(seed), flipped, base.max_clamp
    )


def point_names(batch: SampleBatch) -> Iterator[list[str]]:
    """Each configuration as its sorted "n/2" point strings, read off the
    occupancy rows one at a time."""
    names = [str(x) for x in batch.points]
    for row in batch.occupancy:
        yield [names[i] for i in np.flatnonzero(row)]
