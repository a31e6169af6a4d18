"""Tests for the spectral window sampler.

Monte Carlo estimators are asserted against exact minors at 4 standard
errors (fixed seeds make these deterministic, so the bar just guards against
implementation bias, not against unlucky draws).
"""

import math
import tracemalloc

import numpy as np
import pytest

from gammakernel.lattice import FiniteConfig, HalfInt
from gammakernel.zmeasure import Params, XiParams
from gammakernel.kernels import (
    NonConvergenceError,
    WindowKernel,
    j_transform,
    underline_limit_window,
    underline_prelimit_window,
)
from gammakernel.fredholm import TestFunction, expectation_det, phi_eval
import gammakernel.sampler as sampler_module
from gammakernel.sampler import (
    _sample_chunk,
    point_names,
    sample_underline_then_involute,
    sample_window,
)

H = HalfInt
EQUAL = Params(0.5, 0.5)

K4 = underline_limit_window(4, EQUAL)
K60 = underline_limit_window(30, Params(0.3 + 0.5j, 0.3 - 0.5j))
BATCH = sample_window(K4, 20000, seed=42)
INVOLUTED = sample_underline_then_involute(K4, 20000, seed=7)
KJ = j_transform(K4)


def synthetic(values, N=2):
    return WindowKernel(N=N, kind="underline_limit", values=values, params=EQUAL)


# ---------------------------------------------------------------------------
# Degenerate kernels
# ---------------------------------------------------------------------------

def test_zero_kernel_samples_empty():
    batch = sample_window(synthetic(np.zeros((4, 4))), 50, seed=1)
    assert all(c.points == () for c in batch.configs)
    assert batch.mean_count() == (0.0, 0.0)


def test_identity_kernel_samples_full_window():
    batch = sample_window(synthetic(np.eye(4)), 50, seed=1)
    full = FiniteConfig(batch.points)
    assert all(c == full for c in batch.configs)
    assert batch.rho1(H(1)).value == 1.0


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def test_seeded_determinism_bit_exact():
    a = sample_window(K4, 500, seed=123)
    b = sample_window(K4, 500, seed=123)
    assert a.configs == b.configs
    assert a.diagonal == b.diagonal
    c = sample_window(K4, 500, seed=124)
    assert c.configs != a.configs


def test_chunked_stream_is_prefix_stable():
    # Chunk seeds depend only on the seed and the chunk number, and each
    # sample reads only its own row of uniforms, so a batch is a prefix of a
    # larger one with the same seed whatever the count.
    big = sample_window(K4, 9000, seed=5)
    for count in (1, 63, 100, 4096, 4097):
        small = sample_window(K4, count, seed=5)
        assert np.array_equal(small.occupancy, big.occupancy[:count]), count
    assert big.configs[:4096] == sample_window(K4, 4096, seed=5).configs


@pytest.mark.parametrize("block", [1, 7])
def test_row_block_does_not_change_output(monkeypatch, block):
    ref = sample_window(K60, 300, seed=17).occupancy
    monkeypatch.setattr(sampler_module, "_BLOCK", block)
    assert np.array_equal(sample_window(K60, 300, seed=17).occupancy, ref)


def test_sampling_memory_is_bounded():
    # A full chunk at 2N=60: the uniforms (4096 x 120 doubles, 3.9 MB)
    # dominate; the Schur columns are held for one row block at a time.
    tracemalloc.start()
    try:
        sample_window(K60, 4096, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, peak


def test_degenerate_projection_fails_loudly():
    # Two copies of one eigenvector, both selected: the projection has rank
    # 1, so the second point has nothing left to draw from.
    occupancy = np.zeros((3, 2), dtype=bool)
    vecs = np.array([[1.0, 1.0], [0.0, 0.0]])
    rng = np.random.Generator(np.random.Philox(1))
    with pytest.raises(NonConvergenceError) as err:
        _sample_chunk(np.ones(2), vecs, occupancy, rng)
    assert err.value.nodes == 2
    assert abs(err.value.achieved) < 1e-12
    msg = str(err.value)
    assert "is not within 1/2 of the points left to draw at the window size 2" in msg
    assert msg.startswith("selection total while sampling: selection total ")
    assert "successive refinements" not in msg


def test_batch_metadata():
    assert BATCH.N == 4
    assert BATCH.seed == 42
    assert BATCH.count == 20000
    assert BATCH.kind == "underline_limit"
    assert "spectral" in BATCH.algorithm
    assert "64-bit seed" in BATCH.rng
    assert BATCH.max_clamp <= 1e-4


# ---------------------------------------------------------------------------
# Estimators vs exact minors
# ---------------------------------------------------------------------------

def test_rho1_matches_kernel_diagonal():
    for x, est in BATCH.diagonal:
        exact = K4.entry(x, x)
        assert abs(est.value - exact) <= 4 * max(est.se, 1e-12), (x, est, exact)


def test_rho2_matches_two_by_two_minor():
    for x, y in [(H(-1), H(1)), (H(1), H(3)), (H(-3), H(5))]:
        est = BATCH.pair_frequency(x, y)
        exact = K4.minor((x, y))
        assert abs(est.value - exact) <= 4 * max(est.se, 1e-12)


def test_principal_window_pairs_and_number_variance():
    # 2N = 60 on the principal pair: every adjacent 2x2 minor, and the number
    # variance tr K - tr K^2 of a determinantal projection mixture.  Pair
    # counts use the binomial standard error at the exact minor with a
    # half-count continuity correction: some pairs have minors ~ 1e-6, so
    # they are expected 0.03 times and drawn 0 or 1 times.
    n = 20000
    batch = sample_window(K60, n, seed=2026)
    pts = K60.points
    for x, y in zip(pts, pts[1:]):
        hits = batch.pair_frequency(x, y).value * n
        exact = K60.minor((x, y))
        se = math.sqrt(n * exact * (1.0 - exact))
        assert abs(hits - n * exact) - 0.5 <= 4 * se, (x, y, hits, n * exact)
    counts = batch.occupancy.sum(axis=1).astype(float)
    dev = counts - counts.mean()
    var = float(np.mean(dev**2))
    se = math.sqrt((np.mean(dev**4) - var**2) / len(counts))
    exact = float(np.trace(K60.values) - np.sum(K60.values * K60.values))
    assert abs(var - exact) <= 4 * se, (var, exact, se)


def test_mean_count_matches_trace():
    est = BATCH.mean_count()
    assert abs(est.value - np.trace(K4.values)) <= 4 * est.se


@pytest.mark.parametrize("batch", [BATCH, INVOLUTED], ids=["plain", "involuted"])
def test_estimators_match_direct_counts(batch):
    # Reference: count over the configurations one by one.  H(11) lies
    # outside the window, where no configuration has points.
    configs = batch.configs
    n = len(configs)
    assert n == batch.count == batch.occupancy.shape[0]

    def bernoulli(hits):
        p = hits / n
        return (p, math.sqrt(p * (1.0 - p) / n))

    def mean(values):
        arr = np.asarray(values, dtype=float)
        return (float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(n)))

    for x, est in batch.diagonal:
        assert est == bernoulli(sum(1 for c in configs if x in c))
    for x, y in [(H(-1), H(1)), (H(-7), H(-5)), (H(1), H(11))]:
        ref = bernoulli(sum(1 for c in configs if x in c and y in c))
        assert batch.pair_frequency(x, y) == ref
    for pts in ([], [H(-1)], [H(1), H(-3), H(7)], [H(3), H(11)]):
        ref = bernoulli(sum(1 for c in configs if not set(pts) & set(c.points)))
        assert batch.avoidance(pts) == ref
    assert batch.mean_count() == mean([len(c) for c in configs])
    f = TestFunction({H(-3): -0.6, H(1): 0.4, H(3): -0.2, H(11): 5.0}.items())
    assert batch.phi_mean(f) == mean([phi_eval(f, c).value for c in configs])
    ref = bernoulli(sum(1 for c in configs if c.is_balanced()))
    assert batch.balance_frequency() == ref


def test_estimator_validation():
    with pytest.raises(ValueError):
        BATCH.pair_frequency(H(1), H(1))
    with pytest.raises(KeyError):
        BATCH.rho1(H(99))


# ---------------------------------------------------------------------------
# Involuted samples vs the J-transformed kernel
# ---------------------------------------------------------------------------

def test_involuted_avoidance_matches_j_kernel():
    est = INVOLUTED.avoidance([H(-1)])
    exact = 1.0 - KJ.entry(H(-1), H(-1))
    assert abs(est.value - exact) <= 4 * max(est.se, 1e-12)


def test_involuted_rho1_matches_j_kernel_diagonal():
    for x in (H(-3), H(1), H(5)):
        est = INVOLUTED.rho1(x)
        exact = KJ.entry(x, x)
        assert abs(est.value - exact) <= 4 * max(est.se, 1e-12)


def test_involuted_phi_mean_matches_det_route():
    f = TestFunction({H(-1): -0.6, H(1): 0.4, H(3): -0.2}.items())
    est = INVOLUTED.phi_mean(f)
    exact = expectation_det(f, KJ)
    assert abs(est.value - exact) <= 4 * est.se


def test_involution_is_pointwise_flip_on_negatives():
    base = sample_window(K4, 200, seed=9)
    flipped = sample_underline_then_involute(K4, 200, seed=9)
    negatives = {x for x in K4.points if x.twice < 0}
    for b, f in zip(base.configs, flipped.configs):
        expect = (set(b.points) - negatives) | (negatives - set(b.points))
        assert set(f.points) == expect


def test_balancedness_trend_with_window():
    xi = XiParams(EQUAL, 0.15)
    freqs = []
    for N in (2, 6):
        kern = underline_prelimit_window(N, xi)
        batch = sample_underline_then_involute(kern, 4000, seed=11)
        freqs.append(batch.balance_frequency().value)
    assert freqs[1] > freqs[0]
    assert freqs[1] > 0.9


# ---------------------------------------------------------------------------
# Spectral clamping
# ---------------------------------------------------------------------------

def test_small_clamp_recorded():
    vals = np.eye(4) * (1.0 + 5e-6)
    batch = sample_window(synthetic(vals), 20, seed=3)
    assert 4e-6 < batch.max_clamp <= 1e-4


def test_large_clamp_aborts():
    vals = np.eye(4) * (1.0 + 5e-4)
    with pytest.raises(NonConvergenceError) as err:
        sample_window(synthetic(vals), 20, seed=3)
    assert err.value.achieved == pytest.approx(5e-4, rel=1e-6)
    assert str(err.value) == (
        "spectral clamp while sampling: eigenvalues leave [0, 1] by 5.000e-04 "
        "> limit 1.000e-04 at the window size 4"
    )


def test_rejects_asymmetric_or_transformed_kernels():
    vals = np.zeros((4, 4))
    vals[0, 1] = 0.5
    with pytest.raises(ValueError):
        sample_window(synthetic(vals), 10, seed=0)
    with pytest.raises(ValueError):
        sample_window(KJ, 10, seed=0)
    with pytest.raises(ValueError):
        sample_window(K4, 0, seed=0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_point_names_match_configs():
    batch = sample_window(K4, 100, seed=21)
    rows = list(point_names(batch))
    assert len(rows) == 100
    for pts, config in zip(rows, batch.configs):
        assert pts == [str(x) for x in config.points]
        assert pts == sorted(pts, key=lambda s: int(s.split("/")[0]))
