"""Tests for z-measure weights: parameter admissibility, frozen weight values,
agreement of the partition and configuration formulas, conjugation and
reflection symmetries, normalization, and the enumeration oracle."""

import math
import random

import numpy as np

import pytest

from gammakernel.lattice import (
    FiniteConfig,
    HalfInt,
    Partition,
    partitions_up_to,
    to_balanced_config,
)
from gammakernel.kernels import window_points
from gammakernel.zmeasure import (
    Params,
    XiParams,
    _log_weight_form,
    correlation_oracle,
    enumerate_weights,
    log_weight_config,
    log_weight_partition,
    partition_ensemble,
)

PRINCIPAL = Params(0.5 + 1.0j, 0.5 - 1.0j)
COMPLEMENTARY = Params(0.5, 0.5)
SHIFTED = Params(2.3, 2.7)  # complementary inside (2, 3)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_series_classification():
    assert PRINCIPAL.series == "principal"
    assert COMPLEMENTARY.series == "complementary"
    assert SHIFTED.series == "complementary"
    assert Params(-1.5, -1.9).series == "complementary"


def test_zz_is_positive_real():
    assert PRINCIPAL.zz == pytest.approx(1.25)
    assert COMPLEMENTARY.zz == pytest.approx(0.25)
    assert SHIFTED.zz == pytest.approx(2.3 * 2.7)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        Params(0.5 + 1.0j, 0.5 + 1.0j)  # not conjugate
    with pytest.raises(ValueError):
        Params(1.0, 1.5)  # integer
    with pytest.raises(ValueError):
        Params(0.5, 1.5)  # different intervals
    with pytest.raises(ValueError):
        Params(-0.5, 0.5)  # different intervals
    with pytest.raises(ValueError):
        XiParams(COMPLEMENTARY, 0.0)
    with pytest.raises(ValueError):
        XiParams(COMPLEMENTARY, 1.0)
    with pytest.raises(ValueError):
        XiParams(COMPLEMENTARY, -0.2)


def test_underflowing_pair_factor_rejected():
    # (z+k)(z'+k) underflows to 0.0 at the integer k nearest -Re z, also
    # far beyond |k| = 10^6.
    for z in (-3e6 + 1e-200j, -3 + 1e-200j):
        with pytest.raises(ValueError, match="fails at k"):
            Params(z, z.conjugate())
    with pytest.raises(ValueError, match="fails at k=0"):
        Params(1e-200, 1e-200)
    for z, zp in ((0.5 + 1.0j, 0.5 - 1.0j), (0.5, 0.5), (2.3, 2.7), (-1.5, -1.9),
                  (-3e6 + 1e-3j, -3e6 - 1e-3j), (1e-100, 1e-100), (-3 + 1e-150j, -3 - 1e-150j)):
        assert Params(z, zp).zz > 0.0


def test_negated_stays_admissible():
    assert Params(-PRINCIPAL.z, -PRINCIPAL.z_prime).series == "principal"
    assert Params(-SHIFTED.z, -SHIFTED.z_prime).series == "complementary"
    assert Params(-SHIFTED.z, -SHIFTED.z_prime).z == -2.3


# ---------------------------------------------------------------------------
# Frozen weights
# ---------------------------------------------------------------------------

def test_weight_empty_partition():
    for base in (PRINCIPAL, COMPLEMENTARY, SHIFTED):
        for xi in (0.1, 0.3, 0.9):
            p = XiParams(base, xi)
            assert math.exp(log_weight_partition(Partition(()), p)) == pytest.approx(
                (1 - xi) ** base.zz, rel=1e-13
            )


def test_weight_single_box():
    for base in (PRINCIPAL, COMPLEMENTARY):
        p = XiParams(base, 0.3)
        want = (0.7) ** base.zz * 0.3 * base.zz
        w = math.exp(log_weight_partition(Partition([1]), p))
        assert w == pytest.approx(want, rel=1e-13)


def test_weight_row_two_frozen():
    # lambda = (2), z = z' = 1/2, xi = 0.3:
    # (1-xi)^(1/4) * xi^2 * (1/2 * 3/2)^2 * (dim/2!)^2 = 0.7^0.25 * 0.09 * 9/16 * 1/4.
    p = XiParams(COMPLEMENTARY, 0.3)
    want = 0.7**0.25 * 0.09 * (0.75) ** 2 * 0.25
    assert math.exp(log_weight_partition(Partition([2]), p)) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(0.7**0.25 * 0.01265625, rel=1e-15)


def test_weight_config_trivial_cases():
    p = XiParams(PRINCIPAL, 0.4)
    empty = math.exp(log_weight_config(FiniteConfig(()), p))
    assert empty == pytest.approx(0.6**PRINCIPAL.zz, rel=1e-13)
    # X = {-1/2, 1/2}: d=1, p=q=1/2, all inner products empty, (p+q)^2 = 1.
    want = 0.6**PRINCIPAL.zz * 0.4 * PRINCIPAL.zz
    pair = math.exp(log_weight_config(FiniteConfig(["-1/2", "1/2"]), p))
    assert pair == pytest.approx(want, rel=1e-13)


def test_weight_config_rejects_unbalanced():
    p = XiParams(COMPLEMENTARY, 0.3)
    with pytest.raises(ValueError):
        log_weight_config(FiniteConfig(["1/2"]), p)


@pytest.mark.parametrize("base", [PRINCIPAL, COMPLEMENTARY, SHIFTED])
@pytest.mark.parametrize("xi", [0.2, 0.7])
def test_partition_and_config_formulas_agree(base, xi):
    from gammakernel.lattice import to_balanced_config

    p = XiParams(base, xi)
    for lam in partitions_up_to(12):
        a = math.exp(log_weight_partition(lam, p))
        b = math.exp(log_weight_config(to_balanced_config(lam), p))
        assert b == pytest.approx(a, rel=1e-10)
    # The same quadratic form over every occupancy row of the ensemble at once.
    occ, _, _ = partition_ensemble(p, 16)
    o = occ.astype(float)
    twice = np.array([x.twice for x in window_points(16)])
    H = _log_weight_form(twice, twice, p)
    rows = base.zz * math.log1p(-xi) + ((o @ H) * o).sum(axis=1)
    want = [log_weight_partition(lam, p) for lam in partitions_up_to(16)]
    assert rows == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("base", [PRINCIPAL, SHIFTED])
def test_conjugation_symmetry(base, xi=0.35):
    # M_{z,z',xi}(lambda') = M_{-z,-z',xi}(lambda).
    p = XiParams(base, xi)
    pn = XiParams(Params(-base.z, -base.z_prime), p.xi)
    for lam in partitions_up_to(12):
        lhs = math.exp(log_weight_partition(lam.transpose(), p))
        rhs = math.exp(log_weight_partition(lam, pn))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("base", [PRINCIPAL, COMPLEMENTARY])
def test_reflection_symmetry_of_density(base):
    # One-point function of the config process at -x under (z, z') equals the
    # one-point function at x under (-z, -z'), up to tail mass.
    p = XiParams(base, 0.2)
    pn = XiParams(Params(-base.z, -base.z_prime), p.xi)
    for x in (HalfInt(1), HalfInt(3), HalfInt(-5)):
        a = correlation_oracle([-x], p, 14)
        b = correlation_oracle([x], pn, 14)
        assert abs(a.value - b.value) <= a.tail_mass + b.tail_mass + 1e-12


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_weights_base_case():
    p = XiParams(COMPLEMENTARY, 0.3)
    items, tail = enumerate_weights(p, 0)
    assert len(items) == 1
    assert items[0][0] == Partition(())
    assert items[0][1] == pytest.approx(0.7**0.25, rel=1e-13)
    assert tail == pytest.approx(1 - 0.7**0.25, rel=1e-12)


def test_enumerate_weights_bounds():
    p = XiParams(COMPLEMENTARY, 0.3)
    with pytest.raises(ValueError):
        enumerate_weights(p, 31)
    with pytest.raises(ValueError):
        enumerate_weights(p, -1)


@pytest.mark.parametrize("base", [PRINCIPAL, COMPLEMENTARY, SHIFTED])
def test_normalization_increases_to_one(base):
    p = XiParams(base, 0.2)
    tails = [enumerate_weights(p, n)[1] for n in (0, 4, 8, 12, 16, 20)]
    assert all(t >= 0 for t in tails)
    assert all(tails[i + 1] <= tails[i] + 1e-15 for i in range(len(tails) - 1))
    assert tails[-1] < 1e-6


def test_weights_all_positive():
    for base in (PRINCIPAL, COMPLEMENTARY, SHIFTED):
        items, _ = enumerate_weights(XiParams(base, 0.5), 10)
        assert all(w > 0 for _, w in items)


# ---------------------------------------------------------------------------
# Correlation oracle
# ---------------------------------------------------------------------------

def test_oracle_empty_point_set():
    p = XiParams(COMPLEMENTARY, 0.2)
    out = correlation_oracle([], p, 16)
    assert out.value == pytest.approx(1.0, abs=out.tail_mass + 1e-12)


def test_oracle_monotone_in_points():
    p = XiParams(PRINCIPAL, 0.2)
    one = correlation_oracle([HalfInt(1)], p, 14)
    two = correlation_oracle([HalfInt(1), HalfInt(3)], p, 14)
    assert two.value <= one.value + 1e-15


def test_oracle_rejects_duplicates():
    p = XiParams(PRINCIPAL, 0.2)
    with pytest.raises(ValueError):
        correlation_oracle([HalfInt(1), HalfInt(1)], p, 8)


def test_maya_and_config_memberships_are_complementary():
    # For x > 0 the two processes agree pointwise; for x < 0 the Maya process
    # holds x exactly when the config process does not.
    p = XiParams(COMPLEMENTARY, 0.25)
    pos = HalfInt(3)
    neg = HalfInt(-3)
    a = correlation_oracle([pos], p, 14, process="config")
    b = correlation_oracle([pos], p, 14, process="maya")
    assert b.value == pytest.approx(a.value, rel=1e-12)
    c = correlation_oracle([neg], p, 14, process="config")
    d = correlation_oracle([neg], p, 14, process="maya")
    total = correlation_oracle([], p, 14).value
    assert d.value == pytest.approx(total - c.value, rel=1e-10)


def maya_set(lam):
    """The Maya diagram {lambda_i - i + 1/2 : i >= 1} down to -41/2, the
    reference grid's lowest point."""
    return {HalfInt(2 * (lam[i] - i) + 1) for i in range(1, len(lam) + 22)}


def reference_oracle(pts, p, max_size, process):
    """The oracle as one membership test per partition."""
    items, tail = enumerate_weights(p, max_size)
    member = to_balanced_config if process == "config" else maya_set
    return math.fsum(w for lam, w in items if all(x in member(lam) for x in pts)), tail


@pytest.mark.parametrize("max_size", [0, 1, 5, 12])
def test_oracle_matches_per_partition_reference(max_size):
    # Subsets of sizes 0-3 out to |x| = 41/2, well beyond the ensemble's
    # window of half-width max(max_size, 1).
    rng = random.Random(max_size)
    grid = [HalfInt(t) for t in range(-41, 42, 2)]
    for base, xi in ((COMPLEMENTARY, 0.3), (PRINCIPAL, 0.45)):
        p = XiParams(base, xi)
        for _ in range(15):
            pts = rng.sample(grid, rng.randrange(4))
            for process in ("config", "maya"):
                got = correlation_oracle(pts, p, max_size, process=process)
                assert tuple(got) == reference_oracle(pts, p, max_size, process), (pts, process)


def test_oracle_invalid_process():
    p = XiParams(COMPLEMENTARY, 0.25)
    with pytest.raises(ValueError):
        correlation_oracle([HalfInt(1)], p, 8, process="bogus")
