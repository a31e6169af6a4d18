"""Tests for exact lattice combinatorics: half-integers, partitions, Frobenius
coordinates, balanced configurations, Maya diagrams as involuted occupancy
rows (checked against the definition {lambda_i - i + 1/2}), the modified
action sigma~ (checked against a set-based reference, ``modified_by_maya``),
and the dimension ratio (checked against the hook-length formula)."""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from gammakernel.lattice import (
    FiniteConfig,
    FinitaryPermutation,
    HalfInt,
    Partition,
    _modified_occupancy,
    apply_sigma_modified,
    dim_ratio,
    involute_occupancy,
    partitions_of,
    partitions_up_to,
    to_balanced_config,
)
from gammakernel.kernels import window_points
from gammakernel.zmeasure import Params, XiParams, partition_ensemble


def hook_dim(lam: Partition) -> Fraction:
    """Independent oracle: dim(lambda) = |lambda|! / prod(hooks)."""
    t = lam.transpose()
    hooks = 1
    for i, r in enumerate(lam.rows, start=1):
        for j in range(1, r + 1):
            hooks *= (lam[i] - j) + (t[j] - i) + 1
    return Fraction(factorial(lam.size), hooks)


def modified_by_maya(word, X):
    """inv o sigma o inv on a finite set X of twice-values, balanced or not,
    through the natural action on its Maya diagram (x < 0) XOR (x in X):
    sigma_n swaps the Maya occupations of n -+ 1/2, so X flips the pair
    exactly when one of the two is in the diagram; rightmost generator
    first.  The reference for sigma~."""
    X = set(X)
    for n in reversed(tuple(word)):
        pair = {2 * n - 1, 2 * n + 1}
        if sum((t < 0) != (t in X) for t in pair) == 1:
            X ^= pair
    return X


def _balanced(*rows):
    """X(lambda) of the partition with these rows."""
    return to_balanced_config(Partition(rows))


# ---------------------------------------------------------------------------
# HalfInt
# ---------------------------------------------------------------------------

def test_halfint_basic():
    x = HalfInt(3)
    assert str(x) == "3/2"
    assert float(x) == 1.5
    assert HalfInt.parse("-1/2") == HalfInt(-1)
    assert HalfInt.make(2.5) == HalfInt(5)
    assert HalfInt.make("7/2") == HalfInt(7)
    assert -HalfInt(3) == HalfInt(-3)
    assert abs(HalfInt(-5)) == HalfInt(5)
    assert HalfInt(-1) < HalfInt(1)


def test_halfint_rejects_integers():
    with pytest.raises(ValueError):
        HalfInt(2)
    with pytest.raises(ValueError):
        HalfInt.make(1.25)
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="is not a half-integer"):
            HalfInt.make(value)
    for text in ("3", "4/2", "+3/2", "1_1/2", "3/2/2", "0x3/2"):
        with pytest.raises(ValueError):
            HalfInt.parse(text)
    assert HalfInt.parse(" -3 / 2 ") == HalfInt(-3)


# ---------------------------------------------------------------------------
# Partitions and Frobenius coordinates
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([3, 0])


def test_frobenius_examples():
    # (2,1): one diagonal box, arm 1, leg 1 -> p_1 = q_1 = 3/2.
    assert Partition([2, 1]).frobenius == ((HalfInt(3), HalfInt(3)),)
    # (1): p_1 = q_1 = 1/2.
    assert Partition([1]).frobenius == ((HalfInt(1), HalfInt(1)),)
    # (4,3,1): d=2; p = (lambda_i - i + 1/2) = (7/2, 3/2) -> ascending (3/2, 7/2),
    # transpose (3,2,2,1): q = (5/2, 1/2) -> ascending (1/2, 5/2).
    fr = Partition([4, 3, 1]).frobenius
    assert [p.twice for p, _ in fr] == [3, 7]
    assert [q.twice for _, q in fr] == [1, 5]


@pytest.mark.parametrize("lam", list(partitions_up_to(9)))
def test_frobenius_transpose_swaps_pq(lam):
    fr = lam.frobenius
    fr_t = lam.transpose().frobenius
    assert tuple((q, p) for p, q in fr) == fr_t


def test_balanced_config_examples():
    assert to_balanced_config(Partition([2, 1])) == FiniteConfig(["-3/2", "3/2"])
    assert to_balanced_config(Partition(())) == FiniteConfig(())
    assert to_balanced_config(Partition([1])) == FiniteConfig(["-1/2", "1/2"])


BALANCED_UP_TO_10 = {lam: to_balanced_config(lam) for lam in partitions_up_to(10)}


@pytest.mark.parametrize("lam", list(partitions_up_to(10)))
def test_balanced_roundtrip(lam):
    # X(lambda) is balanced, and no other partition of size <= 10 has it.
    cfg = BALANCED_UP_TO_10[lam]
    assert cfg.is_balanced()
    assert [mu for mu, other in BALANCED_UP_TO_10.items() if other == cfg] == [lam]


# ---------------------------------------------------------------------------
# Maya diagrams: the involuted occupancy rows
# ---------------------------------------------------------------------------

def _occupancy_row(lam, n):
    """X(lambda)'s occupancy row on the window [-n, n], with its points."""
    pts = window_points(n)
    cfg = to_balanced_config(lam)
    return np.array([[x in cfg for x in pts]]), pts


@pytest.mark.parametrize("lam", list(partitions_up_to(10)))
def test_maya_diff_equals_balanced_config(lam):
    # On a window [-n, n] with n > |lambda|, the involuted row of X(lambda)
    # holds exactly the points of the definition {lambda_i - i + 1/2 : i >= 1},
    # so the Maya diagram differs from Z'_- exactly at X(lambda).
    n = lam.size + 1
    row, pts = _occupancy_row(lam, n)
    defined = {HalfInt(2 * (lam[i] - i) + 1) for i in range(1, 2 * n + 1)}
    maya = involute_occupancy(row, pts)[0]
    assert [x for x, b in zip(pts, maya) if b] == [x for x in pts if x in defined]
    assert FiniteConfig(x for x in pts if (x in defined) != (x.twice < 0)) == to_balanced_config(lam)


def test_maya_membership():
    row, pts = _occupancy_row(Partition([2, 1]), 500)
    maya = dict(zip(pts, involute_occupancy(row, pts)[0].tolist()))
    # Points lambda_i - i + 1/2: 3/2, -1/2, -5/2, -7/2, ...
    assert maya[HalfInt(3)]
    assert maya[HalfInt(-1)]
    assert not maya[HalfInt(1)]
    assert not maya[HalfInt(-3)]  # the hole at -3/2
    assert maya[HalfInt(-5)]
    assert maya[HalfInt(-999)]


@pytest.mark.parametrize("lam", list(partitions_up_to(8)))
def test_involution_roundtrip(lam):
    row, pts = _occupancy_row(lam, lam.size + 1)
    maya = involute_occupancy(row, pts)
    assert not np.array_equal(maya, row)
    assert np.array_equal(involute_occupancy(maya, pts), row)


# ---------------------------------------------------------------------------
# Permutation actions
# ---------------------------------------------------------------------------

def test_word_algebra():
    s = FinitaryPermutation([1, 0])
    assert s.inverse().word == (0, 1)
    assert s.max_index == 1
    assert FinitaryPermutation([3, -2]).max_index == 3


def test_apply_sigma_examples():
    # sigma_1 on (1): Maya has 1/2 occupied, 3/2 empty -> adds the box on
    # diagonal j - i = 1, giving (2).
    assert apply_sigma_modified(FinitaryPermutation([1]), _balanced(1)) == _balanced(2)
    # sigma_0 on the empty partition: -1/2 occupied, 1/2 empty -> (1).
    assert apply_sigma_modified(FinitaryPermutation([0]), _balanced()) == _balanced(1)
    # sigma_2 fixes (1): both 3/2 and 5/2 empty.
    assert apply_sigma_modified(FinitaryPermutation([2]), _balanced(1)) == _balanced(1)
    # sigma_(-1) on (1,1): transpose behaviour on the column diagonal.
    assert apply_sigma_modified(FinitaryPermutation([-1]), _balanced(1, 1)) == _balanced(1)


def test_apply_sigma_rightmost_first():
    # word [1, 0]: apply sigma_0 (empty -> (1)), then sigma_1 ((1) -> (2)).
    assert apply_sigma_modified(FinitaryPermutation([1, 0]), _balanced()) == _balanced(2)
    # word [0, 1]: sigma_1 fixes empty, then sigma_0 gives (1).
    assert apply_sigma_modified(FinitaryPermutation([0, 1]), _balanced()) == _balanced(1)


def test_apply_sigma_modified_examples():
    # sigma~_0 toggles {-1/2, 1/2} as a pair.
    assert apply_sigma_modified(FinitaryPermutation([0]), FiniteConfig(())) == (
        FiniteConfig(["-1/2", "1/2"])
    )
    assert apply_sigma_modified(
        FinitaryPermutation([0]), FiniteConfig(["-1/2", "1/2"])
    ) == FiniteConfig(())
    # On X(2,1) = {-3/2, 3/2} it adds the pair: the diagonal box of (2,2).
    assert apply_sigma_modified(FinitaryPermutation([0]), _balanced(2, 1)) == _balanced(2, 2)
    # With exactly one of the pair present, sigma~_0 fixes the configuration.
    assert apply_sigma_modified(FinitaryPermutation([0]), _balanced(2)) == _balanced(2)
    # For n != 0 the modified action is the plain set action.
    assert apply_sigma_modified(
        FinitaryPermutation([1]), FiniteConfig(["-1/2", "1/2"])
    ) == FiniteConfig(["-1/2", "3/2"])


@pytest.mark.parametrize("lam", list(partitions_up_to(8)))
@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
def test_modified_action_is_conjugated_action(lam, n):
    # sigma~ = inv o sigma o inv: acting on X(lambda) must match the natural
    # action on the Maya diagram, conjugated by the involution.
    sigma = FinitaryPermutation([n])
    lhs = apply_sigma_modified(sigma, to_balanced_config(lam))
    rhs = modified_by_maya(sigma.word, {x.twice for x in to_balanced_config(lam)})
    assert {x.twice for x in lhs} == rhs


@pytest.mark.parametrize("lam", list(partitions_up_to(6)))
@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
def test_generators_are_involutions(lam, n):
    sigma = FinitaryPermutation([n, n])
    cfg = to_balanced_config(lam)
    assert apply_sigma_modified(sigma, cfg) == cfg
    assert modified_by_maya(sigma.word, {x.twice for x in cfg}) == {x.twice for x in cfg}


def test_modified_occupancy_matches_set_action():
    # sigma~ on the rows of the |lambda| <= 10 ensemble and on all 64 subsets
    # of [-3, 3] (balanced or not, as window restrictions are), against
    # inv o sigma o inv on each row's set, for every word of length <= 2.
    occ, _, _ = partition_ensemble(XiParams(Params(0.5, 0.5), 0.3), 10)
    subsets = (np.arange(64)[:, None] >> np.arange(6) & 1).astype(bool)
    occ = np.vstack([occ, np.pad(subsets, ((0, 0), (7, 7)))])
    pts = window_points(10)

    def as_config(row):
        return FiniteConfig(x for x, b in zip(pts, row) if b)

    configs = [as_config(row) for row in occ]
    for length in range(3):
        for word in itertools.product(range(-3, 4), repeat=length):
            sigma = FinitaryPermutation(word)
            moved = _modified_occupancy(sigma, occ, [x.twice for x in pts])
            assert [as_config(row) for row in moved] == [
                FiniteConfig(HalfInt(t) for t in modified_by_maya(word, {x.twice for x in X}))
                for X in configs]


def test_modified_occupancy_rejects_missing_columns():
    occ = np.zeros((1, 4), dtype=bool)
    with pytest.raises(ValueError):
        _modified_occupancy(FinitaryPermutation([2]), occ, [-3, -1, 1, 3])  # no 5/2
    with pytest.raises(ValueError):
        _modified_occupancy(FinitaryPermutation([1, 0]), occ[:, 1:], [-3, 1, 3])  # no -1/2


def test_sigma_changes_size_by_at_most_one():
    # |lambda| is the sum of |x| over X(lambda) (the arms and legs plus 1/2
    # each, d of them on each side), so it reads the size off the moved X.
    for lam in partitions_up_to(7):
        cfg = to_balanced_config(lam)
        assert sum(abs(x.twice) for x in cfg) == 2 * lam.size
        for n in range(-4, 5):
            moved = apply_sigma_modified(FinitaryPermutation([n]), cfg)
            assert abs(sum(abs(x.twice) for x in moved) - 2 * lam.size) <= 2


# ---------------------------------------------------------------------------
# Dimension ratio vs hook-length oracle
# ---------------------------------------------------------------------------

def test_dim_ratio_frozen_values():
    assert dim_ratio(Partition(())) == 1
    assert dim_ratio(Partition([1])) == 1
    assert dim_ratio(Partition([2, 1])) == Fraction(1, 3)  # dim = 2, 3! = 6
    assert dim_ratio(Partition([2, 2])) == Fraction(1, 12)  # dim = 2, 4! = 24


@pytest.mark.parametrize("n", range(0, 13))
def test_dim_ratio_matches_hooks(n):
    for lam in partitions_of(n):
        assert dim_ratio(lam) == hook_dim(lam) / factorial(n)


def test_dim_ratio_transpose_invariant():
    for lam in partitions_up_to(10):
        assert dim_ratio(lam) == dim_ratio(lam.transpose())


def test_partition_counts():
    # p(n) for n = 0..10: 1,1,2,3,5,7,11,15,22,30,42.
    counts = [len(list(partitions_of(n))) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
