from fractions import Fraction
from math import comb, factorial

import pytest

from zetastar.closed_forms import (
    alpha,
    euler_zeta_even,
    mzv_31_repeated,
    mzv_repeated_2m,
    newton_e_oracle,
    newton_h_oracle,
    thm1_C,
    thm3_sum,
    thmA_coefficient,
    thmA_cyclo_sum,
    thmB_coefficient,
    thmB_via_relation,
    thmC_coefficient,
    thmC_via_relation,
)
from zetastar.cyclotomic import CycloElem, cyclo_rational_value
from zetastar.exact import PiMultiple, bernoulli

F = Fraction


class TestThm1:
    def test_c0_is_one(self):
        for m in (1, 2, 5):
            assert thm1_C(m, 0) == 1

    def test_c1_hand_value(self):
        assert thm1_C(1, 1) == F(-1, 12)

    def test_basel(self):
        assert mzv_repeated_2m(1, 1) == PiMultiple(F(1, 6), 2)

    def test_empty_product(self):
        for m in (1, 3):
            assert mzv_repeated_2m(m, 0) == PiMultiple(F(1), 0)

    def test_zeta4(self):
        assert mzv_repeated_2m(2, 1) == euler_zeta_even(2)

    def test_matches_elementary_oracle(self):
        for m in range(1, 4):
            for n in range(5):
                assert mzv_repeated_2m(m, n).coeff == newton_e_oracle(m, n), (m, n)


class TestEuler:
    def test_frozen_values(self):
        assert euler_zeta_even(1) == PiMultiple(F(1, 6), 2)
        assert euler_zeta_even(2) == PiMultiple(F(1, 90), 4)
        assert euler_zeta_even(3) == PiMultiple(F(1, 945), 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            euler_zeta_even(0)


def compositions(total, slots):
    """Every tuple of `slots` nonnegative integers summing to `total`, in
    lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, slots - 1):
            yield (first,) + rest


class TestCompositions:
    @pytest.mark.parametrize("total,slots", [(0, 1), (3, 1), (4, 2), (6, 3), (5, 4)])
    def test_count_and_uniqueness(self, total, slots):
        seen = list(compositions(total, slots))
        assert len(seen) == comb(total + slots - 1, slots - 1)
        assert len(set(seen)) == len(seen)
        assert all(len(c) == slots and sum(c) == total for c in seen)
        assert all(min(c) >= 0 for c in seen)


def thmA_group_ring_by_fractions(m, n):
    """Independent oracle: plain Fraction sum over materialized compositions,
    accumulated in the group ring Q[t]/(t^m - 1)."""

    def block(j):
        return F(2 ** (2 * j) - 2) * bernoulli(2 * j) / factorial(2 * j)

    acc = [F(0)] * m
    for comp in compositions(m * n, m):
        term = F(1)
        for nk in comp:
            term *= block(nk)
        acc[sum(l * nl for l, nl in enumerate(comp)) % m] += term
    sign = F(-1) ** ((m * (n - 1)) % 2)
    return CycloElem(m, tuple(sign * a for a in acc))


def thmA_by_direct_fractions(m, n):
    """The oracle's group-ring sum, reduced to its rational value."""
    return cyclo_rational_value(thmA_group_ring_by_fractions(m, n))


class TestThmA:
    def test_frozen_values(self):
        assert thmA_coefficient(1, 1) == F(1, 6)
        assert thmA_coefficient(1, 2) == F(7, 360)
        assert thmA_coefficient(2, 1) == F(1, 90)

    def test_empty_index_convention(self):
        for m in range(1, 5):
            assert thmA_coefficient(m, 0) == 1

    def test_matches_homogeneous_oracle(self):
        for m in range(1, 4):
            for n in range(5):
                assert thmA_coefficient(m, n) == newton_h_oracle(m, n), (m, n)

    @pytest.mark.parametrize("m,n", [(6, 5), (8, 3), (10, 2)])
    def test_matches_homogeneous_oracle_large_m(self, m, n):
        assert thmA_coefficient(m, n) == newton_h_oracle(m, n)

    def test_matches_direct_fraction_sum(self):
        for m in range(1, 4):
            for n in range(4):
                assert thmA_coefficient(m, n) == thmA_by_direct_fractions(m, n), (m, n)

    def test_group_ring_sum_before_reduction(self):
        for m in range(1, 5):
            for n in range(4):
                expected = thmA_group_ring_by_fractions(m, n)
                assert thmA_cyclo_sum(m, n) == expected, (m, n)

    def test_positive(self):
        for m in range(1, 5):
            for n in range(4):
                assert thmA_coefficient(m, n) > 0


class TestNewtonOracles:
    def test_h_values(self):
        assert newton_h_oracle(1, 1) == F(1, 6)
        assert newton_h_oracle(1, 2) == F(7, 360)

    def test_e_values(self):
        assert newton_e_oracle(1, 1) == F(1, 6)
        assert newton_e_oracle(1, 2) == F(1, 120)


class TestAlpha:
    def test_frozen_values(self):
        assert alpha(0) == 1
        assert alpha(1) == F(1, 90)
        # frozen from the brute-force composition sum run before the build
        assert alpha(2) == F(13, 113400)

    def test_brute_force_sum(self):
        def block(j):
            return F(2 ** (2 * j) - 2) * bernoulli(2 * j) / factorial(2 * j)

        for n in range(13):
            direct = sum(
                F(-1) ** n1 * block(n0) * block(n1)
                for n0 in range(2 * n + 1)
                for n1 in (2 * n - n0,)
            )
            assert alpha(n) == direct

    def test_agrees_with_weight4_family(self):
        for n in range(5):
            assert alpha(n) == thmA_coefficient(2, n)


class TestThmB:
    def test_frozen_values(self):
        assert thmB_coefficient(0) == 1
        assert thmB_coefficient(1) == F(1, 72)
        assert thmB_coefficient(2) == F(53, 362880)

    def test_routes_agree(self):
        for n in range(7):
            assert thmB_coefficient(n) == thmB_via_relation(n), n

    def test_relation_hand_value(self):
        assert thmB_via_relation(1) == F(1, 360) + F(1, 90)


class TestClassicalConstants:
    def test_mzv_31_repeated(self):
        assert mzv_31_repeated(0) == PiMultiple(F(1), 0)
        assert mzv_31_repeated(1) == PiMultiple(F(1, 360), 4)
        assert mzv_31_repeated(2) == PiMultiple(F(1, 1814400), 8)

    def test_thm3_sum(self):
        assert thm3_sum(1) == PiMultiple(F(1, 5040), 6)
        assert thm3_sum(2) == PiMultiple(F(1, 39916800), 10)
        with pytest.raises(ValueError):
            thm3_sum(0)


class TestThmC:
    def test_frozen_value(self):
        # checked by two independent hand computations of the k = 0, 1 terms
        assert thmC_coefficient(1) == F(71, 15120)
        assert thmC_coefficient(2) == F(1871, 23950080)

    def test_routes_agree(self):
        for n in range(1, 5):
            assert thmC_coefficient(n) == thmC_via_relation(n), n

    def test_relation_hand_value(self):
        lhs = 2 * (F(1, 432) + F(1, 945)) - (F(1, 540) + F(1, 5040))
        assert thmC_via_relation(1) == lhs

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            thmC_coefficient(0)
