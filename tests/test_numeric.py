import math
import random
from fractions import Fraction

import pytest

from zetastar import numeric
from zetastar.closed_forms import (
    mzv_31_repeated,
    thmA_coefficient,
    thmB_coefficient,
    thmC_coefficient,
)
from zetastar.numeric import (
    NumericValue,
    ToleranceUnreachable,
    harm_elem_numeric,
    mzsv_numeric,
    mzv_numeric,
    zeta_interval,
)
from zetastar.words import HarmElem, insertions, s_map

PI = math.pi


def _atan_inv(x: int, bits: int) -> tuple[int, int]:
    """(a, slack) with |2^bits atan(1/x) - a| < slack: the alternating series
    with every term rounded down, stopped at the first term that rounds to 0."""
    total = k = 0
    while term := (1 << bits) // ((2 * k + 1) * x ** (2 * k + 1)):
        total += -term if k % 2 else term
        k += 1
    return total, k + 1


def _pi_interval(bits: int = 256) -> tuple[Fraction, Fraction]:
    """pi = 16 atan(1/5) - 4 atan(1/239) (Machin), enclosed in integers."""
    a5, s5 = _atan_inv(5, bits)
    a239, s239 = _atan_inv(239, bits)
    mid, slack = 16 * a5 - 4 * a239, 16 * s5 + 4 * s239
    return Fraction(mid - slack, 1 << bits), Fraction(mid + slack, 1 << bits)


PI_LO, PI_HI = _pi_interval()


def _closed_form(q: Fraction, power: int) -> tuple[Fraction, Fraction]:
    """An exact interval around q pi^power, for q > 0."""
    return q * PI_LO**power, q * PI_HI**power


def _contains(nv: NumericValue, interval: tuple[Fraction, Fraction]) -> bool:
    value, bound = Fraction(nv.value), Fraction(nv.error_bound)
    return value - bound <= interval[0] and interval[1] <= value + bound


class TestMzvNumeric:
    def test_basel_tight_tolerance(self):
        nv = mzv_numeric((2,), 1e-10)
        assert abs(nv.value - PI**2 / 6) <= 1e-10
        assert abs(nv.value - PI**2 / 6) <= nv.error_bound

    def test_three_one(self):
        nv = mzv_numeric((3, 1), 1e-8)
        assert abs(nv.value - PI**4 / 360) <= 1e-8
        assert abs(nv.value - PI**4 / 360) <= nv.error_bound

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            mzv_numeric((1, 2), 1e-6)
        with pytest.raises(ValueError):
            mzsv_numeric((1, 1), 1e-6)

    def test_unreachable_tolerance(self):
        # below the float64 resolution of zeta(2)
        with pytest.raises(ToleranceUnreachable):
            mzv_numeric((2,), 1e-17)

    def test_log_power_tail_within_cap(self):
        # zeta(2,1,1,1,1) = zeta(6) = pi^6/945 by duality
        nv = mzv_numeric((2, 1, 1, 1, 1), 1e-8)
        assert nv.error_bound <= 1e-8
        assert _contains(nv, _closed_form(Fraction(1, 945), 6))

    def test_deterministic(self):
        assert mzv_numeric((3, 2), 1e-9) == mzv_numeric((3, 2), 1e-9)

    def test_keeps_nothing_between_calls(self):
        assert mzv_numeric((2,), 1e-8) == mzv_numeric((2,), 1e-8)
        assert numeric._partial_cache == {}


class TestMzsvNumeric:
    def test_two_two(self):
        nv = mzsv_numeric((2, 2), 1e-6)
        assert abs(nv.value - 7 * PI**4 / 360) <= 1e-6

    def test_depth_one_matches_plain(self):
        star = mzsv_numeric((4,), 1e-10)
        assert abs(star.value - PI**4 / 90) <= 1e-10

    def test_three_one_star(self):
        nv = mzsv_numeric((3, 1), 1e-8)
        truth = float(thmB_coefficient(1)) * PI**4
        assert abs(nv.value - truth) <= nv.error_bound

    def test_star_dominates_strict(self):
        for index in [(2, 2), (3, 1), (2, 1, 1), (4, 2, 1)]:
            star = mzsv_numeric(index, 1e-4)
            plain = mzv_numeric(index, 1e-4)
            assert star.value >= plain.value


class TestErrorBoundsHonest:
    CASES = [
        ((2,), True, PI**2 / 6),
        ((4,), True, PI**4 / 90),
        ((3, 1), True, PI**4 / 360),
        ((2, 2), False, 7 * PI**4 / 360),
        ((4, 4), False, float(Fraction(13, 113400)) * PI**8),
    ]

    @pytest.mark.parametrize("index,strict,truth", CASES)
    def test_bound_dominates_error(self, index, strict, truth):
        for tol in (1e-4, 1e-6):
            nv = mzv_numeric(index, tol) if strict else mzsv_numeric(index, tol)
            assert abs(nv.value - truth) <= nv.error_bound + 1e-12


class TestHarmElemNumeric:
    def test_expansion_of_three_one_star(self):
        nv = harm_elem_numeric(s_map((3, 1)), 1e-8)
        assert abs(nv.value - PI**4 / 72) <= nv.error_bound

    def test_empty(self):
        assert harm_elem_numeric(HarmElem.zero(), 1e-8) == NumericValue(0.0, 0.0)

    def test_unit_word(self):
        nv = harm_elem_numeric(HarmElem.one(), 1e-8)
        assert nv.value == 1.0
        assert nv.error_bound <= 1e-15  # combination rounding slop only

    def test_linearity(self):
        nv = harm_elem_numeric(HarmElem.from_word((2,), 2), 1e-9)
        assert abs(nv.value - PI**2 / 3) <= nv.error_bound

    def test_budget_split_respects_tolerance(self):
        elem = s_map((4, 1, 1))
        nv = harm_elem_numeric(elem, 1e-6)
        truth = sum(
            float(c) * mzv_numeric(w, 1e-10).value for w, c in elem.items()
        )
        assert abs(nv.value - truth) <= 1e-6

    def test_negative_and_fractional_coefficients(self):
        # zeta(2, 2) = 3/4 zeta(4), so both combinations vanish
        for sign in (1, -1):
            elem = HarmElem({(2, 2): Fraction(sign, 3), (4,): Fraction(-sign, 4)})
            nv = harm_elem_numeric(elem, 1e-12)
            assert abs(nv.value) <= nv.error_bound <= 1e-12

    def test_rejects_non_admissible_term(self):
        with pytest.raises(ValueError):
            harm_elem_numeric(HarmElem.from_word((1, 2)), 1e-6)


class TestInsertionSums:
    def test_plain_sum_weight_six(self):
        # sum of zeta over the three 2-insertions into (3,1) is pi^6/5040
        per_word = 3e-6
        total = sum(mzv_numeric(w, per_word).value for w in insertions(1))
        assert abs(total - PI**6 / 5040) <= 1e-6

    def test_star_sum_weight_six(self):
        # the star analogue carries the coefficient 71/15120
        per_word = 1e-5 / 3
        total = sum(mzsv_numeric(w, per_word).value for w in insertions(1))
        assert abs(total - float(Fraction(71, 15120)) * PI**6) <= 1e-6


class TestStarEqualsExpansion:
    INDICES = [
        (2,),
        (3, 1),
        (2, 2),
        (2, 1, 2),
        (3, 1, 1),
        (3, 1, 1, 1),
        (4, 1, 2, 1),
        (2, 2, 1, 1),
    ]

    @pytest.mark.parametrize("index", INDICES)
    def test_star_value_matches_expanded_element(self, index):
        """The star sum equals the evaluated merge expansion (depth <= 4)."""
        tol = 1e-3
        direct = mzsv_numeric(index, tol)
        expanded = harm_elem_numeric(s_map(index), tol)
        diff = abs(direct.value - expanded.value)
        assert diff <= direct.error_bound + expanded.error_bound


class TestJsonShape:
    def test_seventeen_digit_value(self):
        obj = NumericValue(math.pi, 1.5e-9).to_json_obj()
        assert obj["value"] == "3.1415926535897931"
        assert float(obj["error_bound"]) == 1.5e-9


def _grid_indices(seed: int = 24, count: int = 12) -> list[tuple[int, ...]]:
    """Distinct admissible indices of depth <= 4 with parts <= 4."""
    rng = random.Random(seed)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        rest = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        index = (rng.randint(2, 4),) + rest
        if index not in out:
            out.append(index)
    return out


class TestToleranceContract:
    """A returned bound meets the tolerance asked for, or the call raises;
    and the value lies within its bound of the exact interval."""

    @pytest.mark.parametrize("index", _grid_indices())
    def test_seeded_grid(self, index):
        exact = {star: zeta_interval(index, star, bits=128) for star in (False, True)}
        for tol in (1e-4, 1e-8, 1e-12):
            routes = (
                (False, lambda: mzv_numeric(index, tol)),
                (True, lambda: mzsv_numeric(index, tol)),
                (True, lambda: harm_elem_numeric(s_map(index), tol)),
            )
            for star, evaluate in routes:
                try:
                    nv = evaluate()
                except ToleranceUnreachable:
                    continue
                assert nv.error_bound <= tol
                assert _contains(nv, exact[star])


class TestZetaInterval:
    """Exact brackets contain the closed forms, to 30 digits at 120 bits."""

    STAR = (
        [((3, 1) * n, thmB_coefficient(n), 4 * n) for n in (1, 2, 3)]
        + [((2,) * m, thmA_coefficient(1, m), 2 * m) for m in (2, 3, 4)]
        + [((4, 4), thmA_coefficient(2, 2), 8)]
    )
    PLAIN = [
        ((2,), Fraction(1, 6), 2),
        ((2, 1, 1, 1, 1), Fraction(1, 945), 6),
    ] + [((3, 1) * n, mzv_31_repeated(n).coeff, 4 * n) for n in (1, 2)]

    @staticmethod
    def _check(interval, closed):
        lo, hi = interval
        assert 0 < hi - lo <= lo / 10**30
        assert lo <= closed[1] and closed[0] <= hi

    @pytest.mark.parametrize("index,q,power", STAR)
    def test_star_closed_forms(self, index, q, power):
        interval = zeta_interval(index, star=True, bits=120)
        self._check(interval, _closed_form(q, power))

    @pytest.mark.parametrize("index,q,power", PLAIN)
    def test_plain_closed_forms(self, index, q, power):
        interval = zeta_interval(index, bits=120)
        self._check(interval, _closed_form(q, power))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_thmC_insertion_sums(self, n):
        brackets = [zeta_interval(w, star=True, bits=120) for w in insertions(n)]
        interval = (sum(b[0] for b in brackets), sum(b[1] for b in brackets))
        self._check(interval, _closed_form(thmC_coefficient(n), 4 * n + 2))

    def test_machin_pi(self):
        assert PI_LO < PI_HI < PI_LO + Fraction(1, 2**240)
        assert abs(float((PI_LO + PI_HI) / 2) - math.pi) <= 1e-15

    def test_unit_and_invalid_input(self):
        assert zeta_interval(()) == (1, 1)
        with pytest.raises(ValueError):
            zeta_interval((1, 2))
        with pytest.raises(ValueError):
            zeta_interval((2,), bits=0)
