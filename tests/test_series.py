from fractions import Fraction
from math import factorial

import pytest

from zetastar.cyclotomic import CycloElem
from zetastar.exact import csc_coefficient
from zetastar.series import PowerSeries

F = Fraction


def rational_series(*values):
    return PowerSeries(tuple(F(v) for v in values))


class TestRationalSeries:
    def test_difference_of_squares(self):
        a = rational_series(1, 1, 0)
        b = rational_series(1, -1, 0)
        assert a * b == rational_series(1, 0, -1)

    def test_geometric_telescopes(self):
        geo = rational_series(1, 1, 1, 1, 1)
        one_minus_x = rational_series(1, -1, 0, 0, 0)
        assert geo * one_minus_x == rational_series(1, 0, 0, 0, 0)

    def test_cosecant_times_sine_is_one(self):
        # x csc x and sin(x)/x as series in x^2, through degree 12
        order = 6
        x_csc = PowerSeries(tuple(csc_coefficient(j) for j in range(order + 1)))
        sinc = PowerSeries(
            tuple(F((-1) ** j, factorial(2 * j + 1)) for j in range(order + 1))
        )
        expected = PowerSeries((F(1),) + (F(0),) * order)
        assert x_csc * sinc == expected

    def test_addition(self):
        assert rational_series(1, 2) + rational_series(3, -2) == rational_series(4, 0)

    def test_mismatched_truncation(self):
        with pytest.raises(ValueError):
            rational_series(1, 0) * rational_series(1, 0, 0)

    def test_mismatched_ring(self):
        cyclo = PowerSeries((CycloElem.one(3), CycloElem.zero(3)))
        with pytest.raises(ValueError):
            cyclo * rational_series(1, 0)

    def test_requires_positive_truncation(self):
        with pytest.raises(ValueError):
            PowerSeries(())


class TestCycloSeries:
    def test_root_powers_multiply(self):
        m = 3
        t = lambda e: CycloElem.root_power(m, e)
        a = PowerSeries((t(0), t(1), CycloElem.zero(m)))
        b = PowerSeries((t(0), t(2), CycloElem.zero(m)))
        prod = a * b
        assert prod.coeffs[0] == t(0)
        assert prod.coeffs[1] == t(1) + t(2)
        assert prod.coeffs[2] == t(0)  # t^1 * t^2 = t^3 = 1
