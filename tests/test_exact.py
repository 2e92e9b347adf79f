import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetastar import exact
from zetastar.exact import (
    PiMultiple,
    bernoulli,
    csc_coefficient,
    parse_rational,
)


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa triangle (yields B1 = +1/2)."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


class TestBernoulli:
    def test_frozen_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_convention_b1(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_odd_vanish(self):
        for n in range(3, 31, 2):
            assert bernoulli(n) == 0

    def test_against_akiyama_tanigawa(self):
        for n in range(0, 31):
            expected = bernoulli_akiyama_tanigawa(n)
            if n == 1:
                expected = -expected  # convention difference, even terms agree
            assert bernoulli(n) == expected

    def test_defining_recurrence(self):
        values = [bernoulli(k) for k in range(201)]
        for n in range(1, 201):
            assert sum(comb(n + 1, k) * values[k] for k in range(n + 1)) == 0, n

    def test_b400_von_staudt_clausen_and_sign(self):
        b = bernoulli(400)
        primes = [p for p in range(2, 402) if is_prime(p) and 400 % (p - 1) == 0]
        assert (b + sum(Fraction(1, p) for p in primes)).denominator == 1
        assert b < 0  # sign (-1)^(k+1) for B_2k, k = 200

    def test_concurrent_fill_from_empty_cache(self, monkeypatch):
        expected = [bernoulli(k) for k in range(301)]  # serial fill
        monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1), Fraction(-1, 2)])
        monkeypatch.setattr(exact, "_zigzag_row", [1])
        start = threading.Barrier(4, timeout=30)
        results = [None] * 4

        def worker(i):
            start.wait()
            results[i] = bernoulli(300)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected[300]] * 4
        assert exact._bernoulli_cache == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


def csc_coefficients_by_series_division(maxj):
    """Independent oracle: reciprocal of sin(x)/x, coefficient recursion."""
    sinc = [Fraction((-1) ** j, factorial(2 * j + 1)) for j in range(maxj + 1)]
    recip = [Fraction(1)] + [Fraction(0)] * maxj
    for d in range(1, maxj + 1):
        recip[d] = -sum(sinc[i] * recip[d - i] for i in range(1, d + 1))
    return recip


class TestCscCoefficient:
    def test_frozen_values(self):
        assert csc_coefficient(0) == 1
        assert csc_coefficient(1) == Fraction(1, 6)
        assert csc_coefficient(2) == Fraction(7, 360)

    def test_against_series_division(self):
        recip = csc_coefficients_by_series_division(8)
        for j in range(9):
            assert csc_coefficient(j) == recip[j]


rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


class TestFieldLaws:
    @given(rationals, rationals, rationals)
    def test_associative_and_distributive(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_multiplicative_inverse(self, a):
        if a != 0:
            assert a * (1 / a) == 1


class TestRationalText:
    @pytest.mark.parametrize(
        "q,text",
        [
            (Fraction(1, 72), "1/72"),
            (Fraction(-691, 2730), "-691/2730"),
            (Fraction(5), "5"),
            (Fraction(0), "0"),
        ],
    )
    def test_format_and_parse(self, q, text):
        assert str(q) == text
        assert parse_rational(text) == q

    @pytest.mark.parametrize("bad", ["", "1.5", "7e2", "1/0", "1/-2", "2/4/8", "a"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(str(q)) == q


class TestPiMultiple:
    def test_str(self):
        assert str(PiMultiple(Fraction(1, 72), 4)) == "1/72 * pi^4"
        assert str(PiMultiple(Fraction(1), 0)) == "1 * pi^0"

    def test_json_round_trip(self):
        p = PiMultiple(Fraction(-7, 360), 8)
        assert PiMultiple.from_json_obj(p.to_json_obj()) == p

    def test_mul_adds_powers(self):
        p = PiMultiple(Fraction(1, 6), 2) * PiMultiple(Fraction(1, 90), 4)
        assert p == PiMultiple(Fraction(1, 540), 6)

    def test_add_requires_matching_power(self):
        with pytest.raises(ValueError):
            PiMultiple(Fraction(1), 2) + PiMultiple(Fraction(1), 4)
        total = PiMultiple(Fraction(1, 3), 2) + PiMultiple(Fraction(1, 6), 2)
        assert total == PiMultiple(Fraction(1, 2), 2)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            PiMultiple(Fraction(1), -2)
