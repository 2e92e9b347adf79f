"""Exact arithmetic in Q[t]/(t^m - 1) with reduction modulo the m-th
cyclotomic polynomial.

Root-of-unity exponentials are accumulated cheaply in the group ring
Q[t]/(t^m - 1) (an exponent is just an index mod m); the cyclotomic reduction
that decides whether an element is a rational number happens once, at
extraction time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._base import FrozenRecord, NotRationalError

__all__ = [
    "CycloElem",
    "NotRationalError",
    "cyclo_rational_value",
    "cyclo_reduce",
    "cyclotomic_polynomial",
]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree.

    Computed by exact division of t^m - 1 by the product of the cyclotomic
    polynomials of the proper divisors of m.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul_int(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod_monic(num, den)
    if any(rem):
        raise AssertionError(f"inexact cyclotomic division at m={m}")
    return tuple(quot)


def _poly_mul_int(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_monic(num, den):
    """Long division by a monic polynomial: (quotient, remainder)."""
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(rem) - dd)
    for shift in range(len(rem) - 1 - dd, -1, -1):
        c = rem[shift + dd]
        if c:
            quot[shift] = c
            for i, y in enumerate(den):
                rem[shift + i] -= c * y
    return quot, rem[:dd]


class CycloElem(FrozenRecord):
    """Element of Q[t]/(t^m - 1): `coeffs[j]` is the coefficient of t^j.

    Structural equality compares coefficient vectors; two elements represent
    the same complex number exactly when their reductions mod the m-th
    cyclotomic polynomial coincide (see :func:`cyclo_reduce`).
    """

    __slots__ = ("modulus", "coeffs")
    modulus: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, modulus: int, coeffs: tuple[Fraction, ...]) -> None:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if len(coeffs) != modulus:
            raise ValueError("coefficient vector length must equal the modulus")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls, m: int) -> "CycloElem":
        return cls(m, (Fraction(0),) * m)

    @classmethod
    def one(cls, m: int) -> "CycloElem":
        return cls.root_power(m, 0)

    @classmethod
    def root_power(cls, m: int, e: int, scale: Fraction = Fraction(1)) -> "CycloElem":
        """scale * t^(e mod m)."""
        coeffs = [Fraction(0)] * m
        coeffs[e % m] = Fraction(scale)
        return cls(m, tuple(coeffs))

    def _check_compatible(self, other: "CycloElem") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mismatched moduli")

    def __add__(self, other: "CycloElem") -> "CycloElem":
        if not isinstance(other, CycloElem):
            return NotImplemented
        self._check_compatible(other)
        return CycloElem(
            self.modulus,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "CycloElem":
        return CycloElem(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CycloElem") -> "CycloElem":
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CycloElem):
            self._check_compatible(other)
            m = self.modulus
            out = [Fraction(0)] * m
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[(i + j) % m] += a * b
            return CycloElem(m, tuple(out))
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.modulus, tuple(a * other for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()


def cyclo_reduce(e: CycloElem) -> tuple[Fraction, ...]:
    """Remainder of sum_j coeffs[j] t^j modulo the m-th cyclotomic polynomial.

    Returned ascending with trailing zeros trimmed; the empty tuple is 0.
    """
    _, rem = _poly_divmod_monic(e.coeffs, cyclotomic_polynomial(e.modulus))
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def cyclo_rational_value(e: CycloElem) -> Fraction:
    """The rational number an element represents, if it represents one.

    Raises :class:`NotRationalError` when the reduction mod the cyclotomic
    polynomial has positive degree.
    """
    rem = cyclo_reduce(e)
    if len(rem) > 1:
        raise NotRationalError(
            f"element of Q[t]/(t^{e.modulus} - 1) is not rational: remainder {rem}"
        )
    return rem[0] if rem else Fraction(0)
