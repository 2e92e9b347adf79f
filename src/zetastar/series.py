"""Dense truncated power series over an exact coefficient ring.

Coefficients may be `Fraction` or :class:`~zetastar.cyclotomic.CycloElem`;
the truncation order is fixed at construction and arithmetic never touches
degrees at or beyond it.
"""

from __future__ import annotations

from ._base import FrozenRecord

__all__ = ["PowerSeries"]


class PowerSeries(FrozenRecord):
    """coeffs[d] is the coefficient of x^d; len(coeffs) is the truncation order."""

    __slots__ = ("coeffs",)
    coeffs: tuple

    def __init__(self, coeffs: tuple) -> None:
        if len(coeffs) < 1:
            raise ValueError("truncation order must be positive")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def _check_compatible(self, other: "PowerSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"mismatched truncation orders {self.truncation} != {other.truncation}"
            )
        if type(self.coeffs[0]) is not type(other.coeffs[0]):
            raise ValueError("mismatched coefficient rings")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_compatible(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """Cauchy product truncated at the common order."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_compatible(other)
        T = self.truncation
        zero = self.coeffs[0] * 0
        out = [zero] * T
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(T - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries(tuple(out))
