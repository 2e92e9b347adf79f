"""Dense truncated power series over an exact coefficient ring.

Coefficients may be `Fraction` or :class:`~zetastar.cyclotomic.CycloElem`;
the truncation order is fixed at construction and arithmetic never touches
degrees at or beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PowerSeries"]


@dataclass(frozen=True, slots=True)
class PowerSeries:
    """coeffs[d] is the coefficient of x^d; len(coeffs) is the truncation order."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("truncation order must be positive")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

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
