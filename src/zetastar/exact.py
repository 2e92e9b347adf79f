"""Exact rational building blocks: Bernoulli numbers, cosecant Laurent
coefficients, and values of the form q * pi^w.

Rationals are `fractions.Fraction`, which stores arbitrary-precision values
in lowest terms with a positive denominator.  Bernoulli numbers are built
from integer zigzag (tangent) numbers and only become Fractions at the end.
All values are immutable and all functions are pure, so the module is safe
for concurrent use: the one shared table, the Bernoulli cache, grows only
under a lock and only by whole, finished extensions.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction
from itertools import accumulate
from math import factorial

from ._base import FrozenRecord

__all__ = [
    "PiMultiple",
    "bernoulli",
    "csc_coefficient",
    "parse_rational",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(s: str) -> Fraction:
    """Inverse of ``str`` on a Fraction. Accepts only "p" or "p/q" forms."""
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)


# Bernoulli numbers B_0, B_1, ... with the B_1 = -1/2 convention.  The odd
# convention never matters downstream (only even indices are consumed), it is
# fixed purely for determinism.  `_zigzag_row` is the last row of the
# Seidel-Entringer boustrophedon triangle reached so far: row r ends in the
# zigzag number E_r, and B_2k needs the tangent number T_k = E_(2k-1).
_bernoulli_cache: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_zigzag_row: list[int] = [1]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """B_n, memoized; B_1 = -1/2 and B_odd = 0 for odd n >= 3.

    Even values come from integer tangent numbers (Brent and Harvey,
    arXiv:1108.0286): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).  Each new
    T_k costs two boustrophedon rows, O(k) integer additions, so filling the
    cache to n costs O(n^2) additions however the calls are spread.  An
    extension is built in local variables and published under a lock, so
    concurrent callers never see a partial or doubled fill.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    cache = _bernoulli_cache
    if n < len(cache):
        return cache[n]
    with _bernoulli_lock:
        row = _zigzag_row
        fill = []
        for m in range(len(cache), n + 1):
            if m % 2:
                fill.append(Fraction(0))
                continue
            k = m // 2
            while len(row) < m:  # advance to row 2k-1, which ends in T_k
                row = list(accumulate(reversed(row), initial=0))
            fill.append(Fraction((-1) ** (k - 1) * m * row[-1], 4**k * (4**k - 1)))
        cache.extend(fill)
        _zigzag_row[:] = row
    return cache[n]


def csc_coefficient(n: int) -> Fraction:
    """Coefficient of x^(2n-1) in the Laurent expansion of csc x.

    Equals (-1)^(n-1) (2^(2n) - 2) B_{2n} / (2n)!.  In particular the n = 0
    term gives the leading 1/x coefficient, 1.
    """
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    sign = -1 if (n - 1) % 2 else 1
    return Fraction(sign * (2 ** (2 * n) - 2)) * bernoulli(2 * n) / factorial(2 * n)


class PiMultiple(FrozenRecord):
    """An exact value q * pi^w with rational q and integer w >= 0."""

    __slots__ = ("coeff", "pi_power")
    coeff: Fraction
    pi_power: int

    def __init__(self, coeff: Fraction, pi_power: int) -> None:
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        if pi_power < 0:
            raise ValueError("pi_power must be nonnegative")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_power", pi_power)

    def __str__(self) -> str:
        return f"{self.coeff} * pi^{self.pi_power}"

    def __mul__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        return PiMultiple(self.coeff * other.coeff, self.pi_power + other.pi_power)

    def __add__(self, other: "PiMultiple") -> "PiMultiple":
        if not isinstance(other, PiMultiple):
            return NotImplemented
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms"
            )
        return PiMultiple(self.coeff + other.coeff, self.pi_power)

    def to_json_obj(self) -> dict:
        return {"coeff": str(self.coeff), "pi_power": self.pi_power}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PiMultiple":
        return cls(parse_rational(obj["coeff"]), int(obj["pi_power"]))
