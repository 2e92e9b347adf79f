"""Certified evaluation of multiple zeta and zeta-star values.

Hoelder convolution at t = 1/2 (Borwein, Bradley, Broadhurst and Lisonek,
Trans. AMS 353, 2001).  An index is a word in x = dt/t and y = dt/(1-t)
(:func:`~zetastar.words.word_to_xy`); a star value turns every y but the
last into z = x + y.  Splitting the integral over [0, 1] at 1/2 gives

    zeta(w) = sum_j lambda(swap(reverse(w[:j]))) lambda(w[j:]),

with lambda the integral over [0, 1/2] and swap exchanging x and y.  Each
family is the suffixes of one word, found in one sweep of the series
lambda = sum f_n 2^-n: the innermost y gives f_n = 1/n, x divides f_n by n,
y gives (1/n) sum_{m<n} f_m and z (1/n) sum_{m<=n} f_m.

Sweeps run in integers scaled by 2^P, rounded down and up: an exact
bracket.  With k the y and z letters above the innermost, f_n <=
(1 + ln n)^k / n, and from n = 2k on the bound shrinks by e^(1/2)/2 < 5/6
a step, so the tail past N is at most 6 (1 + ln(N+1))^k / ((N+1) 2^(N+1)),
with ln n < n.bit_length().  N is the first cutoff putting that under
2^-P.  A float result raises P by fixed steps until the bracket is at most
tol/2 wide, and rounds its midpoint; the bound adds that rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._base import FrozenRecord, ToleranceUnreachable
from .words import HarmElem, Word, format_index, is_admissible, word_to_xy

__all__ = [
    "DEFAULT_TOL",
    "NumericValue",
    "ToleranceUnreachable",
    "harm_elem_numeric",
    "mzsv_numeric",
    "mzv_numeric",
    "zeta_interval",
]

DEFAULT_TOL = 1e-8

_STEP = 16  # bits: P's margin over the tolerance, and its increment
_MAX_PREC = 4096
_SWAP = str.maketrans("xy", "yx")


class NumericValue(FrozenRecord):
    """A float64 estimate together with a bound on its total error.

    The true value lies in [value - error_bound, value + error_bound].
    """

    __slots__ = ("value", "error_bound")
    value: float
    error_bound: float

    def __init__(self, value: float, error_bound: float) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error_bound", error_bound)

    def to_json_obj(self) -> dict:
        return {
            "value": format(self.value, ".17g"),
            "error_bound": format(self.error_bound, ".17g"),
        }


def _letters(index: Word, strict: bool) -> str:
    """The admissible index as a word in x, y and z, outermost first."""
    if not is_admissible(index):
        raise ValueError(
            f"index {format_index(index)} is not admissible "
            "(the leading part must be >= 2)"
        )
    xy = word_to_xy(index)
    return xy if strict else xy[:-1].replace("y", "z") + xy[-1:]


def _sweep(word: str, prec: int) -> list[tuple[int, int]]:
    """[lo, hi] around 2^prec lambda(s) for each suffix s of `word`, indexed
    by the length of s."""
    k = len(word) - word.count("x") - 1
    m = max(2 * k, prec - prec.bit_length()) + 1  # N + 1; no smaller N can do
    while 6 * (1 + m.bit_length()) ** k << prec > m << m:
        m += 1
    ns = range(1, m)
    sums = []
    for one in (1 << prec, -1 << prec):  # f_n, then -f_n, rounded down
        fs = [one // n for n in ns]
        lam = [sum(f >> n for n, f in zip(ns, fs))]
        for letter in word[-2::-1]:
            if letter != "x":
                acc, inner, fs = 0, fs, []
                for f in inner:
                    acc += f
                    fs.append(acc if letter == "z" else acc - f)
            fs = [f // n for n, f in zip(ns, fs)]
            lam.append(sum(f >> n for n, f in zip(ns, fs)))
        sums.append(lam)
    # the empty suffix is exact; the upper ends add the tail, at most one unit
    return [(1 << prec,) * 2] + [(a, 1 - b) for a, b in zip(*sums)]


def _zeta_bracket(word: str, prec: int) -> tuple[int, int]:
    """[lo, hi] around 2^(2 prec) zeta(word), from two sweeps."""
    if not word:  # the unit
        return 1 << 2 * prec, 1 << 2 * prec
    right = _sweep(word, prec)
    left = _sweep(word[::-1].translate(_SWAP), prec)
    lo = hi = 0
    for (a, b), (c, d) in zip(left, reversed(right)):
        lo, hi = lo + a * c, hi + b * d
    return lo, hi


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not positive (NaN included)."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _bracket(terms: list, den: int, tol: float) -> tuple[int, int, int]:
    """(lo, hi, scale) with lo/scale <= sum(c zeta(word) for word, c in
    terms) / den <= hi/scale and the bracket at most tol/2 wide.  With
    every c positive, lo >= 0: the sweeps' lower ends are floors of
    positive terms."""
    tol_num, tol_den = min(tol, 1.0).as_integer_ratio()  # inf has no ratio
    prec = (tol_den // tol_num).bit_length() + _STEP
    while True:
        lo = hi = 0
        for word, c in terms:
            a, b = _zeta_bracket(word, prec)
            lo, hi = (lo + c * a, hi + c * b) if c > 0 else (lo + c * b, hi + c * a)
        scale = den << 2 * prec
        if 2 * (hi - lo) * tol_den <= tol_num * scale:
            return lo, hi, scale
        prec += _STEP
        if prec > _MAX_PREC:
            raise ToleranceUnreachable(f"tolerance {tol:.3e} needs {prec} bits")


def _elem_bracket(elem: HarmElem, tol: float) -> tuple[int, int, int]:
    """The exact bracket (lo, hi, scale) of the value of a linear combination
    of admissible words, at most tol/2 wide."""
    _check_tol(tol)
    terms = [(_letters(w, True), c) for w, c in elem._num.items()]
    return _bracket(terms, elem._den, tol)


def _certify(lo: int, hi: int, scale: int, tol: float) -> NumericValue:
    """The bracket's midpoint rounded to a float, with a bound covering the
    half-width and that rounding, within `tol`."""
    mid = Fraction(lo + hi, 2 * scale)
    value = float(mid)
    err = Fraction(hi - lo, 2 * scale) + abs(Fraction(value) - mid)
    bound = float(err)
    if bound < err:
        bound = math.nextafter(bound, math.inf)
    if bound > tol:
        raise ToleranceUnreachable(f"bound {bound:.3e} exceeds tolerance {tol:.3e}")
    return NumericValue(value, bound)


# Always empty: no CLI process evaluates an index twice.  The name stays for
# the benchmark tracer's counters; it goes once the benchmark reads a stats
# stream instead.
_partial_cache: dict = {}


def _nested_sum_numeric(index: Word, tol: float, strict: bool) -> NumericValue:
    _check_tol(tol)
    bracket = _bracket([(_letters(tuple(index), strict), 1)], 1, tol)
    return _certify(*bracket, tol)


def mzv_numeric(index: Word, tol: float = DEFAULT_TOL) -> NumericValue:
    """Evaluate the strictly-decreasing nested sum for an admissible index."""
    return _nested_sum_numeric(index, tol, strict=True)


def mzsv_numeric(index: Word, tol: float = DEFAULT_TOL) -> NumericValue:
    """Evaluate the weakly-decreasing (star) nested sum; dominates the strict
    sum termwise."""
    return _nested_sum_numeric(index, tol, strict=False)


def harm_elem_numeric(elem: HarmElem, tol: float = DEFAULT_TOL) -> NumericValue:
    """Evaluate a linear combination of admissible words: the terms' exact
    brackets, weighted by the element's integer numerators, over its shared
    denominator."""
    return _certify(*_elem_bracket(elem, tol), tol)


def zeta_interval(index: Word, star: bool = False, bits: int = 128):
    """Fractions lo <= zeta(index) <= hi (zeta-star with `star`), computed
    at precision 2^-bits; the width is a small multiple of that."""
    if bits < 1:
        raise ValueError(f"bits must be positive, got {bits}")
    word = _letters(tuple(index), not star)
    lo, hi = _zeta_bracket(word, bits)
    return Fraction(lo, 1 << 2 * bits), Fraction(hi, 1 << 2 * bits)
