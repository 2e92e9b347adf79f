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

With k the y and z letters above the innermost, f_n <= (1 + ln n)^k / n,
and from n = 2k on the bound shrinks by e^(1/2)/2 < 5/6 a step, so the
tail past N is at most 6 (1 + ln(N+1))^k / ((N+1) 2^(N+1)), with
ln n < n.bit_length().  N is the first cutoff putting that under 2^-P.

A sweep runs in integers, on g_n = f_n 2^(P-n) for n = 1..N, so the
integers shrink as n grows and 2^P lambda = sum g_n.  The innermost y gives
floor(2^P / (n 2^n)); x gives g_n // n; y keeps A_n = sum_{m<n} g_m 2^(m-n)
as A <- (A + g_{n-1}) >> 1 and gives A_n // n; z keeps
T_n = sum_{m<=n} g_m 2^(m-n) as T <- (T >> 1) + g_n and gives T_n // n.
One sweep rounds every step down.  Each step is monotone, so no term
exceeds its exact value, and each term falls short by less than a count c
of units, found by counting floors (each loses under one unit):

* the innermost: c = 1, one floor;
* x: c + 1, since the shortfall of g_n is divided by n >= 1 and one
  floor follows;
* y: A_1 = 0 is exact, and the shortfall d of A obeys
  d_n < (d_{n-1} + c) / 2 + 1, so d_n < c + 2 and the term falls short by
  less than (c + 2) / n + 1 <= c + 3;
* z: at n = 1, T_1 = g_1 and dividing by 1 is exact, so the term falls
  short by less than c; after that d_n < d_{n-1} / 2 + 1 + c, so
  d_n < 2c + 2, and from n = 2 on the term falls short by less than
  (2c + 2) / n + 1 <= c + 2 (the bound at n = 2, smaller after).

So c adds 1 for each x and 3 for each y or z (``_UNITS``), and 2^P lambda
lies in [L, L + N c + 1] with L the swept sum and 1 unit for the tail.
The sweeps run at P plus log2(N c) and two guard bits, so N c units there
are about a quarter of a unit at 2^-P; the convolution of their brackets
is rounded out to 2^-2P.  A float result raises P by fixed steps until the
bracket is at most tol/2 wide, and rounds its midpoint; the bound adds the
larger distance from the midpoint to that float or to the 17 digits that
print it.

Before a bracket's two sweeps run, their work, N terms of P bits through
each letter, is predicted as N x P x letters and refused past a cap with a
ValueError.  Large parts make both N and the letter count large, so an index
such as (5000,) is refused at once; a lower bound of N decides before the
search for N when it already passes the cap.
"""

from __future__ import annotations

import math

from ._base import (
    FrozenRecord,
    ToleranceUnreachable,
    Word,
    format_index,
    is_admissible,
    word_to_xy,
)

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
_GUARD = 2  # bits a sweep carries past P and log2(N c)
# Units of sweep work, N x P x letters over a bracket's two sweeps.  The
# slowest rate measured, about 1.7 ns a unit on the short integers of P near
# 42 bits (0.2 to 0.4 ns on long ones), puts a bracket at the cap near 1 s.
_MAX_WORK = 600_000_000
_SWAP = str.maketrans("xy", "yx")


class NumericValue(FrozenRecord):
    """A float64 estimate together with a bound on its total error.

    The true value lies in [value - error_bound, value + error_bound], and
    within error_bound of the 17 significant digits that print `value`.
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


def _least_cutoff(k: int, prec: int) -> int:
    """A lower bound of :func:`_cutoff`, found without its search: no
    smaller N can put the tail under 2^-prec."""
    return max(2 * k, prec - prec.bit_length())


def _cutoff(k: int, prec: int) -> int:
    """N, the first cutoff that puts the tail of a sweep with `k` y and z
    letters above the innermost under 2^-prec."""
    m = _least_cutoff(k, prec) + 1  # N + 1
    while 6 * (1 + m.bit_length()) ** k << prec > m << m:
        m += 1
    return m - 1


def _sweep_work(cut: int, prec: int, letters: int) -> int:
    """The work of sweeps of `cut` terms in all at `prec` bits through
    `letters` letters, in units of N x P x letters."""
    return cut * prec * letters


def _cutoffs(word: str, prec: int) -> tuple[int, int]:
    """N for the right and the left sweep of `word` at `prec`.  Raises
    ValueError when the two sweeps' work passes _MAX_WORK: first on the
    least N each can take, before the search for N, which is itself slow
    when the sweep has many y and z letters; then on N itself."""
    letters = len(word)
    # y and z letters above the innermost: the left sweep swaps x and y
    ks = (letters - word.count("x") - 1, letters - word.count("y") - 1)
    for cutoff in (_least_cutoff, _cutoff):
        cuts = [cutoff(k, prec) for k in ks]
        terms = sum(cuts)
        work = _sweep_work(terms, prec, letters)
        if work > _MAX_WORK:
            raise ValueError(
                f"sweeps of {terms} terms at {prec} bits over {letters} "
                f"letters need at least {work} units of work, past the cap "
                f"of {_MAX_WORK}"
            )
    return cuts[0], cuts[1]


def _step(letter: str, gs: list[int]) -> list[int]:
    """The terms g_n, n = 1, 2, ..., of the letter's integral over the
    terms `gs`, each rounded down."""
    if letter == "x":
        return [g // n for n, g in enumerate(gs, 1)]
    acc = 0
    if letter == "y":  # A_1 = 0, and A_n = (A_{n-1} + g_{n-1}) >> 1
        return [0] + [(acc := (acc + g) >> 1) // n for n, g in enumerate(gs[:-1], 2)]
    return [(acc := (acc >> 1) + g) // n for n, g in enumerate(gs, 1)]


# units a letter adds to each term's shortfall: see the module docstring
_UNITS = {"x": 1, "y": 3, "z": 3}


def _sweep(word: str, prec: int, cut: int) -> list[tuple[int, int]]:
    """[lo, hi] around 2^prec lambda(s) for each suffix s of `word`, indexed
    by the length of s, summing `cut` terms, no fewer than :func:`_cutoff`
    asks for."""
    one = 1 << prec
    gs = [(one >> n) // n for n in range(1, cut + 1)]
    count = 1
    lam = sum(gs)
    # the empty suffix is exact; the tail adds one unit
    out = [(one, one), (lam, lam + cut * count + 1)]
    for letter in word[-2::-1]:
        gs = _step(letter, gs)
        count += _UNITS[letter]
        lam = sum(gs)
        out.append((lam, lam + cut * count + 1))
    return out


def _zeta_bracket(word: str, prec: int) -> tuple[int, int]:
    """[lo, hi] around 2^(2 prec) zeta(word), from one sweep each way."""
    if not word:  # the unit
        return 1 << 2 * prec, 1 << 2 * prec
    # N c units at the sweeps' precision stay near 2^-_GUARD units at prec:
    # N is about max(prec, 2 len), and c is at most 3 len
    extra = (max(prec, 2 * len(word)) * 3 * len(word)).bit_length() + _GUARD
    work = prec + extra
    right_cut, left_cut = _cutoffs(word, work)
    right = _sweep(word, work, right_cut)
    left = _sweep(word[::-1].translate(_SWAP), work, left_cut)
    lo = hi = 0
    for (a, b), (c, d) in zip(left, reversed(right)):
        lo, hi = lo + a * c, hi + b * d
    return lo >> 2 * extra, -(-hi >> 2 * extra)


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


def _elem_bracket(elem, tol: float) -> tuple[int, int, int]:
    """The exact bracket (lo, hi, scale) of the value of a HarmElem, a linear
    combination of admissible words, at most tol/2 wide."""
    from .words import _decode  # loaded already: the caller holds a HarmElem

    _check_tol(tol)
    terms = [(_letters(_decode(k), True), c) for k, c in elem._num.items()]
    return _bracket(terms, elem._den, tol)


def _printed(value: float) -> tuple[int, int]:
    """The 17-significant-digit decimal that renders `value`, as an integer
    ratio (numerator, denominator)."""
    digits, _, exp = format(value, ".16e").partition("e")
    num, shift = int(digits.replace(".", "")), int(exp) - 16
    return (num * 10**shift, 1) if shift >= 0 else (num, 10**-shift)


def _certify(lo: int, hi: int, scale: int, tol: float) -> NumericValue:
    """The bracket's midpoint rounded to a float, with a bound within `tol`:
    the half-width plus the larger distance from the midpoint to the float
    or to the 17 digits that print it.

    Integer true division rounds correctly, so `value` is the midpoint
    rounded.  For a/b the float or its decimal, that error is exactly
    ((hi - lo) b + |2 scale a - (lo + hi) b|) / (2 scale b); the larger
    one's float is raised one step when cross-multiplication shows it fell
    short."""
    value = (lo + hi) / (2 * scale)
    (n1, d1), (n2, d2) = [
        ((hi - lo) * b + abs(2 * scale * a - (lo + hi) * b), 2 * scale * b)
        for a, b in (value.as_integer_ratio(), _printed(value))
    ]
    err_num, err_den = (n1, d1) if n1 * d2 >= n2 * d1 else (n2, d2)
    bound = err_num / err_den
    b_num, b_den = bound.as_integer_ratio()
    if b_num * err_den < err_num * b_den:
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


def harm_elem_numeric(elem, tol: float = DEFAULT_TOL) -> NumericValue:
    """Evaluate a :class:`~zetastar.words.HarmElem`, a linear combination of
    admissible words: the terms' exact brackets, weighted by the element's
    integer numerators, over its shared denominator."""
    return _certify(*_elem_bracket(elem, tol), tol)


def zeta_interval(index: Word, star: bool = False, bits: int = 128):
    """Fractions lo <= zeta(index) <= hi (zeta-star with `star`), computed
    at precision 2^-bits; the width is a small multiple of that."""
    if bits < 1:
        raise ValueError(f"bits must be positive, got {bits}")
    from fractions import Fraction

    word = _letters(tuple(index), not star)
    lo, hi = _zeta_bracket(word, bits)
    return Fraction(lo, 1 << 2 * bits), Fraction(hi, 1 << 2 * bits)
