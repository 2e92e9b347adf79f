"""Floating-point evaluation of nested zeta sums with certified error bounds.

Evaluation truncates the outer summation variable at a cutoff N and runs a
dynamic program over the levels: the partial sums of the inner variables are
reused across outer increments, so the total work is O(N * depth) regardless
of depth (implemented as one cumulative-sum pass per level with numpy).

The truncation error is controlled by an elementary integral comparison on
the outer variable.  For an index (k_1, ..., k_d) with t ones among the
inner exponents, the inner sums at outer value m are at most
C (1 + ln m)^t, with C the product of k/(k-1) over the inner exponents
k >= 2 (and an extra 1/t! in the strictly-decreasing case, because the
positions carrying exponent 1 are pairwise distinct there).  The tail is
then at most C times the integral of (1 + ln x)^t x^(-k_1) from N, which a
short integration-by-parts recursion evaluates exactly.  For depth 1 the
summand is monotone, so a two-sided integral bracket applies and the
midpoint is returned with the half-width as the bound.  Reported bounds add
a worst-case float rounding allowance on top of the truncation term.

Values are bitwise deterministic for a fixed index and tolerance: the cutoff
ladder is fixed and summation order is ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import PiMultiple
from .words import HarmElem, Word, format_index, is_admissible

__all__ = [
    "DEFAULT_MAX_TERMS",
    "DEFAULT_TOL",
    "NumericValue",
    "ToleranceUnreachable",
    "harm_elem_numeric",
    "mzsv_numeric",
    "mzv_numeric",
    "pi_multiple_numeric",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_TERMS = 10_000_000

_EPS = 2.220446049250313e-16  # float64 machine epsilon, used generously


class ToleranceUnreachable(ArithmeticError):
    """No cutoff within the term cap brings the tail bound under tolerance."""


@dataclass(frozen=True, slots=True)
class NumericValue:
    """A float64 estimate together with a bound on its total error.

    The true value lies in [value - error_bound, value + error_bound].
    """

    value: float
    error_bound: float

    def to_json_obj(self) -> dict:
        return {
            "value": format(self.value, ".17g"),
            "error_bound": format(self.error_bound, ".17g"),
        }


def _log_weight(index: Word) -> tuple[int, float]:
    """(t, C): the count of inner exponents equal to 1 and the product of
    k/(k-1) over the inner exponents k >= 2."""
    t = 0
    c = 1.0
    for k in index[1:]:
        if k == 1:
            t += 1
        else:
            c *= k / (k - 1)
    return t, c


def _tail_bound(index: Word, n_cut: int, strict: bool) -> float:
    """Upper bound on the discarded tail beyond outer cutoff `n_cut`."""
    k1 = index[0]
    if len(index) == 1:
        # half-width of the two-sided integral bracket (monotone summand)
        hi = n_cut ** (1 - k1) / (k1 - 1)
        lo = (n_cut + 1) ** (1 - k1) / (k1 - 1)
        return (hi - lo) / 2
    t, c = _log_weight(index)
    logn = 1.0 + math.log(n_cut)
    if t >= k1 * logn:
        return math.inf  # integrand not yet decreasing; cutoff too small
    # I_j = integral from n_cut to infinity of (1 + ln x)^j x^(-k1) dx
    integral = n_cut ** (1 - k1) / (k1 - 1)
    for j in range(1, t + 1):
        integral = (logn**j) * n_cut ** (1 - k1) / (k1 - 1) + j * integral / (k1 - 1)
    if strict:
        integral /= math.factorial(t)
    return c * integral


def _tail_midpoint(index: Word, n_cut: int) -> float:
    """Centre of the depth-1 integral bracket, added to the partial sum."""
    k1 = index[0]
    hi = n_cut ** (1 - k1) / (k1 - 1)
    lo = (n_cut + 1) ** (1 - k1) / (k1 - 1)
    return (hi + lo) / 2


def _choose_cutoff(index: Word, tol: float, strict: bool, max_terms: int) -> int:
    """Smallest rung of the fixed ladder whose tail bound meets `tol`."""
    ladder = []
    n = 1024
    while n < max_terms:
        ladder.append(n)
        n *= 4
    ladder.append(max_terms)
    for n_cut in ladder:
        if _tail_bound(index, n_cut, strict) <= tol:
            return n_cut
    raise ToleranceUnreachable(
        f"tail bound {_tail_bound(index, max_terms, strict):.3e} at the "
        f"{max_terms}-term cap exceeds tolerance {tol:.3e} for index {index}"
    )


_partial_cache: dict[tuple[Word, int, bool], float] = {}


def _partial_sum(index: Word, n_cut: int, strict: bool) -> float:
    """The truncated nested sum with outer variable at most `n_cut`."""
    key = (index, n_cut, strict)
    cached = _partial_cache.get(key)
    if cached is not None:
        return cached
    import numpy as np  # here, not at module top: exact commands never load it

    m = np.arange(1.0, n_cut + 1)
    acc = np.cumsum(m ** float(-index[-1]))
    for k in index[-2::-1]:
        if strict:
            acc = np.concatenate(([0.0], acc[:-1]))
        acc = np.cumsum(m ** float(-k) * acc)
    value = float(acc[-1])
    _partial_cache[key] = value
    return value


def _rounding_allowance(depth_: int, n_cut: int, value: float) -> float:
    # worst-case sequential-summation bound, one cumsum pass per level
    return 4.0 * depth_ * n_cut * _EPS * (abs(value) + 1.0)


def _check_budget(tol: float, max_terms: int) -> None:
    """Reject a tolerance that is not positive (NaN included) or an empty
    term cap."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be positive, got {max_terms}")


def _nested_sum_numeric(
    index: Word, tol: float, strict: bool, max_terms: int
) -> NumericValue:
    _check_budget(tol, max_terms)
    index = tuple(index)
    if not index:
        return NumericValue(1.0, 0.0)  # the unit word evaluates to 1 exactly
    if not is_admissible(index):
        raise ValueError(
            f"index {format_index(index)} is not admissible "
            "(the leading part must be >= 2)"
        )
    n_cut = _choose_cutoff(index, tol, strict, max_terms)
    value = _partial_sum(index, n_cut, strict)
    if len(index) == 1:
        value += _tail_midpoint(index, n_cut)
    truncation = _tail_bound(index, n_cut, strict)
    return NumericValue(
        value, truncation + _rounding_allowance(len(index), n_cut, value)
    )


def mzv_numeric(
    index: Word, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS
) -> NumericValue:
    """Evaluate the strictly-decreasing nested sum for an admissible index."""
    return _nested_sum_numeric(index, tol, strict=True, max_terms=max_terms)


def mzsv_numeric(
    index: Word, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS
) -> NumericValue:
    """Evaluate the weakly-decreasing (star) nested sum; dominates the strict
    sum termwise."""
    return _nested_sum_numeric(index, tol, strict=False, max_terms=max_terms)


def harm_elem_numeric(
    elem: HarmElem, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS
) -> NumericValue:
    """Evaluate a linear combination of admissible words.

    The tolerance is split across terms as tol / (#terms * max(1, |coeff|)),
    so the combined truncation budget never exceeds `tol`; the reported bound
    accumulates the per-term bounds and the float rounding of the combination.
    """
    _check_budget(tol, max_terms)
    terms = elem.items()
    if not terms:
        return NumericValue(0.0, 0.0)
    n_terms = len(terms)
    total = 0.0
    bound = 0.0
    magnitude = 0.0
    for word, coeff in terms:
        c = float(coeff)
        per_term = tol / (n_terms * max(1.0, abs(c)))
        nv = _nested_sum_numeric(word, per_term, strict=True, max_terms=max_terms)
        total += c * nv.value
        bound += abs(c) * nv.error_bound
        magnitude += abs(c * nv.value)
    bound += 2.0 * n_terms * _EPS * (magnitude + 1.0)
    return NumericValue(total, bound)


def pi_multiple_numeric(p: PiMultiple) -> NumericValue:
    """Float value of q * pi^w; the only error is float rounding."""
    value = float(p.coeff) * math.pi**p.pi_power
    bound = (p.pi_power + 4.0) * _EPS * abs(value)
    return NumericValue(value, bound)
