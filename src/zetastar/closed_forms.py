"""Closed evaluations of repeated-index zeta and zeta-star values as exact
rational multiples of pi powers, with independent symmetric-function oracles.

Three families are covered, labelled to match the CLI:

* thm1 / thmA: the index (2m, ..., 2m) with n repetitions, for the plain and
  the star value respectively (pi power 2mn);
* thmB: the index (3, 1, ..., 3, 1) with 2n entries, star value (pi power 4n);
* thmC: the sum of star values over all 2n+1 insertions of a single 2 into
  that string (pi power 4n+2).

Each family also has a second, independent route (Newton's identities on the
power sums zeta(2mk), or the product relations connecting the families), so
every number here can be cross-checked exactly.

All functions are deterministic pure functions of their integer arguments and
cache only immutable results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .cyclotomic import CycloElem, cyclo_rational_value
from .exact import PiMultiple, bernoulli

__all__ = [
    "alpha",
    "euler_zeta_even",
    "mzv_31_repeated",
    "mzv_repeated_2m",
    "newton_e_oracle",
    "newton_h_oracle",
    "thm1_C",
    "thm3_sum",
    "thmA_coefficient",
    "thmA_cyclo_sum",
    "thmB_coefficient",
    "thmB_via_relation",
    "thmC_coefficient",
    "thmC_via_relation",
]


@lru_cache(maxsize=None)
def thm1_C(m: int, n: int) -> Fraction:
    """Recurrence constants for zeta({2m}^n): C_0 = 1 and
    C_n = (1/2n) sum_{l=1}^{n} (-1)^l C(2mn, 2ml) B_{2ml} C_{n-l}."""
    if m < 1:
        raise ValueError("m must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    # filled from below, each call finding the ones before it memoized, so
    # the stack does not grow with n
    C = [thm1_C(m, j) for j in range(n)]
    total = sum(
        (-1) ** l * comb(2 * m * n, 2 * m * l) * bernoulli(2 * m * l) * C[n - l]
        for l in range(1, n + 1)
    )
    return total / (2 * n)


def mzv_repeated_2m(m: int, n: int) -> PiMultiple:
    """zeta({2m}^n) = C_n^(m) (2 pi i)^(2mn) / (2mn)! as an exact pi multiple.

    (2 pi i)^(2mn) = (-4)^(mn) pi^(2mn), so the coefficient stays rational.
    """
    w = 2 * m * n
    coeff = thm1_C(m, n) * Fraction(-4) ** (m * n) / factorial(w)
    return PiMultiple(coeff, w)


def euler_zeta_even(k: int) -> PiMultiple:
    """Euler's closed form zeta(2k) = (-1)^(k+1) B_{2k} (2 pi)^(2k) / (2 (2k)!)."""
    if k < 1:
        raise ValueError("k must be positive")
    sign = 1 if (k + 1) % 2 == 0 else -1
    coeff = sign * bernoulli(2 * k) * Fraction(2 ** (2 * k), 2 * factorial(2 * k))
    return PiMultiple(coeff, 2 * k)


def _scaled_blocks(top: int) -> tuple[int, list[int]]:
    """(L, unit) with unit[j] = L (2^{2j} - 2) B_{2j} for j = 0..top, all
    integers: L is the lcm of the Bernoulli denominators involved."""
    bern = [bernoulli(2 * j) for j in range(top + 1)]
    L = lcm(*(b.denominator for b in bern))
    unit = [
        (2 ** (2 * j) - 2) * b.numerator * (L // b.denominator)
        for j, b in enumerate(bern)
    ]
    return L, unit


@lru_cache(maxsize=None)
def thmA_cyclo_sum(m: int, n: int) -> CycloElem:
    """The group-ring accumulation behind :func:`thmA_coefficient`.

    Sums, over every composition n_0 + ... + n_{m-1} = mn,
    (-1)^(m(n-1)) prod_k (2^{2 n_k} - 2) B_{2 n_k} / (2 n_k)! into the
    coefficient of t^(sum_l l n_l mod m) of Q[t]/(t^m - 1).

    The factors are put over the shared denominator L^m (2mn)! (L the lcm of
    the Bernoulli denominators involved), which turns 1 / prod (2 n_k)! into
    the product of the binomials C(2 rem, 2 n_k) slot by slot.  A dynamic
    program then runs over the slots in integers, keeping one partial sum per
    state (mn left to distribute, exponent mod m): O(m^4 n^2) products
    instead of one per composition.  The per-residue sums become Fractions
    only at the end.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = m * n
    L, unit = _scaled_blocks(total)
    # states[rem][exp]: summed products over the slots placed so far
    states = [[0] * m for _ in range(total + 1)]
    states[total][0] = 1
    for slot in range(m):
        nxt = [[0] * m for _ in range(total + 1)]
        for rem, by_exp in enumerate(states):
            live = [(exp, v) for exp, v in enumerate(by_exp) if v]
            if not live:
                continue
            # the last slot takes whatever is left
            for nk in range(rem + 1) if slot < m - 1 else (rem,):
                weight = unit[nk] * comb(2 * rem, 2 * nk)
                target = nxt[rem - nk]
                shift = slot * nk
                for exp, v in live:
                    target[(exp + shift) % m] += v * weight
        states = nxt
    sign = -1 if (m * (n - 1)) % 2 else 1
    den = L**m * factorial(2 * total)
    return CycloElem(m, tuple(Fraction(sign * a, den) for a in states[0]))


def thmA_coefficient(m: int, n: int) -> Fraction:
    """The rational q with zeta-star({2m}^n) = q pi^(2mn).

    The root-of-unity sum collapses to a rational because it is fixed by the
    Galois action; a :class:`~zetastar.cyclotomic.NotRationalError` here would
    mean the accumulation itself is buggy.
    """
    return cyclo_rational_value(thmA_cyclo_sum(m, n))


def _power_sums(m: int, n: int) -> list[Fraction]:
    # p_k = zeta(2mk) / pi^(2mk) for k = 1..n (index 0 unused).
    return [Fraction(0)] + [euler_zeta_even(m * k).coeff for k in range(1, n + 1)]


def newton_h_oracle(m: int, n: int) -> Fraction:
    """Independent route to zeta-star({2m}^n) / pi^(2mn).

    The star value is the complete homogeneous symmetric function h_n of the
    variables 1/i^(2m), so Newton's identity n h_n = sum_k h_{n-k} p_k
    rebuilds it from the Euler values p_k = zeta(2mk).
    """
    p = _power_sums(m, n)
    h = [Fraction(1)]
    for j in range(1, n + 1):
        h.append(sum(h[j - k] * p[k] for k in range(1, j + 1)) / j)
    return h[n]


def newton_e_oracle(m: int, n: int) -> Fraction:
    """Independent route to zeta({2m}^n) / pi^(2mn), via the elementary
    symmetric function recursion n e_n = sum_k (-1)^(k-1) e_{n-k} p_k."""
    p = _power_sums(m, n)
    e = [Fraction(1)]
    for j in range(1, n + 1):
        e.append(
            sum((-1) ** (k - 1) * e[j - k] * p[k] for k in range(1, j + 1)) / j
        )
    return e[n]


@lru_cache(maxsize=None)
def alpha(n: int) -> Fraction:
    """The double Bernoulli sum
    sum_{n0 + n1 = 2n} (-1)^(n1) (2^{2 n0} - 2) B_{2 n0} / (2 n0)!
                                (2^{2 n1} - 2) B_{2 n1} / (2 n1)!.

    Summed in integers over the shared denominator L^2 (4n)!, where
    1 / ((2 n0)! (2 n1)!) becomes C(4n, 2 n1).  This is a direct sum, kept
    apart from thmA(2, n): the two agree, and the relation routes of thmB and
    thmC check one against the other.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    L, unit = _scaled_blocks(2 * n)
    total = sum(
        (-1) ** n1 * unit[2 * n - n1] * unit[n1] * comb(4 * n, 2 * n1)
        for n1 in range(2 * n + 1)
    )
    return Fraction(total, L**2 * factorial(4 * n))


def thmB_coefficient(n: int) -> Fraction:
    """The rational q with zeta-star({3,1}^n, 2n entries) = q pi^(4n).

    Direct formula: sum_i 2/(4i+2)! alpha(n-i); the inner double sum of the
    closed form is exactly :func:`alpha`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(Fraction(2, factorial(4 * i + 2)) * alpha(n - i) for i in range(n + 1))


def thmB_via_relation(n: int) -> Fraction:
    """Second route to the same number, through the product relation
    zeta-star({3,1}^n) = sum_i zeta({3,1}^i) zeta-star({4}^(n-i))
    with zeta({3,1}^i) = 2 pi^(4i)/(4i+2)!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(
        Fraction(2, factorial(4 * i + 2)) * thmA_coefficient(2, n - i)
        for i in range(n + 1)
    )


def mzv_31_repeated(n: int) -> PiMultiple:
    """zeta({3,1}^n, 2n entries) = 2 pi^(4n) / (4n+2)!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return PiMultiple(Fraction(2, factorial(4 * n + 2)), 4 * n)


def thm3_sum(n: int) -> PiMultiple:
    """Sum of zeta over all 2n+1 insertions of a 2 into {3,1}^n:
    pi^(4n+2) / (4n+3)!."""
    if n < 1:
        raise ValueError("n must be positive")
    return PiMultiple(Fraction(1, factorial(4 * n + 3)), 4 * n + 2)


def thmC_coefficient(n: int) -> Fraction:
    """The rational q with sum over the 2-insertion set of zeta-star values
    equal to q pi^(4n+2):
    sum_k { 2^(4k+3) B_{4k+2}/(4k+2)! sum_i alpha(n-k-i)/(4i+2)!
            - alpha(n-k)/(4k+3)! }.

    Summed in integers over one shared denominator, as :func:`alpha` is.
    With A the lcm of the alpha(j) denominators (j <= n), every inner sum
    sits over A (4n+2)!, where 1/(4i+2)! becomes the integer (4n+2)!/(4i+2)!;
    with L the lcm of the Bernoulli denominators, the whole sum sits over
    L A (4n+2)! (4n+3)!.  Each inner sum depends only on j = n - k and is
    formed once.  This is a direct sum, kept apart from thmB so that
    :func:`thmC_via_relation` stays a second route.
    """
    if n < 1:
        raise ValueError("n must be positive")
    alphas = [alpha(j) for j in range(n + 1)]
    A = lcm(*(a.denominator for a in alphas))
    scaled = [a.numerator * (A // a.denominator) for a in alphas]
    top = factorial(4 * n + 2)
    weights = [top // factorial(4 * i + 2) for i in range(n + 1)]
    bern = [bernoulli(4 * k + 2) for k in range(n + 1)]
    L = lcm(*(b.denominator for b in bern))
    last = factorial(4 * n + 3)
    total = 0
    for k, b in enumerate(bern):
        j = n - k
        # A (4n+2)! sum_i alpha(j-i)/(4i+2)!
        inner = sum(scaled[j - i] * weights[i] for i in range(j + 1))
        total += (
            2 ** (4 * k + 3) * b.numerator * (L // b.denominator)
            * (last // factorial(4 * k + 2)) * inner
        )
        total -= scaled[j] * L * top * (last // factorial(4 * k + 3))
    return Fraction(total, L * A * top * last)


def thmC_via_relation(n: int) -> Fraction:
    """Second route to the insertion-set star sum, through
    2 sum_k zeta(4k+2) zeta-star({3,1}^(n-k))
      - sum_k zeta-star({4}^(n-k)) (insertion-set zeta sum at k).

    The k = 0 boundary term inserts a 2 into the empty string, which we read
    as zeta(2); conveniently this equals the k = 0 value pi^2/3! of the
    insertion-sum formula, so a single expression covers every k.
    """
    if n < 1:
        raise ValueError("n must be positive")
    first = 2 * sum(
        euler_zeta_even(2 * k + 1).coeff * thmB_coefficient(n - k)
        for k in range(n + 1)
    )
    second = sum(
        thmA_coefficient(2, n - k) * Fraction(1, factorial(4 * k + 3))
        for k in range(n + 1)
    )
    return first - second
