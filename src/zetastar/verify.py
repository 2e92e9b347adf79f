"""Executable certification of the algebraic identities behind the closed
forms: stuffle commutativity/associativity, the merge-expansion product
identities, the insertion-set identities, the generating-function route to
the repeated-index coefficients, and the numeric product homomorphism.

Every check returns a :class:`Report`; a report with an empty failure list
certifies that each tested instance held exactly (or, for the numeric check,
that the exact brackets of both sides meet).  Identity checks always compare
canonical :class:`~zetastar.words.HarmElem` values, never term streams, so
ordering artifacts cannot produce false results.

Random words come from :class:`WordSampler`, a 64-bit linear congruential
generator (state <- 6364136223846793005 * state + 1442695040888963407
mod 2^64, draws from the top 32 bits) so that sequences are reproducible
across platforms.  Depth and parts are uniform on small documented ranges;
constrained samples (weight caps, admissibility) are drawn by rejection.
"""

from __future__ import annotations

from fractions import Fraction

from ._base import Record
from .closed_forms import thmA_coefficient
from .cyclotomic import CycloElem, cyclo_rational_value, cyclo_reduce
from .exact import csc_coefficient
from .numeric import DEFAULT_MAX_TERMS, _check_budget, _elem_bracket
from .series import PowerSeries
from .words import HarmElem, Word, s_map, s_map_via_s1

__all__ = [
    "Report",
    "WordSampler",
    "verify_genfunc_thmA",
    "verify_s_consistency",
    "verify_stuffle_laws",
    "verify_thm6",
    "verify_thm7",
    "verify_z_homomorphism",
]


class Report(Record):
    """Outcome of one verification run."""

    __slots__ = ("check", "params", "cases", "failures")
    check: str
    params: dict
    cases: int
    failures: list[dict]

    def __init__(
        self,
        check: str,
        params: dict,
        cases: int = 0,
        failures: list[dict] | None = None,
    ) -> None:
        self.check = check
        self.params = params
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, passed: bool, **detail) -> None:
        self.cases += 1
        if not passed:
            self.failures.append(detail)

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
        }


class WordSampler:
    """Deterministic word source backed by the documented 64-bit LCG."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def _next_u32(self) -> int:
        self._state = (self._MULT * self._state + self._INC) & self._MASK
        return self._state >> 32

    def uniform(self, lo: int, hi: int) -> int:
        """Integer uniform on [lo, hi] (inclusive)."""
        return lo + self._next_u32() % (hi - lo + 1)

    def word(
        self,
        max_depth: int,
        max_part: int,
        max_weight: int | None = None,
        admissible: bool = False,
    ) -> Word:
        """Depth uniform on [1, max_depth], parts uniform on [1, max_part];
        weight caps and admissibility enforced by rejection."""
        while True:
            d = self.uniform(1, max_depth)
            w = tuple(self.uniform(1, max_part) for _ in range(d))
            if max_weight is not None and sum(w) > max_weight:
                continue
            if admissible and w[0] < 2:
                continue
            return w


def verify_stuffle_laws(seed: int, trials: int, max_weight: int) -> Report:
    """Commutativity and associativity of the harmonic product on random
    word triples (depth <= 3, parts <= 4, weight <= max_weight)."""
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    report = Report(
        "stuffle", {"seed": seed, "trials": trials, "max_weight": max_weight}
    )
    sampler = WordSampler(seed)
    for trial in range(trials):
        u, v, w = (
            HarmElem.from_word(sampler.word(3, 4, max_weight)) for _ in range(3)
        )
        uv = u * v
        comm = uv == v * u
        assoc = uv * w == u * (v * w)
        report.record(
            comm and assoc,
            trial=trial,
            words=[str(u), str(v), str(w)],
            commutative=comm,
            associative=assoc,
        )
    return report


def _check_letters(n: int, *letters: int) -> None:
    if min(letters) < 1:
        raise ValueError(f"letters must be positive, got {letters}")
    if n < 0:
        raise ValueError("n must be nonnegative")


def verify_thm6(a: int, b: int, n: int) -> Report:
    """The two product identities expanding the merge map of alternating
    words: with u = (a, b) and the head h = () ("alternating") or (b,)
    ("tailed"),

      S(h u^n) = sum_i (h u^i) * S((a+b)^(n-i)).
    """
    _check_letters(n, a, b)
    report = Report("thm6", {"a": a, "b": b, "n": n})
    for identity, head in (("alternating", ()), ("tailed", (b,))):
        lhs = s_map(head + (a, b) * n)
        rhs = HarmElem.zero()
        for i in range(n + 1):
            merged = s_map((a + b,) * (n - i))
            rhs = rhs + HarmElem.from_word(head + (a, b) * i) * merged
        report.record(lhs == rhs, identity=identity, lhs=str(lhs), rhs=str(rhs))
    return report


def verify_thm7(a: int, b: int, c: int, n: int) -> Report:
    """The pair of identities behind the insertion-set evaluation.

    With A(i,j) = (a,b)^i c (a,b)^j and B(i,j) = (b,a)^i c (b,a)^j b, each
    identity has a head h and level-k insertion words I(k):

      plain:   h = (),   I(k) = A(i, k-i) for i <= k and a B(i, k-1-i) for i < k;
      wrapped: h = (b,), I(k) = b A(i, k-i) and B(i, k-i) for i <= k;

      sum_{w in I(n)} S(w)
        = sum_k 2 z_{(a+b)k+c} * S(h (a,b)^(n-k)) - S((a+b)^(n-k)) * sum I(k).

    Summations with an empty range are zero.
    """
    _check_letters(n, a, b, c)
    report = Report("thm7", {"a": a, "b": b, "c": c, "n": n})

    def A(i: int, j: int) -> Word:
        return (a, b) * i + (c,) + (a, b) * j

    def B(i: int, j: int) -> Word:
        return (b, a) * i + (c,) + (b, a) * j + (b,)

    def plain(k: int) -> list[Word]:
        return [A(i, k - i) for i in range(k + 1)] + [
            (a,) + B(i, k - 1 - i) for i in range(k)
        ]

    def wrapped(k: int) -> list[Word]:
        return [(b,) + A(i, k - i) for i in range(k + 1)] + [
            B(i, k - i) for i in range(k + 1)
        ]

    for identity, head, level in (("plain", (), plain), ("wrapped", (b,), wrapped)):
        lhs = sum(map(s_map, level(n)), HarmElem.zero())
        rhs = HarmElem.zero()
        for k in range(n + 1):
            block = sum(map(HarmElem.from_word, level(k)), HarmElem.zero())
            rhs = rhs + 2 * (
                HarmElem.from_word(((a + b) * k + c,)) * s_map(head + (a, b) * (n - k))
            )
            rhs = rhs - s_map((a + b,) * (n - k)) * block
        report.record(lhs == rhs, identity=identity, lhs=str(lhs), rhs=str(rhs))
    return report


def verify_genfunc_thmA(m: int, max_n: int) -> Report:
    """Generating-function route to the repeated-index star coefficients.

    Builds the m-fold product of the series sum_j csc_coefficient(j)
    t^(k j mod m) x^(2j) (k = 0..m-1) over Q[t]/(t^m - 1), truncated past
    degree 2 m max_n.  The product telescopes against the sine product, so
    every coefficient whose degree is not a multiple of 2m must vanish after
    cyclotomic reduction, and the coefficient of x^(2mn) must reduce to the
    rational produced by the direct composition sum.
    """
    if m < 1 or max_n < 1:
        raise ValueError("m and max_n must be positive")
    report = Report("genfunc", {"m": m, "max_n": max_n})
    order = 2 * m * max_n + 1
    factors = []
    for k in range(m):
        coeffs = [CycloElem.zero(m) for _ in range(order)]
        for j in range(0, (order - 1) // 2 + 1):
            coeffs[2 * j] = CycloElem.root_power(m, k * j, csc_coefficient(j))
        factors.append(PowerSeries(tuple(coeffs)))
    product = factors[0]
    for factor in factors[1:]:
        product = product * factor
    for d in range(1, order):
        coeff = product.coeffs[d]
        if d % (2 * m):
            reduced = cyclo_reduce(coeff)
            report.record(
                not reduced,
                degree=d,
                expected="0",
                got=str([str(f) for f in reduced]),
            )
        else:
            n = d // (2 * m)
            got = cyclo_rational_value(coeff)
            expected = thmA_coefficient(m, n)
            report.record(
                got == expected, degree=d, expected=str(expected), got=str(got)
            )
    return report


def verify_s_consistency(max_depth: int, max_part: int) -> Report:
    """Agreement of the suffix-recursion and two-letter-substitution routes
    to the merge expansion: exhaustive through depth 6, seeded samples
    (120 per depth) beyond."""
    if max_depth < 1:
        raise ValueError("max_depth must be positive")
    if max_part < 1:
        raise ValueError("max_part must be positive")
    report = Report("sconsist", {"max_depth": max_depth, "max_part": max_part})

    def check(word: Word) -> None:
        direct = s_map(word)
        via_xy = s_map_via_s1(word)
        report.record(
            direct == via_xy, word=list(word), lhs=str(direct), rhs=str(via_xy)
        )

    def exhaust(prefix: Word, remaining: int) -> None:
        if prefix:
            check(prefix)
        if remaining:
            for part in range(1, max_part + 1):
                exhaust(prefix + (part,), remaining - 1)

    exhaust((), min(max_depth, 6))
    if max_depth > 6:
        sampler = WordSampler(1729)
        for d in range(7, max_depth + 1):
            for _ in range(120):
                check(tuple(sampler.uniform(1, max_part) for _ in range(d)))
    return report


def verify_z_homomorphism(
    seed: int,
    trials: int,
    tol: float = 0.25,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> Report:
    """Numeric check that evaluation turns the harmonic product into the
    product of values, on exact brackets: the bracket of Z(w1 * w2) must
    meet the product of the brackets of Z(w1) and Z(w2).

    Pairs are admissible random words of depth <= 3, parts <= 4 and
    weight <= 6.  Each bracket is a pair of integers over a common scale,
    at most `tol`/2 wide, and the comparison is integer cross-multiplication,
    so no float decides a verdict and any positive `tol` tests the
    identity.  The bracket of each distinct single word is computed once
    per call.  Only the 4096-bit precision cap or `max_terms` stops a run
    (ToleranceUnreachable).  The coarse default keeps the evaluations short.
    Failure records give each side's bracket as two exact fractions.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    _check_budget(tol, max_terms)
    report = Report("zhom", {"seed": seed, "trials": trials, "tol": tol})
    sampler = WordSampler(seed)
    singles: dict[Word, tuple[int, int, int]] = {}

    def single(word: Word) -> tuple[int, int, int]:
        if word not in singles:
            singles[word] = _elem_bracket(HarmElem.from_word(word), tol, max_terms)
        return singles[word]

    for trial in range(trials):
        w1 = sampler.word(3, 4, max_weight=6, admissible=True)
        w2 = sampler.word(3, 4, max_weight=6, admissible=True)
        product = HarmElem.from_word(w1) * HarmElem.from_word(w2)
        lo, hi, scale = _elem_bracket(product, tol, max_terms)
        lo1, hi1, scale1 = single(w1)
        lo2, hi2, scale2 = single(w2)
        # every lower end is >= 0, so the product bracket is [lo1 lo2, hi1 hi2]
        lo12, hi12, scale12 = lo1 * lo2, hi1 * hi2, scale1 * scale2
        report.record(
            lo * scale12 <= hi12 * scale and lo12 * scale <= hi * scale12,
            trial=trial,
            w1=list(w1),
            w2=list(w2),
            lhs=[str(Fraction(lo, scale)), str(Fraction(hi, scale))],
            rhs=[str(Fraction(lo12, scale12)), str(Fraction(hi12, scale12))],
        )
    return report
