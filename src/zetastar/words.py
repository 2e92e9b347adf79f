"""Words in the generators z_k, the harmonic (stuffle) product, and the
expansion map that rewrites a zeta-star value as a sum of plain zeta words.

A word is a tuple of positive integers (k_1, ..., k_n) standing for the
monomial z_{k_1} ... z_{k_n}; the empty tuple is the unit.  A
:class:`HarmElem` is a finite rational linear combination of words, kept in
canonical sparse form (no zero coefficients), so equality of elements is
plain equality of the term maps.  Words order lexicographically by their
part sequences and all rendered output is sorted that way.

Everything is immutable and pure; the internal caches are idempotent fills,
so concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .exact import parse_rational

__all__ = [
    "HarmElem",
    "ParseError",
    "Word",
    "depth",
    "format_index",
    "harmonic_product",
    "insertions",
    "is_admissible",
    "parse_index",
    "s1_substitute",
    "s_map",
    "s_map_via_s1",
    "weight",
    "word_to_xy",
    "xy_to_word",
]

Word = tuple[int, ...]


def weight(word: Word) -> int:
    """Sum of the parts; 0 for the empty word."""
    return sum(word)


def depth(word: Word) -> int:
    """Number of parts; 0 for the empty word."""
    return len(word)


def is_admissible(word: Word) -> bool:
    """True when the leading part is >= 2 (the nested series converges).

    The empty word is the unit and counts as admissible.
    """
    return not word or word[0] >= 2


class ParseError(ValueError):
    """Malformed index text; carries the position of the offending part."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (part {position})")
        self.position = position


def parse_index(s: str) -> Word:
    """Parse comma-separated positive integers, whitespace tolerated.

    Rejects empty input, empty parts (so also trailing commas), zeros and
    negative numbers.
    """
    if not s.strip():
        raise ParseError("empty index", 1)
    parts = []
    for pos, chunk in enumerate(s.split(","), start=1):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty part", pos)
        if not chunk.isdigit():
            raise ParseError(f"not a positive integer: {chunk!r}", pos)
        value = int(chunk)
        if value < 1:
            raise ParseError("parts must be >= 1", pos)
        parts.append(value)
    return tuple(parts)


def format_index(word: Word) -> str:
    return ",".join(str(k) for k in word)


class HarmElem:
    """A finite Q-linear combination of words."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | None = None) -> None:
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(word)] = coeff
        self._terms = clean

    @classmethod
    def zero(cls) -> "HarmElem":
        return cls()

    @classmethod
    def one(cls) -> "HarmElem":
        return cls.from_word(())

    @classmethod
    def from_word(cls, word: Iterable[int], coeff: Fraction | int = 1) -> "HarmElem":
        return cls({tuple(word): Fraction(coeff)})

    def items(self) -> list[tuple[Word, Fraction]]:
        """Terms sorted by word in the canonical (descending) output order."""
        return sorted(self._terms.items(), reverse=True)

    def words(self) -> list[Word]:
        return sorted(self._terms, reverse=True)

    def coeff(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HarmElem):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "HarmElem") -> "HarmElem":
        if not isinstance(other, HarmElem):
            return NotImplemented
        acc = dict(self._terms)
        for word, coeff in other._terms.items():
            new = acc.get(word, _ZERO) + coeff
            if new:
                acc[word] = new
            else:
                acc.pop(word, None)
        out = HarmElem.__new__(HarmElem)
        out._terms = acc
        return out

    def __neg__(self) -> "HarmElem":
        out = HarmElem.__new__(HarmElem)
        out._terms = {w: -c for w, c in self._terms.items()}
        return out

    def __sub__(self, other: "HarmElem") -> "HarmElem":
        if not isinstance(other, HarmElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HarmElem):
            return harmonic_product(self, other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return HarmElem.zero()
            out = HarmElem.__new__(HarmElem)
            out._terms = {w: c * other for w, c in self._terms.items()}
            return out
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for word, coeff in self.items():
            body = " ".join(f"z{k}" for k in word) if word else "1"
            if coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff} {body}"
            chunks.append(text)
        out = chunks[0]
        for text in chunks[1:]:
            if text.startswith("-"):
                out += " - " + text[1:]
            else:
                out += " + " + text
        return out

    def __repr__(self) -> str:
        return f"HarmElem({self._terms!r})"

    def to_json_obj(self) -> list[dict]:
        return [
            {"word": list(word), "coeff": str(coeff)}
            for word, coeff in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "HarmElem":
        acc: dict[Word, Fraction] = {}
        for entry in obj:
            word = tuple(int(k) for k in entry["word"])
            acc[word] = acc.get(word, _ZERO) + parse_rational(entry["coeff"])
        return cls(acc)


_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _stuffle_words(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    """Harmonic product of two bare words, as (word, multiplicity) pairs.

    Recursion: z_p w1 * z_q w2 = z_p (w1 * z_q w2) + z_q (z_p w1 * w2)
    + z_{p+q} (w1 * w2), with the empty word as two-sided unit.
    """
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc: dict[Word, int] = {}
    p, q = u[0], v[0]
    for word, mult in _stuffle_words(u[1:], v):
        key = (p,) + word
        acc[key] = acc.get(key, 0) + mult
    for word, mult in _stuffle_words(u, v[1:]):
        key = (q,) + word
        acc[key] = acc.get(key, 0) + mult
    for word, mult in _stuffle_words(u[1:], v[1:]):
        key = (p + q,) + word
        acc[key] = acc.get(key, 0) + mult
    return tuple(sorted(acc.items()))


def harmonic_product(u: HarmElem, v: HarmElem) -> HarmElem:
    """Bilinear extension of the stuffle recursion to linear combinations."""
    acc: dict[Word, Fraction] = {}
    for w1, c1 in u._terms.items():
        for w2, c2 in v._terms.items():
            c12 = c1 * c2
            for word, mult in _stuffle_words(w1, w2):
                new = acc.get(word, _ZERO) + c12 * mult
                if new:
                    acc[word] = new
                else:
                    acc.pop(word, None)
    out = HarmElem.__new__(HarmElem)
    out._terms = acc
    return out


@lru_cache(maxsize=None)
def s_map(word: Word) -> HarmElem:
    """Sum of all 2^(n-1) merges of adjacent runs of the word's parts.

    Defined by the recursion over the first merged block,
    S(z_{k_1} ... z_{k_n}) = sum_j z_{k_1 + ... + k_j} S(z_{k_{j+1}} ... z_{k_n}),
    with S(1) = 1.  Every image word keeps coefficient +1, weight is
    preserved, and admissible input yields only admissible image words.
    Memoized on suffixes, so repeated expansion is linear in the output size.
    """
    word = tuple(word)
    if not word:
        return HarmElem.one()
    acc: dict[Word, Fraction] = {}
    running = 0
    for j in range(1, len(word) + 1):
        running += word[j - 1]
        for tail, coeff in s_map(word[j:])._terms.items():
            key = (running,) + tail
            acc[key] = acc.get(key, _ZERO) + coeff
    out = HarmElem.__new__(HarmElem)
    out._terms = acc
    return out


def word_to_xy(word: Word) -> str:
    """z_k becomes x^(k-1) y; the whole word becomes the concatenation."""
    return "".join("x" * (k - 1) + "y" for k in word)


def xy_to_word(s: str) -> Word:
    """Inverse of :func:`word_to_xy`; valid only for strings ending in y."""
    parts = []
    run = 0
    for ch in s:
        if ch == "x":
            run += 1
        elif ch == "y":
            parts.append(run + 1)
            run = 0
        else:
            raise ValueError(f"invalid letter {ch!r} in xy-word")
    if run:
        raise ValueError("xy-word does not end in y")
    return tuple(parts)


def s1_substitute(xyword: str) -> list[str]:
    """Image of an xy-word under the substitution x -> x, y -> x + y.

    Expanded as a list of 2^(#y) xy-words, each carrying coefficient +1.
    The order enumerates the y-positions' choices binary-counter style with
    x chosen before y, which makes the output deterministic.
    """
    results = [""]
    for ch in xyword:
        if ch == "x":
            results = [r + "x" for r in results]
        elif ch == "y":
            results = [r + "x" for r in results] + [r + "y" for r in results]
        else:
            raise ValueError(f"invalid letter {ch!r} in xy-word")
    return results


def s_map_via_s1(word: Word) -> HarmElem:
    """Compute the merge expansion through the two-letter alphabet.

    Writes the word as F y, expands the substitution automorphism on F,
    appends the final y and converts back.  Independent route used to
    cross-check :func:`s_map`.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word has no trailing y")
    xy = word_to_xy(word)
    acc: dict[Word, Fraction] = {}
    for image in s1_substitute(xy[:-1]):
        key = xy_to_word(image + "y")
        acc[key] = acc.get(key, _ZERO) + 1
    return HarmElem(acc)


def insertions(n: int) -> list[Word]:
    """The 2n+1 words obtained by inserting a single 2 into (3,1) repeated n
    times, ordered by insertion position from left to right."""
    if n < 1:
        raise ValueError("n must be positive")
    base = (3, 1) * n
    return [base[:pos] + (2,) + base[pos:] for pos in range(2 * n + 1)]
