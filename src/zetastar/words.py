"""Words in the generators z_k, the harmonic (stuffle) product, and the
expansion map that rewrites a zeta-star value as a sum of plain zeta words.

A word is a tuple of positive integers (k_1, ..., k_n) standing for the
monomial z_{k_1} ... z_{k_n}; the empty tuple is the unit.  A
:class:`HarmElem` is a finite rational linear combination of words, stored
as integer numerators over one shared denominator in lowest terms (no zero
numerators, no factor common to the denominator and every numerator).  That
form is canonical, so equality of elements is plain equality of the
denominators and the numerator maps, and the stuffle product and the merge
expansion run on integers; coefficients become Fractions only on the way
out.  Words order lexicographically by their part sequences and all
rendered output is sorted that way.

Inside this module a word is held as a ``str`` with one code point per
part, ``"".join(map(chr, word))``.  A string caches its hash and compares
by memcmp, so a word is hashed once however often the products look it up,
and prefixing a letter is one concatenation.  Strings order by code point,
which is the tuples' lexicographic order, so sorting the strings sorts the
words.  Words become tuples again only on the way out (``items``,
``words``, iteration, ``coeff``, rendering and JSON) and for the numeric
evaluator, through :func:`_decode`.  The price is a limit: a part is at
most 1114111 (0x10FFFF, the largest code point).  That covers the parts
given, the merged parts of a product and the block sums of an expansion;
past it a ValueError names the limit, and :func:`parse_index` refuses such
parts up front.

Everything is immutable and pure.  The stuffle of two words and the merge
expansion of a word are each built bottom-up over a table of suffixes that
lives for one call, and nothing is kept between calls, so memory holds
only the results the caller keeps and concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

# the index syntax lives in _base, so cli and numeric need not load this module
from ._base import (
    _MAX_PART,
    ParseError,
    Word,
    format_index,
    is_admissible,
    parse_index,
    word_to_xy,
)

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


def _out_of_range(what: str, part: int) -> ValueError:
    limit = f"word parts are at most {_MAX_PART}"
    return ValueError(f"{what} {part} is out of range: {limit}")


def _encode(word: Word) -> str:
    """The key of a word (any sequence of ints): one code point per part."""
    try:
        return "".join(map(chr, word))
    except (ValueError, OverflowError):
        bad = next(k for k in word if not 0 <= k <= _MAX_PART)
        raise _out_of_range("part", bad) from None


def _decode(key: str) -> Word:
    """The word of a key; inverse of :func:`_encode`."""
    return tuple(map(ord, key))


def weight(word: Word) -> int:
    """Sum of the parts; 0 for the empty word."""
    return sum(word)


def depth(word: Word) -> int:
    """Number of parts; 0 for the empty word."""
    return len(word)


class HarmElem:
    """A finite Q-linear combination of words.

    Stored as integer numerators over one shared positive denominator, in
    lowest terms: ``_num`` maps the key of each word (see :func:`_encode`)
    to a nonzero int, ``_den`` is >= 1, and the gcd of ``_den`` with every
    numerator is 1 (the zero element is ``{}`` over 1).  That form is
    canonical, so equality compares the denominators and the numerator maps.  ``items`` and ``coeff`` hand the
    coefficients out as Fractions.  Coefficients come in as ints or
    Fractions; anything else, a float included, raises TypeError.  A word
    with a part past the limit raises ValueError, whatever its coefficient.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Word, Fraction | int] | None = None) -> None:
        clean: dict[str, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    # a float would be stored as its exact binary fraction
                    kind = type(coeff).__name__
                    raise TypeError(f"coefficient must be int or Fraction, got {kind}")
                key = _encode(word)
                coeff = Fraction(coeff)
                if coeff:
                    clean[key] = coeff
        # Over the lcm of the reduced denominators this is already in lowest
        # terms: for each prime p of den, the term whose denominator holds p's
        # full power keeps a numerator prime to p.
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {
            w: c.numerator * (den // c.denominator) for w, c in clean.items()
        }
        self._den = den

    @classmethod
    def zero(cls) -> "HarmElem":
        return cls()

    @classmethod
    def one(cls) -> "HarmElem":
        return cls.from_word(())

    @classmethod
    def from_word(cls, word: Iterable[int], coeff: Fraction | int = 1) -> "HarmElem":
        word = tuple(word)
        if type(coeff) is int:
            # already an integer numerator over 1: skip the Fraction round trip
            key = _encode(word)
            return _elem({key: coeff} if coeff else {}, 1)
        return cls({word: coeff})

    def items(self) -> list[tuple[Word, Fraction]]:
        """Terms sorted by word in the canonical (descending) output order."""
        num, den = self._num, self._den
        return [(_decode(k), Fraction(num[k], den)) for k in sorted(num, reverse=True)]

    def words(self) -> list[Word]:
        return list(map(_decode, sorted(self._num, reverse=True)))

    def coeff(self, word: Word) -> Fraction:
        return Fraction(self._num.get(_encode(tuple(word)), 0), self._den)

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HarmElem):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __add__(self, other: "HarmElem") -> "HarmElem":
        if not isinstance(other, HarmElem):
            return NotImplemented
        den = lcm(self._den, other._den)
        scale, other_scale = den // self._den, den // other._den
        acc = {w: c * scale for w, c in self._num.items()}
        for word, coeff in other._num.items():
            new = acc.get(word, 0) + coeff * other_scale
            if new:
                acc[word] = new
            else:
                del acc[word]
        return _elem(acc, den)

    def __neg__(self) -> "HarmElem":
        return _elem({w: -c for w, c in self._num.items()}, self._den)

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
            q = Fraction(other)
            top = q.numerator
            return _elem(
                {w: c * top for w, c in self._num.items()}, self._den * q.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self._num:
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
        return f"HarmElem({dict(self.items())!r})"

    def to_json_obj(self) -> list[dict]:
        return [
            {"word": list(word), "coeff": str(coeff)}
            for word, coeff in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "HarmElem":
        from .exact import parse_rational

        acc: dict[Word, Fraction] = {}
        for entry in obj:
            word = tuple(int(k) for k in entry["word"])
            acc[word] = acc.get(word, 0) + parse_rational(entry["coeff"])
        return cls(acc)


def _elem(num: dict[str, int], den: int) -> HarmElem:
    """Wrap nonzero integer numerators over a positive denominator, cancelling
    their common factor with it (none is possible when den is 1)."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {w: c // g for w, c in num.items()}
    out = HarmElem.__new__(HarmElem)
    out._num = num
    out._den = den
    return out


# A pass-through that keeps nothing: a session deck repeated about 3% of its
# stuffle lookups, while the retained results held most of its memory.
# cache_info() and cache_clear() stay for the benchmark tracer's counters;
# the decorator goes once the benchmark reads a stats stream instead.
@lru_cache(maxsize=0)
def _stuffle_words(u: str, v: str) -> tuple[tuple[str, int], ...]:
    """Harmonic product of two bare words, given and returned as keys, as
    distinct (key, multiplicity) pairs in no particular order.

    Recursion: z_p w1 * z_q w2 = z_p (w1 * z_q w2) + z_q (z_p w1 * w2)
    + z_{p+q} (w1 * w2), with the empty word as two-sided unit.  It runs
    bottom-up over the suffix positions (i, j) of u and v, two rows of the
    table at a time, so the sub-products live only for this call.  Each
    cell is a pair of parallel lists, keys and multiplicities; a letter is
    prepended by concatenation, and the merged letter is
    chr(ord(p) + ord(q)).  Within each of the three groups the words are
    distinct and z_{p+q} differs from z_p and z_q, so the groups are
    concatenated as they are, except where p == q: only there can two words
    coincide, and a dict adds their multiplicities.
    """
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    top = ord(max(u)) + ord(max(v))  # the largest merged part, in every product
    if top > _MAX_PART:
        raise _out_of_range("merged part", top)
    m = len(v)
    below = [([v[j:]], [1]) for j in range(m + 1)]
    for i in range(len(u) - 1, -1, -1):
        p = u[i]
        head = ord(p)
        row = [None] * m + [([u[i:]], [1])]
        for j in range(m - 1, -1, -1):
            q = v[j]
            down_words, down_mults = below[j]
            right_words, right_mults = row[j + 1]
            if p == q:
                cell = dict(zip([p + w for w in down_words], down_mults))
                for w, c in zip(right_words, right_mults):
                    key = p + w
                    cell[key] = cell.get(key, 0) + c
                words, mults = list(cell), list(cell.values())
            else:
                words = [p + w for w in down_words]
                words += [q + w for w in right_words]
                mults = down_mults + right_mults
            diag_words, diag_mults = below[j + 1]
            merged = chr(head + ord(q))
            words += [merged + w for w in diag_words]
            mults += diag_mults
            row[j] = (words, mults)
        below = row
    words, mults = below[0]
    # through a list, so the tuple is allocated at its final size: tuple() of
    # a zip guesses a size and shrinks it, which leaves one more tuple per
    # call on the interpreter's free lists (up to 2000 per size)
    return tuple([*zip(words, mults)])


def harmonic_product(u: HarmElem, v: HarmElem) -> HarmElem:
    """Bilinear extension of the stuffle recursion to linear combinations.

    Runs on the integer numerators: each pair of terms adds its numerator
    product times the word multiplicities, and the result is reduced once
    over the product of the two denominators.
    """
    acc: dict[str, int] = {}
    for w1, c1 in u._num.items():
        for w2, c2 in v._num.items():
            c12 = c1 * c2
            for word, mult in _stuffle_words(w1, w2):
                acc[word] = acc.get(word, 0) + c12 * mult
    return _elem({word: c for word, c in acc.items() if c}, u._den * v._den)


# A pass-through that keeps nothing, like the one on _stuffle_words and for
# the same tracer; it goes with that one.  A session deck repeated about one
# expansion in ten, all of words of depth <= 4, while one entry can hold
# 8192 words.
@lru_cache(maxsize=0)
def s_map(word: Word) -> HarmElem:
    """Sum of all 2^(n-1) merges of adjacent runs of the word's parts.

    Defined by the recursion over the first merged block,
    S(z_{k_1} ... z_{k_n}) = sum_j z_{k_1 + ... + k_j} S(z_{k_{j+1}} ... z_{k_n}),
    with S(1) = 1.  Every image word keeps coefficient +1, weight is
    preserved, and admissible input yields only admissible image words.
    The image words are distinct (their first parts differ between blocks),
    so each is stored with numerator 1 and nothing is added.  The images of
    the suffixes are built in one loop from the shortest up, each word's key
    as chr(running block sum) prepended to a suffix's key, and dropped on
    return, so an expansion costs time linear in its output size.  A block
    sum past the limit, that is a weight past it, raises ValueError.
    """
    word = tuple(word)
    total = sum(word)  # the largest block sum, the image of one block
    if total > _MAX_PART:
        raise _out_of_range("block sum", total)
    n = len(word)
    images: list[list[str]] = [[] for _ in range(n)] + [[""]]
    for i in range(n - 1, -1, -1):
        out = images[i]
        running = 0
        for j in range(i, n):
            running += word[j]
            head = chr(running)
            out.extend([head + tail for tail in images[j + 1]])
    return _elem(dict.fromkeys(images[0], 1), 1)


def xy_to_word(s: str) -> Word:
    """Inverse of :func:`word_to_xy`; valid only for strings ending in y."""
    runs = s.split("y")
    # the y's number one fewer than the runs; every letter is an x or a y
    # exactly when the x's make up the rest
    if s.count("x") + len(runs) - 1 != len(s):
        bad = next(ch for ch in s if ch not in "xy")
        raise ValueError(f"invalid letter {bad!r} in xy-word")
    if runs.pop():
        raise ValueError("xy-word does not end in y")
    return tuple([len(run) + 1 for run in runs])


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
    appends the final y and converts back: each run x^a of F ended by a y
    becomes the letter chr(a + 1).  Independent route used to cross-check
    :func:`s_map`; a weight past the limit raises ValueError before any
    string is built.
    """
    word = tuple(word)
    if not word:
        raise ValueError("empty word has no trailing y")
    total = weight(word)  # the largest letter, from the image with no y in F
    if total > _MAX_PART:
        raise _out_of_range("weight", total)
    acc: dict[str, int] = {}
    for image in s1_substitute(word_to_xy(word)[:-1]):
        key = "".join([chr(len(run) + 1) for run in image.split("y")])
        acc[key] = acc.get(key, 0) + 1
    return _elem(acc, 1)


def insertions(n: int) -> list[Word]:
    """The 2n+1 words obtained by inserting a single 2 into (3,1) repeated n
    times, ordered by insertion position from left to right."""
    if n < 1:
        raise ValueError("n must be positive")
    base = (3, 1) * n
    return [base[:pos] + (2,) + base[pos:] for pos in range(2 * n + 1)]
