import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetastar import words as words_module
from zetastar.words import (
    HarmElem,
    ParseError,
    depth,
    format_index,
    harmonic_product,
    insertions,
    is_admissible,
    parse_index,
    s1_substitute,
    s_map,
    s_map_via_s1,
    weight,
    word_to_xy,
    xy_to_word,
)

F = Fraction
# the word algebra's internal form: a word's key holds one code point per part
key_of = words_module._encode
word_of = words_module._decode


def stuffle_by_lattice_paths(u, v):
    """Independent oracle: enumerate monotone lattice paths with diagonal
    steps; right steps consume u, up steps consume v, diagonals merge."""
    acc = {}

    def walk(i, j, word):
        if i == len(u) and j == len(v):
            acc[word] = acc.get(word, 0) + 1
            return
        if i < len(u):
            walk(i + 1, j, word + (u[i],))
        if j < len(v):
            walk(i, j + 1, word + (v[j],))
        if i < len(u) and j < len(v):
            walk(i + 1, j + 1, word + (u[i] + v[j],))

    walk(0, 0, ())
    return acc


def as_dict(elem):
    return {w: c for w, c in elem.items()}


def oracle_on_keys(u, v):
    """The lattice-path oracle for two keys, as {key: multiplicity}."""
    oracle = stuffle_by_lattice_paths(word_of(u), word_of(v))
    return {key_of(w): c for w, c in oracle.items()}


def stuffle_of_combinations(u, v):
    """Reference product of two {word: Fraction} maps: the bilinear extension
    of the lattice-path oracle, summed in Fractions, zero terms dropped."""
    acc = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            for word, mult in stuffle_by_lattice_paths(w1, w2).items():
                acc[word] = acc.get(word, 0) + c1 * c2 * mult
    return {w: c for w, c in acc.items() if c}


class TestWordBasics:
    def test_weight_depth(self):
        assert weight((3, 1, 3, 1)) == 8 and depth((3, 1, 3, 1)) == 4
        assert weight((2, 3, 1)) == 6 and depth((2, 3, 1)) == 3
        assert weight((4,) * 3) == 12 and depth((4,) * 3) == 3
        assert weight(()) == 0 and depth(()) == 0

    def test_admissible(self):
        assert is_admissible((2, 1, 1))
        assert not is_admissible((1, 2))
        assert is_admissible(())


class TestParseIndex:
    def test_plain(self):
        assert parse_index("3,1,3,1") == (3, 1, 3, 1)

    def test_whitespace(self):
        assert parse_index(" 2 , 2 ") == (2, 2)

    @pytest.mark.parametrize(
        "bad,pos",
        [
            ("3,0,1", 2), ("", 1), ("3,1,", 3), (",2", 1), ("2,-1", 2), ("a,b", 1),
            # a superscript two and an Arabic-Indic three are Unicode digits
            ("2,\u00b2", 2), ("\u0663,1", 1),
        ],
    )
    def test_rejects(self, bad, pos):
        with pytest.raises(ParseError) as err:
            parse_index(bad)
        assert err.value.position == pos

    def test_word_limit(self):
        assert parse_index("1114111") == (1114111,)
        for bad, pos in [("1114112", 1), ("2,99999999999999999999", 2)]:
            with pytest.raises(ParseError, match="parts must be <= 1114111") as err:
                parse_index(bad)
            assert err.value.position == pos

    def test_format_round_trip(self):
        assert parse_index(format_index((5, 1, 2))) == (5, 1, 2)


class TestHarmonicProduct:
    def test_unit_laws(self):
        w = HarmElem.from_word((4, 1, 2))
        assert HarmElem.one() * w == w
        assert w * HarmElem.one() == w

    def test_single_letters(self):
        p, q = 2, 3
        got = HarmElem.from_word((p,)) * HarmElem.from_word((q,))
        expected = (
            HarmElem.from_word((p, q))
            + HarmElem.from_word((q, p))
            + HarmElem.from_word((p + q,))
        )
        assert got == expected

    def test_frozen_golden(self):
        # z2 z1 * z2, fixed from the lattice-path oracle
        got = HarmElem.from_word((2, 1)) * HarmElem.from_word((2,))
        expected = HarmElem(
            {
                (2, 1, 2): F(1),
                (2, 2, 1): F(2),
                (2, 3): F(1),
                (4, 1): F(1),
            }
        )
        assert got == expected

    def test_against_lattice_paths(self):
        words = [(), (2,), (1, 1), (2, 1), (3, 1, 2), (1, 2, 1)]
        pairs = [(u, v) for u in words for v in words]
        # heads equal and unequal at every suffix position of the product
        ones_twos = [w for d in range(4) for w in product((1, 2), repeat=d)]
        pairs += [(u, v) for u in ones_twos for v in ones_twos]
        deep = ((1, 1, 2, 1, 1), (2, 1, 2, 2, 1))
        pairs += [deep, deep[::-1]]
        for u, v in pairs:
            got = as_dict(HarmElem.from_word(u) * HarmElem.from_word(v))
            oracle = stuffle_by_lattice_paths(u, v)
            assert got == oracle, (u, v)

    def test_kernel_words_distinct_and_exact(self):
        # harmonic_product takes its first cell as a dict, so it would
        # miscount a word listed twice; only heads p == q can make two words
        # coincide
        ones_to_threes = [w for d in range(4) for w in product((1, 2, 3), repeat=d)]
        pairs = [(u, v) for u in ones_to_threes for v in ones_to_threes]
        pairs += [
            ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1)),
            ((2, 1, 2, 1, 2), (2, 2, 1, 1, 2)),
            ((3, 3, 1, 3, 3), (3, 1, 3, 1, 3)),
            ((1, 2, 1, 2, 1), (2, 1, 2, 1, 2)),
        ]
        for u, v in pairs:
            [(words, mults)] = words_module._stuffle_words([key_of(u)], key_of(v))
            assert len(set(words)) == len(words) == len(mults), (u, v)
            got = dict(zip(words, mults))
            assert got == oracle_on_keys(key_of(u), key_of(v)), (u, v)

    def test_kernel_shares_suffix_rows(self):
        # keys that share suffixes of every length, and some that share
        # none; each key's cell is exact whatever order the keys come in
        keys = [key_of(w) for d in range(4) for w in product((1, 2), repeat=d)]
        keys += [key_of(w) for w in [(3, 1, 2, 1), (4, 4), (1, 4, 4), (3,)]]
        orders = [
            sorted(keys, key=lambda k: k[::-1]), keys, keys[::-1], keys + keys[:3]
        ]
        for v in [(), (1,), (2, 1), (1, 1, 2), (4, 1, 4)]:
            for order in orders:
                cells = list(words_module._stuffle_words(order, key_of(v)))
                assert len(cells) == len(order)
                for u, (words, mults) in zip(order, cells):
                    assert len(set(words)) == len(words) == len(mults), (u, v)
                    got = dict(zip(words, mults))
                    assert got == oracle_on_keys(u, key_of(v)), (u, v)

    @pytest.mark.parametrize(
        "u,v",
        [
            # words sharing suffixes, with the empty word and repeated letters
            (
                {(): F(1, 2), (1,): -3, (2, 1): F(2, 3), (1, 2, 1): 1,
                 (2, 2, 1): F(-1, 4), (1, 1): 5, (1, 1, 1): -2, (3,): 0},
                {(1,): 1, (2, 1): -1, (1, 1): F(1, 3), (): -2},
            ),
            # words sharing no suffix, all numerators of one sign
            (
                {(1, 2): 3, (2, 3): F(1, 5), (3, 1, 4): 2, (4,): F(7, 2)},
                {(2,): F(-1, 3), (1, 3): -4},
            ),
            # terms that cancel: (z1 + z2)(z1 - z2) = z1 * z1 - z2 * z2
            ({(1,): 1, (2,): 1}, {(1,): 1, (2,): -1}),
            ({(1, 2): F(1, 2), (2, 2): 1, (): 3}, {(1, 2): F(-1, 2), (2, 2): 1}),
            ({(2, 1): 4}, {(1, 1): F(-3, 2), (2, 1): 1, (1, 2, 1): 0}),
            ({(1,): 2}, {}),
        ],
    )
    def test_combinations_against_lattice_paths(self, u, v):
        eu, ev = HarmElem(u), HarmElem(v)
        expected = stuffle_of_combinations(as_dict(eu), as_dict(ev))
        assert as_dict(eu * ev) == expected
        assert as_dict(ev * eu) == expected
        assert eu * ev == HarmElem(expected)

    def test_bilinearity(self):
        u = HarmElem.from_word((2,), 3) + HarmElem.from_word((1, 1), F(-1, 2))
        v = HarmElem.from_word((2, 1))
        w = HarmElem.from_word((3,))
        assert (u + w) * v == u * v + w * v

    def test_function_matches_operator(self):
        u = HarmElem.from_word((2, 1))
        v = HarmElem.from_word((1, 1))
        assert harmonic_product(u, v) == u * v


small_words = st.lists(
    st.integers(min_value=1, max_value=4), min_size=0, max_size=4
).map(tuple)


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_words, small_words)
    def test_commutative(self, u, v):
        eu, ev = HarmElem.from_word(u), HarmElem.from_word(v)
        assert eu * ev == ev * eu

    @settings(max_examples=40, deadline=None)
    @given(small_words, small_words, small_words)
    def test_associative(self, u, v, w):
        eu, ev, ew = (HarmElem.from_word(x) for x in (u, v, w))
        assert (eu * ev) * ew == eu * (ev * ew)

    @settings(max_examples=60, deadline=None)
    @given(small_words, small_words)
    def test_grading(self, u, v):
        total = weight(u) + weight(v)
        for word in HarmElem.from_word(u) * HarmElem.from_word(v):
            assert weight(word) == total

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_laws_on_linear_combinations(self, data):
        coeffs = st.fractions(
            min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
        ).filter(bool)

        def elem(label):
            words = data.draw(
                st.lists(small_words, min_size=1, max_size=2), label=label
            )
            out = HarmElem.zero()
            for w in words:
                out = out + HarmElem.from_word(w, data.draw(coeffs))
            return out

        u, v, w = elem("u"), elem("v"), elem("w")
        assert as_dict(u * v) == stuffle_of_combinations(as_dict(u), as_dict(v))
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)


class TestSMap:
    def test_depth_two(self):
        k1, k2 = 5, 2
        assert s_map((k1, k2)) == HarmElem.from_word((k1 + k2,)) + HarmElem.from_word(
            (k1, k2)
        )

    def test_depth_three_display(self):
        got = s_map((1, 1, 1))
        expected = HarmElem(
            {(3,): F(1), (2, 1): F(1), (1, 2): F(1), (1, 1, 1): F(1)}
        )
        assert got == expected

    def test_single_letter(self):
        assert s_map((7,)) == HarmElem.from_word((7,))

    def test_unit(self):
        assert s_map(()) == HarmElem.one()

    def test_image_size_and_coefficients(self):
        long_words = [(1, 2, 3) * 4 + (2, 1), (2,) * 13]
        for word in [(2, 1), (1, 1, 1, 1), (3, 1, 3, 1), (2, 2, 2, 1, 1)] + long_words:
            elem = s_map(word)
            assert len(elem) == 2 ** (len(word) - 1)
            assert all(c == 1 for _, c in elem.items())
        for word in long_words:
            assert s_map(word) == s_map_via_s1(word), word

    def test_weight_preserved(self):
        for word in [(4, 2), (1, 2, 3), (3, 1, 3, 1)]:
            assert all(weight(w) == weight(word) for w in s_map(word))

    def test_admissible_preserved(self):
        for word in [(2, 1, 1), (3, 1, 3, 1), (4, 1, 2)]:
            assert all(is_admissible(w) for w in s_map(word))


class TestConcurrentUse:
    def test_concurrent_fill_from_empty_caches(self):
        pairs = [((2, 1, 3), (1, 2)), ((1, 1, 2, 1), (2, 1, 1)), ((3, 1, 3, 1), (2, 2))]
        merged = [(1, 2, 3) * 3, (2, 1) * 4, (3, 1, 1, 2, 2, 1, 3)]

        def work():
            products = [HarmElem.from_word(u) * HarmElem.from_word(v) for u, v in pairs]
            return products + [s_map(w) for w in merged]

        expected = work()  # serial run
        words_module._stuffle_words.cache_clear()
        s_map.cache_clear()
        start = threading.Barrier(4, timeout=30)
        results = [None] * 4

        def worker(i):
            start.wait()
            results[i] = work()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4


def _words_over(parts, max_depth):
    return [w for d in range(1, max_depth + 1) for w in product(parts, repeat=d)]


# more distinct keys than the old bounded memos held: 72 words give 5184
# ordered pairs against 4096 stuffle entries, and 81 words against 16
# expansions; the stuffle kernel takes a list of keys and one key
STUFFLE_KEYS = [
    ([u], v) for u, v in product(map(key_of, _words_over(range(1, 9), 2)), repeat=2)
]
S_MAP_KEYS = list(product((1, 2, 3), repeat=4))


def _retained(call, keys, footprint, consume=lambda result: result):
    """(current, peak) traced bytes left behind by calling `call` on every
    key and passing the result to `consume` (which runs a generator out),
    each result dropped at once, in units of the largest result's
    footprint.  With nothing kept both stay small; the tests' slack of 2
    and 3 footprints covers the interpreter's tuple free lists and, at the
    peak, one call's result with its suffix table."""
    largest = max(footprint(consume(call.__wrapped__(*key))) for key in keys)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for key in keys:
            consume(call(*key))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (current - base) / largest, (peak - base) / largest


class TestBoundedCaches:
    """Both word memos are bounded at zero entries: each call computes
    afresh and nothing stays behind."""

    def test_eviction_keeps_results_exact(self):
        stuffle = words_module._stuffle_words
        for u, v in STUFFLE_KEYS:
            list(stuffle(u, v))
        for w in S_MAP_KEYS:
            s_map(w)
        for memo in (stuffle, s_map):
            assert memo.cache_info().currsize == 0
        # nothing was kept: computing a key again misses
        misses = stuffle.cache_info().misses
        for u, v in STUFFLE_KEYS[:50]:
            [(words, mults)] = stuffle(u, v)
            assert dict(zip(words, mults)) == oracle_on_keys(u[0], v)
        assert stuffle.cache_info().misses == misses + 50
        misses = s_map.cache_info().misses
        for w in S_MAP_KEYS[:20]:
            assert s_map(w) == s_map_via_s1(w)
        assert s_map.cache_info().misses == misses + 20

    def test_concurrent_eviction(self):
        # each thread walks the keys from its own offset, so the four
        # interleave different products and expansions
        def rotated(keys, offset):
            offset %= len(keys)
            return keys[offset:] + keys[:offset]

        def work(offset):
            out = {}
            for u, v in rotated(STUFFLE_KEYS, offset):
                [(words, mults)] = words_module._stuffle_words(u, v)
                out[u[0], v] = sorted(zip(words, mults))
            for w in rotated(S_MAP_KEYS, offset):
                out[w] = s_map(w)
            return out

        expected = work(0)  # serial run
        offsets = [0, 7, 1500, 3001]
        results = [None] * 4
        start = threading.Barrier(4, timeout=30)

        def worker(i):
            start.wait()
            results[i] = work(offsets[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4
        for memo in (words_module._stuffle_words, s_map):
            assert memo.cache_info().currsize == 0

    def test_expansion_memory_stays_flat(self):
        def footprint(elem):
            num = elem._num
            return sys.getsizeof(elem) + sys.getsizeof(num) + sum(map(sys.getsizeof, num))

        # every depth-11 expansion has 2^10 words of the same lengths
        depth_11 = [(w,) for w in product((1, 2), repeat=11)][:48]
        current, peak = _retained(s_map, depth_11, footprint)
        assert current < 2 and peak < 3

    def test_stuffle_memory_stays_flat(self):
        def footprint(cells):
            # the product's terms held as (word, multiplicity) pairs
            [(words, mults)] = cells
            terms = tuple(zip(words, mults))
            pairs = sum(sys.getsizeof(pair) + sys.getsizeof(pair[0]) for pair in terms)
            return sys.getsizeof(terms) + pairs

        current, peak = _retained(
            words_module._stuffle_words, STUFFLE_KEYS, footprint, consume=list
        )
        assert current < 2 and peak < 3


class TestXYWords:
    def test_conversion(self):
        assert word_to_xy((3, 1)) == "xxyy"
        assert word_to_xy(()) == ""
        assert xy_to_word("xxyy") == (3, 1)
        assert xy_to_word("") == ()

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("yx", "xy-word does not end in y"),
            ("x", "xy-word does not end in y"),
            ("xzy", "invalid letter 'z' in xy-word"),
            # the first bad letter is named, even before a missing final y
            ("yYqx", "invalid letter 'Y' in xy-word"),
            ("xy\u00d7", "invalid letter '\u00d7' in xy-word"),
        ],
    )
    def test_conversion_rejects(self, bad, message):
        with pytest.raises(ValueError) as err:
            xy_to_word(bad)
        assert str(err.value) == message

    def test_conversion_round_trip(self):
        for d in range(7):
            for word in product((1, 2, 3, 4), repeat=d):
                assert xy_to_word(word_to_xy(word)) == word

    def test_substitution_single_letters(self):
        assert s1_substitute("y") == ["x", "y"]
        assert s1_substitute("x") == ["x"]
        assert sorted(s1_substitute("xy")) == ["xx", "xy"]

    def test_substitution_count(self):
        assert len(s1_substitute("yxyy")) == 8

    def test_via_s1_small(self):
        assert s_map_via_s1((2,)) == HarmElem.from_word((2,))
        assert s_map_via_s1((1, 1)) == HarmElem.from_word((2,)) + HarmElem.from_word(
            (1, 1)
        )
        assert s_map_via_s1((3, 1)) == HarmElem.from_word((4,)) + HarmElem.from_word(
            (3, 1)
        )

    def test_routes_agree_exhaustively(self):
        for d in range(1, 6):
            for word in product((1, 2, 3), repeat=d):
                assert s_map(word) == s_map_via_s1(word), word

    def test_via_s1_against_full_images(self):
        # the two half read-backs and their glue, against every full image
        # read back on its own
        words = [w for d in range(1, 9) for w in product((1, 2, 3), repeat=d)]
        # depth 1 leaves the head empty; depth 2 leaves the tail without a y
        words += [(1,), (7,), (1, 1), (5, 1), (1, 5), (4, 2)]
        words += [(1, 300, 1), (255, 1, 256), (2, 1, 300, 1, 2), (300, 1, 1, 255)]
        for word in words:
            images = s1_substitute(word_to_xy(word)[:-1])
            expected = Counter(xy_to_word(image + "y") for image in images)
            got = s_map_via_s1(word)
            assert got._den == 1, word
            assert got._num == {key_of(w): c for w, c in expected.items()}, word


class TestAntipode:
    """sum_{i=0}^{n} (-1)^i rev(w[:i]) * S(w[i:]) = 0 for every nonempty
    word w, with S(1) = 1: the antipode of the quasi-shuffle algebra
    (Hoffman, J. Algebraic Combin. 11, 2000).  It ties the merge expansion
    to the stuffle product without going through s_map_via_s1."""

    def test_vanishes_on_small_words(self):
        for d in range(1, 6):
            for word in product((1, 2, 3), repeat=d):
                total = HarmElem.zero()
                for i in range(d + 1):
                    term = HarmElem.from_word(word[:i][::-1]) * s_map(word[i:])
                    total = total - term if i % 2 else total + term
                assert not total, word


def prepend(head, elem):
    """Concatenation by a single letter on the left, z_head . elem."""
    return HarmElem({(head,) + w: c for w, c in elem.items()})


class TestMergeMapDecompositions:
    """The three ways the head-merge recursion splits over alternating words:
    peeling the first merged block of S((a,b)^n), of S(b (a,b)^n) and of
    S((a+b)^n) term by term."""

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_alternating_split(self, a, b, n):
        lhs = s_map((a, b) * n)
        rhs = HarmElem.zero()
        for j in range(n):
            rhs = rhs + prepend((a + b) * j + a, s_map((b,) + (a, b) * (n - 1 - j)))
        for j in range(1, n + 1):
            rhs = rhs + prepend((a + b) * j, s_map((a, b) * (n - j)))
        if n == 0:
            rhs = HarmElem.one()
        assert lhs == rhs

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_tailed_split(self, a, b, n):
        lhs = s_map((b,) + (a, b) * n)
        rhs = HarmElem.zero()
        for j in range(n + 1):
            rhs = rhs + prepend((a + b) * j + b, s_map((a, b) * (n - j)))
        for j in range(1, n + 1):
            rhs = rhs + prepend((a + b) * j, s_map((b,) + (a, b) * (n - j)))
        assert lhs == rhs

    @pytest.mark.parametrize("s", [2, 3, 4, 6])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_constant_split(self, s, n):
        lhs = s_map((s,) * n)
        rhs = HarmElem.zero()
        for j in range(1, n + 1):
            rhs = rhs + prepend(s * j, s_map((s,) * (n - j)))
        if n == 0:
            rhs = HarmElem.one()
        assert lhs == rhs


class TestInsertions:
    def test_golden_n1(self):
        assert insertions(1) == [(2, 3, 1), (3, 2, 1), (3, 1, 2)]

    def test_count(self):
        assert len(insertions(1)) == 3

    def test_shape_n2(self):
        words = insertions(2)
        assert len(words) == 5
        assert all(weight(w) == 10 and depth(w) == 5 for w in words)
        assert all(is_admissible(w) for w in words)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            insertions(0)


TOP = 1114111  # the largest code point, so the largest part a word holds


def _merges(word):
    """Every merge of adjacent runs of the word, by brute force."""
    if not word:
        return [()]
    return [
        (sum(word[:j]),) + rest
        for j in range(1, len(word) + 1)
        for rest in _merges(word[j:])
    ]


class TestWordKeys:
    """A word is held as a string with one code point per part.  CPython
    stores a string in one, two or four bytes per character by its largest
    code point; words mixing the three kinds must still come out in the
    order of their tuples."""

    # the edges of each kind, and the first surrogate
    PARTS = (1, 255, 256, 0xD800, 65535, 65536, TOP)

    def test_order_across_string_kinds(self):
        words = [w for d in range(4) for w in product(self.PARTS, repeat=d)]
        expected = sorted(words, reverse=True)
        shuffled = words[1::2] + words[::2]  # far from either sorted order
        elem = HarmElem(dict.fromkeys(shuffled, 1))
        assert [w for w, _ in elem.items()] == expected
        assert elem.words() == expected
        assert list(elem) == expected
        assert [tuple(e["word"]) for e in elem.to_json_obj()] == expected
        bodies = [" ".join(f"z{k}" for k in w) if w else "1" for w in expected]
        assert str(elem) == " + ".join(bodies)
        assert all(elem.coeff(w) == 1 for w in words)
        assert HarmElem.from_json_obj(elem.to_json_obj()) == elem

    def test_products_and_expansions_across_kinds(self):
        pairs = [((1, 65536), (255,)), ((256, 1), (65535, 2)), ((TOP - 1,), (1,))]
        for u, v in pairs:
            got = as_dict(HarmElem.from_word(u) * HarmElem.from_word(v))
            assert got == stuffle_by_lattice_paths(u, v), (u, v)
        for word in [(255, 1, 65280), (1, 65535, 1), (TOP - 2, 1, 1)]:
            assert sorted(s_map(word).words()) == sorted(_merges(word)), word
        # the cross-check route spells out a word's weight in letters
        for word in [(255, 1, 256), (1, 300, 1)]:
            assert s_map(word) == s_map_via_s1(word), word

    def test_parts_past_the_limit_raise(self):
        assert HarmElem.from_word((TOP,)).words() == [(TOP,)]
        makers = [
            lambda: HarmElem.from_word((2, TOP + 1)),
            lambda: HarmElem.from_word((TOP + 1,), 0),
            lambda: HarmElem.from_word((10**20,)),
            lambda: HarmElem({(TOP + 1,): 1}),
            lambda: HarmElem({(2,): F(1, 2), (TOP + 1, 1): F(1, 3)}),
        ]
        for make in makers:
            with pytest.raises(ValueError, match=f"word parts are at most {TOP}"):
                make()

    def test_merged_parts_past_the_limit_raise(self):
        u = HarmElem.from_word((1, TOP))
        with pytest.raises(ValueError, match=f"merged part {TOP + 2} is out of range"):
            u * HarmElem.from_word((2,))
        with pytest.raises(ValueError, match=f"block sum {TOP + 1} is out of range"):
            s_map((1, TOP))
        # refused before the 1114112-letter xy string is built
        with pytest.raises(ValueError, match=f"weight {TOP + 1} is out of range"):
            s_map_via_s1((1, TOP))


# coefficients over the denominators 6, 4, 9 and 1
MIXED = HarmElem({(2,): F(1, 6), (3, 1): F(-3, 4), (1, 1): F(2, 9), (4,): 5})


class TestHarmElem:
    def test_rendering(self):
        assert str(s_map((3, 1))) == "z4 + z3 z1"
        assert str(HarmElem.zero()) == "0"
        assert str(HarmElem.one()) == "1"
        two_words = HarmElem.from_word((2, 2, 1), 2) + HarmElem.from_word((4,), -1)
        assert str(two_words) == "-z4 + 2 z2 z2 z1"

    def test_negative_mid_term(self):
        elem = HarmElem.from_word((5,)) - HarmElem.from_word((3, 2))
        assert str(elem) == "z5 - z3 z2"

    def test_json_round_trip(self):
        elem = HarmElem.from_word((2, 1), F(-3, 7)) + HarmElem.from_word((3,), 5)
        assert HarmElem.from_json_obj(elem.to_json_obj()) == elem
        assert HarmElem.from_json_obj(MIXED.to_json_obj()) == MIXED

    def test_json_sorted_canonically(self):
        elem = s_map((3, 1))
        assert [e["word"] for e in elem.to_json_obj()] == [[4], [3, 1]]

    def test_zero_coefficients_dropped(self):
        elem = HarmElem({(2,): F(1)}) - HarmElem({(2,): F(1)})
        assert elem == HarmElem.zero()
        assert len(elem) == 0
        assert MIXED - MIXED == HarmElem.zero()

    def test_equal_fractions_give_equal_elements(self):
        assert HarmElem({(2, 1): F(2, 4)}) == HarmElem({(2, 1): F(1, 2)})
        assert HarmElem({(2,): F(3, 3)}) == HarmElem.from_word((2,))

    def test_rejects_non_rational_coefficients(self):
        # a float would be stored as its binary fraction, 0.1 as n / 2^55
        for bad in (0.1, 1e-300, 1.0, 0.0, "1/2"):
            with pytest.raises(TypeError):
                HarmElem.from_word((2,), bad)
            with pytest.raises(TypeError):
                HarmElem({(2,): bad})
        parsed = HarmElem.from_json_obj([{"word": [2], "coeff": "1/10"}])
        assert parsed == HarmElem.from_word((2,), F(1, 10))

    def test_from_word_coefficient_types(self):
        # a plain int skips the Fraction round trip; every other type goes
        # through __init__ and lands in the same canonical form
        for coeff in (1, -7, 3**80, F(6, 2), True):
            fast = HarmElem.from_word([2, 1], coeff)
            assert fast == HarmElem({(2, 1): F(coeff)})
            # the key of the word (2, 1) is the string of code points 2 and 1
            assert fast._den == 1 and type(fast._num["\x02\x01"]) is int
            assert list(fast._num) == ["\x02\x01"]
        for zero in (0, F(0), False):
            assert HarmElem.from_word((2,), zero) == HarmElem.zero()

    def test_scalar_multiplication(self):
        elem = HarmElem.from_word((2,), 3)
        assert 2 * elem == HarmElem.from_word((2,), 6)
        assert elem * F(1, 3) == HarmElem.from_word((2,))
        assert 0 * elem == HarmElem.zero()
        assert (MIXED * F(1, 3)) * 3 == MIXED

    def test_coeff_lookup(self):
        elem = s_map((3, 1))
        assert elem.coeff((4,)) == 1
        assert elem.coeff((9,)) == 0
        for elem in (s_map((3, 1)), MIXED, MIXED * MIXED):
            assert all(type(c) is Fraction for _, c in elem.items())
            assert all(type(elem.coeff(w)) is Fraction for w in elem)
            assert type(elem.coeff((9,))) is Fraction
