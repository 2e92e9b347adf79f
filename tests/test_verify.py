import json
from fractions import Fraction

import pytest

from zetastar import cli, verify, words
from zetastar.numeric import ToleranceUnreachable, mzv_numeric
from zetastar.verify import (
    Report,
    WordSampler,
    verify_genfunc_thmA,
    verify_s_consistency,
    verify_stuffle_laws,
    verify_thm6,
    verify_thm7,
    verify_z_homomorphism,
)
from zetastar.words import HarmElem, s_map, insertions


class TestWordSampler:
    def test_deterministic(self):
        a = WordSampler(42)
        b = WordSampler(42)
        words_a = [a.word(4, 5) for _ in range(20)]
        words_b = [b.word(4, 5) for _ in range(20)]
        assert words_a == words_b

    def test_respects_ranges(self):
        sampler = WordSampler(7)
        for _ in range(200):
            w = sampler.word(3, 4, max_weight=6, admissible=True)
            assert 1 <= len(w) <= 3
            assert all(1 <= k <= 4 for k in w)
            assert sum(w) <= 6
            assert w[0] >= 2

    def test_uniform_bounds(self):
        sampler = WordSampler(3)
        draws = [sampler.uniform(2, 5) for _ in range(500)]
        assert set(draws) == {2, 3, 4, 5}


class TestStuffleLaws:
    def test_hundred_trials_pass(self):
        report = verify_stuffle_laws(seed=1, trials=100, max_weight=8)
        assert report.ok
        assert report.cases == 100

    def test_square_symmetric(self):
        z2 = HarmElem.from_word((2,))
        assert z2 * z2 == 2 * HarmElem.from_word((2, 2)) + HarmElem.from_word((4,))

    def test_explicit_association(self):
        u, v, w = (HarmElem.from_word(x) for x in ((2,), (3,), (1,)))
        assert (u * v) * w == u * (v * w)


class TestThm6:
    def test_n_zero_trivial(self):
        report = verify_thm6(3, 1, 0)
        assert report.ok and report.cases == 2

    def test_underlying_case(self):
        assert verify_thm6(3, 1, 2).ok

    def test_non_admissible_words_allowed(self):
        assert verify_thm6(1, 1, 3).ok


class TestThm7:
    def test_boundary(self):
        report = verify_thm7(3, 1, 2, 0)
        assert report.ok and report.cases == 2

    def test_insertion_case(self):
        assert verify_thm7(3, 1, 2, 1).ok

    def test_generic_parameters(self):
        assert verify_thm7(2, 1, 3, 2).ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lhs_is_insertion_sum(self, n):
        """The first identity's left side at (3, 1, 2) is exactly the merge
        expansion summed over the 2-insertion set."""
        a, b, c = 3, 1, 2
        lhs = HarmElem.zero()
        for k in range(n + 1):
            lhs = lhs + s_map((a, b) * k + (c,) + (a, b) * (n - k))
        for k in range(n):
            lhs = lhs + s_map(
                (a,) + (b, a) * k + (c,) + (b, a) * (n - 1 - k) + (b,)
            )
        by_insertions = HarmElem.zero()
        for word in insertions(n):
            by_insertions = by_insertions + s_map(word)
        assert lhs == by_insertions


class TestGenfunc:
    @pytest.mark.parametrize("m,max_n", [(1, 2), (2, 2), (3, 1)])
    def test_small_grids(self, m, max_n):
        report = verify_genfunc_thmA(m, max_n)
        assert report.ok, report.failures[:2]

    def test_case_count(self):
        # truncation 2 m max_n + 1 checks every degree from 1 up
        report = verify_genfunc_thmA(2, 2)
        assert report.cases == 8


class TestSConsistency:
    def test_exhaustive_small(self):
        report = verify_s_consistency(4, 3)
        assert report.ok
        assert report.cases == 3 + 9 + 27 + 81

    def test_sampled_deep(self):
        report = verify_s_consistency(7, 2)
        assert report.ok
        assert report.cases == 2 + 4 + 8 + 16 + 32 + 64 + 120


class TestZHomomorphism:
    def test_short_run(self):
        report = verify_z_homomorphism(seed=5, trials=10)
        assert report.ok and report.cases == 10

    def test_bounds_not_vacuous(self, monkeypatch):
        """With one stuffle term dropped from (or repeated in) every product,
        the brackets no longer meet, on the side the mutation moves."""
        full = words._stuffle_words
        for mutation in ("drop", "repeat"):

            def mutated(u, v, mutation=mutation):
                terms = full(u, v)
                return terms[:-1] if mutation == "drop" else terms + terms[:1]

            with monkeypatch.context() as patch:
                patch.setattr(words, "_stuffle_words", mutated)
                report = verify_z_homomorphism(seed=5, trials=10)
            assert not report.ok, mutation
            failure = report.failures[0]
            assert set(failure) == {"trial", "w1", "w2", "lhs", "rhs"}
            lhs = [Fraction(end) for end in failure["lhs"]]
            rhs = [Fraction(end) for end in failure["rhs"]]
            assert lhs[1] < rhs[0] if mutation == "drop" else rhs[1] < lhs[0]

    @pytest.mark.parametrize("tol", [1e-14, 1e-15])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fine_tolerance_passes(self, seed, tol):
        # the identity holds, and comparing brackets leaves no rounding to miss
        report = verify_z_homomorphism(seed, 50, tol=tol)
        assert report.ok, report.failures[:2]
        assert report.cases == 50

    def test_fine_tolerance_from_the_cli(self, capsys):
        code = cli.main(["verify", "zhom", "--seed", "3", "--tol", "1e-14"])
        assert code == 0
        assert capsys.readouterr().out.endswith(" PASS\n")

    def test_single_word_brackets_computed_once(self, monkeypatch):
        expected = verify_z_homomorphism(1, 50)
        sampler = WordSampler(1)
        distinct = {
            sampler.word(3, 4, max_weight=6, admissible=True) for _ in range(100)
        }
        full = verify._elem_bracket
        calls = []

        def counting(elem, tol, max_terms):
            calls.append(elem)
            return full(elem, tol, max_terms)

        monkeypatch.setattr(verify, "_elem_bracket", counting)
        report = verify_z_homomorphism(1, 50)
        assert report == expected and report.ok
        # one bracket per product and one per distinct single word, fewer
        # than three per trial because the 100 sampled words repeat
        assert len(calls) == 50 + len(distinct) < 150

    def test_tolerance_finer_than_a_float(self):
        # the check needs only brackets, so no float rounding limits it;
        # a float result still cannot carry such a bound
        assert verify_z_homomorphism(1, 5, tol=1e-17).ok
        with pytest.raises(ToleranceUnreachable):
            mzv_numeric((2,), 1e-17)


def _lossy_s_map(word):
    """The merge expansion without the word itself (coefficient 1)."""
    return s_map(word) - HarmElem.from_word(word)


class TestProductIdentitiesNotVacuous:
    """An expansion that loses one image word must fail every identity."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_thm6(self, monkeypatch, n):
        monkeypatch.setattr(verify, "s_map", _lossy_s_map)
        report = verify_thm6(3, 1, n)
        assert report.cases == 2
        assert [f["identity"] for f in report.failures] == ["alternating", "tailed"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_thm7(self, monkeypatch, n):
        monkeypatch.setattr(verify, "s_map", _lossy_s_map)
        report = verify_thm7(3, 1, 2, n)
        assert report.cases == 2
        assert [f["identity"] for f in report.failures] == ["plain", "wrapped"]


class TestReport:
    def test_json_shape(self):
        report = Report("demo", {"n": 1})
        report.record(True, detail="x")
        report.record(False, lhs="a", rhs="b")
        obj = report.to_json_obj()
        assert json.dumps(obj)  # serializable
        assert obj["cases"] == 2
        assert obj["failures"] == [{"lhs": "a", "rhs": "b"}]
        assert not report.ok
