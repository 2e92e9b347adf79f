"""The five value classes: construction, validation, repr, equality, hashing
and (im)mutability."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from zetastar.cyclotomic import CycloElem
from zetastar.exact import PiMultiple
from zetastar.numeric import NumericValue
from zetastar.series import PowerSeries
from zetastar.verify import Report

# (positional, keyword-built equal value, unequal value, repr, field tuple)
FROZEN = [
    pytest.param(
        PiMultiple(F(1, 6), 2),
        PiMultiple(coeff=F(1, 6), pi_power=2),
        PiMultiple(F(1, 6), 4),
        "PiMultiple(coeff=Fraction(1, 6), pi_power=2)",
        (F(1, 6), 2),
        id="PiMultiple",
    ),
    pytest.param(
        CycloElem(2, (F(1), F(-1, 2))),
        CycloElem(modulus=2, coeffs=[1, F(-1, 2)]),
        CycloElem(2, (F(1), F(0))),
        "CycloElem(modulus=2, coeffs=(Fraction(1, 1), Fraction(-1, 2)))",
        (2, (F(1), F(-1, 2))),
        id="CycloElem",
    ),
    pytest.param(
        NumericValue(1.5, 0.25),
        NumericValue(value=1.5, error_bound=0.25),
        NumericValue(1.5, 0.5),
        "NumericValue(value=1.5, error_bound=0.25)",
        (1.5, 0.25),
        id="NumericValue",
    ),
    pytest.param(
        PowerSeries((F(1), F(2))),
        PowerSeries(coeffs=[F(1), F(2)]),
        PowerSeries((F(1),)),
        "PowerSeries(coeffs=(Fraction(1, 1), Fraction(2, 1)))",
        ((F(1), F(2)),),
        id="PowerSeries",
    ),
]


@pytest.mark.parametrize("value,by_keyword,other,text,fields", FROZEN)
class TestFrozenValues:
    def test_repr(self, value, by_keyword, other, text, fields):
        assert repr(value) == text
        assert repr(by_keyword) == text

    def test_equality(self, value, by_keyword, other, text, fields):
        assert value == by_keyword
        assert not value != by_keyword
        assert value != other
        assert value != fields  # another type never compares equal
        assert value.__eq__(fields) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self, value, by_keyword, other, text, fields):
        assert hash(value) == hash(by_keyword) == hash(fields)
        assert len({value, by_keyword, other}) == 2

    def test_immutable(self, value, by_keyword, other, text, fields):
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
        assert value == by_keyword

    def test_unknown_attribute(self, value, by_keyword, other, text, fields):
        # a frozen slots dataclass raised TypeError here (its __setattr__
        # called super() with the class it replaced)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_copy_and_pickle(self, value, by_keyword, other, text, fields):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


class TestValidation:
    def test_pi_multiple_coerces_coeff(self):
        p = PiMultiple(3, 2)
        assert type(p.coeff) is F and p.coeff == 3
        assert PiMultiple("1/2", 0).coeff == F(1, 2)
        assert PiMultiple(3, 2) == PiMultiple(F(3), 2)
        assert hash(PiMultiple(3, 2)) == hash(PiMultiple(F(3), 2))

    def test_pi_multiple_refuses_negative_power(self):
        with pytest.raises(ValueError, match="pi_power"):
            PiMultiple(F(1), -1)

    def test_cyclo_elem_coerces_and_checks_length(self):
        e = CycloElem(3, [1, 2, 0])
        assert e.coeffs == (F(1), F(2), F(0))
        assert all(type(c) is F for c in e.coeffs)
        with pytest.raises(ValueError, match="length"):
            CycloElem(3, (F(1), F(2)))
        with pytest.raises(ValueError, match="modulus"):
            CycloElem(0, ())

    def test_power_series_coerces_and_refuses_empty(self):
        assert PowerSeries([F(1)]).coeffs == (F(1),)
        for empty in ((), []):
            with pytest.raises(ValueError, match="truncation"):
                PowerSeries(empty)

    def test_missing_or_unknown_arguments(self):
        with pytest.raises(TypeError):
            PiMultiple(F(1))
        with pytest.raises(TypeError):
            NumericValue(value=1.0, bound=0.0)


class TestReport:
    def test_defaults_and_repr(self):
        r = Report("thm6", {"a": 3})
        assert (r.cases, r.failures, r.ok) == (0, [], True)
        assert repr(r) == "Report(check='thm6', params={'a': 3}, cases=0, failures=[])"
        assert Report("thm6", {"a": 3}).failures is not r.failures

    def test_keyword_construction_and_equality(self):
        r = Report(check="x", params={}, cases=2, failures=[{"k": 1}])
        assert r == Report("x", {}, 2, [{"k": 1}])
        assert r != Report("x", {}, 2, [])
        assert r != ("x", {}, 2, [{"k": 1}])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Report("x", {}))

    def test_record_mutates(self):
        r = Report("x", {})
        r.record(True, lambda: {"trial": 0})
        r.record(False, lambda: {"trial": 1})
        assert (r.cases, r.failures, r.ok) == (2, [{"trial": 1}], False)
        assert r.to_json_obj() == {
            "check": "x", "params": {}, "cases": 2, "failures": [{"trial": 1}],
        }
        r.cases = 7
        assert r.cases == 7
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_copy_and_pickle(self):
        r = Report("x", {"a": 1}, 1, [{"k": 2}])
        assert copy.deepcopy(r) == r
        assert pickle.loads(pickle.dumps(r)) == r
