import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetastar
from zetastar import closed_forms, cyclotomic, exact, numeric, series, verify, words


def test_package_exports_every_module_name():
    modules = (closed_forms, cyclotomic, exact, numeric, series, verify, words)
    union = {name for module in modules for name in module.__all__}
    assert set(zetastar.__all__) == union
    assert len(zetastar.__all__) == len(union)
    assert all(hasattr(zetastar, name) for name in zetastar.__all__)


def test_package_loads_submodules_on_first_use():
    src = str(Path(zetastar.__file__).resolve().parents[1])
    code = "import sys, zetastar; print(*(m for m in sys.modules if 'zetastar.' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_package_names_are_the_modules_objects():
    assert zetastar.s_map is zetastar.words.s_map
    for module in (closed_forms, cyclotomic, exact, numeric, series, verify, words):
        assert getattr(zetastar, module.__name__.rpartition(".")[2]) is module
        for name in module.__all__:
            assert getattr(zetastar, name) is getattr(module, name)
    assert set(zetastar.__all__) <= set(dir(zetastar))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from zetastar import *", namespace)
    for name in zetastar.__all__:
        assert namespace[name] is getattr(zetastar, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zetastar.no_such_name
    assert not hasattr(zetastar, "_stuffle_words")


@pytest.mark.parametrize(
    "fn,args",
    [
        (closed_forms.mzv_repeated_2m, (0, 3)),
        (closed_forms.thm1_C, (0, 3)),
        (closed_forms.thm1_C, (1, -1)),
        (verify.verify_thm6, (1, 1, -1)),
        (verify.verify_thm6, (0, 1, 1)),
        (verify.verify_thm7, (1, 1, 0, 1)),
        (verify.verify_thm7, (1, 1, 2, -1)),
        (verify.verify_s_consistency, (0, 3)),
        (verify.verify_s_consistency, (3, 0)),
        (verify.verify_z_homomorphism, (1, -3)),
        (verify.verify_z_homomorphism, (1, 0, math.nan)),
        (numeric.mzv_numeric, ((2,), math.nan)),
        (numeric.mzsv_numeric, ((2,), math.nan)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v).replace(" ", ""),
)
def test_out_of_range_arguments_raise_value_error(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_internals_read_by_the_benchmark_tracer():
    # perfbench/tracer.py:counters reads these four internals and reports
    # None for any that is gone; delete this test once it reads a stats
    # stream instead.
    for cached in (words._stuffle_words, words.s_map):
        info = cached.cache_info()
        assert all(type(n) is int for n in (info.currsize, info.hits, info.misses))
    assert len(exact._bernoulli_cache) >= 2
    assert type(len(numeric._partial_cache)) is int
