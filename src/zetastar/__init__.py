"""Exact evaluation toolkit for multiple zeta-star values.

The package provides the word algebra with the harmonic (stuffle) product,
the expansion of star values into plain zeta words, exact closed forms for
the classical repeated-index families as rational multiples of pi powers,
cyclotomic and power-series machinery backing them, certified numeric
evaluation of the nested series, and executable verification of all the
identities tying those pieces together.

The public names are those of the submodules' ``__all__`` lists.  They load
on first use (PEP 562), so ``import zetastar`` imports no submodule and
``zetastar.s_map`` imports only ``words`` and what it needs.
"""

import importlib

__version__ = "0.1.0"

# each submodule's __all__, copied so that no submodule is imported to list
# them; tests/test_api.py checks the copy
_EXPORTS = {
    "closed_forms": (
        "alpha", "euler_zeta_even", "mzv_31_repeated", "mzv_repeated_2m",
        "newton_e_oracle", "newton_h_oracle", "thm1_C", "thm3_sum",
        "thmA_coefficient", "thmA_cyclo_sum", "thmB_coefficient",
        "thmB_via_relation", "thmC_coefficient", "thmC_via_relation",
    ),
    "cyclotomic": (
        "CycloElem", "NotRationalError", "cyclo_rational_value", "cyclo_reduce",
        "cyclotomic_polynomial",
    ),
    "exact": ("PiMultiple", "bernoulli", "csc_coefficient", "parse_rational"),
    "numeric": (
        "DEFAULT_TOL", "NumericValue", "ToleranceUnreachable", "harm_elem_numeric",
        "mzsv_numeric", "mzv_numeric", "zeta_interval",
    ),
    "series": ("PowerSeries",),
    "verify": (
        "Report", "WordSampler", "verify_genfunc_thmA", "verify_s_consistency",
        "verify_stuffle_laws", "verify_thm6", "verify_thm7", "verify_z_homomorphism",
    ),
    "words": (
        "HarmElem", "ParseError", "Word", "depth", "format_index",
        "harmonic_product", "insertions", "is_admissible", "parse_index",
        "s1_substitute", "s_map", "s_map_via_s1", "weight", "word_to_xy",
        "xy_to_word",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
