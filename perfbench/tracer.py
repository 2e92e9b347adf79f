"""Span tracer installed into a benchmark child process.

`Tracer.install()` wraps the public functions of every zetastar module (its
`__all__`) and the methods of the classes it exports, and rebinds each name
wherever a zetastar module holds it.  Nothing under `src/` changes.  Each
call opens a span (name, start, end, parent, request id); a recursive call
to the function whose span is innermost runs without a span of its own, so
memoised recursions such as `s_map` show as one span per outer call.

`Tracer.summary()` turns the spans into per-layer numbers: a module's self
time is its spans' time minus their child spans, so time in stdlib or numpy
callees counts toward the zetastar module that called them.  Counters that
read module internals report None once the internal is gone.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import resource
import time

MODULES = (
    "cli", "closed_forms", "cyclotomic", "exact", "numeric", "series",
    "verify", "words",
)

# Metric name -> span names; a group's time is the time of its outermost
# spans, so a group member called inside another member is not counted twice.
GROUPS = {
    "words.stuffle_ms": ("words.harmonic_product",),
    "words.s_map_ms": ("words.s_map",),
    "words.s_map_via_s1_ms": ("words.s_map_via_s1",),
    "closed_forms.thmA_ms": ("closed_forms.thmA_coefficient", "closed_forms.thmA_cyclo_sum"),
    "closed_forms.thm1_ms": ("closed_forms.mzv_repeated_2m", "closed_forms.thm1_C"),
    "closed_forms.thmB_ms": ("closed_forms.thmB_coefficient",),
    "closed_forms.thmC_ms": ("closed_forms.thmC_coefficient",),
    "exact.bernoulli_ms": ("exact.bernoulli",),
    "numeric.eval_ms": (
        "numeric.mzv_numeric", "numeric.mzsv_numeric", "numeric.harm_elem_numeric",
    ),
    "verify.suite_ms": tuple(
        "verify." + n for n in (
            "verify_genfunc_thmA", "verify_s_consistency", "verify_stuffle_laws",
            "verify_thm6", "verify_thm7", "verify_z_homomorphism",
        )
    ),
}
_GROUP_OF = {span: g for g, names in GROUPS.items() for span in names}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _internal(module: str, path: str):
    """Follow a dotted attribute path into a zetastar module, or None."""
    try:
        obj = importlib.import_module(f"zetastar.{module}")
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj
    except (ImportError, AttributeError):
        return None


def _cache_info(module: str, name: str):
    fn = _internal(module, name)
    # the traced wrapper keeps the lru_cache object as __wrapped__
    for obj in (fn, getattr(fn, "__wrapped__", None)):
        info = getattr(obj, "cache_info", None)
        if callable(info):
            return info()
    return None


def counters() -> dict:
    """Work counters read from module internals; None where one is gone."""
    stuffle = _cache_info("words", "_stuffle_words")
    s_map = _cache_info("words", "s_map")
    bern = _internal("exact", "_bernoulli_cache")
    partial = _internal("numeric", "_partial_cache")
    return {
        "words.stuffle_cache_entries": stuffle.currsize if stuffle else None,
        "words.stuffle_cache_hits": stuffle.hits if stuffle else None,
        "words.stuffle_cache_lookups": stuffle.hits + stuffle.misses if stuffle else None,
        "words.s_map_cache_entries": s_map.currsize if s_map else None,
        "exact.bernoulli_filled": len(bern) - 2 if bern is not None else None,
        "numeric.partial_cache_entries": len(partial) if partial is not None else None,
    }


class Tracer:
    """Spans and work counts of one process; install it once."""

    def __init__(self) -> None:
        # name, start, end, parent index, request id, outermost of its group
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._paused = False
        self._active = {g: 0 for g in GROUPS}
        self._work = {
            "stuffle_terms": 0, "s_map_terms": 0, "verify_cases": 0,
            "digits": 0.0, "unreachable": 0, "rss_growth_kb": 0,
        }

    @contextlib.contextmanager
    def paused(self):
        """Wrapped calls open no spans inside (benchmark-side checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _note_result(self, group: str, result) -> None:
        work = self._work
        if group == "words.stuffle_ms":
            work["stuffle_terms"] += len(result)
        elif group == "words.s_map_ms":
            work["s_map_terms"] += len(result)
        elif group == "numeric.eval_ms":
            bound = getattr(result, "error_bound", 0.0)
            if 0.0 < bound < math.inf:
                work["digits"] += -math.log10(bound)
        elif group == "verify.suite_ms":
            work["verify_cases"] += getattr(result, "cases", 0)

    def _wrap(self, fn, name: str):
        group = _GROUP_OF.get(name)
        spans, stack, active, work = self.spans, self._stack, self._active, self._work

        def traced(*args, **kwargs):
            if self._paused or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            outer = group is not None and active[group] == 0
            if group is not None:
                active[group] += 1
            rss0 = _maxrss_kb() if outer and group == "numeric.eval_ms" else 0
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.request, outer]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if outer and type(exc).__name__ == "ToleranceUnreachable":
                    work["unreachable"] += 1
                raise
            else:
                if outer:
                    with self.paused():
                        self._note_result(group, result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if group is not None:
                    active[group] -= 1
                if rss0:
                    work["rss_growth_kb"] = max(work["rss_growth_kb"], _maxrss_kb() - rss0)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_class(self, cls, layer: str) -> None:
        done: dict[int, object] = {}
        for attr, value in list(vars(cls).items()):
            if isinstance(value, (classmethod, staticmethod)):
                inner, kind = value.__func__, type(value)
            elif inspect.isfunction(value):
                inner, kind = value, None
            else:
                continue
            if inspect.isgeneratorfunction(inner):
                continue
            if id(inner) not in done:
                done[id(inner)] = self._wrap(inner, f"{layer}.{cls.__name__}.{attr}")
            wrapped = done[id(inner)]
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def install(self) -> None:
        """Wrap the public API of every zetastar module."""
        modules = {name: importlib.import_module(f"zetastar.{name}") for name in MODULES}
        package = importlib.import_module("zetastar")
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                value = getattr(module, attr, None)
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
                elif (
                    (inspect.isfunction(value) or hasattr(value, "cache_info"))
                    and not inspect.isgeneratorfunction(value)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    replaced.setdefault(id(value), self._wrap(value, f"{layer}.{attr}"))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    def summary(self) -> dict:
        """Per-layer self times, group times and work counts so far."""
        spans = self.spans
        self_ms = {layer: 0.0 for layer in MODULES}
        group_ms = {g: 0.0 for g in GROUPS}
        calls = {g: 0 for g in GROUPS}
        for name, start, end, parent, _rid, outer in spans:
            dur = (end - start) * 1e3
            self_ms[name.split(".", 1)[0]] += dur
            if parent >= 0:
                self_ms[spans[parent][0].split(".", 1)[0]] -= dur
            if outer:
                group_ms[_GROUP_OF[name]] += dur
                calls[_GROUP_OF[name]] += 1
        work = self._work
        out = {f"{layer}.self_ms": ms for layer, ms in self_ms.items()}
        out.update(group_ms)
        out["words.stuffle_calls"] = calls["words.stuffle_ms"]
        out["words.stuffle_terms"] = work["stuffle_terms"]
        out["words.s_map_terms"] = work["s_map_terms"]
        out["verify.cases"] = work["verify_cases"]
        out["numeric.digits"] = work["digits"]
        out["numeric.unreachable"] = work["unreachable"]
        out["numeric.rss_growth_mb"] = work["rss_growth_kb"] / 1024
        out["spans"] = len(spans)
        out.update(counters())
        return out
