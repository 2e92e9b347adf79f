"""One word-algebra session: a library process driven over stdin/stdout.

Usage: python perfbench/session_child.py <trace 0|1>, with zetastar on
PYTHONPATH.  Prints one "ready" line after importing the library, then reads
one JSON request per line and answers each with one JSON line holding the
time spent in the library (``dt``, seconds) and a summary of the result for
the checker, computed after the clock stops.  With tracing on, the last line
after end of input is the tracer's summary.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time

TRACE = sys.argv[1] == "1"


def rss_mb() -> float:
    # current RSS; ru_maxrss would start at the parent's RSS, kept across exec
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


rss0 = rss_mb()
t0 = time.perf_counter()
import zetastar  # noqa: E402  (the import is what is being timed)

import_ms = (time.perf_counter() - t0) * 1e3
import_rss_mb = rss_mb() - rss0
if TRACE:
    from tracer import Tracer  # (after the timed import)

    tracer = Tracer()
    tracer.install()
words = zetastar.words


def run(op: str, ws: list[tuple[int, ...]]):
    elem = words.HarmElem.from_word
    if op == "stuffle":
        a, b = elem(ws[0]), elem(ws[1])
        product = a * b
        return product, product == b * a
    if op == "assoc":
        a, b, c = (elem(w) for w in ws)
        left = (a * b) * c
        return left, left == a * (b * c)
    if op == "s_map":
        return words.s_map(ws[0]), None
    return None, words.s_map(ws[0]) == words.s_map_via_s1(ws[0])


def summarize(op: str, result, flag) -> dict:
    if op == "agree":
        return {"agree": flag}
    terms = result.items()
    out = {
        "terms": len(terms),
        "weights": sorted({sum(w) for w, _ in terms}),
        "coeffs": sorted({str(c) for _, c in terms}),
    }
    if op == "stuffle":
        out["commutative"] = flag
        out["mult_sum"] = int(sum(c for _, c in terms))
    if op == "assoc":
        out["associative"] = flag
    return out


print("ready", flush=True)
rid = 0
while line := sys.stdin.readline():
    request = json.loads(line)
    rid += 1
    ws = [tuple(w) for w in request["words"]]
    if TRACE:
        tracer.request = rid
    start = time.perf_counter()
    result, flag = run(request["op"], ws)
    dt = time.perf_counter() - start
    with tracer.paused() if TRACE else contextlib.nullcontext():
        summary = summarize(request["op"], result, flag)
    print(json.dumps({"dt": dt, "summary": summary}), flush=True)

if TRACE:
    out = tracer.summary()
    out["import.ms"] = import_ms
    out["import.rss_mb"] = import_rss_mb
    print(json.dumps(out), flush=True)
