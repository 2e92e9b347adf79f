"""Run one zetastar CLI request under the span tracer.

Usage: python perfbench/cli_child.py <zetastar cli arguments>, with zetastar
on PYTHONPATH.  The CLI's stdout and exit code are left as they are; the
tracer's summary goes to stderr as the last line, after a fixed marker.
"""

import json
import resource
import sys
import time


def rss_mb() -> float:
    # current RSS; ru_maxrss would start at the parent's RSS, kept across exec
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


rss0 = rss_mb()
t0 = time.perf_counter()
import zetastar.cli  # noqa: E402  (the import is what is being timed)

import_ms = (time.perf_counter() - t0) * 1e3
import_rss_mb = rss_mb() - rss0
from tracer import Tracer  # noqa: E402  (after the timed import)

tracer = Tracer()
tracer.install()
code = zetastar.cli.main(sys.argv[1:])
sys.stdout.flush()
summary = tracer.summary()
summary["import.ms"] = import_ms
summary["import.rss_mb"] = import_rss_mb
print("PERFBENCH_TRACE " + json.dumps(summary), file=sys.stderr)
sys.exit(code)
