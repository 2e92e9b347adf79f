"""zetastar benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/zetastar``, started the way a user starts it.  The load is a closed
loop with one client: one request in flight at a time, no think time.

* ``cli-closed-forms`` and ``cli-eval`` start a fresh
  ``python -m zetastar.cli`` process per request.  The seed fixes the order
  of the requests in every pass; whole passes run until ``--seconds`` have
  gone by, after one untimed warm-up pass that fills ``__pycache__`` and the
  OS file cache.  Wall time and max RSS of each request come from
  ``os.wait4`` on that request's own process.
* ``session-words`` runs whole sessions until ``--seconds`` have gone by.  A
  session is a fresh child that imports the library once and runs the next
  deck of the seed's stream of in-process requests (see ``workloads.py``),
  so no request of a run repeats another; its latencies are timed inside
  the child, around the library calls only.

``setup_s`` is the median wall time of SETUP_PROBES fresh interpreters that
import ``zetastar.cli``.  ``requests_per_s`` and ``latency_p50_ms`` are
medians over the passes (CLI) or sessions of the run; ``latency_tail_ms`` is
the TAIL_PERCENTILE of all requests of the run.  ``ok_share`` is the share
of requests whose outcome is ``ok`` (the complement of the failed share,
which would read 0 on two workloads).

With ``--trace 1`` every request also runs under the span tracer in
``tracer.py`` (CLI: each request untraced, then traced; session: one session
sent to an untraced and a traced child in turn), and the last line holds the
per-layer metrics per pass, so counts repeat exactly for a fixed seed.  The
difference in throughput between the untraced and traced requests is the
tracing overhead.  Lines before the last one carry the provenance and a
readable table.

The command exits 2 without a result when ``src/zetastar`` is missing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
# One session is a fresh library process running one deck of seeded requests.
SESSION_REQUESTS = wl.DECK_SIZE
# latency_tail_ms is a fixed percentile per workload: the highest of p75,
# p90, p95, p99 with at least 10 samples beyond it in a run at today's
# speed.  A run goes on past --seconds until it has those 10 samples.  A
# CLI pass repeats the same requests; the sessions of a run deal distinct
# decks, so their samples beyond p99 come from distinct inputs.
TAIL_PERCENTILE = {"cli-closed-forms": 75, "cli-eval": 75, "session-words": 99}
REQUEST_TIMEOUT_S = 60.0
TRACE_MARK = "PERFBENCH_TRACE "
MB = 1024.0  # ru_maxrss is in KiB on Linux


# Which end-to-end metric each group of layer metrics should move, and where.
LAYER_MAP = [
    ("import.ms import.rss_mb", "setup_s", "all workloads"),
    ("import.ms import.rss_mb", "latency_p50_ms peak_rss_mb", "cli-eval"),
    ("import.ms import.rss_mb", "nothing beyond setup_s", "session-words"),
    ("cli.self_ms", "latency_p50_ms", "cli-eval"),
    ("words.*", "requests_per_s latency_tail_ms peak_rss_mb", "session-words"),
    ("words.*", "nothing (layer absent)", "cli-closed-forms"),
    ("closed_forms.* exact.* cyclotomic.self_ms series.self_ms",
     "requests_per_s latency_tail_ms", "cli-closed-forms"),
    ("closed_forms.* exact.* cyclotomic.self_ms series.self_ms", "nothing", "session-words"),
    ("numeric.* certified_digits_per_ms", "ok_share peak_rss_mb latency_p50_ms", "cli-eval"),
    ("verify.self_ms verify.cases_per_s", "latency",
     "cli-closed-forms (genfunc), cli-eval (zhom)"),
    ("unattributed_ms", "- (remainder outside all spans)", "all workloads"),
]


@functools.cache
def spec() -> dict:
    """Metric names to units, and each workload's reason, from BENCHMARK.json."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in data["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in data["per_layer"]},
        "why": {w["name"]: w["why"] for w in data["workloads"]},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    """Outcome of one child process, with its own rusage from os.wait4."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    maxrss_mb: float


def run_child(argv: list[str]) -> Child:
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        deadline = start + REQUEST_TIMEOUT_S
        while sel.get_map() and time.perf_counter() < deadline:
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        if sel.get_map():  # timed out; the exit status marks it wrong
            proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / MB,
    )


def cli_argv(req: wl.CliRequest, traced: bool) -> list[str]:
    entry = [str(HERE / "cli_child.py")] if traced else ["-m", "zetastar.cli"]
    return [sys.executable, *entry, *req.argv]


def setup_seconds() -> list[float]:
    """Wall time from a fresh interpreter to `zetastar.cli` imported."""
    return [
        run_child([sys.executable, "-c", "import zetastar.cli"]).wall
        for _ in range(SETUP_PROBES)
    ]


class Tally:
    """Samples and outcomes of the timed (or traced) requests of one run."""

    def __init__(self, block: int, tail_percentile: int) -> None:
        self.block = block
        self.tail_percentile = tail_percentile
        self.latency: list[float] = []
        self.rss: list[float] = []
        self.outcomes = {wl.OK: 0, wl.FAILED: 0, wl.WRONG: 0}
        self.digits = 0.0
        self.cpu = 0.0
        self.wrong: list[str] = []
        self.by_kind: dict[str, list[float]] = {}

    def add(self, kind: str, latency: float, outcome: str, digits: float = 0.0,
            rss_mb: float | None = None, cpu: float = 0.0, detail: str = "") -> None:
        self.latency.append(latency)
        self.cpu += cpu
        if rss_mb is not None:
            self.rss.append(rss_mb)
        self.by_kind.setdefault(kind, []).append(latency)
        self.outcomes[outcome] += 1
        self.digits += digits
        if outcome == wl.WRONG:
            self.wrong.append(f"{kind} {detail}".strip())

    def kind_p50_ms(self) -> dict[str, float]:
        return {
            k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(self.by_kind.items())
        }

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def enough(self) -> bool:
        """At least 10 samples beyond the tail percentile, and one block."""
        beyond = self.attempted * (100 - self.tail_percentile) / 100
        return beyond >= 10 and self.attempted >= self.block

    def blocks(self) -> list[list[float]]:
        """Latencies per whole pass (CLI) or session."""
        lat, b = self.latency, self.block
        return [lat[i:i + b] for i in range(0, len(lat) - b + 1, b)]

    def requests_per_s(self) -> float:
        return statistics.median(len(b) / sum(b) for b in self.blocks())

    def end_to_end(self, setup: list[float]) -> dict:
        lat = self.latency
        cuts = statistics.quantiles(lat, n=100, method="inclusive")
        return {
            "setup_s": statistics.median(setup),
            "requests_per_s": self.requests_per_s(),
            # median of the passes' medians: the pooled median of a CLI
            # workload falls in the gap between two request kinds, where
            # it jumps between them from run to run
            "latency_p50_ms": statistics.median(map(statistics.median, self.blocks())) * 1e3,
            "latency_tail_ms": cuts[self.tail_percentile - 1] * 1e3,
            "peak_rss_mb": max(self.rss),
            "ok_share": self.outcomes[wl.OK] / len(lat),
        }


@dataclass
class Run:
    """Everything one invocation measured."""

    untraced: Tally
    traced: Tally
    passes: int
    setup: list[float] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)  # traced children's summaries
    warm: dict[str, bytes] = field(default_factory=dict)  # warm-up stdout per request


def _trace_of(child: Child) -> dict:
    lines = child.stderr.decode(errors="replace").splitlines()
    for line in reversed(lines):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    raise RuntimeError(f"traced request left no trace: {lines[-3:]}")


def run_cli(name: str, seed: int, seconds: float, trace: bool) -> Run:
    requests = wl.CLI_WORKLOADS[name]
    rng = random.Random(seed)
    tail = TAIL_PERCENTILE[name]
    run = Run(Tally(len(requests), tail), Tally(len(requests), tail), 0)
    untraced, traced = run.untraced, run.traced
    for req in requests:  # warm-up pass, untimed
        child = run_child(cli_argv(req, False))
        run.warm[req.name] = child.stdout
        if wl.classify(req, child.returncode, child.stdout)[0] == wl.WRONG:
            untraced.wrong.append(f"warm-up {req.name}")
    if not trace:
        run.setup = setup_seconds()
    start = time.perf_counter()
    while not untraced.enough or time.perf_counter() - start < seconds:
        for req in wl.order(requests, rng):
            child = run_child(cli_argv(req, False))
            outcome, digits = wl.classify(req, child.returncode, child.stdout)
            untraced.add(req.name, child.wall, outcome, digits, child.maxrss_mb, child.cpu)
            if trace:
                child = run_child(cli_argv(req, True))
                outcome, digits = wl.classify(req, child.returncode, child.stdout)
                traced.add(req.name, child.wall, outcome, digits, child.maxrss_mb, child.cpu)
                run.spans.append(_trace_of(child))
        run.passes += 1
    return run


def session_round(deck: list[dict], tallies: list[Tally]) -> list[dict]:
    """One session of the deck's requests, sent to a fresh untraced child
    and, with a second tally, a traced child in turn.  Returns the traced
    child's summary, if there is one."""
    children = []
    spans = []
    try:
        for flag in ("0", "1")[:len(tallies)]:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "session_child.py"), flag], cwd=ROOT,
                env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
            children.append(proc)
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("session child did not start")
        for request in deck:
            line = json.dumps(request) + "\n"
            for proc, tally in zip(children, tallies):
                proc.stdin.write(line)
                proc.stdin.flush()
                answer = json.loads(proc.stdout.readline())
                outcome = wl.check_session(request, answer["summary"])
                tally.add(request["op"], answer["dt"], outcome, detail=str(request["words"]))
        for proc in children:
            proc.stdin.close()
            rest = proc.stdout.read().strip()
            if rest:
                spans.append(json.loads(rest.splitlines()[-1]))
    finally:
        for proc, tally in zip(children, tallies):
            if not proc.stdin.closed:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            tally.rss.append(usage.ru_maxrss / MB)
            tally.cpu += usage.ru_utime + usage.ru_stime
    return spans


def run_session(seed: int, seconds: float, trace: bool) -> Run:
    """Whole sessions, each on the next deck of the seed's stream, until
    --seconds have gone by; one session on the first deck when tracing."""
    tail = TAIL_PERCENTILE["session-words"]
    run = Run(Tally(SESSION_REQUESTS, tail), Tally(SESSION_REQUESTS, tail), 1)
    if not trace:
        run.setup = setup_seconds()
    stream = wl.session_requests(seed)

    def deck() -> list[dict]:
        return list(itertools.islice(stream, SESSION_REQUESTS))

    start = time.perf_counter()
    run.spans = session_round(deck(), [run.untraced, run.traced][: 1 + trace])
    while not trace and (
        not run.untraced.enough or time.perf_counter() - start < seconds
    ):
        session_round(deck(), [run.untraced])
        run.passes += 1
    return run


def _sum(spans: list[dict], key: str):
    values = [s.get(key) for s in spans]
    return None if any(v is None for v in values) else sum(values)


def per_layer(run: Run, session: bool) -> dict:
    """Per-layer metrics per pass; the session's pass is one session.

    traced_request_ms = import.ms + the layers' self times + unattributed_ms.
    A CLI request's wall time already holds its import; the session imports
    once, outside its requests, so its import is added.
    """
    spans, passes, untraced, traced = run.spans, run.passes, run.untraced, run.traced
    out = {}
    units = spec()["per_layer"]
    for key, unit in units.items():
        if unit in ("ms", "count") and key in spans[0]:
            total = _sum(spans, key)
            out[key] = None if total is None else total / passes
    out["import.rss_mb"] = max(s["import.rss_mb"] for s in spans)
    out["numeric.rss_growth_mb"] = max(s["numeric.rss_growth_mb"] for s in spans)
    hits = _sum(spans, "words.stuffle_cache_hits")
    lookups = _sum(spans, "words.stuffle_cache_lookups")
    out["words.stuffle_cache_hit_ratio"] = (
        None if hits is None or lookups is None else hits / lookups if lookups else 0.0
    )
    eval_ms = out["numeric.eval_ms"]
    out["numeric.digits_per_ms"] = (
        _sum(spans, "numeric.digits") / passes / eval_ms if eval_ms else 0.0
    )
    suite_ms = out["verify.suite_ms"]
    out["verify.cases_per_s"] = (
        _sum(spans, "verify.cases") / passes / suite_ms * 1e3 if suite_ms else 0.0
    )
    out["certified_digits_per_ms"] = untraced.digits / (sum(untraced.latency) * 1e3)
    request_ms = sum(traced.latency) * 1e3 / passes
    if session:
        request_ms += out["import.ms"]
    out["traced_request_ms"] = request_ms
    layers = sum(out[f"{m}.self_ms"] for m in (
        "cli", "words", "closed_forms", "exact", "cyclotomic", "series",
        "numeric", "verify"))
    out["unattributed_ms"] = request_ms - out["import.ms"] - layers
    plain_rps = untraced.requests_per_s()
    traced_rps = traced.requests_per_s()
    out["trace.untraced_requests_per_s"] = plain_rps
    out["trace.traced_requests_per_s"] = traced_rps
    out["trace.overhead_pct"] = 100.0 * (1.0 - traced_rps / plain_rps)
    return {k: out[k] for k in units}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _numpy_version() -> str | None:
    probe = run_child([
        sys.executable, "-c",
        "import sys, zetastar.cli; m = sys.modules.get('numpy'); "
        "print(m.__version__ if m else '')",
    ])
    return probe.stdout.decode().strip() or None


def _table(rows: dict, units: dict) -> str:
    width = max(map(len, rows))
    lines = []
    for key, value in rows.items():
        text = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {key:<{width}}  {text:>14}  {units[key]}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec()["why"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zetastar" / "cli.py").is_file():
        print(f"error: no zetastar sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    session = args.workload == "session-words"
    if session:
        run = run_session(args.seed, args.seconds, trace)
    else:
        run = run_cli(args.workload, args.seed, args.seconds, trace)
    sys.path.insert(0, str(SRC))  # the cross-check runs the oracle routes here
    wrong = run.untraced.wrong + run.traced.wrong + wl.cross_check(run.warm)
    measured = run.traced if trace else run.untraced
    if trace:
        metrics, units = per_layer(run, session), spec()["per_layer"]
    else:
        metrics, units = run.untraced.end_to_end(run.setup), spec()["end_to_end"]
    provenance = {
        "workload": args.workload,
        "why": spec()["why"][args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "commit": _git_commit(),
        "load": "closed loop, one client, no think time",
        "requests_per_pass": measured.block,
        "passes": run.passes,
        "samples": measured.attempted,
        "request_wall_s": sum(measured.latency),
        "child_cpu_s": measured.cpu,
        "latency_tail_percentile": measured.tail_percentile,
        "setup_probes": len(run.setup),
        "outcomes": measured.outcomes,
        "request_p50_ms": measured.kind_p50_ms(),
        "wrong": wrong,
        "layer_map": LAYER_MAP,
    }
    print(json.dumps({"provenance": provenance}))
    print(f"{args.workload} ({'per-layer, per pass' if trace else 'end to end'}):")
    print(_table(metrics, units))
    print(json.dumps({
        "correct": not wrong,
        "attempted": measured.attempted,
        "failed": measured.outcomes[wl.FAILED],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
