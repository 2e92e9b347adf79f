"""Request sets of the three workloads and the checker for their outputs.

Every request ends in one of three outcomes: ``ok``, ``failed`` (the CLI
exited 2, or exited 0 with an error bound above the requested tolerance) or
``wrong`` (anything else that is not the right answer).  A single ``wrong``
makes the run incorrect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

OK, FAILED, WRONG = "ok", "failed", "wrong"


@functools.cache
def golden() -> dict[str, str]:
    """SHA-256 of the expected stdout of each exact request, taken at the
    commit that defined the benchmark."""
    return json.loads((Path(__file__).parent / "golden.json").read_text())


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
_APERY = Decimal("1.202056903159594285399738161511")

# (index, star) -> exact value to the default 28 digits; hard-coded here,
# never computed by zetastar
REFERENCES = {
    ((2,), False): _PI**2 / 6,
    ((3,), False): _APERY,
    ((2, 1), False): _APERY,
    ((3, 1), False): _PI**4 / 360,
    ((2, 2), False): _PI**4 / 120,
    ((4, 4), False): _PI**8 / 113400,
    ((2, 1, 1), False): _PI**4 / 90,
    ((3, 1), True): _PI**4 / 72,
    ((2, 2), True): 7 * _PI**4 / 360,
    ((4, 4), True): 13 * _PI**8 / 113400,
    ((2, 2, 2), True): 31 * _PI**6 / 15120,
    ((3, 1, 3, 1), True): 53 * _PI**8 / 362880,
}


@dataclass(frozen=True)
class CliRequest:
    name: str
    argv: tuple[str, ...]
    # eval: (index, star, tol); exact: (family, args) for the cross-check
    spec: tuple = ()

    @property
    def is_eval(self) -> bool:
        return self.argv[0] == "eval"


def _exact(family: str, *args: int, json_out: bool = False) -> CliRequest:
    if family == "bernoulli":
        argv = ("bernoulli", "--n", str(args[0]))
    else:
        keys = ("--m", "--n") if family in ("thmA", "thm1") else ("--n",)
        argv = ("coeff", family) + tuple(
            x for k, a in zip(keys, args) for x in (k, str(a))
        )
    if json_out:
        argv += ("--format", "json")
    name = "-".join((family,) + tuple(map(str, args))) + ("-json" if json_out else "")
    return CliRequest(name, argv, (family, args))


def _eval(index: tuple[int, ...], tol: str, star: bool = False, json_out: bool = False):
    argv = ("eval", "--index", ",".join(map(str, index)), "--tol", tol)
    argv += ("--star",) if star else ()
    argv += ("--format", "json") if json_out else ()
    name = ("zstar" if star else "z") + "(" + ",".join(map(str, index)) + ")@" + tol
    return CliRequest(name + ("-json" if json_out else ""), argv, (index, star, float(tol)))


CLOSED_FORMS = (
    _exact("thmA", 4, 6),
    _exact("thmA", 5, 4),
    _exact("thmA", 6, 4),
    _exact("thmA", 6, 5),
    _exact("thm1", 6, 10),
    _exact("thmB", 40),
    _exact("thmC", 40),
    _exact("bernoulli", 400),
    CliRequest("genfunc-4-3", ("verify", "genfunc", "--m", "4", "--max-n", "3")),
    _exact("thmA", 5, 4, json_out=True),
)

EVAL = (
    _eval((2,), "1e-10"),
    _eval((3,), "1e-12"),
    _eval((2, 1), "1e-6"),
    _eval((3, 1), "1e-8"),
    _eval((3, 1), "1e-12"),
    _eval((2, 2), "1e-8"),
    _eval((4, 4), "1e-10"),
    _eval((2, 1, 1), "1e-4"),
    _eval((2, 1, 1), "1e-6"),
    _eval((3, 1), "1e-8", star=True),
    _eval((2, 2), "1e-6", star=True, json_out=True),
    _eval((2, 2), "1e-8", star=True),
    _eval((4, 4), "1e-10", star=True, json_out=True),
    _eval((2, 2, 2), "1e-6", star=True),
    _eval((3, 1, 3, 1), "1e-8", star=True),
    CliRequest("zhom-1-50", ("verify", "zhom", "--seed", "1", "--trials", "50")),
)

CLI_WORKLOADS = {"cli-closed-forms": CLOSED_FORMS, "cli-eval": EVAL}


def order(requests, rng: random.Random) -> list[CliRequest]:
    """One pass over the request set, in an order fixed by the seeded rng."""
    out = list(requests)
    rng.shuffle(out)
    return out


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


_TEXT_EVAL = re.compile(r"^(\S+) \(error <= (\d\.\d{3})e([+-]\d+)\)$")


def parse_eval(stdout: str) -> tuple[Decimal, Decimal, Decimal]:
    """(value, bound as printed, bound widened by the print rounding)."""
    text = stdout.strip()
    if text.startswith("{"):
        obj = json.loads(text)
        bound = Decimal(obj["error_bound"])
        return Decimal(obj["value"]), bound, bound
    match = _TEXT_EVAL.match(text)
    if not match:
        raise ValueError(f"unparseable eval output {text!r}")
    value, mantissa, exp = match.groups()
    bound = Decimal(mantissa + "e" + exp)
    # '%.3e' may round the bound down by up to half a unit in its last digit
    return Decimal(value), bound, bound + Decimal("0.0005e" + exp)


def classify(req: CliRequest, returncode: int, stdout: bytes) -> tuple[str, float]:
    """Outcome of one CLI request, and the certified digits it delivered."""
    if req.is_eval:
        if returncode == 2:
            return FAILED, 0.0
        if returncode != 0:
            return WRONG, 0.0
        try:
            value, bound, widened = parse_eval(stdout.decode())
        except (ValueError, ArithmeticError):
            return WRONG, 0.0
        index, star, tol = req.spec
        if abs(value - REFERENCES[(index, star)]) > widened:
            return WRONG, 0.0
        if bound > Decimal(repr(tol)):
            return FAILED, 0.0
        return OK, float(-bound.log10()) if bound > 0 else 0.0
    if returncode == 0 and digest(stdout) == golden().get(req.name):
        return OK, 0.0
    return WRONG, 0.0


def _parse_pi_multiple(stdout: bytes) -> tuple[Fraction, int]:
    text = stdout.decode().strip()
    if text.startswith("{"):
        obj = json.loads(text)
        return Fraction(obj["coeff"]), int(obj["pi_power"])
    coeff, power = text.split(" * pi^")
    return Fraction(coeff), int(power)


def _staudt_clausen_ok(n: int, value: Fraction) -> bool:
    """B_n + sum of 1/p over primes p with (p - 1) | n is an integer."""
    primes = [p for p in range(2, n + 2) if all(p % d for d in range(2, int(p**0.5) + 1))]
    total = value + sum(Fraction(1, p) for p in primes if n % (p - 1) == 0)
    sign_ok = (value > 0) == (n % 4 == 2)
    return total.denominator == 1 and sign_ok


def cross_check(outputs: dict[str, bytes]) -> list[str]:
    """Check exact outputs against the independent routes; returns mismatches.

    Runs outside the timed section and imports zetastar itself, so it is
    called only after all measurement is done.
    """
    from zetastar import closed_forms as cf

    routes = {
        "thmA": lambda m, n: (cf.newton_h_oracle(m, n), 2 * m * n),
        "thm1": lambda m, n: (cf.newton_e_oracle(m, n), 2 * m * n),
        "thmB": lambda n: (cf.thmB_via_relation(n), 4 * n),
        "thmC": lambda n: (cf.thmC_via_relation(n), 4 * n + 2),
    }
    bad = []
    for req in CLOSED_FORMS:
        if not req.spec or req.name not in outputs:
            continue
        family, args = req.spec
        stdout = outputs[req.name]
        if family == "bernoulli":
            text = stdout.decode().strip()
            ok = bool(re.fullmatch(r"-?\d+/\d+", text)) and _staudt_clausen_ok(
                args[0], Fraction(text)
            )
        else:
            ok = _parse_pi_multiple(stdout) == routes[family](*args)
        if not ok:
            bad.append(req.name)
    return bad


# --- session-words -----------------------------------------------------------


# A session deals one shuffled deck of (op, depths) cards: 9 of each
# (depth, depth) stuffle pair, 4 of each associativity depth triple, 9 of
# each s_map depth and 4 of each agreement depth.  Every seed thus gets the
# same mix of cheap and exponential requests (44% stuffle, 21% associativity,
# 24% s_map, 11% agreement); the seed picks the order and the parts.
_DECK = (
    [("stuffle", (a, b)) for a in range(1, 6) for b in range(1, 6)] * 9
    + [("assoc", (a, b, c)) for a in range(1, 4) for b in range(1, 4) for c in range(1, 4)] * 4
    + [("s_map", (d,)) for d in range(1, 15)] * 9
    + [("agree", (d,)) for d in range(1, 15)] * 4
)
DECK_SIZE = len(_DECK)
_MAX_PART = {"stuffle": 4, "assoc": 4, "s_map": 3, "agree": 3}


def session_requests(seed: int):
    """Endless seeded stream of in-process word-algebra requests, one deck
    after another: stuffle products (depth <= 5, parts <= 4), associativity
    triples (depth <= 3, parts <= 4), s_map (depth <= 14, parts <= 3), and
    s_map against s_map_via_s1 (depth <= 14, parts <= 3)."""
    rng = random.Random(seed)
    while True:
        deck = list(_DECK)
        rng.shuffle(deck)
        for op, depths in deck:
            part = _MAX_PART[op]
            yield {
                "op": op,
                "words": [[rng.randint(1, part) for _ in range(d)] for d in depths],
            }


def delannoy(m: int, n: int) -> int:
    return sum(comb(m, k) * comb(n, k) * 2**k for k in range(min(m, n) + 1))


def check_session(request: dict, summary: dict) -> str:
    """Outcome of one session request from the child's summary of its result."""
    op, words = request["op"], request["words"]
    weight = sum(map(sum, words))
    if op == "stuffle":
        u, v = words
        ok = (
            summary["commutative"]
            and summary["weights"] == [weight]
            and summary["mult_sum"] == delannoy(len(u), len(v))
        )
    elif op == "assoc":
        ok = summary["associative"] and summary["weights"] == [weight]
    elif op == "s_map":
        ok = (
            summary["terms"] == 2 ** (len(words[0]) - 1)
            and summary["coeffs"] == ["1"]
            and summary["weights"] == [weight]
        )
    else:
        ok = summary["agree"]
    return OK if ok else WRONG
