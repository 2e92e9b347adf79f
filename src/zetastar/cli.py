"""Command-line front end.

Subcommands
-----------
expand      print the zeta-star expansion of an index as a sum of zeta words
eval        numeric value of zeta (or zeta-star with --star) with error bound
coeff       exact closed-form value (thmA | thmB | thmC | thm1) as q * pi^w
verify      run an identity check suite (thm6 | thm7 | stuffle | genfunc |
            sconsist | zhom)
bernoulli   print a Bernoulli number
insertions  list the 2n+1 insertions of a 2 into the alternating (3,1) string

Every command accepts --format json|text (default text).  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 bad input or usage,
2 requested tolerance unreachable, 3 internal invariant failure (including a
failed verification).
"""

from __future__ import annotations

import argparse
import sys

# Each runner imports the layers it uses, so a command loads only those.
from ._base import NotRationalError, ToleranceUnreachable

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetastar", description=__doc__.split("\n\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS so a value given before the subcommand is not overwritten by
    # the subparser's default; runners fall back to "text"
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="zeta-star expansion")
    p.add_argument("--index", required=True, help='index, e.g. "3,1,3,1"')
    p.add_argument(
        "--star",
        action="store_true",
        help="read the index as a zeta-star value (the default and only "
        "interpretation; accepted for symmetry with eval)",
    )

    p = sub.add_parser("eval", parents=[common], help="numeric evaluation")
    p.add_argument("--index", required=True)
    p.add_argument("--star", action="store_true", help="evaluate the star sum")
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("coeff", parents=[common], help="exact closed forms")
    which = p.add_subparsers(dest="family", required=True)
    fam = which.add_parser("thmA", parents=[common])
    fam.add_argument("--m", type=int, required=True)
    fam.add_argument("--n", type=int, required=True)
    fam = which.add_parser("thmB", parents=[common])
    fam.add_argument("--n", type=int, required=True)
    fam = which.add_parser("thmC", parents=[common])
    fam.add_argument("--n", type=int, required=True)
    fam = which.add_parser("thm1", parents=[common])
    fam.add_argument("--m", type=int, required=True)
    fam.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", parents=[common], help="identity suites")
    which = p.add_subparsers(dest="check", required=True)
    chk = which.add_parser("thm6", parents=[common])
    chk.add_argument("--a", type=int, required=True)
    chk.add_argument("--b", type=int, required=True)
    chk.add_argument("--n", type=int, required=True)
    chk = which.add_parser("thm7", parents=[common])
    chk.add_argument("--a", type=int, required=True)
    chk.add_argument("--b", type=int, required=True)
    chk.add_argument("--c", type=int, required=True)
    chk.add_argument("--n", type=int, required=True)
    chk = which.add_parser("stuffle", parents=[common])
    chk.add_argument("--seed", type=int, default=1)
    chk.add_argument("--trials", type=int, default=100)
    chk.add_argument("--max-weight", type=int, default=8)
    chk = which.add_parser("genfunc", parents=[common])
    chk.add_argument("--m", type=int, required=True)
    chk.add_argument("--max-n", type=int, required=True)
    chk = which.add_parser("sconsist", parents=[common])
    chk.add_argument("--max-depth", type=int, default=6)
    chk.add_argument("--max-part", type=int, default=3)
    chk = which.add_parser("zhom", parents=[common])
    chk.add_argument("--seed", type=int, default=1)
    chk.add_argument("--trials", type=int, default=50)
    chk.add_argument("--tol", type=float, default=argparse.SUPPRESS)

    p = sub.add_parser("bernoulli", parents=[common], help="Bernoulli number")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("insertions", parents=[common], help="2-insertion set")
    p.add_argument("--n", type=int, required=True)

    return parser


def _emit(text_form: str, json_obj, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(json_obj, sort_keys=True))
    else:
        print(text_form)


def _budget(args) -> dict:
    """The --tol given; the library's default stands otherwise, so it is
    written in one place."""
    return {"tol": args.tol} if hasattr(args, "tol") else {}


def _run_expand(args) -> int:
    from .words import s_map

    elem = s_map(args.index)
    _emit(str(elem), elem.to_json_obj(), args.format)
    return EXIT_OK


def _run_eval(args) -> int:
    from .numeric import mzsv_numeric, mzv_numeric

    evaluate = mzsv_numeric if args.star else mzv_numeric
    nv = evaluate(args.index, **_budget(args))
    _emit(
        f"{nv.value:.17g} (error <= {nv.error_bound:.3e})",
        nv.to_json_obj(),
        args.format,
    )
    return EXIT_OK


def _run_coeff(args) -> int:
    from . import closed_forms
    from .exact import PiMultiple

    if args.family == "thmA":
        value = PiMultiple(
            closed_forms.thmA_coefficient(args.m, args.n), 2 * args.m * args.n
        )
    elif args.family == "thmB":
        value = PiMultiple(closed_forms.thmB_coefficient(args.n), 4 * args.n)
    elif args.family == "thmC":
        value = PiMultiple(closed_forms.thmC_coefficient(args.n), 4 * args.n + 2)
    else:
        value = closed_forms.mzv_repeated_2m(args.m, args.n)
    _emit(str(value), value.to_json_obj(), args.format)
    return EXIT_OK


def _run_verify(args) -> int:
    from . import verify

    if args.check == "thm6":
        report = verify.verify_thm6(args.a, args.b, args.n)
    elif args.check == "thm7":
        report = verify.verify_thm7(args.a, args.b, args.c, args.n)
    elif args.check == "stuffle":
        report = verify.verify_stuffle_laws(args.seed, args.trials, args.max_weight)
    elif args.check == "genfunc":
        report = verify.verify_genfunc_thmA(args.m, args.max_n)
    elif args.check == "sconsist":
        report = verify.verify_s_consistency(args.max_depth, args.max_part)
    else:
        report = verify.verify_z_homomorphism(args.seed, args.trials, **_budget(args))
    param_text = " ".join(f"{k}={v}" for k, v in report.params.items())
    status = "PASS" if report.ok else f"FAIL({len(report.failures)})"
    _emit(
        f"check={report.check} {param_text} cases={report.cases} {status}",
        report.to_json_obj(),
        args.format,
    )
    return EXIT_OK if report.ok else EXIT_INVARIANT


def _run_bernoulli(args) -> int:
    from .exact import bernoulli

    value = str(bernoulli(args.n))
    _emit(value, {"bernoulli": value}, args.format)
    return EXIT_OK


def _run_insertions(args) -> int:
    from .words import format_index, insertions

    words = insertions(args.n)
    _emit(
        "\n".join(format_index(w) for w in words),
        [list(w) for w in words],
        args.format,
    )
    return EXIT_OK


_RUNNERS = {
    "expand": _run_expand,
    "eval": _run_eval,
    "coeff": _run_coeff,
    "verify": _run_verify,
    "bernoulli": _run_bernoulli,
    "insertions": _run_insertions,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # Python refuses str(int) past 4300 digits by default (3.10.7 and later),
    # and B_2100 has more.  The inputs are read under that limit, which keeps
    # each number given short; the results are computed and printed without it.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "format"):
            args.format = "text"
        if hasattr(args, "index"):
            from .words import parse_index

            args.index = parse_index(args.index)
        if digit_limit:
            sys.set_int_max_str_digits(0)
        return _RUNNERS[args.command](args)
    except ValueError as exc:  # usage, index syntax and library range checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToleranceUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except NotRationalError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
