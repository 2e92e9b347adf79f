import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import zetastar
from zetastar.cli import _build_parser, main
from zetastar.exact import PiMultiple, bernoulli
from zetastar.words import HarmElem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "expand", "--index", "3,1")
        assert code == 0
        assert out.strip() == "z4 + z3 z1"

    def test_star_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "expand", "--index", "3,1", "--star")
        assert code == 0
        assert out.strip() == "z4 + z3 z1"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "expand", "--index", "3,1,3,1", "--format", "json")
        assert code == 0
        elem = HarmElem.from_json_obj(json.loads(out))
        assert len(elem) == 8

    def test_whitespace_index(self, capsys):
        code, out, _ = run(capsys, "expand", "--index", " 2 , 2 ")
        assert code == 0
        assert out.strip() == "z4 + z2 z2"


class TestEval:
    def test_star_two_two(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--index", "2,2", "--star", "--tol", "1e-6"
        )
        assert code == 0
        value = float(out.split()[0])
        assert abs(value - 7 * math.pi**4 / 360) <= 1e-6

    def test_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--index", "2", "--format", "json", "--tol", "1e-9"
        )
        assert code == 0
        obj = json.loads(out)
        assert abs(float(obj["value"]) - math.pi**2 / 6) <= 1e-9
        assert float(obj["error_bound"]) >= 0

    def test_non_admissible_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--index", "1,2")
        assert code == 1
        assert "admissible" in err

    def test_unreachable_tolerance_exit_code(self, capsys):
        # below the float64 resolution of zeta(2)
        code, _, err = run(capsys, "eval", "--index", "2", "--tol", "1e-17")
        assert code == 2
        assert err == "error: bound 3.647e-17 exceeds tolerance 1.000e-17\n"

    @pytest.mark.parametrize("flag,value", [("--tol", "1e-8")])
    def test_default_budget_is_the_library_default(self, capsys, flag, value):
        default = run(capsys, "eval", "--index", "2,2")
        assert default[0] == 0
        assert run(capsys, "eval", "--index", "2,2", flag, value) == default

    @pytest.mark.parametrize("index,tol", [("2", "1e-10"), ("3,1", "1e-12")])
    def test_printed_bound_meets_tolerance(self, capsys, index, tol):
        code, out, _ = run(capsys, "eval", "--index", index, "--tol", tol)
        assert code == 0
        bound = out.split("(error <= ")[1].rstrip(")\n")
        assert float(bound) <= float(tol)

    def test_text_bound_is_the_certified_one_rounded_up(self, capsys):
        from zetastar.numeric import mzsv_numeric, mzv_numeric

        indices = [
            "2", "3", "4", "5", "2,1", "3,1", "2,2", "2,1,1", "3,1,3,1", "2,2,2"
        ]
        tols = ["1e-2", "1e-4", "1e-6", "1e-8", "1e-10", "1e-13", "1e-16"]
        shown = 0
        for index, tol, star in product(indices, tols, (False, True)):
            argv = ["eval", "--index", index, "--tol", tol] + ["--star"] * star
            code, out, _ = run(capsys, *argv)
            if code == 2:  # the float cannot carry the tolerance
                continue
            assert code == 0, argv
            evaluate = mzsv_numeric if star else mzv_numeric
            word = tuple(map(int, index.split(",")))
            certified = Fraction(evaluate(word, float(tol)).error_bound)
            text = out.split("(error <= ")[1].rstrip(")\n")
            mantissa, exponent = text.split("e")
            assert len(mantissa) == 5, text  # 4 significant digits
            printed = Fraction(Decimal(text))
            unit = Fraction(10) ** (int(exponent) - 3)
            # the least 4-digit decimal at or above the certified bound
            assert printed - unit < certified <= printed, argv
            shown += 1
        assert shown >= 130


class TestCoeff:
    def test_thmB_golden(self, capsys):
        code, out, _ = run(capsys, "coeff", "thmB", "--n", "1")
        assert code == 0
        assert out.strip() == "1/72 * pi^4"

    def test_thmA_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "thmA", "--m", "2", "--n", "2", "--format", "json"
        )
        assert code == 0
        p = PiMultiple.from_json_obj(json.loads(out))
        assert p == PiMultiple(Fraction(13, 113400), 8)

    def test_thm1(self, capsys):
        code, out, _ = run(capsys, "coeff", "thm1", "--m", "1", "--n", "1")
        assert code == 0
        assert out.strip() == "1/6 * pi^2"

    def test_thmC(self, capsys):
        code, out, _ = run(capsys, "coeff", "thmC", "--n", "1")
        assert code == 0
        assert out.strip() == "71/15120 * pi^6"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "coeff", "thmC", "--n", "0")
        assert code == 1


class TestVerifyCommand:
    def test_thm6_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm6", "--a", "3", "--b", "1", "--n", "2"
        )
        assert code == 0
        assert "PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "genfunc",
            "--m",
            "2",
            "--max-n",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["check"] == "genfunc"
        assert obj["failures"] == []

    def test_stuffle_defaults(self, capsys):
        code, out, _ = run(capsys, "verify", "stuffle", "--trials", "5")
        assert code == 0
        assert "cases=5" in out

    def test_zhom_short(self, capsys):
        code, out, _ = run(capsys, "verify", "zhom", "--trials", "3")
        assert code == 0
        assert "PASS" in out

    def test_sconsist_deep(self, capsys):
        # exhaustive through depth 6, then 120 seeded words at each of 7-12
        code, out, _ = run(
            capsys, "verify", "sconsist", "--max-depth", "12", "--max-part", "3"
        )
        assert code == 0
        assert out == "check=sconsist max_depth=12 max_part=3 cases=1812 PASS\n"
        code, out, _ = run(
            capsys, "verify", "sconsist", "--max-depth", "12", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "check": "sconsist",
            "params": {"max_depth": 12, "max_part": 3},
            "cases": 1812,
            "failures": [],
        }


class TestSimpleCommands:
    def test_bernoulli(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--n", "12")
        assert code == 0
        assert out.strip() == "-691/2730"

    def test_insertions_text(self, capsys):
        code, out, _ = run(capsys, "insertions", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["2,3,1", "3,2,1", "3,1,2"]

    def test_insertions_json(self, capsys):
        code, out, _ = run(capsys, "insertions", "--n", "2", "--format", "json")
        assert code == 0
        words = json.loads(out)
        assert len(words) == 5
        assert words[0] == [2, 3, 1, 3, 1]


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("expand", "--index", index), id=index)
            for index in ("3,0,1", "3,1,", "", "x")
        ]
        + [
            pytest.param(("eval", "--index", "2", "--tol", "nan"), id="eval-tol-nan"),
            # there is no term cap to set
            pytest.param(
                ("eval", "--index", "2", "--max-terms", "0"), id="eval-max-terms-0"
            ),
            pytest.param(
                ("verify", "zhom", "--trials", "1", "--max-terms", "0"),
                id="zhom-max-terms-0",
            ),
        ],
    )
    def test_bad_index_exit_one(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["eval", "expand"])
    @pytest.mark.parametrize(
        "index,position",
        [("99999999999999999999", 1), ("2,1114112", 2), ("2000000,1", 1)],
    )
    def test_part_past_the_word_limit(self, capsys, command, index, position):
        # refused while the index is read, before any word or letter is built
        code, out, err = run(capsys, command, "--index", index)
        assert (code, out) == (1, "")
        assert err == f"error: parts must be <= 1114111 (part {position})\n"

    def test_block_sum_past_the_word_limit(self, capsys):
        code, out, _ = run(capsys, "expand", "--index", "1114110,1")
        assert (code, out) == (0, "z1114111 + z1114110 z1\n")
        code, out, err = run(capsys, "expand", "--index", "1114111,1")
        assert (code, out) == (1, "")
        assert err == (
            "error: block sum 1114112 is out of range: word parts are at most 1114111\n"
        )

    @pytest.mark.parametrize("index", ["5000", "1114111,1"])
    def test_sweep_past_the_work_cap(self, index):
        # refused before any sweep runs, and before the search for its
        # cutoff: uncapped, each runs for minutes or hours
        src = str(Path(zetastar.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "zetastar.cli", "eval", "--index", index],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: sweeps of ")
        assert "units of work, past the cap of 600000000" in proc.stderr

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "bernoulli", "--n", "2", "--bogus")
        assert code == 1

    def test_negative_bernoulli(self, capsys):
        code, _, _ = run(capsys, "bernoulli", "--n", "-2")
        assert code == 1


class TestOneCommandParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "-h"),
            ("coeff", "thmA", "-h"),
            ("verify", "zhom", "-h"),
            ("expand",),
            ("verify", "bogus"),
            ("insertions", "--n", "x"),
            ("bernoulli", "--n", "2", "extra"),
        ],
    )
    def test_help_and_errors_match_the_full_parser(self, capsys, argv):
        # main builds the named command's parser alone
        outcomes = []
        for command in (None, argv[0]):
            try:
                _build_parser(command).parse_args(list(argv))
            except SystemExit as exc:  # help
                outcomes.append((exc.code, capsys.readouterr()))
            except ValueError as exc:
                outcomes.append((str(exc), capsys.readouterr()))
        assert len(outcomes) == 2 and outcomes[0] == outcomes[1]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 sets no limit on str(int)",
)
class TestLongOutput:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_past_the_int_digit_limit(self, capsys, fmt):
        # B_2100's numerator has 4419 digits, past the default limit of 4300;
        # main lifts the limit and restores it on return
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "bernoulli", "--n", "2100", "--format", fmt)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        printed = out[:-1] if fmt == "text" else json.loads(out)["bernoulli"]
        sys.set_int_max_str_digits(0)
        try:
            assert printed == str(bernoulli(2100))
        finally:
            sys.set_int_max_str_digits(limit)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("expand", "--index", "3,1,3,1", "--format", "json"),
            ("coeff", "thmB", "--n", "3"),
            ("eval", "--index", "2,2", "--star", "--tol", "1e-5"),
            ("verify", "stuffle", "--trials", "10", "--format", "json"),
        ],
    )
    def test_identical_output(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def _fresh_process(script: str) -> str:
    """Run `script` in a new interpreter that imports this checkout; return
    its stdout."""
    src = str(Path(zetastar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_in_fresh_process(*argv):
    """Run `main(argv)` in a new interpreter; return its exit code and the
    set of modules loaded by then."""
    stdout = _fresh_process(
        "import sys, zetastar.cli\n"
        f"code = zetastar.cli.main({list(argv)!r})\n"
        "print(code, *sys.modules)\n"
    )
    code, *loaded = stdout.splitlines()[-1].split()
    return int(code), set(loaded)


class TestImportFootprint:
    def test_exact_command_does_not_load_numpy(self):
        code, loaded = _cli_in_fresh_process("coeff", "thmA", "--m", "2", "--n", "2")
        assert code == 0 and "numpy" not in loaded

    def test_numeric_commands_do_not_load_numpy(self):
        for argv in (
            ("eval", "--index", "2", "--tol", "1e-6"),
            ("verify", "zhom", "--seed", "1", "--trials", "50"),
        ):
            code, loaded = _cli_in_fresh_process(*argv)
            assert code == 0 and "numpy" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [("coeff", "thmA", "--m", "2", "--n", "2"), ("bernoulli", "--n", "12")],
        ids=["coeff", "bernoulli"],
    )
    def test_closed_forms_load_only_their_layers(self, argv):
        code, loaded = _cli_in_fresh_process(*argv)
        assert code == 0
        unused = {
            "zetastar.verify", "zetastar.numeric", "zetastar.words",
            "zetastar.series", "dataclasses", "inspect", "json",
        }
        assert not loaded & unused

    def test_eval_loads_neither_verify_nor_closed_forms(self):
        # nor the word algebra, exact rationals, fractions or decimal
        unused = {
            "zetastar.verify", "zetastar.closed_forms", "zetastar.words",
            "zetastar.exact", "fractions", "decimal", "dataclasses",
        }
        for extra in ((), ("--star",), ("--format", "json")):
            code, loaded = _cli_in_fresh_process("eval", "--index", "2,2", *extra)
            assert code == 0
            assert "zetastar.numeric" in loaded
            assert not loaded & unused, extra
            assert ("json" in loaded) == ("json" in extra)

    def test_expand_loads_only_words(self):
        code, loaded = _cli_in_fresh_process("expand", "--index", "3,1,2")
        assert code == 0
        assert "zetastar.words" in loaded
        unused = {
            "zetastar.exact", "zetastar.numeric", "zetastar.verify",
            "zetastar.closed_forms",
        }
        assert not loaded & unused

    def test_numeric_word_routes_load_words_on_use(self):
        # numeric reaches words only through a HarmElem; both routes that
        # hand it one still run in a fresh process
        code, loaded = _cli_in_fresh_process("verify", "zhom", "--seed", "1")
        assert code == 0 and "zetastar.words" in loaded
        stdout = _fresh_process(
            "from zetastar.numeric import harm_elem_numeric\n"
            "from zetastar.words import s_map\n"
            "print(harm_elem_numeric(s_map((3, 1)), 1e-10).value)\n"
        )
        assert abs(float(stdout) - math.pi**4 / 72) <= 1e-10

    def test_verify_loads_only_the_layers_of_its_check(self):
        code, loaded = _cli_in_fresh_process("verify", "zhom", "--trials", "0")
        assert code == 0
        assert {"zetastar.numeric", "zetastar.words"} <= loaded
        exact_cores = {
            "zetastar.closed_forms", "zetastar.cyclotomic", "zetastar.exact",
            "zetastar.series",
        }
        assert not loaded & exact_cores
        argv = ("verify", "genfunc", "--m", "2", "--max-n", "1")
        code, loaded = _cli_in_fresh_process(*argv)
        assert code == 0
        assert exact_cores <= loaded
        assert not loaded & {"zetastar.numeric", "zetastar.words"}

    def test_json_output_loads_json(self):
        argv = ("bernoulli", "--n", "4", "--format", "json")
        code, loaded = _cli_in_fresh_process(*argv)
        assert code == 0 and "json" in loaded
