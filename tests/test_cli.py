"""End-to-end command-line behavior: text goldens, JSON envelopes against the
published schema, exit codes, and stream separation."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from conftest import CLI_BATTERY, ROOT, VALIDATOR, envelope_of, run
from extcalc import cli


def text_of(*args):
    code, out, err = run(args)
    assert code == 0, err
    assert err == ""
    return out.rstrip("\n")


def result_of(*args):
    doc = envelope_of(*args)
    assert doc["ok"] is True
    return doc["result"]


def error_of(*args, expect_code):
    doc = envelope_of(*args, expect_code=expect_code)
    assert doc["ok"] is False
    return doc["error"]


def bf_doc(q=1, default=(1, 1, 1), exceptions=None):
    def triple(t):
        return {"Zp": t[0], "ZpInf": t[1], "Zploc": t[2]}

    doc = {"Q": q, "default": triple(default)}
    if exceptions:
        doc["exceptions"] = {str(p): triple(t) for p, t in exceptions.items()}
    return json.dumps(doc)


CHAIN_RP2 = '{"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]]}'


class TestTextOutput:
    def test_group_algebra(self):
        assert text_of("canon", "Z^2 + Z/12") == "Z^2 + Z/4 + Z/3"
        assert text_of("tensor", "Z/4", "Z/6") == "Z/2"
        assert text_of("tensor", "Q", "Z/5") == "Z^0"
        assert text_of("tor", "Z/2^oo", "Z/8") == "Z/8"
        assert text_of("sigma", "Z/12") == "{Z/2, Z/2^oo, Z/3, Z/3^oo}"
        assert text_of("sigma", "Z") == "{Q, Z/p, Z/p^oo, Z_(p) for every prime p}"
        assert text_of("tau", "Z/4") == "{Z/2, Z/2^oo}"

    def test_snf(self):
        lines = text_of("snf", "[[2,4],[6,8]]").split("\n")
        assert lines[0] == "factors: 2, 4"
        assert lines[1] == "D: [[2, 0], [0, 4]]"

    def test_presentations(self):
        assert text_of("present", "[[2,0],[0,3]]") == "Z/2 + Z/3"
        assert text_of("present", "[[6]]") == "Z/2 + Z/3"
        assert text_of("present", "[[0,0]]") == "Z^2"
        assert text_of("homology", CHAIN_RP2) == "{1: Z/2}"

    def test_free_presentation(self):
        assert text_of("present", "[]", "-g", "2") == "Z^2"
        assert text_of("present", "[]", "-g", "0") == "Z^0"
        assert error_of("present", "[]", expect_code=2)["code"] == "bad_document"

    def test_graded_calculus(self):
        assert text_of("moore", "Z/3", "2") == "{2: Z/3}"
        assert text_of("hcoef", "{2: Z/4, 3: Z}", "Z/2") == "{2: Z/2, 3: Z/2^2}"
        assert text_of("dim", "{2: Z}", "Q") == "2"
        assert text_of("dim", "{1: Z/2}", "Q") == "oo"
        assert text_of("cin", "{3: Z/2, 5: Q}") == "3"
        assert text_of("smash", "{1: Z/2}", "{1: Z/2}") == "{2: Z/2, 3: Z/2}"
        assert text_of("suspend", "{1: Z/2}", "2") == "{3: Z/2}"
        assert text_of("pairing", "{2: Z/2}", "{1: Z/4, 3: Z}") == "{-1: Z/2, 0: Z/2, 1: Z/2}"

    def test_vanish_and_order(self):
        assert text_of("vanish", "{2: Z/2}", "{1: Z/2}", "2") == "yes [conditions: True, True, True]"
        assert text_of("vanish", "{2: Z/2}", "{1: Z/2}", "1") == "no [conditions: False, False, False]"
        assert text_of("leqgr", "{1: Z/2}", "{1: Z/2^oo}") == "holds"
        out = text_of("leqgr", "{1: Z/2^oo}", "{1: Z/2}")
        assert out == "fails: with coefficients Z/2 the left side has dimension 2, the right 1"

    def test_bockstein_commands(self):
        assert text_of("bfcheck", bf_doc()) == "valid"
        assert text_of("bfdim", bf_doc(), "Z") == "1"
        assert text_of("bfdim", bf_doc(2, (1, 1, 2)), "Q") == "2"
        assert text_of("covdim", bf_doc(2, (1, 1, 2))) == "2"
        assert text_of("spae", bf_doc(), "{2: Z}") == "yes"
        assert text_of("spae", bf_doc(3, (3, 3, 3)), "{1: Z}") == "no"

    def test_witnesses(self):
        doc = json.loads(text_of("witness73", "Z/2", "Q", "3"))
        assert doc == {
            "Q": "inf",
            "default": {"Zp": "inf", "ZpInf": "inf", "Zploc": "inf"},
            "exceptions": {"2": {"Zp": 3, "ZpInf": 3, "Zploc": "inf"}},
        }
        doc = json.loads(text_of("witness74", "Q", "Z", "2"))
        assert doc["case"] == "I"
        assert doc["bf"]["Q"] == 2

    def test_extension_types(self):
        assert text_of("spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "1") == "yes"
        out = text_of("spaek", "--graded", "{1: Z/2, 2: Q}", "--group", "Z/2", "--n", "1")
        assert out.startswith("no\n  clause c, degree 2")
        assert text_of("modp", "{1: Z/2}", "2") == "no"
        assert text_of("modp", "{1: Z/2}", "3") == "yes"
        assert text_of("classify", "{1: Z/2}") == "no finite type"
        assert text_of("classify", "{1: Z}") == "localization type: circle localized at all primes"
        assert text_of("classify", "{1: Z_(2)}") == "localization type: circle localized at {2}"
        assert text_of("classify", "{3: Q}") == "rational type in degree 3"
        assert text_of("compact", "{1: Z}") == "yes"
        assert text_of("compact", "{1: Z_(2)}") == "no"
        assert text_of("mooreem", "Z", "1") == "yes: localization at all primes"
        assert text_of("mooreem", "Z[1/3]", "1") == "yes: localization at all primes outside {3}"
        assert text_of("mooreem", "Q", "2") == "yes: rational"
        assert text_of("mooreem", "Z", "2") == "no"


class TestJsonEnvelopes:
    def test_every_subcommand_emits_a_valid_envelope(self):
        invocations = [
            ("canon", "Z/12"),
            ("tensor", "Z/4", "Z/6"),
            ("tor", "Z/4", "Z/6"),
            ("sigma", "Z"),
            ("tau", "Z/4"),
            ("snf", "[[2,4],[6,8]]"),
            ("present", "[[2,0],[0,3]]"),
            ("homology", CHAIN_RP2),
            ("moore", "Z/3", "2"),
            ("hcoef", "{2: Z/4}", "Z/2"),
            ("dim", "{2: Z}", "Q"),
            ("cin", "{3: Z/2}"),
            ("smash", "{1: Z/2}", "{1: Z/2}"),
            ("suspend", "{1: Z/2}", "2"),
            ("pairing", "{2: Z/2}", "{1: Z/4, 3: Z}"),
            ("vanish", "{2: Z/2}", "{1: Z/2}", "2"),
            ("leqgr", "{1: Z/2}", "{1: Z/2^oo}"),
            ("bfcheck", bf_doc()),
            ("bfdim", bf_doc(), "Z"),
            ("covdim", bf_doc()),
            ("spae", bf_doc(), "{2: Z}"),
            ("cohdimmin", bf_doc()),
            ("witness73", "Z/2", "Q", "3"),
            ("witness74", "Q", "Z", "2"),
            ("spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "1"),
            ("modp", "{1: Z/2}", "2"),
            ("classify", "{1: Z}"),
            ("compact", "{1: Z}"),
            ("mooreem", "Z", "1"),
        ]
        assert len({inv[0] for inv in invocations}) == 29
        for inv in invocations:
            result_of(*inv)

    def test_pinned_em_envelope(self):
        doc = envelope_of("spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "1")
        assert doc == {"ok": True, "schema": "extcalc/1", "result": {"verdict": True, "failures": []}}

    def test_snf_fields(self):
        res = result_of("snf", "[[2,4],[6,8]]")
        assert res["factors"] == [2, 4]
        assert res["d"] == [[2, 0], [0, 4]]
        assert res["u"] == [[1, 0], [3, -1]]
        assert res["v"] == [[1, -2], [0, 1]]

    def test_graded_keys_are_strings(self):
        res = result_of("pairing", "{2: Z/2}", "{1: Z/4, 3: Z}")
        assert res["graded"] == {"-1": "Z/2", "0": "Z/2", "1": "Z/2"}

    def test_leqgr_witness(self):
        res = result_of("leqgr", "{1: Z/2^oo}", "{1: Z/2}")
        assert res["verdict"] is False
        assert res["witness"] == {"group": "Z/2", "dim_left": 2, "dim_right": 1}

    def test_sigma_document(self):
        res = result_of("sigma", "Z/12")
        assert res["sigma"]["rational"] is False
        assert set(res["sigma"]["exceptions"]) == {"2", "3"}

    def test_minimal_wedge_document(self):
        inf = bf_doc("inf", ("inf", "inf", "inf"), {2: (3, 3, "inf")})
        res = result_of("cohdimmin", inf)
        assert res["wedge"] == {
            "rational": None,
            "default": {"Zp": None, "ZpInf": None, "Zploc": None},
            "exceptions": {"2": {"Zp": 3, "ZpInf": 3, "Zploc": None}},
        }

    def test_witness74_case(self):
        res = result_of("witness74", "Z/2", "Z_(2)", "1")
        assert res["case"] == "II"
        assert res["bf"]["exceptions"]["2"]["Zploc"] == 2

    def test_error_envelope(self):
        err = error_of("canon", "Z/1", expect_code=2)
        assert err["code"] == "bad_modulus"
        err = error_of("sigma", "Z^0", expect_code=1)
        assert err["code"] == "trivial_group"

    def test_violation_details_in_envelope(self):
        # (cyc, pru, loc) = (2, 1, 1) with q = 1 breaks exactly rule 2
        bad = bf_doc(1, (2, 1, 1))
        err = error_of("bfcheck", bad, expect_code=1)
        assert err["code"] == "bf_violations"
        [violation] = err["details"]["violations"]
        assert violation["rule"] == 2
        assert violation["prime"] is None

    @pytest.mark.parametrize("exceptions", [[1], None, [["2", {"Zp": 1, "ZpInf": 1, "Zploc": 1}]]])
    def test_exceptions_must_be_an_object(self, exceptions):
        doc = json.dumps({"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}, "exceptions": exceptions})
        assert error_of("bfcheck", doc, expect_code=2)["code"] == "bad_document"

    @pytest.mark.parametrize(
        "doc",
        [
            "[1]",
            '{"Q": "x", "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}',
            '{"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}, "exceptions": {"x": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}}',
            '{"Q": 1, "default": {"Zp": 1.5, "ZpInf": 1, "Zploc": 1}}',
        ],
        ids=["not an object", "Q not a natural", "key not a number", "value a float"],
    )
    def test_a_malformed_function_document_is_bad_document(self, doc):
        assert error_of("bfcheck", doc, expect_code=2)["code"] == "bad_document"

    def test_a_difference_at_q_has_no_prime(self):
        # Q's basis has Q, which Z/2's lacks: clause b fails at Q, not at a prime
        args = ("spaek", "--graded", "{1: Z/2}", "--group", "Q", "--n", "1")
        clause_b = result_of(*args)["failures"][0]
        assert clause_b["clause"] == "b" and clause_b["prime"] is None
        assert text_of(*args).splitlines()[1] == "  clause b, degree 1: Bockstein basis differs from the comparison group"

    @pytest.mark.parametrize("spelling", ["02", " 2", "+2"])
    def test_exception_keys_are_canonical_primes(self, spelling):
        # a second spelling of 2 would otherwise silently replace the entry for "2"
        triple = {"Zp": 1, "ZpInf": 1, "Zploc": 1}
        doc = json.dumps(
            {"Q": 1, "default": triple, "exceptions": {"2": {"Zp": 2, "ZpInf": 1, "Zploc": 2}, spelling: triple}}
        )
        assert error_of("bfdim", doc, "Z/2", expect_code=2)["code"] == "bad_document"

    @pytest.mark.parametrize(
        "args",
        [
            ("bfcheck", '{"Q": 1, "Q": "inf", "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}'),
            ("homology", '{"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]], "ranks": [1]}'),
        ],
    )
    def test_duplicate_keys_are_rejected(self, args):
        assert error_of(*args, expect_code=2)["code"] == "bad_document"

    def test_text_is_not_rendered_under_json(self, monkeypatch):
        def refuse(k):
            raise RuntimeError("text rendered in JSON mode")

        monkeypatch.setattr(cli, "format_graded", refuse)
        assert result_of("smash", "{1: Z/2}", "{1: Z/2}") == {"graded": {"2": "Z/2", "3": "Z/2"}}
        # text mode does render, so the refusal surfaces as an internal error
        assert run(["smash", "{1: Z/2}", "{1: Z/2}"]) == (
            3, "", "error[internal_error]: RuntimeError: text rendered in JSON mode\n"
        )


class TestLargeAnswers:
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_snf_refuses_transforms_past_the_cell_limit(self, mode):
        # a 6 KB document of 2000 empty rows, whose U would be the 2000 x 2000 identity
        code, out, err = run(["snf", json.dumps([[]] * 2000), *mode])
        assert code == 1
        if mode:
            doc = json.loads(out)
            VALIDATOR.validate(doc)
            assert doc["error"]["code"] == "answer_too_large" and err == ""
        else:
            assert out == "" and err.startswith("error[answer_too_large]:")

    def test_snf_answers_past_the_digit_limit_print_in_full(self):
        # pairwise coprime diagonal entries of 2000 digits each, so the input
        # parses under the 4300-digit limit and the last factor, their
        # product, has about 6000 digits
        entries = (2**6643, 3**4191, 5**2861)
        assert [len(str(x)) for x in entries] == [2000] * 3
        rows = [[x if i == j else 0 for j in range(3)] for i, x in enumerate(entries)]
        last = entries[0] * entries[1] * entries[2]
        assert last.bit_length() > 4300 * 3.33  # over 4300 digits
        limit = sys.get_int_max_str_digits()
        code, out, err = run(["snf", json.dumps(rows), "--json"])
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit  # lifted for printing only
        text = text_of("snf", json.dumps(rows)).splitlines()[0]
        sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(out)
            assert text == f"factors: 1, 1, {last}"
        finally:
            sys.set_int_max_str_digits(limit)
        VALIDATOR.validate(doc)
        u, d, v = (doc["result"][key] for key in "udv")
        assert doc["result"]["factors"] == [1, 1, last]
        assert d == [[1, 0, 0], [0, 1, 0], [0, 0, last]]
        p = 2**61 - 1

        def mul(a, b):
            return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

        assert mul(mul(u, rows), v) == [[x % p for x in row] for row in d]


class TestCommandTable:
    def test_table_readme_and_battery_name_the_same_commands(self):
        readme = (ROOT / "README.md").read_text()
        listed = re.search(r"The full list of subcommands: `([^`]*)`", readme).group(1).split()
        names = [command.name for command in cli.COMMANDS]
        assert len(names) == 29
        assert names == listed == [ok[0] for ok, _, _ in CLI_BATTERY]

    def test_a_command_builds_only_its_own_subparser(self):
        assert cli.build_parser(["canon"]).parse_args(["canon", "Z"]).row.name == "canon"
        with pytest.raises(cli._UsageError):
            cli.build_parser(["canon"]).parse_args(["tensor", "Z", "Z"])

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_one_subparser_prints_what_the_full_parser_prints(self, mode):
        # help, a missing argument and an unknown option for every command, run
        # once as is and once with the parser forced to hold all 29 subparsers
        script = (
            "import contextlib, io, json, sys\n"
            "from extcalc import cli\n"
            "def run(argv):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        return cli.run_command(argv), out.getvalue(), err.getvalue()\n"
            f"cases = [case + {mode!r} for c in cli.COMMANDS for case in ([c.name, '-h'], [c.name], [c.name, '--x'])]\n"
            "one = [run(case) for case in cases]\n"
            "full = cli.build_parser\n"
            "cli.build_parser = lambda argv: full()\n"
            "print(json.dumps([[case, a] for case, a, b in zip(cases, one, map(run, cases)) if a != b]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class TestExitCodes:
    def test_usage_errors(self):
        assert run(["nope"])[0] == 2
        assert run([])[0] == 2
        assert run(["canon"])[0] == 2
        assert run(["spaek", "--graded", "{1: Z}"])[0] == 2

    def test_usage_errors_under_json_print_one_envelope(self):
        for args in (["snf", "-1e+16"], ["present", "[[1]]", "-g", "x"], ["canon"], [], ["canon", "Z", "--bogus"]):
            error = error_of(*args, expect_code=2)
            assert error["code"] == "usage"
        assert error_of("present", "[[1]]", "-g", "x", expect_code=2)["message"] == (
            "extcalc present: argument -g/--generators: invalid int value: 'x'"
        )
        # text mode keeps argparse's usage text
        code, out, err = run(["present", "[[1]]", "-g", "x"])
        assert (code, out) == (2, "")
        assert err == (
            "usage: extcalc present [-h] [--json] [-g GENERATORS] relations\n"
            "extcalc present: error: argument -g/--generators: invalid int value: 'x'\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("spae", bf_doc(), "{0: Z}"),  # answered bad_degree alone of the five
            ("spaek", "--graded", "{0: Z}", "--group", "Z", "--n", "1"),
            ("modp", "{0: Z}", "2"),
            ("classify", "{0: Z}"),
            ("compact", "{0: Q, 2: Z}"),
        ],
    )
    def test_complex_homology_below_degree_one_is_one_error(self, args):
        message = "connected complex data may not carry homology in degrees < 1"
        assert error_of(*args, expect_code=1) == {"code": "degree_zero_entry", "message": message}

    def test_syntax_errors_are_two(self):
        assert run(["canon", "Z/1"])[0] == 2
        assert run(["canon", "Z/6^oo"])[0] == 2
        assert run(["snf", "{oops"])[0] == 2
        assert run(["bfcheck", '{"Q": 1}'])[0] == 2
        assert run(["bfcheck", "no-such-file.json"])[0] == 2

    def test_domain_errors_are_one(self):
        assert run(["sigma", "Z^0"])[0] == 1
        assert run(["moore", "Z", "0"])[0] == 1
        assert run(["suspend", "{1: Z}", "-1"])[0] == 1
        assert run(["witness74", "Z", "Q", "2"])[0] == 1
        assert run(["snf", "[[1,2],[3]]"])[0] == 1
        bad_chain = '{"ranks": [1, 1, 1], "boundaries": [[[1]], [[1]]]}'
        assert run(["homology", bad_chain])[0] == 1

    def test_version_and_help(self):
        code, out, _ = run(["--version"])
        assert code == 0 and out.startswith("extcalc ")
        assert run(["--help"])[0] == 0
        assert run(["sigma", "--help"])[0] == 0


class TestPairingRouteCheck:
    def test_disagreeing_routes_fail_under_optimized_python(self):
        # the two-route check must survive `python -O`, which strips asserts
        script = (
            "import sys\n"
            "from extcalc import Q, Z, GradedGroup, cli\n"
            "cli.pairing = lambda x, k: (GradedGroup.of({1: Z}), GradedGroup.of({1: Q}))\n"
            "sys.exit(cli.run_command(['pairing', '{1: Z}', '{1: Z}']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "the two pairing routes disagree" in proc.stderr

    def test_disagreeing_routes_give_an_envelope_under_optimized_python(self):
        script = (
            "import sys\n"
            "from extcalc import Q, Z, GradedGroup, cli\n"
            "cli.pairing = lambda x, k: (GradedGroup.of({1: Z}), GradedGroup.of({1: Q}))\n"
            "sys.exit(cli.run_command(['pairing', '{1: Z}', '{1: Z}', '--json']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (3, "")
        doc = json.loads(proc.stdout)
        VALIDATOR.validate(doc)
        assert doc["error"] == {
            "code": "internal_error",
            "message": "AssertionError: the two pairing routes disagree: {1: Z} vs {1: Q}",
        }


class TestInternalErrors:
    def test_any_other_exception_is_exit_three_without_a_traceback(self, monkeypatch):
        def broken(group):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "sigma", broken)
        assert error_of("sigma", "Z/4", expect_code=3) == {
            "code": "internal_error",
            "message": "ZeroDivisionError: division by zero",
        }
        assert run(["sigma", "Z/4"]) == (3, "", "error[internal_error]: ZeroDivisionError: division by zero\n")


class TestStreams:
    def test_text_error_goes_to_stderr(self):
        code, out, err = run(["canon", "Z/1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error[bad_modulus]:")

    def test_json_error_stays_on_stdout(self):
        code, out, err = run(["canon", "Z/1", "--json"])
        assert code == 2
        assert err == ""
        doc = json.loads(out)
        VALIDATOR.validate(doc)
        assert doc["error"]["code"] == "bad_modulus"

    def test_success_is_single_line_json(self):
        code, out, err = run(["canon", "Z", "--json"])
        assert code == 0 and err == ""
        assert out.count("\n") == 1
        assert json.loads(out)["result"] == {"group": "Z"}


LONG = "1" + "0" * 4400  # past Python's default 4300-digit int->str limit


class TestHostileInputs:
    @pytest.mark.parametrize(
        "args, code",
        [
            (("canon", f"Z/{LONG}"), "number_too_long"),
            (("cin", f"{{{LONG}: Z}}"), "number_too_long"),
            (("canon", "Z/\u00b2"), "expected_number"),  # a digit that int() refuses
            (("snf", f"[[{LONG}]]"), "bad_document"),
        ],
    )
    def test_long_or_odd_literals_are_parse_errors(self, args, code):
        assert error_of(*args, expect_code=2)["code"] == code
        status, out, err = run(args)
        assert (status, out) == (2, "") and err.startswith(f"error[{code}]: ")

    def test_deeply_nested_document_is_a_parse_error(self, tmp_path):
        deep, latin = tmp_path / "deep.json", tmp_path / "latin.json"
        deep.write_text("[" * 50000)
        latin.write_bytes(b"\xff[[1]]")  # not UTF-8
        for command in ("snf", "homology", "bfcheck"):
            for doc in (deep, latin):
                assert error_of(command, str(doc), expect_code=2)["code"] == "bad_document"
                status, out, err = run([command, str(doc)])
                assert (status, out) == (2, "") and err.startswith("error[bad_document]: ")
                assert "Traceback" not in err

    @pytest.mark.parametrize("args", [("canon", f"Z/{LONG}"), ("snf", f"[[{LONG}]]"), ("snf", "[" * 50000)])
    def test_hostile_literals_print_no_traceback(self, args):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for mode in ([], ["--json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "extcalc.cli", *args, *mode], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 2 and "Traceback" not in proc.stderr
            if mode:
                VALIDATOR.validate(json.loads(proc.stdout))

    @pytest.mark.parametrize(
        "args, named",
        [
            (("homology", '{"ranks": [1.5, 1], "boundaries": [[[0]]]}'), "1.5"),
            (("homology", '{"ranks": ["1", true], "boundaries": [[[0]]]}'), '"1"'),
            (("homology", '{"ranks": [1, true], "boundaries": [[[0]]]}'), "true"),
            (("homology", '{"ranks": [1, "x"], "boundaries": [[[0]]]}'), '"x"'),
            (("homology", '{"ranks": [1, 1], "boundaries": [[[0.0]]]}'), "0.0"),
            (("snf", "[[1.5]]"), "1.5"),
            (("snf", "[[true]]"), "true"),
            (("present", "[[2, null]]"), "null"),
        ],
    )
    def test_document_numbers_must_be_integers(self, args, named):
        err = error_of(*args, expect_code=2)
        assert err["code"] == "bad_document" and err["message"].endswith(f"must be integers, got {named}")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"ranks": "12", "boundaries": []}', "'ranks' must be a JSON list"),  # read "1" as a rank
            ('{"ranks": 5, "boundaries": []}', "'ranks' must be a JSON list"),  # said a key was missing
            ('{"ranks": [1, 1], "boundaries": {"x": 1}}', "'boundaries' must be a JSON list"),  # read "x" as an entry
            ('{"ranks": [1, 1], "boundaries": ["ab"]}', "boundary 1 must be a JSON list"),
            ('{"ranks": [1, 1], "boundaries": [[5]]}', "row 1 of boundary 1 must be a JSON list"),
        ],
    )
    def test_chain_documents_name_the_field_that_is_not_a_list(self, doc, message):
        assert error_of("homology", doc, expect_code=2) == {"code": "bad_document", "message": message}

    @pytest.mark.parametrize("doc", ['{"ranks": [-1, 1], "boundaries": [[]]}', '{"ranks": [-1], "boundaries": []}'])
    def test_a_negative_rank_is_reported_before_shapes(self, doc):
        # [-1, 1] with an empty boundary said "empty boundary between nonempty degrees"
        expected = {"code": "malformed_complex", "message": "chain ranks must be nonnegative"}
        assert error_of("homology", doc, expect_code=1) == expected

    @pytest.mark.parametrize(
        "args, code",
        [
            (("snf", "[[1,2],[3]]"), "bad_shape"),
            (("homology", '{"ranks": [1, 1]}'), "malformed_complex"),
            (("homology", '{"ranks": [1, 1], "boundaries": [[[0, 0]]]}'), "malformed_complex"),
            (("homology", '{"ranks": [1, 1, 1], "boundaries": [[[1]], [[1]]]}'), "malformed_complex"),
        ],
    )
    def test_shape_errors_stay_domain_errors(self, args, code):
        assert error_of(*args, expect_code=1)["code"] == code


class TestRanksAreCounts:
    @pytest.mark.parametrize(
        "args, result",
        [
            (("present", "[]", "-g", "1000000000000"), {"group": "Z^1000000000000"}),
            (("homology", '{"ranks": [1000000000000], "boundaries": []}'), {"graded": {"0": "Z^999999999999"}}),
            (("homology", '{"ranks": [30000, 0, 30000], "boundaries": [[], []]}'),
             {"graded": {"0": "Z^29999", "2": "Z^30000"}}),
        ],
    )
    def test_large_ranks_answer_at_once(self, args, result):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "extcalc.cli", *args, "--json"], capture_output=True, text=True, env=env, timeout=60
        )
        assert time.perf_counter() - start < 5.0  # a cold start included
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {"ok": True, "schema": "extcalc/1", "result": result}


class TestFileInputs:
    def test_documents_from_files(self, tmp_path):
        bf = tmp_path / "alpha.json"
        bf.write_text(bf_doc())
        assert text_of("bfcheck", str(bf)) == "valid"
        assert text_of("bfdim", str(bf), "Z") == "1"

        chain = tmp_path / "chain.json"
        chain.write_text(CHAIN_RP2)
        assert text_of("homology", str(chain)) == "{1: Z/2}"

        mat = tmp_path / "mat.json"
        mat.write_text("[[2,4],[6,8]]")
        assert result_of("snf", str(mat))["factors"] == [2, 4]

    def test_unreadable_path(self, tmp_path):
        err = error_of("homology", str(tmp_path / "missing.json"), expect_code=2)
        assert err["code"] == "unreadable_input"


@pytest.mark.skipif(shutil.which("extcalc") is None, reason="console script not installed")
class TestInstalledEntryPoint:
    # everything above runs in-process; these check the installed script
    def test_success(self):
        proc = subprocess.run(["extcalc", "canon", "Z/12"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Z/4 + Z/3"

    def test_error_envelope(self):
        proc = subprocess.run(["extcalc", "sigma", "Z^0", "--json"], capture_output=True, text=True)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        VALIDATOR.validate(doc)
        assert doc["error"]["code"] == "trivial_group"
