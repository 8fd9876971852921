"""End-to-end command-line behavior.  A test that only runs fixed command
lines names them, and `recorded` or `replays` compares each, byte for byte on
exit status, stdout and stderr, with its record in the transcript
(`tests/cli_transcript.jsonl`, see `test_cli_golden.py`), so an expected output
is written down once.  The other tests patch the CLI, run it under `python -O`,
on files or on generated inputs, or time it."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from conftest import CLI_BATTERY, ROOT, VALIDATOR, envelope_of, recorded, replays, run
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
SPAEK_Z = ["spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "1"]
# Q's basis has Q, which Z/2's lacks: clause b fails at Q, not at a prime
SPAEK_Q = ["spaek", "--graded", "{1: Z/2}", "--group", "Q", "--n", "1"]


class TestTextOutput:
    test_group_algebra = recorded(
        ["canon", "Z^2 + Z/12"], ["tensor", "Z/4", "Z/6"], ["tensor", "Q", "Z/5"], ["tor", "Z/2^oo", "Z/8"],
        ["sigma", "Z/12"], ["sigma", "Z"], ["tau", "Z/4"],
    )
    test_snf = recorded(["snf", "[[2,4],[6,8]]"])
    test_presentations = recorded(
        ["present", "[[2,0],[0,3]]"], ["present", "[[6]]"], ["present", "[[0,0]]"], ["homology", CHAIN_RP2]
    )
    test_free_presentation = recorded(
        ["present", "[]", "-g", "2"], ["present", "[]", "-g", "0"], ["present", "[]"], ["present", "[]", "--json"]
    )
    test_graded_calculus = recorded(
        ["moore", "Z/3", "2"], ["hcoef", "{2: Z/4, 3: Z}", "Z/2"], ["dim", "{2: Z}", "Q"], ["dim", "{1: Z/2}", "Q"],
        ["cin", "{3: Z/2, 5: Q}"], ["smash", "{1: Z/2}", "{1: Z/2}"], ["suspend", "{1: Z/2}", "2"],
        ["pairing", "{2: Z/2}", "{1: Z/4, 3: Z}"],
    )
    test_vanish_and_order = recorded(
        ["vanish", "{2: Z/2}", "{1: Z/2}", "2"], ["vanish", "{2: Z/2}", "{1: Z/2}", "1"],
        ["leqgr", "{1: Z/2}", "{1: Z/2^oo}"], ["leqgr", "{1: Z/2^oo}", "{1: Z/2}"],
    )
    test_bockstein_commands = recorded(
        ["bfcheck", bf_doc()], ["bfdim", bf_doc(), "Z"], ["bfdim", bf_doc(2, (1, 1, 2)), "Q"],
        ["covdim", bf_doc(2, (1, 1, 2))], ["spae", bf_doc(), "{2: Z}"], ["spae", bf_doc(3, (3, 3, 3)), "{1: Z}"],
    )
    test_witnesses = recorded(["witness73", "Z/2", "Q", "3"], ["witness74", "Q", "Z", "2"])
    test_extension_types = recorded(
        SPAEK_Z, ["spaek", "--graded", "{1: Z/2, 2: Q}", "--group", "Z/2", "--n", "1"],
        ["modp", "{1: Z/2}", "2"], ["modp", "{1: Z/2}", "3"],
        ["classify", "{1: Z/2}"], ["classify", "{1: Z}"], ["classify", "{1: Z_(2)}"], ["classify", "{3: Q}"],
        ["compact", "{1: Z}"], ["compact", "{1: Z_(2)}"],
        ["mooreem", "Z", "1"], ["mooreem", "Z[1/3]", "1"], ["mooreem", "Q", "2"], ["mooreem", "Z", "2"],
    )


class TestJsonEnvelopes:
    test_every_subcommand_emits_a_valid_envelope = recorded(*(ok + ["--json"] for ok, _, _ in CLI_BATTERY))
    test_pinned_em_envelope = recorded(SPAEK_Z + ["--json"])
    test_snf_fields = recorded(["snf", "[[2,4],[6,8]]", "--json"])
    test_graded_keys_are_strings = recorded(["pairing", "{2: Z/2}", "{1: Z/4, 3: Z}", "--json"])
    test_leqgr_witness = recorded(["leqgr", "{1: Z/2^oo}", "{1: Z/2}", "--json"])
    test_sigma_document = recorded(["sigma", "Z/12", "--json"])
    test_minimal_wedge_document = recorded(
        ["cohdimmin", bf_doc("inf", ("inf", "inf", "inf"), {2: (3, 3, "inf")}), "--json"]
    )
    test_witness74_case = recorded(["witness74", "Z/2", "Z_(2)", "1", "--json"])
    test_error_envelope = recorded(["canon", "Z/1", "--json"], ["sigma", "Z^0", "--json"])
    # (cyc, pru, loc) = (2, 1, 1) with q = 1 breaks exactly rule 2
    test_violation_details_in_envelope = recorded(["bfcheck", bf_doc(1, (2, 1, 1)), "--json"])
    test_a_difference_at_q_has_no_prime = recorded(SPAEK_Q, SPAEK_Q + ["--json"])

    @pytest.mark.parametrize("exceptions", [[1], None, [["2", {"Zp": 1, "ZpInf": 1, "Zploc": 1}]]])
    def test_exceptions_must_be_an_object(self, exceptions):
        doc = json.dumps({"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}, "exceptions": exceptions})
        replays(["bfcheck", doc, "--json"])

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
        replays(["bfcheck", doc, "--json"])

    @pytest.mark.parametrize("spelling", ["02", " 2", "+2"])
    def test_exception_keys_are_canonical_primes(self, spelling):
        # a second spelling of 2 would otherwise silently replace the entry for "2"
        triple = {"Zp": 1, "ZpInf": 1, "Zploc": 1}
        doc = json.dumps(
            {"Q": 1, "default": triple, "exceptions": {"2": {"Zp": 2, "ZpInf": 1, "Zploc": 2}, spelling: triple}}
        )
        replays(["bfdim", doc, "Z/2", "--json"])

    @pytest.mark.parametrize(
        "args",
        [
            ("bfcheck", '{"Q": 1, "Q": "inf", "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}'),
            ("homology", '{"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]], "ranks": [1]}'),
        ],
    )
    def test_duplicate_keys_are_rejected(self, args):
        replays([*args, "--json"])

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
        replays([], ["canon"], ["spaek", "--graded", "{1: Z}"])
        # how argparse lists the choices of an unknown command differs between Python versions
        assert run(["nope"])[0] == 2

    def test_usage_errors_under_json_print_one_envelope(self):
        # and text mode keeps argparse's usage text
        usage = (["snf", "-1e+16"], ["present", "[[1]]", "-g", "x"], ["canon"], [], ["canon", "Z", "--bogus"])
        replays(*(args + mode for args in usage for mode in ([], ["--json"])))

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
        replays([*args, "--json"])

    test_syntax_errors_are_two = recorded(
        ["canon", "Z/1"], ["canon", "Z/6^oo"], ["snf", "{oops"], ["bfcheck", '{"Q": 1}'],
        ["bfcheck", "no-such-file.json"],
    )
    test_domain_errors_are_one = recorded(
        ["sigma", "Z^0"], ["moore", "Z", "0"], ["suspend", "{1: Z}", "-1"], ["witness74", "Z", "Q", "2"],
        ["snf", "[[1,2],[3]]"], ["homology", '{"ranks": [1, 1, 1], "boundaries": [[[1]], [[1]]]}'],
    )

    def test_version_and_help(self):
        replays(["--version"])
        # help is kept out of the transcript: argparse wraps it at the terminal's width
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
    # every record keeps the stream rules (test_cli_golden.py); these name one record each
    test_text_error_goes_to_stderr = recorded(["canon", "Z/1"])
    test_json_error_stays_on_stdout = recorded(["canon", "Z/1", "--json"])
    test_success_is_single_line_json = recorded(["canon", "Z", "--json"])


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
