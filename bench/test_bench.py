"""Tests of the benchmark itself: the checker catches planted wrong answers,
traced counts repeat exactly, and the output keeps its contract.

    python3 -m pytest bench -q
"""

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from extcalc import abelian, graded, presentation  # noqa: E402


def ledger_over(wl, count, reference=None):
    ledger = run.Ledger(wl, reference)
    for i in range(count):
        op = wl.op(i)
        _, value, exc = run.timed(op)
        ledger.record(op, value, exc)
    return ledger


def recorded(wl, count):
    """Digests of the first `count` outcomes of the unmodified program."""
    out = []
    for i in range(count):
        op = wl.op(i)
        _, value, exc = run.timed(op)
        outcome = wl.judge_error(op, exc) if exc else wl.judge(op, value)
        out.append(checks.digest(op.kind, outcome.text))
    return out


# ---------------------------------------------------------------------------
# Planted wrong answers.


def test_clean_program_passes_every_check():
    for wl, count in ((workloads.CalculusMix(3), 300), (workloads.WideGroups(3), 10), (workloads.SnfOracle(3), 40)):
        ledger = ledger_over(wl, count)
        assert ledger.failed == [], ledger.failed[:3]


def test_reference_catches_a_wrong_tensor(monkeypatch):
    wl = workloads.CalculusMix(4)
    reference = recorded(wl, 300)
    original = abelian.AdmissibleGroup.tensor

    def off_by_one(self, other):
        return original(self, other) + abelian.cyclic(2)

    monkeypatch.setattr(abelian.AdmissibleGroup, "tensor", off_by_one)
    ledger = ledger_over(wl, 300, reference)
    bad = [f for f in ledger.failed if f["kind"] == "tensor"]
    assert bad and ledger.unexpected == len(ledger.failed)
    assert all("outcome differs from the recorded reference" in f["problems"] for f in bad)
    assert any("atom tables disagree with the presentation oracle" in f["problems"] for f in bad)


def test_cross_route_check_catches_a_wrong_pairing(monkeypatch):
    wl = workloads.CalculusMix(5)
    original = graded.pairing

    def skewed(x, k):
        first, second = original(x, k)
        return first, second.shift(1) if not second.is_zero else graded.GradedGroup.of({1: abelian.Z})

    monkeypatch.setattr(graded, "pairing", skewed)
    ledger = ledger_over(wl, 300)
    assert ledger.failed and {f["kind"] for f in ledger.failed} == {"pairing"}
    assert all(f["problems"] == ["the two pairing routes disagree"] for f in ledger.failed)


def test_smith_check_catches_a_wrong_transform(monkeypatch):
    wl = workloads.SnfOracle(6)
    original = presentation.snf

    def corrupted(m):
        res = original(m)
        u = list(res.u.entries)
        u[0] += 1
        return presentation.SNFResult(presentation.IntMatrix(res.u.rows, res.u.cols, tuple(u)), res.d, res.v)

    monkeypatch.setattr(presentation, "snf", corrupted)
    ledger = ledger_over(wl, len(workloads.SNF_BANK) + 30)
    snf_ops = [f for f in ledger.failed if f["kind"] == "snf"]
    assert snf_ops and all(f["kind"] == "snf" for f in ledger.failed)
    assert all(any("U*M*V != D" in p for p in f["problems"]) for f in snf_ops)


def test_round_trip_catches_a_lossy_printer(monkeypatch):
    wl = workloads.WideGroups(7)
    from extcalc import dsl

    original = dsl.format_group

    def lossy(g):
        text = original(g)
        return text.rsplit(" + ", 1)[0] if " + " in text else text

    monkeypatch.setattr(dsl, "format_group", lossy)
    ledger = ledger_over(wl, 10)
    assert any("parse(format(result)) is not the result" in f["problems"] for f in ledger.failed)


def test_a_raising_function_makes_the_run_incorrect(monkeypatch):
    def broken(*args):
        raise TypeError("planted")

    monkeypatch.setattr(abelian, "sigma", broken)
    ledger = ledger_over(workloads.CalculusMix(8), 300)
    assert any(f["kind"] == "sigma" for f in ledger.failed)
    assert ledger.unexpected == len(ledger.failed)
    assert run.summarize(ledger, {})["correct"] is False


def test_an_unexpected_error_code_makes_the_run_incorrect(monkeypatch):
    from extcalc import dsl
    from extcalc.errors import ParseError

    def broken(text):
        raise ParseError("planted", code="bad_modulus")

    monkeypatch.setattr(dsl, "parse_group", broken)
    ledger = ledger_over(workloads.WideGroups(8), 10)
    assert ledger.failed and ledger.unexpected == len(ledger.failed)
    assert all(f["problems"] == ["unexpected ParseError[bad_modulus]: planted"] for f in ledger.failed)
    assert run.summarize(ledger, {})["correct"] is False


def test_only_the_known_snf_crash_is_tolerated():
    wl = workloads.CliCold(1)
    op = next(wl.op(i) for i in range(wl.reference_ops) if wl.op(i).meta["argv"][0] == "snf" and wl.op(i).meta["argv"][1].count("[") == 21)
    crash = "Traceback (most recent call last):\n  ...\nValueError: Exceeds the limit (4300 digits) for integer string conversion; use sys.set_int_max_str_digits() to increase the limit\n"
    ledger = run.Ledger(wl, None)
    ledger.record(op, (1, "", crash), None)
    ledger.record(op, None, ValueError("Exceeds the limit (4300 digits) for integer string conversion"))
    assert len(ledger.failed) == 2 and ledger.unexpected == 0
    assert all(f["known_defect"] == workloads.KNOWN_SNF_CRASH for f in ledger.failed)
    assert run.summarize(ledger, {})["correct"] is True
    ledger.record(op, (1, "", "Traceback (most recent call last):\nTypeError: planted\n"), None)
    assert ledger.unexpected == 1 and run.summarize(ledger, {})["correct"] is False
    other = next(wl.op(i) for i in range(wl.reference_ops) if wl.op(i).meta["argv"][0] != "snf")
    ledger.record(other, (1, "", crash), None)
    assert ledger.unexpected == 2


def test_cli_pass_covers_the_battery_in_four_seeds():
    passes = [workloads.cli_invocations(seed) for seed in range(4)]
    assert {len(p) for p in passes} == {36}
    covered = {(tuple(argv), status) for p in passes for argv, status in p}
    for ok, bad, code in workloads.CLI_BATTERY:
        for mode in ([], ["--json"]):
            assert (tuple(ok + mode), 0) in covered and (tuple(bad + mode), code) in covered
    for p in passes:
        big = [argv for argv, _ in p if argv[0] == "snf" and len(json.loads(argv[1])) == 20]
        assert sorted(len(argv) for argv in big) == [2, 3]


def test_cli_judge_flags_missing_envelope_and_wrong_status():
    import jsonschema

    schema = json.loads((ROOT / "schemas" / "envelope-v1.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    crash = workloads.judge_cli(validator, ["snf", "[[1]]", "--json"], 0, 1, "", "Traceback (most recent call last):\n")
    assert crash.errors and not crash.wrong
    good = workloads.judge_cli(validator, ["canon", "Z/12", "--json"], 0, 0, '{"ok": true, "schema": "extcalc/1", "result": {"group": "Z/4 + Z/3"}}\n', "")
    assert not good.errors and not good.wrong
    wrong_status = workloads.judge_cli(validator, ["canon", "Z/1"], 2, 1, "", "error[bad_modulus]: nope\n")
    assert wrong_status.errors == ["exit status 1, expected 2"]
    bad_snf = workloads.judge_cli(
        validator, ["snf", "[[2,4],[6,8]]", "--json"], 0, 0,
        '{"ok": true, "schema": "extcalc/1", "result": {"d": [[2,0],[0,4]], "u": [[1,0],[3,-1]], "v": [[1,-2],[0,2]], "factors": [2,4]}}', "",
    )
    assert any("U*M*V != D" in p for p in bad_snf.wrong)


# ---------------------------------------------------------------------------
# Exact counts.


COUNT_UNITS = ("count", "digits", "ratio")


@pytest.mark.parametrize(
    "workload, busy",
    [
        ("calculus_mix", "abelian.sigma.calls"),
        ("wide_groups", "dsl.parse.calls"),
        ("snf_oracle", "presentation.transform_digits.n25"),
    ],
)
def test_traced_counts_repeat_exactly(workload, busy):
    args = argparse.Namespace(workload=workload, seed=11, seconds=1.0, trace=1)
    first, second = run.traced_run(args), run.traced_run(args)
    for name, unit in run.PER_LAYER.items():
        if unit in COUNT_UNITS and name != "trace.overhead_ratio":
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"][busy]["value"] > 0
    if workload == "snf_oracle":
        for name in ("presentation.snf.calls", "presentation.invariant_factors.calls", "presentation.factor_digits.max"):
            assert first["metrics"][name]["value"] > 0, name


def test_cli_cold_calibrates_against_a_reference_process():
    wl = workloads.CliCold(0)
    clock = run.calibration_for(wl)
    assert clock.measure == wl.reference_process_s
    assert clock.reference_s == run.CLI_CAL_REFERENCE_S and clock.samples[0] > 0
    assert run.calibration_for(workloads.CalculusMix(0)).measure is run.calibration_s


def test_digit_counts_are_exact():
    rng = random.Random(0)
    for _ in range(2000):
        x = rng.randint(-(10 ** rng.randint(0, 300)), 10 ** rng.randint(0, 300))
        assert checks.decimal_digits(x) == len(str(abs(x)))
    for k in range(1, 200):
        assert checks.decimal_digits(10**k) == k + 1
        assert checks.decimal_digits(10**k - 1) == k


# ---------------------------------------------------------------------------
# The output contract.


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_result_object(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "calculus_mix", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calculus_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
