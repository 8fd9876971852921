"""Every CLI output, byte for byte.  `tests/cli_transcript.jsonl` holds one
line, `json.dumps([argv, status, stdout, stderr])`, per call: the subcommand
battery in text mode and under --json, the README tour, then the examples
(fixed command lines that `test_cli.py` names or that CI once checked by
hand).  Each record must print again as recorded, keep the stream rules and,
under --json, be an envelope of the published schema; argparse help is left
out, as it follows the terminal's width.  CI replays the file through the
installed `extcalc`.  The seeded `canon`, `sigma` and `smash` calls (504,
with 5000-digit inputs) stay a sha256 digest, recorded before the DSL parser
became a regex tokenizer, so they pin its errors and positions to the
scanner it replaced.

    PYTHONPATH=src python tests/test_cli_golden.py ['["canon", "Z/12"]' ...]

rewrites the transcript, adding each argv given as a JSON list to the
examples, and prints the seeded digest; a change that alters an output on
purpose re-records and quotes the diff of the file.
"""

import hashlib
import importlib.util
import json
import random
import sys

import pytest

from conftest import (
    CLI_BATTERY, ROOT, TRANSCRIPT, VALIDATOR, mutate_text, random_graded_text, random_group_text, replayed, run,
    transcript,
)


def _readme_tour():
    spec = importlib.util.spec_from_file_location("readme_tour", ROOT / "scripts" / "readme_tour.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [argv for argv, _ in module.tour((ROOT / "README.md").read_text())]


def seeded_calls(count=500, seed=2011):
    """`count` canon/sigma/smash argv, half of them one character away from
    valid, in text mode and under --json; expressions follow `--`, so one
    that starts with "-" is still an expression."""
    rng = random.Random(seed)
    calls = []
    for i in range(count):
        command = ("canon", "sigma", "smash")[i % 3]
        if command == "smash":
            texts = [random_graded_text(rng), random_graded_text(rng)]
        else:
            texts = [random_group_text(rng)]
        if rng.random() < 0.5:
            j = rng.randrange(len(texts))
            texts[j] = mutate_text(rng, texts[j])
        calls.append([command] + (["--json"] if rng.random() < 0.5 else []) + ["--"] + texts)
    # numbers at and past Python's int->str digit limit, and non-ASCII digits
    calls += [["canon", "--", text] for text in ("Z^" + "7" * 4300, "Z/" + "7" * 4301, "Z_(" + "1" * 5000, "Z/٣ + Z/²")]
    return calls


# the transcript's sections made from their sources; the examples follow them
GENERATED = {
    "battery_text": lambda: [args for ok, bad, _ in CLI_BATTERY for args in (ok, bad)],
    "battery_json": lambda: [args + ["--json"] for ok, bad, _ in CLI_BATTERY for args in (ok, bad)],
    "readme_tour": _readme_tour,
}
SEEDED = "a1f182de96ca2c8aa8c1227e49c0a088271da5469d0cafbde04ba97a6e09bb7d"


def sections() -> dict:
    """Section name -> its records: each generated section takes as many
    lines of the transcript as it makes calls, and the examples the rest."""
    records, out = transcript(), {}
    for name, make in GENERATED.items():
        n = len(make())
        out[name], records = records[:n], records[n:]
    out["examples"] = records
    return out


def digest(calls) -> str:
    h = hashlib.sha256()
    for argv in calls:
        h.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
    return h.hexdigest()


def test_the_transcript_holds_each_section_in_order():
    found = sections()
    for name, make in GENERATED.items():
        assert [argv for argv, *_ in found[name]] == make(), name
    generated = {tuple(argv) for make in GENERATED.values() for argv in make()}
    examples = [tuple(argv) for argv, *_ in found["examples"]]
    assert len(set(examples)) == len(examples) and not generated.intersection(examples)
    assert not any({"-h", "--help"}.intersection(argv) for argv, *_ in transcript())


@pytest.mark.parametrize("section", [*GENERATED, "examples"])
def test_cli_output_matches_the_transcript(section):
    for record in sections()[section]:
        assert (difference := replayed(record)) is None, difference


def test_every_record_keeps_the_stream_rules():
    # under --json one envelope line on stdout and nothing on stderr; in text mode an answer
    # on stdout alone, an error on stderr alone
    for argv, status, out, err in transcript():
        if "--json" in argv:
            assert err == "" and out.count("\n") == 1 and out.endswith("\n"), argv
            doc = json.loads(out)
            VALIDATOR.validate(doc)
            assert doc["ok"] is (status == 0), argv
        else:
            assert (out if status else err) == "", argv


def test_seeded_output_matches_the_recorded_digest():
    assert digest(seeded_calls()) == SEEDED


def test_the_seeded_calls_answer_and_fail():
    # a DSL error, not_prime and bad_modulus included, exits 2
    statuses = [run(argv)[0] for argv in seeded_calls(count=120)]
    assert set(statuses) == {0, 2} and 30 < statuses.count(0) < 90


def record(extra):
    """Rewrite the transcript: the generated sections, then the examples it
    holds and the argvs `extra`, each once."""
    calls = [argv for make in GENERATED.values() for argv in make()]
    seen = set(map(tuple, calls))
    held = [argv for argv, *_ in transcript()] if TRANSCRIPT.exists() else []
    for argv in held + extra:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            calls.append(argv)
    TRANSCRIPT.write_text("".join(json.dumps([argv, *run(argv)]) + "\n" for argv in calls))
    print(f"{TRANSCRIPT.name}: {len(calls)} records; seeded digest {digest(seeded_calls())}")


if __name__ == "__main__":
    record([json.loads(arg) for arg in sys.argv[1:]])
