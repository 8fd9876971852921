"""Every CLI output, byte for byte: sha256 digests of (argv, exit status,
stdout, stderr) over the subcommand battery, the README tour and seeded
`canon`, `sigma` and `smash` calls on valid and malformed expressions.

The digests were recorded before the DSL parser was rewritten as a regex
tokenizer, so they pin its output, errors and positions included, to the
scanner it replaced.  A change that alters any output on purpose re-records
them with `PYTHONPATH=src python tests/test_cli_golden.py` and says so.
"""

import hashlib
import importlib.util
import json
import random

import pytest

from conftest import CLI_BATTERY, ROOT, mutate_text, random_graded_text, random_group_text, run


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


SECTIONS = {
    "battery_text": lambda: [args for ok, bad, _ in CLI_BATTERY for args in (ok, bad)],
    "battery_json": lambda: [args + ["--json"] for ok, bad, _ in CLI_BATTERY for args in (ok, bad)],
    "readme_tour": _readme_tour,
    "seeded": seeded_calls,
}

GOLDEN = {
    "battery_json": "e60c18465b37a828285ac911d618dc3529f355acd9ee5a25b8a9316ef3e66466",
    "battery_text": "e074bd6e6304df96cf74668b3d7a295146f68eb4fcc15e5f136fc3b8a6ffa085",
    "readme_tour": "6a23ee7b8c59a04c815730c3fa6ff81104715289bdc70e6ad14b388e1a344d86",
    "seeded": "a1f182de96ca2c8aa8c1227e49c0a088271da5469d0cafbde04ba97a6e09bb7d",
}


def digest(calls) -> str:
    h = hashlib.sha256()
    for argv in calls:
        status, out, err = run(argv)
        h.update(json.dumps([argv, status, out, err]).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_cli_output_matches_the_recorded_digest(section):
    assert digest(SECTIONS[section]()) == GOLDEN[section]


def test_the_seeded_calls_answer_and_fail():
    # a DSL error, not_prime and bad_modulus included, exits 2
    statuses = [run(argv)[0] for argv in seeded_calls(count=120)]
    assert set(statuses) == {0, 2} and 30 < statuses.count(0) < 90


if __name__ == "__main__":
    print(json.dumps({name: digest(make()) for name, make in sorted(SECTIONS.items())}, indent=4))
