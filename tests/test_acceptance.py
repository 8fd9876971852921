"""Acceptance gate: ten binding criteria, one test and one pass line each.

Each test prints ``PASS: criterion N ...`` on success (visible under -s; the
pytest verdict line carries the same information either way) and enforces the
stated runtime budget on this machine.
"""

import contextlib
import io
import json
import time
import random
from pathlib import Path

import jsonschema

from conftest import random_bf, random_graded, random_group, random_matrix
from extcalc import (
    EMPTY_GRADED,
    ExtNat,
    FiniteType,
    GradedGroup,
    INFINITY,
    PrimePattern,
    Q,
    Z,
    classify_finite_type,
    coef_dimension,
    covering_dimension,
    cyclic,
    format_graded,
    format_group,
    graded_order_leq,
    group_from_presentation,
    has_compact_type,
    homological_dimension,
    infinite_gap_witness,
    moore_graded,
    moore_matches_em,
    pairing,
    parse_graded,
    parse_group,
    sigma,
    smash,
    sp_factors_as_em,
    suspend,
    tensor_from_presentations,
    tor_from_presentations,
    unit_gap_witness,
    validate_bockstein,
    vanishing_check,
)
from extcalc.bockstein import BocksteinFunction
from extcalc.cli import run_command
from extcalc.errors import DomainError

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schemas" / "envelope-v1.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

PRIMES_UP_TO_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class _Budget:
    def __init__(self, criterion, label, seconds):
        self.criterion = criterion
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"criterion {self.criterion} took {elapsed:.2f}s, budget {self.seconds}s"
        print(f"PASS: criterion {self.criterion} - {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_01_oracle_equivalence():
    rng = random.Random(101)
    with _Budget(1, "atom tables agree with the presentation oracle on 1000 pairs", 30):
        for _ in range(1000):
            rel_a = random_matrix(rng)
            rel_b = random_matrix(rng)
            a = group_from_presentation(rel_a.cols, rel_a)
            b = group_from_presentation(rel_b.cols, rel_b)
            assert a.tensor(b) == tensor_from_presentations(rel_a, rel_b)
            assert a.tor(b) == tor_from_presentations(rel_a, rel_b)


def test_criterion_02_sigma_chain():
    rng = random.Random(102)
    with _Budget(2, "sigma chain Z_(p) -> Z/p -> Z/p^oo on 500 groups", 5):
        for _ in range(500):
            s = sigma(random_group(rng, allow_trivial=False))
            for p in PRIMES_UP_TO_50:
                flags = s.at(p)
                if PrimePattern.LOCAL & flags:
                    assert PrimePattern.CYCLIC & flags
                if PrimePattern.CYCLIC & flags:
                    assert PrimePattern.PRUFER & flags


def test_criterion_03_kunneth_symmetry_and_pairing_agreement():
    rng = random.Random(103)
    with _Budget(3, "smash symmetry and two pairing routes on 500 pairs", 10):
        for _ in range(500):
            k = random_graded(rng)
            l = random_graded(rng)
            assert smash(k, l) == smash(l, k)
            first, second = pairing(k, l)
            assert first == second


def _sample_witness(rng, build):
    # rejection-sample (G, F, m) until the lemma's precondition holds
    for _ in range(200):
        g = random_group(rng, allow_trivial=False)
        f = random_group(rng, allow_trivial=False)
        m = rng.randint(1, 4)
        try:
            return g, f, m, build(g, f, m)
        except DomainError:
            continue
    raise AssertionError("precondition sampling stalled")


def test_criterion_04_witness_suite():
    rng = random.Random(104)
    with _Budget(4, "lemma 7.3/7.4 witnesses, 200 each, all postconditions", 5):
        for _ in range(200):
            g, f, m, alpha = _sample_witness(rng, infinite_gap_witness)
            assert validate_bockstein(alpha) == []
            assert coef_dimension(alpha, g) == ExtNat(m)
            assert coef_dimension(alpha, f) == INFINITY
        for _ in range(200):
            g, f, m, built = _sample_witness(rng, unit_gap_witness)
            alpha, _case = built
            assert validate_bockstein(alpha) == []
            assert coef_dimension(alpha, g) == ExtNat(m)
            assert coef_dimension(alpha, f) == ExtNat(m + 1)
            assert covering_dimension(alpha) == ExtNat(m + 1)


def test_criterion_05_dold_thom_round_trip():
    rng = random.Random(105)
    with _Budget(5, "Moore complexes factor as their own EM targets, 300 cases", 5):
        for _ in range(300):
            g = random_group(rng, allow_trivial=False)
            n = rng.randint(1, 5)
            assert sp_factors_as_em(moore_graded(g, n), g, n).verdict


def test_criterion_06_classification_list():
    with _Budget(6, "degree-one circle list and its negatives", 1):
        for n in (2, 3, 4, 5):
            assert not moore_matches_em(Z, n).matches
            assert moore_matches_em(Q, n).matches
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4):
                assert not moore_matches_em(cyclic(p), n).matches
        verdict = moore_matches_em(Z, 1)
        assert verdict.matches and verdict.localization.is_all
        assert has_compact_type(GradedGroup.of({1: Z}))
        assert classify_finite_type(GradedGroup.of({1: cyclic(2)})) == FiniteType("none")


def test_criterion_07_suspension_shift():
    rng = random.Random(107)
    with _Budget(7, "suspension shifts dimension and pairing degree, 200 cases", 5):
        for _ in range(200):
            k = random_graded(rng)
            x = random_graded(rng)
            g = random_group(rng, allow_trivial=False)
            r = rng.randint(1, 4)
            assert homological_dimension(suspend(k, r), g) == homological_dimension(k, g) + r
            assert pairing(x, suspend(k, r))[0] == pairing(x, k)[0].shift(r)


def test_criterion_08_order_smash_coherence():
    rng = random.Random(108)
    with _Budget(8, "graded order transfers to smash dimension, 200 pairs", 30):
        for _ in range(200):
            k = random_graded(rng)
            l = random_graded(rng)
            verdict = graded_order_leq(k, l)
            if verdict.holds:
                for _ in range(50):
                    m = random_graded(rng)
                    assert smash(k, m).min_degree() <= smash(l, m).min_degree()
            else:
                g, _, _ = verdict.witness
                m = moore_graded(g, 1)
                assert smash(k, m).min_degree() > smash(l, m).min_degree()


def test_criterion_09_vanishing_triple_agreement():
    rng = random.Random(109)
    with _Budget(9, "three vanishing conditions agree on 500 triples", 5):
        for _ in range(500):
            x = random_graded(rng)
            k = random_graded(rng)
            m = rng.randint(0, 6)
            a, b, c = vanishing_check(x, k, m)
            assert a == b == c


def _run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(args))
    return code, out.getvalue()


def _check_envelope(args, expect_code):
    code, out = _run(list(args) + ["--json"])
    assert code == expect_code, (args, code, out)
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    assert doc["ok"] == (expect_code == 0)


BF_OK = '{"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}'
BF_BAD = '{"Q": 1, "default": {"Zp": 2, "ZpInf": 1, "Zploc": 1}}'
CHAIN_OK = '{"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]]}'
CHAIN_BAD = '{"ranks": [1, 1, 1], "boundaries": [[[1]], [[1]]]}'

# (success invocation, failing invocation, failing exit code) per subcommand
CLI_BATTERY = [
    (["canon", "Z/12"], ["canon", "Z/1"], 2),
    (["tensor", "Z/4", "Z/6"], ["tensor", "Z/1", "Z"], 2),
    (["tor", "Z/4", "Z/6"], ["tor", "Z", "Z/6^oo"], 2),
    (["sigma", "Z"], ["sigma", "Z^0"], 1),
    (["tau", "Z/4"], ["tau", "Z^0"], 1),
    (["snf", "[[2,4],[6,8]]"], ["snf", "[[1,2],[3]]"], 1),
    (["present", "[[2,0],[0,3]]"], ["present", "{oops"], 2),
    (["homology", CHAIN_OK], ["homology", CHAIN_BAD], 1),
    (["moore", "Z/3", "2"], ["moore", "Z", "0"], 1),
    (["hcoef", "{2: Z/4}", "Z/2"], ["hcoef", "{2: Z/4}", "Z^0"], 1),
    (["dim", "{2: Z}", "Q"], ["dim", "{2: Z}", "Z^0"], 1),
    (["cin", "{3: Z/2}"], ["cin", "{3: Z/2"], 2),
    (["smash", "{1: Z/2}", "{1: Z/2}"], ["smash", "{1: Z/2}", "{bad"], 2),
    (["suspend", "{1: Z/2}", "2"], ["suspend", "{1: Z/2}", "-1"], 1),
    (["pairing", "{2: Z/2}", "{1: Z/4}"], ["pairing", "{2: Z/2}", "nope"], 2),
    (["vanish", "{2: Z/2}", "{1: Z/2}", "2"], ["vanish", "{2: Z/2}", "{x}", "2"], 2),
    (["leqgr", "{1: Z/2}", "{1: Z/2^oo}"], ["leqgr", "{1: Z/2}", "{"], 2),
    (["bfcheck", BF_OK], ["bfcheck", BF_BAD], 1),
    (["bfdim", BF_OK, "Z"], ["bfdim", '{"Q": 1}', "Z"], 2),
    (["covdim", BF_OK], ["covdim", '{"Q": 1}'], 2),
    (["spae", BF_OK, "{2: Z}"], ["spae", BF_OK, "{2: Z"], 2),
    (["cohdimmin", BF_OK], ["cohdimmin", "{}"], 2),
    (["witness73", "Z/2", "Q", "3"], ["witness73", "Z", "Z/2", "2"], 1),
    (["witness74", "Q", "Z", "2"], ["witness74", "Z", "Q", "2"], 1),
    (
        ["spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "1"],
        ["spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "0"],
        1,
    ),
    (["modp", "{1: Z/2}", "2"], ["modp", "{1: Z/2}", "4"], 1),
    (["classify", "{1: Z}"], ["classify", "{}"], 1),
    (["compact", "{1: Z}"], ["compact", "{}"], 1),
    (["mooreem", "Z", "1"], ["mooreem", "Z^0", "1"], 1),
]


def test_criterion_10_cli_contract():
    rng = random.Random(110)
    with _Budget(10, "1000 parse/print round trips and the full subcommand battery", 10):
        for _ in range(400):
            g = random_group(rng, max_atoms=5, allow_trivial=True)
            assert parse_group(format_group(g)) == g
        for _ in range(300):
            k = random_graded(rng, allow_empty=True)
            assert parse_graded(format_graded(k)) == k
        for _ in range(300):
            alpha = random_bf(rng)
            assert BocksteinFunction.from_json(json.loads(json.dumps(alpha.to_json()))) == alpha
        assert len(CLI_BATTERY) == 29
        assert len({args[0] for args, _, _ in CLI_BATTERY}) == 29
        for ok_args, bad_args, bad_code in CLI_BATTERY:
            _check_envelope(ok_args, 0)
            _check_envelope(bad_args, bad_code)
