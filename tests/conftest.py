"""Shared test helpers: seeded value generators and hypothesis strategies,
the oracle table, and the command line: its battery, its envelope check and
the transcript that records every call's answer.

The seeded generators of groups, graded groups and matrices, the oracles and
the bank live in `oracles.py`, which the soak script imports without the
test extra.  The strategies stick to the same small prime pool, so that
collisions (same prime on both sides of a product) happen often.
"""

import contextlib
import functools
import io
import json
import os
import shlex
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from extcalc import (
    ALL_PRIMES, INFINITY, AdmissibleGroup, BocksteinFunction, Cyclic, ExtNat, GradedGroup, IntMatrix, Localization,
    PrimeSet, PrimeTriple, Prufer, Q, Z, classify_finite_type, cohomology_with_coefficients, cyclic, dimension_profile,
    graded_order_leq, group_from_presentation, has_compact_type, homological_dimension, homology_with_coefficients,
    localized, moore_matches_em, pairing, prufer, sigma, smash, tensor_from_presentations, tor_from_presentations,
    validate_bockstein, vanishing_check,
)
from extcalc.abelian import PrimeIndexed, _tensor_atoms, _tor_atoms
from extcalc.cli import run_command
from extcalc.graded import _lowest, _reflect
from oracles import SMALL_PRIMES, outcome

ROOT = Path(__file__).resolve().parents[1]

settings.register_profile(
    "suite", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Seeded random generators (the group and matrix ones are in oracles.py).


def random_extnat(rng, hi=4, p_inf=0.25) -> ExtNat:
    return INFINITY if rng.random() < p_inf else ExtNat(rng.randint(0, hi))


def random_triple(rng) -> PrimeTriple:
    return PrimeTriple(random_extnat(rng), random_extnat(rng), random_extnat(rng))


def random_bf(rng, max_exceptions=2) -> BocksteinFunction:
    """Rejection-sample a function satisfying all five inequalities."""
    while True:
        primes = rng.sample(SMALL_PRIMES, rng.randint(0, max_exceptions))
        alpha = BocksteinFunction.build(
            random_extnat(rng), random_triple(rng), {p: random_triple(rng) for p in primes}
        )
        if not validate_bockstein(alpha):
            return alpha


# ---------------------------------------------------------------------------
# Hypothesis strategies.

st_prime = st.sampled_from(SMALL_PRIMES)
st_prime_set = st.builds(PrimeSet, st.booleans(), st.sets(st_prime, max_size=3))
st_atom = st.one_of(
    st.builds(Localization, st_prime_set),
    st.builds(Cyclic, st_prime, st.integers(min_value=1, max_value=4)),
    st.builds(Prufer, st_prime),
)
st_group = st.lists(st_atom, max_size=4).map(lambda atoms: AdmissibleGroup.of(*atoms))
st_nontrivial_group = st.lists(st_atom, min_size=1, max_size=4).map(
    lambda atoms: AdmissibleGroup.of(*atoms)
)
st_graded = st.dictionaries(
    st.integers(min_value=1, max_value=6), st_nontrivial_group, max_size=3
).map(GradedGroup.of)
st_nonempty_graded = st.dictionaries(
    st.integers(min_value=1, max_value=6), st_nontrivial_group, min_size=1, max_size=3
).map(GradedGroup.of)
# graded groups with negative degrees too, as pairing outputs have them
st_signed_graded = st_graded | st.builds(lambda x, k: pairing(x, k)[0], st_graded, st_graded)
# values over a few primes, so that records list none, disjoint or overlapping primes
st_prime_indexed = st.builds(
    PrimeIndexed.build, st.integers(0, 2), st.integers(0, 2),
    st.dictionaries(st.sampled_from(SMALL_PRIMES[:5]), st.integers(0, 2), max_size=4),
)
st_records = st.lists(st.one_of(st_prime_indexed, st_nontrivial_group.map(sigma)), min_size=1, max_size=3)
LOW_DEGREES = st.integers(min_value=-1, max_value=6)
st_complex = st.dictionaries(LOW_DEGREES, st_nontrivial_group, max_size=4).map(GradedGroup.of)
# groups whose sigma is a localization's or {Q}: a complex starting with one is a candidate
CANDIDATES = (Q, Q + Q, Z, Z + cyclic(2), localized(PrimeSet.of(2)), localized(PrimeSet.excluding(3)))
st_candidate_complex = st.builds(
    lambda low, high: GradedGroup.of([*low.items(), *high.entries]),
    st.dictionaries(LOW_DEGREES, st.sampled_from(CANDIDATES), min_size=1, max_size=2),
    st_graded,
)
# finitely generated groups, which the Kunneth route by chains takes
st_fg_group = st.lists(
    st.builds(Cyclic, st.sampled_from(SMALL_PRIMES[:3]), st.integers(1, 3)) | st.just(Localization(ALL_PRIMES)),
    min_size=1, max_size=3,
).map(lambda atoms: AdmissibleGroup.of(*atoms))
st_fg_graded = st.dictionaries(st.integers(-2, 5), st_fg_group, max_size=3).map(GradedGroup.of)
st_matrix = st.integers(min_value=0, max_value=4).flatmap(
    lambda r: st.integers(min_value=0, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-20, max_value=20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
    )
)


# ---------------------------------------------------------------------------
# Seeded DSL texts, valid and one character away from valid.

DSL_ALPHABET = "ZQ/^_()[]{}~:,+-o 0123456789"
st_dsl_text = st.text(max_size=30) | st.text(alphabet=DSL_ALPHABET, max_size=30)
TEXT_PRIMES = tuple(p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1)))
# 1, 9, 561 (Carmichael) and 3215031751 (a strong pseudoprime to bases 2, 3,
# 5 and 7) make the occasional `not_prime` case; 0 and 1 a `bad_modulus`
NOT_PRIMES = (1, 9, 561, 3215031751)


def random_prime_text(rng) -> str:
    return str(rng.choice(NOT_PRIMES) if rng.random() < 0.01 else rng.choice(TEXT_PRIMES))


def random_atom_text(rng) -> str:
    roll = rng.random()
    if roll < 0.3:
        n = 1
        for p in rng.sample(TEXT_PRIMES[:60], rng.randint(1, 3)):
            n *= p ** rng.randint(1, 3)
        return f"Z/{rng.choice((0, 1)) if rng.random() < 0.01 else n}"
    if roll < 0.42:
        return f"Z/{random_prime_text(rng)}^oo"
    if roll < 0.62:
        listed = [random_prime_text(rng) for _ in range(rng.randint(0, 8))]
        return f"Z_({rng.choice(('', '~'))}{rng.choice((',', ', ', ' ,')).join(listed)})"
    if roll < 0.72:
        return f"Z[1/{random_prime_text(rng)}]"
    return rng.choice(("Z", "Q"))


def random_group_text(rng, max_terms=12) -> str:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        atom = random_atom_text(rng)
        terms.append(f"{atom}^{rng.randint(0, 20)}" if rng.random() < 0.15 else atom)
    return rng.choice((" + ", "+", " +")).join(terms)


def random_graded_text(rng, max_entries=3, max_terms=6) -> str:
    degrees = [rng.randint(0, 6) for _ in range(rng.randint(0, max_entries))]
    return "{" + ", ".join(f"{d}: {random_group_text(rng, max_terms)}" for d in degrees) + "}"


def mutate_text(rng, text: str) -> str:
    """Delete, insert or replace one character, drawn from DSL_ALPHABET."""
    i = rng.randrange(len(text) + 1)
    how = rng.choice(("delete", "insert", "replace"))
    if how == "insert" or i == len(text):
        return text[:i] + rng.choice(DSL_ALPHABET) + text[i:]
    return text[:i] + ("" if how == "delete" else rng.choice(DSL_ALPHABET)) + text[i + 1 :]


# ---------------------------------------------------------------------------
# The oracle table: each row pairs a library function with the definitions it
# replaced (oracles.py), called on the same arguments.  A row gets two tests,
# one on hypothesis inputs and one on a prefix of the bank, each placed in the
# test class of the function that it checks.


class Row(NamedTuple):
    function: Callable
    oracles: tuple
    given: tuple  # a hypothesis strategy per argument
    drawn: tuple  # a bank kind per argument
    count: int  # the bank prefix the row runs on
    labels: Callable = None  # labels(answer, *args) of a case, for `oracles.reach`
    reaches: dict = {}  # label -> the fewest cases of the prefix that must carry it


def one_pass(k, l, g):
    """The five results that the one-pass smash computes."""
    return [smash(k, l), homology_with_coefficients(k, g), cohomology_with_coefficients(k, g), *pairing(k, l)]


def one_pass_by_coefficients(k, l, g):
    by_coefficients, with_g, reflected = oracles.smash_by_coefficients, GradedGroup({0: g}), _reflect(k)
    return [by_coefficients(k, l), by_coefficients(k, with_g), _reflect(by_coefficients(reflected, with_g)),
            by_coefficients(reflected, l), by_coefficients(l, reflected)]


def calculus(k, l, g, h):
    """The results that `oracles.calculus_by_chains` computes by Kunneth products."""
    return [*one_pass(k, l, g), g.tensor(h), g.tor(h)]


def vanishing_labels(statements, x, k, m):
    yield "holds" if statements[0] else "fails"
    if x.entries and x.entries[0][0] < 0:
        yield "negative degree"
    if x.entries and k.entries and _lowest(_reflect(x), k) is None:
        yield "empty smash"


def leqgr_labels(verdict, k, l):
    return ["holds" if verdict.holds else "fails"] + ["family over 200"] * (len(verdict.checked) > 200)


def profile_at(k, p):
    profile = dimension_profile(k)
    return [profile.rational, *profile.at(p)]


def profile_cells(answer, k, p):
    """The cell (Q in sigma(g), pattern of g at p) of each entry g: the row of `graded._OFFSETS` and the reading of Q
    that the profile takes for it.  Z_(p) enters a sigma only with Q, from a localization, so (False, 7) is none."""
    return [(s.rational, s.at(p)) for s in (sigma(g) for _, g in k.entries)]


PROFILE_CELLS = [(q, pattern) for q in (False, True) for pattern in (0, 2, 3, 7) if q or pattern != 7]


def profile_at_by_homology(k, p):
    tests = (Q, cyclic(p), prufer(p), localized(PrimeSet.of(p)))
    return [oracles.homological_dimension_by_homology(k, h) for h in tests]


def presented(a, b):
    return group_from_presentation(a.cols, a), group_from_presentation(b.cols, b)


def presented_products(a, b):
    ga, gb = presented(a, b)
    return ga.tensor(gb), ga.tor(gb)


def presented_smash(a, b):
    ga, gb = presented(a, b)
    return smash(GradedGroup({1: ga, 2: gb}), GradedGroup({1: gb, 3: ga}))


def rule_5_violated(q, prufer_value, local):
    alpha = BocksteinFunction.build(q, PrimeTriple(INFINITY, prufer_value, local))
    return 5 in {v.rule for v in validate_bockstein(alpha)}


def at_least(least, *labels):
    return dict.fromkeys(labels, least)


ATOM_KINDS = ("finite localization", "cofinite localization", "Q", "cyclic", "Prufer")
ORACLES = {
    "atom tables": Row(
        lambda a, b: (_tensor_atoms(a, b), _tor_atoms(a, b)),
        (lambda a, b: (oracles.built_tensor(a, b), oracles.built_tor(a, b)),),
        (st_atom, st_atom), ("atom", "atom"), 324),
    "tensor and Tor": Row(
        lambda g, h: (g.tensor(h), g.tor(h)),
        (lambda g, h: (oracles.all_pairs(g, h, _tensor_atoms), oracles.all_pairs(g, h, _tor_atoms)),),
        (st_group, st_group), ("wide group", "wide group"), 300),
    "pointwise": Row(
        lambda items: list(PrimeIndexed.pointwise(*items)), (lambda items: oracles.pointwise_by_at(*items),),
        (st_records,), ("sigmas",), 300),
    "sigma": Row(
        sigma, (oracles.sigma_by_tensor_tests, oracles.sigma_by_atom_union),
        (st_nontrivial_group,), ("large group",), 8),
    "cohomology": Row(
        cohomology_with_coefficients, (oracles.cohomology_by_formula,),
        (st_signed_graded, st_nontrivial_group), ("signed graded", "group"), 300),
    "pairing": Row(
        pairing, (lambda x, k: (oracles.paired_by_cohomology(x, k),) * 2,),
        (st_signed_graded, st_signed_graded), ("signed graded", "signed graded"), 300),
    "vanishing statements": Row(
        vanishing_check, (oracles.vanishing_by_expansions,),
        (st_signed_graded, st_graded, st.integers(-3, 5)), ("signed graded", "graded", "degree"), 300),
    "one pass": Row(
        one_pass, (one_pass_by_coefficients,),
        (st_signed_graded, st_signed_graded, st_nontrivial_group), ("signed graded", "graded", "group"), 1500,
        oracles.one_pass_labels, at_least(1, *ATOM_KINDS, "negative degree", "trivial product", "three terms meet")),
    "Kunneth by chains": Row(
        calculus, (oracles.calculus_by_chains,),
        (st_fg_graded, st_fg_graded, st_fg_group, st_fg_group),
        ("finitely generated graded", "finitely generated graded", "finitely generated group",
         "finitely generated group"), 300,
        lambda answer, k, l, g, h: oracles.one_pass_labels(answer, k, l, g),
        at_least(1, "Z", "cyclic", "negative degree", "trivial product", "three terms meet")),
    "pair rule": Row(
        lambda g, h, i: _lowest(GradedGroup({i: g}), GradedGroup({0: h})),
        (lambda g, h, i: None if (bottom := oracles.smash_bottom_by_tables(g, h)) is None else i + bottom,),
        (st_nontrivial_group, st_nontrivial_group, st.integers(-3, 3)), ("group", "group", "degree"), 5000,
        lambda lowest, g, h, i: [None if lowest is None else lowest - i], at_least(1, 0, 1, None)),
    "vanishing": Row(
        vanishing_check, (oracles.vanishing_by_smash,),
        (st_signed_graded, st_signed_graded, st.integers(-6, 8)), ("signed graded", "graded", "degree"), 3000,
        vanishing_labels, at_least(1, "holds", "fails", "negative degree", "empty smash")),
    "dimension": Row(
        homological_dimension, (oracles.homological_dimension_by_homology,),
        (st_graded, st_nontrivial_group), ("graded", "group"), 3000,
        lambda dimension, k, g: ["infinite"] * (dimension == INFINITY), at_least(1, "infinite")),
    "profile at a prime": Row(
        profile_at, (profile_at_by_homology,),
        (st_graded, st.sampled_from(SMALL_PRIMES + (17,))), ("graded", "prime"), 3000,
        profile_cells, at_least(1, *PROFILE_CELLS)),
    "leqgr": Row(
        graded_order_leq, (oracles.graded_order_leq_by_homology,),
        (st_graded, st_graded), ("graded or wide", "graded or wide"), 312,
        leqgr_labels, at_least(1, "holds", "fails", "family over 200")),
    "tensor and Tor by presentations": Row(
        presented_products, (lambda a, b: (tensor_from_presentations(a, b), tor_from_presentations(a, b)),),
        (st_matrix, st_matrix), ("relations", "relations"), 200),
    "smash by presentations": Row(
        presented_smash, (lambda a, b: oracles.smash_by_presentations({1: a, 2: b}, {1: b, 3: a}),),
        (st_matrix, st_matrix), ("relations", "relations"), 30),
    "classify": Row(
        lambda k: classify_finite_type(k).to_json(), (oracles.classify_by_clauses,), (st_complex,), ("complex",), 4000,
        oracles.classify_labels,
        {**at_least(10, "localization", "localization at no primes", "rational", "none at a higher degree",
                    "none at the lowest degree", "trivial complex", "degree below 1"),
         **at_least(1, *ATOM_KINDS, *(f"degree {d}" for d in range(1, 7)))}),
    "compact": Row(has_compact_type, (oracles.compact_by_clauses,), (st_complex,), ("complex",), 4000),
    "moore": Row(
        lambda g, n: moore_matches_em(g, n).to_json(), (oracles.moore_by_sigma,),
        (st_group, LOW_DEGREES), ("group or trivial", "moore degree"), 2000, oracles.moore_labels,
        at_least(10, "moore localization", "moore rational", "moore none at the lowest degree", "moore error")),
    "rule 5": Row(
        rule_5_violated, (lambda q, p, l: not oracles.rule_5_by_subtraction(q, PrimeTriple(INFINITY, p, l)),),
        (st.sampled_from(oracles.SMALL_EXTNATS),) * 3, ("extnat",) * 3, 100),
}


def check(name, *args):
    """Row `name` of the table on `args`: the function's answer, or its
    error's code and message, once every oracle gives the same."""
    row = ORACLES[name]
    got = outcome(row.function, *args)
    for oracle in row.oracles:
        assert got == outcome(oracle, *args), (name, oracle.__name__, args)
    return got


def on_hypothesis(*names, given_as=None):
    """A test method that checks the rows `names` on hypothesis arguments,
    drawn by the strategies `given_as` or else by the first row's."""

    @given(st.tuples(*(given_as or ORACLES[names[0]].given)))
    def test(self, args):
        for name in names:
            check(name, *args)

    return test


def on_the_bank(*names):
    """A test method that checks the rows `names` on their prefixes of the
    bank, and that each prefix reaches what its row asks of it."""

    def test(self):
        for name in names:
            row = ORACLES[name]
            cases = oracles.bank(row.drawn, row.count)
            answers = [check(name, *args) for args in cases]
            found = oracles.reach(row.labels, zip(answers, cases)) if row.reaches else {}
            assert all(found[label] >= least for label, least in row.reaches.items()), (name, found)

    return test


# ---------------------------------------------------------------------------
# The command line: one in-process run, the envelope schema, the transcript
# and the battery.

VALIDATOR = jsonschema.Draft202012Validator(json.loads((ROOT / "schemas" / "envelope-v1.schema.json").read_text()))
TRANSCRIPT = ROOT / "tests" / "cli_transcript.jsonl"


def run(args):
    out, err = io.StringIO(), io.StringIO()
    # argparse fits a usage line to the terminal's width, which a pipe, and so the installed script, reads as 80
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(args))
    return code, out.getvalue(), err.getvalue()


@functools.cache
def transcript() -> list:
    """The records of `TRANSCRIPT`, in order: [argv, status, stdout, stderr]."""
    return [json.loads(line) for line in TRANSCRIPT.read_text().splitlines()]


def replayed(record):
    """None when the record's argv prints it again byte for byte; otherwise
    the argv and the first field (status, stdout or stderr) that differs."""
    argv, *recorded_answer = record
    for field, got, want in zip(("status", "stdout", "stderr"), run(argv), recorded_answer):
        if got != want:
            return f"extcalc {shlex.join(argv)}: {field} is {got!r}, the transcript has {want!r}"
    return None


def replays(*calls):
    """Each argv of `calls` has a record in the transcript and prints it again."""
    records = {tuple(argv): [argv, *answer] for argv, *answer in transcript()}
    for argv in calls:
        record = records.get(tuple(argv))
        assert record, f"no record of {argv}: add it with `python tests/test_cli_golden.py '{json.dumps(argv)}'`"
        assert (difference := replayed(record)) is None, difference


def recorded(*calls):
    """A test method that replays `calls` against their records."""
    return lambda self: replays(*calls)


def envelope_of(*args, expect_code=0):
    """The schema-valid envelope that a --json run prints, with nothing on stderr."""
    code, out, err = run(list(args) + ["--json"])
    assert code == expect_code, out + err
    assert err == ""
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    return doc


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
