"""Acceptance gate: ten binding criteria, one test and one pass line each.

Each test prints ``PASS: criterion N ...`` on success (visible under -s; the
pytest verdict line carries the same information either way) and enforces the
stated runtime budget on this machine.
"""

import json
import time
import random

from conftest import CLI_BATTERY, envelope_of, random_bf
from extcalc import (
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
from extcalc.errors import DomainError
from extcalc.graded import _reflect
from oracles import (
    finitely_generated, kunneth_by_chains, paired_by_cohomology, random_graded, random_group, random_matrix,
    vanishing_by_expansions,
)

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
    chains = 0
    with _Budget(3, "smash symmetry and the pairing against its cohomology expansion on 500 pairs", 10):
        for _ in range(500):
            k = random_graded(rng)
            l = random_graded(rng)
            assert smash(k, l) == smash(l, k)
            paired = pairing(k, l)[0]
            assert paired == paired_by_cohomology(k, l)
            if finitely_generated(k) and finitely_generated(l):
                chains += 1
                assert paired == kunneth_by_chains(_reflect(k), l)
    print(f"  {chains} of the pairs are finitely generated and match Kunneth by chains")
    assert chains >= 20


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
    with _Budget(9, "three vanishing conditions agree with their expansions on 500 triples", 5):
        for _ in range(500):
            x = random_graded(rng)
            k = random_graded(rng)
            m = rng.randint(0, 6)
            # the statements turn true at m = 1 - (the pairing's lowest degree): check m and both sides of the turn
            low = min((d for d, _ in paired_by_cohomology(x, k).entries), default=0)
            for n in (m, -low, 1 - low):
                assert vanishing_check(x, k, n) == vanishing_by_expansions(x, k, n), (x, k, n)


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
            assert envelope_of(*ok_args)["ok"] and not envelope_of(*bad_args, expect_code=bad_code)["ok"]
