"""Bockstein dimension functions: the five realizability inequalities,
dimension evaluation, the minimal wedge, and the two witness builders."""

import random

import pytest
from hypothesis import given

from conftest import random_bf, random_group, st_nontrivial_group
from extcalc import (
    BocksteinFunction,
    DomainError,
    ExtNat,
    GradedGroup,
    INFINITY,
    ParseError,
    PrimeSet,
    PrimeTriple,
    Q,
    Z,
    coef_dimension,
    covering_dimension,
    cyclic,
    infinite_gap_witness,
    localized,
    minimal_wedge,
    prufer,
    sigma,
    sp_in_ae,
    tau,
    unit_gap_witness,
    validate_bockstein,
)

N = ExtNat


def bf(q, default, exceptions=()):
    return BocksteinFunction.build(q, PrimeTriple(*map(N.of, default)), dict(exceptions))


def triple(c, p, l):
    return PrimeTriple(N.of(c), N.of(p), N.of(l))


class TestDocuments:
    def test_round_trip(self):
        alpha = bf(2, (2, 1, 2), {3: triple(4, 3, 4)})
        assert BocksteinFunction.from_json(alpha.to_json()) == alpha

    def test_constant(self):
        alpha = BocksteinFunction.constant(INFINITY)
        assert alpha.at(97) == PrimeTriple.constant(INFINITY)
        assert validate_bockstein(alpha) == []

    def test_exceptions_equal_to_default_are_dropped(self):
        alpha = bf(1, (1, 1, 1), {5: triple(1, 1, 1)})
        assert alpha.exceptions == ()

    def test_strict_keys(self):
        with pytest.raises(ParseError):
            BocksteinFunction.from_json({"Q": 1, "default": {"Zp": 1, "ZpInf": 1}})
        with pytest.raises(ParseError):
            BocksteinFunction.from_json(
                {"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1, "extra": 0}}
            )
        with pytest.raises(ParseError):
            BocksteinFunction.from_json({"default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}})
        with pytest.raises(ParseError):
            BocksteinFunction.from_json(
                {"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}, "rogue": {}}
            )

    @pytest.mark.parametrize("key", [4, 1, True, "3"])
    def test_build_rejects_a_non_prime_key(self, key):
        # a key 4 was kept, and never read: coef_dimension on Z/4 looks at the prime 2
        with pytest.raises(DomainError) as exc:
            BocksteinFunction.build(1, PrimeTriple.constant(ExtNat(1)), {key: PrimeTriple.constant(ExtNat(2))})
        assert exc.value.code == "not_prime"

    @pytest.mark.parametrize("default", [5, None, (1, 1, 1), PrimeTriple.constant(ExtNat(1)).to_json()])
    def test_build_rejects_a_default_that_is_not_a_triple(self, default):
        # a default 5 was kept, and covering_dimension then raised a TypeError
        with pytest.raises(DomainError) as exc:
            BocksteinFunction.build(1, default)
        assert exc.value.code == "not_a_group"
        with pytest.raises(DomainError) as exc:
            BocksteinFunction.build(1, PrimeTriple.constant(ExtNat(1)), {2: default})
        assert exc.value.code == "not_a_group"

    @pytest.mark.parametrize("value", ["x", -1, 1.5, None])
    def test_build_rejects_a_value_that_is_not_a_natural(self, value):
        # the rational value "x" raised a ValueError from ExtNat.of
        for build in (
            lambda: BocksteinFunction.build(value, PrimeTriple.constant(ExtNat(1))),
            lambda: BocksteinFunction.build(1, PrimeTriple(ExtNat(1), value, ExtNat(1))),
            lambda: BocksteinFunction.constant(value),
        ):
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == "bad_dimension"

    def test_build_reads_int_and_inf_values(self):
        alpha = BocksteinFunction.build(2, PrimeTriple(1, "inf", ExtNat(2)), {3: PrimeTriple(0, 0, 0)})
        assert alpha == bf(2, (1, "inf", 2), {3: triple(0, 0, 0)})
        assert alpha.to_json()["default"] == {"Zp": 1, "ZpInf": "inf", "Zploc": 2}

    def test_exception_keys_must_be_primes(self):
        doc = {"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}, "exceptions": {"4": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}}
        with pytest.raises(ParseError):
            BocksteinFunction.from_json(doc)

    def test_inf_spelling(self):
        alpha = BocksteinFunction.from_json(
            {"Q": "inf", "default": {"Zp": "inf", "ZpInf": "inf", "Zploc": "inf"}}
        )
        assert alpha.rational == INFINITY


class TestValidation:
    def test_valid_examples(self):
        assert validate_bockstein(bf(2, (2, 1, 2))) == []
        assert validate_bockstein(bf(0, (0, 0, 0))) == []
        assert validate_bockstein(bf("inf", (3, 3, "inf"))) == []

    def test_rule_1_cyclic_tracks_prufer(self):
        rules = {v.rule for v in validate_bockstein(bf(9, (5, 3, 9)))}
        assert 1 in rules
        rules = {v.rule for v in validate_bockstein(bf(9, (2, 3, 9)))}
        assert 1 in rules

    def test_rule_2_local_dominates_cyclic(self):
        rules = {v.rule for v in validate_bockstein(bf(3, (3, 2, 2)))}
        assert 2 in rules

    def test_rule_3_local_dominates_rational(self):
        rules = {v.rule for v in validate_bockstein(bf(5, (3, 2, 3)))}
        assert 3 in rules

    def test_rule_4_local_capped(self):
        rules = {v.rule for v in validate_bockstein(bf(1, (2, 1, 4)))}
        assert 4 in rules

    def test_rule_5_prufer_capped(self):
        rules = {v.rule for v in validate_bockstein(bf(1, (5, 5, 5)))}
        assert 5 in rules

    def test_violation_reports_prime(self):
        alpha = bf(1, (1, 1, 1), {7: triple(5, 1, 5)})
        assert {v.prime for v in validate_bockstein(alpha)} == {7}

    def test_random_generator_only_emits_valid(self):
        rng = random.Random(3)
        for _ in range(40):
            assert validate_bockstein(random_bf(rng)) == []


class TestDimension:
    def test_rational_coefficients_read_q(self):
        alpha = bf(3, (7, 6, 7))
        assert coef_dimension(alpha, Q) == 3

    def test_integral_coefficients_reach_everything(self):
        alpha = bf(3, (7, 6, 7), {2: triple(9, 8, 9)})
        assert coef_dimension(alpha, Z) == 9
        assert covering_dimension(alpha) == 9

    def test_cyclic_coefficients_use_two_slots(self):
        alpha = bf(0, (1, 0, 1), {3: triple(5, 4, 5)})
        assert coef_dimension(alpha, cyclic(9)) == 5
        assert coef_dimension(alpha, cyclic(2)) == 1
        assert coef_dimension(alpha, prufer(3)) == 4

    def test_localized_coefficients(self):
        alpha = bf(2, (2, 2, 3))
        assert coef_dimension(alpha, localized(PrimeSet.of(5))) == 3

    @given(st_nontrivial_group)
    def test_z_dominates_every_group(self, g):
        rng = random.Random(11)
        alpha = random_bf(rng)
        assert coef_dimension(alpha, g) <= coef_dimension(alpha, Z)
        assert coef_dimension(alpha, Z) == covering_dimension(alpha)

    def test_alpha_exceptions_count_even_when_sigma_is_uniform(self):
        # sigma(Z) has no exceptional primes; alpha's own exceptions must
        # still be consulted.
        alpha = bf(1, (1, 1, 1), {13: triple(2, 1, 2)})
        assert coef_dimension(alpha, Z) == 2


class TestSpInAe:
    def test_small_examples(self):
        alpha = bf(2, (2, 1, 2), {3: triple(4, 3, 4)})
        assert sp_in_ae(alpha, GradedGroup.of({4: cyclic(3)}))
        assert not sp_in_ae(alpha, GradedGroup.of({3: cyclic(3)}))
        assert sp_in_ae(alpha, GradedGroup.of({}))

    def test_degree_zero_rejected(self):
        alpha = BocksteinFunction.constant(1)
        with pytest.raises(DomainError):
            sp_in_ae(alpha, GradedGroup.of({0: Z}))

    def test_a_point_still_needs_a_function(self):
        # the empty homology extends over every compactum, so no degree ever read alpha
        from extcalc import EMPTY_GRADED

        with pytest.raises(DomainError) as exc:
            sp_in_ae(5, EMPTY_GRADED)
        assert exc.value.code == "not_a_group"


class TestPrimeTripleValues:
    def test_functions_and_wedges_hold_prime_triples(self):
        rng = random.Random(31)
        for _ in range(50):
            alpha = random_bf(rng)
            for value in (alpha, BocksteinFunction.from_json(alpha.to_json()), minimal_wedge(alpha)):
                assert all(type(t) is PrimeTriple for t in [value.default] + [t for _, t in value.exceptions])


class TestMinimalWedge:
    def test_drops_infinite_values(self):
        alpha = bf(2, ("inf", "inf", "inf"), {2: triple(3, 2, "inf")})
        w = minimal_wedge(alpha)
        assert w.rational == 2
        assert w.default == (None, None, None)
        assert w.at(2) == (3, 2, None)
        assert w.listed_summands() == {("Q", 2), ("Z/2", 3), ("Z/2^oo", 2)}

    def test_uniform_part_is_kept_once(self):
        alpha = bf(1, (1, 1, 1))
        w = minimal_wedge(alpha)
        assert w.default == (1, 1, 1)
        assert w.at(101) == (1, 1, 1)

    def test_json_shape(self):
        w = minimal_wedge(bf(1, (1, 1, 1)))
        assert w.to_json() == {
            "rational": 1,
            "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1},
            "exceptions": {},
        }


class TestInfiniteGapWitness:
    def test_postconditions_on_sample(self):
        rng = random.Random(19)
        built = 0
        while built < 60:
            g = random_group(rng, allow_trivial=False)
            f = random_group(rng, allow_trivial=False)
            m = rng.randint(1, 4)
            if sigma(f).issubset(tau(g)):
                continue
            alpha = infinite_gap_witness(g, f, m)
            assert validate_bockstein(alpha) == []
            assert coef_dimension(alpha, g) == m
            assert coef_dimension(alpha, f) == INFINITY
            built += 1

    def test_layering(self):
        # G = Z/4: sigma = {C,P at 2}, tau adds nothing new; everything
        # else is infinite.
        alpha = infinite_gap_witness(cyclic(4), Q, 2)
        assert alpha.rational == INFINITY
        assert alpha.at(2) == triple(2, 2, "inf")
        assert alpha.at(3) == PrimeTriple.constant(INFINITY)

    def test_tau_layer_gets_m_plus_one(self):
        # G = Z/2^oo: sigma = {P at 2}, tau = {C,P at 2}; the cyclic slot
        # sits in the middle layer.
        alpha = infinite_gap_witness(prufer(2), Q, 3)
        assert alpha.at(2) == triple(4, 3, "inf")

    def test_not_separable_rejected(self):
        with pytest.raises(DomainError):
            infinite_gap_witness(Z, cyclic(2), 2)
        with pytest.raises(DomainError):
            infinite_gap_witness(cyclic(2), cyclic(4), 1)

    def test_bad_dimension_rejected(self):
        for build in (lambda: infinite_gap_witness(cyclic(4), Q, 0), lambda: unit_gap_witness(Q, Z, 0)):
            with pytest.raises(DomainError) as exc:
                build()
            assert (exc.value.code, exc.value.message) == ("bad_dimension", "separation degree m must be >= 1")


@pytest.mark.parametrize("m", [1.5, 2.0, True])
def test_witnesses_reject_a_non_integer_degree(m):
    for build in (lambda: unit_gap_witness(Q, Z, m), lambda: infinite_gap_witness(cyclic(4), Q, m)):
        with pytest.raises(DomainError) as exc:
            build()
        assert exc.value.code == "bad_dimension"


class TestUnitGapWitness:
    def test_case_one(self):
        alpha, case = unit_gap_witness(Q, Z, 2)
        assert case == "I"
        assert validate_bockstein(alpha) == []
        assert coef_dimension(alpha, Q) == 2
        assert coef_dimension(alpha, Z) == 3
        assert covering_dimension(alpha) == 3

    def test_case_two(self):
        # F = Z_(2) against G = Z/2: the cyclic flags agree at every prime,
        # only the localization at 2 separates, forcing case II.
        alpha, case = unit_gap_witness(cyclic(2), localized(PrimeSet.of(2)), 1)
        assert case == "II"
        assert validate_bockstein(alpha) == []
        assert coef_dimension(alpha, cyclic(2)) == 1
        assert coef_dimension(alpha, localized(PrimeSet.of(2))) == 2
        assert covering_dimension(alpha) == 2

    def test_postconditions_on_sample(self):
        rng = random.Random(23)
        built = 0
        while built < 60:
            g = random_group(rng, allow_trivial=False)
            f = random_group(rng, allow_trivial=False)
            m = rng.randint(1, 4)
            try:
                alpha, case = unit_gap_witness(g, f, m)
            except DomainError:
                continue
            assert case in ("I", "II")
            assert validate_bockstein(alpha) == []
            assert coef_dimension(alpha, g) == m
            assert coef_dimension(alpha, f) == m + 1
            assert covering_dimension(alpha) == m + 1
            built += 1

    def test_not_applicable(self):
        with pytest.raises(DomainError):
            unit_gap_witness(Z, Q, 2)
        with pytest.raises(DomainError):
            unit_gap_witness(Z, Z, 1)
