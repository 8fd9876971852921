"""Extension-type decision procedures for symmetric products of Moore and
Eilenberg-MacLane complexes."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_group, st_nontrivial_group
from extcalc import (
    DomainError,
    GradedGroup,
    LocalizationType,
    NoFiniteType,
    PrimeSet,
    Q,
    RationalType,
    TRIVIAL,
    Z,
    classify_finite_type,
    cyclic,
    has_compact_type,
    localized,
    mod_p_trivial,
    moore_graded,
    moore_matches_em,
    prufer,
    sp_factors_as_em,
    suspend,
)

Z2, Z3, Z4 = cyclic(2), cyclic(3), cyclic(4)


class TestSpFactorsAsEm:
    @given(st_nontrivial_group, st.integers(min_value=1, max_value=5))
    def test_moore_complex_round_trip(self, g, n):
        # A Moore complex M(G, n) always factors as K(G, n).
        assert sp_factors_as_em(moore_graded(g, n), g, n).verdict

    def test_clause_a_low_degree_homology(self):
        k = GradedGroup.of({1: Z2, 3: Z2})
        report = sp_factors_as_em(k, Z2, 3)
        assert not report.verdict
        assert ("a", 1) in {(f.clause, f.degree) for f in report.failures}

    def test_clause_b_basis_mismatch(self):
        report = sp_factors_as_em(GradedGroup.of({2: Z4}), Z3, 2)
        assert not report.verdict
        fails = {(f.clause, f.degree, f.prime) for f in report.failures}
        assert ("b", 2, 2) in fails or ("b", 2, 3) in fails

    def test_clause_b_missing_target(self):
        report = sp_factors_as_em(GradedGroup.of({3: Z2}), Z2, 2)
        assert ("b", 2) in {(f.clause, f.degree) for f in report.failures}

    def test_clause_c_escaping_degree(self):
        k = GradedGroup.of({1: Z2, 2: Q})
        report = sp_factors_as_em(k, Z2, 1)
        assert not report.verdict
        assert {(f.clause, f.degree) for f in report.failures} == {("c", 2)}

    def test_higher_torsion_inside_tau_is_fine(self):
        # tau(Z) contains every basis group, so arbitrary higher homology
        # is allowed over an integral bottom class.
        k = GradedGroup.of({1: Z, 4: Z2 + Q})
        assert sp_factors_as_em(k, Z, 1).verdict

    def test_same_prime_higher_power_matches(self):
        # sigma only sees the prime, not the power.
        assert sp_factors_as_em(moore_graded(Z4, 2), Z2, 2).verdict

    def test_validation(self):
        with pytest.raises(DomainError):
            sp_factors_as_em(GradedGroup.of({1: Z}), TRIVIAL, 1)
        with pytest.raises(DomainError):
            sp_factors_as_em(GradedGroup.of({1: Z}), Z, 0)
        with pytest.raises(DomainError):
            sp_factors_as_em(GradedGroup.of({0: Z}), Z, 1)
        for n in (1.5, True):
            with pytest.raises(DomainError) as exc:
                sp_factors_as_em(GradedGroup.of({1: Q}), Q, n)
            assert exc.value.code == "bad_degree"


class TestModP:
    def test_examples(self):
        assert mod_p_trivial(GradedGroup.of({1: Q}), 2)
        assert not mod_p_trivial(GradedGroup.of({1: Z2}), 2)
        assert mod_p_trivial(GradedGroup.of({1: Z2}), 3)
        assert not mod_p_trivial(GradedGroup.of({2: localized(PrimeSet.of(3))}), 3)
        assert mod_p_trivial(GradedGroup.of({2: localized(PrimeSet.of(3))}), 2)
        assert mod_p_trivial(GradedGroup.of({}), 2)

    def test_prime_required(self):
        with pytest.raises(DomainError):
            mod_p_trivial(GradedGroup.of({1: Z}), 4)

    @pytest.mark.parametrize("p", [2.0, "2"])
    def test_a_non_integer_is_not_prime(self, p):
        with pytest.raises(DomainError) as exc:
            mod_p_trivial(GradedGroup.of({1: Z}), p)
        assert exc.value.code == "not_prime"

    @given(st_nontrivial_group)
    def test_integral_summand_blocks_every_prime(self, g):
        assert not mod_p_trivial(GradedGroup.of({1: g + Z}), 2)


class TestClassify:
    def test_circle(self):
        assert classify_finite_type(GradedGroup.of({1: Z})) == LocalizationType(PrimeSet.excluding())

    def test_localized_circles(self):
        assert classify_finite_type(GradedGroup.of({1: localized(PrimeSet.of(2))})) == LocalizationType(PrimeSet.of(2))
        assert classify_finite_type(GradedGroup.of({1: localized(PrimeSet.excluding(3))})) == LocalizationType(PrimeSet.excluding(3))

    def test_rational_circle_counts_as_localization(self):
        # degree-1 Q is the empty localization, caught by the first branch
        assert classify_finite_type(GradedGroup.of({1: Q})) == LocalizationType(PrimeSet.of())

    def test_rational_higher_degrees(self):
        assert classify_finite_type(GradedGroup.of({3: Q})) == RationalType(3)
        assert classify_finite_type(GradedGroup.of({3: Q + Q})) == RationalType(3)

    def test_none_cases(self):
        assert classify_finite_type(GradedGroup.of({1: Z2})) == NoFiniteType()
        assert classify_finite_type(GradedGroup.of({2: Z})) == NoFiniteType()
        assert classify_finite_type(GradedGroup.of({2: Q, 3: Z2})) == NoFiniteType()

    def test_free_summand_with_torsion_friends(self):
        # extra 2-torsion in degree 1 changes nothing: sigma is already full
        assert classify_finite_type(GradedGroup.of({1: Z + Z2})) == LocalizationType(PrimeSet.excluding())

    def test_higher_homology_inside_tau_is_absorbed(self):
        # tau(Z) contains everything, so anything above an integral circle
        # still reads as the full localization.
        assert classify_finite_type(GradedGroup.of({1: Z, 2: Z2})) == LocalizationType(PrimeSet.excluding())
        assert classify_finite_type(GradedGroup.of({1: Z, 5: Q})) == LocalizationType(PrimeSet.excluding())

    def test_higher_homology_outside_tau_spoils_it(self):
        assert classify_finite_type(GradedGroup.of({1: localized(PrimeSet.of(2)), 5: Z3})) == NoFiniteType()

    def test_trivial_complex_rejected(self):
        with pytest.raises(DomainError):
            classify_finite_type(GradedGroup.of({}))


class TestCompactType:
    def test_only_the_full_circle(self):
        assert has_compact_type(GradedGroup.of({1: Z}))
        assert has_compact_type(GradedGroup.of({1: Z + Z}))
        assert not has_compact_type(GradedGroup.of({1: localized(PrimeSet.of(2))}))
        assert not has_compact_type(GradedGroup.of({2: Q}))
        assert not has_compact_type(GradedGroup.of({1: Z2}))


class TestMooreMatchesEm:
    def test_degree_one_localizations(self):
        v = moore_matches_em(Z, 1)
        assert v.matches and v.localization == PrimeSet.excluding() and not v.rational
        v = moore_matches_em(localized(PrimeSet.of(2, 7)), 1)
        assert v.matches and v.localization == PrimeSet.of(2, 7)
        v = moore_matches_em(Q, 1)
        assert v.matches and v.localization == PrimeSet.of()

    def test_degree_one_non_localizations(self):
        assert not moore_matches_em(Z2, 1).matches
        assert not moore_matches_em(prufer(2), 1).matches
        assert not moore_matches_em(Z2 + Q, 1).matches

    def test_degree_one_sees_only_sigma(self):
        # sigma(Z + Q) = sigma(Z), and the verdict only reads sigma.
        v = moore_matches_em(Z + Q, 1)
        assert v.matches and v.localization == PrimeSet.excluding()

    def test_higher_degrees_are_rational_only(self):
        for n in (2, 3, 5):
            v = moore_matches_em(Q, n)
            assert v.matches and v.rational and v.localization is None
            assert not moore_matches_em(Z, n).matches
            assert not moore_matches_em(Z2, n).matches
            assert not moore_matches_em(localized(PrimeSet.of(2)), n).matches

    def test_validation(self):
        with pytest.raises(DomainError):
            moore_matches_em(TRIVIAL, 1)
        with pytest.raises(DomainError):
            moore_matches_em(Z, 0)
        with pytest.raises(DomainError) as exc:
            moore_matches_em(Q, 2.5)
        assert exc.value.code == "bad_degree"

    def test_seeded_zoo_consistency(self):
        # matches in degree >= 2 iff sigma is exactly {Q}; cross-check the
        # verdict against an independent reading of sigma.
        from extcalc import sigma
        from extcalc.exttype import RATIONAL_ONLY

        rng = random.Random(31)
        for _ in range(60):
            g = random_group(rng, allow_trivial=False)
            n = rng.randint(2, 5)
            assert moore_matches_em(g, n).matches == (sigma(g) == RATIONAL_ONLY)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: sp_factors_as_em(GradedGroup.of({1: Q}), Q, 0), "target degree must be >= 1"),
        (lambda: moore_matches_em(Q, 0), "a Moore complex needs degree >= 1"),
        (lambda: suspend(GradedGroup.of({1: Q}), -1), "suspension count must be nonnegative"),
    ],
    ids=["spaek", "moore-em", "suspend"],
)
def test_out_of_range_integers_keep_their_messages(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert (exc.value.code, exc.value.message) == ("bad_degree", message)
