"""Graded groups and the coefficient calculus: Kunneth-style homology,
cohomology with the reversed grading, the pairing, and the dimension order."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graded, st_graded, st_nonempty_graded, st_nontrivial_group
from extcalc import (
    AdmissibleGroup,
    Cyclic,
    DomainError,
    EMPTY_GRADED,
    GradedGroup,
    GradedOrderVerdict,
    INFINITY,
    PrimeSet,
    PrimeTriple,
    Q,
    TRIVIAL,
    Z,
    cohomology_with_coefficients,
    cyclic,
    dimension_profile,
    fresh_prime,
    graded_order_leq,
    homological_dimension,
    homology_with_coefficients,
    localized,
    moore_graded,
    pairing,
    prufer,
    sigma,
    smash,
    suspend,
    vanishing_check,
)
from extcalc.abelian import BOCKSTEIN_FLAGS
from test_abelian import wide_group

Z2, Z4 = cyclic(2), cyclic(4)
P2 = prufer(2)


class TestGradedGroup:
    def test_construction_drops_trivial_entries(self):
        assert GradedGroup.of({1: Z, 2: TRIVIAL}) == GradedGroup.of({1: Z})
        assert GradedGroup.of({}) == EMPTY_GRADED

    def test_degrees_are_ints(self):
        with pytest.raises(DomainError):
            GradedGroup.of({1.5: Z})
        # negative degrees are allowed; pairings land there
        assert GradedGroup.of({-2: Z}).degrees == (-2,)

    def test_accessors(self):
        k = GradedGroup.of({1: Z2, 3: Q + Q})
        assert k.at(1) == Z2 and k.at(2) == TRIVIAL
        assert k.degrees == (1, 3)
        assert k.min_degree() == 1
        assert EMPTY_GRADED.min_degree() == INFINITY
        assert k.support_primes() == (2,)

    def test_shift_and_sum(self):
        k = GradedGroup.of({1: Z2})
        assert k.shift(2) == GradedGroup.of({3: Z2})
        assert k.direct_sum(GradedGroup.of({1: Z})) == GradedGroup.of({1: Z2 + Z})


class TestNegativeDegrees:
    """Pairing outputs reach below degree 0, where a dimension is undefined."""

    @pytest.mark.parametrize(
        "k",
        [GradedGroup.of({-1: Z}), pairing(GradedGroup.of({3: Z}), GradedGroup.of({1: Z2}))[0]],
        ids=["degree -1", "pairing"],
    )
    def test_dimensions_are_typed_errors(self, k):
        assert k.degrees[0] < 0
        computations = (
            k.min_degree,
            lambda: homological_dimension(k, Z),
            lambda: homological_dimension(k, Q),  # zero homology, still no dimension
            lambda: dimension_profile(k),
            lambda: graded_order_leq(k, EMPTY_GRADED),
            lambda: graded_order_leq(EMPTY_GRADED, k),
        )
        for compute in computations:
            with pytest.raises(DomainError) as info:
                compute()
            assert info.value.code == "bad_degree"
        assert k.shift(-k.degrees[0]).min_degree() == 0


class TestHomologyWithCoefficients:
    def test_tensor_and_tor_terms(self):
        k = GradedGroup.of({2: Z4, 3: Z})
        assert homology_with_coefficients(k, Z2) == GradedGroup.of({2: Z2, 3: Z2 + Z2})

    def test_moore_self_pairing(self):
        k = moore_graded(Z2, 1)
        assert homology_with_coefficients(k, Z2) == GradedGroup.of({1: Z2, 2: Z2})

    def test_trivial_coefficients_rejected(self):
        with pytest.raises(DomainError):
            homology_with_coefficients(GradedGroup.of({1: Z}), TRIVIAL)

    @given(st_graded, st_nontrivial_group, st_nontrivial_group)
    def test_additive_in_coefficients(self, k, g, h):
        left = homology_with_coefficients(k, g + h)
        right = homology_with_coefficients(k, g).direct_sum(homology_with_coefficients(k, h))
        assert left == right

    def test_dimension_examples(self):
        assert homological_dimension(GradedGroup.of({2: Z4}), Z2) == 2
        assert homological_dimension(GradedGroup.of({2: Z4}), Q) == INFINITY
        # the integral dimension (the `cin` command) is the least nonzero degree
        for k, expected in ((GradedGroup.of({3: Q}), 3), (GradedGroup.of({2: Z4, 5: Z}), 2), (EMPTY_GRADED, INFINITY)):
            assert k.min_degree() == homological_dimension(k, Z) == expected


class TestSmash:
    def test_spheres(self):
        s1 = GradedGroup.of({1: Z})
        assert smash(s1, s1) == GradedGroup.of({2: Z})

    def test_moore_pair_with_torsion(self):
        m = moore_graded(Z2, 1)
        expected = GradedGroup.of({2: Z2, 3: Z2})
        assert smash(m, m) == expected

    @given(st_graded, st_graded)
    def test_symmetric(self, k, l):
        assert smash(k, l) == smash(l, k)

    @given(st_graded)
    def test_unit(self, k):
        # Smashing with a 0-sphere (integral class in degree 0) is a no-op.
        s0 = GradedGroup.of({0: Z})
        assert smash(k, s0) == k


class TestSuspension:
    def test_shift(self):
        assert suspend(GradedGroup.of({1: Z2}), 2) == GradedGroup.of({3: Z2})
        with pytest.raises(DomainError):
            suspend(GradedGroup.of({1: Z2}), -1)

    def test_rejects_a_non_integer_count(self):
        k = GradedGroup.of({1: Q})
        for build in (lambda: suspend(k, 1.5), lambda: vanishing_check(k, k, 1.5)):
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == "bad_degree"

    @given(st_graded, st_nontrivial_group, st.integers(min_value=0, max_value=3))
    def test_dimension_shifts_with_suspension(self, k, g, r):
        assert homological_dimension(suspend(k, r), g) == homological_dimension(k, g) + r


class TestCohomologyWithCoefficients:
    def test_tor_partner_sits_one_degree_down(self):
        x = GradedGroup.of({1: Z4})
        assert cohomology_with_coefficients(x, Z2) == GradedGroup.of({0: Z2, 1: Z2})

    def test_free_input_has_no_tor_terms(self):
        x = GradedGroup.of({2: Z + Z})
        assert cohomology_with_coefficients(x, Z2) == GradedGroup.of({2: Z2 + Z2})


class TestPairing:
    def test_sphere_against_sphere(self):
        x = GradedGroup.of({2: Z})  # cohomology of S^2
        k = GradedGroup.of({5: Z})
        first, second = pairing(x, k)
        assert first == second == GradedGroup.of({3: Z})

    def test_negative_output_degrees(self):
        x = GradedGroup.of({2: Z2})
        k = GradedGroup.of({1: Z4, 3: Z})
        first, second = pairing(x, k)
        assert first == second == GradedGroup.of({-1: Z2, 0: Z2, 1: Z2})

    @given(st_graded, st_graded)
    def test_routes_agree(self, x, k):
        first, second = pairing(x, k)
        assert first == second

    @given(st_graded, st_graded, st.integers(min_value=0, max_value=3))
    def test_suspension_shifts_pairing(self, x, k, r):
        base = pairing(x, k)[0]
        assert pairing(x, suspend(k, r))[0] == base.shift(r)


class TestVanishing:
    def test_all_three_hold(self):
        x = GradedGroup.of({2: Z2})
        k = GradedGroup.of({1: Z2})
        assert vanishing_check(x, k, 2) == (True, True, True)

    def test_all_three_fail(self):
        x = GradedGroup.of({2: Z2})
        k = GradedGroup.of({1: Z2})
        assert vanishing_check(x, k, 1) == (False, False, False)

    @given(st_graded, st_graded, st.integers(min_value=0, max_value=5))
    def test_conditions_agree(self, x, k, m):
        a, b, c = vanishing_check(x, k, m)
        assert a == b == c


class TestGradedOrder:
    def test_equal_complexes(self):
        k = GradedGroup.of({1: Z2})
        assert graded_order_leq(k, k).holds

    def test_prufer_above_cyclic(self):
        # dim with Z/2 coefficients: 1 on the left, 2 on the right (the
        # Prufer side only contributes through Tor), and every other family
        # member keeps the same order.
        assert graded_order_leq(GradedGroup.of({1: Z2}), GradedGroup.of({1: P2})).holds

    def test_cyclic_not_above_prufer(self):
        v = graded_order_leq(GradedGroup.of({1: P2}), GradedGroup.of({1: Z2}))
        assert not v.holds
        g, dk, dl = v.witness
        assert g == Z2 and dk == 2 and dl == 1

    def test_family_contents(self):
        family = graded_order_leq(GradedGroup.of({1: Z2}), EMPTY_GRADED).checked
        assert Q in family
        assert cyclic(2) in family and prufer(2) in family and localized(PrimeSet.of(2)) in family
        # one representative beyond the support
        assert cyclic(3) in family

    def test_family_lists_each_prime_in_field_order(self):
        checked = graded_order_leq(GradedGroup.of({1: Z2 + prufer(5)}), EMPTY_GRADED).checked
        build = {"cyclic": cyclic, "prufer": prufer, "local": lambda p: localized(PrimeSet.of(p))}
        # the support primes 2 and 5, and the fresh prime 3
        assert checked == (Q,) + tuple(build[name](p) for p in (2, 3, 5) for name in PrimeTriple._fields)

    @given(st_graded, st_graded)
    def test_verdict_is_consistent_with_dimensions(self, k, l):
        v = graded_order_leq(k, l)
        if v.holds:
            for g in v.checked:
                assert homological_dimension(k, g) <= homological_dimension(l, g)
        else:
            g, dk, dl = v.witness
            assert homological_dimension(k, g) == dk
            assert homological_dimension(l, g) == dl
            assert dk > dl

    @given(st_nonempty_graded, st_nonempty_graded)
    def test_failure_witness_transfers_to_smash(self, k, l):
        # A failing coefficient G turns into a separating Moore factor.
        v = graded_order_leq(k, l)
        if not v.holds:
            m = moore_graded(v.witness[0], 1)
            assert smash(k, m).min_degree() > smash(l, m).min_degree()


def graded_order_leq_by_homology(k, l):
    """The dimension order by definition, the oracle for the profiles: every
    family member's dimension is read off the full homology with those
    coefficients."""
    primes = set(k.support_primes()).union(l.support_primes())
    primes.add(fresh_prime(primes))
    family = [Q]
    for p in sorted(primes):
        family += [AdmissibleGroup.of(Cyclic(p, 1)), prufer(p), localized(PrimeSet.of(p))]
    for g in family:
        dk, dl = homological_dimension(k, g), homological_dimension(l, g)
        if not dk <= dl:
            return GradedOrderVerdict(False, tuple(family), (g, dk, dl))
    return GradedOrderVerdict(True, tuple(family))


def family_readings(profile, checked):
    """(member, profile value) for each member of a `checked` tuple: Q, then
    Z/p, Z/p^oo, Z_(p) for one prime after another."""
    assert checked[0] == Q
    out = [(Q, profile.rational)]
    for i in range(1, len(checked), 3):
        (p,) = checked[i].support_primes()
        assert checked[i : i + 3] == (cyclic(p), prufer(p), localized(PrimeSet.of(p)))
        out.extend(zip(checked[i : i + 3], profile.at(p)))
    return out


def wide_graded(rng):
    return GradedGroup.of({d: wide_group(rng, rng.randint(10, 40)) for d in rng.sample(range(1, 6), rng.randint(1, 3))})


class TestDimensionProfile:
    def test_examples(self):
        oo = INFINITY
        profile = dimension_profile(GradedGroup.of({1: P2}))
        assert profile.rational == oo and profile.at(2) == (2, 2, 1) and profile.at(3) == (oo, oo, oo)
        profile = dimension_profile(GradedGroup.of({1: Z4, 3: Q}))
        assert profile.rational == 3 and profile.at(2) == (1, 2, 1) and profile.at(5) == (oo, oo, 3)
        assert dimension_profile(GradedGroup.of({2: Z})).at(7) == (2, 2, 2)
        assert dimension_profile(EMPTY_GRADED).at(2) == (oo, oo, oo)

    @given(st_graded)
    def test_values_are_prime_triples(self, k):
        profile = dimension_profile(k)
        assert all(type(t) is PrimeTriple for t in [profile.default] + [t for _, t in profile.exceptions])

    @given(st_graded, st_graded)
    def test_matches_homological_dimension_on_the_family(self, k, l):
        checked = graded_order_leq(k, l).checked
        for side in (k, l):
            for g, value in family_readings(dimension_profile(side), checked):
                assert value == homological_dimension(side, g)

    @given(st_graded, st_nontrivial_group)
    def test_dimension_is_the_least_value_over_sigma(self, k, g):
        # dual to coef_dimension, which takes the maximum over sigma(G)
        profile, s = dimension_profile(k), sigma(g)
        values = [profile.rational] if s.rational else []
        for p in s.primes_to_inspect(profile):
            values += [v for f, v in zip(BOCKSTEIN_FLAGS, profile.at(p)) if f.flag & s.at(p)]
        assert homological_dimension(k, g) == min(values, default=INFINITY)

    @given(st_graded, st_graded)
    def test_order_matches_the_homology_route(self, k, l):
        assert graded_order_leq(k, l) == graded_order_leq_by_homology(k, l)

    def test_order_matches_the_homology_route_on_a_seeded_bank(self):
        rng = random.Random(20)
        pairs = [(random_graded(rng, max_entries=4), random_graded(rng, max_entries=4)) for _ in range(300)]
        for _ in range(3):
            k, l = wide_graded(rng), wide_graded(rng)
            pairs += [(k, l), (l, k), (k, k.direct_sum(l)), (k.direct_sum(l), k.shift(1))]
        verdicts = [graded_order_leq(k, l) for k, l in pairs]
        assert verdicts == [graded_order_leq_by_homology(k, l) for k, l in pairs]
        assert {v.holds for v in verdicts} == {True, False}
        assert max(len(v.checked) for v in verdicts) > 200

    def test_builds_no_group(self, monkeypatch, capsys):
        from extcalc.cli import run_command

        pairs = [
            (GradedGroup.of({1: P2}), GradedGroup.of({1: Z2})),
            (GradedGroup.of({1: Z2, 2: Q}), GradedGroup.of({1: P2 + Z})),
            (GradedGroup.of({3: localized(PrimeSet.excluding(3))}), GradedGroup.of({2: Z4 + P2})),
        ]
        expected = [graded_order_leq(k, l) for k, l in pairs]

        def refuse(*args):
            raise AssertionError("leqgr built a group")

        for name in ("tensor", "tor"):
            monkeypatch.setattr(AdmissibleGroup, name, refuse)
        for name in ("homology_with_coefficients", "homological_dimension"):
            monkeypatch.setattr(f"extcalc.graded.{name}", refuse)
        assert [graded_order_leq(k, l) for k, l in pairs] == expected
        assert run_command(["leqgr", "{1: Z/2^oo}", "{1: Z/2}"]) == 0
        assert capsys.readouterr().out.startswith("fails: with coefficients Z/2 the left side has dimension 2")


class TestMooreGraded:
    def test_values(self):
        assert moore_graded(Z2, 3) == GradedGroup.of({3: Z2})

    def test_validation(self):
        with pytest.raises(DomainError):
            moore_graded(TRIVIAL, 1)
        with pytest.raises(DomainError):
            moore_graded(Z2, 0)
