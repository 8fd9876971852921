"""Graded groups and the coefficient calculus: Kunneth-style homology,
cohomology with the reversed grading, the pairing, and the dimension order."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graded, random_group, st_graded, st_nonempty_graded, st_nontrivial_group
from extcalc import (
    AdmissibleGroup,
    Cyclic,
    DomainError,
    EMPTY_GRADED,
    ExtNat,
    GradedGroup,
    GradedOrderVerdict,
    INFINITY,
    Localization,
    PrimeSet,
    PrimeTriple,
    Prufer,
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
from extcalc.abelian import PrimeIndexed
from extcalc.graded import _lowest, _reflect
from test_abelian import wide_group

Z2, Z4 = cyclic(2), cyclic(4)
P2 = prufer(2)
ROOT = Path(__file__).resolve().parents[1]


def cohomology_by_formula(x: GradedGroup, group) -> GradedGroup:
    """Oracle: cohomology with coefficients by its own formula on the stored
    grading (the route `cohomology_with_coefficients` took before it read
    homology on the reflected grading): degree d holds
    (G (x) x_d) (+) Tor(G, x_{d+1})."""
    return GradedGroup(t for d, g in x.entries for t in ((d, group.tensor(g)), (d - 1, group.tor(g))))


def paired_by_cohomology(x: GradedGroup, k: GradedGroup) -> GradedGroup:
    """Oracle: the pairing expanded through the cohomology of x, a complex
    degree j against a stored degree d landing at j - d (the first route
    before the pairing became a smash on the reflected grading)."""
    return GradedGroup((j - d, h) for j, g in k.entries for d, h in cohomology_by_formula(x, g).entries)


def smash_by_coefficients(k: GradedGroup, l: GradedGroup) -> GradedGroup:
    """Oracle: the smash one entry (j, h) of l at a time, by universal
    coefficients through the public tensor and Tor, every term summed
    degreewise by the GradedGroup constructor (the route `smash` took, through
    `homology_with_coefficients`, before it became one pass)."""
    return GradedGroup(
        (i + j + s, t) for j, h in l.entries for i, g in k.entries for s, t in ((0, g.tensor(h)), (1, g.tor(h)))
    )


def homological_dimension_by_homology(k: GradedGroup, group) -> ExtNat:
    """Oracle: the homological dimension read off the full homology with
    these coefficients (the route `homological_dimension` took before it
    read sigma)."""
    return homology_with_coefficients(k, group).min_degree()


def vanishing_by_smash(x: GradedGroup, k: GradedGroup, m: int) -> tuple[bool, bool, bool]:
    """Oracle: the three vanishing statements read off the two expansion
    orders of the smash of k with x on the reflected grading (the route
    `vanishing_check` took before it read sigma); 1 and 3 are one predicate
    on the first order."""
    reflected = _reflect(x)
    first = all(n > -m for n in smash(reflected, k).degrees)
    second = all(n > -m for n in smash(k, reflected).degrees)
    return first, second, first


# graded groups with negative degrees too, as pairing outputs have them
st_signed_graded = st_graded | st.builds(lambda x, k: pairing(x, k)[0], st_graded, st_graded)


class TestGradedGroup:
    def test_construction_drops_trivial_entries(self):
        assert GradedGroup.of({1: Z, 2: TRIVIAL}) == GradedGroup.of({1: Z})
        assert GradedGroup.of({}) == EMPTY_GRADED

    @given(st_signed_graded)
    def test_the_constructor_sorts_and_sums_degreewise(self, x):
        assert GradedGroup(tuple(reversed(x.entries))) == x == GradedGroup.of(dict(reversed(x.entries)))
        doubled = GradedGroup.of({d: g + g for d, g in x.entries})
        assert GradedGroup(x.entries + tuple(reversed(x.entries))) == doubled == GradedGroup.of(x.entries * 2)

    def test_repeated_degrees_are_summed(self):
        # GradedGroup.of read pairs through dict(), which kept the last group of a degree
        assert GradedGroup.of([(1, Z2), (2, TRIVIAL), (1, Z4), (3, Q)]) == GradedGroup.of({1: Z2 + Z4, 3: Q})
        assert GradedGroup.of(iter([(1, Z2), (1, TRIVIAL)])) == GradedGroup.of({1: Z2})

    @pytest.mark.parametrize(
        "entries, code",
        [("Z", "not_a_group"), ((1,), "not_a_group"), (((1.5, Z2),), "bad_degree"), (((True, Z2),), "bad_degree")],
    )
    def test_the_constructor_checks_its_entries(self, entries, code):
        # each was built unchecked (5 and ((1, 5),) are among the cases in test_package)
        with pytest.raises(DomainError) as exc:
            GradedGroup(entries)
        assert exc.value.code == code

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
        assert GradedGroup(k.entries + GradedGroup.of({1: Z}).entries) == GradedGroup.of({1: Z2 + Z})

    @given(st_graded, st.integers(-4, 4))
    def test_shift_and_reflect_build_what_the_constructor_builds(self, k, r):
        # both build their result trusted, keeping (or, for _reflect, reversing) the canonical order
        assert k.shift(r) == GradedGroup([(d + r, g) for d, g in k.entries])
        assert _reflect(k) == GradedGroup([(-d, g) for d, g in k.entries])
        assert _reflect(_reflect(k)) == k

    def test_entries_and_shifts_are_checked(self):
        k = GradedGroup.of({1: Z2})
        for build, code in [
            (lambda: GradedGroup.of({1: 5}), "not_a_group"),
            (lambda: moore_graded(5, 1), "not_a_group"),
            (lambda: homology_with_coefficients(k, 5), "not_a_group"),
            (lambda: cohomology_with_coefficients(k, "Z"), "not_a_group"),
            (lambda: k.shift(1.5), "bad_degree"),
        ]:
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == code


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
        right = GradedGroup(homology_with_coefficients(k, g).entries + homology_with_coefficients(k, h).entries)
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


def calculus_bank(rng, n):
    """n (k, l, g) cases drawn the way the calculus_mix benchmark draws its
    smash and pairing inputs: complexes over a pool of small groups, some of
    them finitely generated, so entries recur; a third of the k are pairing
    outputs, which reach negative degrees."""
    pool = [random_group(rng, allow_trivial=False) for _ in range(60)]
    pool += [cyclic(rng.choice((2, 6, 12, 30))) + Z for _ in range(20)]
    graded = [GradedGroup({d: rng.choice(pool) for d in rng.sample(range(1, 7), rng.randint(1, 3))}) for _ in range(80)]
    out = []
    for _ in range(n):
        k, l = rng.choice(graded), rng.choice(graded)
        if rng.random() < 1 / 3:
            k = pairing(k, rng.choice(graded))[0]
        out.append((k, l, rng.choice(pool)))
    return out


def one_pass_results(k, l, g):
    """The five results that the one pass computes, each beside its oracle."""
    with_g, (first, second) = GradedGroup({0: g}), pairing(k, l)
    return [
        (smash(k, l), smash_by_coefficients(k, l)),
        (homology_with_coefficients(k, g), smash_by_coefficients(k, with_g)),
        (cohomology_with_coefficients(k, g), _reflect(smash_by_coefficients(_reflect(k), with_g))),
        (first, smash_by_coefficients(_reflect(k), l)),
        (second, smash_by_coefficients(l, _reflect(k))),
    ]


class TestSmashInOnePass:
    """`smash` appends every entry pair's atom terms to its degrees' term
    lists and builds each degree once; the oracle sums per-entry tensors and
    Tors through the GradedGroup constructor."""

    @given(st_signed_graded, st_signed_graded, st_nontrivial_group)
    def test_five_results_match_the_oracle(self, k, l, g):
        for got, expected in one_pass_results(k, l, g):
            assert got == expected

    def test_five_results_match_the_oracle_on_a_calculus_bank(self):
        bank = calculus_bank(random.Random(24), 1500)
        for k, l, g in bank:
            for n, (got, expected) in enumerate(one_pass_results(k, l, g)):
                assert got == expected, (n, k, l, g)
        # the bank reaches what the one pass must get right
        groups = [h for k, l, g in bank for h in [g] + [h for _, h in k.entries + l.entries]]
        atoms = {type(a) for h in groups for a, _ in h.summands}
        assert atoms == {Localization, Cyclic, Prufer} and Q in groups
        localizations = [a.primes for h in groups for a, _ in h.summands if type(a) is Localization]
        assert any(primes.cofinite and primes.members for primes in localizations)
        assert any(k.entries[0][0] < 0 for k, _, _ in bank)
        products = [(g, h) for k, l, _ in bank for _, g in k.entries for _, h in l.entries]
        assert any(g.tensor(h).is_trivial and g.tor(h).is_trivial for g, h in products)  # e.g. Q (x) Z/p
        # an output degree where nonzero terms of several entry pairs meet
        fed = []
        for k, l, _ in bank:
            terms = [(i + j, g.tensor(h)) for i, g in k.entries for j, h in l.entries]
            terms += [(i + j + 1, g.tor(h)) for i, g in k.entries for j, h in l.entries]
            fed.append(Counter(d for d, t in terms if not t.is_trivial))
        assert any(n >= 3 for counts in fed for n in counts.values())

    def test_trivial_products_and_shared_degrees(self):
        k, l = GradedGroup.of({-1: Q, 1: Z2 + P2}), GradedGroup.of({1: Z4 + Q, 2: cyclic(3) + Z})
        # Q (x) Z/3 and Z/2^oo (x) Z/4 vanish; degree 3 holds Tor(Z/2 + Z/2^oo, Z/4 + Q) = Z/2 + Z/4 from the
        # pair of degrees (1, 1) and (Z/2 + Z/2^oo) (x) (Z/3 + Z) = Z/2 + Z/2^oo from the pair (1, 2)
        expected = GradedGroup.of({0: Q, 1: Q, 2: Z2, 3: Z2 + Z4 + Z2 + P2})
        assert smash(k, l) == smash_by_coefficients(k, l) == expected
        assert smash(k, EMPTY_GRADED) == smash(EMPTY_GRADED, l) == EMPTY_GRADED

    def test_calls_no_coefficient_route_and_builds_each_degree_once(self, monkeypatch, capsys):
        from extcalc import cli, graded

        k, l = GradedGroup.of({1: Z2 + Q, 2: Z}), GradedGroup.of({1: P2, 3: localized(PrimeSet.excluding(2))})
        x = GradedGroup.of({2: Z2, 3: Q})
        expected = [smash(k, l), smash(l, k), pairing(x, k), cohomology_with_coefficients(x, Z4)]
        expected.append(homology_with_coefficients(k, Z4))
        commands = [
            (["smash", "{1: Z/2 + Q, 2: Z}", "{1: Z/2^oo, 3: Z[1/2]}"], "{3: Z/2 + Z/2^oo, 4: Q, 5: Z_(~2)}"),
            (["hcoef", "{1: Z/2, 2: Z/4 + Z/3^oo}", "Z/4"], "{1: Z/2, 2: Z/2 + Z/4, 3: Z/4}"),
            (["pairing", "{2: Z/2, 3: Q}", "{1: Z/2 + Z}"], "{-2: Q, -1: Z/2^2, 0: Z/2}"),
        ]
        running, built, per_call = [], [0], []
        real_smash, real_post_init = graded.smash, AdmissibleGroup.__post_init__

        def watched_smash(a, b):
            running.append(True)
            built[0] = 0
            try:
                result = real_smash(a, b)
            finally:
                running.pop()
            candidates = {i + j + s for i, _ in a.entries for j, _ in b.entries for s in (0, 1)}
            per_call.append((built[0], len(candidates)))
            return result

        def counting_post_init(self):
            built[0] += 1
            real_post_init(self)

        def refused_in_smash(name, real):
            def call(*args):
                if running:
                    raise AssertionError(f"smash called {name}")
                return real(*args)

            return call

        for module in (graded, cli):  # the CLI binds the name at import
            monkeypatch.setattr(module, "smash", watched_smash)
        monkeypatch.setattr(AdmissibleGroup, "__post_init__", counting_post_init)
        for name in ("tensor", "tor"):
            monkeypatch.setattr(AdmissibleGroup, name, refused_in_smash(name, getattr(AdmissibleGroup, name)))
        monkeypatch.setattr(graded, "homology_with_coefficients", refused_in_smash("hcoef", homology_with_coefficients))
        got = [graded.smash(k, l), graded.smash(l, k), graded.pairing(x, k), graded.cohomology_with_coefficients(x, Z4)]
        got.append(graded.homology_with_coefficients(k, Z4))
        assert got == expected
        for argv, out in commands:
            assert cli.run_command(argv) == 0
            assert capsys.readouterr().out == out + "\n"
        assert len(per_call) == 10 and all(made <= candidates for made, candidates in per_call), per_call


    def test_the_soak_reports_a_planted_fault(self, monkeypatch, capsys):
        # scripts/oracle_soak.py checks the smash of two presentation-built groups against the SNF oracle
        spec = importlib.util.spec_from_file_location("oracle_soak", ROOT / "scripts" / "oracle_soak.py")
        soak = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(soak)
        argv = ["--pairs", "30", "--report-every", "0"]
        assert soak.main(argv) == 0 and "MISMATCH" not in capsys.readouterr().out

        def tor_at_the_tensor_degree(k, l):
            return GradedGroup((i + j, t) for i, g in k.entries for j, h in l.entries for t in (g.tensor(h), g.tor(h)))

        monkeypatch.setattr(soak, "smash", tor_at_the_tensor_degree)
        assert soak.main(argv) == 1
        assert "smash({1: A, 2: B}, {1: B, 3: A})" in capsys.readouterr().out


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

    @given(st_signed_graded, st_nontrivial_group)
    def test_matches_the_formula(self, x, g):
        assert cohomology_with_coefficients(x, g) == cohomology_by_formula(x, g)


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

    @given(st_signed_graded, st_signed_graded)
    def test_both_routes_match_the_cohomology_expansion(self, x, k):
        expected = paired_by_cohomology(x, k)
        assert pairing(x, k) == (expected, expected)

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

    def test_builds_no_group(self, monkeypatch, capsys):
        from extcalc.cli import run_command

        cases = [
            (GradedGroup.of({2: Z2, 3: Q}), GradedGroup.of({1: Z2}), 2),
            (GradedGroup.of({2: P2}), GradedGroup.of({1: P2 + localized(PrimeSet.excluding(3))}), 1),
            (pairing(GradedGroup.of({3: Z}), GradedGroup.of({1: Z2}))[0], GradedGroup.of({4: Q}), -3),
        ]
        dims = [(GradedGroup.of({2: Z4 + Q}), Z2), (GradedGroup.of({1: P2}), Q), (EMPTY_GRADED, P2)]
        expected = [vanishing_check(*case) for case in cases], [homological_dimension(k, g) for k, g in dims]

        def refuse(*args):
            raise AssertionError("a zero-ness reader built a group")

        for name in ("tensor", "tor"):
            monkeypatch.setattr(AdmissibleGroup, name, refuse)
        for name in ("homology_with_coefficients", "smash"):
            monkeypatch.setattr(f"extcalc.graded.{name}", refuse)
        assert ([vanishing_check(*case) for case in cases], [homological_dimension(k, g) for k, g in dims]) == expected
        for argv, out in [
            (["vanish", "{2: Z/2, 3: Q}", "{1: Z/2}", "2"], "yes [conditions: True, True, True]"),
            (["vanish", "{2: Z/2, 3: Q}", "{1: Z/2}", "1"], "no [conditions: False, False, False]"),
            (["dim", "{2: Z/6}", "Z/3"], "2"),
            (["dim", "{2: Q}", "Z/3"], "oo"),
        ]:
            assert run_command(argv) == 0
            assert capsys.readouterr().out == out + "\n"

    @given(st_signed_graded, st_graded, st.integers(min_value=-3, max_value=5))
    def test_statements_match_the_expansions(self, x, k, m):
        statements = (
            all(n > -m for n in paired_by_cohomology(x, k).degrees),
            all(i > d - m for d, g in x.entries for i in homology_with_coefficients(k, g).degrees),
            all(i < j + m for j, g in k.entries for i in cohomology_by_formula(x, g).degrees),
        )
        assert vanishing_check(x, k, m) == statements

    @given(st_graded, st_graded, st.integers(min_value=0, max_value=5))
    def test_conditions_agree(self, x, k, m):
        a, b, c = vanishing_check(x, k, m)
        assert a == b == c


def smash_bottom_by_tables(g, h):
    """Oracle for the pair rule: 0 when g (x) h is nonzero, 1 when only
    Tor(g, h) is, None when both vanish, by the atom tables."""
    return 0 if not g.tensor(h).is_trivial else 1 if not g.tor(h).is_trivial else None


def seeded_bank(rng, n):
    """n (x, k, m, g) cases: x with negative degrees a third of the time,
    groups with cofinite localizations and Prufer atoms among their atoms."""
    out = []
    for _ in range(n):
        x, k = random_graded(rng, max_entries=4), random_graded(rng, max_entries=4)
        if rng.random() < 1 / 3:
            x = pairing(x, random_graded(rng, max_entries=2))[0]
        out.append((x, k, rng.randint(-6, 8), random_group(rng, allow_trivial=False)))
    return out


class TestZeroFromSigma:
    """`vanishing_check`, `homological_dimension` and `dimension_profile` read
    zero-ness from sigma; the oracles build the groups."""

    @given(st_nontrivial_group, st_nontrivial_group, st.integers(min_value=-3, max_value=3))
    def test_the_pair_rule_matches_the_atom_tables(self, g, h, i):
        expected = smash_bottom_by_tables(g, h)
        assert _lowest(GradedGroup({i: g}), GradedGroup({0: h})) == (None if expected is None else i + expected)

    def test_the_pair_rule_matches_the_atom_tables_on_a_seeded_bank(self):
        rng = random.Random(21)
        pairs = [(random_group(rng, allow_trivial=False), random_group(rng, allow_trivial=False)) for _ in range(5000)]
        found = [_lowest(GradedGroup({0: g}), GradedGroup({0: h})) for g, h in pairs]
        assert found == [smash_bottom_by_tables(g, h) for g, h in pairs]
        assert set(found) == {0, 1, None}

    @given(st_signed_graded, st_signed_graded, st.integers(min_value=-6, max_value=8))
    def test_vanishing_matches_the_smash_orders(self, x, k, m):
        assert vanishing_check(x, k, m) == vanishing_by_smash(x, k, m)

    @given(st_graded, st_nontrivial_group)
    def test_dimension_matches_the_homology(self, k, g):
        assert homological_dimension(k, g) == homological_dimension_by_homology(k, g)

    def test_all_three_match_the_oracles_on_a_seeded_bank(self):
        bank = seeded_bank(random.Random(2021), 3000)
        vanishing = [vanishing_check(x, k, m) for x, k, m, _ in bank]
        assert vanishing == [vanishing_by_smash(x, k, m) for x, k, m, _ in bank]
        dims = [homological_dimension(k, g) for _, k, _, g in bank]
        assert dims == [homological_dimension_by_homology(k, g) for _, k, _, g in bank]
        rng = random.Random(21)
        for _, k, _, g in bank:  # Q and the test groups at one support prime of k or g, or a fresh prime
            primes = set(k.support_primes()).union(g.support_primes())
            p = rng.choice(sorted(primes) + [fresh_prime(primes)])
            profile, tests = dimension_profile(k), (cyclic(p), prufer(p), localized(PrimeSet.of(p)))
            assert [profile.rational, *profile.at(p)] == [homological_dimension_by_homology(k, h) for h in (Q, *tests)]
        # both verdicts, negative degrees, and empty smashes of nonempty inputs
        assert {v[0] for v in vanishing} == {True, False} and INFINITY in dims
        assert any(x.entries and x.entries[0][0] < 0 for x, _, _, _ in bank)
        assert any(x.entries and k.entries and _lowest(_reflect(x), k) is None for x, k, _, _ in bank)

    def test_empty_smashes(self):
        torsion, rational = GradedGroup.of({1: Z2 + P2}), GradedGroup.of({2: Q + localized(PrimeSet.excluding(2))})
        assert _lowest(torsion, GradedGroup.of({1: cyclic(3) + prufer(5)})) is None
        assert _lowest(_reflect(rational), torsion) is None and _lowest(EMPTY_GRADED, rational) is None
        assert vanishing_check(rational, torsion, -100) == (True, True, True)
        assert homological_dimension(torsion, Q) == homological_dimension(EMPTY_GRADED, Z) == INFINITY


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
        dk, dl = homological_dimension_by_homology(k, g), homological_dimension_by_homology(l, g)
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
                assert value == homological_dimension_by_homology(side, g) == homological_dimension(side, g)

    @given(st_graded, st_nontrivial_group)
    def test_dimension_is_the_least_value_over_sigma(self, k, g):
        # dual to coef_dimension, which takes the maximum over sigma(G)
        profile, s = dimension_profile(k), sigma(g)
        values = [profile.rational] if s.rational else []
        for _, (pattern, triple) in PrimeIndexed.pointwise(s, profile):
            values += triple.select(pattern)
        assert homological_dimension(k, g) == min(values, default=INFINITY)

    @given(st_graded, st_graded)
    def test_order_matches_the_homology_route(self, k, l):
        assert graded_order_leq(k, l) == graded_order_leq_by_homology(k, l)

    def test_order_matches_the_homology_route_on_a_seeded_bank(self):
        rng = random.Random(20)
        pairs = [(random_graded(rng, max_entries=4), random_graded(rng, max_entries=4)) for _ in range(300)]
        for _ in range(3):
            k, l = wide_graded(rng), wide_graded(rng)
            both = GradedGroup(k.entries + l.entries)
            pairs += [(k, l), (l, k), (k, both), (both, k.shift(1))]
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
