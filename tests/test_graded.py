"""Graded groups and the coefficient calculus: Kunneth-style homology,
cohomology with the reversed grading, the pairing, and the dimension order."""

import importlib.util

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ROOT, calculus, on_hypothesis, on_the_bank, st_graded, st_nonempty_graded, st_nontrivial_group, st_signed_graded,
)
from extcalc import (
    AdmissibleGroup,
    DomainError,
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
import oracles
from oracles import family_readings, homological_dimension_by_homology, smash_by_coefficients

Z2, Z4 = cyclic(2), cyclic(4)
P2 = prufer(2)
EMPTY = GradedGroup(())


class TestGradedGroup:
    def test_construction_drops_trivial_entries(self):
        assert GradedGroup.of({1: Z, 2: TRIVIAL}) == GradedGroup.of({1: Z})
        assert GradedGroup.of({}) == EMPTY

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
        assert [d for d, _ in GradedGroup.of({-2: Z}).entries] == [-2]

    def test_accessors(self):
        k = GradedGroup.of({1: Z2, 3: Q + Q})
        assert k.at(1) == Z2 and k.at(2) == TRIVIAL
        assert [d for d, _ in k.entries] == [1, 3]
        assert k.min_degree() == 1
        assert EMPTY.min_degree() == INFINITY
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
        assert k.entries[0][0] < 0
        computations = (
            k.min_degree,
            lambda: homological_dimension(k, Z),
            lambda: homological_dimension(k, Q),  # zero homology, still no dimension
            lambda: dimension_profile(k),
            lambda: graded_order_leq(k, EMPTY),
            lambda: graded_order_leq(EMPTY, k),
        )
        for compute in computations:
            with pytest.raises(DomainError) as info:
                compute()
            assert info.value.code == "bad_degree"
        assert k.shift(-k.entries[0][0]).min_degree() == 0


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
        for k, expected in ((GradedGroup.of({3: Q}), 3), (GradedGroup.of({2: Z4, 5: Z}), 2), (EMPTY, INFINITY)):
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


class TestSmashInOnePass:
    """`smash` appends every entry pair's atom terms to its degrees' term
    lists and builds each degree once; the oracle sums per-entry tensors and
    Tors through the GradedGroup constructor."""

    test_five_results_match_the_oracle = on_hypothesis("one pass")
    test_five_results_match_the_oracle_on_a_calculus_bank = on_the_bank("one pass")
    test_smash_of_presented_groups_matches_the_snf_oracle = on_hypothesis("smash by presentations")
    test_smash_of_presented_groups_matches_the_snf_oracle_on_the_bank = on_the_bank("smash by presentations")

    def test_trivial_products_and_shared_degrees(self):
        k, l = GradedGroup.of({-1: Q, 1: Z2 + P2}), GradedGroup.of({1: Z4 + Q, 2: cyclic(3) + Z})
        # Q (x) Z/3 and Z/2^oo (x) Z/4 vanish; degree 3 holds Tor(Z/2 + Z/2^oo, Z/4 + Q) = Z/2 + Z/4 from the
        # pair of degrees (1, 1) and (Z/2 + Z/2^oo) (x) (Z/3 + Z) = Z/2 + Z/2^oo from the pair (1, 2)
        expected = GradedGroup.of({0: Q, 1: Q, 2: Z2, 3: Z2 + Z4 + Z2 + P2})
        assert smash(k, l) == smash_by_coefficients(k, l) == expected
        assert smash(k, EMPTY) == smash(EMPTY, l) == EMPTY

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
        # one smash each, a pairing included: five in process and three from the commands
        assert len(per_call) == 8 and all(made <= candidates for made, candidates in per_call), per_call


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
        # and the homology with coefficients against Kunneth by chains
        wrong_coefficients = lambda k, g: tor_at_the_tensor_degree(k, GradedGroup({0: g}))  # noqa: E731
        monkeypatch.setattr(soak, "homology_with_coefficients", wrong_coefficients)
        assert soak.main(argv) == 1
        assert "hcoef({1: A, 2: B}, B)" in capsys.readouterr().out
        monkeypatch.undo()

        def swapped_witness(k, l):  # a failing verdict with the two dimensions the other way round
            v = graded_order_leq(k, l)
            if v.holds:
                return v
            g, dk, dl = v.witness
            return GradedOrderVerdict(False, v.checked, (g, dl, dk))

        monkeypatch.setattr(soak, "graded_order_leq", swapped_witness)
        assert soak.main(argv) == 1
        out = capsys.readouterr().out
        assert "leqgr(K, L)" in out and "vanish(X, K, m)" not in out
        monkeypatch.setattr(soak, "vanishing_check", lambda x, k, m: (True,) * 3)
        assert soak.main(argv) == 1 and "vanish(X, K, m)" in capsys.readouterr().out


class TestKunnethByChains:
    """`oracles.kunneth_by_chains` computes the smash of finitely generated
    graded groups as the homology, by SNF, of a tensor product of free
    complexes; smash, homology and cohomology with coefficients, the pairing
    and single tensor and Tor products are each one such product."""

    test_the_calculus_matches_the_chains = on_hypothesis("Kunneth by chains")
    test_the_calculus_matches_the_chains_on_the_bank = on_the_bank("Kunneth by chains")

    def test_the_chains_answer_with_the_atom_tables_gone(self, monkeypatch):
        import extcalc
        from extcalc import abelian, graded

        k, l = GradedGroup.of({-1: Z2 + Z, 2: Z4}), GradedGroup.of({1: Z + cyclic(6), 3: Z2 + Z2})
        expected = calculus(k, l, Z4, cyclic(6))

        def refused(*args):
            raise AssertionError("the chains reached the atom tables")

        for name in ("_atom_pairs", "_tensor_atoms", "_tor_atoms", "sigma", "smash", "homology_with_coefficients"):
            for module in (extcalc, abelian, graded, oracles):  # every binding of the name
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        with pytest.raises(AssertionError):
            Z2.tensor(Z4)
        assert oracles.calculus_by_chains(k, l, Z4, cyclic(6)) == expected


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

    test_matches_the_formula = on_hypothesis("cohomology")
    test_matches_the_formula_on_the_bank = on_the_bank("cohomology")


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

    test_routes_agree = on_the_bank("pairing")  # both components equal the cohomology expansion
    test_both_routes_match_the_cohomology_expansion = on_hypothesis("pairing")

    def test_runs_one_smash(self, monkeypatch):
        from extcalc import graded

        calls, real_smash = [], graded.smash
        monkeypatch.setattr(graded, "smash", lambda a, b: calls.append((a, b)) or real_smash(a, b))
        first, second = graded.pairing(GradedGroup.of({2: Z2, 3: Q}), GradedGroup.of({1: Z4, 3: Z}))
        assert len(calls) == 1
        assert first is second and first == real_smash(*calls[0])

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
        dims = [(GradedGroup.of({2: Z4 + Q}), Z2), (GradedGroup.of({1: P2}), Q), (EMPTY, P2)]
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

    test_statements_match_the_expansions = on_hypothesis("vanishing statements")
    # each statement by its own expansion equals the one answer, so the three agree
    test_conditions_agree = on_the_bank("vanishing statements")


class TestZeroFromSigma:
    """`vanishing_check`, `homological_dimension` and `dimension_profile` read
    zero-ness from sigma; the oracles build the groups."""

    test_the_pair_rule_matches_the_atom_tables = on_hypothesis("pair rule")
    test_the_pair_rule_matches_the_atom_tables_on_a_seeded_bank = on_the_bank("pair rule")
    test_vanishing_matches_the_smash_orders = on_hypothesis("vanishing")
    test_dimension_matches_the_homology = on_hypothesis("dimension")
    test_the_profile_at_a_prime_matches_the_homology = on_hypothesis("profile at a prime")
    test_all_three_match_the_oracles_on_a_seeded_bank = on_the_bank("vanishing", "dimension", "profile at a prime")

    def test_empty_smashes(self):
        torsion, rational = GradedGroup.of({1: Z2 + P2}), GradedGroup.of({2: Q + localized(PrimeSet.excluding(2))})
        assert _lowest(torsion, GradedGroup.of({1: cyclic(3) + prufer(5)})) is None
        assert _lowest(_reflect(rational), torsion) is None and _lowest(EMPTY, rational) is None
        assert vanishing_check(rational, torsion, -100) == (True, True, True)
        assert homological_dimension(torsion, Q) == homological_dimension(EMPTY, Z) == INFINITY


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
        family = graded_order_leq(GradedGroup.of({1: Z2}), EMPTY).checked
        assert Q in family
        assert cyclic(2) in family and prufer(2) in family and localized(PrimeSet.of(2)) in family
        # one representative beyond the support
        assert cyclic(3) in family

    def test_family_lists_each_prime_in_field_order(self):
        checked = graded_order_leq(GradedGroup.of({1: Z2 + prufer(5)}), EMPTY).checked
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


class TestDimensionProfile:
    def test_examples(self):
        oo = INFINITY
        profile = dimension_profile(GradedGroup.of({1: P2}))
        assert profile.rational == oo and profile.at(2) == (2, 2, 1) and profile.at(3) == (oo, oo, oo)
        profile = dimension_profile(GradedGroup.of({1: Z4, 3: Q}))
        assert profile.rational == 3 and profile.at(2) == (1, 2, 1) and profile.at(5) == (oo, oo, 3)
        assert dimension_profile(GradedGroup.of({2: Z})).at(7) == (2, 2, 2)
        assert dimension_profile(EMPTY).at(2) == (oo, oo, oo)

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

    test_order_matches_the_homology_route = on_hypothesis("leqgr")
    test_order_matches_the_homology_route_on_a_seeded_bank = on_the_bank("leqgr")

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
