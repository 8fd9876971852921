"""Core algebra: extended naturals, prime sets, canonical groups, the
tensor/Tor tables, and Bockstein bases."""

import itertools
import random
import time

import pytest
from hypothesis import given
from sympy import primerange

import extcalc
from conftest import check, on_hypothesis, on_the_bank, st_group, st_nontrivial_group
from extcalc import (
    ALL_PRIMES,
    AdmissibleGroup,
    Cyclic,
    DomainError,
    ExtNat,
    INFINITY,
    Localization,
    NO_PRIMES,
    PrimePattern,
    PrimeSet,
    PrimeTriple,
    Prufer,
    Q,
    SigmaSet,
    TRIVIAL,
    Z,
    cyclic,
    fresh_prime,
    localized,
    parse_group,
    prufer,
    sigma,
    sigma_matches_localization,
    tau,
    tau_closure,
    unit_gap_witness,
)
from extcalc import abelian
from extcalc.abelian import FULL_PATTERN, PrimeIndexed, pattern_flags
from extcalc.dsl import format_sigma
from oracles import built_tensor, sigma_by_atom_union

CYC = PrimePattern.CYCLIC
PRU = PrimePattern.PRUFER
LOC = PrimePattern.LOCAL


# ---------------------------------------------------------------------------
# ExtNat.


class TestExtNat:
    def test_ordering_mixes_with_ints(self):
        assert ExtNat(2) < 3 < ExtNat(4) < INFINITY
        assert not INFINITY < INFINITY
        assert max(ExtNat(2), INFINITY) == INFINITY
        assert ExtNat(5) == 5 and ExtNat(5) != 6

    def test_addition_absorbs_infinity(self):
        assert ExtNat(3) + 1 == 4
        assert INFINITY + 5 == INFINITY
        assert 2 + ExtNat(2) == 4

    def test_construction_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExtNat(-1)
        with pytest.raises(ValueError):
            ExtNat(True)
        with pytest.raises(ValueError):
            ExtNat.of("huge")

    def test_json_round_trip(self):
        for v in (ExtNat(0), ExtNat(7), INFINITY):
            assert ExtNat.of(v.to_json()) == v
        assert INFINITY.to_json() == "inf"
        assert str(INFINITY) == "oo"

    def test_hashable(self):
        assert len({ExtNat(1), ExtNat(1), INFINITY}) == 2
        # ExtNat(3) == 3, so the two must hash alike
        assert len({ExtNat(3), 3}) == 1
        assert {ExtNat(3): "a"}.get(3) == "a"


# ---------------------------------------------------------------------------
# Records.


def _checked_records():
    """A checked instance of every record class, by name: each built through its public constructor or a
    function that returns one."""
    graded, group = extcalc.parse_graded, parse_group
    alpha, _ = unit_gap_witness(Q, Z, 2)
    report = extcalc.sp_factors_as_em(graded("{1: Z/2, 2: Q}"), group("Z/2"), 1)
    assert report.failures
    matrix = extcalc.IntMatrix.from_rows([[2, 4], [6, 9]])
    return {
        "PrimeSet": PrimeSet.of(5, 2),
        "Localization": Localization(PrimeSet.excluding(3)),
        "Cyclic": Cyclic(2, 3),
        "Prufer": Prufer(7),
        "AdmissibleGroup": group("Z + Z_(2,5) + Z/12^2 + Z/3^oo"),
        "PrimeIndexed": PrimeIndexed(0, 1, {3: 2, 2: 1}),
        "SigmaSet": sigma(group("Z_(~5) + Z/4")),
        "BocksteinFunction": alpha,
        "MinimalWedge": extcalc.minimal_wedge(alpha),
        "Violation": extcalc.Violation(2, 1, "a note"),
        "GradedGroup": graded("{1: Z/2 + Q, 3: Z}"),
        "GradedOrderVerdict": extcalc.graded_order_leq(graded("{1: Z}"), graded("{2: Z/3}")),
        "ClauseFailure": report.failures[0],
        "ClauseReport": report,
        "FiniteType": extcalc.classify_finite_type(graded("{1: Z_(2)}")),
        "MooreEmVerdict": extcalc.moore_matches_em(group("Z_(3)"), 1),
        "IntMatrix": matrix,
        "SNFResult": extcalc.snf(matrix),
        "ChainComplex": extcalc.ChainComplex([1, 1], [extcalc.IntMatrix.from_rows([[2]])]),
    }


def test_new_rebuilds_every_record_from_its_fields():
    # `_new` is generated for each record: given a checked instance's fields in order, it must give back an equal
    # record, with the same hash and repr and exactly the fields in its __dict__, whatever the fields are named
    modules = [getattr(extcalc, name) for name in sorted(extcalc._SUBMODULES)]
    found = {v for m in modules for v in vars(m).values() if isinstance(v, type) and hasattr(v, "_new")}
    examples = _checked_records()
    assert {cls.__name__ for cls in found} == set(examples)
    for cls in found:
        x = examples[cls.__name__]
        assert type(x) is cls
        y = cls._new(*(getattr(x, f) for f in cls.__match_args__))
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x), cls
        assert list(y.__dict__) == list(cls.__match_args__), cls


# ---------------------------------------------------------------------------
# PrimeSet.


class TestPrimeSet:
    def test_normalization(self):
        assert PrimeSet(False, [5, 2, 5]).members == (2, 5)
        with pytest.raises(DomainError):
            PrimeSet.of(4)

    def test_membership(self):
        assert 2 in PrimeSet.of(2, 5) and 3 not in PrimeSet.of(2, 5)
        assert 3 in PrimeSet.excluding(2) and 2 not in PrimeSet.excluding(2)
        assert ALL_PRIMES.is_all and NO_PRIMES == PrimeSet.of() and 2 not in NO_PRIMES

    def test_intersect_all_shapes(self):
        # the tensor of two localizations is the localization at the intersection of their prime sets
        fin, cof = PrimeSet.of(2, 3, 5), PrimeSet.excluding(3)
        for l1, l2, both in [
            (PrimeSet.of(2, 3), PrimeSet.of(3, 5), PrimeSet.of(3)),
            (PrimeSet.excluding(2), PrimeSet.excluding(3), PrimeSet.excluding(2, 3)),
            (fin, cof, PrimeSet.of(2, 5)),
            (cof, fin, PrimeSet.of(2, 5)),
            (ALL_PRIMES, fin, fin),
            (NO_PRIMES, cof, NO_PRIMES),
        ]:
            assert localized(l1).tensor(localized(l2)) == localized(both)

    def test_fresh_prime(self):
        assert fresh_prime([]) == 2
        assert fresh_prime([2, 3, 7]) == 5
        assert fresh_prime([4, 6, 2, 3]) == 5
        assert fresh_prime(primerange(2, 65538)) == 65539  # past the sieve, on the isprime steps

    @pytest.mark.parametrize("used", [5, None, [[2]]])
    def test_fresh_prime_needs_a_collection_of_primes(self, used):
        with pytest.raises(DomainError) as exc:
            fresh_prime(used)
        assert exc.value.code == "not_a_group"


# ---------------------------------------------------------------------------
# Atoms and canonical form.


class TestCanonicalForm:
    def test_atom_validation(self):
        with pytest.raises(DomainError):
            Cyclic(6, 1)
        with pytest.raises(DomainError):
            Cyclic(2, 0)
        with pytest.raises(DomainError):
            Prufer(9)

    def test_equality_ignores_construction_order(self):
        a = cyclic(4) + cyclic(2) + cyclic(4)
        b = cyclic(2) + cyclic(4) + cyclic(4)
        assert a == b and hash(a) == hash(b)

    def test_crt_split(self):
        assert cyclic(12) == AdmissibleGroup.of(Cyclic(2, 2), Cyclic(3, 1))
        assert cyclic(360) == AdmissibleGroup.of(Cyclic(2, 3), Cyclic(3, 2), Cyclic(5, 1))
        with pytest.raises(DomainError):
            cyclic(1)

    def test_multiplicity_bookkeeping(self):
        g = Z + Z
        assert g.summands == ((Localization(ALL_PRIMES), 2),)
        with pytest.raises(DomainError):
            AdmissibleGroup.from_counts({Cyclic(2, 1): -1})

    @given(st_group)
    def test_the_constructor_sorts_and_sums_summands(self, g):
        assert AdmissibleGroup(tuple(reversed(g.summands))) == g
        assert AdmissibleGroup(dict(reversed(g.summands))) == g == AdmissibleGroup.from_counts(g.summands)
        # pairs may repeat an atom, as a mapping cannot: its multiplicities add
        assert AdmissibleGroup(g.summands + tuple(reversed(g.summands))) == g + g
        assert AdmissibleGroup(((a, 0) for a, _ in g.summands)) == TRIVIAL
        z, z2 = Localization(ALL_PRIMES), Cyclic(2, 1)
        assert AdmissibleGroup([(z2, 1), (z, 2), (z2, 3)]) == AdmissibleGroup.from_counts({z: 2, z2: 4})

    @pytest.mark.parametrize("summands", ["Z", ((5, 1),), ((Z, 1),), (([2], 1),), (Cyclic(2, 1),)])
    def test_the_constructor_takes_atoms_only(self, summands):
        # each was built, and its repr raised a raw TypeError (5 is among the cases in test_package)
        with pytest.raises(DomainError) as exc:
            AdmissibleGroup(summands)
        assert exc.value.code == "not_a_group"

    def test_support_primes(self):
        g = localized(PrimeSet.of(5)) + cyclic(12) + prufer(7)
        assert g.support_primes() == (2, 3, 5, 7)
        assert Z.support_primes() == ()


# ---------------------------------------------------------------------------
# The tensor and Tor tables, atom by atom.


Z2, Z4, Z8, Z3 = cyclic(2), cyclic(4), cyclic(8), cyclic(3)
P2, P3, P5 = prufer(2), prufer(3), prufer(5)
L2 = localized(PrimeSet.of(2))
L3 = localized(PrimeSet.of(3))
L23 = localized(PrimeSet.of(2, 3))
L35 = localized(PrimeSet.of(3, 5))
NO2 = localized(PrimeSet.excluding(2))  # Z[1/2]


class TestTensorTable:
    def test_localization_pairs_intersect(self):
        assert Z.tensor(Z) == Z
        assert L23.tensor(L35) == L3
        assert Q.tensor(Z) == Q
        assert NO2.tensor(L2) == Q  # disjoint up to units
        assert NO2.tensor(NO2) == NO2

    def test_localization_against_torsion(self):
        assert Z.tensor(Z8) == Z8
        assert L2.tensor(Z8) == Z8
        assert L3.tensor(Z8) == TRIVIAL
        assert Q.tensor(Z8) == TRIVIAL
        assert L2.tensor(P2) == P2
        assert Q.tensor(P2) == TRIVIAL
        assert NO2.tensor(P2) == TRIVIAL

    def test_cyclic_pairs(self):
        assert Z4.tensor(Z8) == Z4
        assert Z8.tensor(Z8) == Z8
        assert Z4.tensor(Z3) == TRIVIAL

    def test_divisible_times_torsion_dies(self):
        assert P2.tensor(Z8) == TRIVIAL
        assert P2.tensor(P2) == TRIVIAL
        assert P2.tensor(P3) == TRIVIAL

    def test_trivial_absorbs(self):
        assert TRIVIAL.tensor(Z) == TRIVIAL
        assert Z8.tensor(TRIVIAL) == TRIVIAL


class TestTorTable:
    def test_flat_sides_vanish(self):
        for flat in (Z, Q, L2, NO2):
            assert flat.tor(Z8) == TRIVIAL
            assert P2.tor(flat) == TRIVIAL

    def test_cyclic_pairs(self):
        assert Z4.tor(Z8) == Z4
        assert Z4.tor(Z3) == TRIVIAL

    def test_prufer_pairs(self):
        assert P2.tor(Z8) == Z8
        assert Z8.tor(P2) == Z8
        assert P3.tor(Z8) == TRIVIAL
        assert P2.tor(P2) == P2
        assert P2.tor(P3) == TRIVIAL


SMALL_POOL = (2, 3, 5, 7)
ATOM_POOL = (
    [Cyclic(p, k) for p in (2, 3) for k in (1, 2, 3)]
    + [Prufer(p) for p in (2, 3)]
    + [Localization(PrimeSet(c, s)) for c in (False, True) for s in ((), (2,), (3,), (2, 3), (2, 5, 7))]
)


class TestChecksAtTheBoundary:
    """Primality is checked where values enter: the public constructors, the
    DSL and the JSON readers.  Inside the package atoms are built unchecked
    from primes that are already known, and the tables return operands."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Cyclic(4, 1),
            lambda: Prufer(1),
            lambda: PrimeSet.of(9),
            lambda: PrimeSet.excluding(True),
            # a strong pseudoprime to bases 2, 3, 5 and 7
            lambda: localized(PrimeSet.of(3215031751)),
            lambda: prufer(561),
        ],
    )
    def test_public_constructors_reject_non_primes(self, build):
        with pytest.raises(DomainError) as exc:
            build()
        assert exc.value.code == "not_prime"

    @pytest.mark.parametrize("value", [1.5, True, "3", 4.0])
    def test_cyclic_rejects_a_non_integer_power(self, value):
        for build, code in ((lambda: Cyclic(2, value), "bad_power"), (lambda: cyclic(value), "bad_modulus")):
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == code

    def test_localization_needs_a_prime_set(self):
        # the atom was built, broken, and failed only when a table or sigma read it
        for build in (lambda: Localization(5), lambda: localized(sigma(Z))):
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == "not_a_group"

    def test_tau_closure_rejects_a_bockstein_function(self):
        # both are PrimeIndexed, and tau_closure answered with a SigmaSet built from the function's values
        from extcalc import BocksteinFunction

        with pytest.raises(DomainError) as exc:
            tau_closure(BocksteinFunction.constant(1))
        assert exc.value.code == "not_a_group"

    @pytest.mark.parametrize("count", [1.5, 0.5, True])
    def test_from_counts_rejects_a_non_integer_multiplicity(self, count):
        with pytest.raises(DomainError) as exc:
            AdmissibleGroup.from_counts({Cyclic(2, 1): count})
        assert exc.value.code == "bad_multiplicity"

    def test_the_dsl_rejects_a_non_prime_at_its_position(self):
        from extcalc import ParseError, parse_group

        with pytest.raises(ParseError) as exc:
            parse_group("Z_(2,4)")
        assert (exc.value.code, exc.value.position) == ("not_prime", 5)

    def test_the_bockstein_reader_rejects_a_non_prime_key(self):
        # this reader reports a bad key as a document error, as it always has
        from extcalc import BocksteinFunction, ParseError

        triple = {"Zp": 1, "ZpInf": 1, "Zploc": 1}
        for key in ("9", "1", "3215031751"):
            with pytest.raises(ParseError) as exc:
                BocksteinFunction.from_json({"Q": 1, "default": triple, "exceptions": {key: triple}})
            assert exc.value.code == "bad_document"
            assert "is not a prime" in exc.value.message

    def test_tables_match_the_checked_constructions_on_every_pair(self):
        for a, b in itertools.product(ATOM_POOL, repeat=2):
            for got in check("atom tables", a, b):  # the tensor and the Tor atom
                assert got is None or isinstance(got, Localization) or got is a or got is b
            assert AdmissibleGroup.of(a).tensor(AdmissibleGroup.of(b)) == AdmissibleGroup.of(
                *filter(None, [built_tensor(a, b)])
            )

    test_tables_match_the_checked_constructions_on_hypothesis_atoms = on_hypothesis("atom tables")
    test_tables_match_the_checked_constructions_on_the_bank = on_the_bank("atom tables")

    def test_intersections_are_canonical_prime_sets(self):
        sets = [atom.primes for atom in ATOM_POOL if isinstance(atom, Localization)]
        for l1 in sets:
            for l2 in sets:
                ((atom, _),) = localized(l1).tensor(localized(l2)).summands
                got = atom.primes
                assert got == PrimeSet(got.cofinite, got.members)
                assert all((p in got) == (p in l1 and p in l2) for p in SMALL_POOL)


class TestBilinearOracle:
    def test_every_pair_of_the_atom_pool(self):
        groups = [AdmissibleGroup.of(a) for a in ATOM_POOL] + [AdmissibleGroup.of(*ATOM_POOL, *ATOM_POOL[::3])]
        for g, h in itertools.product(groups, repeat=2):
            check("tensor and Tor", g, h)

    test_seeded_wide_groups = on_the_bank("tensor and Tor")
    test_hypothesis_groups = on_hypothesis("tensor and Tor")


class TestBilinearProperties:
    @given(st_group, st_group)
    def test_tensor_commutes(self, g, h):
        assert g.tensor(h) == h.tensor(g)

    @given(st_group, st_group)
    def test_tor_commutes(self, g, h):
        assert g.tor(h) == h.tor(g)

    @given(st_group, st_group, st_group)
    def test_tensor_distributes_over_sum(self, g, h1, h2):
        assert g.tensor(h1 + h2) == g.tensor(h1) + g.tensor(h2)

    @given(st_group, st_group, st_group)
    def test_tor_distributes_over_sum(self, g, h1, h2):
        assert g.tor(h1 + h2) == g.tor(h1) + g.tor(h2)

    @given(st_group, st_group, st_group)
    def test_tensor_associates(self, g, h, k):
        assert g.tensor(h).tensor(k) == g.tensor(h.tensor(k))

    @given(st_group)
    def test_z_is_the_unit(self, g):
        assert Z.tensor(g) == g
        assert Z.tor(g) == TRIVIAL


# ---------------------------------------------------------------------------
# Bockstein bases.


def sset(rational, default, exceptions):
    return SigmaSet.build(rational, default, exceptions)


SCALING_PRIMES = tuple(primerange(2, 40000))


def scaling_group(rng, size):
    """A sum of `size` atoms over SCALING_PRIMES whose localizations list 50
    primes each; the cofinite ones share 25 excluded primes, which a tenth
    of the torsion atoms also use."""
    shared = rng.sample(SCALING_PRIMES, 25)
    atoms = []
    while len(atoms) < size:
        roll = rng.random()
        p = rng.choice(shared) if rng.random() < 0.1 else rng.choice(SCALING_PRIMES)
        if roll < 0.05:
            atoms.append(Localization(PrimeSet.excluding(*shared, *rng.sample(SCALING_PRIMES, 25))))
        elif roll < 0.1:
            atoms.append(Localization(PrimeSet.of(*rng.sample(SCALING_PRIMES, 50))))
        elif roll < 0.55:
            atoms.append(Cyclic(p, rng.randint(1, 4)))
        else:
            atoms.append(Prufer(p))
    return AdmissibleGroup.of(*atoms)


class TestSigma:
    def test_trivial_group_rejected(self):
        with pytest.raises(DomainError):
            sigma(TRIVIAL)

    def test_integers(self):
        assert sigma(Z) == sset(True, FULL_PATTERN, {})

    def test_rationals(self):
        assert sigma(Q) == sset(True, PrimePattern.EMPTY, {})

    def test_finite_cyclic(self):
        assert sigma(cyclic(12)) == sset(False, PrimePattern.EMPTY, {2: CYC | PRU, 3: CYC | PRU})

    def test_prufer(self):
        # Tor(Z/2^oo, Z/2^oo) is nonzero, but both tensor tests die.
        assert sigma(P2) == sset(False, PrimePattern.EMPTY, {2: PRU})

    def test_localization(self):
        assert sigma(L2) == sset(True, PrimePattern.EMPTY, {2: FULL_PATTERN})
        assert sigma(NO2) == sset(True, FULL_PATTERN, {2: PrimePattern.EMPTY})

    def test_mixed_sum(self):
        assert sigma(L2 + Z3) == sset(True, PrimePattern.EMPTY, {2: FULL_PATTERN, 3: CYC | PRU})
        assert sigma(Z + Z2) == sigma(Z)

    @given(st_nontrivial_group, st_nontrivial_group)
    def test_sigma_of_sum_is_union(self, g, h):
        assert sigma(g + h) == sigma(g).union(sigma(h))

    test_closed_form_matches_tensor_tests = on_hypothesis("sigma")
    test_closed_form_matches_tensor_tests_on_wide_groups = on_the_bank("sigma")

    def test_cofinite_localization_with_torsion_at_an_excluded_prime(self):
        g = localized(PrimeSet.excluding(2, 3)) + Z2 + P3
        assert check("sigma", g) == sset(True, FULL_PATTERN, {2: CYC | PRU, 3: PRU})

    def test_several_cofinite_localizations(self):
        # only the primes every cofinite localization excludes are exceptions,
        # and a finite localization or a torsion atom fills them in
        g = parse_group("Z_(~2,3,5,7) + Z_(~3,5,7,11) + Z_(~5,7,13) + Z_(5) + Z/49 + Z/3^oo")
        assert check("sigma", g) == sset(True, FULL_PATTERN, {7: CYC | PRU})
        g = localized(PrimeSet.excluding(2)) + localized(PrimeSet.excluding(3)) + Q + Z2
        assert check("sigma", g) == sigma(Z)

    def test_summand_order_does_not_matter(self):
        # a group built from its record keeps its summands in the order given
        atoms = (Prufer(2), Cyclic(2, 1), Localization(PrimeSet.of(2)), Prufer(3), Cyclic(3, 2), Localization(PrimeSet.excluding(3)))
        expected = sigma(AdmissibleGroup.of(*atoms))
        for order in itertools.permutations(atoms):
            summands = tuple((a, 1) for a in order)
            # the constructor sorts, so only an unchecked record keeps this order for sigma to read
            assert AdmissibleGroup(summands).summands == AdmissibleGroup.of(*atoms).summands
            assert sigma(AdmissibleGroup._new(summands)) == expected

    def test_scales_with_the_summands(self):
        # the union of per-atom bases took over a second on this group: it
        # read every atom at every prime any atom lists
        g = scaling_group(random.Random(1600), 1600)
        start = time.perf_counter()
        s = sigma(g)
        assert time.perf_counter() - start < 0.5
        assert s.exceptions and s == sigma_by_atom_union(g)

    @given(st_nontrivial_group)
    def test_membership_chain(self, g):
        # Z_(p) in sigma forces Z/p in sigma forces Z/p^oo in sigma.
        s = sigma(g)
        for p in set(g.support_primes()) | {fresh_prime(g.support_primes())}:
            pat = s.at(p)
            if LOC & pat:
                assert CYC & pat
            if CYC & pat:
                assert PRU & pat


class TestTau:
    def test_finite_cyclic(self):
        assert tau(cyclic(4)) == sset(False, PrimePattern.EMPTY, {2: CYC | PRU})

    def test_rational_presence_controls_local(self):
        assert tau(Z) == sigma(Z)
        assert tau(L2) == sigma(L2)
        assert tau(P2) == sset(False, PrimePattern.EMPTY, {2: CYC | PRU})

    @given(st_nontrivial_group)
    def test_sigma_inside_tau(self, g):
        assert sigma(g).issubset(tau(g))

    @given(st_nontrivial_group)
    def test_idempotent(self, g):
        t = tau(g)
        assert tau_closure(t) == t


class TestSigmaSetOps:
    @given(st_nontrivial_group, st_nontrivial_group)
    def test_union_is_upper_bound(self, g, h):
        s, t = sigma(g), sigma(h)
        u = s.union(t)
        assert s.issubset(u) and t.issubset(u)

    @given(st_nontrivial_group)
    def test_subset_reflexive(self, g):
        assert sigma(g).issubset(sigma(g))

    def test_subset_counterexample(self):
        assert not sigma(Z).issubset(sigma(Q))
        assert sigma(Q).issubset(sigma(Z))

    def test_escapes_in_inspection_order(self):
        s, t = sigma(parse_group("Z/9 + Z/5^oo + Z_(7)")), sigma(parse_group("Z/5 + Q"))
        assert [p for p, _ in PrimeIndexed.pointwise(s, t)] == [3, 5, 7, 2]
        assert s.escapes(t) == (3, 7)  # Z/5^oo is in sigma(Z/5); the fresh prime 2 holds nothing
        assert s.escapes(t, LOC) == (7,)
        assert s.escapes(t, PRU) == (3, 7)
        assert t.escapes(s) == (5,) and t.escapes(s, PRU) == ()  # Z/5 is in sigma(Z/5) alone
        assert sigma(Z).escapes(sigma(Q)) == tuple(p for p, _ in PrimeIndexed.pointwise(sigma(Z), sigma(Q)))

    def test_flag_names_round_trip(self):
        assert pattern_flags(PrimePattern.EMPTY) == ()
        assert pattern_flags(CYC) == ("cyclic",)
        assert pattern_flags(CYC | PRU) == ("cyclic", "prufer")
        assert pattern_flags(FULL_PATTERN) == ("cyclic", "prufer", "local")

    def test_json_shape(self):
        data = sigma(cyclic(4)).to_json()
        assert data == {"rational": False, "default": [], "exceptions": {"2": ["cyclic", "prufer"]}}


class TestPrimeTriple:
    def test_fields_are_the_flags_in_order(self):
        assert PrimeTriple._fields == ("cyclic", "prufer", "local")
        assert (CYC, PRU, LOC) == (1, 2, 4)  # bit i stands for field i

    @pytest.mark.parametrize("pattern", range(8))
    def test_bit_i_is_field_i(self, pattern):
        fields = [name for i, name in enumerate(PrimeTriple._fields) if pattern & 1 << i]
        assert PrimeTriple._make(PrimeTriple._fields).select(pattern) == fields
        assert pattern_flags(pattern) == tuple(fields)
        shown = {"cyclic": "Z/2", "prufer": "Z/2^oo", "local": "Z_(2)"}
        s = SigmaSet._new(False, PrimePattern.EMPTY, ((2, pattern),))  # the constructor takes chain patterns only
        assert format_sigma(s) == "{" + ", ".join(shown[name] for name in fields) + "}"

    def test_select_reads_the_pattern(self):
        t = PrimeTriple(cyclic=1, prufer=2, local=3)
        assert t.select(PrimePattern.EMPTY) == []
        assert t.select(CYC | LOC) == [1, 3]
        assert t.select(FULL_PATTERN) == [1, 2, 3]


class TestPrimeIndexed:
    def test_build_drops_exceptions_equal_to_default(self):
        x = PrimeIndexed.build(1, 0, {5: 2, 3: 0, 2: 7})
        assert x.exceptions == ((2, 7), (5, 2))
        assert x.exception_primes == (2, 5)
        assert x.at(5) == 2 and x.at(3) == 0 and x.at(101) == 0

    @given(st_nontrivial_group)
    def test_the_constructor_sorts_and_drops_default_values(self, g):
        s = sigma(g)
        fresh = fresh_prime(s.exception_primes)
        assert SigmaSet(s.rational, s.default, tuple(reversed(s.exceptions))) == s
        assert SigmaSet(s.rational, s.default, {fresh: s.default, **dict(reversed(s.exceptions))}) == s
        assert SigmaSet.build(s.rational, s.default, list(s.exceptions)) == s

    @pytest.mark.parametrize("exceptions", ["Z", ((2,),), (([2], 1),)])
    def test_the_constructor_takes_a_mapping_of_primes(self, exceptions):
        # each was built, and failed on use with a raw TypeError (5 is among the cases in test_package)
        with pytest.raises(DomainError) as exc:
            SigmaSet(True, PrimePattern.EMPTY, exceptions)
        assert exc.value.code == "not_a_group"

    @pytest.mark.parametrize("pattern", [CYC, LOC, CYC | LOC, PRU | LOC, 8, -1, True, 3.0, "3", None, [3]])
    def test_a_sigma_takes_only_the_chain_patterns(self, pattern):
        # int patterns other than 0, 2, 3 and 7 would print a basis that is no sigma's; the rest failed on use
        for default, exceptions in ((pattern, ()), (PrimePattern.EMPTY, {2: pattern})):
            with pytest.raises(DomainError) as exc:
                SigmaSet(True, default, exceptions)
            assert exc.value.code == "not_a_group"

    def test_combine_is_pointwise(self):
        x = PrimeIndexed.build(1, 0, {2: 5, 7: 1})
        y = PrimeIndexed.build(2, 1, {3: 4, 7: 0})
        both = PrimeIndexed.combine(max, max, x, y)
        assert both == PrimeIndexed.build(2, 1, {2: 5, 3: 4})
        assert PrimeIndexed.combine(lambda q: -q, lambda v: v // 2, x) == PrimeIndexed.build(-1, 0, {2: 2})

    def test_pointwise_walks_the_listed_primes_then_a_fresh_one(self):
        x = PrimeIndexed.build(0, 0, {2: 1, 5: 1})
        y = PrimeIndexed.build(0, 0, {3: 1})
        assert list(PrimeIndexed.pointwise(PrimeIndexed.build(0, 0))) == [(2, (0,))]
        # the fresh prime comes last even when it is below an exception
        assert list(PrimeIndexed.pointwise(x)) == [(2, (1,)), (5, (1,)), (3, (0,))]
        assert list(PrimeIndexed.pointwise(x, y)) == [(2, (1, 0)), (3, (0, 1)), (5, (1, 0)), (7, (0, 0))]

    test_pointwise_is_the_listed_primes_read_by_at = on_hypothesis("pointwise")
    test_pointwise_is_the_listed_primes_read_by_at_on_the_bank = on_the_bank("pointwise")

    def test_pointwise_is_lazy(self, monkeypatch):
        # a search that stops at a listed prime never seeks the fresh one
        monkeypatch.setattr(abelian, "fresh_prime", None)  # any call fails
        walk = PrimeIndexed.pointwise(PrimeIndexed.build(0, 0, {2: 1}), PrimeIndexed.build(0, 1))
        assert next(walk) == (2, (1, 1))
        with pytest.raises(TypeError):
            next(walk)

    def test_least_gap_may_be_the_fresh_prime(self):
        # Z/p separates Z from Q + Z/2 + Z/5^oo at 5 and at every prime
        # outside {2, 5}; the least such prime is the fresh prime 3.
        alpha, case = unit_gap_witness(Q + Z2 + P5, Z, 1)
        assert case == "I"
        assert alpha.exception_primes == (3,)


class TestLocalizationRecognition:
    def test_recognized(self):
        assert sigma_matches_localization(sigma(Z)) == ALL_PRIMES
        assert sigma_matches_localization(sigma(Q)) == NO_PRIMES
        assert sigma_matches_localization(sigma(L23)) == PrimeSet.of(2, 3)
        assert sigma_matches_localization(sigma(NO2)) == PrimeSet.excluding(2)
        assert sigma_matches_localization(sigma(Z + Z2)) == ALL_PRIMES

    def test_rejected(self):
        assert sigma_matches_localization(sigma(Z2)) is None
        assert sigma_matches_localization(sigma(L2 + Z3)) is None
        assert sigma_matches_localization(sigma(P2)) is None

    def test_round_trip_on_localizations(self):
        for ps in (ALL_PRIMES, NO_PRIMES, PrimeSet.of(2), PrimeSet.of(3, 5), PrimeSet.excluding(2, 7)):
            assert sigma_matches_localization(sigma(localized(ps))) == ps
