"""Shared value generators.

Two flavors: plain seeded-``random.Random`` generators, used by the
acceptance battery where explicit counts and runtimes matter, and hypothesis
strategies for the property tests.  Both stick to a small prime pool so that
collisions (same prime on both sides of a product) happen often.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from extcalc import (
    AdmissibleGroup,
    BocksteinFunction,
    Cyclic,
    ExtNat,
    GradedGroup,
    INFINITY,
    IntMatrix,
    Localization,
    PrimeSet,
    PrimeTriple,
    Prufer,
    validate_bockstein,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

settings.register_profile(
    "suite", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Seeded random generators.


def random_prime_set(rng) -> PrimeSet:
    members = rng.sample(SMALL_PRIMES, rng.randint(0, 3))
    return PrimeSet(rng.random() < 0.5, members)


def random_atom(rng):
    roll = rng.random()
    if roll < 0.4:
        return Localization(random_prime_set(rng))
    if roll < 0.8:
        return Cyclic(rng.choice(SMALL_PRIMES), rng.randint(1, 4))
    return Prufer(rng.choice(SMALL_PRIMES))


def random_group(rng, max_atoms=4, allow_trivial=True) -> AdmissibleGroup:
    n = rng.randint(0 if allow_trivial else 1, max_atoms)
    return AdmissibleGroup.of(*(random_atom(rng) for _ in range(n)))


def random_graded(rng, max_entries=3, max_degree=6, allow_empty=True) -> GradedGroup:
    n = rng.randint(0 if allow_empty else 1, max_entries)
    degrees = rng.sample(range(1, max_degree + 1), n)
    return GradedGroup.of({d: random_group(rng, allow_trivial=False) for d in degrees})


def random_matrix(rng, max_rows=5, max_cols=5, lo=-20, hi=20) -> IntMatrix:
    rows = rng.randint(0, max_rows)
    cols = rng.randint(0, max_cols)
    data = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix.from_rows(data, cols=cols)


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


# ---------------------------------------------------------------------------
# Seeded DSL texts, valid and one character away from valid.

DSL_ALPHABET = "ZQ/^_()[]{}~:,+-o 0123456789"
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
