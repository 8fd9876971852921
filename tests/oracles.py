"""The definitions that closed forms replaced, kept as oracles, and the one
seeded bank the tests compare them on.  Each oracle's docstring says what
replaced it and what it shares with `src/`, so the independence of every
pair of routes can be read off this file.  It imports only the standard
library and extcalc: `scripts/oracle_soak.py` runs it without the test extra.
"""

import functools
import operator
import random
from collections import Counter

from extcalc import (
    ALL_PRIMES, INFINITY, NO_PRIMES, AdmissibleGroup, ChainComplex, Cyclic, DomainError, ExtNat, ExtcalcError,
    GradedGroup, GradedOrderVerdict, IntMatrix, Localization, PrimePattern, PrimeSet, Prufer, Q, SigmaSet,
    chain_homology, cyclic, fresh_prime, homology_with_coefficients, localized, moore_graded, pairing, prufer, sigma,
    sigma_matches_localization, smash, snf, sp_factors_as_em, tensor_from_presentations, tor_from_presentations,
)
from extcalc.abelian import FULL_PATTERN
from extcalc.exttype import RATIONAL_ONLY
from extcalc.graded import _connected, _reflect

# ---------------------------------------------------------------------------
# Seeded generators over a small prime pool, so that the same prime often
# meets itself on both sides of a product.

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
WIDE_PRIMES = tuple(p for p in range(2, 2742) if all(p % d for d in range(2, int(p**0.5) + 1)))  # the first 400


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


def random_fg_group(rng, max_atoms=3) -> AdmissibleGroup:
    """A nontrivial finitely generated group: Z and Z/p^e over 2, 3 and 5."""
    atoms = [Localization(ALL_PRIMES) if rng.random() < 0.3 else Cyclic(rng.choice(SMALL_PRIMES[:3]), rng.randint(1, 3))
             for _ in range(rng.randint(1, max_atoms))]
    return AdmissibleGroup.of(*atoms)


def random_fg_graded(rng, max_entries=3) -> GradedGroup:
    """A finitely generated graded group in degrees -2 to 5, as a pairing's
    reflected grading or a compactum's stored one reaches below degree 1."""
    degrees = rng.sample(range(-2, 6), rng.randint(0, max_entries))
    return GradedGroup.of({d: random_fg_group(rng) for d in degrees})


def random_matrix(rng, max_rows=5, max_cols=5, lo=-20, hi=20) -> IntMatrix:
    rows = rng.randint(0, max_rows)
    cols = rng.randint(0, max_cols)
    data = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix.from_rows(data, cols=cols)


def known_smith_form(rng, max_n=12, shaped=True) -> tuple[IntMatrix, list[int]]:
    """(M, s): M = U diag(s) V, where s is a divisibility chain whose last
    factors exceed 1 more often than not, and U and V are products of
    elementary operations with multipliers in [-2, 2].  M is square of full
    rank up to max_n, or when `shaped`, a fifth of the time tall or wide and
    a tenth of the time of lower rank."""
    n = rng.randint(1, max_n)
    rows, cols = n, n
    if shaped and (roll := rng.random()) < 0.2:
        rows, cols = (n, n + rng.randint(1, 3)) if roll < 0.1 else (n + rng.randint(1, 3), n)
    rank = rng.randint(0, n - 1) if shaped and rng.random() < 0.1 else n
    s = [rng.choice((1, 1, 2, 3))]
    while len(s) < rank:
        s.append(s[-1] * rng.choice((1, 1, 2, 3, 4, 5)))
    m = [[s[i] if i == j and i < rank else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(rng.randint(rows + cols, 3 * (rows + cols))):
        transpose = rng.random() < 0.5  # a column operation is a row operation on the transpose
        if transpose:
            m = [list(col) for col in zip(*m)]
        if len(m) > 1:
            i, j = rng.sample(range(len(m)), 2)
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            if rng.random() < 0.2:
                m[i], m[j] = m[j], m[i]
        if transpose:
            m = [list(col) for col in zip(*m)]
    return IntMatrix.from_rows(m, cols=cols), s[:rank]


def snf_factors(m: IntMatrix) -> list[int]:
    """The nonzero diagonal of `snf`'s D, which shares no elimination with
    `invariant_factors`."""
    d = snf(m).d
    return [x for x in d.entries[:: d.cols + 1][: min(d.rows, d.cols)] if x]


def wide_group(rng, size):
    """A sum of `size` atoms over WIDE_PRIMES.  Its cofinite localizations
    share eight excluded primes, two of which also carry torsion, so sigma
    keeps exceptions of every shape."""
    excluded = rng.sample(WIDE_PRIMES, 8)
    atoms = [Cyclic(excluded[0], 2), Prufer(excluded[1])]
    for _ in range(rng.randint(1, 3)):
        atoms.append(Localization(PrimeSet.excluding(*excluded, *rng.sample(WIDE_PRIMES, rng.randint(0, 3)))))
    while len(atoms) < size:
        roll = rng.random()
        if roll < 0.1:
            atoms.append(Localization(PrimeSet.of(*rng.sample(WIDE_PRIMES, rng.randint(0, 4)))))
        elif roll < 0.55:
            atoms.append(Cyclic(rng.choice(WIDE_PRIMES), rng.randint(1, 4)))
        else:
            atoms.append(Prufer(rng.choice(WIDE_PRIMES)))
    return AdmissibleGroup.of(*atoms)


def signed_graded(rng) -> GradedGroup:
    """A graded group, a third of the time a pairing output, which reaches
    negative degrees."""
    x = random_graded(rng, max_entries=4)
    return pairing(x, random_graded(rng, max_entries=2))[0] if rng.random() < 1 / 3 else x


def graded_or_wide(rng) -> GradedGroup:
    """A graded group; one in 25 has wide entries, whose families list
    hundreds of test groups."""
    if rng.random() < 0.04:
        degrees = rng.sample(range(1, 6), rng.randint(1, 3))
        return GradedGroup.of({d: wide_group(rng, rng.randint(10, 40)) for d in degrees})
    return random_graded(rng, max_entries=4)


def classify_complex(rng) -> GradedGroup:
    """Homology in degrees 1-6 whose lowest degree is, half the time, a
    candidate of the classification (Q^m or Z_(l), moved to a random
    degree), and now and then an entry in degree 0 or -1."""
    entries = dict(random_graded(rng, max_entries=4).entries)
    roll = rng.random()
    if roll < 0.5 and entries:
        n = rng.randint(1, min(entries))
        q = AdmissibleGroup.of(*[Localization(NO_PRIMES)] * rng.randint(1, 2))
        entries[n] = q if rng.random() < 0.5 else localized(random_prime_set(rng))
    elif roll < 0.55:
        entries[rng.randint(-1, 0)] = random_group(rng, allow_trivial=False)
    return GradedGroup.of(entries)


# ---------------------------------------------------------------------------
# Oracles for the atom tables, sigma and the prime walk.


def built_tensor(a, b):
    """The tensor table as it read before the tables returned operands: a
    new, checked atom for each nonzero answer.  Shares only the atom
    constructors with `src/`."""
    match (a, b):
        case (Localization(primes=l1), Localization(primes=l2)):
            if l1.cofinite and l2.cofinite:
                return Localization(PrimeSet.excluding(*l1.members, *l2.members))
            return Localization(PrimeSet.of(*(p for p in (l2 if l1.cofinite else l1).members if p in l1 and p in l2)))
        case (Localization(primes=l), Cyclic(prime=p, power=k)) | (Cyclic(prime=p, power=k), Localization(primes=l)):
            return Cyclic(p, k) if p in l else None
        case (Localization(primes=l), Prufer(prime=p)) | (Prufer(prime=p), Localization(primes=l)):
            return Prufer(p) if p in l else None
        case (Cyclic(prime=p, power=k), Cyclic(prime=q, power=m)):
            return Cyclic(p, min(k, m)) if p == q else None
    return None


def built_tor(a, b):
    """The Tor table as it read before the tables returned operands; shares
    only the atom constructors with `src/`."""
    match (a, b):
        case (Cyclic(prime=p, power=k), Cyclic(prime=q, power=m)):
            return Cyclic(p, min(k, m)) if p == q else None
        case (Prufer(prime=p), Cyclic(prime=q, power=m)) | (Cyclic(prime=q, power=m), Prufer(prime=p)):
            return Cyclic(q, m) if p == q else None
        case (Prufer(prime=p), Prufer(prime=q)):
            return Prufer(p) if p == q else None
    return None


def all_pairs(g, h, table):
    """tensor or Tor by evaluating `table` on every pair of summands, the
    loop that the by-prime pairing replaced.  Shares the table it is given
    and `AdmissibleGroup.from_counts` with `src/`, not the pairing loop."""
    counts = Counter()
    for a, n in g.summands:
        for b, m in h.summands:
            if (c := table(a, b)) is not None:
                counts[c] += n * m
    return AdmissibleGroup.from_counts(counts)


def pointwise_by_at(*items):
    """The walk that `PrimeIndexed.pointwise` replaced: every listed prime in
    increasing order, then the least unlisted one, each item read there by
    `at`.  Shares `at` and `fresh_prime` with `src/`."""
    primes = set().union(*(x.exception_primes for x in items))
    return [(p, tuple(x.at(p) for x in items)) for p in sorted(primes) + [fresh_prime(primes)]]


def sigma_by_tensor_tests(group):
    """sigma by its definition, which the closed form replaced: the tensor
    and Tor tests with Z/p and Z/p^oo at every support prime and at one
    fresh prime for the default.  Calls the public `tensor` and `tor`."""

    def tests(p):
        pattern = PrimePattern.EMPTY
        if not cyclic(p).tensor(group).is_trivial:
            pattern |= PrimePattern.CYCLIC
        if not prufer(p).tensor(group).is_trivial:
            pattern |= PrimePattern.LOCAL
        if pattern & PrimePattern.CYCLIC or not prufer(p).tor(group).is_trivial:
            pattern |= PrimePattern.PRUFER
        return pattern

    support = group.support_primes()
    rational = not Q.tensor(group).is_trivial
    return SigmaSet.build(rational, tests(fresh_prime(support)), {p: tests(p) for p in support})


def atom_sigma(atom):
    """sigma of one atom, from the per-atom table; shares only `SigmaSet.build`."""
    match atom:
        case Localization(primes=ps):
            inside, outside = (PrimePattern.EMPTY, FULL_PATTERN) if ps.cofinite else (FULL_PATTERN, PrimePattern.EMPTY)
            return SigmaSet.build(True, outside, {p: inside for p in ps.members})
        case Cyclic(prime=p):
            return SigmaSet.build(False, PrimePattern.EMPTY, {p: PrimePattern.CYCLIC | PrimePattern.PRUFER})
        case Prufer(prime=p):
            return SigmaSet.build(False, PrimePattern.EMPTY, {p: PrimePattern.PRUFER})


def sigma_by_atom_union(group):
    """The union of the bases of the distinct atoms, the route that sigma's
    one pass over the summands replaced.  Shares `PrimeIndexed.combine`."""

    def join(*values):  # a wide union repeats a few patterns
        return functools.reduce(operator.or_, set(values))

    return SigmaSet.combine(join, join, *{atom_sigma(a) for a, _ in group.summands})


# ---------------------------------------------------------------------------
# Oracles for the graded calculus.


def cohomology_by_formula(x: GradedGroup, group) -> GradedGroup:
    """Cohomology by its formula on the stored grading, which homology on the
    reflected grading replaced: degree d holds (G (x) x_d) (+) Tor(G,
    x_{d+1}).  Calls the public `tensor` and `tor`, not `smash`."""
    return GradedGroup(t for d, g in x.entries for t in ((d, group.tensor(g)), (d - 1, group.tor(g))))


def paired_by_cohomology(x: GradedGroup, k: GradedGroup) -> GradedGroup:
    """The pairing through the cohomology of x, complex degree j against
    stored degree d landing at j - d, which a smash on the reflected grading
    replaced.  Calls `cohomology_by_formula`, not `smash`."""
    return GradedGroup((j - d, h) for j, g in k.entries for d, h in cohomology_by_formula(x, g).entries)


def smash_by_coefficients(k: GradedGroup, l: GradedGroup) -> GradedGroup:
    """The smash one entry of l at a time through the public `tensor` and
    `tor`, every term summed by the `GradedGroup` constructor, which the
    one-pass smash replaced; shares the atom tables, not the pass."""
    return GradedGroup(
        (i + j + s, t) for j, h in l.entries for i, g in k.entries for s, t in ((0, g.tensor(h)), (1, g.tor(h)))
    )


def homological_dimension_by_homology(k: GradedGroup, group) -> ExtNat:
    """The homological dimension read off the full homology, which reading
    sigma replaced.  Calls the public `homology_with_coefficients`, so it
    shares the atom tables with `src/`, not the pair rule."""
    return homology_with_coefficients(k, group).min_degree()


def vanishing_by_smash(x: GradedGroup, k: GradedGroup, m: int) -> tuple[bool, bool, bool]:
    """The three vanishing statements read off the two orders of the smash
    of k with x on the reflected grading (1 and 3 are one predicate), which
    reading sigma replaced.  Calls the public `smash`, not the pair rule."""
    reflected = _reflect(x)
    first = all(n > -m for n, _ in smash(reflected, k).entries)
    second = all(n > -m for n, _ in smash(k, reflected).entries)
    return first, second, first


def vanishing_by_expansions(x: GradedGroup, k: GradedGroup, m: int) -> tuple[bool, bool, bool]:
    """The three vanishing statements, each by its own expansion: the
    pairing lives above -m, the homology of k with each x_d above d - m, and
    the cohomology of x with each k_j below j + m.  Calls `paired_by_cohomology`,
    `cohomology_by_formula` and the public `homology_with_coefficients`."""
    return (
        all(n > -m for n, _ in paired_by_cohomology(x, k).entries),
        all(i > d - m for d, g in x.entries for i, _ in homology_with_coefficients(k, g).entries),
        all(i < j + m for j, g in k.entries for i, _ in cohomology_by_formula(x, g).entries),
    )


def smash_bottom_by_tables(g, h):
    """0 when g (x) h is nonzero, 1 when only Tor(g, h) is, None when both
    vanish, which the pair rule on sigma replaced.  Calls the public
    `tensor` and `tor`."""
    return 0 if not g.tensor(h).is_trivial else 1 if not g.tor(h).is_trivial else None


def graded_order_leq_by_homology(k, l):
    """The dimension order by its definition, replaced by the closed-form
    dimension profiles: the dimension of each family member is read off the
    full homology with those coefficients, so it shares the atom tables with
    `src/` through `homological_dimension_by_homology`."""
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
    Z/p, Z/p^oo, Z_(p) for one prime after another.  Reads the profile with
    `at`, not with the walk the comparison in `leqgr` takes."""
    assert checked[0] == Q
    out = [(Q, profile.rational)]
    for i in range(1, len(checked), 3):
        (p,) = checked[i].support_primes()
        assert checked[i : i + 3] == (cyclic(p), prufer(p), localized(PrimeSet.of(p)))
        out.extend(zip(checked[i : i + 3], profile.at(p)))
    return out


def smash_by_presentations(k: dict, l: dict) -> GradedGroup:
    """smash of {i: group of k[i]} and {j: group of l[j]}, given by relation
    matrices, from the SNF route alone: tensor products in degree i + j and
    Tor groups in i + j + 1.  Shares no code with the atom tables."""
    return GradedGroup(
        (i + j + shift, product(ri, rj))
        for i, ri in k.items()
        for j, rj in l.items()
        for shift, product in ((0, tensor_from_presentations), (1, tor_from_presentations))
    )


def _modulus(atom):
    """0 for Z, p^e for Z/p^e, None for an atom that is not finitely generated."""
    if atom == Localization(ALL_PRIMES):
        return 0
    return atom.prime**atom.power if isinstance(atom, Cyclic) else None


def finitely_generated(k: GradedGroup) -> bool:
    return all(_modulus(atom) is not None for _, g in k.entries for atom, _ in g.summands)


def free_cells(k: GradedGroup) -> list:
    """The cells (degree, {face: coefficient}) of a free complex whose
    homology is k: Z in degree d is one cell, Z/n two cells in d and d + 1
    whose boundary is n times the first."""
    cells = []
    for d, g in k.entries:
        for atom, m in g.summands:
            n = _modulus(atom)
            if n is None:
                raise ValueError(f"{atom!r} is not finitely generated")
            for _ in range(m):
                cells.append((d, {}))
                if n:
                    cells.append((d + 1, {len(cells) - 1: n}))
    return cells


def kunneth_by_chains(k: GradedGroup, l: GradedGroup) -> GradedGroup:
    """smash(k, l) for finitely generated k and l by the algebraic Kunneth
    formula (Hatcher, Algebraic Topology, 3.B): the homology of the tensor
    product, with the Koszul sign, of free complexes whose homology is k and
    l.  Both inputs move up to start in degree 1, so `chain_homology`'s
    reduced degree 0 is empty, and the answer moves back down.  Shares
    `chain_homology` (SNF, factorint and the group constructors),
    `GradedGroup.shift` and `_reflect` with `src/`, never the atom tables,
    `sigma` or `smash`."""
    up = [1 - x.entries[0][0] if x.entries else 0 for x in (k, l)]
    left, right = free_cells(k.shift(up[0])), free_cells(l.shift(up[1]))
    cells = {}  # degree -> {(x, y): the boundary of x (x) y}
    for x, (dx, fx) in enumerate(left):
        for y, (dy, fy) in enumerate(right):
            boundary = {(c, y): n for c, n in fx.items()}
            boundary.update({(x, c): (-1) ** dx * n for c, n in fy.items()})
            cells.setdefault(dx + dy, {})[x, y] = boundary
    index = [{cell: i for i, cell in enumerate(cells.get(d, {}))} for d in range(max(cells, default=-1) + 1)]
    boundaries = []
    for d in range(1, len(index)):
        rows = [[0] * len(index[d]) for _ in index[d - 1]]
        for cell, boundary in cells.get(d, {}).items():
            for face, n in boundary.items():
                rows[index[d - 1][face]][index[d][cell]] += n
        boundaries.append(IntMatrix.from_rows(rows, cols=len(index[d])))
    return chain_homology(ChainComplex([len(i) for i in index], boundaries)).shift(-sum(up))


def calculus_by_chains(k, l, g, h):
    """smash(k, l), homology of k and cohomology of k with coefficients g,
    both pairing components of k with l, and g (x) h and Tor(g, h), each one
    Kunneth product: with g in degree 0, of the reflection of k, and of g
    and h in degree 1, where g (x) h lands in degree 2 and Tor(g, h) in 3."""
    with_g, reflected = GradedGroup({0: g}), _reflect(k)
    paired, products = kunneth_by_chains(reflected, l), kunneth_by_chains(GradedGroup({1: g}), GradedGroup({1: h}))
    return [kunneth_by_chains(k, l), kunneth_by_chains(k, with_g), _reflect(kunneth_by_chains(reflected, with_g)),
            paired, paired, products.at(2), products.at(3)]


# ---------------------------------------------------------------------------
# Oracles for the extension-type decisions, replaced when `classify` became a
# closed form on sigma of the lowest degree.


def classify_by_clauses(k):
    """The classification by `sp_factors_as_em`, against Z_(l) in degree 1
    and then against Q in the lowest degree.  Shares `sigma`, the clause
    checks and `graded._connected` with `src/`, not the closed form."""
    _connected(k)
    if k.is_zero:
        raise DomainError("the trivial complex has no classification", code="trivial_complex")
    g1 = k.at(1)
    if not g1.is_trivial:
        primes = sigma_matches_localization(sigma(g1))
        if primes is not None and sp_factors_as_em(k, localized(primes), 1).verdict:
            return {"kind": "localization", "primes": primes.to_json(), "degree": 1}
    lowest = k.entries[0][0]
    if sigma(k.at(lowest)) == RATIONAL_ONLY and sp_factors_as_em(k, Q, lowest).verdict:
        return {"kind": "rational", "primes": None, "degree": lowest}
    return {"kind": "none", "primes": None, "degree": None}


def compact_by_clauses(k):
    """`has_compact_type` as it read `classify_by_clauses`: the full
    localization."""
    verdict = classify_by_clauses(k)
    return verdict["kind"] == "localization" and verdict["primes"] == ALL_PRIMES.to_json()


def moore_by_sigma(group, n):
    """The Moore verdict's own closed form on sigma, which a reading of
    `classify_finite_type` replaced.  Shares `sigma`,
    `sigma_matches_localization` and `moore_graded`'s checks with `src/`."""
    moore_graded(group, n)  # its checks and messages
    s = sigma(group)
    if n == 1:
        primes = sigma_matches_localization(s)
        localization = None if primes is None else primes.to_json()
        return {"matches": primes is not None, "localization": localization, "rational_case": False}
    rational = s == RATIONAL_ONLY
    return {"matches": rational, "localization": None, "rational_case": rational}


# ---------------------------------------------------------------------------
# Bockstein functions.


def rule_5_by_subtraction(q, t):
    """Rule 5, a(Z/p^oo) <= max(a(Q), a(Z_(p)) - 1), with a subtraction that
    saturates at 0, which its form by addition replaced.  Shares only
    `ExtNat`'s order with `src/`."""
    local_minus_one = ExtNat(max(0, t.local.value - 1)) if t.local.is_finite else INFINITY
    return t.prufer <= max(q, local_minus_one)


# ---------------------------------------------------------------------------
# The bank: one seed, and one stream of values per kind and per argument.

BANK_SEED = 26
SMALL_EXTNATS = (*map(ExtNat, range(6)), INFINITY)
DRAWS = {
    "group": lambda rng: random_group(rng, allow_trivial=False),
    "group or trivial": random_group,
    "atom": random_atom,
    "wide group": lambda rng: wide_group(rng, rng.randint(2, 40)),
    "large group": lambda rng: wide_group(rng, rng.randint(100, 400)),
    "graded": lambda rng: random_graded(rng, max_entries=4),
    "signed graded": signed_graded,
    "graded or wide": graded_or_wide,
    "complex": classify_complex,
    "degree": lambda rng: rng.randint(-6, 8),
    "moore degree": lambda rng: rng.randint(0, 6),
    "prime": lambda rng: rng.choice(SMALL_PRIMES + (17,)),
    "sigmas": lambda rng: [sigma(random_group(rng, allow_trivial=False)) for _ in range(rng.randint(1, 3))],
    "extnat": lambda rng: rng.choice(SMALL_EXTNATS),
    "relations": random_matrix,
    "known Smith form": known_smith_form,
    "finitely generated graded": random_fg_graded,
    "finitely generated group": random_fg_group,
}
_STREAMS = {}


def bank(kinds, n) -> list:
    """The first n cases of the bank, read as argument tuples of `kinds`.
    The j-th argument of kind K reads the stream of (K, the number of
    earlier arguments of kind K), drawn from `BANK_SEED` alone, so every
    prefix of a stream is the same whoever reads it first."""
    columns = []
    for j, kind in enumerate(kinds):
        key = f"{BANK_SEED}:{kind}:{kinds[:j].count(kind)}"
        rng, values = _STREAMS.setdefault(key, (random.Random(key), []))
        values.extend(DRAWS[kind](rng) for _ in range(n - len(values)))
        columns.append(values[:n])
    return list(zip(*columns))


def reach(labels, answered) -> Counter:
    """How many cases carry each label that `labels(answer, *case)` gives,
    over (answer, case) pairs: the report of what a comparison's prefix of
    the bank reaches."""
    return Counter(label for answer, case in answered for label in set(labels(answer, *case)))


def outcome(call, *args):
    """The value of call(*args), or the code and message of its error."""
    try:
        return call(*args)
    except ExtcalcError as exc:
        return exc.code, exc.message


def atom_kinds(*groups):
    """The kinds of atom among `groups`: cyclic, Prufer, Z, Q, and the other
    finite or cofinite localizations."""
    for g in groups:
        for atom, _ in g.summands:
            if not isinstance(atom, Localization):
                yield "cyclic" if isinstance(atom, Cyclic) else "Prufer"
            elif atom.primes in (NO_PRIMES, ALL_PRIMES):
                yield "Q" if atom.primes == NO_PRIMES else "Z"
            else:
                yield "cofinite localization" if atom.primes.cofinite else "finite localization"


def classify_labels(verdict, k):
    """The branch of the classification that `k` takes, given its verdict's
    `to_json`, then its degrees and its kinds of atom."""
    if k.is_zero or k.entries[0][0] < 1:
        branch = "trivial complex" if k.is_zero else "degree below 1"
    elif verdict["kind"] == "localization" and verdict["primes"] == NO_PRIMES.to_json():
        branch = "localization at no primes"
    elif verdict["kind"] != "none":
        branch = verdict["kind"]
    else:  # whether the lowest degree was a candidate
        n, h = k.entries[0]
        branch = "none at a higher degree" if moore_by_sigma(h, n)["matches"] else "none at the lowest degree"
    return [branch, *(f"degree {d}" for d, _ in k.entries), *atom_kinds(*(g for _, g in k.entries))]


def moore_labels(verdict, g, n):
    """The branch of the Moore verdict, as `classify_labels` names them."""
    if n < 1 or g.is_trivial:
        return ["moore error"]
    if not verdict["matches"]:
        return ["moore none at the lowest degree"]
    if verdict["rational_case"]:
        return ["moore rational"]
    return ["moore localization" + " at no primes" * (verdict["localization"] == NO_PRIMES.to_json())]


def one_pass_labels(_, k, l, g):
    """Atom kinds, negative degrees, entry pairs whose tensor and Tor both
    vanish, and output degrees that nonzero terms of three entry pairs feed."""
    yield from atom_kinds(g, *(h for _, h in k.entries + l.entries))
    if k.entries and k.entries[0][0] < 0:
        yield "negative degree"
    fed = Counter()
    for i, a in k.entries:
        for j, b in l.entries:
            tensor, tor = a.tensor(b), a.tor(b)
            if tensor.is_trivial and tor.is_trivial:
                yield "trivial product"
            fed.update([i + j] * (not tensor.is_trivial) + [i + j + 1] * (not tor.is_trivial))
    if any(n >= 3 for n in fed.values()):
        yield "three terms meet"
