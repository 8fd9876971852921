"""The four benchmark workloads.

Each workload builds its inputs from the seed, hands out operations one at a
time (``op(i)``) and judges each outcome (``judge``).  Only ``Op.call`` is
timed.  Calls reach extcalc through module attributes looked up at call
time, so the tracer's wrappers see them when a traced run installs them.

Why these four (see README.md for the full table):

* calculus_mix  -- the paper's calculus at the sizes people type; abelian,
  graded, bockstein and exttype do the work, inputs recur.
* wide_groups   -- large text inputs, each used once; the only workload where
  the DSL and prime factorization carry a large share.
* snf_oracle    -- Smith normal forms on seeded matrices; the presentation
  module does almost all the work, including the sizes where transform
  entries explode.
* cli_cold      -- real ``python -m extcalc.cli`` processes, one at a time;
  import cost dominates.

Every failed operation makes a run incorrect, except the one known defect
cli_cold keeps visible (``KNOWN_SNF_CRASH``), which is counted and listed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from extcalc import abelian, bockstein, dsl, exttype, graded, presentation
from extcalc.errors import ExtcalcError

import checks

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    key: int  # index into the seed's reference digests
    meta: dict = field(default_factory=dict)
    allowed: tuple[str, ...] = ()  # ExtcalcError codes that are a correct outcome


@dataclass
class Outcome:
    text: str  # canonical outcome, digested and compared with the reference
    wrong: list[str] = field(default_factory=list)  # a returned answer is wrong
    errors: list[str] = field(default_factory=list)  # crash, bad status, missing envelope
    known: str = ""  # the known defect this failure is, if it is one


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + salt)))


def _stratified(rng: random.Random, weights: dict[str, int], total: int) -> list[str]:
    """Exactly weight/sum(weights) of `total` slots per kind, shuffled."""
    scale = sum(weights.values())
    kinds = [k for k, w in weights.items() for _ in range(w * total // scale)]
    rng.shuffle(kinds)
    return kinds


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(limit + 1) if flags[p]]


class Workload:
    name = ""
    # Operations covered by one reference line.  With `cycle` it is also the
    # pass a run repeats; otherwise operations past it get the cross-route
    # checks only.
    reference_ops = 0
    cycle = False
    trace_ops = 0  # fixed op count of the traced pass, so counts repeat exactly
    warm_up_ops = 50

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def judge(self, op: Op, value, full: bool = True) -> Outcome:
        """The outcome's canonical text and, with `full`, its checks; a
        repeat of an operation already checked in this run needs only the
        text, which is compared with the first one."""
        raise NotImplementedError

    def judge_error(self, op: Op, exc: BaseException) -> Outcome:
        """An ExtcalcError with one of the op's allowed codes is a correct
        outcome; anything else raised is a failure."""
        if isinstance(exc, ExtcalcError):
            text = f"error:{exc.code}"
            if exc.code in op.allowed:
                return Outcome(text)
            return Outcome(text, errors=[f"unexpected {type(exc).__name__}[{exc.code}]: {exc}"])
        return Outcome(f"raised:{type(exc).__name__}", errors=[f"raised {type(exc).__name__}: {exc}"[:300]])

    def warm_up(self, first: int = 0):
        for i in range(first, first + self.warm_up_ops):
            with contextlib.suppress(Exception):
                self.op(i).call()


# ---------------------------------------------------------------------------
# calculus_mix


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# Recorded operation mix, in percent of operations.
CALCULUS_WEIGHTS = {
    "tensor": 10,
    "tor": 8,
    "sigma": 10,
    "tau": 5,
    "smash": 8,
    "pairing": 8,
    "vanishing_check": 7,
    "graded_order_leq": 8,
    "sp_factors_as_em": 8,
    "classify_finite_type": 5,
    "moore_matches_em": 5,
    "coef_dimension": 8,
    "sp_in_ae": 4,
    "infinite_gap_witness": 3,
    "unit_gap_witness": 3,
}


def _small_atom(rng, finitely_generated: bool):
    if finitely_generated:
        if rng.random() < 0.3:
            return abelian.Localization(abelian.ALL_PRIMES)
        return abelian.Cyclic(rng.choice(SMALL_PRIMES), rng.randint(1, 4))
    roll = rng.random()
    if roll < 0.4:
        members = rng.sample(SMALL_PRIMES, rng.randint(0, 3))
        return abelian.Localization(abelian.PrimeSet(rng.random() < 0.5, members))
    if roll < 0.8:
        return abelian.Cyclic(rng.choice(SMALL_PRIMES), rng.randint(1, 4))
    return abelian.Prufer(rng.choice(SMALL_PRIMES))


def _relations(group) -> "presentation.IntMatrix | None":
    """Relation matrix of a finitely generated group, None otherwise."""
    gens = list(group.atoms())
    rows = []
    for i, atom in enumerate(gens):
        if isinstance(atom, abelian.Cyclic):
            row = [0] * len(gens)
            row[i] = atom.prime**atom.power
            rows.append(row)
        elif not (isinstance(atom, abelian.Localization) and atom.primes.is_all):
            return None
    return presentation.IntMatrix.from_rows(rows, cols=len(gens))


def _extnat(rng):
    return abelian.INFINITY if rng.random() < 0.25 else abelian.ExtNat(rng.randint(0, 4))


def _bockstein_function(rng):
    while True:
        triple = lambda: bockstein.PrimeTriple(_extnat(rng), _extnat(rng), _extnat(rng))  # noqa: E731
        primes = rng.sample(SMALL_PRIMES, rng.randint(0, 2))
        alpha = bockstein.BocksteinFunction.build(_extnat(rng), triple(), {p: triple() for p in primes})
        if not bockstein.validate_bockstein(alpha):
            return alpha


class CalculusMix(Workload):
    name = "calculus_mix"
    reference_ops = 6000
    cycle = True
    trace_ops = 2000
    warm_up_ops = 200

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(seed, self.name)
        self.groups = []
        for i in range(900):
            g = abelian.AdmissibleGroup.of(*(_small_atom(rng, i % 3 == 0) for _ in range(rng.randint(1, 4))))
            self.groups.append((g, _relations(g)))
        self.graded = []
        for _ in range(600):
            degrees = rng.sample(range(1, 7), rng.randint(1, 3))
            self.graded.append(graded.GradedGroup.of({d: rng.choice(self.groups)[0] for d in degrees}))
        self.functions = [_bockstein_function(rng) for _ in range(300)]
        self.ops = [self._make(rng, i, kind) for i, kind in enumerate(_stratified(rng, CALCULUS_WEIGHTS, self.reference_ops))]

    def _make(self, rng, i, kind) -> Op:
        group = lambda: rng.choice(self.groups)  # noqa: E731
        complex_ = lambda: rng.choice(self.graded)  # noqa: E731
        if kind in ("tensor", "tor"):
            (a, ra), (b, rb) = group(), group()
            call = (lambda: a.tensor(b)) if kind == "tensor" else (lambda: a.tor(b))
            return Op(kind, call, i, {"args": (a, b), "relations": (ra, rb)})
        if kind in ("sigma", "tau"):
            g = group()[0]
            call = (lambda: abelian.sigma(g)) if kind == "sigma" else (lambda: abelian.tau(g))
            return Op(kind, call, i, {"args": (g,)})
        if kind == "smash":
            k, l = complex_(), complex_()
            return Op(kind, lambda: graded.smash(k, l), i, {"args": (k, l)})
        if kind == "pairing":
            x, k = complex_(), complex_()
            return Op(kind, lambda: graded.pairing(x, k), i)
        if kind == "vanishing_check":
            x, k, m = complex_(), complex_(), rng.randint(0, 6)
            return Op(kind, lambda: graded.vanishing_check(x, k, m), i)
        if kind == "graded_order_leq":
            k, l = complex_(), complex_()
            return Op(kind, lambda: graded.graded_order_leq(k, l), i, {"args": (k, l)})
        if kind == "sp_factors_as_em":
            g, n = group()[0], rng.randint(1, 4)
            moore = rng.random() < 0.5
            k = graded.moore_graded(g, n) if moore else complex_()
            return Op(kind, lambda: exttype.sp_factors_as_em(k, g, n), i, {"moore": moore})
        if kind == "classify_finite_type":
            k = complex_()
            return Op(kind, lambda: exttype.classify_finite_type(k), i)
        if kind == "moore_matches_em":
            g, n = group()[0], rng.randint(1, 4)
            return Op(kind, lambda: exttype.moore_matches_em(g, n), i)
        if kind == "coef_dimension":
            alpha, g = rng.choice(self.functions), group()[0]
            return Op(kind, lambda: bockstein.coef_dimension(alpha, g), i)
        if kind == "sp_in_ae":
            alpha, k = rng.choice(self.functions), complex_()
            return Op(kind, lambda: bockstein.sp_in_ae(alpha, k), i)
        g, f, m = group()[0], group()[0], rng.randint(1, 4)
        if kind == "infinite_gap_witness":
            return Op(kind, lambda: bockstein.infinite_gap_witness(g, f, m), i, {"args": (g, f, m)}, ("not_separable",))
        return Op(kind, lambda: bockstein.unit_gap_witness(g, f, m), i, {"args": (g, f, m)}, ("not_applicable",))

    def op(self, i: int) -> Op:
        return self.ops[i % len(self.ops)]

    def judge(self, op: Op, value, full: bool = True) -> Outcome:
        return Outcome(_calculus_text(op.kind, value), _calculus_problems(op, value) if full else [])


def _calculus_text(kind, value) -> str:
    if kind in ("tensor", "tor"):
        return dsl.format_group(value)
    if kind == "smash":
        return dsl.format_graded(value)
    if kind == "pairing":
        return dsl.format_graded(value[0])
    if kind == "vanishing_check":
        return repr(tuple(value))
    if kind == "graded_order_leq":
        witness = value.witness
        return _json({
            "holds": value.holds,
            "checked": [dsl.format_group(g) for g in value.checked],
            "witness": None if witness is None else [dsl.format_group(witness[0]), str(witness[1]), str(witness[2])],
        })
    if kind in ("coef_dimension", "sp_in_ae"):
        return str(value)
    if kind == "infinite_gap_witness":
        return _json({"bf": value.to_json(), "case": None})
    if kind == "unit_gap_witness":
        return _json({"bf": value[0].to_json(), "case": value[1]})
    return _json(value.to_json())  # sigma, tau, spaek, classify, mooreem


def _calculus_problems(op: Op, value) -> list[str]:
    kind, meta = op.kind, op.meta
    if kind in ("tensor", "tor"):
        ra, rb = meta["relations"]
        if ra is not None and rb is not None:
            route = presentation.tensor_from_presentations if kind == "tensor" else presentation.tor_from_presentations
            if route(ra, rb) != value:
                return ["atom tables disagree with the presentation oracle"]
    elif kind == "sigma":
        return _sigma_chain_problems(value)
    elif kind == "tau":
        if not abelian.sigma(meta["args"][0]).issubset(value):
            return ["tau does not contain sigma"]
    elif kind == "smash":
        k, l = meta["args"]
        if graded.smash(l, k) != value:
            return ["smash is not symmetric"]
    elif kind == "pairing":
        if value[0] != value[1]:
            return ["the two pairing routes disagree"]
    elif kind == "vanishing_check":
        if len(set(value)) != 1:
            return ["the three vanishing conditions disagree"]
    elif kind == "graded_order_leq":
        return _leqgr_problems(value, *meta["args"])
    elif kind == "sp_factors_as_em":
        if meta["moore"] and not value.verdict:
            return ["a Moore complex does not factor as its own EM target"]
    elif kind == "infinite_gap_witness":
        return _witness_problems(kind, value, *meta["args"])
    elif kind == "unit_gap_witness":
        return _witness_problems(kind, value[0], *meta["args"])
    return []


def _sigma_chain_problems(s) -> list[str]:
    P = abelian.PrimePattern
    for pat in [s.default] + [pat for _, pat in s.exceptions]:
        if (P.LOCAL & pat and not P.CYCLIC & pat) or (P.CYCLIC & pat and not P.PRUFER & pat):
            return ["sigma breaks the chain Z_(p) -> Z/p -> Z/p^oo"]
    return []


def _leqgr_problems(verdict, k, l) -> list[str]:
    dim = graded.homological_dimension
    if verdict.holds:
        if any(not dim(k, g) <= dim(l, g) for g in verdict.checked):
            return ["leqgr holds but a checked coefficient violates it"]
        return []
    g, dk, dl = verdict.witness
    if dim(k, g) != dk or dim(l, g) != dl or dk <= dl:
        return ["leqgr witness does not witness a failure"]
    return []


def _witness_problems(kind, alpha, g, f, m) -> list[str]:
    out = []
    if bockstein.validate_bockstein(alpha):
        out.append("witness violates the Bockstein inequalities")
    if bockstein.coef_dimension(alpha, g) != abelian.ExtNat(m):
        out.append("witness has the wrong dimension on the base group")
    if kind == "infinite_gap_witness":
        if bockstein.coef_dimension(alpha, f) != abelian.INFINITY:
            out.append("witness is finite on the separating group")
    else:
        if bockstein.coef_dimension(alpha, f) != abelian.ExtNat(m + 1):
            out.append("witness is not m+1 on the separating group")
        if bockstein.covering_dimension(alpha) != abelian.ExtNat(m + 1):
            out.append("witness covering dimension is not m+1")
    return out


# ---------------------------------------------------------------------------
# wide_groups


WIDE_PRIMES = sieve(2000)[:300]
WIDE_WEIGHTS = {"canon": 2, "tensor": 2, "tor": 2, "sigma": 2, "smash": 2}
MAX_MODULUS = 10**12
# The parser adds a term to itself once per unit of multiplicity, so the
# round trip runs only on outputs of bounded total multiplicity; a product of
# two ^10^4 terms would otherwise keep the checker busy for minutes.  The
# reference digest covers every output.
ROUND_TRIP_MAX_MULTIPLICITY = 2000


def _wide_atom(rng) -> str:
    roll = rng.random()
    if roll < 0.35:
        p = rng.choice(WIDE_PRIMES)
        e = 1
        while rng.random() < 0.4 and p ** (e + 1) <= MAX_MODULUS:
            e += 1
        return f"Z/{p ** e}"
    if roll < 0.50:
        n = 1
        for p in rng.sample(WIDE_PRIMES, rng.randint(2, 4)):
            if n * p <= MAX_MODULUS:
                n *= p
        return f"Z/{n}" if n > 1 else "Z/2"
    if roll < 0.65:
        return f"Z/{rng.choice(WIDE_PRIMES)}^oo"
    if roll < 0.80:
        listed = ",".join(map(str, sorted(rng.sample(WIDE_PRIMES, rng.randint(1, 50)))))
        return f"Z_(~{listed})" if rng.random() < 0.5 else f"Z_({listed})"
    if roll < 0.90:
        return "Z"
    if roll < 0.95:
        return "Q"
    return f"Z[1/{rng.choice(WIDE_PRIMES)}]"


def wide_group_text(rng, summands: int, big: int = 0) -> str:
    """`summands` random terms, 12% with a small multiplicity; with `big`,
    one more term carries the multiplicity `big`."""
    terms = []
    for _ in range(summands):
        atom = _wide_atom(rng)
        terms.append(f"{atom}^{rng.randint(2, 20)}" if rng.random() < 0.12 else atom)
    if big:
        terms.insert(rng.randrange(len(terms) + 1), f"{_wide_atom(rng)}^{big}")
    return " + ".join(terms)


def wide_graded_text(rng, summands: int, big: int = 0) -> str:
    degrees = sorted(rng.sample(range(1, 7), 2))
    return "{" + ", ".join(f"{d}: {wide_group_text(rng, summands, big if d == degrees[0] else 0)}" for d in degrees) + "}"


# Sizes and the large multiplicity follow fixed ladders by block and by op
# index, so every run covers the same spread of sizes; only the atoms and
# primes are random.  Every other op carries one term ^k, k up to 10^4.
WIDE_SIZES = {"canon": (30, 60, 90, 120), "tensor": (10, 15, 20, 25), "tor": (10, 15, 20, 25), "sigma": (10, 15, 20, 25), "smash": (3, 5, 7, 9)}
WIDE_BIG = (10, 0, 30, 0, 100, 0, 300, 0, 1000, 0, 3000, 0, 10000, 0)


class WideGroups(Workload):
    name = "wide_groups"
    reference_ops = 2000
    trace_ops = 60
    warm_up_ops = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.kinds = _stratified(_rng(seed, self.name), WIDE_WEIGHTS, 10)

    def warm_up(self):
        # on inputs no run reaches, so each measured input is used once
        super().warm_up(first=10**6)

    def op(self, i: int) -> Op:
        block, slot = divmod(i, len(self.kinds))
        kinds = list(self.kinds)
        _rng(self.seed, self.name, "block", block).shuffle(kinds)
        kind = kinds[slot]
        size = WIDE_SIZES[kind][block % 4]
        big = WIDE_BIG[i % len(WIDE_BIG)]
        rng = _rng(self.seed, self.name, i)
        if kind == "canon":
            text = wide_group_text(rng, size, big)
            call = lambda: _wide_group_out(dsl.parse_group(text))  # noqa: E731
        elif kind in ("tensor", "tor"):
            a, b = wide_group_text(rng, size, big), wide_group_text(rng, 35 - size)
            if kind == "tensor":
                call = lambda: _wide_group_out(dsl.parse_group(a).tensor(dsl.parse_group(b)))  # noqa: E731
            else:
                call = lambda: _wide_group_out(dsl.parse_group(a).tor(dsl.parse_group(b)))  # noqa: E731
        elif kind == "sigma":
            text = wide_group_text(rng, size, big)
            call = lambda: _wide_sigma_out(abelian.sigma(dsl.parse_group(text)))  # noqa: E731
        else:
            k, l = wide_graded_text(rng, size, big), wide_graded_text(rng, 12 - size)
            call = lambda: _wide_graded_out(graded.smash(dsl.parse_graded(k), dsl.parse_graded(l)))  # noqa: E731
        return Op(kind, call, i)

    def judge(self, op: Op, value, full: bool = True) -> Outcome:
        obj, text = value
        wrong = []
        if op.kind == "sigma":
            wrong += _sigma_chain_problems(obj)
        else:
            smash = op.kind == "smash"
            groups = [g for _, g in obj.entries] if smash else [obj]
            if sum(n for g in groups for _, n in g.summands) <= ROUND_TRIP_MAX_MULTIPLICITY:
                parse, fmt = (dsl.parse_graded, dsl.format_graded) if smash else (dsl.parse_group, dsl.format_group)
                again = parse(text)
                if again != obj or fmt(again) != text:
                    wrong.append("parse(format(result)) is not the result")
        return Outcome(text, wrong)


def _wide_group_out(g):
    return g, dsl.format_group(g)


def _wide_graded_out(k):
    return k, dsl.format_graded(k)


def _wide_sigma_out(s):
    return s, dsl.format_sigma(s)


# ---------------------------------------------------------------------------
# snf_oracle


# One block of the seeded operations, shuffled per block: (kind, size).
SNF_BLOCK = (
    [("snf", 5)] * 4
    + [("snf", 10)] * 6
    + [("snf", 15)] * 4
    + [("invariant_factors", 15)] * 2
    + [("invariant_factors", 20)] * 2
    + [("chain_homology", 10)] * 3
    + [("group_from_presentation", 12)] * 3
)
# The explosive sizes.  From n = 20 on, the cost per matrix is so
# heavy-tailed (snf at n = 25: median 40 ms, p95 0.8 s, max 2.8 s over 80
# matrices; invariant factors at n = 30: median 33 ms, max 5.4 s) that the
# few a run can afford would make every seed measure a different workload.
# So they form one fixed bank, drawn once at random from its own seed and
# run in full at the start of every run; the run's seed only orders it.
SNF_BANK = (
    [("snf", 20)] * 16
    + [("snf", 25)] * 16
    + [("invariant_factors", 25)] * 8
    + [("invariant_factors", 30)] * 16
)
SNF_BULK_BLOCKS = 40
ENTRY_BOUND = 20


def _entries(rng, rows, cols):
    return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cols)] for _ in range(rows)]


def seeded_chain_complex(rng, top: int) -> dict:
    """A free complex C2 -> C1 -> C0 with d1*d2 = 0: block maps [F | 0] and
    [0 ; K], then a few elementary changes of basis on C1."""
    r0, r1 = rng.randint(2, top), rng.randint(4, top)
    a = rng.randint(1, r1 - 2)
    b = rng.randint(1, r1 - a)
    r2 = b + rng.randint(2, 4)
    d1 = [row + [0] * (r1 - a) for row in _entries(rng, r0, a)]
    d2 = [[0] * r2 for _ in range(r1 - b)] + _entries(rng, b, r2)
    for _ in range(r1):
        i, j = rng.sample(range(r1), 2)
        c = rng.choice((-2, -1, 1, 2))
        # basis change W = I + c*E_ij on C1: d2 <- W d2, d1 <- d1 W^-1
        d2[i] = [x + c * y for x, y in zip(d2[i], d2[j])]
        for row in d1:
            row[j] -= c * row[i]
    return {"ranks": [r0, r1, r2], "boundaries": [d1, d2]}


class SnfOracle(Workload):
    """One pass is the bank followed by SNF_BULK_BLOCKS seeded blocks; a run
    repeats whole passes."""

    name = "snf_oracle"
    reference_ops = len(SNF_BANK) + SNF_BULK_BLOCKS * len(SNF_BLOCK)
    cycle = True
    trace_ops = len(SNF_BANK) + 2 * len(SNF_BLOCK)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.bank = list(range(len(SNF_BANK)))
        _rng(seed, self.name, "bank").shuffle(self.bank)

    def warm_up(self):
        # one seeded block; the bank is too slow to run twice
        for i in range(len(SNF_BANK), len(SNF_BANK) + len(SNF_BLOCK)):
            self.op(i).call()

    def op(self, i: int) -> Op:
        i %= self.reference_ops
        if i < len(SNF_BANK):
            j = self.bank[i]
            kind, n = SNF_BANK[j]
            rng = _rng("bank", self.name, j)
        else:
            block, slot = divmod(i - len(SNF_BANK), len(SNF_BLOCK))
            kinds = list(SNF_BLOCK)
            _rng(self.seed, self.name, "block", block).shuffle(kinds)
            kind, n = kinds[slot]
            rng = _rng(self.seed, self.name, i)
        IntMatrix = presentation.IntMatrix
        if kind in ("snf", "invariant_factors"):
            rows = _entries(rng, n, n)
            m = IntMatrix.from_rows(rows)
            call = (lambda: presentation.snf(m)) if kind == "snf" else (lambda: presentation.invariant_factors(m))
            return Op(kind, call, i, {"n": n, "rows": rows})
        if kind == "chain_homology":
            doc = seeded_chain_complex(rng, n)
            chain = presentation.ChainComplex.from_json(doc)
            return Op(kind, lambda: presentation.chain_homology(chain), i, {"n": n, "doc": doc})
        gens = rng.randint(2, n)
        rows = _entries(rng, gens + rng.randint(2, 4), gens)
        rel = IntMatrix.from_rows(rows)
        return Op(kind, lambda: presentation.group_from_presentation(gens, rel), i, {"n": n, "rows": rows, "gens": gens})

    def judge(self, op: Op, value, full: bool = True) -> Outcome:
        meta = op.meta
        if op.kind == "snf":
            factors = [x for i, x in enumerate(value.d.entries[:: value.d.cols + 1]) if i < value.d.rows and x]
            meta["transform_digits"] = checks.max_digits(value.u.entries + value.v.entries)
        elif op.kind == "invariant_factors":
            factors = value
        if op.kind in ("snf", "invariant_factors"):
            meta["factor_digits"] = checks.max_digits(factors)
            text = ",".join(map(checks.int_text, factors))
        else:
            text = dsl.format_graded(value) if op.kind == "chain_homology" else dsl.format_group(value)
        return Outcome(text, _snf_problems(op, value) if full else [])


def _snf_problems(op: Op, value) -> list[str]:
    meta = op.meta
    if op.kind == "snf":
        return checks.smith_problems(meta["rows"], value.u.to_rows(), value.d.to_rows(), value.v.to_rows())
    if op.kind == "invariant_factors":
        if any(f <= 0 for f in value) or any(b % a for a, b in zip(value, value[1:])):
            return ["invariant factors are not a positive divisibility chain"]
        if len(value) == meta["n"]:
            prod = 1
            for f in value:
                prod *= f
            if prod != abs(checks.exact_det(meta["rows"])):
                return ["product of invariant factors is not |det|"]
        elif checks.rank_mod(meta["rows"]) != len(value):
            return ["number of invariant factors is not the rank"]
        return []
    if op.kind == "chain_homology":
        ranks, (d1, d2) = meta["doc"]["ranks"], meta["doc"]["boundaries"]
        rk1, rk2 = checks.rank_mod(d1), checks.rank_mod(d2)
        free = [max(ranks[0] - rk1 - 1, 0), ranks[1] - rk1 - rk2, ranks[2] - rk2]
        got = [sum(n for a, n in value.at(i).summands if isinstance(a, abelian.Localization)) for i in range(3)]
        return [] if got == free else ["free ranks of the homology disagree with the boundary ranks"]
    free = sum(n for a, n in value.summands if isinstance(a, abelian.Localization))
    return [] if free == meta["gens"] - checks.rank_mod(meta["rows"]) else ["free rank is not generators minus relation rank"]


# ---------------------------------------------------------------------------
# cli_cold


BF_OK = '{"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}'
BF_BAD = '{"Q": 1, "default": {"Zp": 2, "ZpInf": 1, "Zploc": 1}}'
CHAIN_OK = '{"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]]}'
CHAIN_BAD = '{"ranks": [1, 1, 1], "boundaries": [[[1]], [[1]]]}'

README_TOUR = [
    ["canon", "Z^2 + Z/12"],
    ["tensor", "Z/4", "Z/6"],
    ["sigma", "Z/12"],
    ["snf", "[[2,4],[6,8]]"],
    ["homology", '{"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]]}'],
    ["smash", "{1: Z/2}", "{1: Z/2}"],
    ["leqgr", "{1: Z/2^oo}", "{1: Z/2}"],
    ["witness74", "Q", "Z", "2"],
    ["classify", "{1: Z_(2)}"],
    ["mooreem", "Q", "2"],
    ["spaek", "--graded", "{1: Z}", "--group", "Z", "--n", "1", "--json"],
]

# The 29-subcommand battery: (success argv, failing argv, failing exit status).
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

CLI_TOUR_PER_PASS = 3
CLI_SMALL_SIZES = (5, 10, 15)
CLI_MODES = ([], ["--json"])
CLI_TIMEOUT_S = 60  # a hung command fails; the run still ends well within 180 s

# The yardstick cli_cold's timings are calibrated against: a fresh
# interpreter importing a fixed set of standard-library modules, which pays
# for the same things an extcalc command mostly does (start-up, reading and
# executing many modules) and nothing from this repository.
REFERENCE_IMPORTS = (
    "import email.mime.multipart, xml.dom.minidom, http.server, unittest, asyncio, decimal, argparse,"
    " json, logging.handlers, urllib.request, sqlite3, tarfile, zipfile, pydoc, difflib, ast, inspect"
)

# The known defect cli_cold keeps visible: an snf whose transforms pass
# Python's 4300-digit int->str limit crashes while printing them (exit 1,
# traceback, no envelope).  It fails the operation but not the run.
KNOWN_SNF_CRASH = "known defect: snf transform entries pass the int->str digit limit"
_INT_STR_LIMIT = re.compile(r"ValueError: Exceeds the limit \(\d+ digits\) for integer string conversion")


def known_defect(argv, report: str) -> str:
    """KNOWN_SNF_CRASH when `report` (stderr, or "<Type>: <message>" of an
    in-process exception) is that crash on an snf command, else ""."""
    return KNOWN_SNF_CRASH if argv[0] == "snf" and _INT_STR_LIMIT.search(report) else ""


def cli_invocations(seed: int) -> list[tuple[list[str], int]]:
    """Every (argv, expected exit status) of one cli_cold pass, shuffled.

    A pass holds 36 invocations for every seed: each of the 29
    battery subcommands once, three README tour commands, a seeded 20x20
    `snf` document in text and --json (the size where the known crash shows)
    and a seeded small `snf` and `homology` document.  Seed s takes variant
    (j + s) % 4 of battery subcommand j -- success or expected failure, text
    or --json -- so four consecutive seeds cover the whole battery in both
    modes."""
    out = []
    for j, (ok, bad, code) in enumerate(CLI_BATTERY):
        variant = (j + seed) % 4
        argv, status = (ok, 0) if variant < 2 else (bad, code)
        out.append((argv + CLI_MODES[variant % 2], status))
    out += [(README_TOUR[(CLI_TOUR_PER_PASS * seed + k) % len(README_TOUR)], 0) for k in range(CLI_TOUR_PER_PASS)]
    rng = _rng(seed, "cli_cold")
    big = json.dumps(_entries(rng, 20, 20), separators=(",", ":"))
    n = CLI_SMALL_SIZES[seed % len(CLI_SMALL_SIZES)]
    small = json.dumps(_entries(rng, n, n), separators=(",", ":"))
    chain = json.dumps(seeded_chain_complex(rng, n), separators=(",", ":"))
    out += [(["snf", big], 0), (["snf", big, "--json"], 0)]
    out += [(["snf", small] + CLI_MODES[seed % 2], 0), (["homology", chain] + CLI_MODES[1 - seed % 2], 0)]
    rng.shuffle(out)
    return out


def run_cli_in_process(argv: list[str]):
    """(status, stdout, stderr) of extcalc.cli.run_command in this process."""
    from extcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run_command(list(argv))
    return status, out.getvalue(), err.getvalue()


class CliCold(Workload):
    """A run repeats whole passes of `cli_invocations`; one pass, with its
    reference processes, takes about 26 s on the baseline machine, so a
    25-second run measures one."""

    name = "cli_cold"
    cycle = True
    trace_ops = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        import jsonschema

        schema = json.loads((ROOT / "schemas" / "envelope-v1.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.invocations = cli_invocations(seed)
        self.reference_ops = len(self.invocations)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def process(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "extcalc.cli", *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def reference_process_s(self) -> float:
        """Wall time of one reference process (REFERENCE_IMPORTS)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
        return time.perf_counter() - start

    def op(self, i: int) -> Op:
        key = i % len(self.invocations)
        argv, status = self.invocations[key]
        return Op(argv[0], lambda: self.process(argv), key, {"argv": argv, "status": status})

    def in_process_op(self, i: int) -> Op:
        op = self.op(i)
        argv = op.meta["argv"]
        return Op(op.kind, lambda: run_cli_in_process(argv), op.key, op.meta)

    def warm_up(self):
        self.process(["canon", "Z/12"])

    def judge(self, op: Op, value, full: bool = True) -> Outcome:
        return judge_cli(self.validator, op.meta["argv"], op.meta["status"], *value)

    def judge_error(self, op: Op, exc: BaseException) -> Outcome:
        # only in-process commands (the traced run) raise
        outcome = super().judge_error(op, exc)
        outcome.known = known_defect(op.meta["argv"], f"{type(exc).__name__}: {exc}")
        return outcome


def judge_cli(validator, argv, expected, status, stdout, stderr) -> Outcome:
    """Exit status, stream discipline and the envelope of one invocation;
    the canonical text drops the (non-unique) SNF transforms."""
    outcome = _cli_outcome(validator, argv, expected, status, stdout, stderr)
    if outcome.errors and not outcome.wrong and status == 1:
        outcome.known = known_defect(argv, stderr)
    return outcome


def _cli_outcome(validator, argv, expected, status, stdout, stderr) -> Outcome:
    errors, wrong = [], []
    json_mode = "--json" in argv
    if status != expected:
        errors.append(f"exit status {status}, expected {expected}")
    if "Traceback" in stderr:
        errors.append("printed a Python traceback")
    if json_mode:
        from jsonschema import ValidationError

        try:
            with checks.unlimited_int_text():
                doc = json.loads(stdout)
            validator.validate(doc)
        except (ValueError, ValidationError) as exc:
            errors.append(f"no valid envelope: {type(exc).__name__}")
            return Outcome(f"status={status}:no-envelope", wrong, errors)
        if doc["ok"] != (status == 0):
            errors.append("envelope ok flag disagrees with the exit status")
        if stderr:
            errors.append("wrote to stderr under --json")
        if doc["ok"]:
            result = doc["result"]
            if argv[0] == "snf":
                wrong += _cli_snf_problems(argv, result["u"], result["d"], result["v"])
                result = {"d": [[checks.int_text(x) for x in row] for row in result["d"]]}
            text = f"status={status}:" + _json(result)
        else:
            text = f"status={status}:error:{doc['error']['code']}"
    elif status == 0:
        if stderr:
            errors.append("wrote to stderr on success")
        lines = stdout.rstrip("\n").split("\n")
        if argv[0] == "snf" and len(lines) == 4:
            with checks.unlimited_int_text():
                u, v = json.loads(lines[2][3:]), json.loads(lines[3][3:])
                d = json.loads(lines[1][3:])
            wrong += _cli_snf_problems(argv, u, d, v)
            lines = [lines[0], _json([[checks.int_text(x) for x in row] for row in d])]
        text = "status=0:" + "\n".join(lines)
    else:
        if stdout:
            errors.append("wrote to stdout on failure")
        first = stderr.split("\n", 1)[0]
        code = first[len("error[") : first.find("]")] if first.startswith("error[") else "?"
        text = f"status={status}:error:{code}"
    return Outcome(text, wrong, errors)


def _cli_snf_problems(argv, u, d, v) -> list[str]:
    m = json.loads(argv[1])
    return checks.smith_problems(m, u, d, v)


WORKLOADS = {w.name: w for w in (CalculusMix, WideGroups, SnfOracle, CliCold)}
