#!/usr/bin/env python3
"""Soak test for pairs of independent computation routes.

Random presentation matrices feed both the closed-form atom tables and the
Smith-normal-form oracle, and each matrix feeds both reductions inside the
oracle: the invariant factors read modulo a maximal minor, and the diagonal
of the exact Smith form with its transforms.  The same two groups feed both
routes to a graded answer: `smash({1: A, 2: B}, {1: B, 3: A})` in one pass
over the atom tables, and the sums of the oracle's tensor products in degree
i + j and Tor groups in degree i + j + 1.  Random graded pairs feed both routes to the
dimension order: the dimension profiles that `leqgr` compares, read from
sigma, and homological dimensions read off full homology groups, which the
atom tables build, on every member of the coefficient family `leqgr`
checks.  Any disagreement is printed with enough detail to reproduce and
the run exits nonzero.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from extcalc import (
    AdmissibleGroup,
    Cyclic,
    GradedGroup,
    IntMatrix,
    Localization,
    PrimeSet,
    Prufer,
    dimension_profile,
    format_graded,
    graded_order_leq,
    group_from_presentation,
    homology_with_coefficients,
    invariant_factors,
    smash,
    snf,
    tensor_from_presentations,
    tor_from_presentations,
)

PRIMES = (2, 3, 5, 7, 11, 13)


def random_relations(rng: random.Random, max_dim: int, bound: int) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_graded(rng: random.Random) -> GradedGroup:
    def atom():
        roll = rng.random()
        if roll < 0.4:
            return Localization(PrimeSet(rng.random() < 0.5, rng.sample(PRIMES, rng.randint(0, 3))))
        if roll < 0.8:
            return Cyclic(rng.choice(PRIMES), rng.randint(1, 4))
        return Prufer(rng.choice(PRIMES))

    degrees = rng.sample(range(1, 7), rng.randint(0, 3))
    return GradedGroup.of({d: AdmissibleGroup.of(*(atom() for _ in range(rng.randint(1, 4)))) for d in degrees})


def profile_readings(profile, checked) -> list:
    """The profile's value on each member of `checked`: Q, then Z/p, Z/p^oo,
    Z_(p) for one prime after another."""
    values = [profile.rational]
    for g in checked[1::3]:
        (p,) = g.support_primes()
        values.extend(profile.at(p))
    return values


def smash_by_presentations(k: dict, l: dict) -> GradedGroup:
    """smash of {i: group of k[i]} and {j: group of l[j]}, given by relation
    matrices, from the SNF oracle alone: in degree n the sum of its tensor
    products over i + j = n and its Tor groups over i + j = n - 1."""
    return GradedGroup(
        (i + j + shift, product(ri, rj))
        for i, ri in k.items()
        for j, rj in l.items()
        for shift, product in ((0, tensor_from_presentations), (1, tor_from_presentations))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=5000)
    parser.add_argument("--max-dim", type=int, default=5, help="max rows/cols of a relation matrix")
    parser.add_argument("--bound", type=int, default=20, help="entry magnitude bound")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report-every", type=int, default=1000)
    cfg = parser.parse_args(argv)

    rng = random.Random(cfg.seed)
    graded_rng = random.Random(f"{cfg.seed}:graded")
    start = time.perf_counter()
    mismatches = 0
    for i in range(1, cfg.pairs + 1):
        rel_a = random_relations(rng, cfg.max_dim, cfg.bound)
        rel_b = random_relations(rng, cfg.max_dim, cfg.bound)
        a = group_from_presentation(rel_a.cols, rel_a)
        b = group_from_presentation(rel_b.cols, rel_b)
        for op, table, oracle in (
            ("tensor", a.tensor(b), tensor_from_presentations(rel_a, rel_b)),
            ("tor", a.tor(b), tor_from_presentations(rel_a, rel_b)),
        ):
            if table != oracle:
                mismatches += 1
                print(f"MISMATCH pair {i} {op}:")
                print(f"  A = {rel_a.to_rows()}")
                print(f"  B = {rel_b.to_rows()}")
                print(f"  table  -> {table}")
                print(f"  oracle -> {oracle}")
        table = smash(GradedGroup({1: a, 2: b}), GradedGroup({1: b, 3: a}))
        oracle = smash_by_presentations({1: rel_a, 2: rel_b}, {1: rel_b, 3: rel_a})
        if table != oracle:
            mismatches += 1
            print(f"MISMATCH pair {i} smash({{1: A, 2: B}}, {{1: B, 3: A}}):")
            print(f"  A = {rel_a.to_rows()}")
            print(f"  B = {rel_b.to_rows()}")
            print(f"  table  -> {format_graded(table)}")
            print(f"  oracle -> {format_graded(oracle)}")
        for name, rel in (("A", rel_a), ("B", rel_b)):
            modular = invariant_factors(rel)
            d = snf(rel).d
            exact = [x for x in d.entries[:: d.cols + 1][: min(d.rows, d.cols)] if x]
            if modular != exact:
                mismatches += 1
                print(f"MISMATCH pair {i} invariant factors of {name}:")
                print(f"  {name} = {rel.to_rows()}")
                print(f"  modular -> {modular}")
                print(f"  snf     -> {exact}")
        k, l = random_graded(graded_rng), random_graded(graded_rng)
        checked = graded_order_leq(k, l).checked
        for side in (k, l):
            profile = profile_readings(dimension_profile(side), checked)
            homology = [homology_with_coefficients(side, g).min_degree() for g in checked]
            if profile != homology:
                mismatches += 1
                print(f"MISMATCH pair {i} leqgr dimensions of {format_graded(side)}:")
                print(f"  K = {format_graded(k)}")
                print(f"  L = {format_graded(l)}")
                print(f"  profile  -> {[str(v) for v in profile]}")
                print(f"  homology -> {[str(v) for v in homology]}")
        if cfg.report_every and i % cfg.report_every == 0:
            rate = i / (time.perf_counter() - start)
            print(f"{i}/{cfg.pairs} pairs, {rate:.0f}/s, {mismatches} mismatches", flush=True)

    elapsed = time.perf_counter() - start
    print(f"done: {cfg.pairs} pairs in {elapsed:.1f}s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
