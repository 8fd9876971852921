"""extcalc.primes against sympy as the oracle, and the factoring budget end to end."""

import json
import random
import time

import pytest
import sympy

from extcalc import primes
from extcalc.primes import factorint, isprime, nextprime
from conftest import VALIDATOR, run

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745, 63973,
              75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561,
              399001, 410041, 449065, 488881, 512461, 9746347772161, 1436697831295441, 60977817398996785)
# The least strong pseudoprime to the first k prime bases, at each base-set boundary of isprime.
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
# 7 * 11 * 13 * 59 times primes of 12, 15, 27 and 31 digits: rho needs about 10**6 steps for the first
BEYOND_BUDGET = 10**87 + 1
# Seeded numbers (random.Random(k).randrange(1, 10**k), 200 for each k <= 29) that ended in factorization_budget
# while trial division stopped at 41 and rho also had to split off their factors between 41 and 2**16.
NOW_FACTORED = (72415132699807077442539961, 94401635115879384412072713, 4560830764766954657289103912,
                18270474151495708741694154124, 62791395955493032350026194190, 29738997623434744030896050809,
                90385805604687826516889705374)
TABLE_PRIMES = tuple(sympy.primerange(2**16))


class TestIsprime:
    def test_small_range(self):  # crosses the edge of the sieve at 2**16
        assert [n for n in range(-5, 10**5) if isprime(n)] == list(sympy.primerange(10**5))

    @pytest.mark.parametrize("n", CARMICHAEL)
    def test_carmichael_numbers(self, n):
        assert isprime(n) is False is sympy.isprime(n)

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_at_each_boundary(self, n):
        for m in range(n - 2, n + 3):
            assert isprime(m) == sympy.isprime(m), m

    def test_seeded_odd_64_to_256_bits(self):
        rng = random.Random(6)
        for bits in range(64, 257, 16):
            for _ in range(100):
                n = rng.getrandbits(bits) | 1 | 1 << (bits - 1)
                assert isprime(n) == sympy.isprime(n), n

    def test_products_of_large_primes_beyond_the_deterministic_range(self):
        rng = random.Random(7)
        for _ in range(20):
            p, q = (sympy.nextprime(rng.getrandbits(100)) for _ in range(2))
            assert isprime(p) and isprime(q)
            assert not isprime(p * q) and not isprime(p * p)


class TestNextprime:
    def test_across_the_edge_of_the_sieve(self):  # the last table prime is 65521, the first past it 65537
        assert [nextprime(n) for n in range(-3, 66000)] == [sympy.nextprime(n) for n in range(-3, 66000)]

    def test_seeded_large(self):
        rng = random.Random(8)
        for bits in (17, 32, 64, 100):
            for _ in range(20):
                n = rng.getrandbits(bits)
                assert nextprime(n) == sympy.nextprime(n), n


class TestPrimeTable:
    def test_chunks_are_runs_of_consecutive_table_primes(self):
        runs = [TABLE_PRIMES[i : i + 32] for i in range(0, len(TABLE_PRIMES), 32)]
        assert [(lo, hi) for lo, hi, _ in primes._CHUNKS] == [(run[0], run[-1] + 1) for run in runs]
        assert all(product == sympy.prod(run) for (_, _, product), run in zip(primes._CHUNKS, runs))

    def test_products_around_chunk_edges(self):
        for i in range(0, len(TABLE_PRIMES), 32):
            first, last = TABLE_PRIMES[i], TABLE_PRIMES[min(i + 31, len(TABLE_PRIMES) - 1)]
            after = sympy.nextprime(last)
            for n in (first, last, first * last, last * after, last**2 * after, first**3, first * after * 65537):
                assert factorint(n) == sympy.factorint(n), n

    def test_the_table_edge(self):
        q = sympy.nextprime(10**19 + 12345)  # 20 digits
        for n in (65521, 65537, 65521 * 65537, 65521**2, 65537**2 * 3, 2 * q, 65521 * q, 65537 * q, 2**16 * q):
            assert factorint(n) == sympy.factorint(n), n
        for k in range(1, 9):
            assert factorint(65537**k) == {65537: k}

    def test_small_factors_never_reach_rho(self, monkeypatch):
        monkeypatch.setattr(primes, "_rho", None)  # any call fails
        rng = random.Random(11)
        for _ in range(300):
            # sympy's own factorint is slow on many factors near 2**16, so the expected answer is the construction
            expected = {p: rng.randint(1, 4) for p in sorted(rng.sample(TABLE_PRIMES, rng.randint(1, 12)))}
            n = sympy.prod(p**e for p, e in expected.items())
            assert factorint(n) == expected, n
            assert factorint(n * (2**61 - 1)) == {**expected, 2**61 - 1: 1}, n


class TestFactorint:
    def test_seeded_up_to_1e14(self):
        rng = random.Random(8)
        for _ in range(2000):
            n = rng.randint(1, 10**14)
            assert factorint(n) == sympy.factorint(n), n

    def test_square_of_a_30_digit_prime(self):
        p = sympy.nextprime(10**29 + 12345)
        assert factorint(p * p) == {p: 2}
        assert factorint(2**5 * 43 * p**3) == {2: 5, 43: 1, p: 3}

    def test_balanced_semiprime_found_in_one_batch(self):
        # rho meets both 11-digit factors in the same gcd batch; only retracing
        # that batch splits them before the budget runs out
        p, q = 30000110867, 31001577109
        assert factorint(p * q) == {p: 1, q: 1}

    def test_increasing_primes(self):
        assert list(factorint(2**3 * 3 * 1000003**2 * 41)) == [2, 3, 41, 1000003]


class TestFactoringBudget:
    @pytest.mark.parametrize("n", NOW_FACTORED)
    def test_numbers_the_step_count_gave_up_on(self, n):
        assert factorint(n) == sympy.factorint(n)

    def test_budget_counts_work_on_large_numbers(self):
        # a 3x3 presentation with 300-digit entries has a ~900-digit invariant factor, whose rho steps each
        # cost 576 of the budget; counting steps alone, it took half a minute to give up
        rng = random.Random(300)
        rows = [[rng.choice((-1, 1)) * rng.randrange(10**299, 10**300) for _ in range(3)] for _ in range(3)]
        start = time.perf_counter()
        code, out, err = run(["present", json.dumps(rows), "-g", "3"])
        assert time.perf_counter() - start < 2
        assert (code, out) == (1, "") and err.startswith("error[factorization_budget]:")

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_hostile_modulus_ends_with_a_typed_error(self, mode):
        start = time.perf_counter()
        code, out, err = run(["canon", f"Z/{BEYOND_BUDGET}", *mode])
        assert time.perf_counter() - start < 10
        assert code == 1
        if mode:
            doc = json.loads(out)
            VALIDATOR.validate(doc)
            assert doc["error"]["code"] == "factorization_budget" and err == ""
        else:
            assert out == "" and err.startswith("error[factorization_budget]:")
