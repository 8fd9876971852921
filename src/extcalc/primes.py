"""Primality and factorization of ints with the standard library only: a sieve of the primes below 2**16, built at
import, answers `isprime` there and drives trial division, where `factorint` takes one gcd of n with the product of
each run of 32 consecutive table primes and divides by the run's primes only when that gcd is not 1 (Crandall-Pomerance
2005, section 3.2).  Above the table, `isprime` is Miller-Rabin with the fewest prime bases that are exact below n
(Sorenson-Webster 2017), and the strong Baillie-PSW test from 3.3e24 on (Baillie-Wagstaff 1980).  A cofactor with no
prime factor below 2**16 is tested for a perfect power and then split by Pollard-Brent rho (Brent 1980) under a budget
on work: each step costs the square of n's size in 128-bit words."""

from itertools import chain, compress, islice
from math import gcd, isqrt, prod

from .errors import DomainError

_TABLE = 1 << 16  # isprime reads the sieve below this; factorint trial-divides by every prime below it
_SIEVE = bytearray([0, 0, 1, 1]) + bytearray([0, 1]) * (_TABLE // 2 - 2)  # after the loop, 1 at the primes only
for _p in range(3, isqrt(_TABLE) + 1, 2):
    if _SIEVE[_p]:
        _SIEVE[_p * _p :: 2 * _p] = bytes(len(range(_p * _p, _TABLE, 2 * _p)))
_PRIMES = chain((2,), compress(range(3, _TABLE, 2), _SIEVE[3::2]))
# (first prime, past the last prime, product) of each run of 32 table primes; a run's primes are read off the sieve
_CHUNKS = tuple((run[0], run[-1] + 1, prod(run)) for run in iter(lambda: list(islice(_PRIMES, 32)), []))
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMORIAL = prod(_SMALL)
# (psi_k, k): below psi_k, the least strong pseudoprime to the first k prime bases, those k bases decide
_BASES = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5), (3474749660383, 6),
    (341550071728321, 7), (3825123056546413051, 9), (318665857834031151167461, 12), (3317044064679887385961981, 13))
RHO_BUDGET = 1 << 20  # rho work per factorint call: steps, each weighted by ((bits >> 7) + 1) ** 2


def isprime(n: int) -> bool:
    """Whether n is prime: a table lookup below 2**16, exact below 3.3e24, the strong Baillie-PSW test from there on."""
    if n < _TABLE:
        return n > 0 and _SIEVE[n] == 1
    if gcd(n, _PRIMORIAL) != 1:
        return False
    k = next((k for bound, k in _BASES if n < bound), 0)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _SMALL[: k or 1]:  # strong probable prime tests
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return k > 0 or (isqrt(n) ** 2 != n and _strong_lucas(n))


def _jacobi(a, n):
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a, sign = a // 2, -sign if n % 8 in (3, 5) else sign
        a, n, sign = n % a, a, -sign if a % 4 == 3 == n % 4 else sign
    return sign if n == 1 else 0


def _strong_lucas(n):
    """The strong Lucas test on a non-square n, with Selfridge's parameters P = 1, Q = (1 - D)/4."""
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    Q, s = (1 - D) // 4, ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q  # U_1, V_1, Q^1; the loop walks the bits of d = (n + 1) >> s
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = U + V, D * U + V, Qk * Q % n  # twice U_{k+1} and V_{k+1}
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
    hit = U == 0
    for _ in range(s):  # V_{d 2^r} for r < s
        hit, V, Qk = hit or V == 0, (V * V - 2 * Qk) % n, Qk * Qk % n
    return j != 0 and hit


def _root(n, k):  # floor(n ** (1/k)), by Newton's method from above
    r = 1 << -(-n.bit_length() // k)
    while (t := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = t
    return r


def _rho(n, budget):
    """A proper factor of n (odd, composite, not a perfect power) by Pollard-Brent rho, and the budget left."""
    cost = ((n.bit_length() >> 7) + 1) ** 2  # a step's multiplications cost the square of n's 128-bit word count
    for c in range(1, RHO_BUDGET):  # each try spends budget, so the budget ends the loop
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if (budget := budget - r * cost) < 0:
                raise DomainError(f"a {n.bit_length()}-bit factor is past the rho budget", code="factorization_budget")
            x = ys = y
            for _ in range(r):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g, r = gcd(q, n), 2 * r
        for _ in range(r // 2 if g == n else 0):  # the batch passed both factors: retrace it step by step
            ys = (ys * ys + c) % n
            if (g := gcd(x - ys, n)) > 1:
                break
        if 1 < g < n:
            return g, budget


def factorint(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1, in increasing p."""
    factors, prime = {}, isprime(n)
    for lo, hi, product in _CHUNKS:
        if prime or n < lo * lo:  # no prime below lo divides n, so n is 1 or prime
            break
        if (g := gcd(n, product)) > 1:  # g is the product of the run's primes that divide n
            for p in compress(range(lo, hi), _SIEVE[lo:hi]):
                if g % p == 0:
                    factors[p], n, g = 1, n // p, g // p
                    while n % p == 0:
                        factors[p], n = factors[p] + 1, n // p
                    if g == 1:
                        break
            prime = isprime(n)
    if prime:
        factors[n] = 1
    elif n > 1:  # a composite with no prime factor below 2**16
        budget, pending = RHO_BUDGET, [(n, 1)]
        while pending:
            m, e = pending.pop()
            if isprime(m):
                factors[m] = factors.get(m, 0) + e
            elif (k := next((k for k in range(m.bit_length() // 16, 1, -1) if _root(m, k) ** k == m), 1)) > 1:
                pending.append((_root(m, k), e * k))  # a perfect power; its root is over 2**16
            else:
                d, budget = _rho(m, budget)
                pending += [(d, e), (m // d, e)]
        return dict(sorted(factors.items()))
    return factors
