"""Outcome checks shared by the workloads.

Everything here is independent of the extcalc code under test except where a
check deliberately compares two routes through it (atom tables against the
presentation oracle, the two pairing routes, ...).  Integer sizes are taken
from ``int.bit_length()`` and never from ``str()``: transform entries of the
Smith normal form pass Python's 4300-digit int-to-str limit at n = 20.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import sys
from math import log10
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Two fixed 61-bit primes for the modular check of U*M*V = D: multiplying
# out transforms with thousands of digits costs more than the SNF itself.
CHECK_PRIMES = (2305843009213693951, 2305843009213693921)
EXACT_CHECK_BITS = 64

_LOG10_2 = log10(2)


def decimal_digits(x: int) -> int:
    """Exact decimal digit count of |x| (1 for zero), without str()."""
    x = abs(x)
    if x == 0:
        return 1
    d = int((x.bit_length() - 1) * _LOG10_2) + 1
    if x >= 10**d:
        d += 1
    elif x < 10 ** (d - 1):
        d -= 1
    return d


def max_digits(values) -> int:
    return max((decimal_digits(v) for v in values), default=0)


def int_text(x: int) -> str:
    """Canonical text of an int of any size (hex has no length limit)."""
    return format(x, "x")


DIGEST_BYTES = 3


def digest(kind: str, text: str) -> bytes:
    """Three bytes standing for one operation's canonical outcome: a wrong
    answer slips past with probability 2**-24 per operation."""
    return hashlib.sha1(f"{kind}|{text}".encode()).digest()[:DIGEST_BYTES]


@contextlib.contextmanager
def unlimited_int_text():
    """Lift the int<->str digit limit for the checker's own parsing only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# Reference digests, one line per committed seed: "<seed> <base64 digests>".


def load_reference(workload: str, seed: int) -> list[bytes] | None:
    path = REFERENCE_DIR / f"{workload}.txt"
    if not path.is_file():
        return None
    for line in path.read_text().splitlines():
        head, _, body = line.partition(" ")
        if head == str(seed):
            raw = base64.b64decode(body)
            return [raw[i : i + DIGEST_BYTES] for i in range(0, len(raw), DIGEST_BYTES)]
    return None


def save_reference(workload: str, seed: int, digests: list[bytes]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.txt"
    lines = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            head, _, body = line.partition(" ")
            lines[int(head)] = body
    lines[seed] = base64.b64encode(b"".join(digests)).decode()
    path.write_text("".join(f"{s} {lines[s]}\n" for s in sorted(lines)))


# ---------------------------------------------------------------------------
# Integer linear algebra used only to check results.


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _mod_rows(m, q):
    return [[x % q for x in row] for row in m]


def det_mod(m: list[list[int]], q: int) -> int:
    """Determinant of a square matrix modulo the prime q."""
    a = _mod_rows(m, q)
    n = len(a)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % q
        inv = pow(a[c][c], -1, q)
        for r in range(c + 1, n):
            f = a[r][c] * inv % q
            if f:
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[c])]
    return det % q


def rank_mod(m: list[list[int]], q: int = CHECK_PRIMES[0]) -> int:
    """Rank modulo a 61-bit prime; equals the rational rank for the small
    matrices of this benchmark unless q divides every maximal minor."""
    a = _mod_rows(m, q)
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, q)
        for r in range(rank + 1, len(a)):
            f = a[r][c] * inv % q
            if f:
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def exact_det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant, written independently of the
    package's own."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def smith_problems(m, u, d, v) -> list[str]:
    """Check D = U*M*V, D diagonal with a nonnegative divisibility chain, and
    U, V unimodular.  Transforms with entries past 64 bits are checked
    modulo each of CHECK_PRIMES."""
    rows, cols = len(m), len(m[0]) if m else 0
    out = []
    if len(u) != rows or len(v) != cols or len(d) != rows:
        return ["transform shapes do not match the matrix"]
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x:
                return ["D is not diagonal"]
            if i == j:
                diag.append(x)
    if any(x < 0 for x in diag):
        out.append("D has a negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a):
            out.append("D's diagonal is not a divisibility chain")
            break
    bits = max((abs(x).bit_length() for row in u + v for x in row), default=0)
    if bits <= EXACT_CHECK_BITS:
        if matmul(matmul(u, m), v) != d:
            out.append("U*M*V != D")
        primes = CHECK_PRIMES[:1]
    else:
        primes = CHECK_PRIMES
        for q in primes:
            um = [[x % q for x in row] for row in matmul(_mod_rows(u, q), m)]
            lhs = [[x % q for x in row] for row in matmul(um, _mod_rows(v, q))]
            if lhs != _mod_rows(d, q):
                out.append(f"U*M*V != D modulo {q}")
                break
    for name, t in (("U", u), ("V", v)):
        if any(det_mod(t, q) not in (1, q - 1) for q in primes):
            out.append(f"{name} is not unimodular")
    return out
