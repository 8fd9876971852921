"""Integer matrices, Smith normal form, and presented abelian groups.

This module is the package's independent computational route: groups are
given by integer relation matrices, reduced exactly over arbitrary-precision
ints, and only then converted to canonical atom form.  Nothing here consults
the closed-form tensor/Tor tables, so agreement between the two routes is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from math import gcd

from .abelian import ALL_PRIMES, AdmissibleGroup, Cyclic, Localization
from .errors import DomainError, ParseError
from .graded import GradedGroup
from .primes import factorint

__all__ = [
    "IntMatrix",
    "SNFResult",
    "ChainComplex",
    "snf",
    "invariant_factors",
    "group_from_presentation",
    "tensor_from_presentations",
    "tor_from_presentations",
    "chain_homology",
    "matmul",
    "det",
]


# ---------------------------------------------------------------------------
# Matrices.


@dataclass(frozen=True)
class IntMatrix:
    """A rows x cols integer matrix stored row-major; exact int entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DomainError("matrix dimensions must be nonnegative", code="bad_shape")
        if len(self.entries) != self.rows * self.cols:
            raise DomainError("entry count does not match dimensions", code="bad_shape")
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise DomainError(f"matrix entries must be ints, got {e!r}", code="bad_entry")

    @classmethod
    def from_rows(cls, data, cols: int | None = None) -> "IntMatrix":
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DomainError("ragged matrix rows", code="bad_shape")
            if cols is not None and cols != width:
                raise DomainError(f"expected {cols} columns, found {width}", code="bad_shape")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(data), cols, tuple(e for row in data for e in row))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


def require_integers(values, what: str):
    """A document's numbers must be JSON integers: a float, string or bool is
    a document error that names it, never a silent coercion."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"{what} must be integers, got {json.dumps(v)}", code="bad_document")


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise DomainError("matrix shape mismatch in product", code="bad_shape")
    ar, bc, n = a.rows, b.cols, a.cols
    arows, brows = a.to_rows(), b.to_rows()
    out = []
    for i in range(ar):
        row_a = arows[i]
        for j in range(bc):
            out.append(sum(row_a[k] * brows[k][j] for k in range(n)))
    return IntMatrix(ar, bc, tuple(out))


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise DomainError("determinant needs a square matrix", code="bad_shape")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form.


@dataclass(frozen=True)
class SNFResult:
    """d = u * m * v with u, v unimodular and d diagonal, nonnegative, and
    each diagonal entry dividing the next."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _smith(a: list[list[int]], rows: int, cols: int) -> list[int]:
    """Diagonalize the leading rows x cols block of `a` in place; returns its
    diagonal.  Pivots are sought only inside the block, but row operations
    act on whole rows and column operations on whole columns, so what `a`
    holds beside and below the block records the transforms (see `snf`).

    Entries are cleared with single 2x2 unimodular gcd rotations rather than
    repeated quotient subtraction, and the smallest-magnitude pivot is
    re-selected on every pass; both are needed to keep intermediate entries
    from exploding on larger matrices.
    """

    def rotate_rows(t, i):
        # Unimodular combination leaving a[t][t] = gcd and a[i][t] = 0.
        at, ai = a[t], a[i]
        piv, other = at[t], ai[t]
        if other % piv == 0:
            q = -(other // piv)
            for j in range(len(ai)):
                ai[j] += q * at[j]
            return
        g, s, w = _extended_gcd(piv, other)
        pa, pb = piv // g, other // g
        for j in range(len(at)):
            x, y = at[j], ai[j]
            at[j] = s * x + w * y
            ai[j] = pa * y - pb * x

    def rotate_cols(t, j):
        piv, other = a[t][t], a[t][j]
        if other % piv == 0:
            q = -(other // piv)
            for row in a:
                row[j] += q * row[t]
            return
        g, s, w = _extended_gcd(piv, other)
        pa, pb = piv // g, other // g
        for row in a:
            x, y = row[t], row[j]
            row[t] = s * x + w * y
            row[j] = pa * y - pb * x

    def select_pivot(t):
        best = None
        pivot = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        return pivot
        return pivot

    diag = []
    for t in range(min(rows, cols)):
        pivot = select_pivot(t)
        if pivot is None:
            break
        while True:
            pi, pj = pivot
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    rotate_rows(t, i)
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    rotate_cols(t, j)
            # Column rotations can refill the pivot column below row t; loop
            # until both the row and the column stay clear.
            if any(a[i][t] != 0 for i in range(t + 1, rows)):
                pivot = select_pivot(t)
                continue
            # Force the pivot to divide the remaining block so the diagonal
            # comes out in divisibility order.
            p = a[t][t]
            culprit = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            pivot = (t, t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        diag.append(a[t][t])
    return diag


def snf(matrix: IntMatrix) -> SNFResult:
    """Smith normal form with both transforms; empty matrices are fine.

    One elimination runs on [M | I_rows] with I_cols below it: the row
    operations that turn M into D turn I_rows into U, and the column
    operations turn I_cols into V.
    """
    r, c = matrix.rows, matrix.cols
    a = [row + [int(i == j) for j in range(r)] for i, row in enumerate(matrix.to_rows())]
    a += [[int(i == j) for j in range(c)] for i in range(c)]
    _smith(a, r, c)
    return SNFResult(
        u=IntMatrix.from_rows([row[c:] for row in a[:r]], cols=r),
        d=IntMatrix.from_rows([row[:c] for row in a[:r]], cols=c),
        v=IntMatrix.from_rows(a[r:], cols=c),
    )


def invariant_factors(matrix: IntMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    if not matrix.entries:
        return []
    return [d for d in _smith(matrix.to_rows(), matrix.rows, matrix.cols) if d != 0]


# ---------------------------------------------------------------------------
# Presented groups.


def _cokernel(free: int, factors) -> AdmissibleGroup:
    """Z^free plus Z/d for each factor d, in canonical atom form; a rank is
    a count here, never a list of that many atoms."""
    counts = Counter({Localization(ALL_PRIMES): free})
    counts.update(Cyclic(p, e) for d in factors if d > 1 for p, e in factorint(d).items())
    return AdmissibleGroup.from_counts(counts)


def group_from_presentation(generators: int, relations: IntMatrix) -> AdmissibleGroup:
    """Cokernel of a relation matrix, in canonical atom form.

    Each row of `relations` is one relation among `generators` generators, so
    the column count must equal `generators`.
    """
    if generators < 0:
        raise DomainError("generator count must be nonnegative", code="bad_shape")
    if relations.cols != generators:
        raise DomainError(
            f"relations have {relations.cols} columns but there are {generators} generators",
            code="bad_shape",
        )
    factors = invariant_factors(relations)
    return _cokernel(generators - len(factors), factors)


def tensor_from_presentations(rel_a: IntMatrix, rel_b: IntMatrix) -> AdmissibleGroup:
    """Tensor product of two presented groups, via a presentation.

    coker(A) (x) coker(B) is presented on the g_a * g_b generator pairs by
    the stacked block matrix [A (x) I ; I (x) B].
    """
    ga, gb = rel_a.cols, rel_b.cols
    arows, brows = rel_a.to_rows(), rel_b.to_rows()
    block = []
    for a in arows:
        for j in range(gb):
            row = [0] * (ga * gb)
            for i in range(ga):
                row[i * gb + j] = a[i]
            block.append(row)
    for i in range(ga):
        for b in brows:
            row = [0] * (ga * gb)
            for j in range(gb):
                row[i * gb + j] = b[j]
            block.append(row)
    return group_from_presentation(ga * gb, IntMatrix.from_rows(block, cols=ga * gb))


def tor_from_presentations(rel_a: IntMatrix, rel_b: IntMatrix) -> AdmissibleGroup:
    """Tor of two presented groups via invariant-factor pairing.

    Free parts contribute nothing; the torsion parts Z/d_i and Z/e_j pair to
    Z/gcd(d_i, e_j).
    """
    da = [d for d in invariant_factors(rel_a) if d > 1]
    db = [d for d in invariant_factors(rel_b) if d > 1]
    return _cokernel(0, [gcd(x, y) for x in da for y in db])


# ---------------------------------------------------------------------------
# Chain complexes.


@dataclass(frozen=True)
class ChainComplex:
    """Free chain complex data: ranks of C_0..C_N and boundary matrices.

    ``boundaries[i]`` is the matrix of the boundary map C_{i+1} -> C_i, with
    ranks[i] rows and ranks[i+1] columns.  Consecutive boundaries must
    compose to zero.
    """

    ranks: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    def __post_init__(self):
        if any(r < 0 for r in self.ranks):
            raise DomainError("chain ranks must be nonnegative", code="malformed_complex")
        if len(self.boundaries) != max(0, len(self.ranks) - 1):
            raise DomainError("need one boundary map per adjacent pair of degrees", code="malformed_complex")
        for i, b in enumerate(self.boundaries):
            if b.rows != self.ranks[i] or b.cols != self.ranks[i + 1]:
                raise DomainError(
                    f"boundary {i + 1} has shape {b.rows}x{b.cols}, expected {self.ranks[i]}x{self.ranks[i + 1]}",
                    code="malformed_complex",
                )
        for i, (first, second) in enumerate(zip(self.boundaries, self.boundaries[1:])):
            # a map with no entries composes to zero, however large its shape
            if first.entries and second.entries and any(matmul(first, second).entries):
                raise DomainError(
                    f"boundary composition {i + 1} o {i + 2} is nonzero", code="malformed_complex"
                )

    @classmethod
    def from_json(cls, data) -> "ChainComplex":
        try:
            ranks = list(data["ranks"])
            raw = list(data["boundaries"])
        except (KeyError, TypeError) as exc:
            raise DomainError("chain complex needs 'ranks' and 'boundaries'", code="malformed_complex") from exc
        require_integers(ranks, "chain ranks")
        mats = []
        for i, rows in enumerate(raw):
            if i + 1 >= len(ranks):
                raise DomainError("more boundaries than adjacent degree pairs", code="malformed_complex")
            r, c = ranks[i], ranks[i + 1]
            if not rows:
                # [] denotes the unique matrix when either dimension is 0.
                if r != 0 and c != 0:
                    raise DomainError("empty boundary between nonempty degrees", code="malformed_complex")
                mats.append(IntMatrix(r, c, ()))
            else:
                try:
                    rows = [list(row) for row in rows]
                except TypeError as exc:
                    raise DomainError(f"boundary {i + 1} is not a row list", code="malformed_complex") from exc
                require_integers((e for row in rows for e in row), f"boundary {i + 1} entries")
                mats.append(IntMatrix.from_rows(rows))
        return cls(tuple(ranks), tuple(mats))

    def to_json(self):
        return {"ranks": list(self.ranks), "boundaries": [b.to_rows() for b in self.boundaries]}


def chain_homology(chain: ChainComplex) -> GradedGroup:
    """Reduced integral homology of a free chain complex.

    In each degree the free rank is nullity(d_i) - rank(d_{i+1}) and the
    torsion comes from the invariant factors of d_{i+1}; one free summand in
    degree 0 is dropped for the reduction whenever it exists.
    """
    factors = [invariant_factors(b) for b in chain.boundaries] + [[]]  # no boundary maps into the top degree
    entries = {}
    for i, rank in enumerate(chain.ranks):
        free = rank - len(factors[i]) - (len(factors[i - 1]) if i else 0)
        if i == 0 and free >= 1:
            free -= 1
        entries[i] = _cokernel(free, factors[i])
    return GradedGroup.of(entries)
