"""Integer matrices, Smith normal form, and presented abelian groups.

This module is the package's independent computational route: groups are
given by integer relation matrices, reduced exactly over arbitrary-precision
ints, and only then converted to canonical atom form.  Nothing here consults
the closed-form tensor/Tor tables, so agreement between the two routes is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from sympy import factorint

from .abelian import ALL_PRIMES, AdmissibleGroup, Cyclic, Localization
from .errors import DomainError
from .graded import GradedGroup

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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


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


def _smith(m: list[list[int]], rows: int, cols: int, track: bool):
    """Diagonalize in place; returns (diagonal entries, U rows, V rows).

    Entries are cleared with single 2x2 unimodular gcd rotations rather than
    repeated quotient subtraction, and the smallest-magnitude pivot is
    re-selected on every pass; both are needed to keep intermediate entries
    from exploding on larger matrices.
    """
    u = [[int(i == j) for j in range(rows)] for i in range(rows)] if track else None
    v = [[int(i == j) for j in range(cols)] for i in range(cols)] if track else None

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if track:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        if track:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        mdst, msrc = m[dst], m[src]
        for j in range(cols):
            mdst[j] += q * msrc[j]
        if track:
            udst, usrc = u[dst], u[src]
            for j in range(rows):
                udst[j] += q * usrc[j]

    def rotate_rows(t, i):
        # Unimodular combination leaving m[t][t] = gcd and m[i][t] = 0.
        a, b = m[t][t], m[i][t]
        if b % a == 0:
            add_row(i, t, -(b // a))
            return
        g, s, w = _extended_gcd(a, b)
        pa, pb = a // g, b // g
        mt, mi = m[t], m[i]
        for j in range(cols):
            x, y = mt[j], mi[j]
            mt[j] = s * x + w * y
            mi[j] = pa * y - pb * x
        if track:
            ut, ui = u[t], u[i]
            for j in range(rows):
                x, y = ut[j], ui[j]
                ut[j] = s * x + w * y
                ui[j] = pa * y - pb * x

    def rotate_cols(t, j):
        a, b = m[t][t], m[t][j]
        if b % a == 0:
            q = -(b // a)
            for row in m:
                row[j] += q * row[t]
            if track:
                for row in v:
                    row[j] += q * row[t]
            return
        g, s, w = _extended_gcd(a, b)
        pa, pb = a // g, b // g
        for row in m:
            x, y = row[t], row[j]
            row[t] = s * x + w * y
            row[j] = pa * y - pb * x
        if track:
            for row in v:
                x, y = row[t], row[j]
                row[t] = s * x + w * y
                row[j] = pa * y - pb * x

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        if track:
            u[i] = [-x for x in u[i]]

    def select_pivot(t):
        best = None
        pivot = None
        for i in range(t, rows):
            mi = m[i]
            for j in range(t, cols):
                x = mi[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        return pivot
        return pivot

    diag = []
    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = select_pivot(t)
        if pivot is None:
            break
        while True:
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    rotate_rows(t, i)
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    rotate_cols(t, j)
            # Column rotations can refill the pivot column below row t; loop
            # until both the row and the column stay clear.
            if any(m[i][t] != 0 for i in range(t + 1, rows)):
                pivot = select_pivot(t)
                continue
            # Force the pivot to divide the remaining submatrix so the
            # diagonal comes out in divisibility order.
            p = m[t][t]
            culprit = None
            for i in range(t + 1, rows):
                mi = m[i]
                for j in range(t + 1, cols):
                    if mi[j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(t, culprit, 1)
            pivot = (t, t)
        if m[t][t] < 0:
            negate_row(t)
        diag.append(m[t][t])
        t += 1

    return diag, u, v


def snf(matrix: IntMatrix) -> SNFResult:
    """Smith normal form with both transforms; empty matrices are fine."""
    m = matrix.to_rows()
    diag, u, v = _smith(m, matrix.rows, matrix.cols, track=True)
    d = IntMatrix.from_rows(m, cols=matrix.cols)
    return SNFResult(
        u=IntMatrix.from_rows(u, cols=matrix.rows),
        d=d,
        v=IntMatrix.from_rows(v, cols=matrix.cols),
    )


def invariant_factors(matrix: IntMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    diag, _, _ = _smith(matrix.to_rows(), matrix.rows, matrix.cols, track=False)
    return [d for d in diag if d != 0]


# ---------------------------------------------------------------------------
# Presented groups.


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
    free_rank = generators - len(factors)
    atoms = []
    for d in factors:
        if d > 1:
            atoms.extend(Cyclic(p, e) for p, e in factorint(d).items())
    atoms.extend(Localization(ALL_PRIMES) for _ in range(free_rank))
    return AdmissibleGroup.of(*atoms)


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
    atoms = []
    for x in da:
        for y in db:
            g = gcd(x, y)
            if g > 1:
                atoms.extend(Cyclic(p, e) for p, e in factorint(g).items())
    return AdmissibleGroup.of(*atoms)


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
        for i in range(len(self.boundaries) - 1):
            square = matmul(self.boundaries[i], self.boundaries[i + 1])
            if any(square.entries):
                raise DomainError(
                    f"boundary composition {i + 1} o {i + 2} is nonzero", code="malformed_complex"
                )

    @classmethod
    def from_json(cls, data) -> "ChainComplex":
        try:
            ranks = [int(r) for r in data["ranks"]]
            raw = list(data["boundaries"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError("chain complex needs 'ranks' and 'boundaries'", code="malformed_complex") from exc
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
                    mats.append(IntMatrix.from_rows(rows))
                except TypeError as exc:
                    raise DomainError(f"boundary {i + 1} is not a row list", code="malformed_complex") from exc
        return cls(tuple(ranks), tuple(mats))

    def to_json(self):
        return {"ranks": list(self.ranks), "boundaries": [b.to_rows() for b in self.boundaries]}


def chain_homology(chain: ChainComplex) -> GradedGroup:
    """Reduced integral homology of a free chain complex.

    In each degree the free rank is nullity(d_i) - rank(d_{i+1}) and the
    torsion comes from the invariant factors of d_{i+1}; one free summand in
    degree 0 is dropped for the reduction whenever it exists.
    """
    n = len(chain.ranks)
    factors = [invariant_factors(b) for b in chain.boundaries]
    ranks_of_maps = [len(f) for f in factors]
    entries = {}
    for i in range(n):
        rank_in = ranks_of_maps[i] if i < len(factors) else 0
        rank_out = ranks_of_maps[i - 1] if i >= 1 else 0
        free = chain.ranks[i] - rank_out - rank_in
        torsion = [d for d in (factors[i] if i < len(factors) else []) if d > 1]
        if i == 0 and free >= 1:
            free -= 1
        atoms = [Localization(ALL_PRIMES)] * free
        for d in torsion:
            atoms.extend(Cyclic(p, e) for p, e in factorint(d).items())
        group = AdmissibleGroup.of(*atoms)
        if not group.is_trivial:
            entries[i] = group
    return GradedGroup.of(entries)
