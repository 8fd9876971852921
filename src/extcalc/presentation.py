"""Integer matrices, Smith normal form, and presented abelian groups.

This module is the package's independent computational route: groups are
given by integer relation matrices, reduced to their invariant factors, and
only then converted to canonical atom form.  Nothing here consults the
closed-form tensor/Tor tables, so agreement between the two routes is a
meaningful check rather than a tautology.

There are two reductions, and they never share an elimination, so each
checks the other.  `snf` builds both transforms from reduced Hermite passes
(`_hermite`, Kannan-Bachem 1979): rows enter one at a time and the entries
above the pivots are reduced after each one, so U and V stay near the size
of the minors of M (Havas-Majewski-Matthews 1998 discuss transform size),
where unreduced elimination lets them grow exponentially with M's size.
`invariant_factors`, which the presented groups and chain homology use,
eliminates modulo a minor found by one fraction-free pass (`_bareiss`), so
no entry outgrows it: a nonzero maximal minor, or on a square matrix of
full rank the gcd of four (n-1) x (n-1) minors and the determinant.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, compress
from math import gcd, prod

from .abelian import (
    ALL_PRIMES, AdmissibleGroup, Cyclic, Localization, _checked_int, _checked_kind, _converted, _is_int, _record,
)
from .errors import DomainError, ParseError
from .graded import GradedGroup
from .primes import factorint


# ---------------------------------------------------------------------------
# Matrices.


@_record
class IntMatrix:
    """A rows x cols integer matrix stored row-major as a tuple of exact ints,
    read from any sequence of them."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        for n in (self.rows, self.cols):
            _checked_int(n, 0, code="bad_shape", message="matrix dimensions must be nonnegative")
        entries = _converted(self.entries, tuple, "a sequence of matrix entries", "bad_entry")
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.rows * self.cols:
            raise DomainError("entry count does not match dimensions", code="bad_shape")
        if not set(map(type, self.entries)) <= {int}:  # only a subclass or a non-int needs a closer look
            for e in self.entries:
                if not _is_int(e):
                    raise DomainError(f"matrix entries must be ints, got {e!r}", code="bad_entry")

    @classmethod
    def from_rows(cls, data, cols: int | None = None) -> "IntMatrix":
        data = _converted(data, lambda rows: [list(row) for row in rows], "a sequence of matrix rows", "bad_shape")
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DomainError("ragged matrix rows", code="bad_shape")
            if cols is not None and cols != width:
                raise DomainError(f"expected {cols} columns, found {width}", code="bad_shape")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(data), cols, [e for row in data for e in row])

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


_checked_matrix = partial(_checked_kind, kind=IntMatrix, name="an integer matrix")


def require_integers(values, what: str):
    """A document's numbers must be JSON integers: a float, string or bool is
    a document error that names it, never a silent coercion."""
    for v in values:
        if not _is_int(v):
            raise ParseError(f"{what} must be integers, got {json.dumps(v)}", code="bad_document")


def require_list(value, what: str) -> list:
    """A document's sequences must be JSON lists: a string or an object named
    `what` is a document error, never iterated as if it were one."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON list", code="bad_document")
    return value


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if _checked_matrix(a).cols != _checked_matrix(b).rows:
        raise DomainError("matrix shape mismatch in product", code="bad_shape")
    ar, bc, n = a.rows, b.cols, a.cols
    arows, brows = a.to_rows(), b.to_rows()
    out = []
    for i in range(ar):
        row_a = arows[i]
        for j in range(bc):
            out.append(sum(row_a[k] * brows[k][j] for k in range(n)))
    return IntMatrix(ar, bc, out)


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination of the rows `m` in place; returns the rank r,
    a nonzero r x r minor (1 when r = 0), and T, a multiple of the gcd of the
    (n-1) x (n-1) minors when `m` is n x n of full rank.

    Each pivot is the first nonzero entry at or below the current row in the
    next column that has one; columns with none are skipped.  Every entry
    below the current row stays a minor of the input, so each division by
    the previous pivot is exact (Sylvester's identity) and no entry grows
    past the size of a minor.  The minor is that of the pivot rows and
    columns, signed by the row swaps, so on a square matrix of full rank it
    is the determinant.  There pivot t sits in column t, so the step at row
    and column n - 2 holds (n-1) x (n-1) minors of the row-permuted input in
    its trailing 2 x 2 block, and T is their gcd (1 when n = 1).
    """
    rows = len(m)
    r, sign, prev, tail = 0, 1, 1, 1
    for k in range(len(m[0]) if m else 0):
        if r == rows:
            break
        for i in range(r, rows):
            if m[i][k] != 0:
                break
        else:
            continue
        if r == rows - 2 and k == len(m[0]) - 2:
            tail = gcd(*m[r][k:], *m[r + 1][k:])
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        piv = top[k]
        for i in range(r + 1, rows):
            row = m[i]
            x = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * piv - x * top[j]) // prev
            row[k] = 0
        prev = piv
        r += 1
    return r, sign * prev, tail


# ---------------------------------------------------------------------------
# Smith normal form.


@_record
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


# How far an entry above a pivot other than 1 may pass that pivot, in bits,
# before `_hermite` reduces it.  Entries above a pivot 1 are always cleared.
SLACK_BITS = 64

# The most cells `snf` writes in its two transforms, rows**2 + cols**2: square
# matrices up to 353 x 353.  Past it the answer is refused, never truncated.
SNF_MAX_CELLS = 250_000


def _hermite(rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Row Hermite normal form of `rows` on their first `width` entries.

    Returns the pivot rows in echelon order, their pivot columns, and the
    rows that became zero in the first `width` entries.  The entries past
    `width` ride along as a transform: every operation acts on whole rows,
    but pivots are sought and entries reduced only in the first `width`.

    Rows are inserted one at a time, in Kannan-Bachem order.  A new row is
    cleared against each pivot row by subtracting a multiple when the pivot
    divides its entry, else by a 2x2 gcd rotation that also replaces the
    pivot row.  After each insertion the entries above the pivots that
    changed are reduced: above a pivot 1 they are cleared, and above a
    larger pivot p one is brought into [0, p) once it passes p by
    SLACK_BITS bits.  So the rows that later insertions subtract stay near
    the size of the pivots; reducing only once, at the end, lets entries
    grow exponentially with the number of rows.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    zero = []
    for row in rows:
        i = done = 0  # the row is zero before column `done`
        start = len(basis)  # the pivot rows from `start` on change
        while i < len(basis) and (pivots[i] == done or not any(row[done : pivots[i]])):
            k = pivots[i]
            done = k + 1
            x = row[k]
            if x:
                top = basis[i]
                p = top[k]
                if p == 1 or not x % p:
                    q = x // p
                    row = [y - q * z for y, z in zip(row, top)]
                else:
                    g, s, t = _extended_gcd(p, x)
                    a, b = p // g, x // g
                    basis[i] = [s * z + t * y for z, y in zip(top, row)]
                    row = [a * y - b * z for z, y in zip(top, row)]
                    start = min(start, i)
            i += 1
        lead = next(compress(range(done, width), row[done:width]), None)
        if lead is None:
            zero.append(row)
        else:
            basis.insert(i, [-x for x in row] if row[lead] < 0 else row)
            pivots.insert(i, lead)
            start = min(start, i)
        for i in range(start, len(basis)):
            k = pivots[i]
            low = basis[i]
            p = low[k]
            limit = p.bit_length() + SLACK_BITS
            for h in range(i):
                x = basis[h][k]
                if x and (p == 1 or x.bit_length() > limit):
                    q = x // p
                    basis[h] = [y - q * z for y, z in zip(basis[h], low)]
    return basis, pivots, zero


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def snf(matrix: IntMatrix) -> SNFResult:
    """Smith normal form with both transforms; empty matrices are fine.

    U is rows x rows and V is cols x cols whatever the entries, so an
    answer past `SNF_MAX_CELLS` cells of U plus V is refused from the shape
    alone, before any elimination, with `answer_too_large`.

    `_hermite` brings [M | I_rows] to Hermite form H, whose right part is U.
    A column of H with pivot 1 is a unit vector, so column operations that
    change only that pivot's row clear the row, and V takes only entries
    of H.  What is left is a block, usually 1x1 to 3x3, on which column and
    row Hermite passes alternate until it is diagonal; 2x2 gcd/lcm steps
    then put the diagonal in divisibility order.  Each pass keeps its
    entries near the size of its pivots, so U and V stay near the size of
    the minors of M rather than growing with every elimination step.
    `invariant_factors` is the independent route to the same diagonal.
    """
    r, c = _checked_matrix(matrix).rows, matrix.cols
    if r * r + c * c > SNF_MAX_CELLS:
        raise DomainError(
            f"the transforms of a {r}x{c} matrix have {r * r + c * c} cells, past the limit of {SNF_MAX_CELLS}",
            code="answer_too_large",
        )
    basis, pivots, zero = _hermite([row + e for row, e in zip(matrix.to_rows(), _identity(r))], c)
    vcols = _identity(c)  # V, column by column
    u_units, v_units, block, near, units = [], [], [], [], set()
    for row, j in zip(basis, pivots):
        if row[j] == 1:
            # column j is a unit vector; subtracting it from the other columns clears this row
            units.add(j)
            u_units.append(row[c:])
            v_units.append(vcols[j])
            for k in range(j + 1, c):
                if row[k]:
                    vcols[k][j] = -row[k]
        else:
            block.append(row[:c])
            near.append(row[c:])
    rest = [k for k in range(c) if k not in units]
    # The block's rows pair with the transforms `near` and its columns with
    # `far`.  A column pass turns the block over and swaps the two sides;
    # `flipped` says whether `near` now holds columns of V.
    block = [[row[k] for k in rest] for row in block]
    far = [vcols[k] for k in rest]
    near_zero, far_zero = [row[c:] for row in zero], []
    flipped = False
    while any(sum(1 for x in row if x) > 1 for row in block):
        height = len(block)
        basis, _, dropped = _hermite([list(col) + t for col, t in zip(zip(*block), far)], height)
        block = [row[:height] for row in basis]
        near, far = [row[height:] for row in basis], near
        near_zero, far_zero = far_zero + [row[height:] for row in dropped], near_zero
        flipped = not flipped
    # each row of the block now has one nonzero entry, in increasing columns
    cols = [next(k for k, x in enumerate(row) if x) for row in block]
    values = [row[k] for row, k in zip(block, cols)]
    far_zero += [t for k, t in enumerate(far) if k not in cols]
    far = [far[k] for k in cols]
    us, vs, u_zero, v_zero = (far, near, far_zero, near_zero) if flipped else (near, far, near_zero, far_zero)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[j] % values[i]:
                # [[s, t], [-b/g, a/g]] diag(a, b) [[1, -t b/g], [1, s a/g]] = diag(g, lcm(a, b))
                g, s, t = _extended_gcd(values[i], values[j])
                a, b = values[i] // g, values[j] // g
                ui, uj, vi, vj = us[i], us[j], vs[i], vs[j]
                us[i] = [s * x + t * y for x, y in zip(ui, uj)]
                us[j] = [a * y - b * x for x, y in zip(ui, uj)]
                vs[i] = [x + y for x, y in zip(vi, vj)]
                vs[j] = [s * a * y - t * b * x for x, y in zip(vi, vj)]
                values[i], values[j] = g, values[i] * b
    d = [0] * (r * c)
    for i, x in enumerate([1] * len(u_units) + values):
        d[i * (c + 1)] = x
    return SNFResult(
        u=IntMatrix(r, r, chain.from_iterable(u_units + us + u_zero)),
        d=IntMatrix(r, c, d),
        v=IntMatrix(c, c, chain.from_iterable(zip(*(v_units + vs + v_zero)))),
    )


def _diagonal_ideals_mod(a: list[list[int]], modulus: int) -> list[int]:
    """Diagonalize the rows `a` over Z/modulus, consuming them; returns
    gcd(pivot, modulus) for each pivot found, in no particular order.

    Every entry is kept reduced mod `modulus`, so none grows past it.  A
    pivot row is cleared below in column k by subtracting multiples of it
    when the pivot's ideal holds the entry, and otherwise by a 2x2 gcd
    rotation, after which the pivot generates a strictly smaller ideal.
    Once the pivot's ideal holds the rest of its row, column operations
    would only clear that row, so the row and column k are dropped.  If it
    does not, one column rotation shrinks the pivot's ideal and refills
    column k, and the step repeats; a modulus has finitely many divisors.
    """
    ideals = []
    while True:
        first = next((i for i, row in enumerate(a) if any(row)), None)
        if first is None:
            return ideals
        pivot_row = a.pop(first)
        k = min((j for j, x in enumerate(pivot_row) if x), key=pivot_row.__getitem__)
        while True:
            p = pivot_row[k]
            g = gcd(p, modulus)
            inverse = pow(p // g, -1, modulus // g)
            for i, row in enumerate(a):
                x = row[k]
                if x == 0:
                    continue
                if x % g == 0:
                    q = x // g * inverse
                    a[i] = [(y - q * z) % modulus for y, z in zip(row, pivot_row)]
                    continue
                h, s, w = _extended_gcd(p, x)
                pa, pb = p // h, x // h
                pivot_row, a[i] = (
                    [(s * y + w * z) % modulus for y, z in zip(pivot_row, row)],
                    [(pa * z - pb * y) % modulus for y, z in zip(pivot_row, row)],
                )
                p = pivot_row[k]
                g = gcd(p, modulus)
                inverse = pow(p // g, -1, modulus // g)
            culprit = next((j for j, x in enumerate(pivot_row) if x % g), None)
            if culprit is None:
                break
            h, s, w = _extended_gcd(p, pivot_row[culprit])
            pa, pb = p // h, pivot_row[culprit] // h
            for row in a + [pivot_row]:
                y, z = row[k], row[culprit]
                row[k], row[culprit] = (s * y + w * z) % modulus, (pa * z - pb * y) % modulus
        ideals.append(g)
        for row in a:
            del row[k]


def invariant_factors(matrix: IntMatrix) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order.

    A `_bareiss` pass gives the rank r, a nonzero r x r minor D and T.  The
    Smith form over Z, reduced mod m, is the Smith form over Z/m, so
    eliminating M mod m, where no entry grows past m, gives the factors as
    ideals gcd(pivot, m), padded with m up to r (a factor m is 0 mod m) and
    put in divisibility order by pairwise gcd/lcm, which needs no factoring.
    A factor that divides m comes out exact.  The first r factors multiply
    to the gcd of all r x r minors, so m = |D| gives them all.  On a square
    M of full rank the first n - 1 multiply to
    the gcd of the (n-1) x (n-1) minors (Newman 1972, ch. II), which divides
    T, so m = T, far smaller, gives all but the last, which is |D| over
    their product (Domich-Kannan-Trotter 1987).  `snf` is the other route:
    exact elimination with its transforms.
    """
    if not _checked_matrix(matrix).entries:
        return []
    rank, minor, tail = _bareiss(matrix.to_rows())
    if rank == 0:
        return []
    square = rank == matrix.rows == matrix.cols
    modulus = tail if square else abs(minor)
    rows = [[x % modulus for x in row] for row in matrix.to_rows()]
    ideals = _diagonal_ideals_mod(rows, modulus)
    units = ideals.count(1)  # unit ideals come first; only the rest need ordering
    factors = [g for g in ideals if g > 1] + [modulus] * (rank - len(ideals))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            x, y = factors[i], factors[j]
            if y % x:
                g = gcd(x, y)
                factors[i], factors[j] = g, x // g * y
    factors = ([1] * units + factors)[:rank]
    if square:
        factors[-1] = abs(minor) // prod(factors[:-1])
    return factors


# ---------------------------------------------------------------------------
# Presented groups.


def _cokernel(free: int, factors) -> AdmissibleGroup:
    """Z^free plus Z/d for each factor d, in canonical atom form; a rank is
    a count here, never a list of that many atoms, and factorint's primes are trusted."""
    torsion = [(Cyclic._new(p, e), 1) for d in factors if d > 1 for p, e in factorint(d).items()]
    return AdmissibleGroup.from_counts([(Localization._new(ALL_PRIMES), free), *torsion])


def group_from_presentation(generators: int, relations: IntMatrix) -> AdmissibleGroup:
    """Cokernel of a relation matrix, in canonical atom form.

    Each row of `relations` is one relation among `generators` generators, so
    the column count must equal `generators`.
    """
    _checked_int(generators, 0, code="bad_shape", message="generator count must be nonnegative")
    if _checked_matrix(relations).cols != generators:
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
    ga, gb = _checked_matrix(rel_a).cols, _checked_matrix(rel_b).cols
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


@_record
class ChainComplex:
    """Free chain complex data: ranks of C_0..C_N and boundary matrices.

    ``boundaries[i]`` is the matrix of the boundary map C_{i+1} -> C_i, with
    ranks[i] rows and ranks[i+1] columns.  Consecutive boundaries must
    compose to zero.
    """

    ranks: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    def __post_init__(self):
        for name in ("ranks", "boundaries"):
            value = _converted(getattr(self, name), tuple, f"a sequence of chain {name}", "malformed_complex")
            object.__setattr__(self, name, value)
        for r in self.ranks:
            _checked_int(r, 0, code="malformed_complex", message="chain ranks must be nonnegative")
        if len(self.boundaries) != max(0, len(self.ranks) - 1):
            raise DomainError("need one boundary map per adjacent pair of degrees", code="malformed_complex")
        for i, b in enumerate(self.boundaries):
            if _checked_matrix(b).rows != self.ranks[i] or b.cols != self.ranks[i + 1]:
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
        """The complex of a JSON document: its lists and integers are checked
        (`bad_document`) before its ranks and shapes (`malformed_complex`)."""
        try:
            ranks, raw = data["ranks"], data["boundaries"]
        except (KeyError, TypeError) as exc:
            raise DomainError("chain complex needs 'ranks' and 'boundaries'", code="malformed_complex") from exc
        require_integers(require_list(ranks, "'ranks'"), "chain ranks")
        for i, rows in enumerate(require_list(raw, "'boundaries'")):
            for j, row in enumerate(require_list(rows, f"boundary {i + 1}")):
                require_integers(require_list(row, f"row {j + 1} of boundary {i + 1}"), f"boundary {i + 1} entries")
        for r in ranks:
            _checked_int(r, 0, code="malformed_complex", message="chain ranks must be nonnegative")
        if len(raw) > max(0, len(ranks) - 1):
            raise DomainError("more boundaries than adjacent degree pairs", code="malformed_complex")
        mats = []
        for rows, r, c in zip(raw, ranks, ranks[1:]):
            # [] denotes the unique matrix when either dimension is 0.
            if not rows and r != 0 and c != 0:
                raise DomainError("empty boundary between nonempty degrees", code="malformed_complex")
            mats.append(IntMatrix.from_rows(rows) if rows else IntMatrix(r, c, ()))
        return cls(ranks, mats)

    def to_json(self):
        return {"ranks": list(self.ranks), "boundaries": [b.to_rows() for b in self.boundaries]}


def chain_homology(chain: ChainComplex) -> GradedGroup:
    """Reduced integral homology of a free chain complex.

    In each degree the free rank is nullity(d_i) - rank(d_{i+1}) and the
    torsion comes from the invariant factors of d_{i+1}; one free summand in
    degree 0 is dropped for the reduction whenever it exists.
    """
    chain = _checked_kind(chain, ChainComplex, "a chain complex")
    factors = [invariant_factors(b) for b in chain.boundaries] + [[]]  # no boundary maps into the top degree
    entries = {}
    for i, rank in enumerate(chain.ranks):
        free = rank - len(factors[i]) - (len(factors[i - 1]) if i else 0)
        if i == 0 and free >= 1:
            free -= 1
        entries[i] = _cokernel(free, factors[i])
    return GradedGroup.of(entries)
