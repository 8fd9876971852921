"""Integer matrices, Smith normal form, and the presentation-based oracle.

The oracle route here never consults the atom tables, so the cross-checks
against `AdmissibleGroup.tensor`/`tor` are genuine two-route agreements.
"""

import hashlib
import json
import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_hypothesis, on_the_bank, st_matrix
from extcalc import (
    AdmissibleGroup,
    ChainComplex,
    Cyclic,
    DomainError,
    GradedGroup,
    IntMatrix,
    TRIVIAL,
    Z,
    chain_homology,
    cyclic,
    format_graded,
    format_group,
    group_from_presentation,
    invariant_factors,
    matmul,
    prufer,
    snf,
    tensor_from_presentations,
    tor_from_presentations,
)
from extcalc import presentation

class TestIntMatrix:
    def test_validation(self):
        with pytest.raises(DomainError):
            IntMatrix(1, 2, (1,))
        with pytest.raises(DomainError):
            IntMatrix(1, 1, (True,))
        with pytest.raises(DomainError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(DomainError) as exc:
            IntMatrix(2.0, 1, (1, 2))
        assert exc.value.code == "bad_shape"

    def test_entries_are_stored_as_a_tuple(self):
        # a list was kept: the matrix was unequal to its tuple twin and hash raised a raw TypeError
        m = IntMatrix(1, 2, [5, 6])
        assert m == IntMatrix(1, 2, (5, 6)) and hash(m) == hash(IntMatrix(1, 2, (5, 6)))
        assert m.entries == (5, 6) and IntMatrix(1, 2, iter([5, 6])) == m

    def test_shapes_are_checked(self):
        row = IntMatrix.from_rows([[1, 2]])
        for build in (lambda: matmul(row, row), lambda: IntMatrix.from_rows([[1, 2]], cols=3)):
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == "bad_shape"

    def test_round_trip(self):
        rows = [[1, 2], [3, 4], [5, 6]]
        assert IntMatrix.from_rows(rows).to_rows() == rows

    def test_matmul(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert matmul(a, b).to_rows() == [[2, 1], [4, 3]]
        with pytest.raises(DomainError):
            matmul(a, IntMatrix.from_rows([[1, 2, 3]]))


def check_smith_form(m: IntMatrix) -> list[int]:
    """U M V = D with U, V unimodular and D a nonnegative diagonal in
    divisibility order whose nonzero part is `invariant_factors`; returns it."""
    res = snf(m)
    assert matmul(matmul(res.u, m), res.v) == res.d
    assert invariant_factors(res.u) == [1] * res.u.rows  # unimodular
    assert invariant_factors(res.v) == [1] * res.v.rows
    d = res.d.to_rows()
    diag = [d[i][i] for i in range(min(m.rows, m.cols))]
    assert all(d[i][j] == 0 for i in range(m.rows) for j in range(m.cols) if i != j)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    if 0 in diag:
        assert all(x == 0 for x in diag[diag.index(0) :])
    assert invariant_factors(m) == nonzero
    return nonzero


class TestSmithNormalForm:
    def test_known_forms(self):
        assert invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]])) == [2, 4]
        assert invariant_factors(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]
        assert invariant_factors(IntMatrix.from_rows([[0, 0], [0, 0]])) == []
        assert invariant_factors(IntMatrix.from_rows([[6]])) == [6]
        assert invariant_factors(IntMatrix(0, 3, ())) == []
        assert invariant_factors(IntMatrix(3, 0, ())) == []

    @given(st_matrix)
    def test_decomposition(self, m):
        check_smith_form(m)

    @pytest.mark.parametrize(
        "shape, rank",
        [("12x20", 12), ("20x12", 12), ("rank 5 of 20x20", 5), ("zero rows", 6), ("zero columns", 6),
         ("0x7", 0), ("7x0", 0), ("all zero", 0), ("12x40", 12), ("40x12", 12), ("rank 5 of 30x30", 5)],
    )
    def test_seeded_decompositions_past_the_hypothesis_sizes(self, shape, rank):
        rng = random.Random(shape)

        def seeded(rows, cols, bound=20):
            return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]

        rows = {
            "12x20": lambda: seeded(12, 20),
            "20x12": lambda: seeded(20, 12),
            "rank 5 of 20x20": lambda: matmul(
                IntMatrix.from_rows(seeded(20, 5, 5)), IntMatrix.from_rows(seeded(5, 20, 5))
            ).to_rows(),
            "zero rows": lambda: [[0] * 12 if i % 3 == 0 else row for i, row in enumerate(seeded(9, 12))],
            "zero columns": lambda: [[0 if j % 3 == 0 else x for j, x in enumerate(row)] for row in seeded(12, 9)],
            "0x7": lambda: [],
            "7x0": lambda: [[]] * 7,
            "all zero": lambda: [[0] * 8] * 5,
            "12x40": lambda: seeded(12, 40),
            "40x12": lambda: seeded(40, 12),
            # torsion in the middle factor gives factors past 1 (here 2, 6, 12, 60, 120)
            "rank 5 of 30x30": lambda: matmul(
                matmul(
                    IntMatrix.from_rows(seeded(30, 5, 5)),
                    IntMatrix.from_rows([[d * (i == j) for j in range(5)] for i, d in enumerate((2, 6, 12, 60, 120))]),
                ),
                IntMatrix.from_rows(seeded(5, 30, 5)),
            ).to_rows(),
        }[shape]()
        m = IntMatrix.from_rows(rows, cols=7 if shape == "0x7" else None)
        assert (m.rows, m.cols) != (0, 0)
        assert len(check_smith_form(m)) == rank

    def test_transforms_match_the_recorded_golden(self):
        # U, D and V are not unique; these pin the ones `snf --json` prints
        rng = random.Random(50)
        forms = []
        for _ in range(50):
            rows, cols, bound = rng.randint(0, 12), rng.randint(0, 12), rng.choice((1, 3, 20))
            m = IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols)
            res = snf(m)
            forms.append([res.u.to_rows(), res.d.to_rows(), res.v.to_rows()])
        digest = hashlib.sha256(json.dumps(forms).encode()).hexdigest()
        assert digest == "6fed402e06bc2ed2ad5b72bed3de35689b434bee85cbc86d37ed2ae3c2153b59"

    @given(st_matrix)
    def test_factors_match_full_form(self, m):
        res = snf(m)
        diag = [res.d.to_rows()[i][i] for i in range(min(m.rows, m.cols))]
        assert invariant_factors(m) == [x for x in diag if x]

    @given(st_matrix)
    def test_factors_match_sympy_rank(self, m):
        # Independent cross-check of the rank through a second implementation.
        assert len(invariant_factors(m)) == sympy.Matrix(m.rows, m.cols, list(m.entries)).rank()


def matrices(rows, cols, bound):
    return st.lists(
        st.lists(st.integers(min_value=-bound, max_value=bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda data: IntMatrix.from_rows(data, cols=cols))


# B C with an inner dimension of at most 4: rank-deficient for most shapes
st_low_rank = st.tuples(*(st.integers(min_value=0, max_value=m) for m in (8, 8, 4))).flatmap(
    lambda s: st.tuples(matrices(s[0], s[2], 12), matrices(s[2], s[1], 12)).map(lambda bc: matmul(*bc))
)


class TestModularInvariantFactors:
    """`invariant_factors` eliminates modulo a nonzero maximal minor and shares
    no elimination with `snf`, so agreement between them is a two-route check."""

    @settings(max_examples=200)
    @given(st_low_rank)
    def test_low_rank_products_match_snf(self, m):
        check_smith_form(m)

    @pytest.mark.parametrize("n, seconds", [(40, 1.0), (60, 10.0)])
    def test_large_square_matches_sympy_determinant(self, n, seconds):
        rng = random.Random(f"square {n}")
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        start = time.perf_counter()
        factors = invariant_factors(IntMatrix.from_rows(rows))
        assert time.perf_counter() - start < seconds
        product = 1
        for f in factors:
            product *= f
        assert len(factors) == n
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert product == abs(sympy.Matrix(rows).det())

    def test_never_runs_the_transform_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_hermite called")

        monkeypatch.setattr(presentation, "_hermite", refuse)
        assert invariant_factors(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])) == [2, 6, 12]
        assert group_from_presentation(3, IntMatrix.from_rows([[2, 0, 0], [0, 0, 0]])) == cyclic(2) + Z + Z
        chain = ChainComplex.from_json({"ranks": [1, 1, 1], "boundaries": [[[0]], [[6]]]})
        assert chain_homology(chain) == GradedGroup.of({1: cyclic(6)})
        with pytest.raises(AssertionError):
            snf(IntMatrix.from_rows([[1]]))


class TestAnswerLimit:
    def test_the_limit_is_read_from_the_shape_before_any_elimination(self, monkeypatch):
        assert presentation.SNF_MAX_CELLS == 500**2
        assert snf(IntMatrix(500, 0, ())).u == IntMatrix(500, 500, tuple(int(i % 501 == 0) for i in range(500**2)))
        monkeypatch.setattr(presentation, "_hermite", None)  # any elimination fails
        for rows, cols in ((501, 0), (0, 501), (300, 401), (10**6, 0)):
            with pytest.raises(DomainError) as exc:
                snf(IntMatrix(rows, cols, (0,) * (rows * cols)))
            assert exc.value.code == "answer_too_large"


class TestBoundedTransforms:
    """`snf` reduces every Hermite pass as it goes, so U and V stay near the
    size of the minors of M instead of growing with each elimination step."""

    @pytest.mark.parametrize("n, digits", [(30, 120), (40, 160)])
    def test_transform_digits_stay_bounded(self, n, digits):
        rng = random.Random(f"growth {n}")
        for _ in range(3):
            m = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
            res = snf(m)
            assert matmul(matmul(res.u, m), res.v) == res.d
            assert max(abs(x) for x in res.u.entries + res.v.entries).bit_length() < digits * 3.32

    @pytest.mark.parametrize("n, seconds", [(40, 1.0), (60, 10.0)])
    def test_large_square_in_time(self, n, seconds):
        rng = random.Random(f"snf square {n}")
        m = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        start = time.perf_counter()
        res = snf(m)
        assert time.perf_counter() - start < seconds
        assert matmul(matmul(res.u, m), res.v) == res.d
        d = res.d.to_rows()
        diag = [d[i][i] for i in range(n)]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert [x for x in diag if x] == invariant_factors(m)  # the route that shares no elimination with snf

    def test_answers_without_the_invariant_factor_route(self, monkeypatch):
        # the two routes share no elimination: snf answers with the other one gone
        def refuse(*args):
            raise AssertionError("invariant factor route called")

        rng = random.Random("independent")
        m = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(12)] for _ in range(9)])
        expected = invariant_factors(m)
        for name in ("_bareiss", "_diagonal_ideals_mod", "invariant_factors"):
            monkeypatch.setattr(presentation, name, refuse)
        res = snf(m)
        assert matmul(matmul(res.u, m), res.v) == res.d
        assert [x for x in (res.d.to_rows()[i][i] for i in range(9)) if x] == expected


class TestRanksAreCounts:
    """A rank's value never sets the amount of work."""

    @pytest.mark.parametrize(
        "compute, expected",
        [
            (lambda: format_group(group_from_presentation(10**12, IntMatrix(0, 10**12, ()))), "Z^1000000000000"),
            (lambda: format_graded(chain_homology(ChainComplex((10**12,), ()))), "{0: Z^999999999999}"),
            (
                lambda: format_graded(
                    chain_homology(ChainComplex((30000, 0, 30000), (IntMatrix(30000, 0, ()), IntMatrix(0, 30000, ()))))
                ),
                "{0: Z^29999, 2: Z^30000}",
            ),
        ],
        ids=["present", "homology", "empty maps"],
    )
    def test_large_ranks_answer_at_once(self, compute, expected):
        start = time.perf_counter()
        assert compute() == expected
        assert time.perf_counter() - start < 1.0

    def test_matrices_without_entries(self):
        assert invariant_factors(IntMatrix(10**12, 0, ())) == []
        assert invariant_factors(IntMatrix(0, 10**12, ())) == []


class TestPresentedGroups:
    def test_diagonal_presentations(self):
        assert group_from_presentation(2, IntMatrix.from_rows([[2, 0], [0, 3]])) == cyclic(6)
        assert group_from_presentation(2, IntMatrix.from_rows([[0, 0]])) == Z + Z
        assert group_from_presentation(1, IntMatrix.from_rows([[12]])) == cyclic(12)
        assert group_from_presentation(0, IntMatrix(0, 0, ())) == TRIVIAL
        assert group_from_presentation(1, IntMatrix.from_rows([[1]])) == TRIVIAL

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            group_from_presentation(3, IntMatrix.from_rows([[1, 2]]))
        for generators, rows in ((2.0, [[2, 0]]), (True, [[2]])):
            with pytest.raises(DomainError) as exc:
                group_from_presentation(generators, IntMatrix.from_rows(rows))
            assert exc.value.code == "bad_shape"

    def test_row_operations_preserve_cokernel(self):
        m = IntMatrix.from_rows([[2, 4], [6, 8]])
        swapped = IntMatrix.from_rows([[6, 8], [2, 4]])
        combined = IntMatrix.from_rows([[2, 4], [6 + 2 * 2, 8 + 2 * 4]])
        g = group_from_presentation(2, m)
        assert group_from_presentation(2, swapped) == g
        assert group_from_presentation(2, combined) == g

    @given(st_matrix)
    def test_presented_group_order_matches_determinant(self, m):
        # For a square presentation with nonzero determinant the group is
        # finite of order |det|.
        if m.rows == m.cols and m.rows > 0 and (det := int(sympy.Matrix(m.to_rows()).det())) != 0:
            g = group_from_presentation(m.cols, m)
            order = 1
            for atom in g.atoms():
                order *= atom.prime**atom.power
            assert order == abs(det)


class TestOracleAgreement:
    """Atom-table products versus the presentation oracle (finitely
    generated inputs only, since only those have finite presentations)."""

    def check_pair(self, ma, mb):
        a = group_from_presentation(ma.cols, ma)
        b = group_from_presentation(mb.cols, mb)
        assert a.tensor(b) == tensor_from_presentations(ma, mb)
        assert a.tor(b) == tor_from_presentations(ma, mb)

    test_seeded_sample = on_the_bank("tensor and Tor by presentations")
    test_hypothesis_matrices = on_hypothesis("tensor and Tor by presentations")

    def test_torsion_heavy_pairs(self):
        self.check_pair(
            IntMatrix.from_rows([[4, 0], [0, 6]]), IntMatrix.from_rows([[8, 0], [0, 9]])
        )
        self.check_pair(IntMatrix.from_rows([[12]]), IntMatrix.from_rows([[18]]))

    def test_free_against_torsion(self):
        self.check_pair(IntMatrix(0, 2, ()), IntMatrix.from_rows([[5]]))


class TestPruferAsColimit:
    """The table entries for Z/p^oo are limits of cyclic-stage data; check
    the stages through the oracle rather than the table itself."""

    def test_tor_stages_stabilize(self):
        # Tor(Z/p^m, Z/p^k) = Z/p^min stabilizes at Z/p^k once m >= k.
        for m in range(3, 7):
            stage = tor_from_presentations(
                IntMatrix.from_rows([[2**m]]), IntMatrix.from_rows([[8]])
            )
            assert stage == cyclic(8)
        assert prufer(2).tor(cyclic(8)) == cyclic(8)

    def test_tensor_stages_die_along_the_maps(self):
        # The colimit uses p-fold transition maps; after k steps every
        # element of Z/p^m (x) Z/p^k is multiplied by p^k, hence killed,
        # which is why the table entry is trivial.
        p, k = 3, 2
        for m in range(2, 6):
            stage = tensor_from_presentations(
                IntMatrix.from_rows([[p**m]]), IntMatrix.from_rows([[p**k]])
            )
            exponent = sum(a.power for a in stage.atoms())
            assert p**exponent == p ** min(m, k)  # stage value
            assert pow(p, k, p ** min(m, k)) == 0  # k transition steps kill it
        assert prufer(p).tensor(cyclic(p**k)) == TRIVIAL


class TestChainHomology:
    def test_sphere(self):
        chain = ChainComplex.from_json({"ranks": [1, 0, 1], "boundaries": [[], []]})
        assert chain_homology(chain) == GradedGroup.of({2: Z})

    def test_projective_plane(self):
        chain = ChainComplex.from_json({"ranks": [1, 1, 1], "boundaries": [[[0]], [[2]]]})
        assert chain_homology(chain) == GradedGroup.of({1: cyclic(2)})

    def test_torus(self):
        chain = ChainComplex.from_json(
            {"ranks": [1, 2, 1], "boundaries": [[[0, 0]], [[0], [0]]]}
        )
        assert chain_homology(chain) == GradedGroup.of({1: Z + Z, 2: Z})

    def test_disconnected_zero_skeleton(self):
        # Two points, no higher cells: one reduced class remains in degree 0.
        chain = ChainComplex.from_json({"ranks": [2], "boundaries": []})
        assert chain_homology(chain) == GradedGroup.of({0: Z})

    def test_composition_must_vanish(self):
        with pytest.raises(DomainError):
            ChainComplex.from_json({"ranks": [1, 1, 1], "boundaries": [[[1]], [[1]]]})

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ChainComplex.from_json({"ranks": [1, 2], "boundaries": [[[1]]]})
        with pytest.raises(DomainError):
            ChainComplex.from_json({"ranks": [1]})
        with pytest.raises(DomainError):
            ChainComplex.from_json({"ranks": [1, 1], "boundaries": [[]]})
        for build in (lambda: ChainComplex((1.5,), ()), lambda: chain_homology(ChainComplex((2.0,), ()))):
            with pytest.raises(DomainError) as exc:
                build()
            assert exc.value.code == "malformed_complex"

    @pytest.mark.parametrize("ranks, boundaries", [(5, ()), ((1,), 5), (None, ()), ((1, 1), None)])
    def test_ranks_and_boundaries_must_be_sequences(self, ranks, boundaries):
        # ChainComplex(5, ()) raised a TypeError from iterating 5
        with pytest.raises(DomainError) as exc:
            ChainComplex(ranks, boundaries)
        assert exc.value.code == "malformed_complex"

    def test_lists_are_read_as_tuples(self):
        c = ChainComplex([1, 1], [IntMatrix.from_rows([[2]])])
        assert c == ChainComplex((1, 1), (IntMatrix.from_rows([[2]]),))
        hash(c)  # list fields made the record unhashable

    def test_a_boundary_must_be_a_matrix(self):
        for boundaries in ((5,), ([[1]],), (ChainComplex((1,), ()),)):
            with pytest.raises(DomainError) as exc:
                ChainComplex((1, 1), boundaries)
            assert exc.value.code == "not_a_group"

    def test_json_round_trip(self):
        doc = {"ranks": [1, 2, 1], "boundaries": [[[0, 0]], [[2], [-2]]]}
        assert ChainComplex.from_json(doc).to_json() == doc

    @settings(max_examples=30)
    @given(st.integers(min_value=2, max_value=30))
    def test_mod_n_moore_complex(self, n):
        chain = ChainComplex.from_json({"ranks": [1, 1, 1], "boundaries": [[[0]], [[n]]]})
        assert chain_homology(chain) == GradedGroup.of({1: cyclic(n)})
