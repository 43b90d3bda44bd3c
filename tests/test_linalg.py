"""Exact linear algebra: brackets, rank, kernels."""

import copy
import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from katzmod.linalg import (Matrix, bracket, rank, solve_homogeneous, solve_linear,
                            DimensionError)
from katzmod.sl2 import _blocks_on, decompose_adjoint, principal_triple


def superdiagonal_ones(k):
    m = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        m[i][i + 1] = 1
    return Matrix.from_rows(m)


def random_rational_matrix(rng, n, num=6, den=4):
    return Matrix.from_rows([[Fraction(rng.randint(-num, num), rng.randint(1, den))
                              for _ in range(n)] for _ in range(n)])


def rank_of(m):
    """linalg.rank of a dense Matrix, read through its Fraction rows."""
    return rank(m.row_lists(), m.cols)


def kernel_of(m):
    """linalg.solve_homogeneous of a dense Matrix, read through its Fraction rows."""
    return solve_homogeneous(m.row_lists(), m.cols)


def primitive(vec):
    """The rational vector times the least positive scalar that makes it integral."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def naive_product(a, b):
    """Independent multiplication oracle: plain triple loop on entry lists."""
    n = a.rows
    rows = []
    for i in range(n):
        rows.append([sum((a[i, l] * b[l, j] for l in range(n)), Fraction(0))
                     for j in range(n)])
    return Matrix.from_rows(rows)


class TestBracket:
    def test_defining_sl2_relation(self):
        e = Matrix.from_rows([[0, 1], [0, 0]])
        f = Matrix.from_rows([[0, 0], [1, 0]])
        assert bracket(e, f) == Matrix.from_rows([[1, 0], [0, -1]])

    def test_antisymmetry_on_self(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            a = random_rational_matrix(rng, n)
            assert bracket(a, a).is_zero()

    def test_principal_k3_by_direct_multiplication(self):
        # oracle: multiply out x y - y x with an independent product routine
        from katzmod.sl2 import principal_triple
        t = principal_triple(3)
        x = Matrix.from_rows([[0, t.x[0], 0], [0, 0, t.x[1]], [0, 0, 0]])
        y = Matrix.from_rows([[0, 0, 0], [t.y[0], 0, 0], [0, t.y[1], 0]])
        expected = naive_product(x, y) - naive_product(y, x)
        assert bracket(x, y) == expected
        assert expected == Matrix.diagonal([2, 0, -2])

    def test_jacobi_identity_random(self):
        rng = random.Random(11)
        for n in (2, 3):
            for _ in range(10):
                a = random_rational_matrix(rng, n)
                b = random_rational_matrix(rng, n)
                c = random_rational_matrix(rng, n)
                total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                         + bracket(c, bracket(a, b)))
                assert total.is_zero()

    def test_antisymmetry_random(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_rational_matrix(rng, 3)
            b = random_rational_matrix(rng, 3)
            assert bracket(a, b) == -bracket(b, a)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            bracket(Matrix.identity(2), Matrix.identity(3))


class TestRankAndKernel:
    def test_zero_and_identity(self):
        for k in (1, 3, 5):
            assert rank_of(Matrix.zeros(k)) == 0
            assert rank_of(Matrix.identity(k)) == k

    def test_one_jordan_block_has_corank_one(self):
        assert rank_of(superdiagonal_ones(4)) == 3

    def test_kernel_of_identity_empty(self):
        assert kernel_of(Matrix.identity(3)) == []

    def test_kernel_of_zero_full(self):
        basis = kernel_of(Matrix.zeros(2))
        assert len(basis) == 2

    def test_rank_one_kernel(self):
        m = Matrix.from_rows([[1, 1], [1, 1]])
        basis = kernel_of(m)
        assert len(basis) == 1
        v = basis[0]
        # proportional to (1, -1)
        assert v[0] == -v[1] and v[0] != 0

    def test_rank_nullity_random(self):
        rng = random.Random(17)
        for _ in range(20):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(c)]
                                  for _ in range(r)])
            assert rank_of(m) + len(kernel_of(m)) == c

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(19)
        for _ in range(10):
            m = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                                  for _ in range(3)])
            for v in kernel_of(m):
                assert (m * Matrix(len(v), 1, v)).is_zero()

    def test_integer_rows_and_fraction_rows_agree(self):
        # rows of ints, as the Lie side passes them, and the same rows as
        # Fractions scaled by 1/6, as a dense Matrix hands them out
        rng = random.Random(23)
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
            scaled = [[Fraction(x, 6) for x in row] for row in rows]
            assert rank(rows, 5) == rank(scaled, 5)
            assert solve_homogeneous(rows, 5) == solve_homogeneous(scaled, 5)
            assert all(type(x) is int for v in solve_homogeneous(rows, 5) for x in v)

    def test_rows_of_wrong_length_or_inexact_entries_rejected(self):
        for solve in (rank, solve_homogeneous):
            with pytest.raises(DimensionError, match="a row of 3 entries in a system of 2 columns"):
                solve([[1, 0], [1, 0, 0]], 2)
            with pytest.raises(DimensionError, match="a row of 1 entries"):
                solve([[1]], 2)
            for entry in (0.5, True, "1"):
                with pytest.raises(TypeError, match="exact rationals"):
                    solve([[1, entry]], 2)
                with pytest.raises(TypeError, match="exact rationals"):
                    solve([(1, 2), (entry, 1)], 2)

    def test_solve_linear_consistent(self):
        m = Matrix.from_rows([[2, 0], [0, 3]])
        sol = solve_linear(m, [4, 9])
        assert sol == [Fraction(2), Fraction(3)]

    def test_solve_linear_inconsistent(self):
        m = Matrix.from_rows([[1, 1], [1, 1]])
        assert solve_linear(m, [0, 1]) is None
        # a zero row with a nonzero right-hand side, with and without columns
        assert solve_linear(Matrix.from_rows([[1, 0], [0, 0]]), [1, 2]) is None
        assert solve_linear(Matrix(2, 0, []), [0, 1]) is None
        assert solve_linear(Matrix(2, 0, []), [0, 0]) == []

    def test_solve_linear_rhs_length_checked(self):
        # a short rhs must not drop an equation, nor a long one be cut short
        m = Matrix.from_rows([[1, 0], [1, 0]])
        with pytest.raises(DimensionError, match="has 1 entries, a 2x2 system needs 2"):
            solve_linear(m, [1])
        with pytest.raises(DimensionError, match="has 3 entries"):
            solve_linear(m, [1, 1, 5])
        assert solve_linear(m, [1, 1]) == [1, 0]

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_solve_linear_inexact_rhs_rejected(self, entry):
        # a bool is not taken as the int it equals, nor a float as its value
        with pytest.raises(TypeError, match="exact rationals"):
            solve_linear(Matrix.identity(2), [1, entry])

    def test_solve_linear_empty_systems(self):
        assert solve_linear(Matrix(0, 0, []), []) == []
        sol = solve_linear(Matrix(0, 3, []), [])
        assert sol == [0, 0, 0] and all(type(x) is Fraction for x in sol)

    def test_solve_linear_free_columns_read_zero(self):
        assert solve_linear(Matrix.from_rows([[1, 2, 0, 3]]), [5]) == [5, 0, 0, 0]
        assert solve_linear(Matrix.from_rows([[0, 1, 1], [0, 0, 0]]), [2, 0]) == [0, 2, 0]

    def test_solve_linear_fraction_rhs_exact(self):
        m = Matrix.from_rows([[3, 1], [0, 7]])
        rhs = [Fraction(1, 2), Fraction(-2, 3)]
        sol = solve_linear(m, rhs)
        assert sol == [Fraction(25, 126), Fraction(-2, 21)]
        assert m * Matrix(2, 1, sol) == Matrix(2, 1, rhs)

    @pytest.mark.parametrize("ncols", [-5, -1, True, False, 2.0, "2", None])
    def test_column_count_checked(self, ncols):
        # these used to read as 0 or 1 columns, or die with a bare TypeError
        for solve in (rank, solve_homogeneous):
            for rows in ([], [[1]]):
                with pytest.raises(DimensionError,
                                   match=rf"^need a column count that is an integer >= 0, "
                                         rf"got {re.escape(repr(ncols))}$"):
                    solve(rows, ncols)


class TestRationalInvariants:
    def test_entries_lowest_terms_positive_denominator(self):
        m = Matrix.from_rows([[Fraction(2, 4), Fraction(3, -6)], [0, 1]])
        assert m[0, 0] == Fraction(1, 2)
        assert m[0, 0].denominator == 2
        assert m[0, 1] == Fraction(-1, 2)
        assert m[0, 1].denominator == 2 and m[0, 1].numerator == -1

    def test_arithmetic_exact(self):
        third = Matrix.from_rows([[Fraction(1, 3)]])
        total = Matrix.zeros(1, 1)
        for _ in range(3):
            total = total + third
        assert total == Matrix.identity(1)

    @pytest.mark.parametrize("entry", [0.5, 1.0, True, False])
    def test_inexact_or_bool_entry_rejected(self, entry):
        with pytest.raises(TypeError, match="exact rationals"):
            Matrix(1, 1, [entry])

    @pytest.mark.parametrize("rows, cols, entries", [
        (-1, -1, [1]), (-1, 0, []), (0, -3, []), (True, True, [1]), (False, 2, []),
        (2.0, 1, [1, 2]), (1, Fraction(1), [1]), ("1", 1, [1]), (None, 0, [])])
    def test_shape_must_be_integers_at_least_zero(self, rows, cols, entries):
        with pytest.raises(DimensionError, match=r"^need a shape of integers >= 0, got "):
            Matrix(rows, cols, entries)

    def test_zeros_and_identity_check_the_shape(self):
        for n in (-2, -1, True):
            for build in (Matrix.zeros, Matrix.identity):
                with pytest.raises(DimensionError, match="need a shape of integers >= 0"):
                    build(n)
        assert Matrix.zeros(0).rows == 0 and Matrix.zeros(2, 0).cols == 0


# Reference elimination: Gauss-Jordan over Fractions, as linalg ran it before
# rank, kernels and solves moved to one integer elimination.
def fraction_rref(rows, ncols):
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def reference_kernel(m):
    rows = [row for row in m.row_lists() if any(row)]
    pivots = fraction_rref(rows, m.cols)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][free]
        basis.append(vec)
    return basis


def reference_solve(m, rhs):
    rows = [row + [Fraction(r)] for row, r in zip(m.row_lists(), rhs)]
    pivots = fraction_rref(rows, m.cols)
    if any(row[m.cols] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * m.cols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][m.cols]
    return sol


def random_shaped_matrix(rng, nrows, ncols):
    """Sparse random rationals with some zero rows, zero columns, a dependent
    row and negative leading entries."""
    rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.6 else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]
    for row in rows:
        if rng.random() < 0.2:
            row[:] = [Fraction(0)] * ncols
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None and rng.random() < 0.5:
            row[lead] = -abs(row[lead])
    for j in range(ncols):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = Fraction(0)
    if nrows >= 3 and rng.random() < 0.5:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return Matrix.from_rows(rows)


class TestEliminationAgainstFractionRref:
    SHAPES = {"tall": (7, 3), "wide": (3, 7), "square": (5, 5), "one row": (1, 4),
              "one column": (4, 1)}

    def matrices(self):
        rng = random.Random(31)
        for name, (r, c) in self.SHAPES.items():
            for _ in range(60):
                yield name, rng, random_shaped_matrix(rng, r, c)

    def structured_systems(self):
        """Integer rows of the shapes the elimination meets in katzmod, with
        their column count: the bidiagonal k x (k+1) systems of
        sl2.form_kernel, top-down and bottom-up, and the adjoint's basis
        strips on each diagonal, tuples of large ints."""
        rng = random.Random(37)
        for k in range(1, 41):
            rows = [[0] * (k + 1) for _ in range(k)]
            for i, row in enumerate(rows):
                row[i], row[i + 1] = (rng.choice((-3, -2, -1, 0, 1, 2, 5)) for _ in range(2))
            yield f"bidiagonal {k}", rows, k + 1
            yield f"bidiagonal {k} bottom-up", rows[::-1], k + 1
        for k in range(2, 9):
            dec = decompose_adjoint(principal_triple(k))
            for d in range(1 - k, k):
                rows = [dec.block(r)[r - d] for r in _blocks_on(k, d)]
                yield f"adjoint {k}", rows, k - abs(d)

    def systems(self):
        """Rows and their column count as callers pass them: each random
        matrix as Fraction lists, as tuples of ints and as lists mixing ints
        and Fractions, then the structured systems."""
        for name, _, m in self.matrices():
            rows = m.row_lists()
            yield name, rows, m.cols
            yield f"{name} int tuples", [tuple(x.numerator for x in row) for row in rows], m.cols
            yield (f"{name} ints and Fractions",
                   [[int(x) if x.denominator == 1 else x for x in row] for row in rows], m.cols)
        yield from self.structured_systems()

    def test_rank_equals_pivot_count(self):
        # rank reads the forward sweep alone, and leaves the caller's rows as they were
        for name, rows, ncols in self.systems():
            before = copy.deepcopy(rows)
            assert rank(rows, ncols) == len(fraction_rref(Matrix.from_rows(rows).row_lists(),
                                                          ncols)), name
            assert rows == before, name

    def test_kernel_basis_vector_for_vector(self):
        # the integer basis vector is the reference one (1 in its free column)
        # made primitive, so it is positive there; it is read after the
        # back-substitution, which leaves the caller's rows as they were
        for name, rows, ncols in self.systems():
            before = copy.deepcopy(rows)
            assert solve_homogeneous(rows, ncols) == \
                [primitive(v) for v in reference_kernel(Matrix.from_rows(rows))], name
            assert rows == before, name

    def test_solve_linear_solution_or_none(self):
        nones = 0
        rhs_rng = random.Random(41)
        structured = ((name, rhs_rng, Matrix.from_rows(rows))
                      for name, rows, _ in self.structured_systems())
        for name, rng, m in itertools.chain(self.matrices(), structured):
            for rhs in ([Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m.rows)],
                        [sum(m.row(i), Fraction(0)) for i in range(m.rows)]):
                before = list(rhs)
                expected = reference_solve(m, rhs)
                nones += expected is None
                assert solve_linear(m, rhs) == expected, (name, m, rhs)
                assert rhs == before, name
        assert nones  # the inconsistent branch is exercised

    def test_negative_pivots(self):
        m = Matrix.from_rows([[-2, 4, 0, -6], [0, -3, 9, 3], [-4, 5, 9, -9]])
        assert rank_of(m) == 2
        assert kernel_of(m) == [primitive(v) for v in reference_kernel(m)]
        assert solve_linear(m, [-2, 3, 1]) == reference_solve(m, [-2, 3, 1])
