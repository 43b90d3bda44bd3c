"""Exact linear algebra over the rationals: elimination on rows, dense matrices.

Everything here is exact, with no tolerance parameter anywhere.  Rank, kernels
and solves share one fraction-free elimination on integer rows (a row with
`fractions.Fraction`s is taken times the lcm of its denominators), which
leaves rows alone where the pivot column is zero and so is fast on the sparse
structured systems that arise here.  `rank` reads its forward sweep alone;
`solve_homogeneous` adds a back-substitution, last pivot first, which keeps the
bidiagonal systems of `sl2.form_kernel` at O(k^2), and reads a kernel basis in
integers; `solve_linear` reads its solution from the kernel of the augmented
system.  `rank` and `solve_homogeneous` take rows and their column count.
`Matrix` is a dense matrix of Fractions, with rows `m.row_lists()`.
"""

from fractions import Fraction
from math import gcd, lcm


class DimensionError(ValueError):
    """Shapes do not match the operation."""


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_type(value, cls, caller):
    """Refuse anything but a cls, whose constructor validated it."""
    if not isinstance(value, cls):
        raise TypeError(f"{caller} takes a {cls.__name__}, got {type(value).__name__}")


def _make_checked(cls, fields):
    """namedtuple's _make for a record whose constructor checks its fields:
    through the constructor, so that _replace runs the same checks."""
    return cls(*fields)


def _exact(x):
    if not (_is_int(x) or isinstance(x, Fraction)):
        raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")
    return x


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(_exact(x))


class Matrix:
    """Immutable dense matrix of Fractions, row-major.  rows and cols must be
    ints >= 0, not bools; any other shape raises DimensionError."""

    __slots__ = ("rows", "cols", "_d")

    def __init__(self, rows, cols, entries):
        if not (_is_int(rows) and _is_int(cols)) or rows < 0 or cols < 0:
            raise DimensionError(f"need a shape of integers >= 0, got {rows!r}x{cols!r}")
        entries = [_as_fraction(x) for x in entries]
        if len(entries) != rows * cols:
            raise DimensionError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._d = entries

    @classmethod
    def from_rows(cls, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def zeros(cls, rows, cols=None):
        if cols is None:
            cols = rows
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n):
        return cls(n, n, [Fraction(1) if i == j else Fraction(0) for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        m = cls.zeros(n, n)
        for i, x in enumerate(diag):
            m._d[i * n + i] = _as_fraction(x)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self._d[i * self.cols + j]

    @property
    def entries(self):
        return tuple(self._d)

    def row(self, i):
        return self._d[i * self.cols:(i + 1) * self.cols]

    def row_lists(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._d == other._d)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._d)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return not any(self._d)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self._d, other._d)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self._d, other._d)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self._d])

    def scale(self, c):
        c = _as_fraction(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._d])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n, m, p = self.rows, self.cols, other.cols
        out = [Fraction(0)] * (n * p)
        for i in range(n):
            base = i * m
            obase = i * p
            for k in range(m):
                x = self._d[base + k]
                if x:
                    rb = k * p
                    for j in range(p):
                        y = other._d[rb + j]
                        if y:
                            out[obase + j] += x * y
        return Matrix(n, p, out)

    __rmul__ = scale

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [self._d[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)])

    def trace(self):
        if not self.is_square():
            raise DimensionError("trace of a non-square matrix")
        return sum((self._d[i * self.cols + i] for i in range(self.rows)), Fraction(0))


def bracket(a, b):
    """Lie bracket a*b - b*a of two square matrices of equal size."""
    _check_type(a, Matrix, "bracket")
    _check_type(b, Matrix, "bracket")
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise DimensionError("bracket needs two square matrices of equal size")
    return a * b - b * a


def _integer_rows(rows, ncols):
    """Each row, checked to hold ncols ints or Fractions, times the lcm of its
    denominators; a row of ints is copied.  ncols must be an int >= 0."""
    if not _is_int(ncols) or ncols < 0:
        raise DimensionError(f"need a column count that is an integer >= 0, got {ncols!r}")
    out = []
    for row in rows:
        if len(row) != ncols:
            raise DimensionError(f"a row of {len(row)} entries in a system of {ncols} columns")
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        den = lcm(*(_exact(x).denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _clear_column(rows, r, c, targets):
    """In place, clear column c from each row i in targets with the pivot row r.

    Fraction-free: for the pivot p = rows[r][c], a row with an entry a in
    column c becomes p*rows[i] - a*rows[r], divided by the gcd of its entries;
    rows with no entry in column c are left alone.
    """
    rr = rows[r]
    p = rr[c]
    for i in targets:
        row = rows[i]
        a = row[c]
        if a:
            row = [p * x - a * y for x, y in zip(row, rr)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row


def _forward_sweep(rows, ncols):
    """In-place elimination of integer rows below each pivot, on their first
    ncols columns; returns the pivot columns.  `rank` reads only this pass.

    The pivot of column c is the first row at or below the next pivot row
    with an entry in c, swapped up, and column c is cleared from the rows
    below it.  On return the rows are in row echelon form: row i has its
    first entry in column pivots[i], and the rows past len(pivots) are zero
    on the first ncols columns.
    """
    nrows = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r >= nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        _clear_column(rows, r, c, range(r + 1, nrows))
        pivots.append(c)
    return pivots


def rank(rows, ncols):
    """Rank over Q of rows of ncols ints or Fractions: the number of pivots."""
    return len(_forward_sweep(_integer_rows(rows, ncols), ncols))


def solve_homogeneous(rows, ncols):
    """Basis of {v : row . v = 0 for each row}, for rows as in `rank`; empty
    exactly when the kernel is zero.  One vector per free column, a list of
    ncols ints: the least positive multiple of the reduced row echelon vector
    (1 there, 0 in the other free columns) that is integral, so primitive.
    """
    rows = _integer_rows(rows, ncols)
    pivots = _forward_sweep(rows, ncols)
    # Back-substitution: clear each pivot column from the rows above it, last
    # pivot first; then row i of the reduced row echelon form is rows[i]
    # divided by its entry in column pivots[i].  Each pivot row is already
    # clear of the later pivot columns, so on a bidiagonal system
    # (`form_kernel`'s shape) each pivot meets one row above: O(k^2) for k
    # rows, against O(k^3) when clearing top-down fills in every row above.
    for r in range(len(pivots) - 1, 0, -1):
        _clear_column(rows, r, pivots[r], range(r))
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        scale = lcm(*(abs(row[c]) // gcd(row[c], row[free]) for row, c in zip(rows, pivots)))
        vec = [0] * ncols
        vec[free] = scale
        for row, c in zip(rows, pivots):
            vec[c] = -row[free] * scale // row[c]
        basis.append(vec)
    return basis


def solve_linear(m, rhs):
    """One solution of m*v = rhs over Q, or None if inconsistent.

    rhs is a list of exact rationals of length m.rows; any other length
    raises DimensionError.  The solution is read from the kernel of [m | rhs]:
    v solves the system exactly when (v, -1) is in it.  The kernel vector free
    in the last column is the one that ends in a nonzero entry, and it gives
    the solution whose free columns are 0; when the last column is a pivot,
    its pivot row is zero on m, and every kernel vector ends in 0.
    """
    if len(rhs) != m.rows:
        raise DimensionError(f"right-hand side has {len(rhs)} entries, "
                             f"a {m.rows}x{m.cols} system needs {m.rows}")
    kernel = solve_homogeneous([row + [r] for row, r in zip(m.row_lists(), rhs)], m.cols + 1)
    v = next((v for v in kernel if v[-1]), None)
    return None if v is None else [Fraction(-x, v[-1]) for x in v[:-1]]
