"""Principal sl2-triples in sl_k and the adjoint decomposition.

The triple here is the standard one attached to the regular nilpotent: x has
ones on the superdiagonal, h = diag(k-1, k-3, ..., -(k-1)), and y has
subdiagonal entries i(k-i); the triple is held as these three integer strips.
Sign convention: [x, y] = +h, so that the displayed structure constants
([x^r, ad(y)x^s] = 2rs x^(r+s-1), ad(h)x^r = 2r x^r) hold literally.  Under
the adjoint action of this sl2, the traceless matrices decompose into
irreducible pieces U_r of highest weight 2r, r = 1..k-1, with basis
{ad(y)^i x^r | 0 <= i <= 2r}; cf. Bourbaki LIE VIII.11 or Kostant.
AdjointDecomposition is built from its triple and from nothing else, so every
decomposition is one whose strips were computed here and checked direct.

The decomposition works in the h-weight grading.  ad(h) multiplies E_ij by
h_i - h_j = 2(j - i), so the weight spaces of sl_k are its diagonals j - i = d.
The basis vector ad(y)^i x^r lies on the single diagonal d = r - i and is held
only as that diagonal's entries, its strip: no block basis vector is ever a
dense matrix.  A product or bracket of two strips is one O(k) pass, and lands
on the sum of their diagonals; x^r is the top strip of U_r and ad(y) x^s the
next of U_s, so each bracket identity is one bracket of two held strips.
The 2r steps ad(y) down each block run on one kernel: for S on e, the strips
of YS and SY are one entrywise product each, and they line up on e - 1 once
the entry each one lacks at an end is taken as 0, so [Y, S] is one entrywise
difference.  Dot products are builtin maps too.

Coefficients in the block basis come from the trace form <A, B> = tr(AB).
For A on the diagonal d and B on -d the two strips have k - |d| entries each,
and tr(AB) is their dot product index by index; strips on diagonals that are
not opposite pair to 0.  The form is ad-invariant, so distinct blocks U_t are
orthogonal, and the basis strips b_t(d) and b_t(-d) of one block pair to a
nonzero number.  The U_t-coefficient of a strip m on d is therefore
<m, b_t(-d)> / <b_t(d), b_t(-d)>: one integer dot product over another, with
no inverse.  A bracket support needs only one bracket, of the top vector x^r
of U_r with the lowest vector of U_s: x^r (x) U_s generates U_r (x) U_s as an
sl2-module, and bracketing with x^r commutes with ad x, which carries the
lowest vector of U_s onto the rest of its basis.
An h-invariant bilinear form lives on the entries with h_a + h_b = 0 (the
antidiagonal), which is where `form_kernel` starts: it takes the triple and
refines h's antidiagonal forms by x and y; the invariant form is its
antidiagonal strip.  Only `project_to_blocks`, on whole matrices, builds a
dense Matrix.
"""

import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import mul, sub

from .linalg import Matrix, rank, solve_homogeneous, _is_int, _make_checked, _check_type


class Sl2Triple(namedtuple("Sl2Triple", "k x h y")):
    """An sl2-triple (x, h, y) in sl_k with [h,x]=2x, [h,y]=-2y, [x,y]=h, held
    as integer strips: x is the superdiagonal (k-1 entries), h the diagonal
    (k entries) and y the subdiagonal (k-1 entries).  Strips of the wrong
    length and entries that are not ints (floats, bools, Fractions) raise
    ValueError, also from _replace."""
    __slots__ = ()

    def __new__(cls, k, x, h, y):
        if not _is_int(k) or k < 2:
            raise ValueError(f"need an integer k >= 2, got {k!r}")
        for name, d, strip in (("x", 1, x), ("h", 0, h), ("y", -1, y)):
            if not isinstance(strip, (list, tuple)) or len(strip) != k - abs(d):
                raise ValueError(f"{name} must be a list of {k - abs(d)} integers "
                                 f"(the diagonal j - i = {d} of sl_{k}), got {strip!r}")
            for v in strip:
                if not _is_int(v):
                    raise ValueError(f"{name} entry {v!r} is not an integer")
        return super().__new__(cls, k, tuple(x), tuple(h), tuple(y))

    _make = classmethod(_make_checked)

    def validate(self):
        """Check the defining relations; raises ValueError on the first failure.

        Once [x, y] = h holds, h is a commutator and so traceless.  x^(k-1)
        is the product of x's entries on the corner E_(0,k-1), so x is a
        one-block nilpotent exactly when none of them is 0.
        """
        k, x, h, y = self.k, self.x, self.h, self.y
        checks = (
            (_strip_bracket(k, 0, h, 1, x) == [2 * v for v in x], "[h, x] != 2x"),
            (_strip_bracket(k, 0, h, -1, y) == [-2 * v for v in y], "[h, y] != -2y"),
            (_strip_bracket(k, 1, x, -1, y) == list(h), "[x, y] != h"),
            (all(x), "x is not a one-block nilpotent"),
        )
        for ok, failure in checks:
            if not ok:
                raise ValueError(f"not a principal sl2-triple: {failure}")
        return self


class AdjointDecomposition(namedtuple("AdjointDecomposition", "k blocks")):
    """sl_k = U_1 + ... + U_(k-1) under ad of the triple t: the block basis as
    strips.

    The basis {ad(y)^i x^r} of each block is computed from the triple's
    strips and held strip by strip, ad(y)^i x^r on the diagonal r - i: x^r
    by strip products, then 2r brackets with y by `_ad_y`.  The strips are
    the only copy of the basis, read by `basis_rank` and the bracket
    identities.  Then `_check_direct` raises RuntimeError unless the blocks
    are direct.  blocks holds U_r at r - 1, its 2r+1 int tuples.  The
    constructor takes the triple alone, so _make and _replace raise
    TypeError; a copy or an unpickled decomposition is rebuilt from its
    fields, with nothing computed or checked again.
    """
    __slots__ = ()

    def __new__(cls, t):
        _check_type(t, Sl2Triple, "AdjointDecomposition")
        k, xs, ys = t.k, t.x, t.y
        blocks = []
        power = [1] * k  # strip of x^0 on the main diagonal
        for r in range(1, k):
            power = _strip_product(k, r - 1, power, 1, xs)
            strips = [tuple(power)]
            for e in range(r, -r, -1):
                strips.append(_ad_y(ys, e, strips[-1]))
            blocks.append(tuple(strips))
        blocks = tuple(blocks)
        _check_direct(k, blocks)
        return super().__new__(cls, k, blocks)

    _make = classmethod(_make_checked)

    def __reduce__(self):
        return tuple.__new__, (type(self), tuple(self))

    def block(self, r):
        """The strips of U_r; an r that is not an int in 1..k-1 raises ValueError."""
        if not _is_int(r) or not 1 <= r < self.k:
            raise ValueError(f"need an integer r in 1..{self.k - 1}, got {r!r}")
        return self.blocks[r - 1]

    def basis_rank(self):
        """The rank of the block basis, by linalg.rank on each diagonal d:
        the basis strips on d, one per U_r with r >= max(|d|, 1), as integer
        rows of length k - |d|.  Vectors on different diagonals have disjoint
        supports, so these ranks add up to the rank of the whole basis.  No
        use is made of the trace form that `_check_direct` reads."""
        k, blocks = self.k, self.blocks
        return sum(rank([blocks[r - 1][r - d] for r in _blocks_on(k, d)], k - abs(d))
                   for d in range(1 - k, k))


def _check_direct(k, blocks):
    """For each d >= 0 the trace form must pair the basis strip of U_t on d
    with that of U_u on -d to nonzero exactly when t = u.  Then no
    combination of the strips on d (or on -d) vanishes, so the blocks are
    independent; RuntimeError otherwise."""
    for d in range(k):
        rs = _blocks_on(k, d)
        for t in rs:
            for u in rs:
                p = _dot(blocks[t - 1][t - d], blocks[u - 1][u + d])
                if bool(p) != (t == u):
                    raise RuntimeError("adjoint decomposition is not direct: the trace form "
                                       f"pairs U_{t} on the diagonal {d} with U_{u} on {-d} "
                                       f"to {p}")


def principal_triple(k):
    """The principal sl2-triple in sl_k, as strips.

    x is the superdiagonal of ones (one Jordan block), h the diagonal
    (k-1, k-3, ..., -(k-1)), and y the subdiagonal with y[i+1][i] =
    (i+1)(k-1-i) in 0-based indexing.  A k above sys.maxsize, more entries
    than a tuple can hold, raises ValueError before anything is built.
    The strips are int tuples of the right lengths by construction, so the
    record is made without Sl2Triple's entry-by-entry field checks.
    """
    if not _is_int(k) or k < 2:
        raise ValueError(f"need an integer k >= 2, got {k!r}")
    if k > sys.maxsize:
        raise ValueError(f"k = {k} is above sys.maxsize, the largest size of a strip")
    return tuple.__new__(Sl2Triple, (k, (1,) * (k - 1), tuple(range(k - 1, -k, -2)),
                                     tuple((i + 1) * (k - 1 - i) for i in range(k - 1))))


def _strip_rows(k, d):
    """Row indices i of the d-th diagonal (j - i = d) of a k x k matrix."""
    return range(max(0, -d), min(k, k - d))


def _diagonal_strip(m, d):
    """Entries of the d-th diagonal (j - i = d) of a k x k matrix."""
    return [m[i, i + d] for i in _strip_rows(m.rows, d)]


def _strip_product(k, d1, a, d2, b):
    """Strip of A*B for A on diagonal d1 (strip a) and B on diagonal d2 (strip
    b); the product lies on diagonal d1 + d2."""
    o1, o2 = max(0, -d1), max(0, -d2)
    return [a[i - o1] * b[i + d1 - o2] if 0 <= i + d1 < k else 0
            for i in _strip_rows(k, d1 + d2)]


def _strip_bracket(k, d1, a, d2, b):
    """Strip of [A, B] for A on diagonal d1 and B on diagonal d2."""
    return [p - q for p, q in zip(_strip_product(k, d1, a, d2, b),
                                  _strip_product(k, d2, b, d1, a))]


def _ad_y(y, e, s):
    """Strip of [Y, S] for Y on the diagonal -1 (strip y) and S on e (strip
    s), as a tuple on e - 1: the strips of YS and SY are one product each,
    entry by entry, and line up on e - 1 once the one entry missing from
    each end is taken as 0 (for e > 0 the first entry of YS and the last of
    SY; for e <= 0 both have the length of the result).  The same strip as
    _strip_bracket(k, -1, y, e, s)."""
    if e > 0:
        return tuple(map(sub, (0, *map(mul, y, s)), (*map(mul, s, y[e - 1:]), 0)))
    return tuple(map(sub, map(mul, y[-e:], s), map(mul, s[1:], y)))


def _check_rs(r, s):
    for name, v in (("r", r), ("s", s)):
        if not _is_int(v):
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _blocks_on(k, d):
    """The r of the blocks U_r with a basis vector on the diagonal d."""
    return range(max(abs(d), 1), k)


def _dot(a, b):
    """The trace form tr(AB) of A on a diagonal d and B on -d, from their
    strips: the entries line up index by index."""
    return sum(map(mul, a, b))


def decompose_adjoint(t):
    """Decompose sl_k into the blocks U_r under ad of the given triple."""
    return AdjointDecomposition(t)


def block_dimensions(dec, t):
    """dim U_r for r = 1..k-1, as the length of ad(y)'s chain from x^r: the
    strips ad(y)^i x^r up to the first that is zero.

    The held strips of U_r are read first.  When the last of them is not
    zero, the triple t's y is applied past it by `_ad_y` until a strip is
    zero: each step lowers the diagonal by one, and a strip below the
    diagonal -(k-1) has no entries, so the chain ends.  A dec that is not an
    AdjointDecomposition, or a t that is not an Sl2Triple, raises TypeError,
    and a t of another k ValueError.
    """
    _check_type(dec, AdjointDecomposition, "block_dimensions")
    _check_type(t, Sl2Triple, "block_dimensions")
    if t.k != dec.k:
        raise ValueError(f"the triple is in sl_{t.k}, the decomposition of sl_{dec.k}")
    dims = []
    for r, strips in enumerate(dec.blocks, 1):
        n = next((i for i, s in enumerate(strips) if not any(s)), len(strips))
        if n == len(strips):
            s = strips[-1]
            while any(s := _ad_y(t.y, r + 1 - n, s)):
                n += 1
        dims.append(n)
    return dims


def project_to_blocks(dec, m):
    """Write a traceless matrix as a sum of components, one in each U_r.

    The U_r-coefficient of the diagonal m_d of m is
    <m_d, b_r(-d)> / <b_r(d), b_r(-d)> under the trace form, b_r(d) the basis
    strip of U_r on d.  A traceless m lies in the span of the blocks, so
    nothing else is checked.  Returns a dict r -> component matrix,
    r = 1..k-1, components summing to m.
    """
    _check_type(dec, AdjointDecomposition, "project_to_blocks")
    _check_type(m, Matrix, "project_to_blocks")
    k = dec.k
    if m.rows != k or m.cols != k:
        raise ValueError(f"expected a {k}x{k} matrix")
    if m.trace() != 0:
        raise ValueError("matrix must be traceless")
    entries = {r: [0] * (k * k) for r in range(1, k)}
    for d in range(-(k - 1), k):
        strip = _diagonal_strip(m, d)
        if not any(strip):
            continue
        for r in _blocks_on(k, d):
            b, dual = dec.block(r)[r - d], dec.block(r)[r + d]
            c = Fraction(_dot(strip, dual), _dot(b, dual))
            for i, v in zip(_strip_rows(k, d), b):
                entries[r][i * k + i + d] = c * v
    return {r: Matrix(k, k, e) for r, e in entries.items()}


def bracket_support(dec, r, s):
    """The set T of blocks hit by [U_r, U_s], from the one bracket
    [x^r, ad(y)^(2s) x^s] of the top vector of U_r with the lowest of U_s.

    As an sl2-module U_r (x) U_s is generated by x^r (x) U_s: y(v (x) w) =
    yv (x) w + v (x) yw puts every y^i x^r (x) w in it, by induction on i.
    The bracket and each projection pi_t onto U_t are module maps, so the
    image of [U_r, U_s] meets U_t exactly when pi_t([x^r, U_s]) != 0.  The
    map v -> pi_t([x^r, v]) commutes with ad x, as [x, x^r] = 0 and pi_t is a
    module map, and every basis strip ad(y)^j x^s of U_s is a nonzero
    multiple of ad(x)^(2s-j) applied to the lowest one, b = ad(y)^(2s) x^s on
    the diagonal -s; so the map vanishes on U_s exactly when it vanishes on
    b.  [x^r, b] is one strip w on the diagonal d = r - s, and its
    U_t-coefficient is nonzero exactly when w pairs to nonzero with U_t's
    basis strip on -d under the trace form; those t >= r - s are recorded.
    Always lands inside {max(r-s,1), ..., min(r+s, k-1)}, never contains
    r+s, and contains r+s-1 whenever r+s <= k.  An r or s that is not an
    int, or is a bool, raises ValueError.
    """
    _check_type(dec, AdjointDecomposition, "bracket_support")
    _check_rs(r, s)
    k = dec.k
    if not (1 <= s <= r <= k - 1):
        raise ValueError(f"need 1 <= s <= r <= k-1, got r={r}, s={s}")
    d = r - s
    w = _strip_bracket(k, r, dec.block(r)[0], -s, dec.block(s)[2 * s])
    return {t_ for t_ in _blocks_on(k, d) if _dot(w, dec.block(t_)[t_ + d])}


def verify_bracket_identity(dec, r, s):
    """Check [x^r, ad(y) x^s] == 2rs x^(r+s-1) exactly, on the strips of the
    decomposition: x^r is strip 0 of U_r and ad(y) x^s strip 1 of U_s, and
    both sides lie on the diagonal r + s - 1.  An r or s that is not an int,
    or is a bool, raises ValueError."""
    _check_type(dec, AdjointDecomposition, "verify_bracket_identity")
    _check_rs(r, s)
    if r < 1 or s < 1:
        raise ValueError("need r, s >= 1")
    if r + s > dec.k:
        raise ValueError(f"need r + s <= k = {dec.k}, got {r + s}")
    lhs = _strip_bracket(dec.k, r, dec.block(r)[0], s - 1, dec.block(s)[1])
    return lhs == [2 * r * s * v for v in dec.block(r + s - 1)[0]]


def form_kernel(t):
    """Basis of { B : m^T B + B m = 0 for m in {h, x, y} }, as {(a, b): int}.

    h is diagonal, and h^T E_ab + E_ab h = (h_a + h_b) E_ab, so the kernel
    starts from the E_ab with h_a + h_b = 0 (for the principal h, the k
    antidiagonal ones).  It is then refined by x and then y: the solution space
    is kept as a list of basis forms, each a sparse integer combination of the
    E_ab holding its nonzero entries, and each new condition becomes a small
    linear system in the basis coefficients; a strip on the diagonal d sends
    E_ab to one term per side.  The invariance condition propagates to Lie
    brackets, so the kernel is that of the whole sl2 the triple spans.
    """
    k, h = t.k, t.h
    basis = [{(a, b): 1} for a in range(k) for b in range(k) if h[a] + h[b] == 0]
    for d, strip in ((1, t.x), (-1, t.y)):
        m = {a: v for a, v in zip(_strip_rows(k, d), strip) if v}  # a -> m[a, a + d]
        cond = {}  # entry (i, j) of m^T B + B m -> its coefficient on each basis form
        for col, form in enumerate(basis):
            for (a, b), c in form.items():
                if a in m:  # m^T E_ab = m[a, a + d] E_(a+d)b
                    cond.setdefault((a + d, b), [0] * len(basis))[col] += c * m[a]
                if b in m:  # E_ab m = m[b, b + d] E_a(b+d)
                    cond.setdefault((a, b + d), [0] * len(basis))[col] += c * m[b]
        basis = [_combine(basis, v) for v in solve_homogeneous(list(cond.values()), len(basis))]
    return basis


def _combine(forms, coeffs):
    out = {}
    for form, c in zip(forms, coeffs):
        if c:
            for ab, x in form.items():
                out[ab] = out.get(ab, 0) + c * x
    return {ab: x for ab, x in out.items() if x}


# form is the antidiagonal strip B[a, k-1-a], a = 0..k-1
BilinearForm = namedtuple("BilinearForm", "form symmetric")


def invariant_bilinear_form(t):
    """The invariant bilinear form of the triple: the unique (up to scalar)
    B with m^T B + B m = 0 for m in {x, h, y}.

    form_kernel starts from h, so it refines only the k antidiagonal forms; B
    is returned as its antidiagonal strip, primitive, first nonzero entry
    positive.  B^T is invariant too, so B^T = +-B: symmetric when the strip is
    a palindrome, else antisymmetric (minus its reversal).  Symmetric exactly
    when k is odd (Sym^(k-1) of sl2 is orthogonal or symplectic accordingly).
    Raises unless the solution space is one form on the antidiagonal, and
    TypeError for anything but an Sl2Triple.
    """
    _check_type(t, Sl2Triple, "invariant_bilinear_form")
    kernel = form_kernel(t)
    if len(kernel) != 1 or any(a + b != t.k - 1 for a, b in kernel[0]):
        raise RuntimeError(f"invariant form space has dimension {len(kernel)}, "
                           "expected one form on the antidiagonal")
    strip = [kernel[0].get((a, t.k - 1 - a), 0) for a in range(t.k)]
    g = gcd(*strip)
    if next(v for v in strip if v) < 0:
        g = -g
    strip = tuple(v // g for v in strip)
    return BilinearForm(strip, strip == strip[::-1])
