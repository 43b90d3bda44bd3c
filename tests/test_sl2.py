"""Principal sl2-triples, the adjoint decomposition, and the bracket identities."""

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest

import katzmod
from katzmod import verify
from katzmod.classify import form_filter, ht_filter
from katzmod.linalg import Matrix, bracket, rank, solve_homogeneous, solve_linear
from katzmod.sl2 import (Sl2Triple, AdjointDecomposition, principal_triple,
                         decompose_adjoint, block_dimensions, project_to_blocks, bracket_support,
                         verify_bracket_identity, invariant_bilinear_form, form_kernel, _dot,
                         _check_direct, _strip_bracket, _ad_y)


# Reference implementations: the dense, ungraded algorithms the graded sl2
# layer replaced.  The tests below compare the two on small k.

def strip_matrix(k, d, strip):
    """The k x k Matrix with the given strip on the diagonal d, zero elsewhere."""
    entries = [0] * (k * k)
    for i, v in zip(range(max(0, -d), min(k, k - d)), strip):
        entries[i * k + i + d] = v
    return Matrix(k, k, entries)


def dense_triple(t):
    """The strips x, h, y of a triple as dense Matrices, for the dense oracles."""
    return strip_matrix(t.k, 1, t.x), strip_matrix(t.k, 0, t.h), strip_matrix(t.k, -1, t.y)


def mat_power(m, e):
    """m^e for a square matrix m and e >= 0, by repeated dense products."""
    result = Matrix.identity(m.rows)
    for _ in range(e):
        result = result * m
    return result


def dense_basis(dec, r):
    """The basis ad(y)^i x^r of U_r as dense matrices: strip i on the diagonal r - i."""
    return [strip_matrix(dec.k, r - i, strip) for i, strip in enumerate(dec.block(r))]


def dense_elementary_coordinates(m):
    """Coordinates of a traceless matrix in the elementary basis of sl_k:
    E_ij for i != j row by row, then the partial sums of the diagonal."""
    k = m.rows
    coords = [m[i, j] for i in range(k) for j in range(k) if i != j]
    partial = Fraction(0)
    for i in range(k - 1):
        partial += m[i, i]
        coords.append(partial)
    return coords


def dense_block_basis(t):
    """ad(y)^i x^r for r = 1..k-1 and i = 0..2r, in that order, by dense
    matrix products and brackets."""
    x, _, y = dense_triple(t)
    out = []
    for r in range(1, t.k):
        out.append(mat_power(x, r))
        for _ in range(2 * r):
            out.append(bracket(y, out[-1]))
    return out


def dense_change_of_basis(basis):
    """The square matrix whose columns are the given traceless matrices in
    elementary coordinates: for the block basis, the change of basis to the
    elementary basis of sl_k."""
    columns = [dense_elementary_coordinates(m) for m in basis]
    n = len(columns)
    return Matrix(n, n, [columns[j][i] for i in range(n) for j in range(n)])


def dense_rank(m):
    """linalg.rank of a dense Matrix, read through its Fraction rows."""
    return rank(m.row_lists(), m.cols)


def dense_form(strip):
    """The k x k Matrix B with B[a, k-1-a] = strip[a], zero elsewhere: the
    dense form of an invariant form's antidiagonal strip."""
    k = len(strip)
    return Matrix(k, k, [strip[a] if a + b == k - 1 else 0 for a in range(k) for b in range(k)])


def form_matrix(k, form):
    """The k x k Matrix of a form given as a map {(a, b): entry}."""
    return Matrix(k, k, [form.get((a, b), 0) for a in range(k) for b in range(k)])


def with_strip_replaced(dec, r, i, strip):
    """dec with the strip of ad(y)^i x^r replaced, and nothing checked: the
    blocks need no longer be independent.  The constructor, which builds the
    strips from a triple and checks them direct, is bypassed, so that the rank
    checks that read the strips are tested on their own."""
    blocks = list(dec.blocks)
    strips = list(blocks[r - 1])
    strips[i] = strip
    blocks[r - 1] = tuple(strips)
    return tuple.__new__(AdjointDecomposition, (dec.k, tuple(blocks)))


def strip_inverse(dec, d):
    """r -> the U_r-coefficients of the unit strips e_i on the diagonal d, by
    solve_linear on that diagonal's block basis strips: a route to block
    coefficients that does not use the trace form.  On d = 0 only traceless
    strips lie in the span, so the strips e_i - e_last stand in for the e_i
    and the last is dropped; a traceless w is sum w_i (e_i - e_last).  Each
    row is scaled to integers, which keeps which coefficients are zero."""
    k, n = dec.k, dec.k - abs(d)
    rs = range(max(abs(d), 1), k)
    cols = [dec.block(r)[r - d] for r in rs]
    m = Matrix(n, len(rs), [c[i] for i in range(n) for c in cols])
    units = [solve_linear(m, [int(j == i) - int(d == 0 and j == n - 1) for j in range(n)])
             for i in range(n - (d == 0))]
    rows = {}
    for col, r in enumerate(rs):
        den = lcm(*(u[col].denominator for u in units))
        rows[r] = [int(u[col] * den) for u in units]
    return rows


def exhaustive_bracket_support(dec, r, s, inverses):
    """Bracket every pair of basis strips of U_r and U_s and record the blocks
    with a nonzero coefficient: (2r+1)(2s+1) strip brackets.  inverses maps
    each diagonal d to strip_inverse(dec, d)."""
    k = dec.k
    support = set()
    for i, a in enumerate(dec.block(r)):
        for j, b in enumerate(dec.block(s)):
            w = _strip_bracket(k, r - i, a, s - j, b)
            if any(w):
                d = r - i + s - j
                assert d or sum(w) == 0
                support.update(t_ for t_, row in inverses[d].items()
                               if sum(c * v for c, v in zip(row, w)))
    return support


@dataclass(frozen=True)
class SymPowerModel:
    """Images of the sl2 basis under Sym^(k-1), as strips, plus the diagonal
    matrix D conjugating this model onto principal_triple(k): D m D^-1 maps
    x,h,y of the symmetric-power model to those of the principal model."""
    triple: Sl2Triple
    witness: Matrix


def sym_power_rep(k):
    """The (k-1)-st symmetric power of the defining sl2 representation.

    In the monomial basis X^(k-1-i) Y^i the standard generators act by
    e: superdiagonal (1, 2, ..., k-1), f: subdiagonal (k-1, ..., 1), and
    h: diag(k-1, k-3, ..., -(k-1)).  The conjugating witness is the diagonal
    of factorials D = diag(0!, 1!, ..., (k-1)!).
    """
    x = tuple(range(1, k))          # e . X^(k-1-j) Y^j = j X^(k-j) Y^(j-1)
    y = tuple(range(k - 1, 0, -1))  # f . X^(k-1-j) Y^j = (k-1-j) X^(k-2-j) Y^(j+1)
    h = tuple(range(k - 1, -k, -2))
    fact = [1]
    for i in range(1, k):
        fact.append(fact[-1] * i)
    witness = Matrix.diagonal(fact)
    return SymPowerModel(Sl2Triple(k, x, h, y), witness)


def dense_form_kernel(mats, k):
    """All k^2 entries of B as unknowns, one matrix at a time."""
    basis = []
    for e in range(k * k):
        ent = [Fraction(0)] * (k * k)
        ent[e] = Fraction(1)
        basis.append(Matrix(k, k, ent))
    for m in mats:
        if not basis:
            return []
        mt = m.transpose()
        images = [list((mt * b + b * m).entries) for b in basis]
        cond = Matrix(k * k, len(basis),
                      [images[j][e] for e in range(k * k) for j in range(len(basis))])
        new = []
        for v in solve_homogeneous(cond.row_lists(), cond.cols):
            out = Matrix.zeros(k)
            for b, c in zip(basis, v):
                if c:
                    out = out + b.scale(c)
            new.append(out)
        basis = new
    return basis


def same_span(forms, other):
    """Both lists are independent and span the same space."""
    def rank_of(ms):
        return rank([list(m.entries) for m in ms], ms[0].rows * ms[0].cols) if ms else 0
    return rank_of(forms) == len(forms) == len(other) == rank_of(other) == rank_of(forms + other)


def dense_projection(dec, m, bases=None):
    """Project strip by strip with solve_linear on the dense basis matrices;
    bases maps r to dense_basis(dec, r), and is built here when not given."""
    k = dec.k
    bases = bases or {r: dense_basis(dec, r) for r in range(1, k)}

    def strip_of(a, d):
        return [a[i, i + d] for i in range(max(0, -d), min(k, k - d))]

    coeffs = {r: [Fraction(0)] * (2 * r + 1) for r in range(1, k)}
    for d in range(-(k - 1), k):
        strip = strip_of(m, d)
        if not any(strip):
            continue
        rs = list(range(max(abs(d), 1), k))
        cols = [strip_of(bases[r][r - d], d) for r in rs]
        sol = solve_linear(Matrix(len(strip), len(rs),
                                  [cols[j][i] for i in range(len(strip)) for j in range(len(rs))]),
                           strip)
        for r, c in zip(rs, sol):
            coeffs[r][r - d] = c
    out = {}
    for r in range(1, k):
        comp = Matrix.zeros(k)
        for i, c in enumerate(coeffs[r]):
            if c:
                comp = comp + bases[r][i].scale(c)
        out[r] = comp
    return out


def dense_bracket_support(dec, r, s):
    bases = {t_: dense_basis(dec, t_) for t_ in range(1, dec.k)}
    support = set()
    for a in bases[r]:
        for b in bases[s]:
            for t_, comp in dense_projection(dec, bracket(a, b), bases).items():
                if not comp.is_zero():
                    support.add(t_)
    return support


class TestPrincipalTriple:
    def test_k2_is_standard_sl2(self):
        t = principal_triple(2)
        assert (t.x, t.h, t.y) == ((1,), (1, -1), (1,))
        assert dense_triple(t) == (Matrix.from_rows([[0, 1], [0, 0]]), Matrix.diagonal([1, -1]),
                                   Matrix.from_rows([[0, 0], [1, 0]]))

    def test_k3_solves_bracket_equation(self):
        # oracle: with x fixed, solve [x, y] = h for the subdiagonal of y
        t = principal_triple(3)
        assert t.h == (2, 0, -2)
        # unknowns y10, y21: bracket(x, y) diagonal = (y10, y21 - y10, -y21)
        sys = Matrix.from_rows([[1, 0], [-1, 1], [0, -1]])
        sol = solve_linear(sys, list(t.h))
        assert sol == [Fraction(2), Fraction(2)]
        assert t.y == (2, 2)

    def test_k5_single_block(self):
        x = dense_triple(principal_triple(5))[0]
        assert not mat_power(x, 4).is_zero() and mat_power(x, 5).is_zero()

    def test_one_block_against_dense_powers(self):
        # the strip check "no x entry is 0" against x^(k-1) != 0 = x^k
        for k in range(2, 13):
            t = principal_triple(k).validate()
            x = dense_triple(t)[0]
            assert not mat_power(x, k - 1).is_zero() and mat_power(x, k).is_zero(), k
        # two copies of the standard sl2 in sl_4: every relation holds, but x
        # has two Jordan blocks
        t = Sl2Triple(4, (1, 0, 1), (1, -1, 1, -1), (1, 0, 1))
        assert mat_power(dense_triple(t)[0], 3).is_zero()
        with pytest.raises(ValueError, match="x is not a one-block nilpotent"):
            t.validate()

    def test_each_relation_checked(self):
        t = principal_triple(4)
        for bad, failure in (
                (Sl2Triple(4, t.x, tuple(2 * v for v in t.h), t.y), "[h, x] != 2x"),
                (Sl2Triple(4, (1, 0, 1), (1, -1, 1, -1), (1, 1, 1)), "[h, y] != -2y"),
                (Sl2Triple(4, t.x, t.h, tuple(2 * v for v in t.y)), "[x, y] != h")):
            with pytest.raises(ValueError) as info:
                bad.validate()
            assert str(info.value) == f"not a principal sl2-triple: {failure}"

    def test_defining_relations_and_traces(self):
        for k in range(2, 9):
            principal_triple(k).validate()

    def test_the_skipped_field_checks_hold(self):
        # principal_triple makes its record without the constructor's checks:
        # the checked constructor must accept and reproduce it, strips as tuples
        for k in (*range(2, 40), 257):
            t = principal_triple(k)
            assert type(t) is Sl2Triple and Sl2Triple(*t) == t == t._replace(), k
            assert all(type(s) is tuple for s in (t.x, t.h, t.y)), k

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            principal_triple(1)

    def test_float_or_bool_k_rejected(self):
        for k in [3.0, True]:
            with pytest.raises(ValueError, match="integer k >= 2, got"):
                principal_triple(k)

    def test_k_above_maxsize_rejected(self):
        # range would raise OverflowError; the refusal comes first, and the
        # two filters that build the triple inherit it
        for call in (principal_triple, lambda k: form_filter((), k),
                     lambda k: ht_filter((), k, (0, -3))):
            for k in (sys.maxsize + 1, 2**70):
                with pytest.raises(ValueError, match="above sys.maxsize"):
                    call(k)

    def test_broken_triple_rejected_under_optimize(self):
        # the relation checks are explicit raises, so they survive python -O
        code = ("from katzmod.sl2 import Sl2Triple, principal_triple\n"
                "t = principal_triple(3)\n"
                "Sl2Triple(3, t.x, tuple(2 * v for v in t.h), t.y).validate()\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(katzmod.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "ValueError: not a principal sl2-triple: [h, x] != 2x" in proc.stderr


class TestSymPowerRep:
    def test_k2_identity_functor(self):
        assert sym_power_rep(2).triple == principal_triple(2)

    def test_k3_weights(self):
        assert sym_power_rep(3).triple.h == (2, 0, -2)

    def test_k6_eigenvalues_distinct(self):
        diag = list(sym_power_rep(6).triple.h)
        assert sorted(diag, reverse=True) == [5, 3, 1, -1, -3, -5]
        assert len(set(diag)) == 6

    def test_conjugacy_witness(self):
        for k in range(2, 9):
            model = sym_power_rep(k)
            d = model.witness
            dinv = Matrix.diagonal([1 / d[i, i] for i in range(k)])
            for m, want in zip(dense_triple(model.triple), dense_triple(principal_triple(k))):
                assert d * m * dinv == want

    def test_relations(self):
        for k in (3, 5, 8):
            sym_power_rep(k).triple.validate()


class TestAdjointDecomposition:
    def test_k2_single_block(self):
        dec = decompose_adjoint(principal_triple(2))
        assert len(dec.blocks) == 1
        assert len(dense_basis(dec, 1)) == 3

    def test_k3_dimension_count(self):
        dec = decompose_adjoint(principal_triple(3))
        assert [len(dense_basis(dec, r)) for r in (1, 2)] == [3, 5]
        assert sum(len(strips) for strips in dec.blocks) == 8

    def test_k6_dimensions(self):
        dec = decompose_adjoint(principal_triple(6))
        assert [len(dense_basis(dec, r)) for r in range(1, 6)] == [3, 5, 7, 9, 11]
        assert sum(len(strips) for strips in dec.blocks) == 35

    def test_change_of_basis_invertible(self):
        for k in range(2, 9):
            t = principal_triple(k)
            dec = decompose_adjoint(t)
            n = k * k - 1
            cob = dense_change_of_basis(dense_block_basis(t))
            assert cob.rows == n
            assert dense_rank(cob) == dec.basis_rank() == n

    def test_two_jordan_blocks_rejected(self):
        # x = E_01 + E_23 squares to 0, so U_2 and U_3 have zero strips and
        # pair to 0 with themselves
        t = Sl2Triple(4, (1, 0, 1), (1, -1, 1, -1), (1, 0, 1))
        with pytest.raises(RuntimeError, match="not direct"):
            decompose_adjoint(t)

    def test_hand_built_decomposition_checked(self):
        # directness is checked on every decomposition: with y zeroed, every
        # ad(y)^i x^r with i > 0 is 0, and U_1 pairs to 0 with itself on d = 0
        t = principal_triple(4)
        with pytest.raises(RuntimeError, match=r"^adjoint decomposition is not direct: the trace "
                           r"form pairs U_1 on the diagonal 0 with U_1 on 0 to 0$"):
            decompose_adjoint(Sl2Triple(4, t.x, t.h, (0, 0, 0)))
        dec = decompose_adjoint(t)
        assert AdjointDecomposition(t) == dec
        with pytest.raises(TypeError):
            AdjointDecomposition(4, dec.blocks)

    def test_block_checks_r(self):
        dec = decompose_adjoint(principal_triple(4))
        assert [len(dec.block(r)) for r in (1, 2, 3)] == [3, 5, 7]
        for r in (0, -1, 4, True, 1.0, "1", None):
            with pytest.raises(ValueError, match=rf"^need an integer r in 1\.\.3, got {r!r}$"):
                dec.block(r)

    def test_ungraded_triple_rejected(self):
        # an ungraded triple cannot be built: the constructor takes one strip
        # per diagonal and refuses strips of the wrong length, or a matrix
        t = principal_triple(3)
        for x, h, y in (((1, 1, 1), t.h, t.y), (t.x, (2, -2), t.y), (t.x, t.h, ()),
                        (dense_triple(t)[0], t.h, t.y)):
            with pytest.raises(ValueError, match="must be a list of"):
                Sl2Triple(3, x, h, y)
        for k in (1, 3.0, True):
            with pytest.raises(ValueError, match="integer k >= 2"):
                Sl2Triple(k, t.x, t.h, t.y)

    def test_sym_power_triple_dimensions(self):
        # the Sym^(k-1) triple is graded with x not all ones
        for k in range(2, 9):
            t = sym_power_rep(k).triple
            dec = decompose_adjoint(t)
            assert [len(strips) for strips in dec.blocks] == [2 * r + 1 for r in range(1, k)]
            cob = dense_change_of_basis(dense_block_basis(t))
            assert dense_rank(cob) == dec.basis_rank() == k * k - 1

    def test_change_of_basis_against_dense_coordinates(self):
        # the strip of U_r on d, put on d, is column r^2 - 1 + (r - d) of the
        # change of basis built from the densely computed block basis (the
        # blocks before U_r fill the first 3 + 5 + ... + (2r-1) = r^2 - 1)
        for k in range(2, 9):
            for t in (principal_triple(k), sym_power_rep(k).triple):
                dec = decompose_adjoint(t)
                cob = dense_change_of_basis(dense_block_basis(t))
                for d in range(1 - k, k):
                    for r in range(max(abs(d), 1), k):
                        col = r * r - 1 + r - d
                        m = strip_matrix(k, d, dec.block(r)[r - d])
                        assert dense_elementary_coordinates(m) == \
                            [cob[i, col] for i in range(k * k - 1)], (k, d, r)

    def test_dependent_strip_lowers_the_rank(self):
        # negative control: one basis strip replaced by another strip on the
        # same diagonal; both the per-diagonal rank and the dense oracle drop
        for k in (3, 5, 8):
            dec = decompose_adjoint(principal_triple(k))
            for d in (0, 1):
                # the vector of U_2 on d becomes the one of U_1 on d
                bad = with_strip_replaced(dec, 2, 2 - d, dec.block(1)[1 - d])
                cob = dense_change_of_basis([m for r in range(1, k) for m in dense_basis(bad, r)])
                assert bad.basis_rank() == dense_rank(cob) == k * k - 2, (k, d)
                with pytest.raises(RuntimeError, match="not direct"):
                    _check_direct(k, bad.blocks)

    def test_verify_adjoint_row_goes_red_on_dependent_strip(self, monkeypatch):
        real = verify.decompose_adjoint

        def corrupted(t):
            dec = real(t)
            if t.k == 2:
                return dec
            return with_strip_replaced(dec, 2, 1, dec.block(1)[0])  # diagonal 1

        monkeypatch.setattr(verify, "decompose_adjoint", corrupted)
        rows = list(verify.check_adjoint())
        assert rows[0].ok  # k = 2 has a single block, left alone
        assert not any(row.ok for row in rows[1:])
        assert rows[1].computed == "[3, 5], sum 8, rank 7"

    def test_ad_y_kernel_equals_the_generic_bracket(self):
        # every strip the decomposition holds, the lowest of each block too
        # (its bracket with y is 0, on the diagonal -r - 1), against the
        # generic strip bracket; the held strip below is the kernel's image
        ends = set()
        for k in range(2, 13):
            for t in (principal_triple(k), sym_power_rep(k).triple):
                for r, strips in enumerate(decompose_adjoint(t).blocks, 1):
                    for i, s in enumerate(strips):
                        e = r - i
                        want = tuple(_strip_bracket(k, -1, t.y, e, s))
                        assert _ad_y(t.y, e, s) == want, (k, r, i)
                        assert i == 2 * r or strips[i + 1] == want, (k, r, i)
                        if want:
                            # the end entries are the ones a product misses
                            ends.update((e > 0, end) for end in (0, -1) if want[end])
        assert ends == {(True, 0), (True, -1), (False, 0), (False, -1)}

    def test_ad_y_kernel_on_random_strips(self):
        # arbitrary integer strips, on every diagonal of each sign
        rng = random.Random(31)
        for k in range(2, 13):
            y = tuple(rng.randint(-4, 4) for _ in range(k - 1))
            for e in range(1 - k, k):
                s = tuple(rng.randint(-4, 4) for _ in range(k - abs(e)))
                assert _ad_y(y, e, s) == tuple(_strip_bracket(k, -1, y, e, s)), (k, e)

    def test_block_invariants(self):
        # highest weight killed by ad x; h-weights 2r-2i; lowest killed by ad y
        for k in (3, 5, 6):
            t = principal_triple(k)
            x, h, y = dense_triple(t)
            dec = decompose_adjoint(t)
            for r in range(1, k):
                basis = dense_basis(dec, r)
                assert bracket(x, basis[0]).is_zero()
                for i, v in enumerate(basis):
                    assert bracket(h, v) == v.scale(2 * r - 2 * i)
                assert bracket(y, basis[2 * r]).is_zero()


class TestBlockDimensions:
    def test_chains_of_genuine_decompositions(self):
        for k in range(2, 13):
            t = principal_triple(k)
            assert block_dimensions(decompose_adjoint(t), t) == [2 * r + 1 for r in range(1, k)]

    def test_a_zero_strip_ends_the_chain(self):
        t = principal_triple(4)
        dec = with_strip_replaced(decompose_adjoint(t), 3, 2, (0,) * 3)
        assert block_dimensions(dec, t) == [3, 5, 2]

    def test_a_last_strip_not_killed_is_followed_by_y(self):
        # U_1's lowest strip plus U_3's strip on the diagonal -1: ad(y) takes
        # it on through U_3's last two strips
        t = principal_triple(4)
        dec = decompose_adjoint(t)
        lowest = tuple(a + b for a, b in zip(dec.block(1)[2], dec.block(3)[4]))
        assert block_dimensions(with_strip_replaced(dec, 1, 2, lowest), t) == [5, 5, 7]

    def test_refusals(self):
        t = principal_triple(3)
        dec = decompose_adjoint(t)
        with pytest.raises(TypeError):
            block_dimensions(dec.blocks, t)
        with pytest.raises(TypeError):
            block_dimensions(dec, tuple(t))
        with pytest.raises(ValueError, match="sl_4, the decomposition of sl_3"):
            block_dimensions(dec, principal_triple(4))


class TestProjectToBlocks:
    def test_x_projects_to_block_one(self):
        t = principal_triple(4)
        dec = decompose_adjoint(t)
        x = dense_triple(t)[0]
        comps = project_to_blocks(dec, x)
        assert comps[1] == x
        assert all(comps[r].is_zero() for r in comps if r != 1)

    def test_x_squared_projects_to_block_two(self):
        t = principal_triple(4)
        dec = decompose_adjoint(t)
        x2 = mat_power(dense_triple(t)[0], 2)
        comps = project_to_blocks(dec, x2)
        assert comps[2] == x2
        assert all(comps[r].is_zero() for r in comps if r != 2)

    def test_h_projects_to_block_one(self):
        # oracle: h = -ad(y) x, the second basis vector of U_1 negated
        t = principal_triple(5)
        dec = decompose_adjoint(t)
        h = dense_triple(t)[1]
        assert h == -dense_basis(dec, 1)[1]
        comps = project_to_blocks(dec, h)
        assert comps[1] == h
        assert all(comps[r].is_zero() for r in comps if r != 1)

    def test_components_sum_to_input(self):
        t = principal_triple(5)
        dec = decompose_adjoint(t)
        x, h, y = dense_triple(t)
        m = mat_power(x, 2) + y.scale(3) + h + mat_power(y, 3).scale(Fraction(1, 2))
        comps = project_to_blocks(dec, m)
        total = Matrix.zeros(5)
        for c in comps.values():
            total = total + c
        assert total == m

    def test_random_traceless_against_dense_projection(self):
        # the Sym^(k-1) triple too: the pairing needs no x of all ones
        rng = random.Random(20040211)
        for k in range(2, 7):
            for t in (principal_triple(k), sym_power_rep(k).triple):
                dec = decompose_adjoint(t)
                for _ in range(5):
                    entries = [rng.randint(-9, 9) for _ in range(k * k)]
                    entries[-1] = -sum(entries[i * k + i] for i in range(k - 1))
                    m = Matrix(k, k, entries)
                    comps = project_to_blocks(dec, m)
                    total = Matrix.zeros(k)
                    for c in comps.values():
                        total = total + c
                    assert total == m
                    assert comps == dense_projection(dec, m)

    def test_nonzero_trace_rejected(self):
        dec = decompose_adjoint(principal_triple(3))
        with pytest.raises(ValueError):
            project_to_blocks(dec, Matrix.identity(3))


class TestBracketSupport:
    def test_k3_adjoint_self_bracket(self):
        dec = decompose_adjoint(principal_triple(3))
        assert bracket_support(dec, 1, 1) == {1}

    def test_k4_support_pattern(self):
        dec = decompose_adjoint(principal_triple(4))
        support = bracket_support(dec, 2, 1)
        assert 3 not in support and 2 in support

    def test_k6_top_case(self):
        dec = decompose_adjoint(principal_triple(6))
        support = bracket_support(dec, 3, 3)
        assert 5 in support
        assert 6 not in support  # 6 is outside the block range entirely
        assert max(support) <= 5

    def test_support_window_and_neighbor_rule(self):
        for k in (4, 6, 8):
            dec = decompose_adjoint(principal_triple(k))
            for r in range(1, k):
                for s in range(1, r + 1):
                    support = bracket_support(dec, r, s)
                    assert support <= set(range(max(r - s, 1), min(r + s, k - 1) + 1))
                    assert r + s not in support
                    if r + s <= k:
                        assert r + s - 1 in support

    def test_against_dense_brackets(self):
        for k in range(2, 8):
            for t in (principal_triple(k), sym_power_rep(k).triple):
                dec = decompose_adjoint(t)
                for r in range(1, k):
                    for s in range(1, r + 1):
                        assert bracket_support(dec, r, s) == dense_bracket_support(dec, r, s)

    def test_against_exhaustive_strip_brackets(self):
        # [x^r, U_s] alone against all (2r+1)(2s+1) pairs of basis strips
        for k in range(2, 13):
            dec = decompose_adjoint(principal_triple(k))
            inverses = {d: strip_inverse(dec, d) for d in range(1 - k, k)}
            for r in range(1, k):
                for s in range(1, r + 1):
                    assert bracket_support(dec, r, s) == \
                        exhaustive_bracket_support(dec, r, s, inverses), (k, r, s)

    def test_bad_range_rejected(self):
        dec = decompose_adjoint(principal_triple(4))
        with pytest.raises(ValueError):
            bracket_support(dec, 1, 2)
        with pytest.raises(ValueError):
            bracket_support(dec, 4, 1)

    def test_float_or_bool_r_s_rejected(self):
        # refused by name, never coerced: True would otherwise read as 1
        dec = decompose_adjoint(principal_triple(4))
        for r, s, name in ((2.0, 1, "r"), (True, 1, "r"), (2, 1.0, "s"), (2, True, "s")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                bracket_support(dec, r, s)


class TestBracketIdentity:
    def test_k3_base_case(self):
        # direct computation oracle: [x, [y, x]] = [x, -h] = 2x
        t = principal_triple(3)
        x, _, y = dense_triple(t)
        assert bracket(x, bracket(y, x)) == x.scale(2)
        assert verify_bracket_identity(decompose_adjoint(t), 1, 1)

    def test_k5_coefficient_eight(self):
        t = principal_triple(5)
        x, _, y = dense_triple(t)
        assert verify_bracket_identity(decompose_adjoint(t), 2, 2)
        assert bracket(mat_power(x, 2), bracket(y, mat_power(x, 2))) == mat_power(x, 3).scale(8)

    def test_k4_coefficient_six(self):
        t = principal_triple(4)
        x, _, y = dense_triple(t)
        assert verify_bracket_identity(decompose_adjoint(t), 3, 1)
        assert bracket(mat_power(x, 3), bracket(y, x)) == mat_power(x, 3).scale(6)

    def test_all_pairs_small_k(self):
        for k in range(2, 9):
            dec = decompose_adjoint(principal_triple(k))
            for r in range(1, k):
                for s in range(1, k - r + 1):
                    assert verify_bracket_identity(dec, r, s)

    def test_out_of_range_rejected(self):
        dec = decompose_adjoint(principal_triple(4))
        with pytest.raises(ValueError):
            verify_bracket_identity(dec, 3, 2)

    def test_against_dense_formula(self):
        # a triple with y doubled is graded but breaks the identity (4rs, not
        # 2rs), so both answers occur
        for k in range(2, 9):
            t = principal_triple(k)
            doubled = Sl2Triple(k, t.x, t.h, tuple(2 * v for v in t.y))
            for triple, holds in ((t, True), (sym_power_rep(k).triple, True), (doubled, False)):
                x, _, y = dense_triple(triple)
                dec = decompose_adjoint(triple)
                for r in range(1, k):
                    for s in range(1, k - r + 1):
                        dense = (bracket(mat_power(x, r), bracket(y, mat_power(x, s)))
                                 == mat_power(x, r + s - 1).scale(2 * r * s))
                        assert dense == holds
                        assert verify_bracket_identity(dec, r, s) == dense, (k, r, s)

    def test_two_jordan_blocks_rejected(self):
        # x = E_01 + E_23 squares to 0, so U_2 and U_3 have zero strips and
        # pair to 0 with themselves
        t = Sl2Triple(4, (1, 0, 1), (1, -1, 1, -1), (1, 0, 1))
        with pytest.raises(RuntimeError, match="not direct"):
            decompose_adjoint(t)

    def test_ungraded_triple_rejected(self):
        # an ungraded triple cannot be built, nor one with entries that are
        # not ints: floats, bools and Fractions are refused, not coerced
        t = principal_triple(3)
        for x, h, y in (((1.0, 1), t.h, t.y), (t.x, (2, 0, -2.0), t.y), ((True, 1), t.h, t.y),
                        (t.x, t.h, (Fraction(2), 2)), (t.x, t.h, (2, Fraction(1, 2)))):
            with pytest.raises(ValueError, match="entry .* is not an integer"):
                Sl2Triple(3, x, h, y)

    def test_float_or_bool_r_s_rejected(self):
        dec = decompose_adjoint(principal_triple(4))
        for r, s, name in ((1.0, 1, "r"), (True, 1, "r"), (1, 2.0, "s"), (1, True, "s")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                verify_bracket_identity(dec, r, s)


class TestInvariantBilinearForm:
    def test_k2_symplectic(self):
        form = invariant_bilinear_form(principal_triple(2))
        assert not form.symmetric
        b = dense_form(form.form)
        assert b.transpose() == -b
        assert b[0, 1] != 0

    def test_k3_symmetric_against_full_solve(self):
        # oracle: assemble the full 27-equation system in the 9 unknown entries
        # of B and compute its kernel independently
        t = principal_triple(3)
        rows = []
        for m in dense_triple(t):
            mt = m.transpose()
            for a in range(3):
                for b in range(3):
                    coeffs = []
                    for i in range(3):
                        for j in range(3):
                            c = Fraction(0)
                            if j == b:
                                c += mt[a, i]
                            if i == a:
                                c += m[j, b]
                            coeffs.append(c)
                    rows.append(coeffs)
        kernel = solve_homogeneous(rows, 9)
        assert len(kernel) == 1
        flat = kernel[0]
        b_oracle = Matrix.from_rows([[flat[3 * i + j] for j in range(3)] for i in range(3)])
        form = invariant_bilinear_form(t)
        assert form.symmetric
        b = dense_form(form.form)
        # same line: the two forms are proportional
        ratio = None
        for i in range(3):
            for j in range(3):
                if b_oracle[i, j] != 0:
                    ratio = b[i, j] / b_oracle[i, j]
        assert ratio is not None
        assert b == b_oracle.scale(ratio)

    def test_k4_antisymmetric(self):
        form = invariant_bilinear_form(principal_triple(4))
        assert not form.symmetric
        b = dense_form(form.form)
        assert b.transpose() == -b

    def test_parity_through_k8(self):
        for k in range(2, 9):
            form = invariant_bilinear_form(principal_triple(k))
            assert form.symmetric == (k % 2 == 1)

    def test_closed_form_strip(self):
        # x is the superdiagonal of ones, so (x^T B + B x)[a, k-a] = b_(a-1)
        # + b_a for the antidiagonal strip b of B: b_a = (-1)^a b_0.  The x-
        # and y-conditions are bidiagonal, which back-substitution solves in
        # O(k^2) and clearing pivot columns top-down would fill in at O(k^3)
        for k in range(2, 151):
            assert invariant_bilinear_form(principal_triple(k)).form == \
                tuple((-1) ** a for a in range(k)), k

    def test_form_off_the_antidiagonal_refused(self):
        # h = diag(-2, 0) leaves E_11 as the only invariant form: one form,
        # but not on the antidiagonal, so it has no antidiagonal strip
        t = Sl2Triple(2, (1,), (-2, 0), (0,))
        assert form_kernel(t) == [{(1, 1): 1}]
        with pytest.raises(RuntimeError, match="expected one form on the antidiagonal"):
            invariant_bilinear_form(t)

    def test_form_actually_invariant(self):
        for k in (3, 4, 6):
            t = principal_triple(k)
            b = dense_form(invariant_bilinear_form(t).form)
            for m in dense_triple(t):
                assert (m.transpose() * b + b * m).is_zero()


class TestFormKernelPropagation:
    def test_invariance_propagates_to_brackets(self):
        # imposing m^T B + B m = 0 on generators forces it on their brackets
        for k in (3, 4, 5):
            t = principal_triple(k)
            x, _, y = dense_triple(t)
            for form in form_kernel(t):
                b = form_matrix(k, form)
                for m in (bracket(x, y), bracket(x, bracket(x, y)), bracket(y, bracket(x, y))):
                    assert (m.transpose() * b + b * m).is_zero()


class TestFormKernelAgainstDense:
    def test_same_span_as_dense_kernel(self):
        for k in range(2, 9):
            for t in (principal_triple(k), sym_power_rep(k).triple):
                forms = form_kernel(t)
                assert all(type(v) is int and v for f in forms for v in f.values()), k
                assert same_span([form_matrix(k, f) for f in forms],
                                 dense_form_kernel(dense_triple(t), k)), k


class TestTracePairing:
    def test_blocks_pair_through_the_trace_form(self):
        # tr(AB) of the basis strip of U_t on d and that of U_u on -d, from
        # dense products: 0 for t != u, nonzero for t = u, and equal to the
        # strip dot product that sl2 reads
        for k in range(2, 9):
            for t in (principal_triple(k), sym_power_rep(k).triple):
                dec = decompose_adjoint(t)
                for d in range(-(k - 1), k):
                    rs = range(max(abs(d), 1), k)
                    for t_ in rs:
                        a = dec.block(t_)[t_ - d]
                        for u in rs:
                            b = dec.block(u)[u + d]
                            tr = (strip_matrix(k, d, a) * strip_matrix(k, -d, b)).trace()
                            assert (tr != 0) == (t_ == u), (k, d, t_, u)
                            assert tr == _dot(a, b), (k, d, t_, u)
