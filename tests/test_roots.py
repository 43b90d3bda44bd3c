"""Root systems, exponents, and the Weyl dimension formula."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

import pytest

import katzmod.roots
from katzmod.roots import (SIMPLE_TYPES, build_root_system, exponents, type_exponents,
                           algebra_dimension, weyl_dimension, irreps_of_dimension,
                           irreps_up_to, cartan_matrix, principal_heights, restrict,
                           _valid_type, _weyl_product)


def all_types(max_rank):
    return [(t, n) for t in SIMPLE_TYPES for n in range(1, max_rank + 1) if _valid_type(t, n)]


def positive_root_count(t, n):
    """Closed form for the number of positive roots."""
    if t == "A":
        return n * (n + 1) // 2
    if t in ("B", "C"):
        return n * n
    if t == "D":
        return n * (n - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[(t, n)]


def coxeter_number(t, n):
    return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2, "F": 12, "G": 6,
            "E": {6: 12, 7: 18, 8: 30}.get(n)}[t]


def expected_symmetrizers(t, n):
    """Half squared root lengths, shortest 1, in Bourbaki numbering."""
    if t == "B":
        return (2,) * (n - 1) + (1,)
    if t == "C":
        return (1,) * (n - 1) + (2,)
    if t == "F":
        return (2, 2, 1, 1)
    if t == "G":
        return (1, 3)
    return (1,) * n


# Bourbaki, LIE VI, Planches I-IX, with A[i][j] = <alpha_j, alpha_i^vee>
BOURBAKI_CARTAN = {
    ("A", 3): [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    ("B", 2): [[2, -1], [-2, 2]],
    ("C", 2): [[2, -2], [-1, 2]],
    ("B", 4): [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    ("C", 4): [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    ("D", 4): [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    ("D", 5): [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
               [0, 0, -1, 0, 2]],
    ("E", 6): [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
               [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]],
    ("E", 7): [[2, 0, -1, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0], [-1, 0, 2, -1, 0, 0, 0],
               [0, -1, -1, 2, -1, 0, 0], [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, -1],
               [0, 0, 0, 0, 0, -1, 2]],
    ("E", 8): [[2, 0, -1, 0, 0, 0, 0, 0], [0, 2, 0, -1, 0, 0, 0, 0],
               [-1, 0, 2, -1, 0, 0, 0, 0], [0, -1, -1, 2, -1, 0, 0, 0],
               [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
               [0, 0, 0, 0, 0, -1, 2, -1], [0, 0, 0, 0, 0, 0, -1, 2]],
    ("F", 4): [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    ("G", 2): [[2, -3], [-1, 2]],
}


@lru_cache(maxsize=None)
def solved_heights(t, n):
    """The x with sum_i x_i A[i][j] = 2 for every j, by exact Gaussian
    elimination on the transposed Cartan matrix and back substitution."""
    a = cartan_matrix(t, n)
    rows = [[Fraction(a[i][j]) for i in range(n)] + [Fraction(2)] for j in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][j] * x[j] for j in range(c + 1, n))) / rows[c][c]
    return tuple(x)


def fundamental_dimensions(t, n):
    """dim V(omega_i) for i = 1..n, in Bourbaki numbering."""
    if t == "A":
        return [comb(n + 1, i) for i in range(1, n + 1)]
    if t == "B":
        return [comb(2 * n + 1, i) for i in range(1, n)] + [2 ** n]
    if t == "C":
        return [comb(2 * n, i) - (comb(2 * n, i - 2) if i >= 2 else 0) for i in range(1, n + 1)]
    if t == "D":
        return [comb(2 * n, i) for i in range(1, n - 1)] + [2 ** (n - 1)] * 2
    return {("E", 6): [27, 78, 351, 2925, 351, 27],
            ("E", 7): [133, 912, 8645, 365750, 27664, 1539, 56],
            ("E", 8): [3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248],
            ("F", 4): [52, 1274, 273, 26],
            ("G", 2): [7, 14]}[(t, n)]


def probing_closure(cartan):
    """Positive roots by the string closure that probes each string depth."""
    n = len(cartan)
    roots = set()
    layer = []
    for i in range(n):
        v = tuple(1 if j == i else 0 for j in range(n))
        roots.add(v)
        layer.append(v)
    while layer:
        nxt = []
        for alpha in layer:
            for i in range(n):
                p = 0
                probe = list(alpha)
                while True:
                    probe[i] -= 1
                    if tuple(probe) in roots:
                        p += 1
                    else:
                        break
                pairing = sum(cartan[i][j] * alpha[j] for j in range(n))
                if p - pairing >= 1:
                    up = list(alpha)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        nxt.append(t)
        layer = nxt
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


def layered_tuple_closure(cartan):
    """Positive roots and exponents by the layered closure on coordinate tuples.

    Each root of a layer carries all n pairings and all n string depths, and
    every index is tried for every root.
    """
    n = len(cartan)
    cols = [[(j, cartan[j][i]) for j in range(n) if cartan[j][i]] for i in range(n)]
    layer = {tuple(1 if j == i else 0 for j in range(n)): ([row[i] for row in cartan], [0] * n)
             for i in range(n)}
    positive = []
    sizes = []
    while layer:
        positive.extend(sorted(layer))
        sizes.append(len(layer))
        nxt = {}
        for alpha, (pairings, depths) in layer.items():
            for i in range(n):
                p = depths[i]
                if p - pairings[i] < 1:
                    continue
                t = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                entry = nxt.get(t)
                if entry is None:
                    up = pairings.copy()
                    for j, a in cols[i]:
                        up[j] += a
                    entry = nxt[t] = (up, [0] * n)
                entry[1][i] = p + 1
        layer = nxt
    sizes.append(0)
    exps = tuple(h for h in range(1, len(sizes)) for _ in range(sizes[h - 1] - sizes[h]))
    return tuple(positive), exps


def weyl_dimension_dense(rs, weight):
    """The Weyl dimension with the full dot products per root, recomputed per call."""
    d = rs.symmetrizers
    dw = [(wj + 1) * dj for wj, dj in zip(weight, d)]
    num = 1
    den = 1
    for c in rs.positive_roots:
        num *= sum(map(mul, c, dw))
        den *= sum(map(mul, c, d))
    q, r = divmod(num, den)
    assert r == 0
    return q


def weyl_dimension_fraction(t, n, weight):
    """prod over positive roots of <w + rho, alpha^vee> / <rho, alpha^vee>, in Fractions.

    The coroot pairing is taken through the invariant form:
    <lam, alpha^vee> = (sum_j c_j lam_j d_j) / ((alpha, alpha) / 2), where
    (alpha_i, alpha_j) = d_i A[i][j] and d holds the closed-form symmetrizers.
    """
    a = cartan_matrix(t, n)
    d = expected_symmetrizers(t, n)
    out = Fraction(1)
    for c in build_root_system(t, n).positive_roots:
        half_norm = Fraction(sum(c[i] * c[j] * d[i] * a[i][j]
                                 for i in range(n) for j in range(n)), 2)
        shifted = sum(Fraction(c[j] * (weight[j] + 1) * d[j]) for j in range(n)) / half_norm
        rho = sum(Fraction(c[j] * d[j]) for j in range(n)) / half_norm
        out *= shifted / rho
    return out


def weyl_factors(rs, weight):
    """The Weyl factor (sum_j c_j (w_j + 1) d_j) / (sum_j c_j d_j) of each
    positive root, in positive_roots order."""
    d = rs.symmetrizers
    return [Fraction(sum(cj * (wj + 1) * dj for cj, wj, dj in zip(c, weight, d)),
                     sum(cj * dj for cj, dj in zip(c, d))) for c in rs.positive_roots]


def running_product(factors, bound):
    """The product of the factors, or None as soon as the product so far
    passes bound."""
    out = Fraction(1)
    for f in factors:
        out *= f
        if bound is not None and out > bound:
            return None
    assert out.denominator == 1
    return int(out)


def unpruned_irreps_up_to(rs, bound):
    """The weight search that evaluates every weight one step above a weight
    inside the bound, whatever its other lower neighbours are."""
    n = rs.rank
    start = (0,) * n
    dims = {start: 1}
    todo = [start]
    while todo:
        w = todo.pop()
        for i in range(n):
            up = w[:i] + (w[i] + 1,) + w[i + 1:]
            if up not in dims:
                dims[up] = dim = katzmod.roots._weyl_product(rs, up, bound)
                if dim is not None:
                    todo.append(up)
    return sorted((w, d) for w, d in dims.items() if d is not None)


class TestBuildRootSystem:
    def test_a2_heights(self):
        rs = build_root_system("A", 2)
        assert len(rs.positive_roots) == 3
        assert sorted(sum(r) for r in rs.positive_roots) == [1, 1, 2]

    def test_g2_heights(self):
        rs = build_root_system("G", 2)
        assert len(rs.positive_roots) == 6
        assert sorted(sum(r) for r in rs.positive_roots) == [1, 1, 2, 3, 4, 5]

    def test_e8_counts(self):
        rs = build_root_system("E", 8)
        assert len(rs.positive_roots) == 120
        assert 2 * len(rs.positive_roots) + 8 == 248

    def test_positive_coordinates_and_simple_heights(self):
        for t, n in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
            rs = build_root_system(t, n)
            assert all(all(c >= 0 for c in root) for root in rs.positive_roots)
            simples = [r for r in rs.positive_roots if sum(r) == 1]
            assert len(simples) == n

    def test_root_count_dimension_relation(self):
        for t, n in [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("E", 7), ("F", 4)]:
            rs = build_root_system(t, n)
            assert algebra_dimension(rs) == 2 * len(rs.positive_roots) + n

    def test_d3_permitted_and_flagged(self):
        rs = build_root_system("D", 3)
        assert rs.a3_isomorphic
        assert exponents(rs) == exponents(build_root_system("A", 3))
        assert not build_root_system("D", 4).a3_isomorphic

    def test_positive_root_counts_closed_form(self):
        for t, n in all_types(31):
            assert len(build_root_system(t, n).positive_roots) == positive_root_count(t, n), (t, n)

    def test_highest_root_height_is_coxeter_number_minus_one(self):
        for t, n in all_types(31):
            rs = build_root_system(t, n)
            heights = [sum(r) for r in rs.positive_roots]
            assert heights == sorted(heights)
            assert heights[-1] == coxeter_number(t, n) - 1, (t, n)
            assert heights.count(heights[-1]) == 1

    def test_symmetrizers_closed_form(self):
        # d symmetrizes the Cartan matrix: d_i A[i][j] = (alpha_i, alpha_j)
        for t, n in all_types(31):
            rs = build_root_system(t, n)
            d = rs.symmetrizers
            assert d == expected_symmetrizers(t, n), (t, n)
            # the Weyl denominators carried by the closure, recomputed
            assert rs.rho_pairings == tuple(sum(c * dj for c, dj in zip(r, d))
                                            for r in rs.positive_roots), (t, n)
            a = cartan_matrix(t, n)
            assert all(d[i] * a[i][j] == d[j] * a[j][i]
                       for i in range(n) for j in range(n)), (t, n)

    @pytest.mark.parametrize("t, n", sorted(BOURBAKI_CARTAN))
    def test_cartan_matrix_written_out(self, t, n):
        assert cartan_matrix(t, n) == BOURBAKI_CARTAN[(t, n)]
        assert build_root_system(t, n).cartan == tuple(map(tuple, BOURBAKI_CARTAN[(t, n)]))

    def test_layered_closure_matches_probing_closure(self):
        for t, n in all_types(10):
            rs = build_root_system(t, n)
            assert tuple(map(tuple, rs.positive_roots)) == \
                probing_closure(cartan_matrix(t, n)), (t, n)

    def test_packed_closure_matches_layered_tuple_closure(self):
        for t, n in all_types(31):
            rs = build_root_system(t, n)
            assert (tuple(map(tuple, rs.positive_roots)), rs.exponents) == \
                layered_tuple_closure(cartan_matrix(t, n)), (t, n)

    def test_coefficients_fit_one_byte(self):
        # roots are packed one byte per coordinate; the highest root of E_8
        # has the largest coefficient of any simple type, 6
        top = {(t, n): max(max(r) for r in build_root_system(t, n).positive_roots)
               for t, n in all_types(31)}
        assert max(top.values()) == top[("E", 8)] == 6
        assert all(type(r) is bytes and len(r) == n
                   for t, n in all_types(31) for r in build_root_system(t, n).positive_roots)

    def test_invalid_types_rejected(self):
        for t, n in [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
                     ("F", 2), ("F", 3), ("G", 3), ("H", 2), ("X", 3)]:
            for build in (build_root_system, cartan_matrix):
                with pytest.raises(ValueError, match=f"not a simple type: {t}{n}"):
                    build(t, n)

    def test_float_rank_rejected_after_int_build(self):
        # typed cache: 2.0 does not hit the entry of ("A", 2)
        build_root_system("A", 2)
        with pytest.raises(ValueError, match="rank must be an integer, got 2.0"):
            build_root_system("A", 2.0)

    def test_float_rank_rejected_cold(self):
        # no test builds D_40
        with pytest.raises(ValueError, match="rank must be an integer, got 40.0"):
            build_root_system("D", 40.0)

    def test_bool_rank_rejected_and_int_entry_kept(self):
        with pytest.raises(ValueError, match="rank must be an integer, got True"):
            build_root_system("A", True)
        rank = build_root_system("A", 1).rank
        assert rank == 1 and type(rank) is int


class TestExponents:
    def test_a_series(self):
        for n in range(1, 8):
            assert exponents(build_root_system("A", n)) == tuple(range(1, n + 1))

    def test_c4(self):
        assert exponents(build_root_system("C", 4)) == (1, 3, 5, 7)

    def test_d4(self):
        assert exponents(build_root_system("D", 4)) == (1, 3, 3, 5)

    def test_exceptional(self):
        assert exponents(build_root_system("E", 6)) == (1, 4, 5, 7, 8, 11)
        assert exponents(build_root_system("F", 4)) == (1, 5, 7, 11)
        assert exponents(build_root_system("G", 2)) == (1, 5)

    def test_layer_sizes_match_height_recount(self):
        # the dual partition of a Counter of root heights, recomputed here
        for t, n in all_types(31):
            rs = build_root_system(t, n)
            heights = Counter(sum(r) for r in rs.positive_roots)
            recount = sorted(h for h in heights for _ in range(heights[h] - heights[h + 1]))
            assert exponents(rs) == rs.exponents == tuple(recount), (t, n)

    def test_closed_form_matches_layer_sizes(self):
        types = all_types(32)
        assert len(types) == 129
        for t, n in types:
            assert type_exponents(t, n) == build_root_system(t, n).exponents, (t, n)

    def test_closed_form_sums_to_positive_root_count(self):
        for t, n in all_types(64):
            assert sum(type_exponents(t, n)) == positive_root_count(t, n), (t, n)

    def test_closed_form_rejects_what_is_not_a_type(self):
        for t, n, message in [("A", 0, "not a simple type: A0"),
                              ("A", True, "rank must be an integer, got True"),
                              ("A", 2.0, "rank must be an integer, got 2.0"),
                              ("E", 9, "not a simple type: E9"),
                              ("X", 3, "not a simple type: X3")]:
            with pytest.raises(ValueError, match=message):
                type_exponents(t, n)

    def test_wrong_closed_form_refuses_a_cold_build(self, monkeypatch):
        monkeypatch.setattr(katzmod.roots, "type_exponents", lambda t, n: tuple(range(1, n + 1)))
        build_root_system.cache_clear()
        try:
            with pytest.raises(RuntimeError, match=r"B3: layer sizes give exponents \(1, 3, 5\)"):
                build_root_system("B", 3)
            assert build_root_system("A", 3).exponents == (1, 2, 3)
        finally:
            build_root_system.cache_clear()

    def test_sum_rules(self):
        for t, n in [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("E", 7), ("G", 2)]:
            rs = build_root_system(t, n)
            exp = exponents(rs)
            assert sum(exp) == len(rs.positive_roots)
            assert sum(2 * r + 1 for r in exp) == algebra_dimension(rs)


class TestPrincipalHeights:
    def test_closed_form_equals_the_exact_solve(self):
        types = all_types(12)
        assert {("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)} <= set(types)
        for t, n in types:
            x = principal_heights(t, n)
            assert x == solved_heights(t, n), (t, n)
            assert all(type(v) is int and v >= 1 for v in x), (t, n)

    def test_adjoint_weight_has_height_twice_h_minus_1(self):
        # the highest root theta = sum c_j alpha_j has weight coordinates
        # sum_j c_j A[i][j], and its principal height 2 ht(theta) = 2(h - 1)
        # is the top h-eigenvalue on g
        for t, n in all_types(12):
            theta, a = build_root_system(t, n).positive_roots[-1], cartan_matrix(t, n)
            weight = [sum(map(mul, theta, row)) for row in a]
            assert min(weight) >= 0, (t, n)
            assert sum(map(mul, weight, principal_heights(t, n))) == 2 * coxeter_number(t, n) - 2

    def test_corrupted_heights_are_refused(self, monkeypatch):
        monkeypatch.setitem(katzmod.roots._EXCEPTIONAL_HEIGHTS, ("G", 2), (6, 9))
        with pytest.raises(RuntimeError, match=r"G2: heights \(6, 9\) do not solve"):
            principal_heights("G", 2)
        from katzmod.classify import classify
        with pytest.raises(RuntimeError, match="do not solve"):
            classify(7)

    def test_corrupted_heights_are_refused_under_optimisation(self):
        script = ("import katzmod.roots as r\n"
                  "r._EXCEPTIONAL_HEIGHTS[('F', 4)] = (22, 42, 30, 15)\n"
                  "try:\n"
                  "    r.principal_heights('F', 4)\n"
                  "except RuntimeError as exc:\n"
                  "    print(exc)\n")
        src = os.path.join(os.path.dirname(katzmod.roots.__file__), os.pardir)
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("F4: heights (22, 42, 30, 15) do not solve")

    def test_kostant_inequality(self):
        # the highest weight vector of V(lam) spans Sym^(sum lam_i x_i) of the
        # principal sl2 (Kostant 1959), so no irreducible is smaller
        for t, n in all_types(8):
            rs, x = build_root_system(t, n), principal_heights(t, n)
            for w, d in irreps_up_to(rs, 200):
                assert d >= sum(map(mul, w, x)) + 1, (t, n, w)

    def test_invalid_types_rejected(self):
        for t, n in [("A", 0), ("E", 9), ("X", 3)]:
            with pytest.raises(ValueError, match="not a simple type"):
                principal_heights(t, n)


class TestRestrict:
    @pytest.mark.parametrize("t, top", [("A", 40), ("B", 30), ("C", 30), ("D", 30)])
    def test_equals_a_direct_build_at_every_lower_rank(self, t, top):
        largest = build_root_system(t, top)
        for n in range(1, top):
            if not _valid_type(t, n):
                continue
            cut, built = restrict(largest, n), build_root_system(t, n)
            assert cut == built and repr(cut) == repr(built), (t, n)
            assert cut.rho_pairings == built.rho_pairings, (t, n)
            assert cut.symmetrizers == built.symmetrizers and cut.cartan == built.cartan, (t, n)

    @pytest.mark.parametrize("t, top", [("A", 40), ("B", 30), ("C", 30), ("D", 30)])
    def test_the_sweeps_cut_reads_a_direct_build_in_place(self, t, top):
        # the classification sweep cuts each lower rank from the largest
        # system with restrict, reading its layers without a closure of its own
        largest = build_root_system(t, top)
        for n in range(1, top):
            if not _valid_type(t, n):
                continue
            cut, built = restrict(largest, n), build_root_system(t, n)
            m = top - n
            # the largest system's roots that vanish on the first m
            # coordinates, in its order, with their last n coordinates
            kept = [i for i, r in enumerate(largest.positive_roots) if not any(r[:m])]
            assert cut.positive_roots == tuple(largest.positive_roots[i][m:] for i in kept), (t, n)
            assert cut.positive_roots == built.positive_roots, (t, n)
            assert all(type(r) is bytes and len(r) == n for r in cut.positive_roots), (t, n)
            assert cut.rho_pairings == tuple(largest.rho_pairings[i] for i in kept), (t, n)
            assert cut.symmetrizers == largest.symmetrizers[m:], (t, n)
            assert cut.exponents == built.exponents, (t, n)
            # the fundamental weights first: a coordinate read at the wrong
            # index fails here, before a search that could not end
            for j in range(n):
                w = tuple(int(i == j) for i in range(n))
                assert weyl_dimension(cut, w) == weyl_dimension(built, w), (t, n, j)
            assert irreps_up_to(cut, 300) == irreps_up_to(built, 300), (t, n)

    def test_own_rank_is_the_same_object(self):
        for t, n in all_types(8):
            rs = build_root_system(t, n)
            assert restrict(rs, n) is rs

    def test_what_cannot_be_cut_is_rejected(self):
        for t, top, n, message in [("E", 8, 7, "cannot cut E7 from E8"),
                                   ("E", 7, 6, "cannot cut E6 from E7"),
                                   ("F", 4, 2, "cannot cut F2 from F4"),
                                   ("G", 2, 1, "cannot cut G1 from G2"),
                                   ("A", 3, 4, "cannot cut A4 from A3"),
                                   ("D", 5, 2, "cannot cut D2 from D5"),
                                   ("B", 4, 1, "cannot cut B1 from B4"),
                                   ("C", 4, 1, "cannot cut C1 from C4"),
                                   ("A", 3, 0, "cannot cut A0 from A3"),
                                   ("A", 3, 2.0, "rank must be an integer, got 2.0"),
                                   ("A", 3, 3.0, "rank must be an integer, got 3.0"),
                                   ("A", 1, True, "rank must be an integer, got True")]:
            with pytest.raises(ValueError, match=message):
                restrict(build_root_system(t, top), n)

    def test_a_dropped_root_is_refused(self):
        rs = build_root_system("B", 5)
        for i in (0, 7, len(rs.positive_roots) - 1):
            roots = rs.positive_roots[:i] + rs.positive_roots[i + 1:]
            pairings = rs.rho_pairings[:i] + rs.rho_pairings[i + 1:]
            bad = rs._replace(positive_roots=roots, rho_pairings=pairings)
            with pytest.raises(RuntimeError, match="B5: 24 positive roots, but its exponents "
                                                   "give layers of 25"):
                restrict(bad, 3)

    def test_cut_layer_sizes_are_checked(self, monkeypatch):
        rs = build_root_system("C", 5)
        monkeypatch.setattr(katzmod.roots, "type_exponents", lambda t, n: tuple(range(1, n + 1)))
        with pytest.raises(RuntimeError, match=r"C3: layer sizes give exponents \(1, 3, 5\)"):
            restrict(rs, 3)


class TestAlgebraDimension:
    def test_small_values(self):
        assert algebra_dimension(build_root_system("G", 2)) == 14
        assert algebra_dimension(build_root_system("A", 3)) == 15
        assert algebra_dimension(build_root_system("E", 7)) == 133


class TestWeylDimension:
    def test_a1_sym_powers(self):
        rs = build_root_system("A", 1)
        for m in range(10):
            assert weyl_dimension(rs, (m,)) == m + 1

    def test_g2_fundamentals(self):
        rs = build_root_system("G", 2)
        assert weyl_dimension(rs, (1, 0)) == 7
        assert weyl_dimension(rs, (0, 1)) == 14

    def test_every_fundamental_dimension(self):
        # B_n and C_n share root counts and exponents; these tell them apart
        types = [(t, n) for t, n in all_types(8) if t in "ABCD"] + \
                [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
        for t, n in types:
            rs = build_root_system(t, n)
            got = [weyl_dimension(rs, tuple(int(j == i) for j in range(n))) for i in range(n)]
            assert got == fundamental_dimensions(t, n), (t, n)

    def test_c3_first_fundamental(self):
        rs = build_root_system("C", 3)
        assert weyl_dimension(rs, (1, 0, 0)) == 6

    def test_adjoint_dimensions(self):
        # the adjoint representation has dimension equal to the algebra's
        cases = {("B", 3): (0, 1, 0), ("C", 3): (2, 0, 0), ("G", 2): (0, 1),
                 ("A", 2): (1, 1), ("F", 4): (1, 0, 0, 0)}
        for (t, n), w in cases.items():
            rs = build_root_system(t, n)
            assert weyl_dimension(rs, w) == algebra_dimension(rs)

    def test_zero_weight_is_trivial(self):
        for t, n in [("A", 3), ("B", 4), ("C", 2), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]:
            rs = build_root_system(t, n)
            assert weyl_dimension(rs, (0,) * n) == 1

    def test_strict_monotonicity_small_rank(self):
        # the BFS pruning premise, exhaustively at small rank
        for t, n in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
            rs = build_root_system(t, n)
            grid = [(a,) for a in range(4)] if n == 1 else \
                   [(a, b) for a in range(4) for b in range(4)]
            for w in grid:
                base = weyl_dimension(rs, w)
                for i in range(n):
                    up = w[:i] + (w[i] + 1,) + w[i + 1:]
                    assert weyl_dimension(rs, up) > base

    def test_matches_fraction_product_formula(self):
        rng = random.Random(20041)
        for t, n in all_types(8):
            for _ in range(3):
                w = tuple(rng.randint(0, 3) for _ in range(n))
                assert weyl_dimension(build_root_system(t, n), w) == \
                    weyl_dimension_fraction(t, n, w), (t, n, w)

    def test_matches_dense_formula_on_every_small_irrep(self):
        for t, n in all_types(8):
            rs = build_root_system(t, n)
            for w, dim in irreps_up_to(rs, 500):
                assert dim == weyl_dimension(rs, w) == weyl_dimension_dense(rs, w), (t, n, w)

    def test_matches_dense_formula_on_random_weights(self):
        rng = random.Random(20090)
        types = [(t, n) for t, n in all_types(31) if t in "ABCD"] + \
                [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
        for _ in range(200):
            t, n = rng.choice(types)
            rs = build_root_system(t, n)
            w = tuple(rng.randint(0, 3) for _ in range(n))
            assert weyl_dimension(rs, w) == weyl_dimension_dense(rs, w), (t, n, w)

    def test_one_coordinate_weights_against_the_spelled_out_product(self):
        # c * omega_j reads one coordinate of each root; the bound is decided
        # on either side of the dimension D
        for t, n in all_types(8) + [("A", 29)]:
            rs = build_root_system(t, n)
            for j in range(n):
                for c in range(1, 4):
                    w = tuple(c * (i == j) for i in range(n))
                    factors = weyl_factors(rs, w)
                    dim = running_product(factors, None)
                    for bound in (None, dim - 1, dim, dim + 1):
                        want = running_product(factors, bound)
                        assert want == (None if bound == dim - 1 else dim)
                        assert _weyl_product(rs, w, bound) == want, (t, n, w, bound)

    def test_interleaved_root_systems_keep_their_own_denominators(self):
        for _ in range(2):
            assert weyl_dimension(build_root_system("B", 3), (1, 0, 0)) == 7
            assert weyl_dimension(build_root_system("C", 3), (1, 0, 0)) == 6

    def test_evaluated_root_system_equals_a_fresh_copy(self):
        # evaluating a weight caches nothing on the root system
        rs = build_root_system("F", 4)
        weyl_dimension(rs, (0, 0, 0, 1))
        fresh = rs._replace()
        assert rs == fresh and hash(rs) == hash(fresh) and repr(rs) == repr(fresh)

    def test_bad_weights_rejected(self):
        rs = build_root_system("A", 2)
        with pytest.raises(ValueError):
            weyl_dimension(rs, (1,))
        with pytest.raises(ValueError):
            weyl_dimension(rs, (-1, 0))
        for weight in [(1.0, 0), (True, 0), (0.5, 0), ("1", 0)]:
            with pytest.raises(ValueError, match="is not an integer"):
                weyl_dimension(rs, weight)


class TestIrrepsOfDimension:
    @pytest.mark.parametrize("kept", [0, 1])
    def test_a_system_whose_roots_miss_a_weight_is_refused(self, kept, monkeypatch):
        # every Weyl product of a weight the roots do not meet is 1, so a
        # search that trusted the dimension to grow would never end; it
        # stops at the first such weight, one step above the zero weight
        rs = build_root_system("A", 2)
        rs = rs._replace(positive_roots=rs.positive_roots[:kept],
                         rho_pairings=rs.rho_pairings[:kept])
        calls = []
        real = katzmod.roots._weyl_product

        def counted(*args):
            calls.append(args[1])
            if len(calls) > 10:
                raise AssertionError(f"the search goes on: {calls}")
            return real(*args)

        monkeypatch.setattr(katzmod.roots, "_weyl_product", counted)
        with pytest.raises(RuntimeError, match=r"A2: weight \(\d, \d\) has dimension 1, "
                                               r"not above the 1 of \(0, 0\)"):
            irreps_up_to(rs, 10)
        assert len(calls) <= 2

    def test_a_system_whose_roots_miss_the_last_coordinate_is_refused(self, monkeypatch):
        # A3 with only the roots whose last coordinate is 0, those of A2: the
        # descent meets last coordinates only after raising the others, and
        # still stops at the first weight whose dimension does not grow
        rs = build_root_system("A", 3)
        kept = [i for i, root in enumerate(rs.positive_roots) if not root[-1]]
        rs = rs._replace(positive_roots=tuple(rs.positive_roots[i] for i in kept),
                         rho_pairings=tuple(rs.rho_pairings[i] for i in kept))
        calls = []
        real = katzmod.roots._weyl_product

        def counted(*args):
            calls.append(args[1])
            if len(calls) > 20:
                raise AssertionError(f"the search goes on: {calls}")
            return real(*args)

        monkeypatch.setattr(katzmod.roots, "_weyl_product", counted)
        with pytest.raises(RuntimeError, match=r"A3: weight \(\d, \d, 1\) has dimension (\d+), "
                                               r"not above the \1 of \(\d, \d, 0\)"):
            irreps_up_to(rs, 10)

    def test_a1_unique_sym8(self):
        rs = build_root_system("A", 1)
        assert irreps_of_dimension(rs, 9) == [(8,)]

    def test_c2_defining(self):
        rs = build_root_system("C", 2)
        assert (1, 0) in irreps_of_dimension(rs, 4)

    def test_g2_has_nothing_of_dimension_5(self):
        rs = build_root_system("G", 2)
        assert irreps_of_dimension(rs, 5) == []

    def test_g2_small_dims(self):
        rs = build_root_system("G", 2)
        dims = sorted(d for _, d in irreps_up_to(rs, 30))
        assert dims == [1, 7, 14, 27]

    def test_b2_c2_same_dimensions(self):
        b2 = sorted(d for _, d in irreps_up_to(build_root_system("B", 2), 12))
        c2 = sorted(d for _, d in irreps_up_to(build_root_system("C", 2), 12))
        assert b2 == c2 == [1, 4, 5, 10]

    def test_dimension_values_match_weyl(self):
        rs = build_root_system("B", 3)
        for w, d in irreps_up_to(rs, 40):
            assert weyl_dimension(rs, w) == d

    @pytest.mark.parametrize("bound", [1, 7, 50, 300])
    def test_search_cuts_off_nothing(self, bound):
        # every weight of dimension <= bound lies in the box below the least
        # c_i with dim(c_i omega_i) > bound, since the dimension grows in each
        # coordinate; the public formula over that box is the oracle
        for t, n in all_types(4):
            rs = build_root_system(t, n)
            limits = []
            for i in range(n):
                c = 1
                while weyl_dimension(rs, tuple(c if j == i else 0 for j in range(n))) <= bound:
                    c += 1
                limits.append(c)
            want = [(w, d) for w in itertools.product(*map(range, limits))
                    if (d := weyl_dimension(rs, w)) <= bound]
            assert irreps_up_to(rs, bound) == want, (t, n)

    @pytest.mark.parametrize("bound", [1, 2, 9, 60, 300, 2000])
    def test_descent_equals_the_unpruned_search(self, bound):
        for t, n in all_types(8):
            rs = build_root_system(t, n)
            assert irreps_up_to(rs, bound) == unpruned_irreps_up_to(rs, bound), (t, n)

    def test_no_weight_is_probed_twice(self, monkeypatch):
        # a spy on every Weyl product: the descent probes each weight at most
        # once, so never more weights than the search that probes every
        # weight one step above one inside
        real = katzmod.roots._weyl_product
        probed = []

        def spy(rs, weight, bound=None):
            probed.append(weight)
            return real(rs, weight, bound)

        def probes(search, rs, bound):
            probed.clear()
            search(rs, bound)
            return Counter(probed)

        monkeypatch.setattr(katzmod.roots, "_weyl_product", spy)
        for t, n in all_types(8):
            rs = build_root_system(t, n)
            for bound in (60, 2000):
                unpruned = probes(unpruned_irreps_up_to, rs, bound)
                descent = probes(irreps_up_to, rs, bound)
                assert max(descent.values()) == 1, (t, n, bound)
                assert descent.total() <= unpruned.total(), (t, n, bound)

    def test_bad_bound_rejected(self):
        rs = build_root_system("B", 2)
        for bound in [0, -5, 3.5, 4.0, True]:
            with pytest.raises(ValueError, match="bound must be a positive integer"):
                irreps_up_to(rs, bound)
        assert irreps_up_to(rs, 1) == [((0, 0), 1)]

    def test_bad_dimension_rejected(self):
        for k in [0, 3.0, True]:
            with pytest.raises(ValueError, match="positive integer"):
                irreps_of_dimension(build_root_system("A", 1), k)
