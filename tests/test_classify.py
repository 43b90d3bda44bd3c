"""The exponent-criteria scan, the two filters, and the Frobenius check."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import katzmod.classify
from katzmod.cli import main
from katzmod.classify import (exponent_criteria, classify, classify_all, ht_filter,
                              form_filter, frobenius_dimension_check, ClassificationCase,
                              LABEL_SYM_POWER, LABEL_FULL_SL, LABEL_SYMPLECTIC,
                              LABEL_ORTHOGONAL, LABEL_G2,
                              _left_out, _weights_of_height, _label_for, _passing_ks)
from katzmod.roots import build_root_system, exponents, type_exponents, irreps_of_dimension, \
    irreps_up_to, principal_heights, weyl_dimension, SIMPLE_TYPES, _valid_type
from katzmod.sl2 import principal_triple
from katzmod.verify import expected_case_names
from test_roots import all_types, solved_heights
from test_sl2 import dense_form_kernel, strip_matrix


def names(cases):
    return sorted(c.name for c in cases)


def listed_candidate_types(k):
    """The simple types of rank at most k-1, written out type by type without
    asking roots which (type, rank) pairs exist."""
    bound = k - 1
    for n in range(1, bound + 1):
        yield ("A", n)
    for n in range(2, bound + 1):
        yield ("B", n)
    for n in range(2, bound + 1):
        yield ("C", n)
    for n in range(4, bound + 1):
        yield ("D", n)
    for n in (6, 7, 8):
        if n <= bound:
            yield ("E", n)
    if 4 <= bound:
        yield ("F", 4)
    if 2 <= bound:
        yield ("G", 2)


def pairwise_closed(exps, k):
    """Closure read off its statement, every pair in both orders."""
    closed = True
    for r in exps:
        for s in exps:
            if r + s <= k and r + s - 1 not in exps:
                closed = False
    return closed


def spelled_out_criteria(exps, k):
    """The exponent criteria read off their statement."""
    distinct = len(set(exps)) == len(exps)
    bounded = max(exps) <= k - 1
    return distinct and bounded and pairwise_closed(exps, k)


def pair_scan(exps, limit):
    """The criterion's interval by a scan over the sorted pairs r <= s of
    sorted integer exponents, stopped at the first failing sum of each r."""
    lo = exps[-1]
    if lo >= limit:
        return range(0)
    eset = set(exps)
    if len(eset) != len(exps):
        return range(0)
    end = limit + 1
    for i, r in enumerate(exps):
        for s in exps[i:]:
            if r + s >= end:
                break
            if r + s - 1 not in eset:
                end = r + s
                break
    return range(lo + 1, end)


def passing_by_hand(t, n):
    """The k at which t_n passes the criteria, read off Bourbaki's exponents
    letter by letter: E = {1} is closed at every k; 1..n first fails at
    2 + n, the odd 1..2n-1 at 3 + (2n-1), D_3's 1, 2, 3 at 2 + 3, and G_2's
    1, 5 at 5 + 5; D_n for n >= 4 repeats n-1 or fails at (n-1) + 3 below
    its bound 2n-2, and E_6, E_7, E_8, F_4 fail at 5 + 5, 7 + 9, 11 + 11, 5 + 5
    below theirs."""
    if t == "A":
        return range(2, 10**9) if n == 1 else range(n + 1, n + 2)
    if t in ("B", "C"):
        return range(2 * n, 2 * n + 2)
    if (t, n) == ("D", 3):
        return range(4, 5)
    if t == "G":
        return range(6, 10)
    return range(0)


def same_range(a, b):
    return (a.start, a.stop, a.step) == (b.start, b.stop, b.step)


def spelled_out_cases(k):
    """(name, label, exponents, sorted realizing weights) per case, in order,
    from the pairwise criteria and irreps_of_dimension over the candidates:
    the written-out types less the low-rank models left out at k."""
    rows = []
    for t, n in listed_candidate_types(k):
        if (t, n) in _left_out(k):
            continue
        exps = type_exponents(t, n)
        if spelled_out_criteria(exps, k):
            weights = irreps_of_dimension(build_root_system(t, n), k)
            if weights:
                rows.append((f"{t}_{n}", _label_for(t, n, k), exps, weights))
    return rows


def assert_closed_form_cases(top):
    """One sweep over k = 2..top gives the closed-form case list at every k:
    A_1 by Sym^(k-1), A_(k-1) by its defining weight and its dual, C_(k/2) for
    even k and B_((k-1)/2) for odd k >= 5 by their first fundamental weight,
    and G_2 by its 7-dimensional one at 7."""
    def unit(n, i):
        return tuple(int(j == i) for j in range(n))

    swept = classify_all(range(2, top + 1))
    assert list(swept) == list(range(2, top + 1))
    for k, cases in swept.items():
        want = [("A_1", LABEL_SYM_POWER, ((k - 1,),))]
        if k > 2:
            n = k - 1
            want.append((f"A_{n}", LABEL_FULL_SL, (unit(n, 0), unit(n, n - 1))))
        if k % 2 == 0 and k > 2:
            want.append((f"C_{k // 2}", LABEL_SYMPLECTIC, (unit(k // 2, 0),)))
        if k % 2 == 1 and k >= 5:
            want.append((f"B_{(k - 1) // 2}", LABEL_ORTHOGONAL, (unit((k - 1) // 2, 0),)))
        if k == 7:
            want.append(("G_2", LABEL_G2, ((1, 0),)))
        got = [(c.name, c.label, tuple(sorted(c.realizing_weights, reverse=True)))
               for c in cases]
        assert got == want, k


def dimension_only_weights(rs, k):
    """The dominant weights of Weyl dimension k, in decreasing order, from the
    search over every weight of dimension <= k."""
    return tuple(sorted((w for w, d in irreps_up_to(rs, k) if d == k), reverse=True))


def height_solutions(t, n, height):
    """The nonnegative lam with sum lam_i x_i = height, in decreasing order, by
    brute force over the box lam_i <= height / x_i, x the exact solve of
    A^T x = (2, ..., 2)."""
    x = solved_heights(t, n)
    box = itertools.product(*(range(int(height // v) + 1) for v in x))
    return sorted((w for w in box if sum(c * v for c, v in zip(w, x)) == height), reverse=True)


def with_candidates(k):
    """The types classify(k) reads: passing the criteria at k, not left out
    at k, and with a weight of principal height k - 1."""
    return [(t, n) for t, n in listed_candidate_types(k)
            if (t, n) not in _left_out(k) and spelled_out_criteria(type_exponents(t, n), k)
            and height_solutions(t, n, k - 1)]


def classify_building_every_type(k):
    """(name, label, exponents, realizing weights) per case, in order, by the
    route that builds the root system of every written-out type (B_2 and C_2
    both), reads its exponents off the layer sizes, merges B_2 = C_2 by the
    parity of k and sorts the cases by label."""
    passing = {}
    for t, n in listed_candidate_types(k):
        rs = build_root_system(t, n)
        if not exponent_criteria(rs.exponents, k):
            continue
        weights = dimension_only_weights(rs, k)
        if weights:
            passing[(t, n)] = (rs.exponents, weights)
    if ("B", 2) in passing and ("C", 2) in passing:
        del passing[("B", 2) if k % 2 == 0 else ("C", 2)]
    order = [LABEL_SYM_POWER, LABEL_FULL_SL, LABEL_SYMPLECTIC, LABEL_ORTHOGONAL, LABEL_G2]
    rows = [(f"{t}_{n}", _label_for(t, n, k), exps, weights)
            for (t, n), (exps, weights) in passing.items()]
    return sorted(rows, key=lambda row: order.index(row[1]))


class TestExponentCriteria:
    def test_c3_all_pass(self):
        assert exponent_criteria((1, 3, 5), 6) is True

    def test_d4_not_distinct(self):
        exps = (1, 3, 3, 5)
        assert len(set(exps)) < len(exps)
        assert exponent_criteria(exps, 8) is False
        # (1, 1) at k = 2 is bounded (1 <= 1) and closed: distinctness alone rejects it
        assert pairwise_closed((1, 1), 2)
        assert exponent_criteria((1, 1), 2) is False

    def test_f4_not_closed(self):
        # the pair (5, 5) asks for exponent 9, which F_4 lacks
        exps = (1, 5, 7, 11)
        assert len(set(exps)) == len(exps) and max(exps) <= 25
        assert not pairwise_closed(exps, 26)
        assert exponent_criteria(exps, 26) is False

    def test_bounded_flag(self):
        # distinct and closed at k = 4, so only the bound 5 > 3 rejects it
        assert pairwise_closed((1, 5), 4)
        assert exponent_criteria((1, 5), 4) is False
        assert exponent_criteria((1, 5), 6) is True

    def test_matches_computed_exponents(self):
        assert exponent_criteria(exponents(build_root_system("C", 3)), 6) is True

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exponent_criteria((), 4)

    def test_non_integer_k_rejected(self):
        for k in [2.5, 6.0, True, "6"]:
            with pytest.raises(ValueError, match="k must be an integer"):
                exponent_criteria((1, 3, 5), k)

    def test_non_integer_exponent_rejected(self):
        for bad in [2.5, 1.0, True, "1"]:
            with pytest.raises(ValueError, match="is not an integer"):
                exponent_criteria((bad, 3, 5), 6)


class TestScanPredicate:
    def test_matches_the_public_criteria(self):
        for k in range(2, 61):
            for t, n in listed_candidate_types(k):
                exps = type_exponents(t, n)
                want = spelled_out_criteria(exps, k)
                assert (k in _passing_ks(exps, k)) == want, (t, n, k)
                assert exponent_criteria(exps, k) == want, (t, n, k)
                assert exponent_criteria(reversed(exps), k) == want, (t, n, k)

    def test_interval_matches_the_pairwise_definition(self):
        # every simple type of rank <= 40, and random integer tuples with
        # duplicates, 0 and negatives; none of those passes at any k below 2,
        # so the interval up to 45 is the list of k in -2..45 that pass
        types = [type_exponents(t, n) for t in SIMPLE_TYPES for n in range(1, 41)
                 if _valid_type(t, n)]
        rng = random.Random(2020)
        tuples = [tuple(rng.randint(-3, 12) for _ in range(rng.randint(1, 8)))
                  for _ in range(1500)]
        for exps in types + tuples:
            want = [k for k in range(-2, 46) if spelled_out_criteria(exps, k)]
            assert [k for k in range(-2, 46) if exponent_criteria(exps, k)] == want, exps
            assert list(_passing_ks(tuple(sorted(exps)), 45)) == want, exps
        # each interval is stopped at the limit, and cut off by the bound first
        assert _passing_ks((1,), 9) == range(2, 10)
        assert _passing_ks((1, 3, 5), 30) == range(6, 8)
        assert _passing_ks((1, 3, 5), 5) == range(0)


class TestBitmaskCriterion:
    def test_every_type_up_to_rank_300_at_every_limit(self):
        # the statement itself up to rank 40 (its cost grows as rank^5); the
        # by-hand sets, checked there against it, up to rank 300
        for t in SIMPLE_TYPES:
            for n in range(1, 301):
                if not _valid_type(t, n):
                    continue
                exps = type_exponents(t, n)
                by_hand = passing_by_hand(t, n)
                if n <= 40:
                    want = [k for k in range(-2, 2 * n + 5) if spelled_out_criteria(exps, k)]
                    assert want == [k for k in range(-2, 2 * n + 5) if k in by_hand], (t, n)
                for limit in range(-2, 2 * n + 5):
                    got = _passing_ks(exps, limit)
                    assert got == range(by_hand.start, min(by_hand.stop, limit + 1)), \
                        (t, n, limit)

    def test_same_range_as_the_pair_scan(self):
        # ints in -6..14 with duplicates, 0 and negatives; the start and stop
        # of every range agree, empty ones included
        rng = random.Random(34)
        for _ in range(5000):
            exps = tuple(sorted(rng.randint(-6, 14) for _ in range(rng.randint(1, 8))))
            for limit in range(-7, 31):
                got, want = _passing_ks(exps, limit), pair_scan(exps, limit)
                assert same_range(got, want), (exps, limit, got, want)

    def test_wide_spans_stay_fast(self):
        # the masks are as wide as the span of the exponents
        for exps, k, want in (((1, 10**6), 10**6 + 1, True), ((-10**6, 1), 5, False)):
            assert (k in pair_scan(exps, k)) is want
            start = time.perf_counter()
            got = exponent_criteria(exps, k)
            assert time.perf_counter() - start < 0.05, exps
            assert got is want, exps

    def test_wide_spans_stay_small(self):
        # the masks would be as wide as the span; a span above the square of
        # the count reads the pair sums, and a least exponent <= 0 reads none
        for exps, k, want in (((1, 10**8), 10**8 + 1, True), ((-10**8, 5), 10, False)):
            assert (k in pair_scan(exps, k)) is want
            tracemalloc.start()
            try:
                got = exponent_criteria(exps, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (exps, peak)
            assert got is want, exps

    def test_sparse_and_dense_against_the_pair_scan(self):
        # wide spans with and without 1, and with 0 or negatives, so both the
        # pair sums and the bitmasks run; limits at every end of the interval
        rng = random.Random(35)
        paths = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            top = rng.choice((n * n, 10**3, 10**6))
            exps = [rng.randint(rng.choice((-top, 0, 1)), top) for _ in range(n)]
            if rng.random() < 0.5:
                exps.append(1)
            if rng.random() < 0.2:
                exps.append(exps[0])
            exps = tuple(sorted(exps))
            full = pair_scan(exps, 10**7)
            paths.add("nonpositive" if exps[0] <= 0
                      else "sparse" if exps[-1] - exps[0] > len(exps) ** 2 else "dense")
            for limit in {exps[-1] - 1, exps[-1], exps[-1] + 1, full.stop - 2, full.stop - 1,
                          full.stop, full.stop + 1, rng.randint(-10, 2 * top)}:
                got, want = _passing_ks(exps, limit), pair_scan(exps, limit)
                assert same_range(got, want), (exps, limit, got, want)
                for k in {limit, exps[-1] + 1, full.stop - 1}:
                    if abs(k) <= 10**4:
                        assert (k in _passing_ks(exps, k)) == spelled_out_criteria(exps, k), \
                            (exps, k)
        assert paths == {"nonpositive", "sparse", "dense"}

    def test_malformed_input_raises_as_before(self):
        for bad in (True, 2.5, "1", ()):
            shown = re.escape(repr(bad))
            with pytest.raises(ValueError, match=rf"^k must be an integer, got {shown}$"):
                exponent_criteria((1, 3), bad)
            if bad != ():
                with pytest.raises(ValueError, match=rf"^exponent {shown} is not an integer$"):
                    exponent_criteria((1, bad), 6)
        with pytest.raises(ValueError, match="^empty exponent list$"):
            exponent_criteria((), 6)


class TestSweepBound:
    def test_largest_exponent_grows_with_the_rank(self):
        # so the first rank of a letter whose largest exponent reaches k is
        # not bounded, and neither is any higher one
        for t in SIMPLE_TYPES:
            tops = [type_exponents(t, n)[-1] for n in range(1, 301) if _valid_type(t, n)]
            assert tops and all(a < b for a, b in zip(tops, tops[1:])), t

    def test_criterion_runs_only_below_the_bound(self, monkeypatch):
        calls = []
        real = katzmod.classify._passing_ks
        monkeypatch.setattr(katzmod.classify, "_passing_ks",
                            lambda exps, limit: calls.append((exps, limit)) or real(exps, limit))
        for k in range(2, 41):
            calls.clear()
            classify_all((k,))
            want = [(type_exponents(t, n), k) for t in SIMPLE_TYPES for n in range(1, k + 1)
                    if _valid_type(t, n) and type_exponents(t, n)[-1] < k]
            assert calls == want, k

    def test_a_cold_sweep_stays_small(self):
        # a fresh process, so that no root system is cached.  On Python 3.11
        # the traced peak over every even d <= 120 is 3.6 MB; roots held as
        # tuples of ints, with every lower rank read in place from the largest
        # system, peaked at 10.4 MB
        script = ("import tracemalloc\n"
                  "tracemalloc.start()\n"
                  "from katzmod.classify import classify_all\n"
                  "classify_all(range(2, 121, 2))\n"
                  "print(tracemalloc.get_traced_memory()[1])\n")
        src = os.path.join(os.path.dirname(katzmod.classify.__file__), os.pardir)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 6 * 10**6


class TestClassify:
    def test_k4(self):
        assert names(classify(4)) == ["A_1", "A_3", "C_2"]

    def test_k7_includes_g2(self):
        assert names(classify(7)) == ["A_1", "A_6", "B_3", "G_2"]

    def test_k2_collapsed(self):
        cases = classify(2)
        assert names(cases) == ["A_1"]
        assert len(cases) == 1

    def test_k3(self):
        assert names(classify(3)) == ["A_1", "A_2"]

    def test_k5_orthogonal_labelled_b2(self):
        cases = classify(5)
        assert names(cases) == ["A_1", "A_4", "B_2"]
        labels = {c.name: c.label for c in cases}
        assert labels["B_2"] == LABEL_ORTHOGONAL

    def test_k4_symplectic_labelled_c2(self):
        labels = {c.name: c.label for c in classify(4)}
        assert labels["C_2"] == LABEL_SYMPLECTIC
        assert labels["A_1"] == LABEL_SYM_POWER
        assert labels["A_3"] == LABEL_FULL_SL

    def test_g2_only_at_seven(self):
        for k in (6, 8, 9, 14):
            assert all(c.label != LABEL_G2 for c in classify(k))

    def test_realizing_weights_nonempty(self):
        for k in (4, 5, 7, 10):
            for case in classify(k):
                assert case.realizing_weights

    def test_matches_building_every_type(self):
        for k in range(2, 25):
            got = [(c.name, c.label, c.exponents, c.realizing_weights)
                   for c in classify(k)]
            assert got == classify_building_every_type(k), k

    def test_names_beyond_verify_paper(self):
        for k in range(31, 65):
            assert names(classify(k)) == expected_case_names(k), k

    def test_labels_in_case_order(self):
        for k in range(2, 65):
            want = ([LABEL_SYM_POWER] + [LABEL_FULL_SL] * (k > 2)
                    + [LABEL_SYMPLECTIC] * (k % 2 == 0 and k > 2)
                    + [LABEL_ORTHOGONAL] * (k % 2 == 1 and k > 3) + [LABEL_G2] * (k == 7))
            assert [c.label for c in classify(k)] == want, k

    def test_builds_only_the_types_that_pass(self):
        # one build per letter with a passing rank that has a weight of
        # principal height k - 1: A_1 is cut from A_(k-1); at k = 7 that is
        # A_6, B_3 and G_2, and not C_3, whose heights 5, 8, 9 miss 6
        for k in (2, 7, 12, 25):
            letters = {t for t, n in with_candidates(k)}
            build_root_system.cache_clear()
            classify(k)
            assert build_root_system.cache_info().misses == len(letters), k
        assert {t for t, n in with_candidates(7)} == {"A", "B", "G"}

    def test_classify_all_matches_the_pairwise_scan(self):
        swept = classify_all(range(2, 41))
        assert list(swept) == list(range(2, 41))
        for k, cases in swept.items():
            got = [(c.name, c.label, c.exponents, sorted(c.realizing_weights)) for c in cases]
            assert got == spelled_out_cases(k), k
            assert cases == classify(k), k

    def test_classify_all_builds_each_letter_once_and_weighs_only_candidates(self,
                                                                               monkeypatch):
        ks = range(2, 41)
        candidates = []
        for k in ks:
            candidates += [(f"{t}{n}", w, k) for t, n in with_candidates(k)
                           for w in height_solutions(t, n, k - 1)]
        weighed = []
        real = katzmod.classify.weyl_dimension
        monkeypatch.setattr(katzmod.classify, "weyl_dimension",
                            lambda rs, w: weighed.append((rs.name, w)) or real(rs, w))
        build_root_system.cache_clear()
        classify_all(ks)
        # one build per letter, at its largest rank with a candidate; the
        # lower ranks are cut from it
        assert build_root_system.cache_info().misses == len({name[0] for name, _, _ in candidates})
        # one Weyl dimension per weight of principal height k - 1, and no search
        assert sorted(weighed) == sorted((name, w) for name, w, _ in candidates)
        assert ("A1", (39,)) in weighed and ("G2", (1, 0)) in weighed
        assert "irreps_up_to" not in vars(katzmod.classify)

    def test_classify_all_closed_form_cases_up_to_80(self):
        assert_closed_form_cases(80)

    def test_classify_all_closed_form_cases_up_to_200(self):
        # the sweep reads A_1..A_198 in place from A_199, and B_n, C_n from
        # B_100, C_100
        assert_closed_form_cases(200)

    def test_classify_all_keys_and_errors(self):
        swept = classify_all([9, 3, 9])
        assert list(swept) == [9, 3]
        assert swept[9] == classify(9) and swept[3] == classify(3)
        assert classify_all([]) == {}
        for ks in ([4, 1], [4, 4.0], [True]):
            with pytest.raises(ValueError, match="integer k >= 2, got"):
                classify_all(ks)

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            classify(1)

    def test_float_or_bool_k_rejected(self):
        for k in [4.0, True]:
            with pytest.raises(ValueError, match="integer k >= 2, got"):
                classify(k)


class TestHeightSearch:
    def test_enumeration_against_brute_force(self):
        for t, n in all_types(6):
            x = principal_heights(t, n)
            for height in range(0, 25):
                assert _weights_of_height(x, height) == height_solutions(t, n, height), \
                    (t, n, height)

    def test_equals_the_dimension_only_search(self):
        # every type that passes the criteria at k, the models left out
        # included: its weights of principal height k - 1 and Weyl dimension
        # k are its weights of dimension k, in the same order
        for k in range(2, 61):
            for t, n in listed_candidate_types(k):
                if not spelled_out_criteria(type_exponents(t, n), k):
                    continue
                rs = build_root_system(t, n)
                found = tuple(w for w in _weights_of_height(principal_heights(t, n), k - 1)
                              if weyl_dimension(rs, w) == k)
                assert found == dimension_only_weights(rs, k), (t, n, k)

    def test_products_of_two_simple_types_never_have_one_block(self):
        # on V1 x V2 the principal sl2 of g1 x g2 has highest weight a + b, a
        # and b the principal heights of the two weights, so one Jordan block
        # would need dim1 dim2 = a + b + 1: only simple g need be scanned
        irreps = {}
        for t, n in all_types(4):
            x = principal_heights(t, n)
            irreps[(t, n)] = [(d, sum(c * v for c, v in zip(w, x)))
                              for w, d in irreps_up_to(build_root_system(t, n), 15) if d > 1]
        pairs = 0
        for g1, g2 in itertools.combinations_with_replacement(sorted(irreps), 2):
            for d1, a in irreps[g1]:
                for d2, b in irreps[g2]:
                    if d1 * d2 <= 30:
                        pairs += 1
                        assert d1 * d2 > a + b + 1, (g1, g2, d1, d2)
        assert pairs > 100


class TestScanNegatives:
    """Types with a k-dimensional irreducible must still fail a flag."""

    def test_f4_at_26(self):
        rs = build_root_system("F", 4)
        assert irreps_of_dimension(rs, 26)  # the 26-dim representation exists
        exps = exponents(rs)
        assert len(set(exps)) == len(exps) and max(exps) <= 25
        assert not pairwise_closed(exps, 26)
        assert exponent_criteria(exps, 26) is False

    def test_a2_at_6(self):
        rs = build_root_system("A", 2)
        assert irreps_of_dimension(rs, 6)  # Sym^2 of the defining rep
        exps = exponents(rs)
        assert len(set(exps)) == len(exps) and max(exps) <= 5
        assert not pairwise_closed(exps, 6)
        assert exponent_criteria(exps, 6) is False

    def test_e_series_never_pass(self):
        # bounded forces k past the point where closure already failed
        for n, first_bounded_k in ((6, 12), (7, 18), (8, 30)):
            exp = exponents(build_root_system("E", n))
            assert max(exp) == first_bounded_k - 1
            assert exponent_criteria(exp, first_bounded_k - 1) is False
            assert len(set(exp)) == len(exp) and not pairwise_closed(exp, first_bounded_k)
            assert exponent_criteria(exp, first_bounded_k) is False

    def test_b5_at_10_lacks_irrep(self):
        # exponent flags all pass, but so_11 has no 10-dimensional irreducible
        rs = build_root_system("B", 5)
        assert exponent_criteria(exponents(rs), 10) is True
        assert irreps_of_dimension(rs, 10) == []
        assert "B_5" not in names(classify(10))

    def test_d5_at_8(self):
        exps = exponents(build_root_system("D", 5))
        assert len(set(exps)) == len(exps) and max(exps) <= 7
        assert not pairwise_closed(exps, 8)
        assert exponent_criteria(exps, 8) is False


class TestHtFilter:
    def test_two_weights_remove_sym_power(self):
        filtered = ht_filter(classify(4), 4, {0, -5})
        assert names(filtered) == ["A_3", "C_2"]

    def test_k2_untouched(self):
        cases = classify(2)
        assert ht_filter(cases, 2, [0, -3]) == list(cases)

    def test_many_weights_untouched(self):
        cases = classify(6)
        assert ht_filter(cases, 6, range(6)) == list(cases)

    def test_weight_count(self):
        # a repeated weight counts once: [0, 0] is one weight, [0, -5, -5] two
        assert names(ht_filter(classify(4), 4, [0, 0])) == ["A_1", "A_3", "C_2"]
        assert names(ht_filter(classify(4), 4, [0, -5, -5])) == ["A_3", "C_2"]

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError, match="need at least one Hodge-Tate weight"):
            ht_filter(classify(4), 4, set())

    @pytest.mark.parametrize("weights", [{0.5, -5}, [True, 2], [1, True], [0, 1.0], ("0", -5)])
    def test_non_integer_weights_rejected(self, weights):
        # a weight is never coerced: int() used to read 0.5 as 0 and True as 1
        with pytest.raises(ValueError, match="Hodge-Tate weight .* is not an integer"):
            ht_filter(classify(4), 4, weights)

    def test_float_weights_rejected(self):
        with pytest.raises(ValueError, match="is not an integer"):
            ht_filter(classify(4), 4, (0.9, -5.2))

    def test_bad_k_rejected(self):
        # checked before the weights: these used to return the cases unfiltered,
        # or die with a bare TypeError for a str
        for k in (True, 1, 0, -3, "4", 4.0):
            with pytest.raises(ValueError, match=rf"^need an integer k >= 2, got {k!r}$"):
                ht_filter(classify(4), k, (0, -5))


class TestFormFilter:
    def test_k4_concludes_gsp4(self):
        cases = ht_filter(classify(4), 4, [0, -5])
        kept, conclusion = form_filter(cases, 4)
        assert names(kept) == ["C_2"]
        assert conclusion == "GSp_4"

    def test_k2_concludes_gsp2(self):
        kept, conclusion = form_filter(classify(2), 2)
        assert names(kept) == ["A_1"]
        assert conclusion == "GSp_2"

    def test_k10(self):
        cases = ht_filter(classify(10), 10, [0, -11])
        assert names(cases) == ["A_9", "C_5"]
        kept, conclusion = form_filter(cases, 10)
        assert names(kept) == ["C_5"]
        assert conclusion == "GSp_10"

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            form_filter(classify(5), 5)

    def test_bad_k_rejected(self):
        # checked before the parity: a str used to die with a bare TypeError,
        # and True was reported as odd
        for k in (True, False, 0, -2, "4", 4.0):
            with pytest.raises(ValueError, match=rf"^need an integer k >= 2, got {k!r}$"):
                form_filter(classify(4), k)
        for k in (3, 5):
            with pytest.raises(ValueError, match="^form filter applies to even k only$"):
                form_filter(classify(k), k)

    def test_full_sl_kept_exactly_when_sl_k_preserves_a_form(self):
        # the dense oracle: every k^2 entry of B unknown, invariant under h, x,
        # y and E00-E11, which generate sl_k; classify(2) has no sl_2 case
        # apart from A_1, so one is built by hand there
        for k in range(2, 13, 2):
            t = principal_triple(k)
            gens = [strip_matrix(k, 0, t.h), strip_matrix(k, 1, t.x), strip_matrix(k, -1, t.y),
                    strip_matrix(k, 0, [1, -1] + [0] * (k - 2))]
            full = [c for c in classify(k) if c.label == LABEL_FULL_SL] or \
                [ClassificationCase(LABEL_FULL_SL, "A", 1, (1,), ((1,),))]
            assert len(full) == 1, k
            kept, _ = form_filter(full, k)
            assert bool(kept) == bool(dense_form_kernel(gens, k)), k
            assert bool(kept) == (k == 2), k

    def test_without_ht_filter_no_conclusion(self):
        # Sym^(k-1) also preserves an alternating form at even k, so skipping
        # the Hodge-Tate step leaves two survivors and no conclusion
        kept, conclusion = form_filter(classify(4), 4)
        assert names(kept) == ["A_1", "C_2"]
        assert conclusion is None


class TestEndgameChain:
    """classify, then ht_filter, then form_filter, chained as their callers chain them."""

    def test_stages_nest(self):
        raw = classify(8)
        after_ht = ht_filter(raw, 8, (0, -9))
        after_form, conclusion = form_filter(after_ht, 8)
        assert set(names(after_ht)) <= set(names(raw))
        assert set(names(after_form)) <= set(names(after_ht))
        assert conclusion == "GSp_8"

    def test_no_filters(self, capsys):
        # `katzmod classify` chains only the filters asked for: with none,
        # every stage it reports is classify(6), and there is no conclusion
        assert main(["classify", "--k", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = [c.name for c in classify(6)]
        assert [c["name"] for c in doc["raw_cases"]] == want
        assert doc["after_ht_filter"] == doc["after_form_filter"] == want
        assert doc["conclusion"] is None


class TestFrobeniusDimensionCheck:
    def test_weight_k_plus_one(self):
        assert frobenius_dimension_check(5, 4) == [4]

    def test_k1(self):
        assert frobenius_dimension_check(0, 1) == [1]

    def test_w11_k10(self):
        assert frobenius_dimension_check(11, 10) == [10]

    def test_always_singleton(self):
        for k in range(1, 31):
            for w in (k + 1, 0, 3 * k):
                assert frobenius_dimension_check(w, k) == [k]

    # h = (5, 3, 1, -1, -3, -5); a zero in x splits the one Jordan block
    @pytest.mark.parametrize("zeros, want", [
        ((0,), [5, 6]),        # blocks e_0 | e_1..e_5: x^5 = 0, so ker x^5 = V
        ((3,), [2, 4, 5, 6]),  # blocks e_0..e_3 | e_4 e_5: ker x^2 = e_0 e_1 e_4 e_5
        ((0, 1, 2, 3, 4), [1, 2, 3, 4, 5, 6]),  # x = 0: every kernel is V
    ])
    def test_the_kernels_are_read_off_the_strips(self, monkeypatch, zeros, want):
        triple = katzmod.classify.principal_triple

        def with_zeros(k):
            t = triple(k)
            return t._replace(x=tuple(0 if i in zeros else v for i, v in enumerate(t.x)))
        monkeypatch.setattr(katzmod.classify, "principal_triple", with_zeros)
        assert frobenius_dimension_check(7, 6) == want

    def test_k_below_1_rejected(self):
        with pytest.raises(ValueError):
            frobenius_dimension_check(5, 0)

    def test_float_k_rejected(self):
        # Fraction used to raise TypeError
        with pytest.raises(ValueError, match="k must be an integer, got 10.0"):
            frobenius_dimension_check(11, 10.0)

    def test_float_w_rejected(self):
        with pytest.raises(ValueError, match="w must be an integer, got 11.5"):
            frobenius_dimension_check(11.5, 10)

    def test_bool_k_rejected(self):
        # True used to be read as k = 1 and return [1]
        with pytest.raises(ValueError, match="k must be an integer, got True"):
            frobenius_dimension_check(11, True)
