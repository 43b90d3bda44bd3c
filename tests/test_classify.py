"""The exponent-criteria scan, the two filters, and the Frobenius check."""

import random

import pytest

from katzmod.classify import (exponent_criteria, classify, ht_filter, form_filter,
                              frobenius_dimension_check, classification_report,
                              HodgeTateData, LABEL_SYM_POWER, LABEL_FULL_SL,
                              LABEL_SYMPLECTIC, LABEL_ORTHOGONAL, LABEL_G2,
                              _candidate_types, _realizing_weights, _label_for, _passes)
from katzmod.roots import build_root_system, exponents, type_exponents, irreps_of_dimension
from katzmod.verify import expected_case_names


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


def classify_building_every_type(k):
    """(name, label, exponents, realizing weights) per case, in order, by the
    route that builds the root system of every candidate type and reads its
    exponents off the layer sizes."""
    passing = {}
    for t, n in _candidate_types(k):
        rs = build_root_system(t, n)
        if not exponent_criteria(rs.exponents, k).all_pass():
            continue
        weights = _realizing_weights(rs, k)
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
        result = exponent_criteria((1, 3, 5), 6)
        assert result.distinct and result.bounded and result.closed

    def test_d4_not_distinct(self):
        result = exponent_criteria((1, 3, 3, 5), 8)
        assert not result.distinct

    def test_f4_not_closed(self):
        # the pair (5, 5) asks for exponent 9, which F_4 lacks
        result = exponent_criteria((1, 5, 7, 11), 26)
        assert result.distinct and result.bounded and not result.closed

    def test_bounded_flag(self):
        assert not exponent_criteria((1, 5), 4).bounded
        assert exponent_criteria((1, 5), 6).bounded

    def test_matches_computed_exponents(self):
        result = exponent_criteria(exponents(build_root_system("C", 3)), 6)
        assert result.distinct and result.bounded and result.closed

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
            for t, n in _candidate_types(k):
                exps = type_exponents(t, n)
                assert _passes(exps, k) == exponent_criteria(exps, k).all_pass(), (t, n, k)

    def test_closed_matches_the_pair_loop(self):
        rng = random.Random(2020)
        for _ in range(3000):
            exps = [rng.randint(-3, 12) for _ in range(rng.randint(1, 8))]
            if rng.random() < 0.5:
                exps.sort()
            k = rng.randint(-2, 16)
            eset = set(exps)
            want = all(r + s - 1 in eset
                       for i, r in enumerate(exps) for s in exps[i:] if r + s <= k)
            assert exponent_criteria(exps, k).closed == want, (exps, k)


class TestClassify:
    def test_candidate_types_against_written_out_list(self):
        for k in range(2, 40):
            assert _candidate_types(k) == list(listed_candidate_types(k)), k

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
                assert case.candidate.realizing_weights

    def test_matches_building_every_type(self):
        for k in range(2, 25):
            got = [(c.name, c.label, c.candidate.exponents, c.candidate.realizing_weights)
                   for c in classify(k)]
            assert got == classify_building_every_type(k), k

    def test_names_beyond_verify_paper(self):
        for k in range(31, 65):
            assert names(classify(k)) == expected_case_names(k), k

    def test_builds_only_the_types_that_pass(self):
        for k in (2, 7, 12, 25):
            passing = sum(exponent_criteria(type_exponents(t, n), k).all_pass()
                          for t, n in _candidate_types(k))
            build_root_system.cache_clear()
            classify(k)
            assert build_root_system.cache_info().misses == passing, k

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            classify(1)

    def test_float_or_bool_k_rejected(self):
        for k in [4.0, True]:
            with pytest.raises(ValueError, match="integer k >= 2, got"):
                classify(k)


class TestScanNegatives:
    """Types with a k-dimensional irreducible must still fail a flag."""

    def test_f4_at_26(self):
        rs = build_root_system("F", 4)
        assert irreps_of_dimension(rs, 26)  # the 26-dim representation exists
        assert not exponent_criteria(exponents(rs), 26).closed

    def test_a2_at_6(self):
        rs = build_root_system("A", 2)
        assert irreps_of_dimension(rs, 6)  # Sym^2 of the defining rep
        assert not exponent_criteria(exponents(rs), 6).closed

    def test_e_series_never_pass(self):
        # bounded forces k past the point where closure already failed
        for n, first_bounded_k in ((6, 12), (7, 18), (8, 30)):
            exp = exponents(build_root_system("E", n))
            assert not exponent_criteria(exp, first_bounded_k - 1).bounded
            assert not exponent_criteria(exp, first_bounded_k).closed

    def test_b5_at_10_lacks_irrep(self):
        # exponent flags all pass, but so_11 has no 10-dimensional irreducible
        rs = build_root_system("B", 5)
        result = exponent_criteria(exponents(rs), 10)
        assert result.distinct and result.bounded and result.closed
        assert irreps_of_dimension(rs, 10) == []
        assert "B_5" not in names(classify(10))

    def test_d5_at_8(self):
        rs = build_root_system("D", 5)
        assert not exponent_criteria(exponents(rs), 8).closed


class TestHtFilter:
    def test_two_weights_remove_sym_power(self):
        filtered = ht_filter(classify(4), 4, HodgeTateData({0, -5}))
        assert names(filtered) == ["A_3", "C_2"]

    def test_k2_untouched(self):
        cases = classify(2)
        assert ht_filter(cases, 2, HodgeTateData({0, -3})) == list(cases)

    def test_many_weights_untouched(self):
        cases = classify(6)
        assert ht_filter(cases, 6, HodgeTateData({0, 1, 2, 3, 4, 5})) == list(cases)

    def test_weight_count(self):
        assert HodgeTateData({0, -5}).weight_count == 2
        assert HodgeTateData([1, 1, 2]).weight_count == 2

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            ht_filter(classify(4), 4, HodgeTateData(set()))

    @pytest.mark.parametrize("weights", [{0.5, -5}, [True, 2], [1, True], [0, 1.0], ("0", -5)])
    def test_non_integer_weights_rejected(self, weights):
        # a weight is never coerced: int() used to read 0.5 as 0 and True as 1
        with pytest.raises(ValueError, match="is not an integer"):
            HodgeTateData(weights)

    def test_float_weights_rejected_by_report(self):
        with pytest.raises(ValueError, match="is not an integer"):
            classification_report(4, ht_weights=(0.9, -5.2))


class TestFormFilter:
    def test_k4_concludes_gsp4(self):
        cases = ht_filter(classify(4), 4, HodgeTateData({0, -5}))
        result = form_filter(cases, 4)
        assert names(result.cases) == ["C_2"]
        assert result.conclusion == "GSp_4"

    def test_k2_concludes_gsp2(self):
        result = form_filter(classify(2), 2)
        assert result.conclusion == "GSp_2"

    def test_k10(self):
        cases = ht_filter(classify(10), 10, HodgeTateData({0, -11}))
        assert names(cases) == ["A_9", "C_5"]
        result = form_filter(cases, 10)
        assert names(result.cases) == ["C_5"]
        assert result.conclusion == "GSp_10"

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            form_filter(classify(5), 5)

    def test_without_ht_filter_no_conclusion(self):
        # Sym^(k-1) also preserves an alternating form at even k, so skipping
        # the Hodge-Tate step leaves two survivors and no conclusion
        result = form_filter(classify(4), 4)
        assert names(result.cases) == ["A_1", "C_2"]
        assert result.conclusion is None


class TestClassificationReport:
    def test_stages_nest(self):
        report = classification_report(8, ht_weights=(0, -9), apply_form_filter=True)
        assert set(names(report.after_ht_filter)) <= set(names(report.raw_cases))
        assert set(names(report.after_form_filter)) <= set(names(report.after_ht_filter))
        assert report.conclusion == "GSp_8"

    def test_no_filters(self):
        report = classification_report(6)
        assert report.after_ht_filter == report.raw_cases
        assert report.after_form_filter == report.raw_cases
        assert report.conclusion is None


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
