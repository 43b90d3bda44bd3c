"""The exponent-criteria scan, the two filters, and the Frobenius check."""

import importlib
import json
import random

import pytest

from katzmod.cli import main
from katzmod.classify import (exponent_criteria, classify, classify_all, ht_filter,
                              form_filter, frobenius_dimension_check, ClassificationCase,
                              LABEL_SYM_POWER, LABEL_FULL_SL, LABEL_SYMPLECTIC,
                              LABEL_ORTHOGONAL, LABEL_G2,
                              _candidate_types, _realizing_weights, _label_for, _passing_ks)
from katzmod.roots import build_root_system, exponents, type_exponents, irreps_of_dimension, \
    SIMPLE_TYPES, _valid_type
from katzmod.sl2 import principal_triple
from katzmod.verify import expected_case_names
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


def spelled_out_cases(k):
    """(name, label, exponents, sorted realizing weights) per case, in order,
    from the pairwise criteria and irreps_of_dimension over the candidates."""
    rows = []
    for t, n in _candidate_types(k):
        exps = type_exponents(t, n)
        if spelled_out_criteria(exps, k):
            weights = irreps_of_dimension(build_root_system(t, n), k)
            if weights:
                rows.append((f"{t}_{n}", _label_for(t, n, k), exps, weights))
    return rows


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
        weights = _realizing_weights(rs, [k])[k]
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


class TestClassify:
    def test_candidate_types_against_written_out_list(self):
        for k in range(2, 40):
            dropped = ("B", 2) if k % 2 == 0 else ("C", 2)
            assert _candidate_types(k) == [tn for tn in listed_candidate_types(k)
                                           if tn != dropped], k

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
        for k in (2, 7, 12, 25):
            passing = sum(exponent_criteria(type_exponents(t, n), k)
                          for t, n in _candidate_types(k))
            build_root_system.cache_clear()
            classify(k)
            assert build_root_system.cache_info().misses == passing, k

    def test_classify_all_matches_the_pairwise_scan(self):
        swept = classify_all(range(2, 41))
        assert list(swept) == list(range(2, 41))
        for k, cases in swept.items():
            got = [(c.name, c.label, c.exponents, sorted(c.realizing_weights)) for c in cases]
            assert got == spelled_out_cases(k), k
            assert cases == classify(k), k

    def test_classify_all_builds_and_searches_each_type_once(self, monkeypatch):
        ks = range(2, 41)
        passing = {}
        for k in ks:
            for t, n in _candidate_types(k):
                if spelled_out_criteria(type_exponents(t, n), k):
                    passing.setdefault(f"{t}{n}", []).append(k)
        searches = []
        module = importlib.import_module("katzmod.classify")  # katzmod.classify is the function
        real = module.irreps_up_to
        monkeypatch.setattr(module, "irreps_up_to",
                            lambda rs, bound: searches.append((rs.name, bound)) or real(rs, bound))
        build_root_system.cache_clear()
        classify_all(ks)
        assert build_root_system.cache_info().misses == len(passing)
        # one search per type, up to its largest passing k; A_(k-1) for
        # k > 2 is checked on its defining weight and its dual instead
        assert sorted(searches) == sorted(
            (name, max(at)) for name, at in passing.items()
            if not (name.startswith("A") and name != "A1"))
        assert ("A1", 40) in searches and ("C20", 40) in searches and ("G2", 9) in searches

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
