"""Coset enumeration, subgroup invariants, congruence testing, dimensions."""

import gc
import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from types import SimpleNamespace

import pytest

import katzmod
import katzmod.cli
import katzmod.subgroups
import katzmod.verify
from katzmod.subgroups import (GeneratorSet, matrix_to_word, coset_enumerate,
                               invariants, congruence_test, congruence_closure,
                               dim_cusp_forms, dim_rho_prim, load_generator_file,
                               resolve_subgroup, CosetCapExceeded, InfiniteIndex, CosetTable,
                               PRESETS, FULL_GROUP,
                               S_MAT, T_MAT, psl2_canonical,
                               _compose, _perm_inverse, _perm_power, _perm_order, _is_identity,
                               _hsu_words,
                               _CosetGraph)

# well-known congruence subgroups, by generators; (index, widths) for cross-checks
CONGRUENCE_GROUPS = {
    "principal_level_2": ([(1, 2, 0, 1), (1, 0, 2, 1)], 6, (2, 2, 2)),
    "hecke_level_2": ([(1, 1, 0, 1), (1, 0, 2, 1)], 3, (2, 1)),
    "hecke_level_3": ([(1, 1, 0, 1), (1, 0, 3, 1)], 4, (3, 1)),
    "hecke_level_4": ([(1, 1, 0, 1), (1, 0, 4, 1), (3, -1, 4, -1)], 6, (4, 1, 1)),
    "hecke_level_5": ([(1, 1, 0, 1), (1, 0, 5, 1), (2, -1, 5, -2), (3, -2, 5, -3)], 6, (5, 1)),
}


def mat_mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


T_INV_MAT = (1, -1, 0, 1)
# the coset machine's letters s = 0, u = ST = 1, u^-1 = 2 as matrices
LETTER_MATS = (S_MAT, mat_mul(S_MAT, T_MAT), mat_mul(T_INV_MAT, S_MAT))


def inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def eq_up_to_sign(a, b):
    return a == b or a == tuple(-x for x in b)


def evaluate(letters):
    m = (1, 0, 0, 1)
    for x in letters:
        m = mat_mul(m, LETTER_MATS[x])
    return m


def st_word_letters(m):
    """Oracle for matrix_to_word: the same column reduction written as a word
    in S, T, T^-1, then translated letter by letter (S = s, T = s u,
    T^-1 = u^-1 s)."""
    word = []
    a, b, c, d = m
    while c != 0:
        q = a // c
        word.extend(["T"] * q if q >= 0 else ["T^-1"] * (-q))
        word.append("S")
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    n = b if a == 1 else -b
    word.extend(["T"] * n if n >= 0 else ["T^-1"] * (-n))
    translation = {"S": (0,), "T": (0, 1), "T^-1": (2, 0)}
    return tuple(x for letter in word for x in translation[letter])


# adjacent letters that a freely reduced word never has, and what each pair
# reduces to: s s = 1, u u^-1 = u^-1 u = 1, u u = u^-1, u^-1 u^-1 = u
REDUCTIONS = {(0, 0): (), (1, 2): (), (2, 1): (), (1, 1): (2,), (2, 2): (1,)}


def freely_reduced(letters):
    """Oracle for matrix_to_word's reduction: a stack that rewrites each
    pair in REDUCTIONS as soon as it forms."""
    out = []
    for x in letters:
        while out and (out[-1], x) in REDUCTIONS:
            rest = REDUCTIONS[(out.pop(), x)]
            if not rest:
                break
            (x,) = rest
        else:
            out.append(x)
    return tuple(out)


def random_word_matrix(rng, max_len=14, bound=10 ** 6):
    """Random product of S, T, T^-1 with all entries within the bound."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, max_len)):
        step = mat_mul(m, rng.choice([S_MAT, T_MAT, T_INV_MAT]))
        if max(abs(x) for x in step) > bound:
            break
        m = step
    return m


class TestGeneratorSet:
    def test_determinant_checked(self):
        with pytest.raises(ValueError):
            GeneratorSet("bad", [(1, 0, 0, 2)])
        with pytest.raises(ValueError):
            GeneratorSet("bad", [(0, 1, 1, 0)])

    def test_reduced_mod_minus_identity(self):
        gens = GeneratorSet("x", [(-1, 0, 0, -1), (-2, -1, -1, -1)])
        assert gens.generators[0] == (1, 0, 0, 1)
        assert gens.generators[1] == (2, 1, 1, 1)

    def test_non_integer_entries_rejected(self):
        # int() would read the first as the identity and accept the others
        for m in [(1, 0.5, 0, 1), (1, 0, 0, 1.0), ("7", 0, 0, 1), (True, 0, 0, 1),
                  (1, 0, 0, False)]:
            with pytest.raises(ValueError, match="is not an integer"):
                GeneratorSet("bad", [m])
            with pytest.raises(ValueError, match="is not an integer"):
                matrix_to_word(m)

    @pytest.mark.parametrize("name, generators, message", [
        ("g", 5, "generators must be a list of matrices, got 5"),
        ("g", [(1, 1, 0, 1), None], "generator must be a list of four integers, got None"),
        ("g", [(1, 1, 0, 1), 7], "generator must be a list of four integers, got 7"),
        ("g", ["abcd"], "generator must be a list of four integers, got 'abcd'"),
        (None, [(1, 1, 0, 1)], "subgroup name must be a string, got None"),
        (7, [(1, 1, 0, 1)], "subgroup name must be a string, got 7"),
    ])
    def test_malformed_shapes_rejected(self, name, generators, message):
        with pytest.raises(ValueError, match=message):
            GeneratorSet(name, generators)

    def test_canonical_sign(self):
        assert psl2_canonical((0, -1, 1, 0)) == (0, 1, -1, 0)
        assert psl2_canonical((0, 1, -1, 0)) == (0, 1, -1, 0)


class TestMatrixToWord:
    def test_t(self):
        letters = matrix_to_word(T_MAT)
        assert letters == (0, 1)
        assert eq_up_to_sign(evaluate(letters), T_MAT)

    def test_s(self):
        letters = matrix_to_word(S_MAT)
        assert eq_up_to_sign(evaluate(letters), S_MAT)

    def test_gamma43_generator(self):
        m = (2, 1, 1, 1)
        letters = matrix_to_word(m)
        assert eq_up_to_sign(evaluate(letters), m)

    def test_round_trip_200_random(self):
        rng = random.Random(101)
        seen = 0
        while seen < 200:
            m = random_word_matrix(rng)
            letters = matrix_to_word(m)
            assert eq_up_to_sign(evaluate(letters), m), m
            seen += 1

    def test_letters_equal_translated_st_word(self):
        # products of S, T, T^-1 and T^e with |e| <= 300
        rng = random.Random(300)
        for _ in range(300):
            m = (1, 0, 0, 1)
            for _ in range(rng.randint(1, 10)):
                g = rng.choice([S_MAT, T_MAT, T_INV_MAT, None])
                m = mat_mul(m, g or (1, rng.randint(-300, 300), 0, 1))
            letters = matrix_to_word(m)
            assert type(letters) is tuple and set(letters) <= {0, 1, 2}
            # reduced and evaluating to +-m: by the normal form theorem for
            # C2 * C3 this alone pins the word
            assert not set(zip(letters, letters[1:])) & set(REDUCTIONS), m
            assert eq_up_to_sign(evaluate(letters), m), m
            assert letters == freely_reduced(st_word_letters(m)), m

    def test_one_step_per_continued_fraction_digit(self, monkeypatch):
        # each Euclidean step feeds one run to _extend_reduced, and the last
        # T^e one more; a floored quotient takes about e steps for a T^e after
        # a sign change (202, 252 and 306 calls on the first three)
        real = katzmod.subgroups._extend_reduced
        calls = []

        def counted(word, run):
            calls.append(1)
            return real(word, run)

        monkeypatch.setattr(katzmod.subgroups, "_extend_reduced", counted)
        rng = random.Random(1900)
        cases = [[300, -250, 200], [-300, 250, -200], [5, 7, 300]]
        cases += [[rng.randint(-300, 300) for _ in range(rng.randint(1, 12))]
                  for _ in range(2000)]
        for exponents in cases:
            m = (1, 0, 0, 1)
            for e in exponents:
                m = mat_mul(mat_mul(m, (1, e, 0, 1)), S_MAT)
            calls.clear()
            matrix_to_word(m)
            assert len(calls) <= 2 * len(exponents) + 2, exponents

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_word((2, 0, 0, 1))


class TestCosetEnumeration:
    def test_full_group(self):
        table = coset_enumerate(FULL_GROUP)
        assert table.index == 1

    def test_preset_indices(self):
        assert coset_enumerate(PRESETS["gamma43"]).index == 7
        assert coset_enumerate(PRESETS["gamma52"]).index == 7
        assert coset_enumerate(PRESETS["gamma711"]).index == 9

    def test_table_relations(self):
        for name in PRESETS:
            table = coset_enumerate(PRESETS[name])
            n = table.index
            identity = tuple(range(n))
            square = tuple(table.perm_S[table.perm_S[i]] for i in range(n))
            assert square == identity
            st = tuple(table.perm_T[table.perm_S[i]] for i in range(n))
            cube = identity
            for _ in range(3):
                cube = tuple(st[i] for i in cube)
            assert cube == identity

    def test_known_congruence_indices(self):
        for name, (gens, index, widths) in CONGRUENCE_GROUPS.items():
            table = coset_enumerate(GeneratorSet(name, gens))
            assert table.index == index, name

    def test_cap_exceeded(self):
        # the message says how far the graph got
        with pytest.raises(CosetCapExceeded, match="index bound exceeded: .* "
                           r"\(3 cosets defined, 2 still live;") as exc:
            coset_enumerate(PRESETS["gamma711"], cap=3)
        assert type(exc.value) is CosetCapExceeded

    def test_generator_off_the_base_coset_detected(self, monkeypatch):
        # the graph is folded without T, so the table is Gamma(2)'s, in which T
        # moves the base coset
        real_build = _CosetGraph.build
        t_word = matrix_to_word(T_MAT)
        monkeypatch.setattr(_CosetGraph, "build",
                            lambda self, words: real_build(self, [w for w in words if w != t_word]))
        with pytest.raises(RuntimeError,
                           match=r"generator \(1, 1, 0, 1\) does not fix the base coset"):
            coset_enumerate(GeneratorSet("gamma2 and T", [(1, 2, 0, 1), (1, 0, 2, 1), T_MAT]))

    @pytest.mark.parametrize("perm_s, perm_t, message", [
        ((1, 2, 0), (0, 1, 2), r"S\^2 = 1"),
        ((0, 1), (1, 0), r"\(ST\)\^3 = 1"),
        ((0, 1), (0, 1), "not transitive: 1 of 2"),
        ((0,), (0, 0), r"perm_T is not a tuple of 1 ints in range\(1\)"),
        ((True, False), (1, 0), "perm_S is not a tuple of 2 ints"),
        ((1.0, 0), (1, 0), "perm_S is not a tuple of 2 ints"),
        ((1, 0), (1, 2), "perm_T is not a tuple of 2 ints"),
        ((1, 0), (-1, 0), "perm_T is not a tuple of 2 ints"),
        ([1, 0], (1, 0), "perm_S is not a tuple of 2 ints"),
    ])
    def test_corrupted_table_rejected(self, perm_s, perm_t, message):
        with pytest.raises(RuntimeError, match=message):
            CosetTable(len(perm_s), perm_s, perm_t).validate()

    @pytest.mark.parametrize("index", [True, 1.0])
    def test_index_that_is_not_an_int_rejected(self, index):
        with pytest.raises(RuntimeError, match=rf"not a tuple of {index} ints"):
            CosetTable(index, (0,), (0,)).validate()

    def test_corrupted_table_rejected_under_optimize(self):
        # the table checks are explicit raises, so they survive python -O
        code = ("from katzmod.subgroups import CosetTable\n"
                "CosetTable(2, (0, 1), (1, 0)).validate()\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(katzmod.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "RuntimeError: coset table violates (ST)^3 = 1" in proc.stderr

    @pytest.mark.parametrize("read", [invariants, congruence_test,
                                      lambda table: dim_rho_prim(table, 4)])
    @pytest.mark.parametrize("perm_s, perm_t, message", [
        ((0, 1), (1, 0), r"violates \(ST\)\^3 = 1"),
        ((0,), (0, 0), r"perm_T is not a tuple of 1 ints"),
    ])
    def test_broken_table_never_reaches_a_reader(self, read, perm_s, perm_t, message):
        # a table is validated when it is built, so the broken relation is
        # named instead of a Riemann-Hurwitz failure inside invariants
        with pytest.raises(RuntimeError, match=message):
            read(CosetTable(len(perm_s), perm_s, perm_t))


class HLTCosetGraph:
    """Oracle: HLT Todd-Coxeter over < s, u | s^2 = u^3 = 1 >, as coset_enumerate
    ran before coset folding.  Every subgroup word is scanned from the base
    coset, then every relator from every live coset; coincidences merge by
    union-find."""

    RELATORS = ((0, 0), (1, 2), (2, 1), (1, 1, 1))

    def __init__(self, cap):
        self.cap = cap
        self.labels = []
        self.neighbors = []
        self.start = self.add_vertex()

    def add_vertex(self):
        if len(self.labels) >= self.cap:
            raise CosetCapExceeded(f"index bound exceeded: coset table grew past {self.cap} entries")
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([None] * 3)
        return c

    def find(self, c):
        labels = self.labels
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def unify(self, c1, c2):
        stack = [(c1, c2)]
        while stack:
            c1, c2 = stack.pop()
            c1, c2 = self.find(c1), self.find(c2)
            if c1 == c2:
                continue
            if c2 < c1:
                c1, c2 = c2, c1
            self.labels[c2] = c1
            row1, row2 = self.neighbors[c1], self.neighbors[c2]
            for d in range(3):
                if row1[d] is None:
                    row1[d] = row2[d]
                elif row2[d] is not None:
                    stack.append((row1[d], row2[d]))

    def path(self, c, word):
        for d in word:
            c = self.find(c)
            if self.neighbors[c][d] is None:
                self.neighbors[c][d] = self.add_vertex()
            c = self.find(self.neighbors[c][d])
        return c

    def table(self, words):
        for w in words:
            self.unify(self.path(self.start, w), self.start)
        visit = 0
        while visit < len(self.labels):
            if self.find(visit) == visit:
                for rel in self.RELATORS:
                    self.unify(self.path(visit, rel), visit)
            visit += 1
        live = [c for i, c in enumerate(self.labels) if i == c]
        index_of = {c: i for i, c in enumerate(live)}
        perm_s, perm_u = (tuple(index_of[self.find(self.neighbors[c][d])] for c in live)
                          for d in (0, 1))
        return CosetTable(len(live), perm_s, _compose(perm_s, perm_u)).validate()


def hlt_coset_table(gens, cap):
    return HLTCosetGraph(cap).table([matrix_to_word(m) for m in gens.generators])


def random_factor_matrix(rng):
    """Product of up to 10 factors S, T, T^-1 or T^e with |e| <= 40."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 10)):
        g = rng.choice([S_MAT, T_MAT, T_INV_MAT, None])
        m = mat_mul(m, g or (1, rng.randint(-40, 40), 0, 1))
    return m


class TestCosetFolding:
    """Coset folding against the HLT oracle, and what only folding can tell:
    an incomplete folded graph proves the index infinite."""

    def test_against_hlt_on_random_words(self):
        # where HLT finishes, folding gives the same table once HLT's cosets
        # are renumbered; where folding proves the index infinite, HLT runs
        # into its cap
        rng = random.Random(1991)
        outcomes = {"equal": 0, "infinite": 0}
        for _ in range(400):
            gens = GeneratorSet("random", [random_factor_matrix(rng)
                                           for _ in range(rng.randint(1, 3))])
            try:
                folded = coset_enumerate(gens, cap=20000)
            except InfiniteIndex:
                with pytest.raises(CosetCapExceeded):
                    hlt_coset_table(gens, cap=20000)
                outcomes["infinite"] += 1
                continue
            hlt = hlt_coset_table(gens, cap=20000)
            assert folded == relabel(hlt), gens
            outcomes["equal"] += 1
        assert outcomes["equal"] >= 50 and outcomes["infinite"] >= 200, outcomes

    @pytest.mark.parametrize("gens", [[(1, 100000, 0, 1), T_MAT, S_MAT],
                                      [T_MAT, S_MAT, (1, 100000, 0, 1)]])
    def test_long_power_of_t_in_either_order(self, gens):
        # HLT scanned T^100000 before any relator and ran into the cap
        assert coset_enumerate(GeneratorSet("full", gens)).index == 1

    @pytest.mark.parametrize("gens", [[T_MAT], [(1, 12, 0, 1), (1, 0, 12, 1)]])
    def test_infinite_index_reported(self, gens):
        # HLT filled the default cap of 100000 cosets on both
        with pytest.raises(InfiniteIndex, match="infinite index"):
            coset_enumerate(GeneratorSet("thin", gens))

    def test_compose_leaves_no_dead_tuples(self):
        # a tuple built from a generator is allocated larger and resized, and
        # each dead one then parks on another size's free list, which only a
        # full collection empties
        rng = random.Random(8)
        perms = [tuple(rng.sample(range(n), n)) for n in range(8, 20)]
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for i in range(6000):
                p = perms[i % len(perms)]
                _compose(p, p)
            grown = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert grown < 100, grown


class TestInvariants:
    def test_gamma43(self):
        inv = invariants(coset_enumerate(PRESETS["gamma43"]))
        assert inv.index == 7
        assert inv.cusp_widths == (4, 3)
        assert inv.nu2 == 1 and inv.nu3 == 1
        assert inv.genus == 0
        assert inv.level == 12

    def test_gamma52(self):
        inv = invariants(coset_enumerate(PRESETS["gamma52"]))
        assert inv.index == 7
        assert inv.cusp_widths == (5, 2)
        assert inv.nu2 == 1 and inv.nu3 == 1
        assert inv.genus == 0
        assert inv.level == 10

    def test_gamma711(self):
        inv = invariants(coset_enumerate(PRESETS["gamma711"]))
        assert inv.index == 9
        assert inv.cusp_widths == (7, 1, 1)
        assert inv.nu2 == 1 and inv.nu3 == 0
        assert inv.genus == 0
        assert inv.level == 7

    @pytest.mark.parametrize("index, widths, forced", [
        (7, (4, 3), (1, 1, 0)),
        (7, (5, 2), (1, 1, 0)),
        (9, (7, 1, 1), (1, 0, 0)),
    ])
    def test_riemann_hurwitz_forces_preset_data(self, index, widths, forced):
        # pure arithmetic: S moves cosets in pairs and ST in 3-cycles, so
        # nu2 = index (mod 2) and nu3 = index (mod 3); the genus then solves
        # 12 g = 12 + index - 3 nu2 - 4 nu3 - 6 t, and must be a whole number >= 0
        admissible = []
        for nu2 in range(index % 2, index + 1, 2):
            for nu3 in range(index % 3, index + 1, 3):
                twelve_g = 12 + index - 3 * nu2 - 4 * nu3 - 6 * len(widths)
                if twelve_g >= 0 and twelve_g % 12 == 0:
                    admissible.append((nu2, nu3, twelve_g // 12))
        assert admissible == [forced]

    def test_full_group(self):
        inv = invariants(coset_enumerate(FULL_GROUP))
        assert inv.index == 1 and inv.cusp_widths == (1,)
        assert inv.nu2 == 1 and inv.nu3 == 1 and inv.genus == 0

    def test_known_congruence_widths(self):
        for name, (gens, index, widths) in CONGRUENCE_GROUPS.items():
            inv = invariants(coset_enumerate(GeneratorSet(name, gens)))
            assert inv.cusp_widths == widths, name
            assert sum(inv.cusp_widths) == inv.index

    def test_widths_sum_to_index_random(self):
        rng = random.Random(211)
        produced = 0
        while produced < 50:
            gens = []
            for _ in range(rng.randint(1, 3)):
                gens.append(random_word_matrix(rng, max_len=10, bound=10 ** 4))
            try:
                table = coset_enumerate(GeneratorSet("random", gens), cap=20000)
            except CosetCapExceeded:
                continue
            inv = invariants(table)
            assert sum(inv.cusp_widths) == inv.index
            assert inv.genus >= 0
            produced += 1


class TestPresetLookupLeavesCapsAlone:
    """dim_rho_prim folds the table it is given and enumerates nothing, so
    it answers whatever cap is in force, and calling it changes nothing that
    coset_enumerate answers under a smaller cap, whichever comes first."""

    def test_lookup_then_capped(self):
        assert dim_rho_prim(coset_enumerate(PRESETS["gamma43"]), 2) == {2: 2}
        with pytest.raises(CosetCapExceeded):
            coset_enumerate(PRESETS["gamma43"], cap=3)

    def test_capped_then_lookup(self):
        table = coset_enumerate(PRESETS["gamma43"])
        with pytest.raises(CosetCapExceeded):
            coset_enumerate(PRESETS["gamma43"], cap=3)
        assert dim_rho_prim(table, 2) == {2: 2}
        with pytest.raises(CosetCapExceeded):
            coset_enumerate(PRESETS["gamma43"], cap=3)


class TestCosetCapValidation:
    @pytest.mark.parametrize("cap", [0, -3, True, False, 2.5, 3.0, "7"])
    def test_malformed_argument_rejected(self, cap):
        # cap=True used to be read as 1 and raise CosetCapExceeded
        with pytest.raises(ValueError, match="positive integer, got .* from the cap argument"):
            coset_enumerate(FULL_GROUP, cap=cap)
        with pytest.raises(ValueError, match="from the cap argument"):
            coset_enumerate(PRESETS["gamma43"], cap=cap)

    @pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5", "", "1e3", "\u00b2", "1_0",
                                       "\uff11\uff12", "\u0667"])
    def test_malformed_environment_rejected(self, monkeypatch, value):
        # katzmod subgroup, the variable's one reader, refuses the value
        # (int() alone would read 1_0 as 10 and the full-width digits as 12);
        # the library does not read it and answers as if it were unset
        monkeypatch.setenv("KATZMOD_COSET_CAP", value)
        with pytest.raises(ValueError, match="from the environment variable KATZMOD_COSET_CAP"):
            katzmod.cli._coset_cap()
        assert coset_enumerate(PRESETS["gamma43"]).index == 7
        with pytest.raises(ValueError, match="from the cap argument"):
            coset_enumerate(PRESETS["gamma43"], cap=0)

    def test_valid_caps_accepted(self):
        assert coset_enumerate(PRESETS["gamma43"], cap=1000).index == 7

    def test_none_means_the_default_cap(self, monkeypatch):
        # T^40000 folds into 120000 cosets before the graph is seen to be
        # incomplete, so the default cap stops it and a larger one does not;
        # the process environment plays no part
        monkeypatch.setenv("KATZMOD_COSET_CAP", "1")
        long_cusp = GeneratorSet("long cusp", [(1, 40000, 0, 1)])
        for call in (lambda: coset_enumerate(long_cusp),
                     lambda: coset_enumerate(long_cusp, None)):
            with pytest.raises(CosetCapExceeded, match="grew past 100000 entries") as info:
                call()
            assert type(info.value) is CosetCapExceeded
        with pytest.raises(InfiniteIndex):
            coset_enumerate(long_cusp, cap=120001)
        assert coset_enumerate(PRESETS["gamma43"]).index == 7


class TestCongruence:
    def test_full_group_congruence(self):
        assert congruence_test(coset_enumerate(FULL_GROUP))

    def test_presets_noncongruence(self):
        for name in PRESETS:
            assert not invariants(coset_enumerate(PRESETS[name])).congruence

    def test_known_congruence_groups(self):
        # levels 2 and 4 are powers of two, 3 and 5 odd, and gamma43 /
        # gamma52 above have mixed levels
        for name, (gens, index, widths) in CONGRUENCE_GROUPS.items():
            assert congruence_test(coset_enumerate(GeneratorSet(name, gens))), name


def psl2_mod_n_size(n):
    """|PSL2(Z/n)| = n^3 prod_(p|n) (1 - 1/p^2), halved for n > 2."""
    size = n ** 3
    m = n
    p = 2
    while m > 1:
        if m % p == 0:
            while m % p == 0:
                m //= p
            size = size // (p * p) * (p * p - 1)
        p += 1
    return size // 2 if n > 2 else size


def image_size_mod_n(gens, n):
    """Order of the image of the subgroup in PSL2(Z/n), by closure."""
    def reduce(m):
        m = tuple(x % n for x in m)
        return min(m, tuple((-x) % n for x in m))

    seen = {reduce((1, 0, 0, 1))}
    frontier = list(seen)
    mats = [reduce(g) for g in gens.generators]
    while frontier:
        nxt = []
        for a in frontier:
            for b in mats:
                c = reduce(mat_mul(a, b))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


class TestCongruenceOracle:
    """Dual route: a subgroup of level N is congruence exactly when the index
    of its congruence closure (the preimage of its image mod N) equals its own
    index.  This recomputes the congruence flag with no permutation words."""

    def oracle(self, gens):
        inv = invariants(coset_enumerate(gens))
        n = inv.level
        closure_index = psl2_mod_n_size(n) // image_size_mod_n(gens, n)
        assert psl2_mod_n_size(n) % image_size_mod_n(gens, n) == 0
        assert closure_index <= inv.index
        return closure_index == inv.index

    def test_presets_against_oracle(self):
        for name in PRESETS:
            inv = invariants(coset_enumerate(PRESETS[name]))
            assert self.oracle(PRESETS[name]) == inv.congruence == False

    def test_presets_close_to_full_modular_group(self):
        # each preset's image mod its level is all of PSL2(Z/level), so its
        # congruence closure is the full modular group
        for name, gens in PRESETS.items():
            table = coset_enumerate(gens)
            level = invariants(table).level
            assert image_size_mod_n(gens, level) == psl2_mod_n_size(level), name
            assert congruence_closure(table) == coset_enumerate(FULL_GROUP), name

    def test_congruence_family_against_oracle(self):
        for name, (gens, index, widths) in CONGRUENCE_GROUPS.items():
            gset = GeneratorSet(name, gens)
            inv = invariants(coset_enumerate(gset))
            assert self.oracle(gset) == inv.congruence == True, name

    def test_random_subgroups_against_oracle(self):
        rng = random.Random(307)
        checked = 0
        while checked < 30:
            gens = [random_word_matrix(rng, max_len=9, bound=10 ** 4)
                    for _ in range(rng.randint(1, 3))]
            gset = GeneratorSet("random", gens)
            try:
                table = coset_enumerate(gset, cap=20000)
            except CosetCapExceeded:
                continue
            inv = invariants(table)
            if inv.level > 24:
                continue  # keep the mod-N closure affordable
            assert self.oracle(gset) == inv.congruence, gens
            checked += 1


def three_branch_congruence_test(table):
    """Hsu's criterion with separate branches for index 1, odd level and
    power-of-2 level, as congruence_test was written before its branches
    were folded into the general one."""
    if table.index == 1:
        return True
    L = table.perm_T
    R = _compose(_compose(table.perm_S, _perm_inverse(table.perm_T)), table.perm_S)
    N = _perm_order(L)
    m = N
    e = 1
    while m % 2 == 0:
        m //= 2
        e *= 2

    def word(*perms):
        out = tuple(range(table.index))
        for p in perms:
            out = _compose(out, p)
        return out

    if e == 1:  # N odd
        half = pow(2, -1, N)
        rel = _perm_power(word(R, R, _perm_power(L, -half)), 3)
        return _is_identity(rel)

    if m == 1:  # N a power of 2
        fifth = pow(5, -1, N)
        s = word(_perm_power(L, 20), _perm_power(R, fifth), _perm_power(L, -4), _perm_inverse(R))
        rels = [
            word(_perm_inverse(L), R, _perm_inverse(L), s, L, _perm_inverse(R), L, s),
            word(_perm_inverse(s), R, s, _perm_power(R, -25)),
            _perm_power(word(s, _perm_power(R, 5), L, _perm_inverse(R), L), 3),
        ]
        return all(_is_identity(r) for r in rels)

    return all(_is_identity(w) for w in hsu_words_in_l_and_r(table))


def hsu_words_in_l_and_r(table):
    """Hsu's seven words for a table of any level N = e m, built in L = T
    and R = S T^-1 S as Hsu writes them: R is composed once, each power of
    L and of R is raised by repeated squaring, and each inverse inverted."""
    L = table.perm_T
    R = _compose(_compose(table.perm_S, _perm_inverse(table.perm_T)), table.perm_S)
    N = _perm_order(L)
    m = N
    e = 1
    while m % 2 == 0:
        m //= 2
        e *= 2

    def word(*perms):
        out = tuple(range(table.index))
        for p in perms:
            out = _compose(out, p)
        return out

    c = e * pow(e, -1, m) % N
    d = m * pow(m, -1, e) % N
    a = _perm_power(L, c)
    b = _perm_power(R, c)
    l = _perm_power(L, d)
    r = _perm_power(R, d)
    half = pow(2, -1, m)
    fifth = pow(5, -1, e)
    s = word(_perm_power(l, 20), _perm_power(r, fifth), _perm_power(l, -4), _perm_inverse(r))
    return [
        word(_perm_inverse(a), _perm_inverse(r), a, r),
        _perm_power(word(a, _perm_inverse(b), a), 4),
        word(_perm_power(word(a, _perm_inverse(b), a), 2), _perm_power(word(_perm_inverse(a), b), 3)),
        word(_perm_power(word(a, _perm_inverse(b), a), 2),
             _perm_power(word(b, b, _perm_power(a, -half)), -3)),
        word(_perm_inverse(l), r, _perm_inverse(l), s, l, _perm_inverse(r), l, s),
        word(_perm_inverse(s), r, s, _perm_power(r, -25)),
        word(_perm_power(word(l, _perm_inverse(r), l), 2),
             _perm_power(word(s, _perm_power(r, 5), l, _perm_inverse(r), l), 3)),
    ]


def random_coset_table(rng, n):
    """A random coset table of index n, or None if the pair is not transitive:
    S pairs off a random number of points, ST has a random number of 3-cycles,
    and T = S (ST)."""
    pts = list(range(n))
    perm_s = list(range(n))
    rng.shuffle(pts)
    for i in range(0, 2 * rng.randint(0, n // 2), 2):
        perm_s[pts[i]], perm_s[pts[i + 1]] = pts[i + 1], pts[i]
    perm_st = list(range(n))
    rng.shuffle(pts)
    for i in range(0, 3 * rng.randint(0, n // 3), 3):
        perm_st[pts[i]], perm_st[pts[i + 1]], perm_st[pts[i + 2]] = pts[i + 1], pts[i + 2], pts[i]
    try:
        return CosetTable(n, tuple(perm_s), _compose(tuple(perm_s), tuple(perm_st)))
    except RuntimeError:
        return None


def schreier_generators(table):
    """Generators of the subgroup whose cosets the table permutes: w_i g w_(i.g)^-1
    for each coset i and g in {S, T}, with w_i a path from the base coset."""
    paths = {0: (1, 0, 0, 1)}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for perm, g in ((table.perm_S, S_MAT), (table.perm_T, T_MAT)):
                if perm[i] not in paths:
                    paths[perm[i]] = mat_mul(paths[i], g)
                    nxt.append(perm[i])
        frontier = nxt
    gens = set()
    for i in range(table.index):
        for perm, g in ((table.perm_S, S_MAT), (table.perm_T, T_MAT)):
            a, b, c, d = paths[perm[i]]
            gens.add(mat_mul(mat_mul(paths[i], g), (d, -b, -c, a)))
    return GeneratorSet("schreier", sorted(gens))


def level_class(n):
    return "odd" if n % 2 else "power of 2" if n & (n - 1) == 0 else "mixed"


class TestCongruenceFoldedBranches:
    """congruence_test keeps only the general branch of Hsu's criterion; the
    odd-level, power-of-2 and index-1 branches are special cases of it."""

    def test_against_three_branch_test(self):
        rng = random.Random(1996)
        seen = set()
        for _ in range(6000):
            table = random_coset_table(rng, rng.randint(1, 30))
            if table is None:
                continue
            flag = congruence_test(table)
            assert flag == three_branch_congruence_test(table), table
            seen.add((level_class(_perm_order(table.perm_T)), flag))
        assert seen == {(c, f) for c in ("odd", "power of 2", "mixed") for f in (True, False)}

    def test_against_mod_n_oracle(self):
        # the subgroup is congruence exactly when the preimage of its image
        # mod its level N has the same index
        rng = random.Random(124)
        seen = set()
        checked = 0
        while checked < 100:
            table = random_coset_table(rng, rng.randint(1, 30))
            if table is None:
                continue
            n = _perm_order(table.perm_T)
            if psl2_mod_n_size(n) > 12000:
                continue
            image = image_size_mod_n(schreier_generators(table), n)
            oracle = psl2_mod_n_size(n) // image == table.index
            assert congruence_test(table) == oracle, table
            seen.add((level_class(n), oracle))
            checked += 1
        assert seen == {(c, f) for c in ("odd", "power of 2", "mixed") for f in (True, False)}


class TestHsuWords:
    """_hsu_words builds Hsu's words from S and powers of T, since S^2 = 1
    makes R^x = S T^-x S; congruence_closure unifies along each permutation,
    so each must equal the word built in L and R."""

    def test_perm_power_against_repeated_composition(self):
        rng = random.Random(38)
        for n in (1, 2, 7, 30):
            p = tuple(rng.sample(range(n), n))
            inverse = _perm_inverse(p)
            power = tuple(range(n))
            for e in range(70):
                assert _perm_power(p, e) == power, (p, e)
                assert _perm_power(inverse, -e) == power, (p, e)
                power = _compose(power, p)

    def test_word_for_word_against_l_and_r(self):
        tables = [coset_enumerate(g) for g in (*PRESETS.values(), FULL_GROUP)]
        tables += [coset_enumerate(GeneratorSet(name, gens))
                   for name, (gens, _, _) in CONGRUENCE_GROUPS.items()]
        rng = random.Random(35)
        seen = set()
        while len(tables) < 2000 + 9:
            table = random_coset_table(rng, rng.randint(1, 48))
            if table is not None:
                tables.append(table)
                seen.add(level_class(_perm_order(table.perm_T)))
        assert seen == {"odd", "power of 2", "mixed"}
        for table in tables:
            assert _hsu_words(table) == hsu_words_in_l_and_r(table), table

    # (compositions, inversions) per congruence_test: the presets, then
    # twelve random tables of index 40..120 and level above 1000
    PINNED_COUNTS = [(74, 3), (75, 3), (69, 3), (109, 3), (99, 3), (131, 3), (125, 3),
                     (83, 3), (81, 3), (106, 3), (109, 3), (110, 3), (116, 3), (128, 3),
                     (107, 3)]

    def test_composition_counts_pinned(self, monkeypatch):
        # raising powers of R by squaring, as the words in L and R do, costs
        # about 2 log2 N more compositions per power and an inversion per
        # negative power
        rng = random.Random(35)
        tables = [coset_enumerate(PRESETS[name]) for name in ("gamma43", "gamma52", "gamma711")]
        while len(tables) < 15:
            table = random_coset_table(rng, rng.randint(40, 120))
            if table is not None and _perm_order(table.perm_T) > 1000:
                tables.append(table)
        counts = [0, 0]

        def counted(i, f):
            def wrapper(*args):
                counts[i] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(katzmod.subgroups, "_compose", counted(0, _compose))
        monkeypatch.setattr(katzmod.subgroups, "_perm_inverse", counted(1, _perm_inverse))
        got = []
        for table in tables:
            counts[:] = [0, 0]
            congruence_test(table)
            got.append(tuple(counts))
        assert got == self.PINNED_COUNTS


class TestReadersRefuseLookAlikes:
    """invariants, congruence_test and congruence_closure take only a
    CosetTable, which validated itself when it was built."""

    LookAlike = namedtuple("LookAlike", "index perm_S perm_T")

    class Spy(SimpleNamespace):
        """A look-alike that records every attribute read of it."""
        def __getattribute__(self, name):
            if name != "__class__":
                object.__getattribute__(self, "reads").append(name)
            return object.__getattribute__(self, name)

    @pytest.mark.parametrize("reader", [invariants, congruence_test, congruence_closure])
    def test_look_alikes_refused_unread(self, reader):
        table = coset_enumerate(PRESETS["gamma43"])
        broken = (2, (0, 1), (1, 0))  # breaks (ST)^3 = 1
        fakes = [self.LookAlike(*table), self.LookAlike(*broken), tuple(table),
                 SimpleNamespace(index=7, perm_S=table.perm_S, perm_T=table.perm_T)]
        for fake in fakes:
            with pytest.raises(TypeError, match=rf"^{reader.__name__} takes a CosetTable, "
                                                rf"got {type(fake).__name__}$"):
                reader(fake)
        spy = self.Spy(index=2, perm_S=broken[1], perm_T=broken[2], reads=[])
        with pytest.raises(TypeError, match="got Spy$"):
            reader(spy)
        assert object.__getattribute__(spy, "reads") == []


def intersection_table(a, b):
    """The table of the intersection of the subgroups of tables a and b: the
    orbit of the pair of base cosets (0, 0) under the paired permutations."""
    label, order = {(0, 0): 0}, [(0, 0)]
    pairs = ((a.perm_S, b.perm_S), (a.perm_T, b.perm_T))
    for i, j in order:  # grows while it is read
        for p, q in pairs:
            if (p[i], q[j]) not in label:
                label[(p[i], q[j])] = len(order)
                order.append((p[i], q[j]))
    perm_s, perm_t = (tuple(label[(p[i], q[j])] for i, j in order) for p, q in pairs)
    return CosetTable(len(order), perm_s, perm_t)


class TestCongruenceClosure:
    """congruence_closure folds a table into that of Gamma Gamma(N), N the
    level, by unifying each coset with its images under Hsu's words."""

    @staticmethod
    def tables(seed, count, bound=None):
        """count random tables of index 2..30, and with bound, only those
        whose level N has |PSL2(Z/N)| <= bound."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            table = random_coset_table(rng, rng.randint(2, 30))
            if table is not None and (bound is None
                                      or psl2_mod_n_size(_perm_order(table.perm_T)) <= bound):
                out.append(table)
        return out

    def test_index_against_mod_n_oracle(self):
        # the closure is the preimage of the image mod N, whose index is
        # |PSL2(Z/N)| / |image|
        proper = 0
        for table in self.tables(19, 80, bound=6000):
            n = _perm_order(table.perm_T)
            image = image_size_mod_n(schreier_generators(table), n)
            closure = congruence_closure(table)
            assert closure.index == psl2_mod_n_size(n) // image, table
            proper += 1 < closure.index < table.index
        assert proper > 0

    def test_index_divides_and_closing_twice_changes_nothing(self):
        for table in self.tables(20, 200):
            closure = congruence_closure(table)
            assert table.index % closure.index == 0, table
            assert congruence_closure(closure) == closure, table

    def test_closed_exactly_when_congruence(self):
        seen = set()
        for table in self.tables(21, 300):
            closed = congruence_closure(table).index == table.index
            assert closed == congruence_test(table), table
            seen.add(closed)
        assert seen == {True, False}

    def test_preset_intersected_with_a_congruence_subgroup(self):
        # each preset closes to the full group, so its intersection with a
        # congruence subgroup C closes to C: proper closures of index 3, 4, 6
        for name, gens in PRESETS.items():
            preset = coset_enumerate(gens)
            for c in ("hecke_level_2", "hecke_level_3", "principal_level_2"):
                congruence = coset_enumerate(GeneratorSet(c, CONGRUENCE_GROUPS[c][0]))
                table = intersection_table(preset, congruence)
                assert table.index == preset.index * congruence.index, (name, c)
                assert congruence_closure(table) == congruence, (name, c)

    def test_dim_rho_prim_is_never_negative(self):
        for table in self.tables(22, 100):
            assert min(dim_rho_prim(table, 12).values()) >= 0, table


def relabel(table, base=0):
    """The table with its cosets renumbered breadth-first from coset base,
    trying s before u = ST, as coset_enumerate numbers them."""
    perm_u = _compose(table.perm_S, table.perm_T)
    order, label = [base], {base: 0}
    for c in order:  # grows while it is read
        for p in (table.perm_S, perm_u):
            if p[c] not in label:
                label[p[c]] = len(order)
                order.append(p[c])
    perm_s, perm_u = (tuple(label[p[c]] for c in order) for p in (table.perm_S, perm_u))
    return CosetTable(table.index, perm_s, _compose(perm_s, perm_u))


class TestCosetEnumerationProperties:
    """The subgroup found does not depend on how its generators are
    presented: their order, a redundant product of two of them, or a
    conjugation of all of them by one element of PSL2(Z)."""

    @staticmethod
    def subgroups(rng, count=60):
        """(table, Schreier generators) of random tables of index 6..24."""
        out = []
        while len(out) < count:
            table = random_coset_table(rng, rng.randint(6, 24))
            if table is not None:
                out.append((table, list(schreier_generators(table).generators)))
        return out

    @staticmethod
    def invariants_of(gens):
        return invariants(coset_enumerate(GeneratorSet("variant", gens)))

    @staticmethod
    def conjugate(table, gens, exponents):
        """The generators g m g^-1 of g H g^-1, with g the product of T^e S
        over the exponents and H the subgroup of the table, and the oracle for
        their table.  The coset (g H g^-1) x corresponds to H g^-1 x, so the
        conjugate's table is H's table read from coset 0.g^-1."""
        g = (1, 0, 0, 1)
        for e in exponents:
            g = mat_mul(mat_mul(g, (1, e, 0, 1)), S_MAT)
        base = 0
        for e in reversed(exponents):  # g^-1 = S T^-e_k ... S T^-e_1 in PSL2(Z)
            base = _perm_power(table.perm_T, -e)[table.perm_S[base]]
        a, b, c, d = g
        return [mat_mul(mat_mul(g, m), (d, -b, -c, a)) for m in gens], relabel(table, base)

    def test_schreier_round_trip(self):
        # a table's Schreier generators enumerate back to the same table,
        # renumbered as coset_enumerate numbers cosets
        rng = random.Random(64)
        checked = 0
        while checked < 300:
            table = random_coset_table(rng, rng.randint(1, 24))
            if table is not None:
                assert coset_enumerate(schreier_generators(table)) == relabel(table), table
                checked += 1

    def test_generator_order(self):
        rng = random.Random(61)
        for table, gens in self.subgroups(rng):
            rng.shuffle(gens)
            assert self.invariants_of(gens) == invariants(table), gens

    def test_appended_product(self):
        rng = random.Random(62)
        for table, gens in self.subgroups(rng):
            a, b = rng.choice(gens), rng.choice(gens)
            assert self.invariants_of(gens + [mat_mul(a, b)]) == invariants(table), gens

    def test_conjugated(self):
        # invariants cannot see the base coset; the table can
        rng = random.Random(63)
        cases = self.subgroups(rng) + [(coset_enumerate(gens), gens.generators)
                                       for gens in PRESETS.values()]
        for table, gens in cases:
            exponents = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
            conjugated, want = self.conjugate(table, gens, exponents)
            got = coset_enumerate(GeneratorSet("variant", conjugated))
            assert got == want, exponents
            assert invariants(got) == invariants(table), exponents

    def test_conjugated_by_long_powers(self):
        # the shapes of the coset-conjugated benchmark: index 8..32, three
        # factors T^e S with 100 <= |e| <= 300
        rng = random.Random(65)
        cases = [(coset_enumerate(gens), gens.generators) for gens in PRESETS.values()]
        while len(cases) < 23:
            table = random_coset_table(rng, rng.randint(8, 32))
            if table is not None:
                cases.append((table, schreier_generators(table).generators))
        for table, gens in cases:
            exponents = [rng.choice((-1, 1)) * rng.randint(100, 300) for _ in range(3)]
            conjugated, want = self.conjugate(table, gens, exponents)
            assert coset_enumerate(GeneratorSet("variant", conjugated)) == want, exponents

    def test_long_conjugator_within_a_small_cap(self):
        # folding from both ends defines the path of T^250 S T^-180 S once, in
        # 1298 cosets; tracing each generator forward from the base only copied
        # it per generator and grew past 2000
        table = coset_enumerate(PRESETS["gamma711"])
        conjugated, want = self.conjugate(table, PRESETS["gamma711"].generators, [250, -180])
        assert coset_enumerate(GeneratorSet("variant", conjugated), cap=2000) == want


class TestDimCuspForms:
    def test_full_group_weights(self):
        inv = invariants(coset_enumerate(FULL_GROUP))
        # classical dimensions for the modular group
        assert dim_cusp_forms(inv, 12) == 1
        assert dim_cusp_forms(inv, 4) == 0
        assert dim_cusp_forms(inv, 6) == 0
        assert dim_cusp_forms(inv, 14) == 0
        assert dim_cusp_forms(inv, 16) == 1
        assert dim_cusp_forms(inv, 2) == 0

    def test_gamma43_weight_4(self):
        inv = invariants(coset_enumerate(PRESETS["gamma43"]))
        assert dim_cusp_forms(inv, 4) == 1

    def test_weight_2_is_genus(self):
        inv = invariants(coset_enumerate(PRESETS["gamma711"]))
        assert dim_cusp_forms(inv, 2) == inv.genus

    def test_odd_weight_rejected(self):
        inv = invariants(coset_enumerate(FULL_GROUP))
        for w in [5, 0, 4.0, True, "4"]:
            with pytest.raises(ValueError, match="even integer"):
                dim_cusp_forms(inv, w)


class TestDimRhoPrim:
    def test_gamma43_small(self):
        dims = dim_rho_prim(coset_enumerate(PRESETS["gamma43"]), 20)
        assert dims[2] == 2
        assert dims[20] == 20

    def test_gamma52(self):
        assert dim_rho_prim(coset_enumerate(PRESETS["gamma52"]), 10)[10] == 10

    def test_gamma711_small(self):
        assert dim_rho_prim(coset_enumerate(PRESETS["gamma711"]), 4) == {2: 2, 4: 4}

    def test_gamma711_growth(self):
        # regression pin for what the formula yields at larger k: the cusp
        # and elliptic data of this index-9 subgroup make the excess over the
        # full group exceed k/2 once floor((k+2)/3) < k/2
        dims = dim_rho_prim(coset_enumerate(PRESETS["gamma711"]), 20)
        assert dims[6] == 8
        assert dims[20] == 26

    def test_non_preset_answered(self):
        # a congruence subgroup is its own closure: no primitive part
        for name, (gens, _, _) in CONGRUENCE_GROUPS.items():
            table = coset_enumerate(GeneratorSet(name, gens))
            assert dim_rho_prim(table, 12) == dict.fromkeys(range(2, 13, 2), 0), name
        # gamma43 meets Gamma_0(2) in a subgroup of index 21 whose closure is
        # Gamma_0(2), of index 3
        gamma0_2 = GeneratorSet("gamma0_2", CONGRUENCE_GROUPS["hecke_level_2"][0])
        table = intersection_table(coset_enumerate(PRESETS["gamma43"]), coset_enumerate(gamma0_2))
        assert dim_rho_prim(table, 8) == {2: 6, 4: 12, 6: 18, 8: 24}
        # generators are not taken in place of their table
        with pytest.raises(TypeError, match="takes a CosetTable, got GeneratorSet"):
            dim_rho_prim(PRESETS["gamma43"], 2)

    @staticmethod
    def presentations(name):
        """Other generator lists of the same preset subgroup."""
        g = PRESETS[name].generators
        return {
            "redundant": g + (mat_mul(g[0], g[1]),),
            "inverted": tuple(inverse(m) for m in g),
            "reordered": g[::-1],
            "redundant, inverted, reordered": (mat_mul(g[1], g[0]),) + tuple(map(inverse, g))[::-1],
        }

    def test_any_presentation_of_a_preset(self):
        # the answer must not depend on how the subgroup is presented
        for name in PRESETS:
            table = coset_enumerate(PRESETS[name])
            want = dim_rho_prim(table, 20)
            for how, gens in self.presentations(name).items():
                other = coset_enumerate(GeneratorSet(f"{name}, {how}", list(gens)))
                assert other == table, (name, how)
                assert dim_rho_prim(other, 20) == want, (name, how)

    def test_conjugate_of_a_preset_answered(self):
        # same invariants, different subgroup: joined with gamma43 it
        # generates a subgroup of smaller index, so it is not contained in it;
        # its closure is the full group too, so its dimensions are gamma43's
        g = PRESETS["gamma43"].generators
        preset = coset_enumerate(PRESETS["gamma43"])
        for c in (T_MAT, S_MAT, (1, 0, 1, 1)):
            conj = GeneratorSet("conjugate", [mat_mul(mat_mul(inverse(c), m), c) for m in g])
            table = coset_enumerate(conj)
            assert table != preset
            assert invariants(table) == invariants(preset)
            assert coset_enumerate(GeneratorSet("join", list(g + conj.generators))).index < 7
            assert dim_rho_prim(table, 20) == dim_rho_prim(preset, 20)

    def test_answers_under_a_small_cap(self):
        # the closure folds the table it is given and defines no coset, so
        # no cap bounds it; the cap still bounds coset_enumerate after it
        table = coset_enumerate(PRESETS["gamma43"])
        assert dim_rho_prim(table, 2) == {2: 2}
        with pytest.raises(CosetCapExceeded):
            coset_enumerate(PRESETS["gamma43"], cap=3)

    def test_dimension_section_enumerates_each_subgroup_once(self, monkeypatch):
        # the section checks ten k per preset from one dim_rho_prim call, and
        # verify enumerates each preset once; the closures enumerate nothing
        calls = []
        for module in (katzmod.verify, katzmod.subgroups):
            real = module.coset_enumerate
            monkeypatch.setattr(module, "coset_enumerate",
                                lambda gens, cap=None, real=real, where=module.__name__:
                                calls.append((where, gens.name)) or real(gens, cap))
        rows = list(katzmod.verify.check_dimension())
        assert len(rows) == 10 * len(PRESETS) and all(row.ok for row in rows)
        assert sorted(calls) == sorted(("katzmod.verify", name) for name in PRESETS)

    def test_malformed_kmax_rejected(self):
        table = coset_enumerate(PRESETS["gamma43"])
        for kmax in [1, 0, -2, 4.0, True, "4", None]:
            with pytest.raises(ValueError, match="need an integer kmax >= 2"):
                dim_rho_prim(table, kmax)
        # an odd kmax is a bound: the even k up to it
        assert list(dim_rho_prim(table, 5)) == [2, 4]


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path):
        doc = {"name": "gamma2", "generators": [[1, 2, 0, 1], [1, 0, 2, 1]]}
        path = tmp_path / "gamma2.json"
        path.write_text(json.dumps(doc))
        gens = load_generator_file(path)
        assert gens.name == "gamma2"
        table = coset_enumerate(gens)
        assert table.index == 6
        assert invariants(table).cusp_widths == (2, 2, 2)

    def test_resolve_preset_and_path(self, tmp_path):
        assert resolve_subgroup("gamma43") is PRESETS["gamma43"]
        doc = {"name": "t", "generators": [[1, 1, 0, 1]]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert resolve_subgroup(str(path)).name == "t"
        with pytest.raises(ValueError, match="unknown subgroup"):
            resolve_subgroup("gamma_nonexistent")

    def test_a_file_descriptor_is_refused_and_left_open(self):
        # os.path.exists and open take an int as a descriptor: a pipe holding
        # a generator document would be read, and closed by the with block
        r, w = os.pipe()
        try:
            os.write(w, json.dumps({"name": "t", "generators": [[1, 1, 0, 1]]}).encode())
            os.close(w)
            for call in (resolve_subgroup, load_generator_file):
                for spec in (r, True, None, 2.0, b"gamma43", ["gamma43"]):
                    with pytest.raises(TypeError, match="expected a preset name or a path"):
                        call(spec)
            os.fstat(r)  # still open
            assert os.read(r, 9) == b'{"name": '
        finally:
            os.close(r)

    def test_float_entry_rejected(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"name": "f", "generators": [[1, 0.5, 0, 1]]}))
        with pytest.raises(ValueError, match="0.5 is not an integer"):
            load_generator_file(path)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_generator_file(path)


class TestWord:
    def test_length(self):
        # T^3 is (s u)^3
        assert matrix_to_word((1, 3, 0, 1)) == (0, 1) * 3
