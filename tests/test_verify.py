"""verify.run computes what several sections read once per call, and only there,
and each section can fail.

The classification and pipeline sections read one classify_all sweep, the
adjoint and bracket sections one decomposition of sl_k per k, and the subgroups
and dimension sections one coset table per preset.  A section run alone must
give the rows it gives inside a full run, a corrupted sweep or decomposition
must turn every section that reads it red, and the sharing must end with the
call: a run after the corruption is undone is green again.  The
exponents, weyl, form, subgroups, dimension and frobenius sections each turn
red, alone, when the one input they read is corrupted.
"""

from operator import add

import pytest

import katzmod.classify
import katzmod.roots
from katzmod import verify
from katzmod.classify import LABEL_SYMPLECTIC
from test_sl2 import with_strip_replaced

SHARED = ("classification", "pipeline", "adjoint", "bracket", "subgroups", "dimension")


@pytest.fixture(scope="module")
def full_run():
    return verify.run()


@pytest.mark.parametrize("section", SHARED)
def test_section_alone_gives_its_rows_of_a_full_run(full_run, section):
    alone = verify.run(only=section)
    assert alone
    assert alone == [row for row in full_run if row.section == section]
    assert all(row.ok for row in alone)


def red(rows):
    return sorted((row.section, row.claim) for row in rows if not row.ok)


def test_corrupted_sweep_turns_classification_and_pipeline_red(monkeypatch):
    real = verify.classify_all
    calls = []

    def without_symplectic(ks):
        calls.append(tuple(ks))
        return {k: [c for c in cases if c.label != LABEL_SYMPLECTIC]
                for k, cases in real(ks).items()}

    monkeypatch.setattr(verify, "classify_all", without_symplectic)
    rows = verify.run()
    # one sweep for both sections; every even k > 2 loses C_(k/2), so its
    # case list is wrong and the form filter keeps nothing
    assert calls == [tuple(range(2, 31))]
    assert red(rows) == sorted(
        [("classification", f"classify({k}) case list") for k in range(4, 31, 2)]
        + [("pipeline", f"k={k}: two HT weights + alternating form") for k in range(4, 31, 2)])
    assert red(verify.run(only="pipeline")) == [row for row in red(rows) if row[0] == "pipeline"]
    monkeypatch.undo()
    assert not red(verify.run())


def test_corrupted_decomposition_turns_adjoint_and_bracket_red(monkeypatch):
    real = verify.decompose_adjoint
    calls = []

    def without_x(t):
        # the strip of x itself, the top of U_1, replaced by zero
        calls.append(t.k)
        dec = real(t)
        return with_strip_replaced(dec, 1, 0, (0,) * (t.k - 1))

    monkeypatch.setattr(verify, "decompose_adjoint", without_x)
    rows = verify.run()
    # one decomposition per k for both sections
    assert calls == list(range(2, 13))
    assert red(rows) == sorted(
        [("adjoint", f"k={k}: block dimensions and invertible basis") for k in range(2, 13)]
        + [("bracket", f"k={k}: [x^r, ad(y)x^s] = 2rs x^(r+s-1) and support")
           for k in range(2, 11)])
    bracket = [row for row in rows if row.section == "bracket"]
    assert all("1 missing from T(1,1)" in row.computed for row in bracket)
    monkeypatch.undo()
    assert not red(verify.run())


def test_a_strip_off_the_chain_turns_adjoint_and_bracket_red(monkeypatch):
    # U_1's lowest strip, on the diagonal -1, plus U_2's strip there: the
    # basis keeps its rank, but ad(y) no longer kills the last strip of U_1,
    # so its chain from x is 4 long; sl_2 has no U_2 and stays as it is
    real = verify.decompose_adjoint
    ranks = {}

    def mixed(t):
        dec = real(t)
        if t.k >= 3:
            lowest = tuple(map(add, dec.block(1)[2], dec.block(2)[3]))
            dec = with_strip_replaced(dec, 1, 2, lowest)
        ranks[t.k] = dec.basis_rank()
        return dec

    monkeypatch.setattr(verify, "decompose_adjoint", mixed)
    rows = verify.run()
    assert ranks == {k: k * k - 1 for k in range(2, 13)}
    assert red(rows) == sorted(
        [("adjoint", f"k={k}: block dimensions and invertible basis") for k in range(3, 13)]
        + [("bracket", f"k={k}: [x^r, ad(y)x^s] = 2rs x^(r+s-1) and support")
           for k in range(3, 11)])
    adjoint = [row for row in rows if row.section == "adjoint"]
    assert all(row.computed.startswith("[4, 5") for row in adjoint[1:])
    monkeypatch.undo()
    assert not red(verify.run())


def test_a_run_enumerates_one_coset_table_per_preset(monkeypatch):
    real = verify.coset_enumerate
    calls = []
    monkeypatch.setattr(verify, "coset_enumerate", lambda gens: calls.append(gens.name)
                        or real(gens))
    assert not red(verify.run())
    assert sorted(calls) == sorted(verify.PRESET_DATA)
    calls.clear()
    assert not red(verify.run(only="dimension"))
    assert sorted(calls) == sorted(verify.PRESET_DATA)


def test_nothing_is_shared_outside_a_run(monkeypatch):
    verify.run(only="adjoint")
    assert verify._shared is None
    calls = []
    real = verify.decompose_adjoint
    monkeypatch.setattr(verify, "decompose_adjoint", lambda t: calls.append(t.k) or real(t))
    list(verify.check_adjoint())
    list(verify.check_bracket())
    assert calls == list(range(2, 13)) + list(range(2, 11))


def without_least_dimension(real):
    # the irreps of the least nontrivial dimension go missing from the search
    def irreps_up_to(rs, bound):
        found = real(rs, bound)
        least = min(d for _, d in found if d > 1)
        return [(w, d) for w, d in found if d != least]
    return irreps_up_to


def with_parity_flipped(real):
    def invariant_bilinear_form(t):
        form = real(t)
        return form._replace(symmetric=not form.symmetric)
    return invariant_bilinear_form


def with_congruence_flipped(real):
    def invariants(table):
        inv = real(table)
        return inv._replace(congruence=not inv.congruence)
    return invariants


def with_split_nilpotent(real):
    # x with its first entry 0 is two Jordan blocks, of sizes 1 and k - 1; the
    # triple is corrupted only for the check, which reads it from classify
    triple = katzmod.classify.principal_triple

    def split(k):
        t = triple(k)
        return t._replace(x=(0,) + t.x[1:])

    def frobenius_dimension_check(w, k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(katzmod.classify, "principal_triple", split)
            return real(w, k)
    return frobenius_dimension_check


CORRUPTIONS = {
    # section: (the name verify imports, its corruption, the section's red rows)
    "exponents": ("exponents", lambda real: lambda rs: real(rs)[:-1], 33),
    "weyl": ("irreps_up_to", without_least_dimension, 22),
    "form": ("invariant_bilinear_form", with_parity_flipped, 11),
    "subgroups": ("invariants", with_congruence_flipped, 3),
    "dimension": ("dim_rho_prim",
                  lambda real: lambda table, kmax: {k: d + 1 for k, d in real(table, kmax).items()},
                  30),
    "frobenius": ("frobenius_dimension_check", with_split_nilpotent, 29),
}


@pytest.mark.parametrize("section", CORRUPTIONS)
def test_corrupted_input_turns_its_section_red(full_run, monkeypatch, section):
    name, corrupt, count = CORRUPTIONS[section]
    monkeypatch.setattr(verify, name, corrupt(getattr(verify, name)))
    want = [(row.section, row.claim) for row in full_run if row.section == section]
    if section == "exponents":
        # the algebra dimensions are read from the root system, not its exponents
        want = [w for w in want if not w[1].startswith("dim ")]
    if section == "frobenius":
        # k = 1 reads the fixed strips h = (0,), x = (), not a triple
        want = [w for w in want if not w[1].startswith("k=1,")]
    assert len(want) == count
    assert red(verify.run()) == sorted(want)
    monkeypatch.undo()
    assert not red(verify.run())


def test_a_search_without_a_nontrivial_irreducible_turns_weyl_red(full_run, monkeypatch):
    # every search finds the trivial weight alone: no least dimension to read
    monkeypatch.setattr(verify, "irreps_up_to", lambda rs, bound: [((0,) * rs.rank, 1)])
    want = [(row.section, row.claim) for row in full_run if row.section == "weyl"]
    assert len(want) == 22
    assert red(verify.run()) == sorted(want)
    monkeypatch.undo()
    assert not red(verify.run())


def test_a_run_makes_at_most_650_weyl_products(monkeypatch):
    # the descent over the weights probes each weight at most once
    real = katzmod.roots._weyl_product
    weights = []
    monkeypatch.setattr(katzmod.roots, "_weyl_product",
                        lambda rs, weight, bound=None: weights.append(weight)
                        or real(rs, weight, bound))
    assert not red(verify.run())
    assert len(weights) <= 650
