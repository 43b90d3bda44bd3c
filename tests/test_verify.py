"""verify.run computes what several sections read once per call, and only there.

The classification and pipeline sections read one classify_all sweep, and the
adjoint and bracket sections one decomposition of sl_k per k.  A section run
alone must give the rows it gives inside a full run, a corrupted sweep or
decomposition must turn every section that reads it red, and the sharing must
end with the call: a run after the corruption is undone is green again.
"""

import pytest

from katzmod import verify
from katzmod.classify import LABEL_SYMPLECTIC
from test_sl2 import with_strip_replaced

SHARED = ("classification", "pipeline", "adjoint", "bracket")


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


def test_nothing_is_shared_outside_a_run(monkeypatch):
    verify.run(only="adjoint")
    assert verify._shared is None
    calls = []
    real = verify.decompose_adjoint
    monkeypatch.setattr(verify, "decompose_adjoint", lambda t: calls.append(t.k) or real(t))
    list(verify.check_adjoint())
    list(verify.check_bracket())
    assert calls == list(range(2, 13)) + list(range(2, 11))
