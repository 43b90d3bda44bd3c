"""The nine records of katzmod: frozen, checked again by _replace, and copied.

Each record is a collections.namedtuple class.  No field can be assigned.
The records whose constructor checks its fields (Sl2Triple, GeneratorSet,
CosetTable) run the same checks from _replace, and AdjointDecomposition,
which is built from its triple alone, refuses _replace.  copy.copy,
copy.deepcopy and a pickle round trip give back an equal record of the same
class.
"""

import copy
import pickle

import pytest

from katzmod import verify
from katzmod.classify import classify
from katzmod.roots import build_root_system
from katzmod.sl2 import principal_triple, decompose_adjoint, invariant_bilinear_form
from katzmod.subgroups import PRESETS, coset_enumerate, invariants


def build_records():
    t = principal_triple(4)
    table = coset_enumerate(PRESETS["gamma43"])
    return {
        "Sl2Triple": t,
        "AdjointDecomposition": decompose_adjoint(t),
        "BilinearForm": invariant_bilinear_form(t),
        "RootSystem": build_root_system("G", 2),
        "ClassificationCase": classify(7)[-1],
        "GeneratorSet": PRESETS["gamma43"],
        "CosetTable": table,
        "SubgroupInvariants": invariants(table),
        "CheckResult": verify.run("form")[0],
    }


RECORDS = build_records()


def test_each_record_is_its_class():
    assert {type(rec).__name__ for rec in RECORDS.values()} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_assigned(name):
    rec = RECORDS[name]
    for field in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field, None))


@pytest.mark.parametrize("name", RECORDS)
def test_copies_and_pickles_are_equal(name):
    rec = RECORDS[name]
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is type(rec) and twin == rec


def test_replace_runs_the_constructors_checks():
    t = RECORDS["Sl2Triple"]
    assert t._replace(x=[1, 1, 1]) == t and type(t._replace(x=[1, 1, 1]).x) is tuple
    with pytest.raises(ValueError, match="x entry 1.5 is not an integer"):
        t._replace(x=(1, 1.5, 1))
    with pytest.raises(ValueError, match="need an integer k >= 2"):
        t._replace(k=1)
    gens = RECORDS["GeneratorSet"]
    assert gens._replace(generators=[(-1, -4, 0, -1)]).generators == ((1, 4, 0, 1),)
    with pytest.raises(ValueError, match="determinant 0, not 1"):
        gens._replace(generators=[(1, 1, 1, 1)])
    table = RECORDS["CosetTable"]
    with pytest.raises(RuntimeError, match="perm_T is not a tuple"):
        table._replace(perm_T=table.perm_T[:-1])
    with pytest.raises(RuntimeError, match="violates"):
        table._replace(perm_S=tuple(range(table.index)))


def test_the_decomposition_is_built_from_its_triple_alone():
    dec = RECORDS["AdjointDecomposition"]
    with pytest.raises(TypeError):
        dec._replace(k=3)
    with pytest.raises(TypeError):
        dec._replace()
