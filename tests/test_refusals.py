"""A refusal table over the public API: every callable in katzmod.__all__,
each argument position in turn given a value of the wrong type.

The other arguments hold a valid value, so each call tests one position.  A
call must return, or refuse with ValueError, TypeError, DimensionError or
CosetCapExceeded; an AttributeError or IndexError from inside the work is a
defect.  The values leave out huge ints, which mean real work rather than a
wrong type.  Two other answers are part of the API:
- CosetTable raises RuntimeError for any table that fails its check, since
  the same check guards coset_enumerate's own output;
- load_generator_file("3") raises FileNotFoundError: "3" is a path of the
  right type that names no file.

Each row holds a pipe open and checks that it is still open afterwards.
Its read end is an int that `os.path.exists` and `open` would take as a
file descriptor, so resolve_subgroup and load_generator_file are also
handed that int, and must refuse it without reading or closing the pipe.
"""

import json
import math
import os

import pytest

import katzmod
from katzmod import DimensionError, CosetCapExceeded

WRONG = (None, "3", 2.0, math.nan, True, (), [], object())
REFUSALS = (ValueError, TypeError, DimensionError, CosetCapExceeded)
ALSO = {"CosetTable": RuntimeError, "load_generator_file": FileNotFoundError}
PATH_TAKERS = ("resolve_subgroup", "load_generator_file")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """name -> a valid argument tuple for each public callable."""
    path = tmp_path_factory.mktemp("refusals") / "gamma43.json"
    gens = katzmod.PRESETS["gamma43"]
    path.write_text(json.dumps({"name": "g", "generators": [list(m) for m in gens.generators]}))
    t = katzmod.principal_triple(3)
    dec = katzmod.decompose_adjoint(t)
    rs = katzmod.build_root_system("A", 2)
    cases = katzmod.classify.classify(4)
    table = katzmod.coset_enumerate(gens)
    inv = katzmod.invariants(table)
    square = katzmod.Matrix(2, 2, [1, 2, 3, 4])
    return {
        "Matrix": (2, 2, [1, 2, 3, 4]),
        "bracket": (square, square),
        "rank": ([[1, 2], [3, 4]], 2),
        "solve_homogeneous": ([[1, 2], [2, 4]], 2),
        "DimensionError": ("shape",),
        "Sl2Triple": tuple(t),
        "AdjointDecomposition": (t,),
        "principal_triple": (3,),
        "decompose_adjoint": (t,),
        "project_to_blocks": (dec, katzmod.Matrix(3, 3, [0, 1, 0, 0, 0, 1, 0, 0, 0])),
        "bracket_support": (dec, 1, 1),
        "verify_bracket_identity": (dec, 1, 1),
        "invariant_bilinear_form": (t,),
        "RootSystem": tuple(rs),
        "build_root_system": ("A", 2),
        "exponents": (rs,),
        "algebra_dimension": (rs,),
        "weyl_dimension": (rs, (1, 0)),
        "irreps_of_dimension": (rs, 3),
        "irreps_up_to": (rs, 8),
        "exponent_criteria": ((1, 2), 3),
        "ht_filter": (cases, 4, (0, -5)),
        "form_filter": (cases, 4),
        "frobenius_dimension_check": (5, 4),
        "ClassificationCase": tuple(cases[0]),
        "GeneratorSet": tuple(gens),
        "matrix_to_word": ((1, 1, 0, 1),),
        "coset_enumerate": (gens, 100),
        "CosetTable": tuple(table),
        "SubgroupInvariants": tuple(inv),
        "invariants": (table,),
        "congruence_test": (table,),
        "congruence_closure": (table,),
        "dim_cusp_forms": (inv, 12),
        "dim_rho_prim": (table, 4),
        "load_generator_file": (str(path),),
        "resolve_subgroup": ("gamma43",),
        "CosetCapExceeded": ("cap",),
        "InfiniteIndex": ("infinite",),
    }


CALLABLES = [name for name in katzmod.__all__ if callable(getattr(katzmod, name))]


def test_the_table_covers_every_public_callable(valid):
    assert sorted(valid) == sorted(CALLABLES)
    assert len(CALLABLES) == 39  # PRESETS and FULL_GROUP are data


@pytest.mark.parametrize("name", CALLABLES)
def test_a_wrong_type_is_refused_or_answered(valid, name):
    f = getattr(katzmod, name)
    args = valid[name]
    f(*args)
    allowed = REFUSALS + ((ALSO[name],) if name in ALSO else ())
    defects = []
    r, w = os.pipe()
    try:
        os.write(w, b'{"name": "g", "generators": [[1, 1, 0, 1]]}')
        for position in range(len(args)):
            for value in WRONG + ((r,) if name in PATH_TAKERS else ()):
                call = list(args)
                call[position] = value
                try:
                    f(*call)
                except allowed:
                    pass
                except Exception as exc:  # any other exception is a defect the table reports
                    defects.append(f"{name} arg {position} = {value!r}: "
                                   f"{type(exc).__name__}: {exc}")
        os.fstat(r)  # raises OSError once the descriptor is closed
        assert os.read(r, 9) == b'{"name": '
    finally:
        os.close(r)
        os.close(w)
    assert not defects, "\n".join(defects)
