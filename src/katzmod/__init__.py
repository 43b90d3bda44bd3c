"""Exact-arithmetic toolkit for two linked computations: the classification
of simple subalgebras of sl_k containing a nilpotent with a single Jordan
block, and the invariants of three finite-index noncongruence subgroups of
PSL2(Z), including the cusp-form dimension counts behind both.

The package loads lazily (PEP 562): `import katzmod` imports none of its
submodules.  The first use of a public name imports the submodule that
defines it, and that name's later uses are plain attribute reads.  The
submodules themselves (linalg, sl2, roots, classify, subgroups, verify, cli)
resolve the same way, so `katzmod.roots` needs no `import katzmod.roots`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {name: module for module, names in (
    ("linalg", "Matrix bracket rank solve_homogeneous DimensionError"),
    ("sl2", "Sl2Triple AdjointDecomposition principal_triple decompose_adjoint "
            "project_to_blocks bracket_support verify_bracket_identity "
            "invariant_bilinear_form"),
    ("roots", "RootSystem build_root_system exponents algebra_dimension "
              "weyl_dimension irreps_of_dimension irreps_up_to"),
    ("classify", "exponent_criteria ht_filter form_filter frobenius_dimension_check "
                 "ClassificationCase"),
    ("subgroups", "GeneratorSet matrix_to_word coset_enumerate CosetTable "
                  "SubgroupInvariants invariants congruence_test congruence_closure "
                  "dim_cusp_forms dim_rho_prim PRESETS FULL_GROUP load_generator_file "
                  "resolve_subgroup CosetCapExceeded InfiniteIndex"),
) for name in names.split()}

_SUBMODULES = {*_HOMES.values(), "verify", "cli"}

__all__ = list(_HOMES)


def __getattr__(name):
    """Import the submodule behind `name` and keep the value as a global."""
    if name in _HOMES:
        value = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
