"""Exact-arithmetic toolkit for two linked computations: the classification
of simple subalgebras of sl_k containing a nilpotent with a single Jordan
block, and the invariants of three finite-index noncongruence subgroups of
PSL2(Z), including the cusp-form dimension counts behind both."""

from .linalg import Matrix, bracket, rank, solve_homogeneous, DimensionError
from .sl2 import (Sl2Triple, AdjointDecomposition, principal_triple,
                  decompose_adjoint, project_to_blocks, bracket_support,
                  verify_bracket_identity, invariant_bilinear_form)
from .roots import (RootSystem, build_root_system, exponents, algebra_dimension,
                    weyl_dimension, irreps_of_dimension, irreps_up_to)
from .classify import (exponent_criteria, ht_filter, form_filter,
                       frobenius_dimension_check, ClassificationCase)
from .subgroups import (GeneratorSet, matrix_to_word, coset_enumerate,
                        CosetTable, SubgroupInvariants, invariants,
                        congruence_test, congruence_closure, dim_cusp_forms, dim_rho_prim,
                        PRESETS, FULL_GROUP, load_generator_file,
                        resolve_subgroup, CosetCapExceeded, InfiniteIndex)

__version__ = "0.1.0"
