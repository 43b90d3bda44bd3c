"""One-shot verification of every headline number the toolkit reproduces.

Each check section recomputes a family of claims from scratch and compares
against the expected values; the CLI command `verify-paper` renders the rows
as a table and exits nonzero when anything fails.  The expected exponent
table lives here as data so that the root-system code is tested against it
rather than reading from it.

Within one run() call the sections share what they both read: the
classification and pipeline sections one classify_all sweep, the adjoint and
bracket sections one decompose_adjoint(principal_triple(k)) per k, and the
subgroups and dimension sections one coset_enumerate table per preset.  A
section called on its own computes its objects afresh, and nothing outlives
the call.
"""

from collections import namedtuple

from .linalg import rank  # noqa: F401  (perfbench's tracer checks it is rebound here too)
from .sl2 import principal_triple, decompose_adjoint, block_dimensions, bracket_support, \
    verify_bracket_identity, invariant_bilinear_form
from .roots import build_root_system, exponents, algebra_dimension, irreps_up_to
from .classify import classify_all, ht_filter, form_filter, frobenius_dimension_check
from .subgroups import PRESETS, coset_enumerate, invariants, dim_rho_prim


CheckResult = namedtuple("CheckResult", "section claim expected computed ok")


# Reference exponent table (the scan's oracle): simple type -> exponents.
EXPONENT_TABLE = {}
for _n in range(1, 9):
    EXPONENT_TABLE[("A", _n)] = tuple(range(1, _n + 1))
for _n in range(2, 9):
    EXPONENT_TABLE[("B", _n)] = tuple(range(1, 2 * _n, 2))
    EXPONENT_TABLE[("C", _n)] = tuple(range(1, 2 * _n, 2))
for _n in range(3, 9):
    EXPONENT_TABLE[("D", _n)] = tuple(sorted(list(range(1, 2 * _n - 2, 2)) + [_n - 1]))
EXPONENT_TABLE[("E", 6)] = (1, 4, 5, 7, 8, 11)
EXPONENT_TABLE[("E", 7)] = (1, 5, 7, 9, 11, 13, 17)
EXPONENT_TABLE[("E", 8)] = (1, 7, 11, 13, 17, 19, 23, 29)
EXPONENT_TABLE[("F", 4)] = (1, 5, 7, 11)
EXPONENT_TABLE[("G", 2)] = (1, 5)

# Selected algebra dimensions cross-checked explicitly.
ALGEBRA_DIMS = {("A", 3): 15, ("G", 2): 14, ("E", 7): 133, ("E", 8): 248}


def expected_case_names(k):
    """The classification list: A_1, A_(k-1), C or B by parity, G_2 at 7."""
    if k == 2:
        return ["A_1"]
    names = ["A_1", f"A_{k - 1}"]
    if k % 2 == 0:
        names.append(f"C_{k // 2}")
    elif k >= 5:
        names.append(f"B_{(k - 1) // 2}")
    if k == 7:
        names.append("G_2")
    return sorted(names)


# The objects shared by the sections of the current run() call; None outside
# one.  SECTIONS holds zero-argument callables (perfbench wraps them), so the
# sections find the run's objects here rather than as arguments.
_shared = None


def _once(key, compute):
    """compute(), once per run() call, and afresh when no run() is under way."""
    if _shared is None:
        return compute()
    if key not in _shared:
        _shared[key] = compute()
    return _shared[key]


def _classified():
    return _once("classified", lambda: classify_all(range(2, 31)))


def _decomposition(k):
    return _once(("adjoint", k), lambda: decompose_adjoint(principal_triple(k)))


def _cosets(name):
    return _once(("cosets", name), lambda: coset_enumerate(PRESETS[name]))


def check_classification():
    classified = _classified()
    for k in range(2, 31):
        got = sorted(c.name for c in classified[k])
        want = expected_case_names(k)
        yield CheckResult("classification", f"classify({k}) case list",
                          ", ".join(want), ", ".join(got), got == want)


def check_pipeline():
    classified = _classified()
    for k in range(2, 31, 2):
        _, conclusion = form_filter(ht_filter(classified[k], k, (0, -k - 1)), k)
        want = f"GSp_{k}"
        yield CheckResult("pipeline", f"k={k}: two HT weights + alternating form",
                          want, str(conclusion), conclusion == want)


def check_adjoint():
    for k in range(2, 13):
        dec = _decomposition(k)
        dims = block_dimensions(dec, principal_triple(k))
        want = [2 * r + 1 for r in range(1, k)]
        basis_rank = dec.basis_rank()
        ok = dims == want and sum(dims) == k * k - 1 and basis_rank == k * k - 1
        yield CheckResult("adjoint", f"k={k}: block dimensions and invertible basis",
                          f"{want}, sum {k * k - 1}, rank {k * k - 1}",
                          f"{dims}, sum {sum(dims)}, rank {basis_rank}", ok)


def check_bracket():
    for k in range(2, 11):
        dec = _decomposition(k)
        bad = []
        for r in range(1, k):
            for s in range(1, min(r, k - r) + 1):
                if not verify_bracket_identity(dec, r, s):
                    bad.append(f"identity({r},{s})")
                support = bracket_support(dec, r, s)
                if r + s - 1 not in support:
                    bad.append(f"{r + s - 1} missing from T({r},{s})")
                if r + s in support:
                    bad.append(f"{r + s} present in T({r},{s})")
        yield CheckResult("bracket", f"k={k}: [x^r, ad(y)x^s] = 2rs x^(r+s-1) and support",
                          "all pairs pass", "all pairs pass" if not bad else "; ".join(bad),
                          not bad)


def check_exponents():
    for (t, n), want in sorted(EXPONENT_TABLE.items()):
        rs = build_root_system(t, n)
        got = exponents(rs)
        dim = algebra_dimension(rs)
        ok = got == want and sum(2 * r + 1 for r in got) == dim
        yield CheckResult("exponents", f"{t}_{n} exponents and dimension sum",
                          f"{list(want)}, dim {2 * len(rs.positive_roots) + n}",
                          f"{list(got)}, sum(2r+1) {sum(2 * r + 1 for r in got)}", ok)
    for (t, n), want in sorted(ALGEBRA_DIMS.items()):
        got = algebra_dimension(build_root_system(t, n))
        yield CheckResult("exponents", f"dim {t}_{n}", str(want), str(got), got == want)


def _nontrivial_dims(rs):
    bound = algebra_dimension(rs)
    return sorted({d for _, d in irreps_up_to(rs, bound) if d > 1})


def check_weyl():
    # None, and a red row, when the search finds no nontrivial irreducible
    least = min(_nontrivial_dims(build_root_system("A", 1)), default=None)
    yield CheckResult("weyl", "A_1 least dimension", "2", str(least), least == 2)
    for n in range(2, 9):
        dims = _nontrivial_dims(build_root_system("A", n))
        two = set(dims[:2])
        want = {n + 1, n * (n + 1) // 2}
        yield CheckResult("weyl", f"A_{n} least dimensions",
                          f"{sorted(want)} among two smallest", str(dims[:2]),
                          want <= two)
    for n in range(3, 9):
        least = min(_nontrivial_dims(build_root_system("B", n)), default=None)
        yield CheckResult("weyl", f"B_{n} least dimension", str(2 * n + 1),
                          str(least), least == 2 * n + 1)
    for n in range(2, 9):
        least = min(_nontrivial_dims(build_root_system("C", n)), default=None)
        yield CheckResult("weyl", f"C_{n} least dimension", str(2 * n),
                          str(least), least == 2 * n)
    dims = _nontrivial_dims(build_root_system("G", 2))
    yield CheckResult("weyl", "G_2 least dimensions", "[7, 14]", str(dims[:2]),
                      dims[:2] == [7, 14])


def check_form():
    for k in range(2, 13):
        form = invariant_bilinear_form(principal_triple(k))
        want = "symmetric" if k % 2 == 1 else "antisymmetric"
        got = "symmetric" if form.symmetric else "antisymmetric"
        yield CheckResult("form", f"k={k}: invariant form parity", want, got, want == got)


# Stated data of the presets: index, cusp widths, nu2, nu3.  All three have
# genus 0, and Riemann-Hurwitz admits no other nu2, nu3 for these widths.
PRESET_DATA = {
    "gamma43": (7, (4, 3), 1, 1),
    "gamma52": (7, (5, 2), 1, 1),
    "gamma711": (9, (7, 1, 1), 1, 0),
}


def expected_dim_rho_prim(name, k):
    """Twice the excess of dim S_(k+2) for a stated preset over the full group.

    Both groups have genus 0 and the full group has one cusp and nu2 = nu3 = 1,
    so the dimension formula for cusp forms (Shimura 1971, Thm 2.23) leaves
    2 [(t - 1) k/2 + (nu2 - 1) floor((k+2)/4) + (nu3 - 1) floor((k+2)/3)]
    with t the number of cusps.  This is k for gamma43 and gamma52, and
    2 (k - floor((k+2)/3)) for gamma711.
    """
    _, widths, nu2, nu3 = PRESET_DATA[name]
    return 2 * ((len(widths) - 1) * (k // 2) + (nu2 - 1) * ((k + 2) // 4)
                + (nu3 - 1) * ((k + 2) // 3))


def check_subgroups():
    for name, (index, widths, _, _) in PRESET_DATA.items():
        inv = invariants(_cosets(name))
        ok = inv.index == index and inv.cusp_widths == widths and not inv.congruence
        yield CheckResult("subgroups", f"{name}: index, widths, noncongruence",
                          f"index {index}, widths {list(widths)}, noncongruence",
                          f"index {inv.index}, widths {list(inv.cusp_widths)}, "
                          f"{'non' if not inv.congruence else ''}congruence", ok)


def check_dimension():
    for name in PRESET_DATA:
        for k, got in dim_rho_prim(_cosets(name), 20).items():
            want = expected_dim_rho_prim(name, k)
            yield CheckResult("dimension", f"{name}: dim rho_prim at k={k}",
                              str(want), str(got), got == want)


def check_frobenius():
    for k in range(1, 31):
        got = frobenius_dimension_check(k + 1, k)
        yield CheckResult("frobenius", f"k={k}, w=k+1: admissible subspace dimensions",
                          f"[{k}]", str(got), got == [k])


SECTIONS = {
    "classification": check_classification,
    "pipeline": check_pipeline,
    "adjoint": check_adjoint,
    "bracket": check_bracket,
    "exponents": check_exponents,
    "weyl": check_weyl,
    "form": check_form,
    "subgroups": check_subgroups,
    "dimension": check_dimension,
    "frobenius": check_frobenius,
}


def run(only=None):
    """Run all checks (or one section); returns the list of CheckResult rows."""
    if only is not None and only not in SECTIONS:
        raise ValueError(f"unknown section {only!r}; choose from {', '.join(SECTIONS)}")
    global _shared
    outer, _shared = _shared, {}
    try:
        rows = []
        for name, section in SECTIONS.items():
            if only in (None, name):
                rows.extend(section())
        return rows
    finally:
        _shared = outer
