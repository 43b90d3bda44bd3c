"""Acceptance suite: every headline claim, exact arithmetic, no tolerances.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
all) and asserts that every row of its section checks out.  The same rows
back the `katzmod verify-paper` command.

Criterion 9 takes its targets from each preset's stated data, not from the
computation: index, cusp widths, nu2 and nu3, all genus 0 (for gamma711:
index 9, widths 7+1+1, nu2 = 1, nu3 = 0, the only data Riemann-Hurwitz
admits).  The congruence closure that dim_rho_prim computes from each
preset's coset table is the full modular group (the preset's generators fill
PSL2(Z/level)), so the dimension formula for cusp forms gives
dim rho_prim = k for gamma43 and gamma52 and 2(k - floor((k+2)/3)) for
gamma711, which exceeds k from k = 6 on.
"""

from katzmod import verify


def _run_criterion(number, title, section):
    rows = verify.run(only=section)
    bad = [r for r in rows if not r.ok]
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {number:>2} ({title}): {status} "
          f"[{len(rows) - len(bad)}/{len(rows)} checks]")
    assert not bad, "\n".join(
        f"{r.claim}: expected {r.expected}, computed {r.computed}" for r in bad)


def test_criterion_01_classification():
    # classify(k) equals the expected case list for every k in 2..30
    _run_criterion(1, "classification scan", "classification")


def test_criterion_02_pipeline():
    # classify -> two-weight filter -> form filter concludes GSp_k, even k in 2..30
    _run_criterion(2, "GSp_k pipeline", "pipeline")


def test_criterion_03_adjoint_decomposition():
    # block dimensions {2r+1}, total k^2-1, invertible change of basis, k in 2..12
    _run_criterion(3, "adjoint decomposition", "adjoint")


def test_criterion_04_bracket_identity():
    # [x^r, ad(y)x^s] = 2rs x^(r+s-1) and the support rule, k in 2..10
    _run_criterion(4, "bracket identity and support", "bracket")


def test_criterion_05_exponent_table():
    # exponents match the reference table; sum(2r+1) matches dimensions
    _run_criterion(5, "exponent table", "exponents")


def test_criterion_06_least_dimensions():
    # smallest nontrivial irreducible dimensions per type
    _run_criterion(6, "least representation dimensions", "weyl")


def test_criterion_07_form_parity():
    # invariant form antisymmetric iff k even, k in 2..12
    _run_criterion(7, "bilinear form parity", "form")


def test_criterion_08_subgroup_data():
    # index, widths, noncongruence for the three presets
    _run_criterion(8, "subgroup invariants", "subgroups")


def test_criterion_09_dimension_claim():
    # dim rho_prim for all presets and even k in 2..20 against the
    # Riemann-Hurwitz targets of the module docstring
    _run_criterion(9, "primitive dimension claim", "dimension")


def test_criterion_10_frobenius_check():
    # admissible invariant-subspace dimensions are exactly {k}, k in 1..30
    _run_criterion(10, "Frobenius dimension check", "frobenius")
