"""Guards on the source tree itself.

perfbench/tracer.py wraps each (module, attribute) in its TARGETS and rebinds
the wrapper wherever the original was imported.  A rename or deletion in
katzmod would break a traced benchmark run without failing any other test, so
TARGETS is read here straight from the file (parsed, not imported or changed).

A traced run is also made once, in a subprocess, so that a change to what a
target returns (a counter reads `len()` of `matrix_to_word`'s letters), to
how it is cached (the miss counter reads `build_root_system.cache_info()`) or
to what it raises (the cap counter reads the exact type name CosetCapExceeded)
fails here too.  Its root counter must equal the closed-form positive-root
counts of the types that classify(7) builds: those whose closed-form
exponents pass the exponent criteria at k = 7.  A second traced run counts
the calls of each stage of the classification endgame (classify, ht_filter,
form_filter) from verify-paper's pipeline section and from `katzmod classify`.

The Lie side (the invariant form, the form filter, the adjoint
decomposition and its rank, and the bracket supports) builds no dense Matrix:
a run with `Matrix.__init__` patched to raise must pass.

Internal checks must survive `python -O`, which strips `assert` statements, so
no module of katzmod may contain one, and the whole `verify-paper --json` run
under `-O` must print the reference output byte for byte.

Every `katzmod ...` line of the README's command block runs through
`katzmod.cli.main` and exits 0, so the documented commands cannot drift from
the command line.

The public names of `katzmod` are written out, so an export added or removed
shows in the diff of this file.
"""

import ast
import importlib
import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import katzmod
import katzmod.cli
import katzmod.linalg
import katzmod.sl2
import katzmod.verify
from katzmod.classify import _candidate_types, exponent_criteria
from katzmod.roots import type_exponents
from test_roots import positive_root_count

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "katzmod"


def tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


TRACED_RUN = """
import contextlib, importlib, io, json
import tracer
import katzmod.cli, katzmod.subgroups as sub
t = tracer.Tracer()
tracer.install(t)
sub.invariants(sub.coset_enumerate(sub.PRESETS["gamma43"]))
for gens, cap in ((sub.PRESETS["gamma711"], 3), (sub.GeneratorSet("t", [sub.T_MAT]), None)):
    try:
        sub.coset_enumerate(gens, cap)
    except sub.CosetCapExceeded:  # and its subclass InfiniteIndex
        pass
importlib.import_module("katzmod.classify").classify(7)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [katzmod.cli.main(["verify-paper", "--only", only]) for only in ("adjoint", "form")]
layers = tracer.per_layer(t, 1)
print(json.dumps({"codes": codes, "letters": layers["subgroups.matrix_to_word.letters"],
                  "rank_calls": layers["linalg.rank.calls"],
                  "kernel_calls": layers["linalg.solve_homogeneous.calls"],
                  "root_misses": layers["roots.build_root_system.misses"],
                  "positive_roots": layers["roots.build_root_system.positive_roots"],
                  "weyl_calls": layers["roots.weyl_dimension.calls"],
                  "irreps_calls": layers["roots.irreps_up_to.calls"],
                  "cap_exceeded": layers["subgroups.coset_enumerate.cap_exceeded"]}))
"""


def test_traced_run_reads_the_targets():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TRACER.parent)]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0]
    # gamma43, gamma711 and T: any change to the words shows here
    assert result["letters"] == 50
    assert result["rank_calls"] > 0
    # form_kernel's elimination is traced only while it calls the public
    # solve_homogeneous: a private route would read 0 here, not fail
    assert result["kernel_calls"] > 0
    assert result["root_misses"] > 0
    # classify(7) is the only caller that builds root systems here, each type
    # that passes the exponent criteria once
    assert result["positive_roots"] == sum(
        positive_root_count(t, n) for t, n in _candidate_types(7)
        if exponent_criteria(type_exponents(t, n), 7))
    assert result["weyl_calls"] > 0
    # the weight search evaluates weights without weyl_dimension: its own span shows it
    assert result["irreps_calls"] > 0
    # counted by exact type name: an infinite index is not a cap refusal
    assert result["cap_exceeded"] == 1


ENDGAME_RUN = """
import contextlib, io, json
import tracer
import katzmod.cli
t = tracer.Tracer()
tracer.install(t)
layers = ("classify.classify", "classify.ht_filter", "classify.form_filter")
counts = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["verify-paper", "--only", "pipeline"],
                 ["classify", "--k", "4", "--ht-weights", "0,-5", "--symplectic"]):
        code = katzmod.cli.main(argv)
        counts.append([code] + [t.calls[name] for name in layers])
print(json.dumps(counts))
"""


def test_traced_endgame_calls_each_layer():
    # the pipeline section reads its cases from one classify_all sweep, never
    # from classify, and runs ht_filter and form_filter once at each even
    # k <= 30; `katzmod classify` with both filters runs each stage once: a
    # stage inlined into its caller would read 0 here, not fail
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TRACER.parent)]))
    proc = subprocess.run([sys.executable, "-c", ENDGAME_RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 15, 15], [0, 1, 16, 16]]


NO_DENSE_RUN = """
import contextlib, io, json
import katzmod.cli
from katzmod.linalg import Matrix


def refuse(self, *args):
    raise RuntimeError("a dense Matrix was built")


Matrix.__init__ = refuse
try:
    Matrix.identity(2)
except RuntimeError:
    pass
else:
    raise SystemExit("Matrix.__init__ is not patched")
codes = {}
for argv in (["verify-paper", "--only", "form"], ["verify-paper", "--only", "pipeline"],
             ["verify-paper", "--only", "adjoint"], ["verify-paper", "--only", "bracket"],
             ["classify", "--k", "30", "--symplectic", "--json"],
             ["sl2", "--k", "12", "form", "--json"], ["sl2", "--k", "12", "decompose", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes[" ".join(argv)] = (katzmod.cli.main(argv), bool(out.getvalue()))
print(json.dumps(codes))
"""


def test_lie_side_builds_no_dense_matrix():
    # the form, the pipeline's form filter at every even k <= 30, the adjoint
    # decomposition and rank and the bracket supports run on integer strips
    # and rows, never on a dense Matrix
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_DENSE_RUN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert len(codes) == 7
    assert all(code == [0, True] for code in codes.values()), codes


def test_rank_is_one_object_at_every_import_site():
    # the tracer rebinds linalg.rank at each site by identity
    rank = katzmod.linalg.rank
    for module in (katzmod.sl2, katzmod.verify, katzmod.cli):
        assert module.rank is rank, module.__name__


def test_no_assert_statement_in_katzmod():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements (stripped by python -O): {found}"


def test_verify_paper_under_dash_o_is_byte_identical():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-m", "katzmod", "verify-paper", "--json"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / "verify_paper.json").read_text(
        encoding="utf-8")


def readme_block(heading, lang):
    """The first ```lang block after the README heading `## heading`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # ./mygroup.json is the README's own example document
    (tmp_path / "mygroup.json").write_text(readme_block("Command line", "json"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KATZMOD_COSET_CAP", raising=False)
    commands = [shlex.split(line, comments=True)[1:]
                for line in readme_block("Command line", "sh").splitlines()
                if line.startswith("katzmod ")]
    assert len(commands) == 14
    for argv in commands:
        assert katzmod.cli.main(argv) == 0, argv
        assert capsys.readouterr().out, argv


PUBLIC_NAMES = [
    "AdjointDecomposition", "ClassificationCase", "CosetCapExceeded",
    "CosetTable", "DimensionError", "FULL_GROUP", "GeneratorSet", "InfiniteIndex",
    "IrrepBlock", "Matrix", "PRESETS", "RootSystem", "Sl2Triple",
    "SubgroupInvariants", "algebra_dimension", "bracket", "bracket_support",
    "build_root_system", "classify", "congruence_closure",
    "congruence_test", "coset_enumerate", "decompose_adjoint", "dim_cusp_forms",
    "dim_rho_prim", "exponent_criteria", "exponents", "form_filter",
    "frobenius_dimension_check", "ht_filter", "invariant_bilinear_form", "invariants",
    "irreps_of_dimension", "irreps_up_to", "load_generator_file", "matrix_to_word",
    "principal_triple", "project_to_blocks", "rank", "resolve_subgroup", "solve_homogeneous",
    "verify_bracket_identity", "weyl_dimension",
]


def test_public_names_of_katzmod():
    # submodules are attributes of the package too, but not its exports
    public = sorted(name for name, value in vars(katzmod).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES
