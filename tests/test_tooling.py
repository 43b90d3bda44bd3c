"""Guards on the source tree itself.

perfbench/tracer.py wraps each (module, attribute) in its TARGETS and rebinds
the wrapper wherever the original was imported.  A rename or deletion in
katzmod would break a traced benchmark run without failing any other test, so
TARGETS is read here straight from the file (parsed, not imported or changed).

Internal checks must survive `python -O`, which strips `assert` statements, so
no module of katzmod may contain one.
"""

import ast
import importlib
from pathlib import Path

import katzmod.cli
import katzmod.linalg
import katzmod.sl2
import katzmod.verify

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
