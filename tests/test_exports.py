"""Package exports: every name a module lists in __all__ exists, and the
package imports only names its modules export."""

import ast
import importlib
import pathlib

import pytest

import dickesynth

PACKAGE = pathlib.Path(dickesynth.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dickesynth.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"dickesynth.{node.module}")
            exported = set(getattr(module, "__all__", ()))
            stale += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in exported]
    assert stale == []


def test_every_public_definition_is_reached():
    """Each public top-level def or class is either used by name somewhere
    in the package or re-exported by __init__.py; anything else is code
    that no synthesizer or CLI path reaches."""
    used, defined = set(), {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            used |= {alias.name for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
    assert sorted(f"{module}.{name}" for name, module in defined.items()
                  if name not in used) == []
