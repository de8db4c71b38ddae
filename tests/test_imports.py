"""Import lint for the library, on its syntax trees: every import in
src/conelab comes from the standard library or from conelab itself, every
imported name is used, no module imports a private (underscore) name
from another conelab module, and every `from conelab.X import name` names
something that X defines rather than re-exports.  __init__.py imports only
to re-export, and `from __future__` imports are compiler directives, so
both are exempt from the second rule, and __init__.py from the fourth;
_backend's choice of kernel module is exempt from the third.  Every name
in a module's __all__ is used by the library outside __init__.py."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "conelab"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    """(module, bound name) for every import statement, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = "conelab" if node.level else node.module
            for alias in node.names:
                yield module, alias.asname or alias.name


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_conelab(path):
    foreign = sorted({module for module, _ in _imports(_tree(path))
                      if module.split(".")[0] not in sys.stdlib_module_names
                      and module.split(".")[0] != "conelab"})
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for module, name in _imports(tree)
                    if module != "__future__" and name not in used)
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_backend.py"],
                         ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    private = sorted(alias.name for node in ast.walk(_tree(path))
                     if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").split(".")[0] == "conelab")
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"{path.name} imports private names {private}"


def _defined(tree):
    """Names bound at module level by def, class or assignment, including
    under module-level if/try; imported names are not definitions."""
    stack, names = list(tree.body), set()
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "handlers", [])
                         + getattr(node, "finalbody", []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_names_imported_from_their_definition(path):
    borrowed = sorted(f"{node.module}.{alias.name}" for node in ast.walk(_tree(path))
                      if isinstance(node, ast.ImportFrom) and not node.level
                      and (node.module or "").startswith("conelab.")
                      for alias in node.names
                      if alias.name not in _defined(_tree(SRC / f"{node.module[8:]}.py")))
    assert not borrowed, f"{path.name} imports {borrowed} from modules that do not define them"


def test_exported_names_are_used_by_the_library():
    # no helper that only tests call: loaded as a name or read as an attribute
    trees = {p.name: _tree(p) for p in MODULES if p.name != "__init__.py"}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(f"{module}:{elt.value}" for module, tree in trees.items()
                    for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts if elt.value not in used)
    assert not unused, f"exported but never used by the library: {unused}"
