"""Import lint for the library, on its syntax trees: every import in
src/conelab comes from the standard library or from conelab itself, every
imported name is used, no module imports a private (underscore) name
from another conelab module, and every `from conelab.X import name` names
something that X defines rather than re-exports.  __init__.py imports only
to re-export, and `from __future__` imports are compiler directives, so
both are exempt from the second rule, and __init__.py from the fourth;
_backend's choice of kernel module is exempt from the third.  Every name
in a module's __all__ is used by the library outside __init__.py,
every function, class and constant a module defines is used outside its
own definition or re-exported by __init__.py, and every defaulted
parameter is passed by some library call.  The README's Layout table
lists exactly the public modules."""

import ast
import re
import sys
from collections import Counter
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


def _references(node):
    """Names that node loads, reads as an attribute or imports."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_top_level_names_are_used_by_the_library():
    # every function, class and constant of a module is referenced by some
    # library statement other than its own definition, or re-exported by
    # __init__.py; a mention in a docstring is no reference
    statements = [node for p in MODULES if p.name != "__init__.py" for node in _tree(p).body]
    refs = [_references(node) for node in statements]
    counts = Counter(name for r in refs + [_references(_tree(SRC / "__init__.py"))]
                     for name in r)
    unused = sorted(name for node, r in zip(statements, refs)
                    for name in _defined(ast.Module(body=[node], type_ignores=[]))
                    if name != "__all__" and counts[name] == (name in r))
    assert not unused, f"defined but never used by the library: {unused}"



def _defaulted(fn):
    """(position, name) of each parameter of fn that has a default;
    keyword-only ones have position None."""
    a = fn.args
    pos = a.posonlyargs + a.args
    return ([(i, x.arg) for i, x in enumerate(pos) if i >= len(pos) - len(a.defaults)]
            + [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def test_defaulted_parameters_are_passed_by_the_library():
    # a default that no library call overrides is a parameter nobody sets:
    # some call in src/conelab passes each defaulted parameter, by position
    # or by keyword.  Calls resolve by name, ClassName(...) to the class's
    # own __init__, and a method's positions skip self.  cli.run(argv) is
    # exempt: the console entry point calls it bare.
    trees = {p.name: _tree(p) for p in MODULES}
    defs = []  # (label, called as, function, position offset)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}:{node.name}", node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{module}:{node.name}.{f.name}",
                          node.name if f.name == "__init__" else f.name, f, 1)
                         for f in node.body if isinstance(f, ast.FunctionDef)]
    passed = {}  # called name -> keywords and positions passed, "*" for unpacking
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed.setdefault(name, set()).update(
                {"*" if kw.arg is None else kw.arg for kw in call.keywords},
                {"*" if isinstance(a, ast.Starred) else i for i, a in enumerate(call.args)})
    unpassed = sorted(f"{label}({arg})" for label, called, fn, offset in defs
                      if label != "cli.py:run" for i, arg in _defaulted(fn)
                      if not passed.get(called, set())
                      & {"*", arg, None if i is None else i - offset})
    assert not unpassed, f"defaulted parameters no library call passes: {unpassed}"


def test_readme_layout_lists_the_public_modules():
    # one row of the Layout table per src/conelab module whose name does
    # not start with an underscore, and no row for a module that is gone
    readme = (SRC.parents[1] / "README.md").read_text()
    rows = [m.group(1) for line in readme.splitlines()
            for m in [re.match(r"\| `conelab\.(\w+)` \|", line)] if m]
    assert sorted(rows) == sorted(p.stem for p in MODULES if not p.name.startswith("_"))
