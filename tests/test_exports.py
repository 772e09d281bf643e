import ast
import importlib
import io
import pathlib
import pkgutil
import re
import tokenize

import pytest

import fracpois

MODULES = ["fracpois"] + [f"fracpois.{m.name}"
                          for m in pkgutil.iter_modules(fracpois.__path__)]


@pytest.mark.parametrize("name", [
    name for name in MODULES
    if hasattr(importlib.import_module(name), "__all__")])
def test_star_import_resolves_every_export(name):
    """Every name in ``__all__`` exists, so ``import *`` works."""
    exec(f"from {name} import *", {})


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names that the module at ``path`` imports and never uses.  A name
    counts as used where the module reads it or lists it in ``__all__``;
    ``__future__`` imports and import lines marked ``# noqa`` (kept for
    their side effect) are skipped."""
    text = path.read_text("utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and "# noqa" not in lines[node.lineno - 1]):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(fracpois.__file__).parent.glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _private_names(tree: ast.Module) -> set[str]:
    """The module-level private functions, classes and constants that
    ``tree`` defines (dunder names such as ``__all__`` are not private)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_unread_private_names():
    """Every private module-level name in ``src/fracpois`` is read by code
    there (by name, as an attribute, or imported), not only by tests."""
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in
             pathlib.Path(fracpois.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = {f"{name}:{n}" for name, tree in trees.items()
              for n in _private_names(tree) - read}
    assert sorted(unread) == []


# a private name in prose, not a math subscript such as ((1-B)**alpha p)_k
# or the tail of a dotted name
_PRIVATE_MENTION = re.compile(r"(?<![\w.)\]])_[A-Za-z]\w*")


def _docs_and_code_names(path: pathlib.Path):
    """(line, text) of each docstring and comment of the module at
    ``path``, and the names its code spells (every NAME token)."""
    text = path.read_text("utf-8")
    docs = [(node.body[0].value.lineno, ast.get_docstring(node, clean=False))
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None]
    names = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            docs.append((tok.start[0], tok.string))
        elif tok.type == tokenize.NAME:
            names.add(tok.string)
    return docs, names


def test_docs_name_no_stale_private_names():
    """Every private name that a docstring or comment in ``src/fracpois``
    mentions is defined or read by code there, so that no prose names
    what was deleted or renamed."""
    mentions, code = [], set()
    for path in sorted(pathlib.Path(fracpois.__file__).parent.glob("*.py")):
        docs, names = _docs_and_code_names(path)
        code |= names
        for line, doc in docs:
            for m in _PRIVATE_MENTION.finditer(doc):
                line_of_m = line + doc.count("\n", 0, m.start())
                mentions.append((f"{path.name}:{line_of_m}", m.group()))
    assert [f"{where}:{name}" for where, name in mentions
            if name not in code] == []
