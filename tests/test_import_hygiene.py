"""Every top-level import in ``src/repro`` is used where it is imported.

A name bound by a module-level ``import`` or ``from ... import`` must be
read somewhere in that module, appear in a string annotation, or be listed
in the module's ``__all__``.  Package ``__init__.py`` files are exempt:
their imports are the package's re-exports.  ``from __future__`` imports
bind nothing the module reads and are skipped.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _modules() -> Iterator[Path]:
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            yield path


def _bound_names(tree: ast.Module) -> Iterator[tuple]:
    """(name, line) for every name a top-level import binds."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield (alias.asname or alias.name.split(".")[0]), stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                yield (alias.asname or alias.name), stmt.lineno


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names read by an annotation, string annotations parsed."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        for ann in annotations:
            used |= _annotation_names(ann)
    return used


def _exported(tree: ast.Module) -> Set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {
                elt.value for elt in getattr(stmt.value, "elts", ())
                if isinstance(elt, ast.Constant)
            }
    return set()


def unused_imports(path: Path) -> List[str]:
    """``"<line>: <name>"`` for each unused top-level import of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keep = _used_names(tree) | _exported(tree)
    return [f"{line}: {name}" for name, line in _bound_names(tree)
            if name not in keep]


def test_no_unused_top_level_imports():
    found = {
        str(path.relative_to(SRC.parent)): names
        for path in _modules()
        if (names := unused_imports(path))
    }
    assert not found, found


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import Dict, List, Optional, Sequence\n"
        "import os.path\n"
        "import json as _json\n"
        "__all__ = ['Sequence']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.sep]\n"
    )
    assert unused_imports(module) == ["1: Dict", "3: _json"]
