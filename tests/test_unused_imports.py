"""Every module under ``src/`` reads each name it imports.

An AST scan, no third-party linter: a module's imported names must appear
as a name somewhere in the module, inside a string annotation, or in its
``__all__`` (a package re-exporting a name).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code, string annotations and ``__all__``."""
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {element.value for element in node.value.elts}
    return used


def unused_imports(path: Path) -> list[str]:
    """``module:line: name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        module = path.relative_to(SRC).as_posix()
        found += [f"{module}:{node.lineno}: {name}" for name in bound if name not in used]
    return found


def test_src_has_modules():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(SRC).as_posix())
def test_module_reads_every_import(path):
    unused = unused_imports(path)
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_flags_unused_and_accepts_annotations_and_all(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import TYPE_CHECKING, Iterable\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['dataclass']\n"
        "def f(x: 'OrderedDict[str, int] | None') -> None:\n"
        "    return np.sum(x)\n"
    )
    tree = ast.parse(module.read_text())
    assert {"OrderedDict", "dataclass", "np", "TYPE_CHECKING"} <= used_names(tree)
    assert not {"Iterable", "field"} & used_names(tree)
