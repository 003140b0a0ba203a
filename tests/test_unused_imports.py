"""No unused module-level imports in ``src/`` (a stdlib ``ast`` scan).

An import counts as used when its bound name appears as a name anywhere
in the module, is listed in ``__all__``, or appears in a string (string
annotations such as ``"OrderedDict[Tuple[...], X]"``).  Package
``__init__.py`` files are skipped: their imports are the re-exports.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Union

SRC = Path(__file__).resolve().parent.parent / "src"

Import = Union[ast.Import, ast.ImportFrom]


def _module_imports(tree: ast.Module) -> Iterator[Import]:
    """Imports at module level, including inside top-level if/try blocks."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def unused_imports(source: str) -> List[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    strings = " ".join(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    # __all__ entries are string constants, so this covers them too.
    used |= set(re.findall(r"[A-Za-z_]\w*", strings))
    unused = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_scan_flags_unused_names():
    source = (
        "import os\nimport numpy as np\nfrom typing import List, Tuple\n"
        "__all__ = ['Tuple']\nx: 'List[int]' = []\nprint(np)\n"
    )
    assert unused_imports(source) == ["line 1: os"]


def test_no_unused_imports_in_src():
    found = [
        f"{path.relative_to(SRC)} {hit}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for hit in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
