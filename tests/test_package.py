"""Package-level checks: the public names resolve, and no module carries
an import it never reads (pyflakes' F401, done with `ast`)."""

import ast
from pathlib import Path

import pytest

import interpanel

ROOT = Path(__file__).resolve().parents[1]
CHECKED = [path for path in sorted((ROOT / "src" / "interpanel").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py"))
           if path.name != "__init__.py"]


def test_every_public_name_is_unique_and_resolves():
    names = interpanel.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(interpanel, name)]
    assert missing == []


def unused_imports(source):
    """(line, name) of each imported name that the module never reads.
    A name counts as read where it appears as a name or as the root of an
    attribute, anywhere in the module, or in a module-level `__all__`.
    An import statement with `noqa: F401` on any of its lines is skipped,
    as are `from __future__` and star imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("source, want", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import (b,  # noqa: F401\n    c)\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("def f():\n    import json\n    return json.dumps\n", []),
    ("from __future__ import annotations\nfrom a import *\n", []),
])
def test_unused_imports_finds_what_is_never_read(source, want):
    assert unused_imports(source) == want


@pytest.mark.parametrize("path", CHECKED,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
