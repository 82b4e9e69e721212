"""Every imported name is used: the library, the tests and the scripts.

An import that nothing reads is dead code that still costs a load and
misleads the reader about a module's dependencies.  ``__init__.py`` imports
are the package's re-exports, and ``from __future__`` imports are
directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for pattern in ("src/ionmodes/*.py", "tests/*.py",
                                   "scripts/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_ignores_used():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\n"
           "import numpy.linalg\n"
           "from math import pi, tau as turn\n"
           "x = os.sep + str(pi)\n")
    assert unused_imports(src) == ["osp (line 2)", "numpy (line 3)",
                                   "turn (line 4)"]
