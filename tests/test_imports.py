"""Dead-import check for the package, with the stdlib ``ast`` (the project
runs no linter).

Every top-level import of a ``src/frailtykit`` module must be used in that
module, be listed in its ``__all__``, or carry ``# noqa: F401`` on the line
of the name or on the first line of its import statement.
"""

import ast
from pathlib import Path

import pytest

import frailtykit

MODULES = sorted(Path(frailtykit.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names a module imports at top level and never uses."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            waived = any("# noqa: F401" in lines[n - 1]
                         for n in (node.lineno, alias.lineno))
            if name not in used and not waived:
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_dead_imports():
    source = "\n".join([
        "from __future__ import annotations",
        "import math",
        "import os.path",
        "import numpy as np",
        "from json import dumps, loads",
        "from json import (  # noqa: F401",
        "    JSONDecoder,",
        ")",
        "from json import (",
        "    JSONEncoder,  # noqa: F401",
        "    JSONDecodeError,",
        ")",
        "from .hazards import HazardSpec",
        "__all__ = ['HazardSpec']",
        "def f(x: np.ndarray):",
        "    return math.pi * dumps(x)",
    ])
    assert unused_imports(source) == ["os", "loads", "JSONDecodeError"]
