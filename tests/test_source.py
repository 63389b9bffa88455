"""The modules of src/ttpp, read with `ast`: none imports a name it never uses.

No linter is part of the test dependencies, so this catches the imports a
change leaves behind. `__init__.py` is exempt: it imports names to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ttpp"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` binds by an import and never reads, `from
    __future__` imports aside."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\n\ndef f(x: np.ndarray):\n    return os.sep, tau\n")
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
