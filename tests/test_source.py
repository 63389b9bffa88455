"""The modules of src/ttpp, read with `ast`: none imports a name it never uses,
every module-level function and class is named somewhere in the package,
and none names a taping state: every forward tapes.

No linter is part of the test dependencies, so this catches the imports and
the helpers a change leaves behind. `__init__.py` is exempt from the import
check, since it imports names to re-export; a re-export there counts as a
name. A name in the tests, scripts or benchmark does not count: code that
only a test calls is code that no run reaches.
"""

import ast
from collections import Counter
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


def names_in(tree: ast.AST) -> list[str]:
    """Every name `tree` reads, calls, takes as an attribute or imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
    return names


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes of `sources` (module name ->
    source), as module.name, whose name appears in none of them outside its
    own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = Counter(name for tree in trees.values() for name in names_in(tree))
    return sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and uses[node.name] == names_in(node).count(node.name))


def test_the_check_finds_a_helper_that_nothing_names():
    sources = {
        "a": "class Box:\n    pass\n\ndef grow(n):\n    return grow(n - 1) if n else Box()\n"
             "\ndef used():\n    return 1\n",
        "b": "from .a import used\nfrom . import a\n\ndef run():\n    return used(), a.Box\n",
        "c": "from .b import run\n",
    }
    assert unnamed_definitions(sources) == ["a.grow"]  # calling itself names it nowhere else
    sources["c"] = "import sys\n"
    assert unnamed_definitions(sources) == ["a.grow", "b.run"]


def test_every_function_and_class_is_named_outside_its_definition():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unnamed_definitions(sources) == []


TAPING = {"_taping", "_tapes", "no_grad"}


def taping_readers(sources: dict[str, str]) -> list[str]:
    """The module-level statements of `sources` (module name -> source) that
    name the taping state, as module.name, or module.<module> for one that
    defines no function or class."""
    return sorted(f"{module}.{getattr(node, 'name', '<module>')}"
                  for module, source in sources.items() for node in ast.parse(source).body
                  if TAPING.intersection(names_in(node)))


def test_the_check_finds_a_read_of_the_taping_state():
    sources = {
        "tensor": "_taping = True\n\ndef _make(x):\n    return x if _taping else None\n",
        "layer": "from .tensor import _tapes\nfrom . import tensor\n\n"
                 "def f():\n    return 1\n\ndef g():\n    return tensor._taping\n",
        "cli": "from .tensor import no_grad\n\ndef h():\n    with no_grad():\n        return 1\n",
    }
    assert taping_readers(sources) == ["cli.<module>", "cli.h", "layer.<module>", "layer.g",
                                       "tensor.<module>", "tensor._make"]


def test_a_layer_does_not_branch_on_taping():
    """Every forward attaches its backward, so no caller chooses a path: no
    module sets, reads or switches off a taping state."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert taping_readers(sources) == []
