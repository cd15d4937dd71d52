"""Every name a module of the package imports is used in that module, or
re-exported through its __all__, every module-level private function
is referenced somewhere in the package, and importing the CLI leaves out
the modules that only slow start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqknot"


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements in source that no Name node
    reads and __all__ does not list. `import a.b` binds `a`; `__future__`
    imports bind nothing."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from typing import Optional, Sequence\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(x: Optional[int]): return os.sep\n")
    assert unused_imports(source) == ["Sequence", "j"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_functions(sources: list[str]) -> list[str]:
    """The module-level functions named `_name` (not dunders) in sources
    that no Name or Attribute node reads outside their own definition."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            used |= names
    return sorted(defined - used)


def test_checker_finds_unreferenced_private():
    sources = ["def _pow(x, e): return x if e == 1 else _pow(x, e - 1)\n"
               "def _order(x): return 1\n"
               "def _used(): return 0\n"
               "def __getattr__(name): return name\n",
               "from .a import _used\n"
               "import a\n"
               "def f(): return _used() + a._order(2)\n"]
    assert unreferenced_private_functions(sources) == ["_pow"]


def test_no_unreferenced_private_functions():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize; -S keeps site
    # (and whatever it imports) out of the measurement
    code = ("import eqknot.cli, sys; "
            "sys.exit(' '.join(sorted({'dataclasses', 'inspect'} "
            "& set(sys.modules))) or None)")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
