"""Every name a module of the package imports is used in that module, or
re-exported through its __all__, a private name is imported only from
`lattice`, every module-level private function
is referenced somewhere in the package, every public one is referenced
in the package, exported or named by a demo, every field of a
NamedTuple record is read in the package or a demo, and importing the
CLI leaves out the modules that only slow start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqknot

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eqknot"


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


def private_imports(source: str) -> list[str]:
    """The private names, as `module.name`, that `from` imports in source
    take from a module other than `lattice`, the arithmetic kernel whose
    helpers every module may share. Dunders and `__future__` do not
    count."""
    return sorted(f"{node.module}.{a.name}"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and node.module not in ("lattice", "__future__")
                  for a in node.names
                  if a.name.startswith("_") and not a.name.endswith("__"))


def test_checker_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from .lattice import _freeze, mat_mul\n"
              "from .checkerboard import _signed_order, __doc__\n"
              "from .cli import _load as load\n")
    assert private_imports(source) == ["checkerboard._signed_order",
                                       "cli._load"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_private_names_come_only_from_lattice(path):
    assert private_imports(path.read_text()) == []


def _functions_and_references(sources: list[str]) -> tuple[set, set]:
    """The module-level functions defined in sources, and the names that
    Name or Attribute nodes read there outside those definitions."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
                defined.add(node.name)
            used |= names
    return defined, used


def unreferenced_private_functions(sources: list[str]) -> list[str]:
    """The module-level functions named `_name` (not dunders) in sources
    that no Name or Attribute node reads outside their own definition."""
    defined, used = _functions_and_references(sources)
    return sorted(name for name in defined - used
                  if name.startswith("_") and not name.endswith("__"))


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


def unused_public_functions(sources: list[str], exported: list[str],
                            demos: list[str]) -> list[str]:
    """The public module-level functions in sources that no Name or
    Attribute node reads outside their own definition, that `exported`
    does not list and that no Name or Attribute node in demos reads.
    Importing a function does not use it."""
    defined, used = _functions_and_references(sources)
    _, named = _functions_and_references(demos)
    return sorted(name for name in defined - used - set(exported) - named
                  if not name.startswith("_"))


def test_checker_finds_unused_public():
    sources = ["def helper(n): return helper(n - 1) if n else 0\n"
               "def shown(): return 1\n"
               "def exported(): return 2\n"
               "def used(): return 3\n"
               "def by_attribute(): return 4\n"
               "def _private(): return 5\n",
               "from .a import helper, used\n"
               "import a\n"
               "total = used() + a.by_attribute()\n"]
    demos = ["from eqknot import shown\nprint(shown())\n"]
    assert unused_public_functions(sources, ["exported"], demos) == ["helper"]


def test_no_unused_public_functions():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    demos = [path.read_text() for path in sorted(ROOT.glob("demos/*.py"))]
    assert unused_public_functions(sources, eqknot.__all__, demos) == []


def unread_record_fields(sources: list[str], readers: list[str]) -> list[str]:
    """The fields, as `Class.field`, of the NamedTuple classes in sources
    whose name no Attribute node in sources or readers loads."""
    fields, read = [], set()
    for tree in map(ast.parse, sources + readers):
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                    for b in node.bases):
                fields += [(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)]
    return sorted(f"{cls}.{field}" for cls, field in fields
                  if field not in read)


def test_checker_finds_unread_fields():
    sources = ["import typing\n"
               "from typing import NamedTuple\n"
               "class Pair(NamedTuple):\n"
               "    left: int\n"
               "    right: int = 0\n"
               "    def first(self): return self.left\n"
               "class Report(typing.NamedTuple):\n"
               "    shown: str\n"
               "    hidden: str\n"
               "class Plain:\n"
               "    unread: int\n"
               "p = Pair(1, right=2)\n"
               "p.hidden = 3\n"]
    demos = ["print(report.shown)\n"]
    assert unread_record_fields(sources, demos) == ["Pair.right",
                                                    "Report.hidden"]


def test_every_record_field_is_read():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    demos = [path.read_text() for path in sorted(ROOT.glob("demos/*.py"))]
    assert unread_record_fields(sources, demos) == []


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
