"""Source hygiene checks that need no linter."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "drpi"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_exports_are_unique_and_bound():
    """Every name in drpi.__all__ is listed once and bound by a star import,
    so a deleted function cannot leave a dangling export."""
    import drpi

    assert len(set(drpi.__all__)) == len(drpi.__all__)
    namespace = {}
    exec("from drpi import *", namespace)
    assert set(drpi.__all__) <= namespace.keys()


def unused_imports(source: str) -> list:
    """Names a module imports and never references, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    src = "import os\nimport numpy as np\nfrom x import a, b\nprint(np.pi, b)\n"
    assert unused_imports(src) == ["os", "a"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def private_defs(source: str) -> list:
    """A module's private top-level functions and classes, in order."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def referenced_names(source: str) -> set:
    """Names a source reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def dead_private_defs(modules: list, sources: list) -> list:
    """Private top-level definitions of ``modules`` that no source reads."""
    used = set().union(*map(referenced_names, sources))
    return [name for m in modules for name in private_defs(m) if name not in used]


def test_dead_private_defs_are_found():
    mod = "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef api(): return _used()\n"
    lib = "def _imported(): pass\ndef _attr(): pass\n"
    user = "from lib import _imported\nimport lib\nlib._attr()\n"
    assert dead_private_defs([mod, lib], [mod, lib, user]) == ["_dead", "_Gone"]


def test_no_dead_private_defs():
    """Every private helper in src/drpi is used by the package, its tests,
    the benchmark or the demos."""
    sources = [
        path.read_text() for part in ("src", "tests", "bench", "demos")
        for path in sorted((ROOT / part).rglob("*.py"))
    ]
    modules = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert sum(len(private_defs(m)) for m in modules) > 0
    assert dead_private_defs(modules, sources) == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules a source imports (not its relative
    imports)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    src = "import csv\nimport os.path as op\nfrom numpy import linalg\nfrom .csv import x\n"
    assert imported_modules(src) == {"csv", "os", "numpy"}


def test_only_data_model_imports_csv():
    """The CSV format is read and written in one module."""
    users = [p.name for p in sorted(SRC.glob("*.py")) if "csv" in imported_modules(p.read_text())]
    assert users == ["data_model.py"]


def text_opens_without_encoding(source: str) -> list:
    """Line numbers of the ``open(...)`` calls in a source, builtin or a
    method such as ``Path.open``, that open text without naming an
    ``encoding=``, so that they read the locale's."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"):
            continue
        # the mode is the first or second argument, or mode=
        modes = [a for a in node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
                 if isinstance(a, ast.Constant) and isinstance(a.value, str)
                 and set(a.value) <= set("rwxabt+")]
        binary = any("b" in m.value for m in modes)
        if not binary and not any(k.arg == "encoding" for k in node.keywords):
            lines.append(node.lineno)
    return lines


def test_text_opens_without_encoding_are_found():
    src = (
        "open(p)\nopen(p, 'rb')\nopen(p, mode='w', encoding='utf-8')\n"
        "path.open('w')\nopen(p, newline='')\nio.open(p, 'wb')\npath.open('rb')\n"
    )
    assert text_opens_without_encoding(src) == [1, 4, 5]


@pytest.mark.parametrize("module", MODULES)
def test_text_files_name_their_encoding(module):
    """Every text file drpi reads or writes has a stated encoding, so a
    CSV or config file means the same under any locale."""
    assert text_opens_without_encoding((SRC / module).read_text()) == []


def test_only_cli_names_ctypes():
    """The process-wide allocator setting is made by the command alone, so
    importing drpi as a library changes nothing in the caller's process."""
    users = [
        p.name for p in sorted(SRC.glob("*.py"))
        if "ctypes" in imported_modules(p.read_text()) | referenced_names(p.read_text())
    ]
    assert users == ["cli.py"]
