"""Every `src/dpcore` module other than a package `__init__` uses each name
it imports, and every top-level definition has a reader outside the tests.
No linter is a test dependency, so this reads the modules with `ast`: a name
counts as used when the module refers to it anywhere."""

import ast
import importlib
import pathlib

import pytest

import dpcore

SRC = pathlib.Path(dpcore.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_modules_use_every_name_they_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_no_module_imports_hashlib():
    """The ledger digest is `cryptography`'s SHA-256: `hashlib` would map a
    second OpenSSL into every process that releases."""
    assert [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
            if "hashlib" in path.read_text(encoding="utf-8")] == []


def test_every_src_definition_has_a_shipped_reader():
    """A top-level `def` or `class` under `src/dpcore` is read, as a name,
    an attribute or an imported name, somewhere in `src/dpcore` or in
    perfbench's non-test modules, with no exemption.  Code that only the
    tests reach belongs in `tests/` or nowhere."""
    readers = sorted(SRC.rglob("*.py")) + sorted(
        p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [f"{path.relative_to(SRC)}: {node.name}"
              for path in sorted(SRC.rglob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in read]
    assert unread == []


def test_only_mechanisms_release_charges_a_scope():
    """Outside the accountant, one function calls `.charge(`: the decision
    of what ships, what it charges and what noise it draws is made in
    `mechanisms.release` alone.  `dpcore.gateway` is gone, and so is
    `dpcore.audit.propcheck`, which only the tests read (`tests/propcheck.py`)."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "accounting.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [(str(path.relative_to(SRC)), getattr(top, "name", None))
                        for node in ast.walk(top)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "charge"]
    assert callers == [("mechanisms.py", "release")]
    for gone in ("dpcore.gateway", "dpcore.audit.propcheck"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)
