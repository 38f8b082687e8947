"""Every `src/dpcore` module other than a package `__init__` uses each name
it imports.  No linter is a test dependency, so this reads the modules with
`ast`: a name counts as used when the module refers to it anywhere."""

import ast
import pathlib

import dpcore

SRC = pathlib.Path(dpcore.__file__).parent


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
