"""The toy integer scheme, `she`, stands beside the package: sessions,
audits and the command line run on `he` alone, so no module of the package
imports `she`, and none can drift back onto a scheme that no session's
universal circuit fits."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tabverify"


def imported_modules(tree):
    """Each module an import in tree may name, a relative import read from
    inside the tabverify package: the module itself, and module.name for
    each name it imports from it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tabverify" if node.level else "",
                                          node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_the_guard_sees_every_spelling_of_the_import():
    for source in ("from . import she", "from . import he, she as s",
                   "from .she import enc", "import tabverify.she",
                   "from tabverify import she", "def f():\n    from .she import dec\n"):
        assert "tabverify.she" in imported_modules(ast.parse(source)), source
    assert "tabverify.she" not in imported_modules(
        ast.parse("from . import he\nfrom .symcrypto import SECircuit\nimport shelve\n"))


def test_no_module_of_the_package_imports_she():
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if "tabverify.she" in imported_modules(ast.parse(path.read_text()))]
    assert importers == []
