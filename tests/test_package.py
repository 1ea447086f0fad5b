import ast
from pathlib import Path

import uqeval

PACKAGE_DIR = Path(uqeval.__file__).resolve().parent


def private_imports(source: str) -> list[tuple[str | None, str]]:
    """(module, name) of every `_`-prefixed name a relative import takes from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [(node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_imports_finds_a_private_name() -> None:
    source = "from .datasets import DatasetKind, _components\nfrom . import _x as y\n"
    assert private_imports(source) == [("datasets", "_components"), (None, "_x")]
    assert private_imports("from numpy import _core\nfrom .network import forward\n") == []


def test_no_module_imports_another_modules_private_name() -> None:
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 10
    found = {path.name: private_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}
