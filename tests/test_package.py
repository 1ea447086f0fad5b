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


def dead_private_functions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level `_`-prefixed function named nowhere but in its own def."""
    defined, named = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [(module, name) for module, name in defined if name not in named]


def test_dead_private_functions_finds_an_unused_helper() -> None:
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    return _used()\n\n"
                "def _imported():\n    pass\n\ndef _attribute():\n    pass\n",
        "b.py": "from .a import _imported\nimport a\nf = a._attribute\n\n"
                "def _recursive():\n    return _recursive\n\nclass C:\n    def _method(self):\n        pass\n",
    }
    # a name in a function's own body counts as a use, as `_recursive`'s does
    assert dead_private_functions(sources) == [("a.py", "_dead")]


def test_no_private_function_is_dead() -> None:
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert dead_private_functions(sources) == []
