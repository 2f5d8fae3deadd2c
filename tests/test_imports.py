"""Source hygiene: every name a library module imports is used in it."""
import ast
from pathlib import Path

import krawtchouk

SRC = Path(krawtchouk.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(bound)
    return unused


def test_library_modules_have_no_unused_imports():
    # the package __init__ imports names only to re-export them
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) >= 9
    found = {
        path.name: names
        for path in modules
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd(b)\n")
    assert _unused_imports(tree) == ["os"]
