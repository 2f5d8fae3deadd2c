"""Source hygiene: every name a library module imports is used in it, and
every function and class in the package is reachable from what it offers.

The package offers the CLI (`cli.main`), the names in `krawtchouk.__all__`
and the names the benchmark binds to.  Code that only tests call belongs in
`tests/`.
"""
import ast
import importlib
import json
from pathlib import Path

import krawtchouk

SRC = Path(krawtchouk.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def _module_table(source: str, modules) -> tuple:
    """Top-level definitions of one module, and what each imported name binds.

    defs maps a name to its def, class or assignment node.  bindings maps an
    imported name to (module, name) for a package-relative import, or to
    (module, None) when the name is a module of the package itself; imports
    inside function bodies count, as `cli` imports the oracle there.
    """
    tree = ast.parse(source)
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    target = (node.module, alias.name)
                elif alias.name in modules:
                    target = (alias.name, None)
                else:
                    target = ("__init__", alias.name)
                bindings[alias.asname or alias.name] = target
    return defs, bindings


def _unreachable(sources: dict, roots) -> set:
    """(module, name) of every top-level def and class no root reaches.

    sources maps a module name ("__init__" for the package) to its text;
    roots are (module, name) pairs.  A reached definition's whole node is
    scanned for Name references, resolved in its module, and for attributes
    of a package module bound by import.  Module-level tables are followed
    like functions once something reaches them.
    """
    tables = {mod: _module_table(text, sources) for mod, text in sources.items()}

    def resolve(mod, name):
        for _ in range(len(tables)):
            defs, bindings = tables[mod]
            if name in defs:
                return mod, name
            mod, name = bindings.get(name, (None, None))
            if name is None or mod not in tables:
                return None
        return None

    reached, todo = set(), list(roots)
    while todo:
        key = resolve(*todo.pop())
        if key is None or key in reached:
            continue
        reached.add(key)
        mod, name = key
        defs, bindings = tables[mod]
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                todo.append((mod, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                bound = bindings.get(node.value.id)
                if bound is not None and bound[1] is None:  # a package module
                    todo.append((bound[0], node.attr))
    return {
        (mod, name)
        for mod, (defs, _) in tables.items()
        for name, node in defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (mod, name) not in reached
    }


def _perfbench_literal(name: str):
    """A constant of perfbench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/tracer.py has no {name}")


def _krawtchouk_imports(path: Path) -> set:
    """(module, name) of what a script takes from the package by import.

    `from krawtchouk.m import f` gives ("m", "f"); after `import krawtchouk
    as lib`, every `lib.f` in the file gives ("__init__", "f").
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "krawtchouk":
            module = node.module.partition(".")[2] or "__init__"
            names |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "krawtchouk"}
    names |= {
        ("__init__", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }
    return names


def _benchmark_paths() -> set:
    """Attribute paths (module, name[, attr]) the benchmark reads.

    They are the `<layer>.<name>[.<attr>].<stat>` per-layer metrics of
    BENCHMARK.json over the layers perfbench traces, the class attributes
    its tracer wraps, and the package imports of its session and generator
    test.
    """
    layers = set(_perfbench_literal("LAYERS"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    paths = set()
    for metric in bench["per_layer"]:
        layer, *path, _stat = metric["name"].split(".")
        if layer in layers and path:
            paths.add((layer, *path))
    paths |= {tuple(entry) for entry in _perfbench_literal("CLASS_ATTRS")}
    for script in ("session.py", "test_generate.py"):
        paths |= _krawtchouk_imports(ROOT / "perfbench" / script)
    return paths


def test_benchmark_bound_names_exist():
    # a deletion the benchmark would trip over fails here, not in a bench run
    paths = _benchmark_paths()
    assert ("balgebra", "HomPoly", "coeff") in paths
    assert ("cli", "main") in paths
    missing = []
    for mod, *attrs in sorted(paths):
        obj = importlib.import_module("krawtchouk" if mod == "__init__" else f"krawtchouk.{mod}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join((mod, *attrs)))
    assert missing == []


def test_every_library_function_and_class_is_reachable():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    roots = {("cli", "main")} | {("__init__", name) for name in krawtchouk.__all__}
    roots |= {path[:2] for path in _benchmark_paths()}
    assert _unreachable(sources, roots) == set()


def test_the_reachability_scan_flags_dead_code_and_follows_tables():
    sources = {
        "__init__": "from .a import entry\n",
        "a": (
            "from . import b\n"
            "def entry(kind):\n    return _TABLE[kind]()\n"
            "def _via_table():\n    return b.helper()\n"
            "_TABLE = {'x': _via_table}\n"
            "def dead():\n    return entry('x')\n"
        ),
        "b": "def helper():\n    return 1\n\nclass Unused:\n    pass\n",
    }
    assert _unreachable(sources, {("__init__", "entry")}) == {("a", "dead"), ("b", "Unused")}
