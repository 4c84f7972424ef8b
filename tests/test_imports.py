import ast
import importlib
import runpy
from collections import Counter
from pathlib import Path

from spatsim import haalgo

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "spatsim").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _unused_imports(path: Path) -> list:
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    unused = {str(path.relative_to(ROOT)): _unused_imports(path)
              for path in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def _definitions(tree: ast.Module) -> list:
    """The top-level functions, classes and constants of a module and the
    methods of its classes, as (node, name); dunder names are left out,
    since the language calls them."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            defs += [(node, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            defs += [(item, item.name) for item in node.body
                     if isinstance(item, ast.FunctionDef)]
    return [(node, name) for node, name in defs
            if not (name.startswith("__") and name.endswith("__"))]


def _loads(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`: as a name, as an attribute,
    or as the name of an import."""
    loads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            loads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            loads[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            loads.update(alias.name for alias in node.names)
    return loads


def test_no_dead_definitions():
    """Every function, class, constant and method defined in the package is
    read somewhere in the package, the tests or the benchmark, outside its
    own definition."""
    paths = sorted({*MODULES, *(ROOT / "perfbench").glob("*.py")})
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in paths}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
            for path, tree in trees.items()
            if path.parent.name == "spatsim"
            for node, name in _definitions(tree)
            if loads[name] == _loads(node)[name]]
    assert dead == []


def test_traced_names_resolve():
    """Every (module, attribute path) the benchmark's tracer patches exists,
    so a rename cannot silently drop a layer from a traced run."""
    traced = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["TRACED"]
    missing = []
    for span, (module, path) in traced.items():
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(span)
    assert missing == []


def test_traced_algorithms_are_the_registered_algorithms():
    """The benchmark's per-algorithm shadow spans name the registered
    algorithms, in registry order, so a new algorithm gets its span."""
    tracer = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))
    assert tracer["SHADOW_ALGORITHMS"] == tuple(haalgo.ALGORITHMS)
