import ast
import importlib
import runpy
from pathlib import Path

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
