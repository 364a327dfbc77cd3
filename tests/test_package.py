"""The package's public surface: exported names and importable modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import crowdgauge


def test_every_public_name_resolves_once():
    names = crowdgauge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(crowdgauge, name)]
    assert missing == []


def test_every_module_imports():
    modules = [info.name for info in pkgutil.iter_modules(crowdgauge.__path__)]
    assert modules
    for name in modules:
        importlib.import_module(f"crowdgauge.{name}")


def test_every_imported_name_is_used():
    # __init__.py imports to re-export, so its __all__ counts as a use.
    unused = []
    for path in sorted(Path(crowdgauge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(crowdgauge.__all__)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_module_level_name_is_used():
    # A function, class or constant defined at module level must be read
    # somewhere in the package, or be exported in __all__.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(crowdgauge.__file__).parent.glob("*.py"))}
    used = set(crowdgauge.__all__)
    for tree in trees.values():
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            dead += [f"{name}:{node.lineno}: {d}" for d in defined
                     if d not in used and not (d.startswith("__") and d.endswith("__"))]
    assert dead == []
