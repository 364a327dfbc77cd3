"""The package's public surface: exported names and importable modules."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import crowdgauge

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves_once():
    names = crowdgauge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(crowdgauge, name)]
    assert missing == []


def test_public_names_are_the_ones_readme_documents():
    # README's "Public names" list is the package's public surface, and the
    # library example imports only from it.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    public = library.split("\n### Public names\n", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"`(\w+)`", public.split("\n- ", 1)[1])
    assert len(listed) == len(set(listed))
    assert set(crowdgauge.__all__) == set(listed)
    example = re.search(r"from crowdgauge import \((.*?)\)", library, re.S).group(1)
    imported = {name for line in example.splitlines()
                for name in re.findall(r"\w+", line.partition("#")[0])}
    assert imported and imported <= set(crowdgauge.__all__)


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
