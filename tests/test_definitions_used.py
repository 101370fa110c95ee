"""No definition of the package exists only for the tests: each top-level
``def`` and ``class`` in ``src/wtal`` is referenced from ``src/`` or
``scripts/`` somewhere other than its own definition, and each module-level
constant (every assigned name but the dunders) is read there somewhere other
than its own assignment."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "wtal").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def referenced_names(trees) -> Counter:
    """How often each name is read, taken as an attribute or imported."""
    names = Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.alias):
                names[node.name] += 1
    return names


def test_every_top_level_definition_is_referenced_outside_tests():
    referenced = referenced_names(ast.parse(path.read_text()) for path in SOURCES)
    unreferenced = [f"{path.name}: {node.name}" for path in PACKAGE
                    for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in referenced]
    assert unreferenced == []


def test_every_module_constant_is_read_outside_tests():
    referenced = referenced_names(ast.parse(path.read_text()) for path in SOURCES)
    unread = [f"{path.name}: {target.id}" for path in PACKAGE
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name)
              and not (target.id.startswith("__") and target.id.endswith("__"))
              and referenced[target.id] == referenced_names([node])[target.id]]
    assert unread == []
