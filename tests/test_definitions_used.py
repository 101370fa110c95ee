"""No function or class of the package exists only for the tests: each
top-level ``def`` and ``class`` in ``src/wtal`` is referenced from ``src/``
or ``scripts/`` somewhere other than its own definition."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(paths) -> set[str]:
    """Every name read, every attribute taken and every name imported."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_top_level_definition_is_referenced_outside_tests():
    package = sorted((ROOT / "src" / "wtal").glob("*.py"))
    referenced = referenced_names(package + sorted((ROOT / "scripts").glob("*.py")))
    unreferenced = [f"{path.name}: {node.name}" for path in package
                    for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in referenced]
    assert unreferenced == []
