"""One gradient path: the only call to ``autodiff.backward`` in ``src/`` and
``scripts/`` is the one in ``training.add_video_gradients``, the training step
of one video. ``wtal gradcheck`` and ``--inject-bug`` run that step, so they
check the gradients that training adds, not a copy of the step."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "wtal").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def backward_callers(path: Path) -> list[str]:
    """``module.function`` of each call to ``backward``, or to a name imported
    as it, by the innermost function around the call."""
    tree = ast.parse(path.read_text())
    names = {"backward"} | {alias.asname for alias in ast.walk(tree)
                            if isinstance(alias, ast.alias) and alias.name == "backward"
                            and alias.asname}
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names:
                found.append(f"{path.stem}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_backward_is_called_only_by_the_training_step():
    assert [caller for path in SOURCES for caller in backward_callers(path)] == [
        "training.add_video_gradients"]
