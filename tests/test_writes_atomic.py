"""Every file the package writes goes through ``data.atomic_write``: no
``open(...)`` in ``src/wtal`` outside it has a write, append or create mode,
so an interrupted run never leaves a half-written file under its real name."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def writing_opens(path: Path) -> list[str]:
    """``file:line`` of each ``open`` call outside ``atomic_write`` whose mode
    holds a ``w``, ``a`` or ``x``."""
    tree = ast.parse(path.read_text())
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_write"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if name != "open" or mode is None:
            continue
        texts = [c.value for c in ast.walk(mode)
                 if isinstance(c, ast.Constant) and isinstance(c.value, str)]
        if any(set(text) & set("wax") for text in texts):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_file_is_written_through_atomic_write():
    package = sorted((ROOT / "src" / "wtal").glob("*.py"))
    assert [site for path in package for site in writing_opens(path)] == []
