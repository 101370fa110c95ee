"""No parameter default of the package is a constant under another name: each
defaulted parameter of a top-level function or method in ``src/wtal`` is
passed by some call in ``src/`` or ``scripts/``, by keyword, by position or
through ``*args`` / ``**kwargs``. Calls are matched by the called name, read
through ``import ... as`` aliases."""
import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def defaulted_parameters(tree: ast.Module):
    """(qualified name, called name, parameter, its index among the positional
    arguments of a call or None) for each defaulted parameter; a method's
    ``self`` is not an argument of its calls."""
    functions = [(node.name, node, False) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{node.name}", node, not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list))
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    for qualname, node, bound in functions:
        positional = node.args.posonlyargs + node.args.args
        first_default = len(positional) - len(node.args.defaults)
        for index in range(first_default, len(positional)):
            yield qualname, node.name, positional[index].arg, index - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, node.name, arg.arg, None


def passed_arguments(trees) -> dict[str, list[tuple[int, set[str], bool, bool]]]:
    """Called name -> (positional count, keywords, has ``*args``, has ``**kwargs``)
    of each call, with each ``import ... as`` alias read as the imported name."""
    aliases = {alias.asname: alias.name.rsplit(".", 1)[-1] for tree in trees
               for alias in ast.walk(tree) if isinstance(alias, ast.alias) and alias.asname}
    calls = defaultdict(list)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls[aliases.get(name, name)].append((
                sum(not isinstance(a, ast.Starred) for a in call.args),
                {kw.arg for kw in call.keywords if kw.arg is not None},
                any(isinstance(a, ast.Starred) for a in call.args),
                any(kw.arg is None for kw in call.keywords)))
    return calls


def is_passed(calls, name: str, parameter: str, index: int | None) -> bool:
    return any(parameter in keywords or star_kwargs
               or (index is not None and (count > index or star_args))
               for count, keywords, star_args, star_kwargs in calls.get(name, ()))


def test_every_default_is_passed_by_some_call():
    package = sorted((ROOT / "src" / "wtal").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in package + sorted((ROOT / "scripts").glob("*.py"))}
    calls = passed_arguments(trees.values())
    unpassed = [f"{path.name}: {qualname}({parameter})" for path in package
                for qualname, name, parameter, index in defaulted_parameters(trees[path])
                if not is_passed(calls, name, parameter, index)]
    assert unpassed == []
