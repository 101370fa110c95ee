"""No option of the ``wtal`` command line goes unexercised: each option
string of each subcommand in ``cli.build_parser()`` appears, quoted, in a
test or a script. A subcommand takes the config options exactly when its
handler reads the run config."""
import argparse
from pathlib import Path

from wtal.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of ``parser`` and of each of its subcommands."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            options.update(o for o in action.option_strings if o.startswith("--"))
    return options


def test_every_option_appears_in_a_test_or_a_script():
    sources = [p for p in sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")) if p.name != Path(__file__).name]
    text = "\n".join(p.read_text() for p in sources)
    unused = sorted(o for o in option_strings(build_parser())
                    if f'"{o}"' not in text and f"'{o}'" not in text)
    assert unused == []


def test_config_options_exactly_where_the_handler_loads_the_config():
    config_options = {"--config", "--set"}
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    wrong = sorted(name for name, sub in subcommands.items()
                   if (option_strings(sub) & config_options == config_options)
                   != ("load_run_config" in sub.get_default("func").__code__.co_names))
    assert wrong == []
