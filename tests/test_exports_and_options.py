"""Every exported name resolves, and every command-line option is read.

A name left in ``goodfilt.__all__`` or a module's ``__all__`` after its
definition is gone fails only when someone uses it, and an option that a
subcommand defines but nothing reads is accepted and silently ignored.  So
this reads the CLI source with ``ast``: an option counts as read on a
subcommand's path when ``args.<dest>`` is loaded in its ``cmd_*`` function,
in a function of ``cli`` that it passes ``args`` to (followed onwards), or
in ``main`` and the functions ``main`` passes ``args`` to.
"""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

import goodfilt
from goodfilt import cli

PACKAGE = Path(goodfilt.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_package_export_resolves():
    assert [name for name in goodfilt.__all__ if not hasattr(goodfilt, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_module_export_resolves(module):
    mod = importlib.import_module(f"goodfilt.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def functions(source: str) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def args_read(defs: dict[str, ast.FunctionDef], name: str, seen=None) -> set[str]:
    """The attributes of ``args`` that function ``name`` loads, with those of
    the functions in ``defs`` it passes ``args`` to."""
    seen = set() if seen is None else seen
    seen.add(name)
    read = set()
    for node in ast.walk(defs[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "args"):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in defs and node.func.id not in seen
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            read |= args_read(defs, node.func.id, seen)
    return read


def test_the_checker_follows_args_into_helpers():
    source = (
        "def cmd_a(args):\n    helper(args)\n    args.kept = 1\n"
        "def helper(args):\n    return args.x + other(1)\n"
        "def other(args):\n    return args.y\n"
    )
    assert args_read(functions(source), "cmd_a") == {"x"}


SUBPARSERS = next(
    action for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
).choices


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_option_of_a_command_is_read(command):
    defs = functions(Path(cli.__file__).read_text())
    read = args_read(defs, cli.COMMANDS[command].__name__) | args_read(defs, "main")
    options = {action.dest for action in SUBPARSERS[command]._actions if action.dest != "help"}
    assert sorted(options - read) == []
