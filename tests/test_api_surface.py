"""The budgets of settable values in the public API, of source lines and
of command-line options.

A settable value is a parameter a caller can pass: every parameter of each
function, of each class's own constructor (a dataclass's fields) and of
each public method, for every name in the `__all__` of the library
modules.  Classmethods, properties, `self`, NamedTuple result records and
exception classes are left out.  The source lines are the summed line
count of the library modules, as `cat src/magtun/*.py | wc -l` gives it.
The options are those of every subcommand, `-h` aside.  A change may lower
any budget; raising one needs a reason.
"""

import argparse
import dataclasses
import importlib
import inspect
from pathlib import Path

MODULES = ("agmon", "asymptotics", "hopping", "numerics", "pipeline",
           "potential", "spectral", "splitting2d", "verify", "wkb")
BUDGET = 180
# the landed `cat src/magtun/*.py | wc -l`: lower it with each deletion, and
# state a reason in CHANGES.md for any rise
LINE_BUDGET = 3270
# options of all subcommands together, -h aside
CLI_OPTION_BUDGET = 42


def _params(fn, bound):
    names = list(inspect.signature(fn).parameters)
    return names[1:] if bound else names


def settable(obj):
    """The names a caller can set through obj."""
    if not isinstance(obj, type):
        return _params(obj, bound=False)
    if issubclass(obj, BaseException):
        return []
    if dataclasses.is_dataclass(obj):
        out = [f.name for f in dataclasses.fields(obj)]
    elif "__init__" in vars(obj):
        out = _params(obj.__init__, bound=True)
    else:
        out = []
    for name, attr in vars(obj).items():
        if not name.startswith("_") and inspect.isfunction(attr):
            out += _params(attr, bound=True)
    return out


def count():
    total = 0
    for name in MODULES:
        module = importlib.import_module(f"magtun.{name}")
        total += sum(len(settable(getattr(module, n))) for n in module.__all__)
    return total


def test_settable_values_within_budget():
    assert count() <= BUDGET


def test_source_lines_within_budget():
    package = Path(importlib.import_module("magtun").__file__).parent
    lines = sum(p.read_bytes().count(b"\n") for p in package.glob("*.py"))
    assert lines <= LINE_BUDGET


def test_cli_options_within_budget():
    from magtun.cli import build_parser

    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = [a for sp in subparsers.choices.values() for a in sp._actions
               if not isinstance(a, argparse._HelpAction)]
    assert len(options) <= CLI_OPTION_BUDGET
