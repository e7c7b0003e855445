"""The budget of settable values in the public API.

A settable value is a parameter a caller can pass: every parameter of each
function, of each class's own constructor (a dataclass's fields) and of
each public method, for every name in the `__all__` of the library
modules.  Classmethods, properties, `self`, NamedTuple result records and
exception classes are left out.  A change may lower the budget; raising it
needs a reason.
"""

import dataclasses
import importlib
import inspect

MODULES = ("agmon", "asymptotics", "hopping", "numerics", "pipeline",
           "potential", "spectral", "splitting2d", "verify", "wkb")
BUDGET = 200


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
