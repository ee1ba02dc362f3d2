"""Guard on the public keyword options.

Every parameter with a default on a public callable is pinned here, so an
option can only be added (or kept) by editing OPTIONS on purpose.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import alleechain

#: "callable.parameter" for every defaulted parameter reachable from __all__.
OPTIONS = {
    "AssumptionError.report",
    "ConvergenceBudgetError.achieved_tv",
    "ConvergenceBudgetError.horizon",
    "ConvergenceBudgetError.witness",
    "converge_to_stationary.max_horizon",
    "ensemble.burn_in",
    "ensemble.epsilon",
    "evolve.truncation_tol",
    "integrate.t_end",
    "occupation_distribution.burn_in",
}


def _routines():
    """(label, routine) for each public function, and for each public class
    its own __init__ (labelled by the class) and public methods."""
    for name in alleechain.__all__:
        obj = getattr(alleechain, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if attr == "__init__":
                    yield name, member
                elif not attr.startswith("_") and inspect.isroutine(member):
                    yield f"{name}.{attr}", member


def test_public_options_are_pinned():
    found = {
        f"{name}.{param.name}"
        for name, obj in _routines()
        for param in inspect.signature(obj).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert found == OPTIONS


def test_all_lists_the_public_names_of_the_submodules():
    # __all__ is derived from the names the package's import block binds, so
    # a stray import there (say, typing.Any) would show up in it
    submodules = [
        importlib.import_module(f"alleechain.{info.name}")
        for info in pkgutil.iter_modules(alleechain.__path__)
    ]
    for name in alleechain.__all__:
        obj = getattr(alleechain, name)
        assert not name.startswith("_") and not inspect.ismodule(obj), name
        assert any(vars(module).get(name, object()) is obj for module in submodules), name
    assert alleechain.__all__ == sorted(alleechain.__all__)
