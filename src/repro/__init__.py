"""FlexPass (EuroSys'23) reproduction.

:func:`lazy_exports` is how a package re-exports its submodules' names
without importing them: a run loads only what its config switches on
(DESIGN.md §3).
"""

import importlib
import sys


def lazy_exports(package: str, table: dict, submodules: tuple = ()):
    """PEP 562 re-exports for ``package``: ``table`` maps a module name
    (``.sub`` relative to the package, or absolute) to the names it
    exports, and each name is imported from its module on first use;
    ``submodules`` are reachable as attributes the same way. Returns
    ``(__all__, __getattr__, __dir__)``, ``__all__`` in table order."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name):
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(home[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(home) | set(submodules)
                      | set(vars(sys.modules[package])))

    return list(home), __getattr__, __dir__
