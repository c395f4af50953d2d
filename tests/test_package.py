"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import subpulse


def test_every_all_entry_resolves():
    modules = [subpulse] + [
        importlib.import_module(f"subpulse.{info.name}")
        for info in pkgutil.iter_modules(subpulse.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        # a stale entry would make `from module import *` raise AttributeError
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names undefined {missing}"
