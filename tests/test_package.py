"""Package surface: every name a module exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_signal_and_stats_unloaded():
    # the two cost about 0.5 s of import time and nothing in the package needs them
    src = str(Path(subpulse.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = "import subpulse, sys; print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
