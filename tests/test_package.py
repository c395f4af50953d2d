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


# scipy subpackages the package does not need at import; signal and stats
# cost about 0.5 s of import time, scipy.integrate another 0.24 s and 25 MB
# with the linalg, optimize, sparse and spatial it loads, and scipy.fft about
# 0.2 s and 19 MB with the scipy.special it loads
UNNEEDED_SCIPY = (
    "scipy.signal", "scipy.stats", "scipy.integrate",
    "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.spatial",
    "scipy.fft", "scipy.special",
)
LAZY_SCIPY = ("scipy.fft", "scipy.special")


def run_probe(probe: str) -> str:
    """The stdout of `probe` run in a fresh interpreter that imports this package."""
    src = str(Path(subpulse.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_leaves_scipy_signal_and_stats_unloaded():
    probe = f"import subpulse, sys; print(sorted(set({UNNEEDED_SCIPY!r}) & set(sys.modules)))"
    assert run_probe(probe) == "[]"


def test_simulator_mc_and_ccrt_run_without_scipy_fft_or_special():
    # what the CLI's simulate, mc and ccrt-check modes run; only the
    # quadrature oracles (pd, pfa and fused) load scipy.special
    probe = f"""
import sys
from subpulse import *
channels = [PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=8) for m in (11, 13)]
setup = RadarSetup.build(carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=channels)
run_pipeline(setup, TargetTruth(10e3, -900.0), seed=1, noise_sigma=0.05)
stats = from_snr(10.0, 0.5, 0.99, M=13, N=16)
pd_closed_form(stats)
estimate(McConfig(stats=stats, seed=1, trials=4096, batch_size=4096))
ccrt_solve((11, 13, 17, 19), (3, 10, 2, 17))
print(sorted(set({LAZY_SCIPY!r}) & set(sys.modules)))
pd_oracle(stats)
print(sorted(set({LAZY_SCIPY!r}) & set(sys.modules)))
"""
    assert run_probe(probe).splitlines() == ["[]", "['scipy.special']"]
