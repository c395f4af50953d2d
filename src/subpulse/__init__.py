"""Pulsed-Doppler subpulse processing toolkit.

Splitting each transmitted pulse into coherent subpulses buys a second,
coarser Doppler axis whose window scales with the subpulse count instead of
the pulse repetition frequency. This package covers the full chain built on
that idea: congruence arithmetic that unfolds ambiguous fine-Doppler bins
across coprime channel sets (`ccrt`), closed-form detection and false-alarm
probabilities for the correlated two-domain envelope test with quadrature
oracles (`detection_stats`), a Monte Carlo rig for the same model
(`montecarlo`), a waveform-level range-Doppler simulator (`radar_sim`), and a
CLI that drives sweeps and emits deterministic CSV artifacts (`cli_io`).
"""

__version__ = "0.1.0"

# each module's __all__ is the one statement of its public names
from .numerics import *
from .ccrt import *
from .detection_stats import *
from .montecarlo import *
from .radar_sim import *
from .cli_io import *

__all__ = [name for name in dir() if not name.startswith("_")]
