"""Monte Carlo estimation of the dual-domain detection statistics.

Simulates the correlated envelope pair plus its Rayleigh competitors and
counts outcomes directly. This is the empirical ground truth the closed
forms in detection_stats are accepted against.

Reproducibility: work is split into fixed-size batches and batch b draws
from RngStream(seed, stream_id=b), so a run is bit-identical for a given
(seed, trials, batch_size) no matter how batches are scheduled; `estimate`
runs them through numerics._thread_map, one worker per usable CPU (numpy's
generators release the GIL while they fill arrays). Each worker holds one
batch's working set, so peak memory grows with the worker count. With batch_size=1
the stream addressing degenerates to one stream per trial and `estimate`
consumes randomness exactly like `run_trial` does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .detection_stats import ChannelStats
from .numerics import RngStream, _integral, _thread_map

__all__ = [
    "McConfig",
    "McEstimate",
    "TrialOutcome",
    "run_trial",
    "estimate",
]

_DEFAULT_BATCH = 1 << 16
# Rows of competitor draws held at once; keeps the working set of a
# 65536-trial batch small while batches run side by side.
_SLICE_ROWS = 4096
_ROOT_HALF = math.sqrt(0.5)  # std of a variance-1/2 component


class TrialOutcome(enum.Enum):
    DETECTION = "detection"
    FALSE_ALARM = "false_alarm"
    MIXED = "mixed"


@dataclass(frozen=True)
class McConfig:
    """One estimation run: which channel, how many trials, which seed."""

    stats: ChannelStats
    seed: int
    trials: int = 10 ** 6
    batch_size: int = _DEFAULT_BATCH

    def __post_init__(self):
        object.__setattr__(self, "seed", _integral(self.seed, "seed"))
        object.__setattr__(self, "trials", _integral(self.trials, "trials"))
        object.__setattr__(self, "batch_size", _integral(self.batch_size, "batch_size"))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class McEstimate:
    pd_hat: float
    pfa_hat: float
    stderr_pd: float
    stderr_pfa: float
    trials: int
    seed: int


def _draw_components(rng: RngStream, stats: ChannelStats, n: int):
    """Draw n samples of each latent component, fixed order: A0 B0 A1 B1 A2 B2."""
    g = rng.generator
    a0 = g.normal(stats.m_re, _ROOT_HALF, n)
    b0 = g.normal(stats.m_im, _ROOT_HALF, n)
    a1 = g.normal(0.0, _ROOT_HALF, n)
    b1 = g.normal(0.0, _ROOT_HALF, n)
    a2 = g.normal(0.0, _ROOT_HALF, n)
    b2 = g.normal(0.0, _ROOT_HALF, n)
    return a0, b0, a1, b1, a2, b2


def _complex_batch(rng: RngStream, stats: ChannelStats, n: int):
    a0, b0, a1, b1, a2, b2 = _draw_components(rng, stats, n)
    k1 = math.sqrt(1.0 - stats.lambda1 ** 2)
    k2 = math.sqrt(1.0 - stats.lambda2 ** 2)
    g1 = stats.sigma1 * ((k1 * a1 + stats.lambda1 * a0) + 1j * (k1 * b1 + stats.lambda1 * b0))
    g2 = stats.sigma2 * ((k2 * a2 + stats.lambda2 * a0) + 1j * (k2 * b2 + stats.lambda2 * b0))
    return g1, g2


def run_trial(rng: RngStream, stats: ChannelStats) -> TrialOutcome:
    """Classify a single trial.

    The target envelopes face M-1 / N-1 Rayleigh competitors (scale sigma_p).
    Detection means winning both maps, a false alarm losing both; anything
    else is mixed. Empty competitor sets are automatic wins.
    """
    detections, false_alarms = _run_batch(rng, stats, 1)
    if detections:
        return TrialOutcome.DETECTION
    if false_alarms:
        return TrialOutcome.FALSE_ALARM
    return TrialOutcome.MIXED


def _competitor_max(g: np.random.Generator, sigma: float, n: int, k: int) -> np.ndarray:
    """Row maxima of n rows of k Rayleigh(sigma) draws; -inf when k = 0.

    Bit-identical to g.rayleigh(sigma, (n, k)).max(axis=1, initial=-inf):
    rayleigh is sigma * sqrt(2 E) on the same standard-exponential stream,
    the map is monotone, and row-major slices keep the draw order.
    """
    emax = np.full(n, -np.inf)
    if k == 0:
        return emax
    for start in range(0, n, _SLICE_ROWS):
        stop = min(start + _SLICE_ROWS, n)
        g.standard_exponential((stop - start, k)).max(axis=1, out=emax[start:stop])
    return sigma * np.sqrt(2.0 * emax)


def _run_batch(rng: RngStream, stats: ChannelStats, n: int):
    g1, g2 = _complex_batch(rng, stats, n)
    r1 = np.abs(g1)
    r2 = np.abs(g2)
    g = rng.generator
    xmax = _competitor_max(g, stats.sigma1, n, stats.M - 1)
    ymax = _competitor_max(g, stats.sigma2, n, stats.N - 1)
    detections = int(np.count_nonzero((r1 > xmax) & (r2 > ymax)))
    false_alarms = int(np.count_nonzero((xmax > r1) & (ymax > r2)))
    return detections, false_alarms


def _binomial_stderr(p_hat: float, trials: int) -> float:
    return math.sqrt(p_hat * (1.0 - p_hat) / trials)


def estimate(config: McConfig) -> McEstimate:
    """Aggregate run_trial over config.trials; deterministic for fixed seed."""
    batches = -(-config.trials // config.batch_size)

    def run_batch(b: int):
        n = min(config.batch_size, config.trials - b * config.batch_size)
        return _run_batch(RngStream(config.seed, stream_id=b), config.stats, n)

    # Integer counts sum to the same totals whatever the schedule.
    counts = _thread_map(run_batch, batches)
    detections = sum(d for d, _ in counts)
    false_alarms = sum(f for _, f in counts)
    pd_hat = detections / config.trials
    pfa_hat = false_alarms / config.trials
    return McEstimate(
        pd_hat=pd_hat,
        pfa_hat=pfa_hat,
        stderr_pd=_binomial_stderr(pd_hat, config.trials),
        stderr_pfa=_binomial_stderr(pfa_hat, config.trials),
        trials=config.trials,
        seed=config.seed,
    )
