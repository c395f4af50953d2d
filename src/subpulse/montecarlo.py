"""Monte Carlo estimation of the dual-domain detection statistics.

The empirical referee the closed forms in detection_stats are accepted
against. Each trial draws the correlated target envelopes r1, r2 and takes
the conditional expectation over their unit-scale Rayleigh competitors
(conditional Monte Carlo: Asmussen & Glynn, *Stochastic Simulation*,
Springer 2007, ch. V). With F(r) = 1 - exp(-r^2 / 2) the competitor CDF in
both maps, the trial contributes

    Pr(win both)  = F1(r1)^(M-1) * F2(r2)^(N-1)
    Pr(lose both) = (1 - F1(r1)^(M-1)) * (1 - F2(r2)^(N-1))

so no competitor is ever drawn: six normals a trial at any (M, N). The
estimates are means of values in [0, 1], with sample standard errors; their
variance is never above that of counting outcomes (Rao-Blackwell).

Reproducibility: work is split into fixed-size batches, and batch b of sweep
row r draws from RngStream(seed, stream_id=(r, b)), so a run is
bit-identical for a given (seed, row, trials, batch_size) no matter how
batches are scheduled; `estimate` runs them through numerics._thread_map,
one worker per usable CPU (numpy's generators release the GIL while they
fill arrays), and pools their sums in batch order. Each worker holds one
batch's working set, so peak memory grows with the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection_stats import ChannelStats
from .numerics import RngStream, _integral, _thread_map

__all__ = ["McConfig", "McEstimate", "estimate"]

_DEFAULT_BATCH = 1 << 16
_ROOT_HALF = math.sqrt(0.5)  # std of a variance-1/2 component


@dataclass(frozen=True)
class McConfig:
    """One estimation run: which channel, how many trials, which streams.

    `row` is the run's index within a sweep; runs that differ only in row
    draw from disjoint streams.
    """

    stats: ChannelStats
    seed: int
    trials: int = 10 ** 6
    batch_size: int = _DEFAULT_BATCH
    row: int = 0

    def __post_init__(self):
        if not isinstance(self.stats, ChannelStats):
            raise TypeError(f"stats must be ChannelStats, got {type(self.stats).__name__}")
        for name, least in (("seed", 0), ("trials", 1), ("batch_size", 1), ("row", 0)):
            object.__setattr__(self, name, _integral(getattr(self, name), name, least))


@dataclass(frozen=True)
class McEstimate:
    pd_hat: float
    pfa_hat: float
    stderr_pd: float
    stderr_pfa: float
    trials: int
    seed: int


def _complex_batch(rng: RngStream, stats: ChannelStats, n: int):
    """n correlated target pairs (g1, g2) from six normal draws, in the fixed
    order A0 B0 A1 B1 A2 B2."""
    g = rng.generator
    a0 = g.normal(stats.m_re, _ROOT_HALF, n)
    b0, a1, b1, a2, b2 = (g.normal(0.0, _ROOT_HALF, n) for _ in range(5))
    k1 = math.sqrt(1.0 - stats.lambda1 ** 2)
    k2 = math.sqrt(1.0 - stats.lambda2 ** 2)
    g1 = (k1 * a1 + stats.lambda1 * a0) + 1j * (k1 * b1 + stats.lambda1 * b0)
    g2 = (k2 * a2 + stats.lambda2 * a0) + 1j * (k2 * b2 + stats.lambda2 * b0)
    return g1, g2


def _win_lose(r: np.ndarray, k: int):
    """Pr(r beats all k unit-scale Rayleigh competitors) and Pr(one beats r).

    F^k is taken as exp(k log F), and 1 - F^k as -expm1(k log F); k = 0 is
    exactly (1, 0), never 0 * log 0.
    """
    if k == 0:
        return np.ones_like(r), np.zeros_like(r)
    k_log_f = k * np.log(-np.expm1(-0.5 * np.square(r)))
    return np.exp(k_log_f), -np.expm1(k_log_f)


def _run_batch(rng: RngStream, stats: ChannelStats, n: int):
    """Per-trial Pr(detection) and Pr(false alarm) given the target envelopes."""
    g1, g2 = _complex_batch(rng, stats, n)
    win1, lose1 = _win_lose(np.abs(g1), stats.M - 1)
    win2, lose2 = _win_lose(np.abs(g2), stats.N - 1)
    return win1 * win2, lose1 * lose2


def _moments(values: np.ndarray):
    """(count, sum, centred sum of squares) of one batch's values."""
    total = float(values.sum())
    centred = values - total / values.size
    return values.size, total, float(np.square(centred).sum())


def _mean_and_stderr(parts) -> tuple[float, float]:
    """Pool (count, sum, centred sum of squares) parts in order.

    The pairwise update of Chan, Golub & LeVeque (The American Statistician
    37(3), 1983). The standard error is sqrt(sum of squares) / count, which is
    the binomial sqrt(p(1 - p) / n) when every value is 0 or 1.
    """
    count, total, squares = parts[0]
    for n, s, q in parts[1:]:
        delta = s / n - total / count
        squares += q + delta * delta * count * n / (count + n)
        count += n
        total += s
    return total / count, math.sqrt(squares) / count


def estimate(config: McConfig) -> McEstimate:
    """Conditional Monte Carlo PD and PFA over config.trials; deterministic
    for a fixed (seed, row, trials, batch_size) on any thread count."""
    batches = -(-config.trials // config.batch_size)

    def run_batch(b: int):
        n = min(config.batch_size, config.trials - b * config.batch_size)
        rng = RngStream(config.seed, stream_id=(config.row, b))
        return tuple(_moments(v) for v in _run_batch(rng, config.stats, n))

    # _thread_map returns the batches in index order, so the pooled sums
    # are the same bits whatever the schedule.
    moments = _thread_map(run_batch, batches)
    pd_hat, stderr_pd = _mean_and_stderr([pd for pd, _ in moments])
    pfa_hat, stderr_pfa = _mean_and_stderr([pfa for _, pfa in moments])
    return McEstimate(
        pd_hat=pd_hat,
        pfa_hat=pfa_hat,
        stderr_pd=stderr_pd,
        stderr_pfa=stderr_pfa,
        trials=config.trials,
        seed=config.seed,
    )
