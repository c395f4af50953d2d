"""Monte Carlo estimation of the dual-domain detection statistics.

The empirical referee the closed forms in detection_stats are accepted
against. Each trial draws the correlated target envelopes r1, r2 and takes
the conditional expectation over their unit-scale Rayleigh competitors
(conditional Monte Carlo: Asmussen & Glynn, *Stochastic Simulation*,
Springer 2007, ch. V). With F(r) = 1 - exp(-r^2 / 2) the competitor CDF in
both maps, the trial contributes

    Pr(win both)  = F1(r1)^(M-1) * F2(r2)^(N-1)
    Pr(lose both) = (1 - F1(r1)^(M-1)) * (1 - F2(r2)^(N-1))

so no competitor is ever drawn: four normals a trial at any (M, N), the
parts of the two independent complex normals that `_target_pair` mixes into
the correlated pair, worked in real arithmetic on the powers r^2. The
estimates are means of values in [0, 1], with sample standard errors; their
variance is never above that of counting outcomes (Rao-Blackwell).

Reproducibility: work is split into fixed-size batches, and batch b of sweep
row r draws from RngStream(seed, stream_id=(r, b)), so a run is
bit-identical for a given (seed, row, trials, batch_size) no matter how
batches are scheduled; `estimate` runs them through numerics._thread_map,
one worker per usable CPU (numpy's generators release the GIL while they
fill arrays), and pools their sums in batch order. Each worker holds one
batch's working set, 48 bytes a trial at its peak, so peak memory grows with
the worker count; McConfig caps a batch at 2^20 trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection_stats import ChannelStats
from .numerics import RngStream, _integral, _thread_map

__all__ = ["McConfig", "McEstimate", "estimate"]

_DEFAULT_BATCH = 1 << 16
_MAX_BATCH = 1 << 20  # a batch holds 48 bytes a trial at its peak: 48 MiB per worker
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
        for name, least, most in (
            ("seed", 0, None), ("trials", 1, None), ("batch_size", 1, _MAX_BATCH), ("row", 0, None)
        ):
            object.__setattr__(self, name, _integral(getattr(self, name), name, least, most))


@dataclass(frozen=True)
class McEstimate:
    pd_hat: float
    pfa_hat: float
    stderr_pd: float
    stderr_pfa: float


def _target_pair(rng: RngStream, stats: ChannelStats, n: int) -> np.ndarray:
    """n correlated target pairs as a (4, n) array, rows Re g1, Im g1, Re g2,
    Im g2, from one draw of four standard normals a trial.

    With u1, u2 the two complex normals of unit variance (rows 0-1 and 2-3 of
    the draw, scaled by sqrt(1/2)) and rho = lambda1 lambda2,

        g1 = lambda1 m_re + u1
        g2 = lambda2 m_re + rho u1 + sqrt(1 - rho^2) u2

    which is the joint law of g_i = lambda_i z + sqrt(1 - lambda_i^2) w_i with
    z ~ CN(m_re, 1) shared: means lambda_i m_re, unit variances, correlation rho.
    """
    g = rng.generator.standard_normal((4, n))
    g *= _ROOT_HALF
    rho = stats.lambda1 * stats.lambda2
    g[2:] *= math.sqrt((1.0 - rho) * (1.0 + rho))
    g[2:] += rho * g[:2]
    g[0] += stats.lambda1 * stats.m_re
    g[2] += stats.lambda2 * stats.m_re
    return g


def _win_lose(p: np.ndarray, k: int):
    """Pr(a target of power p = r^2 beats all k unit-scale Rayleigh
    competitors) and Pr(one beats it); p's buffer is overwritten.

    F = -expm1(-p / 2); F^k is taken as exp(k log F), and 1 - F^k as
    -expm1(k log F); k = 0 is exactly (1, 0), never 0 * log 0.
    """
    if k == 0:
        return np.ones_like(p), np.zeros_like(p)
    p *= -0.5
    np.expm1(p, out=p)
    np.negative(p, out=p)
    np.log(p, out=p)
    p *= k
    win = np.exp(p)
    np.expm1(p, out=p)
    np.negative(p, out=p)
    return win, p


def _run_batch(rng: RngStream, stats: ChannelStats, n: int):
    """Per-trial Pr(detection) and Pr(false alarm) given the target powers."""
    g = _target_pair(rng, stats, n)
    np.square(g, out=g)
    np.add(g[0::2], g[1::2], out=g[0::2])  # rows 0 and 2: |g1|^2 and |g2|^2
    win1, lose1 = _win_lose(g[0], stats.M - 1)
    win2, lose2 = _win_lose(g[2], stats.N - 1)
    win1 *= win2
    lose1 *= lose2
    return win1, lose1


def _moments(values: np.ndarray):
    """(count, sum, centred sum of squares) of one batch's values."""
    total = float(values.sum())
    centred = values - total / values.size
    return values.size, total, float(np.square(centred, out=centred).sum())


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
    )
