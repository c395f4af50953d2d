"""Shared numerical kernels: special functions, quadrature, transforms, RNG.

Everything here is pure and reentrant. The rest of the package builds on these
primitives instead of calling numpy/scipy directly, so the numerical contracts
(tolerances, determinism, error behavior) live in one place.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _integrate
from scipy import signal as _signal

__all__ = [
    "QuadSpec",
    "RngStream",
    "ConvergenceError",
    "bessel_i0",
    "bessel_i0_log",
    "integrate_semi_infinite",
    "dft_1d",
    "dft_2d",
    "matched_filter",
    "gaussian",
]

# Direct O(K^2) transforms and correlations are exact and fast enough below
# this length; above it the FFT route takes over.
_DIRECT_LENGTH_LIMIT = 64

# Power series for I0 converges without cancellation for x <= this; the
# asymptotic expansion takes over above it.
_I0_SERIES_CUTOFF = 20.0


class ConvergenceError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances for the semi-infinite quadrature routine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("QuadSpec tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs replay identical sample sequences;
    distinct stream_ids give independent-quality streams. Each stream has a
    single owner; concurrent tasks must use distinct stream_ids.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _i0_series(x: float) -> float:
    # Sum (x/2)^(2q) / (q!)^2. All terms positive, no cancellation.
    u = 0.25 * x * x
    term = 1.0
    total = 1.0
    q = 0
    while True:
        q += 1
        term *= u / (q * q)
        total += term
        if term < total * 1e-17:
            return total


def _i0_asymptotic_factor(x: float) -> float:
    # I0(x) ~ e^x / sqrt(2 pi x) * sum_q a_q / x^q with
    # a_q = prod_{j=1..q} (2j-1)^2 / (8 q!). Truncated at the smallest term
    # (optimal truncation); for x > 20 the remainder is far below 1e-12.
    total = 1.0
    term = 1.0
    prev = math.inf
    q = 0
    while True:
        q += 1
        term *= (2 * q - 1) ** 2 / (8.0 * q * x)
        if term >= prev:
            break
        total += term
        prev = term
        if term < 1e-18:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero.

    Power series below x = 20, asymptotic expansion above. Relative error
    below 1e-12 across the switchover. Overflows near x = 714; use
    :func:`bessel_i0_log` beyond that.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("bessel_i0 requires a finite argument")
    if x < 0:
        raise ValueError("bessel_i0 requires a non-negative argument")
    if x <= _I0_SERIES_CUTOFF:
        return _i0_series(x)
    return math.exp(x) * _i0_asymptotic_factor(x)


def bessel_i0_log(x: float) -> float:
    """log(I0(x)), safe for large arguments where I0 itself overflows."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("bessel_i0_log requires a finite argument")
    if x < 0:
        raise ValueError("bessel_i0_log requires a non-negative argument")
    if x <= _I0_SERIES_CUTOFF:
        return math.log(_i0_series(x))
    return x + math.log(_i0_asymptotic_factor(x))


def integrate_semi_infinite(
    f: Callable[[float], float],
    spec: QuadSpec = QuadSpec(),
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [0, inf).

    f must be continuous and absolutely integrable. `breakpoints` are optional
    interior points (e.g. a known peak location) that the integrand is split
    on; they are clipped to (0, inf) and deduplicated. Deterministic for fixed
    inputs.

    Raises ConvergenceError (carrying the best estimate and its error bound)
    when the requested tolerance cannot be certified.
    """
    pts = sorted({float(p) for p in breakpoints if p > 0 and math.isfinite(p)})
    edges = [0.0] + pts
    segments = [(a, b) for a, b in zip(edges[:-1], edges[1:])] + [(edges[-1], np.inf)]
    total = 0.0
    err = 0.0
    exhausted = False
    with np.errstate(over="ignore", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", _integrate.IntegrationWarning)
        for a, b in segments:
            try:
                v, e = _integrate.quad(
                    f, a, b,
                    epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                    limit=spec.max_subdivisions,
                )
            except _integrate.IntegrationWarning:
                # Re-run tolerantly to recover the best estimate for the error.
                warnings.simplefilter("ignore", _integrate.IntegrationWarning)
                v, e = _integrate.quad(
                    f, a, b,
                    epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                    limit=spec.max_subdivisions,
                )
                warnings.simplefilter("error", _integrate.IntegrationWarning)
                exhausted = True
            total += v
            err += e
    if not math.isfinite(total):
        raise ConvergenceError("integral estimate is not finite", total, err)
    if exhausted or err > max(spec.abs_tol, spec.rel_tol * abs(total)) * 10.0:
        raise ConvergenceError(
            f"quadrature error bound {err:.3e} exceeds tolerance for estimate {total:.6e}",
            total, err,
        )
    return total


def _as_complex_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def dft_1d(x: Sequence, length: int | None = None) -> np.ndarray:
    """Forward DFT: X[k] = sum_n x[n] exp(-j 2 pi k n / K).

    Accepts any sequence of complex values. K defaults to len(x);
    shorter inputs are zero-padded. Direct summation below length 64, FFT
    above (identical results to 1e-12).
    """
    arr = _as_complex_array(x, "dft_1d input")
    k = int(length) if length is not None else arr.size
    if k < 1:
        raise ValueError("dft_1d length must be >= 1")
    if arr.size > k:
        raise ValueError("input longer than transform length")
    if arr.size < k:
        arr = np.concatenate([arr, np.zeros(k - arr.size, dtype=np.complex128)])
    if k < _DIRECT_LENGTH_LIMIT:
        n = np.arange(k)
        w = np.exp(-2j * np.pi * np.outer(n, n) / k)
        return w @ arr
    return np.fft.fft(arr, n=k)


def dft_2d(x) -> np.ndarray:
    """Separable 2D DFT: dft_1d along axis 0, then along axis 1."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("dft_2d requires a non-degenerate 2D grid")
    out = np.empty_like(arr)
    for j in range(arr.shape[1]):
        out[:, j] = dft_1d(arr[:, j])
    for i in range(arr.shape[0]):
        out[i, :] = dft_1d(out[i, :])
    return out


def matched_filter(rx: Sequence, replica: Sequence) -> np.ndarray:
    """Full-overlap cross-correlation y[k] = sum_n rx[k+n] conj(replica[n]).

    Output has length len(rx) - len(replica) + 1. For rx equal to the replica
    the single output value is the replica energy sum |replica|^2.
    """
    rx_arr = _as_complex_array(rx, "rx")
    rep_arr = _as_complex_array(replica, "replica")
    if rep_arr.size > rx_arr.size:
        raise ValueError("replica must not be longer than rx")
    method = "direct" if rep_arr.size < _DIRECT_LENGTH_LIMIT else "fft"
    return _signal.correlate(rx_arr, rep_arr, mode="valid", method=method)


def gaussian(rng: RngStream, mean: float, variance: float) -> float:
    """One draw from N(mean, variance) on the given stream."""
    if not variance > 0:
        raise ValueError("variance must be positive")
    return float(rng.generator.normal(mean, math.sqrt(variance)))
