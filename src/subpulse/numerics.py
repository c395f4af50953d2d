"""Shared numerical kernels: log-I0, quadrature, matched filter, RNG, threads.

Everything here is pure and reentrant. These are the primitives whose
numerical contracts (tolerances, determinism, error behavior) the statistics
code relies on; the simulator and the Monte Carlo rig call numpy and scipy
directly where no such contract is needed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
from scipy import fft as _fft
from scipy import integrate as _integrate
from scipy import special as _special

__all__ = [
    "RngStream",
    "ConvergenceError",
    "bessel_i0_log",
    "integrate_semi_infinite",
    "matched_filter",
]

# integrate_semi_infinite tolerances and its QUADPACK subdivision limit per segment
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-12
_QUAD_SUBDIVISIONS = 200


class ConvergenceError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _integral(value, name: str) -> int:
    """`value` as an int; a ValueError naming `name` unless it is integral."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs replay identical sample sequences;
    distinct stream_ids give independent-quality streams. Each stream has a
    single owner; concurrent tasks must use distinct stream_ids.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _integral(seed, "seed")
        self.stream_id = _integral(stream_id, "stream_id")
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_map(fn: Callable[[int], object], count: int) -> list:
    """[fn(0), ..., fn(count - 1)], run on min(count, usable CPUs) threads.

    Results come back in index order and the first exception in index order
    is raised, whatever the schedule; one pool.map call at every worker
    count, one worker included. The pool lives in a `with` block, so no
    thread outlives the call. Callers keep each fn(i) independent of the
    others (its own RngStream, its own output), and gain only where fn
    spends its time in numpy or scipy code that releases the GIL.
    """
    with ThreadPoolExecutor(max_workers=max(1, min(count, _usable_cpus()))) as pool:
        return list(pool.map(fn, range(count)))


def bessel_i0_log(x: float) -> float:
    """log(I0(x)), safe for large arguments where I0 itself overflows."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("bessel_i0_log requires a finite argument")
    if x < 0:
        raise ValueError("bessel_i0_log requires a non-negative argument")
    # i0e(x) = exp(-x) * I0(x) stays in (0, 1] for every finite x >= 0
    return x + math.log(_special.i0e(x))


def integrate_semi_infinite(
    f: Callable[[float], float],
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [0, inf).

    f must be continuous and absolutely integrable. `breakpoints` are optional
    interior points (e.g. a known peak location) that the integrand is split
    on; they are clipped to (0, inf) and deduplicated. Deterministic for fixed
    inputs.

    Raises ConvergenceError (carrying the best estimate and its error bound)
    when the tolerance (relative 1e-10, absolute 1e-12) cannot be certified.
    """
    pts = sorted({float(p) for p in breakpoints if p > 0 and math.isfinite(p)})
    edges = [0.0] + pts
    segments = [(a, b) for a, b in zip(edges[:-1], edges[1:])] + [(edges[-1], np.inf)]
    total = 0.0
    err = 0.0
    exhausted = False
    with np.errstate(over="ignore", under="ignore"):
        for a, b in segments:
            # full_output appends QUADPACK's message exactly when quad would
            # have warned (ier 1-5, 7); ier 6, bad input, still raises
            v, e, _, *message = _integrate.quad(
                f, a, b,
                epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL,
                limit=_QUAD_SUBDIVISIONS, full_output=1,
            )
            exhausted = exhausted or bool(message)
            total += v
            err += e
    if not math.isfinite(total):
        raise ConvergenceError("integral estimate is not finite", total, err)
    if exhausted or err > max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(total)) * 10.0:
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


def matched_filter(rx, replica) -> np.ndarray:
    """Full-overlap cross-correlation y[k] = sum_n rx[k+n] conj(replica[n]).

    `rx` is one receive window of W samples or a stack of them, shape
    (windows, W); `replica` is one replica of L <= W samples or a stack,
    shape (replicas, L). The output has shape rx.shape[:-1] +
    replica.shape[:-1] + (W - L + 1,). For rx equal to the replica the
    single output value is the replica energy sum |replica|^2.

    The correlation is computed by FFT at n = next_fast_len(W), the replica
    spectra once and one window at a time; a valid lag never reaches past
    the window, so the circular product does not wrap into the output.
    """
    rx_arr = _as_complex_array(rx, "rx")
    rep_arr = _as_complex_array(replica, "replica")
    if rx_arr.ndim not in (1, 2) or rep_arr.ndim not in (1, 2):
        raise ValueError("rx and replica must each be one sequence or a stack of them")
    out_len = rx_arr.shape[-1] - rep_arr.shape[-1] + 1
    if out_len < 1:
        raise ValueError("replica must not be longer than rx")
    nfft = _fft.next_fast_len(rx_arr.shape[-1])
    replica_spectra = np.conj(_fft.fft(rep_arr, n=nfft))
    windows = np.atleast_2d(rx_arr)
    out = np.empty((len(windows),) + rep_arr.shape[:-1] + (out_len,), dtype=np.complex128)
    # one window at a time: the full (window, replica, n) product would hold
    # several times the output in memory at once
    for row_out, spectrum in zip(out, _fft.fft(windows, n=nfft)):
        row_out[:] = _fft.ifft(spectrum * replica_spectra)[..., :out_len]
    return out if rx_arr.ndim == 2 else out[0]
