"""Shared numerical kernels: log-I0, quadrature, matched filter, RNG, threads.

Everything here is pure and reentrant. These are the primitives whose
numerical contracts (tolerances, determinism, error behavior) the statistics
code relies on; the simulator and the Monte Carlo rig call numpy
directly where no such contract is needed. The quadrature is an adaptive
Gauss-Kronrod (G7/K15) rule in numpy, so the package never imports
`scipy.integrate` (nor `scipy.linalg`, `optimize` and `sparse`). It calls
its integrand once a round on an array of nodes, for one integral or many
at once, and sums every integral's panels with one `np.bincount`. The
matched filter takes its FFTs from `numpy.fft` (numpy >= 2.0) at scipy's
11-smooth lengths, and only `bessel_i0_log` imports `scipy.special`, on
its first call, so the simulator, the Monte Carlo rig and the CCRT solver
load neither `scipy.fft` nor `scipy.special`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RngStream",
    "ConvergenceError",
    "bessel_i0_log",
    "integrate_semi_infinite",
    "matched_filter",
]

# integrate_semi_infinite tolerances, its starting panels and its panel cap per segment
_QUAD_REL_TOL = 1e-10
_QUAD_ABS_TOL = 1e-12
_QUAD_START_PANELS = 8
_QUAD_SUBDIVISIONS = 200

# 15-point Kronrod nodes on [-1, 1] and their weights; the 7-point Gauss rule
# uses the odd-indexed nodes (QUADPACK qk15, Piessens et al. 1983)
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.zeros(8)
_WG[1::2] = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
]


def _mirrored(half: np.ndarray, sign: float = 1.0) -> np.ndarray:
    # the 15 node values in ascending node order, from the 8 of the right half
    return np.concatenate([sign * half[:-1], half[::-1]])


_NODES = _mirrored(_XK, -1.0)
_WK15 = _mirrored(_WK)
_WG15 = _mirrored(_WG)
_EPS = np.finfo(float).eps


class ConvergenceError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _integral(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int; a ValueError naming `name` unless it is integral
    and, when `least` or `most` is given, at least `least` and at most `most`."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        rule = "non-negative" if least == 0 else f">= {least}"
    elif most is not None and value > most:
        rule = f"<= {most}"
    else:
        return value
    raise ValueError(f"{name} must be {rule}, got {value}")


_SIGNS = {"": lambda v: True, "positive": lambda v: v > 0, "non-negative": lambda v: v >= 0}


def _finite(value, name: str, sign: str = ""):
    """`value`; a ValueError naming `name` unless it is finite and, when `sign`
    is "positive" or "non-negative", of that sign."""
    if not (math.isfinite(value) and _SIGNS[sign](value)):
        rule = f"finite and {sign}" if sign else "finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs replay identical sample sequences;
    distinct stream_ids give independent-quality streams. A stream_id is an
    integer or a tuple of them (a hierarchical address such as (row, batch));
    either way it is the SeedSequence spawn key. Each stream has a single
    owner; concurrent tasks must use distinct stream_ids.
    """

    def __init__(self, seed: int, stream_id: int | tuple = 0):
        self.seed = _integral(seed, "seed", 0)
        key = stream_id if isinstance(stream_id, tuple) else (stream_id,)
        key = tuple(_integral(part, "stream_id", 0) for part in key)
        self.stream_id = key if isinstance(stream_id, tuple) else key[0]
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=key)
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


def bessel_i0_log(x):
    """log(I0(x)), safe for large arguments where I0 itself overflows.

    Takes a number or an array; a number gives a float back, an array an
    array of the same shape.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("bessel_i0_log requires a finite argument")
    if (arr < 0).any():
        raise ValueError("bessel_i0_log requires a non-negative argument")
    # imported here: scipy.special takes about 0.3 s to load, and only the oracles call this
    from scipy.special import i0e

    # i0e(x) = exp(-x) * I0(x) stays in (0, 1] for every finite x >= 0
    out = arr + np.log(i0e(arr))
    return float(out) if out.ndim == 0 else out


def _kronrod_panels(f, lo, hi, tail, base, which):
    """K15 value and error bound of every panel [lo, hi], in one call of f.

    Tail panels run over u in [0, 1) with t = base + u / (1 - u). f gets the
    nodes and, for each, the `which` entry of its panel. The bound is
    QUADPACK qk15's: resasc * min(1, (200 |K - G| / resasc)^1.5), never
    below 50 eps times the panel's integral of |f|.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _NODES
    gap = np.where(tail[:, None], 1.0 - x, 1.0)
    t = np.where(tail[:, None], base[:, None] + x / gap, x)
    ft = np.asarray(f(t.ravel(), np.repeat(which, _NODES.size)), dtype=float)
    if ft.shape != (t.size,):
        raise ValueError(f"integrand returned shape {ft.shape} for {t.size} nodes")
    fx = ft.reshape(t.shape) / (gap * gap)
    kronrod = (fx * _WK15).sum(axis=-1)
    gauss = (fx * _WG15).sum(axis=-1)
    resabs = (np.abs(fx) * _WK15).sum(axis=-1) * half
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * _WK15).sum(axis=-1) * half
    err = np.abs(kronrod - gauss) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return kronrod * half, np.maximum(err, 50.0 * _EPS * resabs)


def _adaptive_kronrod(f, breakpoints: list) -> list:
    """(estimate, error bound, ConvergenceError or None) of every integral.

    `breakpoints` holds one sequence per integral; f(t, which) gets every
    new node of a round in one call, with the index of its integral. All
    panels share flat arrays; a round keeps those it does not split, in
    order, then appends the left and the right halves of those it does, so
    every integral's panels keep a lone integral's order, and np.bincount,
    summing in array order, gives each the bits it would have alone.
    """
    n = len(breakpoints)
    starts, widths, tail, base, seg_owner, counts = [], [], [], [], [], []
    for index, points in enumerate(breakpoints):
        edges = [0.0] + sorted({float(p) for p in points if p > 0 and math.isfinite(p)})
        starts += edges[:-1] + [0.0]
        widths += [b - a for a, b in zip(edges[:-1], edges[1:])] + [1.0]
        tail += [False] * (len(edges) - 1) + [True]
        base += [edges[-1]] * len(edges)
        seg_owner += [index] * len(edges)
        counts.append(float(len(edges)))
    starts, widths, base = np.array(starts), np.array(widths), np.array(base)
    tail, seg_owner, counts = np.array(tail), np.array(seg_owner), np.array(counts)
    steps = np.linspace(0.0, 1.0, _QUAD_START_PANELS + 1)
    seg = np.repeat(np.arange(seg_owner.size), _QUAD_START_PANELS)
    lo = starts[seg] + widths[seg] * np.tile(steps[:-1], seg_owner.size)
    hi = starts[seg] + widths[seg] * np.tile(steps[1:], seg_owner.size)
    values = errors = np.zeros(0)
    totals = bounds = np.zeros(n)
    # an integral is finished once it has converged or has no panel to split
    finished = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore", under="ignore"):
        while True:
            owner = seg_owner[seg]
            new = slice(values.size, None)
            value, error = _kronrod_panels(
                f, lo[new], hi[new], tail[seg[new]], base[seg[new]], owner[new]
            )
            values = np.concatenate([values, value])
            errors = np.concatenate([errors, error])
            # a finished integral has no panels left and keeps its last sums
            totals = np.where(finished, totals, np.bincount(owner, values, n))
            bounds = np.where(finished, bounds, np.bincount(owner, errors, n))
            limit = np.maximum(_QUAD_ABS_TOL, _QUAD_REL_TOL * np.abs(totals))
            finished |= ~np.isfinite(totals) | (bounds <= 10.0 * limit)
            if finished.all():
                break
            share = limit[owner] * (hi - lo) / widths[seg] / counts[owner]
            over = ~finished[owner] & (errors > share)
            # at the cap only a segment's worst panels are split
            room = _QUAD_SUBDIVISIONS - np.bincount(seg, minlength=seg_owner.size)
            wanted = np.bincount(seg[over], minlength=seg_owner.size)
            for s in np.flatnonzero(wanted > room):
                candidates = np.flatnonzero((seg == s) & over)
                worst_first = np.argsort(-errors[candidates], kind="stable")
                over[candidates[worst_first[room[s]:]]] = False
            finished |= np.bincount(owner[over], minlength=n) == 0
            if finished.all():
                break
            stay = ~finished[owner] & ~over
            mid = 0.5 * (lo[over] + hi[over])
            lo = np.concatenate([lo[stay], lo[over], mid])
            hi = np.concatenate([hi[stay], mid, hi[over]])
            seg = np.concatenate([seg[stay], seg[over], seg[over]])
            values, errors = values[stay], errors[stay]
    outcomes = []
    for total, bound, tol in zip(totals.tolist(), bounds.tolist(), limit.tolist()):
        error = None
        if not math.isfinite(total):
            error = ConvergenceError("integral estimate is not finite", total, bound)
        elif bound > 10.0 * tol:
            error = ConvergenceError(
                f"quadrature error bound {bound:.3e} exceeds tolerance for estimate {total:.6e}",
                total, bound,
            )
        outcomes.append((total, bound, error))
    return outcomes


def integrate_semi_infinite(f: Callable, breakpoints: Sequence = ()):
    """Integrate f over [0, inf), or many integrands in one pass.

    One integral: f takes a 1-D array of t and returns an array of the same
    shape; it must be continuous and absolutely integrable. `breakpoints`
    are optional interior points (e.g. a known peak location) that the
    integrand is split on; they are clipped to (0, inf) and deduplicated.
    Returns a float.

    Many integrals: `breakpoints` holds one such sequence per integral, and
    f(t, which) also receives, for every node, the index of the integral it
    belongs to. Returns a tuple of the estimates in order; raises the
    ConvergenceError of the first integral that failed, once all are done.
    Each integral keeps its own segments, tolerance, panel cap and error
    bound, and comes out with the same bits as it would alone.
    Deterministic for fixed inputs.

    Adaptive Gauss-Kronrod (G7/K15). Every segment (0, the breakpoints, then
    inf, the tail mapped by t = t_last + u / (1 - u)) starts as 8 equal
    panels; each round evaluates every new panel of every unfinished
    integral in one call of f. An estimate is final once its summed error
    bound is at most ten times its tolerance (relative 1e-10, absolute
    1e-12); until then the panels whose bound exceeds their share of the
    tolerance (in proportion to width) are bisected, up to 200 panels per
    segment. ConvergenceError (carrying the estimate and its error bound)
    when the cap stops the bisection first or the estimate is not finite.
    """
    points = list(breakpoints)
    many = bool(points) and np.ndim(points[0]) == 1
    if many:
        outcomes = _adaptive_kronrod(f, points)
    else:
        outcomes = _adaptive_kronrod(lambda t, which: f(t), [points])
    for _, _, error in outcomes:
        if error is not None:
            raise error
    estimates = tuple(total for total, _, _ in outcomes)
    return estimates if many else estimates[0]


def _as_complex_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.complex128)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n for n >= 1: scipy.fft.next_fast_len(n)
    for complex data, without importing scipy.fft (about 0.2 s and 19 MB)."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _replica_spectra(replica, window_length: int) -> np.ndarray:
    """The conjugated spectra of `replica` (its last axis) at the FFT length
    that correlates it with windows of `window_length` samples, the smallest
    11-smooth length >= window_length."""
    spectra = np.fft.fft(replica, n=_next_fast_len(window_length))
    return np.conj(spectra, out=spectra)


def _correlate(window_spectrum, replica_spectra, out, out_len: int) -> np.ndarray:
    """One window's correlation with every replica, from the window's
    spectrum and the conjugated replica spectra: a view of its first
    `out_len` lags into `out`, a buffer of the spectra's shape that holds
    the inverse FFT. A window or a replica row gives the same bits alone as
    in a stack, except at one bin, where numpy multiplies a (1,) product
    and a (1, 1) one with other bits."""
    np.multiply(window_spectrum, replica_spectra, out=out)
    return np.fft.ifft(out, out=out)[..., :out_len]


def matched_filter(rx, replica) -> np.ndarray:
    """Full-overlap cross-correlation y[k] = sum_n rx[k+n] conj(replica[n]).

    `rx` is one receive window of W samples or a stack of them, shape
    (windows, W); `replica` is one replica of L <= W samples or a stack,
    shape (replicas, L). The output has shape rx.shape[:-1] +
    replica.shape[:-1] + (W - L + 1,). For rx equal to the replica the
    single output value is the replica energy sum |replica|^2.

    The correlation is computed by numpy FFTs at n = the smallest 11-smooth
    length >= W (scipy.fft.next_fast_len's choice), the replica spectra once
    and one window at a time; a valid lag never reaches past the window, so
    the circular product does not wrap into the output.
    """
    rx_arr = _as_complex_array(rx, "rx")
    rep_arr = _as_complex_array(replica, "replica")
    if rx_arr.ndim not in (1, 2) or rep_arr.ndim not in (1, 2):
        raise ValueError("rx and replica must each be one sequence or a stack of them")
    out_len = rx_arr.shape[-1] - rep_arr.shape[-1] + 1
    if out_len < 1:
        raise ValueError("replica must not be longer than rx")
    windows = np.atleast_2d(rx_arr)
    out = np.empty((len(windows),) + rep_arr.shape[:-1] + (out_len,), dtype=np.complex128)
    replica_spectra = _replica_spectra(rep_arr, windows.shape[-1])
    product = np.empty_like(replica_spectra)
    # one window at a time, its spectrum included: the full (window,
    # replica, n) product, or even the (window, n) spectra, would hold
    # several times one window's share in memory at once
    for row_out, window in zip(out, windows):
        spectrum = np.fft.fft(window, n=product.shape[-1])
        row_out[:] = _correlate(spectrum, replica_spectra, product, out_len)
    return out if rx_arr.ndim == 2 else out[0]
