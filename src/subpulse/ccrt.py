"""Doppler bin folding and congruence-based unfolding across staggered PRFs.

A target moving faster than one PRF's unambiguous window appears in a folded
(aliased) Doppler bin in each channel. When the per-channel bin counts M_i are
pairwise coprime and all channels share one bin spacing, the folded residues
determine the true bin uniquely modulo Theta = prod M_i; a coarse frequency
estimate (from the subpulse axis) then picks the sign/wrap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import _integral

__all__ = [
    "PrfChannel",
    "UnfoldResult",
    "NotInvertibleError",
    "OutOfWindowError",
    "modular_inverse",
    "ccrt_solve",
    "apparent_bin",
    "fold_bin",
    "doppler_to_velocity",
    "velocity_to_doppler",
    "unfold",
    "unfold_tolerant",
]


class NotInvertibleError(ValueError):
    """Raised when a modular inverse does not exist (non-coprime moduli)."""


class OutOfWindowError(ValueError):
    """Raised when a frequency or delay falls outside the representable window."""


@dataclass(frozen=True)
class PrfChannel:
    """One PRF channel: pulse count M, subpulse count N, bin spacing prf/M."""

    prf: float
    num_pulses: int
    num_subpulses: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.prf) and self.prf > 0):
            raise ValueError(f"prf must be finite and positive, got {self.prf!r}")
        for name in ("num_pulses", "num_subpulses"):
            v = _integral(getattr(self, name), name)
            if v < 1:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, v)

    @property
    def bin_spacing(self) -> float:
        return self.prf / self.num_pulses


@dataclass(frozen=True)
class UnfoldResult:
    bin: int
    doppler_hz: float
    velocity_mps: float
    sign_resolved: bool
    coarse_hz: float


def modular_inverse(a: int, m: int) -> int:
    """Smallest b in [1, m) with (a*b) mod m = 1, or 0 when m = 1; pow(a, -1, m)."""
    a, m = _integral(a, "a"), _integral(m, "modulus")
    if m < 1:
        raise ValueError("modulus must be >= 1")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"{a} has no inverse modulo {m} (gcd {math.gcd(a, m)})"
        ) from None


def _check_moduli(moduli: tuple[int, ...]) -> None:
    if any(m < 1 for m in moduli):
        raise ValueError("moduli must be >= 1")
    for a, b in itertools.combinations(moduli, 2):
        if math.gcd(a, b) != 1:
            raise NotInvertibleError(f"moduli {a} and {b} are not coprime")


def _basis(moduli: tuple[int, ...]) -> tuple[int, ...]:
    """beta_i = b_i * Theta/M_i, with b_i the inverse of Theta/M_i modulo M_i."""
    _check_moduli(moduli)
    theta = math.prod(moduli)
    return tuple(modular_inverse(theta // m, m) * (theta // m) for m in moduli)


def ccrt_solve(moduli: Sequence[int], residues):
    """Unique bin b in [0, Theta) with b = r_i (mod M_i) for every modulus.

    b = (sum_i r_i * beta_i) mod Theta with beta_i = b_i * Theta/M_i and b_i
    the modular inverse of Theta/M_i modulo M_i. `residues` holds one
    residue per modulus, giving an int, or is an array of such tuples along
    its last axis, giving one bin per tuple as (R @ beta) mod Theta: int64
    while sum_i (M_i - 1) * beta_i < 2**63, else Python ints in an object
    array. A non-integral residue is refused by name.
    """
    moduli = tuple(_integral(m, "modulus") for m in moduli)
    if not moduli:
        raise ValueError("moduli must be non-empty")
    basis = _basis(moduli)
    r = np.asarray(residues)
    if r.dtype.kind not in "iu":
        r = np.array(
            [_integral(x, "residue") for x in r.ravel().tolist()], dtype=object
        ).reshape(r.shape)
    if r.shape[-1:] != (len(moduli),):
        raise ValueError(f"residues need a last axis of {len(moduli)}, got shape {r.shape}")
    if np.any(r < 0) or np.any(r >= np.array(moduli)):
        raise ValueError(f"residues out of range for moduli {moduli}")
    theta = math.prod(moduli)
    if sum((m - 1) * beta for m, beta in zip(moduli, basis)) < 2 ** 63:
        bins = (r.astype(np.int64) @ np.array(basis, dtype=np.int64)) % theta
    else:
        bins = (r.astype(object) @ np.array(basis, dtype=object)) % theta
    return int(bins) if r.ndim == 1 else bins


def apparent_bin(f_ap: float, channel: PrfChannel) -> int:
    """Folded Doppler bin observed for an in-window frequency.

    Non-negative frequencies map to floor(|f|/spacing); negative ones to
    M - floor(|f|/spacing), with the boundary result M wrapped to 0.
    """
    half = channel.prf / 2.0
    if abs(f_ap) > half * (1.0 + 1e-12):
        raise OutOfWindowError(f"|{f_ap}| Hz exceeds the +-{half} Hz window")
    m = channel.num_pulses
    k = int(math.floor(abs(f_ap) / channel.bin_spacing))
    if f_ap >= 0:
        return min(k, m - 1) if k == m else k
    b = m - k
    return 0 if b == m else b


def fold_bin(b_d: int, channel: PrfChannel) -> int:
    """Residue of a true bin index: b_d mod M."""
    b_d = _integral(b_d, "bin index")
    if b_d < 0:
        raise ValueError("bin index must be non-negative")
    return b_d % channel.num_pulses


def doppler_to_velocity(f_d: float, wavelength: float) -> float:
    """Radial velocity for a Doppler shift: v = f * wavelength / 2."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return f_d * wavelength / 2.0


def velocity_to_doppler(v: float, wavelength: float) -> float:
    """Doppler shift for a radial velocity: f = 2 v / wavelength."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return 2.0 * v / wavelength


def common_bin_spacing(channels: Sequence[PrfChannel]) -> float:
    """The shared bin spacing of a channel set; raises if they differ."""
    if not channels:
        raise ValueError("channel list must be non-empty")
    spacing = channels[0].bin_spacing
    for ch in channels[1:]:
        if abs(ch.bin_spacing - spacing) > 1e-9 * spacing:
            raise ValueError(
                "channels do not share a common bin spacing: "
                f"{spacing} Hz vs {ch.bin_spacing} Hz; exact congruence "
                "unfolding requires prf_i = M_i * spacing with one spacing"
            )
    return spacing


def _nearest_lattice(
    b: int,
    spacing: float,
    theta: int,
    coarse_hz: float,
    fmax_hz: float | None,
    wavelength_m: float | None,
) -> UnfoldResult:
    """The lattice frequency (b + q*Theta) * spacing nearest the coarse estimate.

    q ranges over the integers with |frequency| <= fmax_hz (default half the
    span Theta*spacing). Among equally near candidates the higher frequency
    wins, and the result is then not sign-resolved.
    """
    span = theta * spacing
    fmax = span / 2.0 if fmax_hz is None else float(fmax_hz)
    base = b * spacing
    q_lo = math.ceil((-fmax - base) / span)
    q_hi = math.floor((fmax - base) / span)
    candidates = [base + q * span for q in range(q_lo, q_hi + 1)]
    if not candidates:
        raise OutOfWindowError(
            f"no unfolded frequency for bin {b} within +-{fmax} Hz"
        )
    best = min(candidates, key=lambda f: (abs(f - coarse_hz), -f))
    ties = [f for f in candidates if abs(abs(f - coarse_hz) - abs(best - coarse_hz)) <= 1e-9 * max(1.0, abs(best))]
    sign_resolved = len(ties) == 1
    velocity = doppler_to_velocity(best, wavelength_m) if wavelength_m else math.nan
    return UnfoldResult(
        bin=b,
        doppler_hz=best,
        velocity_mps=velocity,
        sign_resolved=sign_resolved,
        coarse_hz=float(coarse_hz),
    )


def unfold(
    residues: Sequence[int],
    channels: Sequence[PrfChannel],
    coarse_hz: float,
    fmax_hz: float | None = None,
    wavelength_m: float | None = None,
) -> UnfoldResult:
    """Recover the true Doppler frequency from per-channel folded bins.

    Solves the congruence system for the true bin b in [0, Theta), then picks
    the lattice frequency (b + q*Theta) * spacing (integer q, magnitude
    bounded by fmax_hz) closest to the coarse estimate. fmax_hz defaults to
    half the full unfolded span Theta*spacing/2. Velocity is reported when a
    wavelength is supplied, else NaN.
    """
    if len(residues) != len(channels):
        raise ValueError("one residue per channel required")
    spacing = common_bin_spacing(channels)
    moduli = tuple(ch.num_pulses for ch in channels)
    b = ccrt_solve(moduli, residues)
    return _nearest_lattice(b, spacing, math.prod(moduli), coarse_hz, fmax_hz, wavelength_m)


def unfold_tolerant(
    residues: Sequence[int],
    channels: Sequence[PrfChannel],
    coarse_hz: float,
    fmax_hz: float | None = None,
    wavelength_m: float | None = None,
) -> UnfoldResult:
    """Coincidence-mode unfold for imperfect residue measurements.

    Channel spacings are averaged instead of required identical, and every
    per-channel residue perturbation within +-1 bin is tried; the solution
    whose unfolded frequency lands closest to the coarse estimate wins (the
    first in (-1, 0, 1)-product order among equals). Use this only when the
    configuration cannot guarantee one exact shared bin spacing; the exact
    :func:`unfold` is the reference behavior.
    """
    if len(residues) != len(channels):
        raise ValueError("one residue per channel required")
    mean_spacing = sum(ch.bin_spacing for ch in channels) / len(channels)
    moduli = tuple(ch.num_pulses for ch in channels)
    # mean_spacing as a channel of prf mean_spacing * M_0 reports it: the
    # round trip through the prf can move the last bit, and the unfolded
    # frequencies are built on the rounded value
    spacing = PrfChannel(prf=mean_spacing * moduli[0], num_pulses=moduli[0]).bin_spacing
    measured = np.array([_integral(r, "residue") for r in residues])
    deltas = np.array(list(itertools.product((-1, 0, 1), repeat=len(moduli))))
    bins = ccrt_solve(moduli, (measured + deltas) % np.array(moduli))
    theta = math.prod(moduli)
    best: UnfoldResult | None = None
    for b in bins.tolist():
        try:
            res = _nearest_lattice(b, spacing, theta, coarse_hz, fmax_hz, wavelength_m)
        except OutOfWindowError:
            continue
        if best is None or abs(res.doppler_hz - coarse_hz) < abs(best.doppler_hz - coarse_hz):
            best = res
    if best is None:
        raise OutOfWindowError("no residue perturbation yields an in-window frequency")
    return best
