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

from .numerics import _finite, _integral

__all__ = [
    "PrfChannel",
    "UnfoldResult",
    "NotInvertibleError",
    "OutOfWindowError",
    "modular_inverse",
    "ccrt_solve",
    "common_bin_spacing",
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
        _finite(self.prf, "prf", "positive")
        for name in ("num_pulses", "num_subpulses"):
            object.__setattr__(self, name, _integral(getattr(self, name), name, 1))

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
    a, m = _integral(a, "a"), _integral(m, "modulus", 1)
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"{a} has no inverse modulo {m} (gcd {math.gcd(a, m)})"
        ) from None


def _check_moduli(moduli: tuple[int, ...]) -> None:
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
    moduli = tuple(_integral(m, "modulus", 1) for m in moduli)
    if not moduli:
        raise ValueError("moduli must be non-empty")
    basis = _basis(moduli)
    r = np.asarray(residues)
    if r.dtype.kind not in "iu":
        r = np.asarray(residues, dtype=object)  # a mixed list keeps its own values
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


def doppler_to_velocity(f_d: float, wavelength: float) -> float:
    """Radial velocity for a Doppler shift: v = f * wavelength / 2."""
    return f_d * _finite(wavelength, "wavelength", "positive") / 2.0


def velocity_to_doppler(v: float, wavelength: float) -> float:
    """Doppler shift for a radial velocity: f = 2 v / wavelength."""
    return 2.0 * v / _finite(wavelength, "wavelength", "positive")


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


def _check_spacings(channels: Sequence[PrfChannel], spacing_tolerance_hz: float) -> None:
    """Refuse a channel set that cannot unfold under `spacing_tolerance_hz`.

    Zero asks for exact unfolding, so one shared bin spacing; a positive
    tolerance asks for coincidence mode, so bin spacings that spread no
    wider than it. A negative or non-finite tolerance is refused by name.
    """
    _finite(spacing_tolerance_hz, "spacing_tolerance_hz", "non-negative")
    if spacing_tolerance_hz == 0:
        common_bin_spacing(channels)
        return
    spacings = [ch.bin_spacing for ch in channels]
    spread = max(spacings) - min(spacings)
    if spread > spacing_tolerance_hz:
        raise ValueError(
            f"bin spacings spread {spread:.6g} Hz exceeds "
            f"spacing_tolerance_hz={spacing_tolerance_hz:.6g}"
        )


def _search(
    residues: Sequence[int],
    channels: Sequence[PrfChannel],
    spacing: float,
    corrections: bool,
    coarse_hz: float,
    fmax_hz: float | None,
    wavelength_m: float | None,
) -> UnfoldResult:
    """The best lattice frequency (b + q*Theta) * spacing with |f| <= fmax_hz.

    b solves the measured residues; with `corrections` the 2L bins
    (b +- beta_i) mod Theta, the solves with one residue a bin off, join it.
    Candidates rank by corrected residues, then distance to the coarse
    estimate, then higher frequency; a coarse estimate at exactly +-fmax_hz
    (the segment axis's Nyquist bin, whose sign is unknown) is scored against
    both edges. fmax_hz defaults to half the span Theta*spacing; a tie in the
    first two keys is not sign-resolved.
    """
    if len(residues) != len(channels):
        raise ValueError("one residue per channel required")
    moduli = tuple(ch.num_pulses for ch in channels)
    measured = ccrt_solve(moduli, residues)
    theta = math.prod(moduli)
    bins = [(0, measured)]
    if corrections:
        bins += [(1, (measured + s * beta) % theta) for beta in _basis(moduli) for s in (-1, 1)]
    span = theta * spacing
    fmax = span / 2.0 if fmax_hz is None else _finite(float(fmax_hz), "fmax_hz", "non-negative")
    coarse_hz = _finite(float(coarse_hz), "coarse_hz")
    edges = (fmax, -fmax) if abs(coarse_hz) == fmax else (coarse_hz,)
    candidates = []  # (corrected residues, coarse distance, frequency, bin)
    for corrected, b in bins:
        base = b * spacing
        for q in range(math.ceil((-fmax - base) / span), math.floor((fmax - base) / span) + 1):
            f = base + q * span
            candidates.append((corrected, min(abs(f - e) for e in edges), f, b))
    if not candidates:
        where = f"bin {measured}" + (" or any one-residue correction" if corrections else "")
        raise OutOfWindowError(f"no unfolded frequency for {where} within +-{fmax} Hz")
    corrected, distance, best, b = min(candidates, key=lambda c: (c[0], c[1], -c[2]))
    near = 1e-9 * max(1.0, abs(best))
    ties = sum(c[0] == corrected and abs(c[1] - distance) <= near for c in candidates)
    velocity = math.nan if wavelength_m is None else doppler_to_velocity(best, wavelength_m)
    return UnfoldResult(bin=b, doppler_hz=best, velocity_mps=velocity,
                        sign_resolved=ties == 1, coarse_hz=coarse_hz)


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
    wavelength is supplied, else NaN. No residue is corrected, so a residue
    set with no lattice point in the window (noise, mostly) raises
    OutOfWindowError.
    """
    spacing = common_bin_spacing(channels)
    return _search(residues, channels, spacing, False, coarse_hz, fmax_hz, wavelength_m)


def unfold_tolerant(
    residues: Sequence[int],
    channels: Sequence[PrfChannel],
    coarse_hz: float,
    fmax_hz: float | None = None,
    wavelength_m: float | None = None,
) -> UnfoldResult:
    """Coincidence-mode unfold for imperfect residue measurements.

    Channel spacings are averaged instead of required identical, and one
    residue may be off by one bin: the measured residues win whenever they
    unfold in the window, else the one-residue correction nearest the coarse
    estimate; a set two corrections from every window bin raises
    OutOfWindowError. Use this only when the configuration cannot guarantee
    one shared bin spacing; the exact :func:`unfold` is the reference.
    """
    if not channels:
        raise ValueError("channel list must be non-empty")
    mean_spacing = sum(ch.bin_spacing for ch in channels) / len(channels)
    m0 = channels[0].num_pulses
    # mean_spacing as a channel of prf mean_spacing * M_0 reports it: the
    # round trip through the prf can move the last bit, and the unfolded
    # frequencies are built on the rounded value
    spacing = PrfChannel(prf=mean_spacing * m0, num_pulses=m0).bin_spacing
    return _search(residues, channels, spacing, True, coarse_hz, fmax_hz, wavelength_m)
