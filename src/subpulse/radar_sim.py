"""End-to-end pulsed radar simulation: waveform, echoes, compression, maps.

A linear-FM pulse train is transmitted on several PRF channels. Each received
pulse is range-compressed against each of N replica segments (compress_sp);
the segment outputs sum to the full-replica compression. A per-range 2-D DFT
over the pulse and segment axes gives the segment map (coarse resolution,
wide Doppler tolerance), and its zero-segment-frequency slice is the pulse
map (fine resolution, narrow tolerance). The peaks of both maps feed the
congruence-based velocity unfolding in ccrt.

Compression and both DFTs are linear, so the DFTs come first: the pulse
DFT on the raw receive windows, and the segment DFT folded into N
phase-stepped copies of the replica, a subpulse-Doppler filter bank. Each
channel's windows become one 2-D spectrum X (the pulse DFT, then each
row's DFT at the correlation length nfft), and every cell of its segment
map is |IFFT(X_k B_l)|, B_l the bank's conjugated spectra. The map comes
one pulse-Doppler row at a time, each row reduced to |.| at once, so the
complex (pulse, segment, range) cube is never held.

run_pipeline, and the CLI's simulate through the same private helper,
carries each channel on its own thread from echo to peaks. Only two things
of a channel's segment map are read: its pulse map (for the peak and the
median) and the subpulse-Doppler bin of its peak (the coarse vote). A run
that exports nothing therefore bounds the cells of row k by the triangle
inequality over the inverse FFT, U_k = (1 + 1e-6) max_l (1/nfft) sum_f
|X_k(f)| |B_l(f)| plus the smallest normal double, and inverse-transforms
whole only the rows, in descending U_k, until one's bound falls strictly
below the largest row maximum so far; with a target in the scene that is
about one of M rows, and every row left gives its pulse-map row from the
zero-segment correlation alone. The margin is sound because the computed
sum is off by at most about nfft eps (~1e-12) relative, and the FFT
correlation by the same order; the added double covers what falls below
the normal range, where errors are absolute. The cells computed are the
bits a whole map holds and every skipped cell is strictly below the peak,
so the peaks are the whole map's.
A run that exports maps makes every row into a whole map from the same X,
picks its peaks from it and writes it. Only the peaks come back to be
fused, so no channel's maps outlive its thread.

Intra-pulse Doppler is modelled as a phase that advances once per subpulse
interval; that is what degrades the full-replica compression of fast targets
while the shorter segments tolerate it (see synth_echo for why the hold is
deliberate).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ccrt import (
    OutOfWindowError,
    PrfChannel,
    UnfoldResult,
    _check_spacings,
    unfold,
    unfold_tolerant,
    velocity_to_doppler,
)
from .numerics import (
    RngStream,
    _correlate,
    _finite,
    _integral,
    _replica_spectra,
    _thread_map,
    matched_filter,
)

__all__ = [
    "SPEED_OF_LIGHT",
    "DETECTION_THRESHOLD",
    "RadarSetup",
    "TargetTruth",
    "DopplerMap",
    "ChannelDetection",
    "DetectionReport",
    "make_lfm",
    "split_subpulses",
    "synth_echo",
    "compress_sp",
    "build_datacube",
    "doppler_maps",
    "detect_and_unfold",
    "simulate_channel",
    "run_pipeline",
    "export_maps",
]

SPEED_OF_LIGHT = 299_792_458.0

# peak-to-median ratio a map peak must reach to count as a detection
DETECTION_THRESHOLD = 3.0


@dataclass(frozen=True)
class RadarSetup:
    """Waveform and channel-set description.

    The wavelength is derived from the carrier; use :meth:`build` for the
    default sample rate of 4x bandwidth.
    """

    carrier_hz: float
    pulse_width_s: float
    bandwidth_hz: float
    sample_rate_hz: float
    channels: tuple

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        _finite(self.carrier_hz, "carrier_hz", "positive")
        _finite(self.pulse_width_s, "pulse_width_s", "positive")
        # checked before sample_rate_hz, which build() derives from it
        _finite(self.bandwidth_hz, "bandwidth_hz", "non-negative")
        _finite(self.sample_rate_hz, "sample_rate_hz", "positive")
        if self.sample_rate_hz < 2.0 * self.bandwidth_hz:
            raise ValueError(
                f"sample_rate_hz {self.sample_rate_hz!r} must be at least twice "
                f"bandwidth_hz {self.bandwidth_hz!r}"
            )
        if self.pulse_width_s * self.sample_rate_hz < 8:
            raise ValueError("pulse must span at least 8 samples")
        for ch in self.channels:
            if not isinstance(ch, PrfChannel):
                raise TypeError(f"channels must be PrfChannel, got {type(ch).__name__}")
            if 1.0 / ch.prf < self.pulse_width_s:
                raise ValueError(
                    f"channel PRI {1.0 / ch.prf!r} s is shorter than the "
                    f"pulse width {self.pulse_width_s!r} s"
                )

    @classmethod
    def build(cls, carrier_hz, pulse_width_s, bandwidth_hz, channels, sample_rate_hz=None):
        if sample_rate_hz is None:
            sample_rate_hz = 4.0 * bandwidth_hz
        return cls(
            carrier_hz=float(carrier_hz),
            pulse_width_s=float(pulse_width_s),
            bandwidth_hz=float(bandwidth_hz),
            sample_rate_hz=float(sample_rate_hz),
            channels=tuple(channels),
        )

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def replica_length(self) -> int:
        return int(round(self.pulse_width_s * self.sample_rate_hz))


@dataclass(frozen=True)
class TargetTruth:
    """Ground-truth point target; negative radial velocity means receding."""

    range_m: float
    radial_velocity_mps: float
    amplitude: float = 1.0

    def __post_init__(self):
        _finite(self.range_m, "range_m", "positive")
        _finite(self.radial_velocity_mps, "radial_velocity_mps")
        _finite(self.amplitude, "amplitude", "non-negative")


@dataclass(frozen=True)
class DopplerMap:
    """Magnitude maps of one channel.

    sp: [pulse-doppler bin, subpulse-doppler bin, range bin], the 2-D DFT
        of the per-segment compression.
    pp: [pulse-doppler bin, range bin], the full-replica map: the view
        sp[:, 0, :], sp's zero subpulse-doppler slice.
    """

    channel: PrfChannel
    sp: np.ndarray

    @property
    def pp(self) -> np.ndarray:
        return self.sp[:, 0, :]


@dataclass(frozen=True)
class ChannelDetection:
    apparent_bin: int
    coarse_bin: int
    peak_range_bin: int
    peak_ratio: float  # pulse-map peak over map median

    @property
    def detected(self) -> bool:
        return self.peak_ratio >= DETECTION_THRESHOLD


@dataclass(frozen=True)
class DetectionReport:
    channels: tuple
    fused: UnfoldResult | None

    @property
    def detected(self) -> bool:
        return self.fused is not None

    @property
    def velocity_mps(self) -> float:
        return math.nan if self.fused is None else self.fused.velocity_mps


def make_lfm(setup: RadarSetup) -> np.ndarray:
    """Unit-magnitude linear-FM replica sampled on [-tau/2, tau/2)."""
    length = setup.replica_length
    t = np.arange(length) / setup.sample_rate_hz - setup.pulse_width_s / 2.0
    rate = setup.bandwidth_hz / setup.pulse_width_s
    return np.exp(1j * math.pi * rate * t * t)


def split_subpulses(replica: Sequence, n: int) -> list:
    """Cut the replica into n contiguous segments of near-equal length.

    Lengths differ by at most one sample; the leftover samples go to the
    trailing segments so the final one is never the short one. Concatenating
    the segments reproduces the replica.
    """
    arr = np.asarray(replica)
    n = _integral(n, "subpulse count", 1)
    if n > arr.size:
        raise ValueError(f"cannot split {arr.size} samples into {n} subpulses")
    base, rem = divmod(arr.size, n)
    lengths = [base] * (n - rem) + [base + 1] * rem
    return np.split(arr, np.cumsum(lengths)[:-1])


def synth_echo(
    setup: RadarSetup,
    channel: PrfChannel,
    truth: TargetTruth,
    rng: RngStream = None,
    noise_sigma: float = 0.0,
) -> np.ndarray:
    """Raw receive window per pulse, shape (num_pulses, PRI samples).

    The echo is the replica delayed by round(2*range/c * Fs) samples and
    rotated by the Doppler phase exp(j 2 pi f_d (m/prf + t_fast)), where
    t_fast is the sample time inside the pulse repetition interval held
    constant over each subpulse interval (the phase advances at the subpulse
    rate N/tau). The hold matters for a chirp: with a continuous per-sample
    ramp the chirp's range-Doppler coupling re-absorbs the mismatch into a
    range shift, hiding exactly the full-replica degradation the subpulse
    path exists to survive; sampling at the rate the segment axis is read at
    keeps the two compression paths comparable. Complex white noise of
    per-component variance noise_sigma^2/2 is added when noise_sigma > 0
    (real grid drawn first, then imaginary).
    """
    _finite(noise_sigma, "noise_sigma", "non-negative")
    if noise_sigma > 0 and rng is None:
        raise ValueError("an RngStream is required when noise_sigma > 0")
    replica = make_lfm(setup)
    length = replica.size
    window = int(round(setup.sample_rate_hz / channel.prf))
    delay = int(round(2.0 * truth.range_m / SPEED_OF_LIGHT * setup.sample_rate_hz))
    if delay < 0 or delay + length > window:
        raise OutOfWindowError(
            f"echo at delay {delay} samples (+{length} long) does not fit the "
            f"{window}-sample receive window of prf {channel.prf} Hz"
        )
    f_d = velocity_to_doppler(truth.radial_velocity_mps, setup.wavelength_m)
    pulses = np.arange(channel.num_pulses)[:, None]
    lengths = [len(s) for s in split_subpulses(replica, channel.num_subpulses)]
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    t_fast = (delay + starts)[None, :] / setup.sample_rate_hz
    phase = np.exp(2j * math.pi * f_d * (pulses / channel.prf + t_fast))
    rx = np.zeros((channel.num_pulses, window), dtype=np.complex128)
    rx[:, delay : delay + length] = truth.amplitude * replica[None, :] * phase
    if noise_sigma > 0:
        g = rng.generator
        scale = noise_sigma / math.sqrt(2.0)
        # in place, with no complex temporary; adding to each part alone
        # keeps the bits of adding a real and then an imaginary grid
        rx.real += g.normal(0.0, scale, rx.shape)
        rx.imag += g.normal(0.0, scale, rx.shape)
    return rx


def compress_sp(rx_per_pulse, subpulse_replicas) -> np.ndarray:
    """Per-segment range compression, segments aligned to one range axis.

    Each segment's output is shifted back by the segment's offset inside the
    pulse, so a stationary scatterer peaks in the same range bin in every
    segment. On that shared axis the segment outputs sum to the full-replica
    compression (correlation is linear in the replica). Shape (pulses,
    segments, range).

    Every segment is zero-padded into its slot of a replica-length kernel, so
    the offset alignment is part of the kernel and one matched_filter call
    against the stack of kernels serves all segments.
    """
    segments = [np.asarray(s) for s in subpulse_replicas]
    if not segments or min(seg.size for seg in segments) == 0:
        raise ValueError("every subpulse replica must be non-empty")
    sizes = [seg.size for seg in segments]
    kernels = np.zeros((len(segments), sum(sizes)), dtype=np.complex128)
    for row, seg, start in zip(kernels, segments, np.cumsum(sizes) - sizes):
        row[start : start + seg.size] = seg
    return matched_filter(rx_per_pulse, kernels)


def build_datacube(profiles, channel: PrfChannel) -> np.ndarray:
    """compress_sp output (pulses, segments, range) of `channel` as its
    [range, pulse, subpulse] cube, a transposed view of complex128 profiles,
    not a copy. A ValueError when the profiles are not 3-D, do not match the
    channel's counts or hold a non-finite entry.
    """
    arr = np.asarray(profiles, dtype=np.complex128)
    if arr.ndim != 3:
        raise ValueError(f"expected (pulses, segments, range) profiles, got shape {arr.shape}")
    if arr.shape[:2] != (channel.num_pulses, channel.num_subpulses):
        raise ValueError(
            f"profiles of shape {arr.shape} do not match channel "
            f"({channel.num_pulses} pulses, {channel.num_subpulses} subpulses)"
        )
    if not np.isfinite(arr).all():
        raise ValueError("profile entries must be finite")
    return arr.transpose(2, 0, 1)


def _channel_spectra(rx_per_pulse, subpulse_replicas, channel: PrfChannel):
    """The one 2-D spectrum both segment-map routes read, from a channel's
    checked receive windows: X, (M, nfft), their pulse-axis DFT and then
    each row's DFT at the length nfft that correlates it with the filter
    bank; the conjugated spectra of that bank, (N, nfft), row l the
    segments rotated by l s / N turns; and the segment map's
    (pulse-Doppler, subpulse-Doppler, range) shape. Segment-map row k is
    |IFFT(X_k B_l)| over l at the valid lags."""
    segments = [np.asarray(seg) for seg in subpulse_replicas]
    if not segments or min(seg.size for seg in segments) == 0:
        raise ValueError("every subpulse replica must be non-empty")
    rx = np.asarray(rx_per_pulse, dtype=np.complex128)
    if rx.ndim != 2 or rx.shape[0] != channel.num_pulses or len(segments) != channel.num_subpulses:
        raise ValueError(
            f"{rx.shape} receive windows and {len(segments)} segments do not match channel "
            f"({channel.num_pulses} pulses, {channel.num_subpulses} subpulses)"
        )
    if not np.isfinite(rx).all():
        raise ValueError("receive window samples must be finite")
    n = len(segments)
    # (l s) mod N first keeps every phase as accurate as the N-th roots of unity
    phases = np.exp(2j * math.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
    bank = np.concatenate(segments) * np.repeat(phases, [seg.size for seg in segments], axis=1)
    if bank.shape[1] > rx.shape[1]:
        raise ValueError("replica must not be longer than rx")
    bank_spectra = _replica_spectra(bank, rx.shape[1])
    # the windows zero-padded to nfft; both DFTs in place, so X is the only
    # array of its size, and its rows have the bits of np.fft.fft(row, n=nfft)
    spectra = np.zeros((rx.shape[0], bank_spectra.shape[1]), dtype=np.complex128)
    spectra[:, : rx.shape[1]] = rx
    np.fft.fft(spectra, axis=0, out=spectra)
    np.fft.fft(spectra, axis=1, out=spectra)
    return spectra, bank_spectra, (rx.shape[0], n, rx.shape[1] - bank.shape[1] + 1)


def _map_rows(spectra, bank_spectra, out) -> np.ndarray:
    """`out`, an (M, N, R) buffer, filled with the segment-map magnitudes
    from _channel_spectra's X and bank spectra.

    Each pulse-Doppler row is reduced to |.| straight from the inverse-FFT
    buffer, so the complex (pulse, segment, range) cube is never held.
    """
    product = np.empty_like(bank_spectra)
    for row, spectrum in zip(out, spectra):
        np.abs(_correlate(spectrum, bank_spectra, product, out.shape[-1]), out=row)
    return out


def doppler_maps(rx_per_pulse, subpulse_replicas, channel: PrfChannel) -> DopplerMap:
    """Magnitude Doppler maps of one channel's receive windows.

    The segment map is |2-D DFT| over (pulse, segment) of
    compress_sp(rx_per_pulse, subpulse_replicas); the pulse map is its
    zero-segment-frequency slice, where the segment DFT is the segment sum,
    the full-replica compression.

    Correlation and both DFTs are linear, so they are taken in another
    order. The pulse DFT runs on the raw receive windows. The segment DFT
    folds into the replica: row l of the filter bank concatenates segment s
    times exp(+2 pi i ((l s) mod N) / N) over s, and correlating with it
    (which conjugates the bank) sums the segment outputs with the DFT
    weights exp(-2 pi i l s / N). Correlating against the N rows, as
    matched_filter does, then costs what the per-segment compression costs,
    and no per-range transform is left. Each pulse-Doppler row is reduced to
    magnitudes as soon as it is correlated.
    """
    spectra, bank_spectra, shape = _channel_spectra(rx_per_pulse, subpulse_replicas, channel)
    sp = _map_rows(spectra, bank_spectra, out=np.empty(shape))
    return DopplerMap(channel=channel, sp=sp)


def _coarse_bin_to_hz(l_bin: int, num_subpulses: int, pulse_width_s: float) -> float:
    # segment-axis DFT bin spacing is 1/tau; bins above half map to negative
    # frequencies. The Nyquist bin reads +fmax; the unfold scores it at both edges
    if l_bin > num_subpulses / 2:
        l_bin -= num_subpulses
    return l_bin / pulse_width_s


def _check_channel_set(channels: Sequence[PrfChannel], spacing_tolerance_hz: float) -> None:
    if not channels:
        raise ValueError("at least one channel map is required")
    _check_spacings(channels, spacing_tolerance_hz)
    subpulse_counts = {ch.num_subpulses for ch in channels}
    if len(subpulse_counts) != 1:
        raise ValueError(f"channels disagree on subpulse count: {sorted(subpulse_counts)}")


def _pick_peaks(sp) -> ChannelDetection:
    """One channel's peaks from its segment map: the pulse-map peak (the
    pulse map is sp[:, 0, :]), its ratio to the pulse-map median, and the
    segment-map peak's subpulse-Doppler bin (the channel's coarse vote).
    Both peaks are np.argmax's first occurrence."""
    coarse_bin = int(np.unravel_index(int(np.argmax(sp)), sp.shape)[1])
    return _detection(sp[:, 0, :].copy(), coarse_bin)


def _detection(pp, coarse_bin: int) -> ChannelDetection:
    """A channel's detection from its pulse map, which it overwrites, and
    the subpulse-Doppler bin of its segment-map peak."""
    k_bin, r_bin = np.unravel_index(int(np.argmax(pp)), pp.shape)
    peak = float(pp[k_bin, r_bin])
    median = float(np.median(pp, overwrite_input=True))
    # a median under one ulp of the peak is round-off of the FFT
    # correlation over a noiseless map, not a noise floor; a map that is
    # zero throughout holds no peak at all
    if median > peak * np.finfo(float).eps:
        ratio = peak / median
    else:
        ratio = math.inf if peak > 0 else 0.0
    return ChannelDetection(
        apparent_bin=int(k_bin),
        coarse_bin=coarse_bin,
        peak_range_bin=int(r_bin),
        peak_ratio=ratio,
    )


def _pruned_peaks(spectra, bank_spectra, shape) -> ChannelDetection:
    """_pick_peaks' detection of the segment map of `shape` (M, N, R) that
    _map_rows would make from _channel_spectra's X and bank spectra,
    inverse-transforming whole only the rows that may hold its peak.

    By the triangle inequality over the inverse FFT, every |C_l[k, r]| of
    row k is at most U_k = max_l (1/nfft) sum_f |X_k(f)| |B_l(f)|, with B_l
    the conjugated bank spectra: one product |X| |B|^T for every row,
    times 1 + 1e-6, plus the smallest normal double. The computed sum is off
    by at most about nfft eps (~1e-12) relative in any order of summation,
    and the computed correlation by the same order, so the margin keeps U_k
    a bound on the computed cells; the added double covers the absolute
    error of the products and sums that fall below the normal range, where
    no relative bound holds. Rows are transformed whole in descending U_k
    until one's U_k falls strictly below the largest row maximum so far:
    every cell of each row left is strictly below the segment-map peak. A row
    left gives its pulse-map row from the l = 0 correlation alone (the
    median needs every row). The values are the bits _map_rows makes, and
    the peak is np.argmax's first occurrence over the whole map, so the
    detection is _pick_peaks'.
    """
    num_rows, num_ranges = shape[0], shape[2]
    bounds = (np.abs(spectra) @ np.abs(bank_spectra).T).max(axis=1)
    bounds *= (1.0 + 1e-6) / spectra.shape[1]
    bounds += np.finfo(float).tiny
    pp = np.empty((num_rows, num_ranges))
    product = np.empty_like(bank_spectra)
    row = np.empty(shape[1:])
    # a row left keeps the maximum -inf, below every |.| kept, so the
    # first-occurrence argmax is _pick_peaks' over the whole map
    row_peaks = np.full(num_rows, -math.inf)
    row_coarse = np.zeros(num_rows, dtype=np.intp)
    for k in np.argsort(-bounds, kind="stable").tolist():
        if bounds[k] < row_peaks.max():
            break
        np.abs(_correlate(spectra[k], bank_spectra, product, num_ranges), out=row)
        pp[k] = row[0]
        flat = int(np.argmax(row))
        row_peaks[k] = row.flat[flat]
        row_coarse[k] = flat // num_ranges
    # numpy multiplies a lone element with other bits in a (1, 1) product
    # than in a (1,) one, so a one-segment bank is read as _map_rows reads it
    zero = slice(0, 1) if shape[1] == 1 else 0
    for k in np.flatnonzero(np.isneginf(row_peaks)).tolist():
        zero_segment = _correlate(spectra[k], bank_spectra[zero], product[zero], num_ranges)
        np.abs(zero_segment, out=pp[k : k + 1])
    return _detection(pp, int(row_coarse[int(np.argmax(row_peaks))]))


def _fuse(
    detections: Sequence[ChannelDetection],
    channels: Sequence[PrfChannel],
    setup: RadarSetup,
    spacing_tolerance_hz: float,
) -> DetectionReport:
    """Unfold the channels' peaks into one velocity, for a checked channel set."""
    detections = tuple(detections)
    fused = None
    if all(d.detected for d in detections):
        num_subpulses = channels[0].num_subpulses
        coarse = float(np.median([
            _coarse_bin_to_hz(d.coarse_bin, num_subpulses, setup.pulse_width_s) for d in detections
        ]))
        unfolder = unfold_tolerant if spacing_tolerance_hz > 0 else unfold
        # a residue set with no lattice point in the window detects nothing
        with contextlib.suppress(OutOfWindowError):
            fused = unfolder(
                residues=[d.apparent_bin for d in detections],
                channels=channels,
                coarse_hz=coarse,
                fmax_hz=num_subpulses / (2.0 * setup.pulse_width_s),
                wavelength_m=setup.wavelength_m,
            )
    return DetectionReport(channels=detections, fused=fused)


def detect_and_unfold(
    maps: Sequence[DopplerMap],
    setup: RadarSetup,
    spacing_tolerance_hz: float = 0.0,
) -> DetectionReport:
    """Peak-pick every channel's maps and fuse them into one velocity.

    A channel detects when its pulse-map peak reaches 3x the map median. The
    folded pulse-map bins become congruence residues; the median segment-axis
    frequency across channels picks the unfolded lattice point. Any channel
    below threshold, or a residue set with no lattice point inside the
    segment-axis window, yields a no-detection report.

    A positive spacing_tolerance_hz switches to coincidence-mode unfolding
    (mean bin spacing, at most one residue corrected by one bin) for channel
    sets whose spacings differ by at most that much; exact congruence
    unfolding (no correction) is the reference behavior and stays the
    default. A ValueError, whatever the maps hold, when the channels' bin
    spacings do not meet the tolerance, when the tolerance is negative or
    not finite, or when the channels disagree on the subpulse count.
    """
    channels = [m.channel for m in maps]
    _check_channel_set(channels, spacing_tolerance_hz)
    detections = [_pick_peaks(m.sp) for m in maps]
    return _fuse(detections, channels, setup, spacing_tolerance_hz)


def simulate_channel(
    setup: RadarSetup,
    channel: PrfChannel,
    truth: TargetTruth,
    rng: RngStream = None,
    noise_sigma: float = 0.0,
) -> DopplerMap:
    """Synthesize one channel and carry it to its DopplerMap."""
    rx = synth_echo(setup, channel, truth, rng=rng, noise_sigma=noise_sigma)
    segments = split_subpulses(make_lfm(setup), channel.num_subpulses)
    return doppler_maps(rx, segments, channel)


def _simulate_and_detect(
    setup: RadarSetup,
    truth: TargetTruth,
    seed: int | None,
    noise_sigma: float,
    spacing_tolerance_hz: float,
    export: Callable[[int, DopplerMap], list] = None,
) -> tuple[DetectionReport, list]:
    """run_pipeline's report, and the lists `export(index, maps)` returned,
    joined in channel order ([] without `export`).

    The channel set, and a seed for any noise, are checked first. Every
    channel's thread then takes one 2-D spectrum X of its receive windows
    (synth_echo) and the filter bank's spectra (_channel_spectra), and both
    routes read them. Without `export`, _pruned_peaks bounds every cell of
    each segment-map row and inverse-transforms whole only the rows that
    may hold the segment-map peak (about one of M with a target in the
    scene, all M on noise alone); the other rows give only their pulse-map
    row, so no map is held whole. With `export`, _map_rows fills a whole segment map (the
    files need the whole grid), _pick_peaks reads it, and the map goes to
    `export`. Both give the same detections, bit for bit, and only the
    peaks are kept, so no channel's maps outlive its thread.
    """
    _check_channel_set(setup.channels, spacing_tolerance_hz)
    if noise_sigma > 0 and seed is None:
        raise ValueError("a seed is required when noise_sigma > 0")

    def channel_peaks(index: int) -> tuple[ChannelDetection, list]:
        channel = setup.channels[index]
        rng = RngStream(seed, stream_id=index) if seed is not None else None
        segments = split_subpulses(make_lfm(setup), channel.num_subpulses)
        # no name holds the receive windows once X is taken from them
        spectra, bank_spectra, shape = _channel_spectra(
            synth_echo(setup, channel, truth, rng=rng, noise_sigma=noise_sigma), segments, channel
        )
        if export is None:
            return _pruned_peaks(spectra, bank_spectra, shape), []
        sp = _map_rows(spectra, bank_spectra, out=np.empty(shape))
        del spectra, bank_spectra  # read no more, so not held while the map is written
        return _pick_peaks(sp), export(index, DopplerMap(channel=channel, sp=sp))

    results = _thread_map(channel_peaks, len(setup.channels))
    report = _fuse(
        [detection for detection, _ in results], setup.channels, setup, spacing_tolerance_hz
    )
    return report, [item for _, exported in results for item in exported]


def run_pipeline(
    setup: RadarSetup,
    truth: TargetTruth,
    seed: int = None,
    noise_sigma: float = 0.0,
    spacing_tolerance_hz: float = 0.0,
) -> DetectionReport:
    """Simulate every channel and fuse the detections.

    Channel i draws from RngStream(seed, stream_id=i), so the channels run
    side by side on threads and the report does not depend on the schedule.
    Each thread picks its own channel's peaks without simulate_channel or
    doppler_maps: from one 2-D spectrum X of its receive windows it
    inverse-transforms whole only the segment-map rows whose bound on their
    cells reaches the largest row maximum found, and of the rest only the
    pulse-map row, so no map is held whole, and the peaks are those
    detect_and_unfold picks from the whole maps; only the peaks are kept.
    A ValueError naming the seed when noise_sigma > 0 and no seed is given,
    before any channel runs.
    """
    return _simulate_and_detect(setup, truth, seed, noise_sigma, spacing_tolerance_hz)[0]


def _export_float32(path, array, axis_names, meta: dict = None) -> Path:
    """Write a real array as little-endian float32 plus a JSON sidecar.

    The sidecar (at path + '.json') records dtype, shape, axis names, and
    row-major ordering so the grid can be reloaded without guessing.
    """
    arr = np.asarray(array)
    names = list(axis_names)
    if arr.ndim != len(names):
        raise ValueError(f"{arr.ndim}-D grid needs {arr.ndim} axis names, got {names}")
    out = Path(path)
    arr.astype("<f4").tofile(out)
    sidecar = {
        "dtype": "<f4",
        "order": "C",
        "shape": [int(s) for s in arr.shape],
        "axes": names,
    }
    if meta:
        sidecar.update(meta)
    Path(str(out) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return out


def export_maps(dmap: DopplerMap, path_base) -> tuple:
    base = str(path_base)
    pp_path = _export_float32(
        base + ".pp.f32", dmap.pp, ("pulse_doppler", "range"), meta={"prf_hz": dmap.channel.prf}
    )
    sp_path = _export_float32(
        base + ".sp.f32",
        dmap.sp,
        ("pulse_doppler", "subpulse_doppler", "range"),
        meta={"prf_hz": dmap.channel.prf},
    )
    return pp_path, sp_path
