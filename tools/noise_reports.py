#!/usr/bin/env python3
"""How often a noise-only scene reports a velocity, in both unfolding modes.

    PYTHONPATH=src python3 tools/noise_reports.py $(seq 0 99)

Each seed is one `run_pipeline` scene on the README radar (PRFs 1100, 1300,
1700 and 1900 Hz, N = 8, tau = 25 us) with a target of amplitude 0 and noise
sigma 0.05, run once in exact mode and once in coincidence mode. A scene
reports when every channel crosses the detection threshold and the folded
peaks unfold inside the segment-axis window, +-N/(2 tau) = 160 kHz. A noise
peak's folded bin is uniform in each channel and independent across them,
so a scene whose channels all cross reports with the fraction of all
residue tuples that unfold, enumerated here through `unfold` and
`unfold_tolerant`. The one printed line gives, per mode, the reports, the
expected count (crossing scenes times that fraction) and its binomial SE.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from subpulse import (
    OutOfWindowError,
    PrfChannel,
    RadarSetup,
    TargetTruth,
    run_pipeline,
    unfold,
    unfold_tolerant,
)

MODULI = (11, 13, 17, 19)
NOISE_SIGMA = 0.05
# any positive tolerance selects coincidence mode; the spacings are equal
MODES = (("exact", unfold, 0.0), ("coincidence", unfold_tolerant, 1.0))


def unfolding_fraction(unfolder, channels, fmax_hz: float) -> float:
    """The fraction of all residue tuples of `channels` that unfold within +-fmax_hz."""
    accepted = total = 0
    for residues in itertools.product(*(range(ch.num_pulses) for ch in channels)):
        total += 1
        try:
            unfolder(list(residues), channels, coarse_hz=0.0, fmax_hz=fmax_hz)
        except OutOfWindowError:
            continue
        accepted += 1
    return accepted / total


def noise_reports(seeds) -> str:
    channels = [PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=8) for m in MODULI]
    setup = RadarSetup.build(
        carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=channels
    )
    fmax_hz = setup.channels[0].num_subpulses / (2.0 * setup.pulse_width_s)
    noise = TargetTruth(range_m=10e3, radial_velocity_mps=0.0, amplitude=0.0)
    parts = [f"seeds={len(seeds)}"]
    for name, unfolder, tolerance in MODES:
        crossed = reported = 0
        for seed in seeds:
            report = run_pipeline(setup, noise, seed=seed, noise_sigma=NOISE_SIGMA,
                                  spacing_tolerance_hz=tolerance)
            crossed += all(ch.detected for ch in report.channels)
            reported += report.detected
        fraction = unfolding_fraction(unfolder, setup.channels, fmax_hz)
        se = math.sqrt(crossed * fraction * (1.0 - fraction))
        parts.append(
            f"{name}: {reported}/{len(seeds)} reported, {crossed} crossed x "
            f"{100 * fraction:.2f} % enumerated = {crossed * fraction:.1f} +- {se:.1f}"
        )
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    print(noise_reports(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
