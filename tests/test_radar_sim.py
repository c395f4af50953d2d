"""End-to-end simulator tests: waveform, echoes, compression, maps, fusion.

The channel set mirrors the reference experiment: 6 GHz carrier, 25 us pulse,
2 MHz chirp, four coprime pulse counts sharing a 100 Hz Doppler bin.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subpulse import numerics, radar_sim
from subpulse.numerics import matched_filter
from subpulse import (
    OutOfWindowError,
    PrfChannel,
    RadarSetup,
    RngStream,
    TargetTruth,
    SPEED_OF_LIGHT,
    build_datacube,
    compress_sp,
    detect_and_unfold,
    doppler_maps,
    export_maps,
    make_lfm,
    run_pipeline,
    simulate_channel,
    split_subpulses,
    synth_echo,
    velocity_to_doppler,
)

MODULI = (11, 13, 17, 19)
THETA = 11 * 13 * 17 * 19


@pytest.fixture(scope="module")
def setup():
    channels = [PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=8) for m in MODULI]
    return RadarSetup.build(
        carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=channels
    )


def expected_delay_bin(setup, range_m=10e3):
    return round(2.0 * range_m / SPEED_OF_LIGHT * setup.sample_rate_hz)


class TestWaveform:
    def test_samples_have_unit_magnitude(self, setup):
        replica = make_lfm(setup)
        assert replica.size == 200
        np.testing.assert_allclose(np.abs(replica), 1.0, atol=1e-12)

    def test_compressed_mainlobe_width_tracks_bandwidth(self, setup):
        replica = make_lfm(setup)
        ac = np.abs(np.correlate(replica, replica, mode="full"))
        above = np.nonzero(ac >= ac.max() * 10 ** (-4 / 20))[0]
        width = above[-1] - above[0] + 1
        nominal = setup.sample_rate_hz / setup.bandwidth_hz
        assert nominal - 1 <= width <= nominal + 2

    def test_zero_bandwidth_collapses_to_constant_phase(self):
        ch = [PrfChannel(prf=1000.0, num_pulses=4, num_subpulses=2)]
        flat = RadarSetup.build(6e9, 25e-6, 0.0, ch, sample_rate_hz=8e6)
        replica = make_lfm(flat)
        assert np.max(np.abs(np.angle(replica))) < 1e-12

    def test_setup_validation(self):
        ch = [PrfChannel(prf=1000.0, num_pulses=4)]
        assert RadarSetup.build(6e9, 25e-6, 2e6, ch).wavelength_m == SPEED_OF_LIGHT / 6e9
        with pytest.raises(ValueError):
            RadarSetup.build(6e9, 25e-6, 2e6, ch, sample_rate_hz=3e6)  # under Nyquist
        with pytest.raises(ValueError):
            RadarSetup.build(6e9, 2e-3, 2e6, ch)  # PRI shorter than the pulse

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["carrier_hz", "pulse_width_s", "bandwidth_hz", "sample_rate_hz"])
    def test_non_finite_field_is_refused_by_name(self, field, value):
        fields = {"carrier_hz": 6e9, "pulse_width_s": 25e-6, "bandwidth_hz": 2e6, "sample_rate_hz": None}
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RadarSetup.build(channels=[PrfChannel(prf=1000.0, num_pulses=4)], **fields)


class TestSplit:
    def test_even_split(self):
        parts = split_subpulses(np.arange(400), 8)
        assert [len(p) for p in parts] == [50] * 8

    def test_remainder_goes_to_the_tail(self):
        parts = split_subpulses(np.arange(401), 8)
        assert [len(p) for p in parts] == [50] * 7 + [51]

    def test_identity_split(self):
        x = np.arange(13)
        (only,) = split_subpulses(x, 1)
        np.testing.assert_array_equal(only, x)

    def test_concatenation_reproduces_input(self):
        x = np.random.default_rng(0).normal(size=37)
        for n in (1, 2, 3, 5, 8, 37):
            np.testing.assert_array_equal(np.concatenate(split_subpulses(x, n)), x)

    def test_oversplit_rejected(self):
        with pytest.raises(ValueError):
            split_subpulses(np.arange(4), 5)

    def test_non_integral_count_is_refused_by_name(self):
        with pytest.raises(ValueError, match="subpulse count must be an integer, got 2.5"):
            split_subpulses(np.arange(40), 2.5)


class TestEcho:
    def test_stationary_target_compresses_to_full_gain(self, setup):
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=0.0)
        rx = synth_echo(setup, setup.channels[0], truth)
        profile = np.abs(compress_sp(rx, [make_lfm(setup)])[0, 0])
        peak_bin = int(np.argmax(profile))
        assert peak_bin == expected_delay_bin(setup)
        assert profile[peak_bin] == pytest.approx(200.0, rel=1e-9)

    def test_doppler_phase_advances_at_the_subpulse_rate(self, setup):
        channel = setup.channels[0]
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=900.0)
        rx = synth_echo(setup, channel, truth)
        f_d = velocity_to_doppler(900.0, setup.wavelength_m)
        assert f_d == pytest.approx(36000.0, rel=1e-3)
        replica = make_lfm(setup)
        delay = expected_delay_bin(setup)
        lengths = [len(s) for s in split_subpulses(replica, channel.num_subpulses)]
        starts = np.repeat(np.concatenate([[0], np.cumsum(lengths[:-1])]), lengths)
        t_fast = (delay + starts) / setup.sample_rate_hz
        for m in (0, 3, channel.num_pulses - 1):
            expected = replica * np.exp(2j * math.pi * f_d * (m / channel.prf + t_fast))
            np.testing.assert_allclose(rx[m, delay : delay + 200], expected, atol=1e-9)

    def test_noise_only_output_is_rayleigh_after_compression(self, setup):
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=0.0, amplitude=0.0)
        rx = synth_echo(setup, setup.channels[0], truth, rng=RngStream(5, 0), noise_sigma=0.7)
        mags = np.abs(compress_sp(rx, [make_lfm(setup)])[:, 0, :]).ravel()
        assert mags.size > 10 ** 4
        fitted_scale = math.sqrt(float(np.mean(mags ** 2)) / 2.0)
        # compressed noise per-component deviation: noise_sigma * sqrt(E/2)
        assert fitted_scale == pytest.approx(0.7 * math.sqrt(200.0 / 2.0), rel=0.02)

    @pytest.mark.parametrize("amplitude", [1.0, 0.0])
    def test_noise_keeps_the_bits_of_a_real_then_an_imaginary_grid(self, setup, amplitude):
        # the echo occupies 200 of the 7273 samples of a window; the rest,
        # and with amplitude 0 all of it, starts at exactly zero
        channel = setup.channels[0]
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=-900.0, amplitude=amplitude)
        want = synth_echo(setup, channel, truth)
        assert np.count_nonzero(want == 0) >= want.size - 200 * channel.num_pulses
        g = RngStream(9, 2).generator
        scale = 0.3 / math.sqrt(2.0)
        want += g.normal(0.0, scale, want.shape)
        want += 1j * g.normal(0.0, scale, want.shape)
        got = synth_echo(setup, channel, truth, rng=RngStream(9, 2), noise_sigma=0.3)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_echo_beyond_the_receive_window_rejected(self, setup):
        too_far = TargetTruth(range_m=140e3, radial_velocity_mps=0.0)
        with pytest.raises(OutOfWindowError):
            synth_echo(setup, setup.channels[0], too_far)

    def test_noise_requires_a_stream(self, setup):
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=0.0)
        with pytest.raises(ValueError):
            synth_echo(setup, setup.channels[0], truth, noise_sigma=0.5)

    @pytest.mark.parametrize("noise_sigma", [math.nan, math.inf, -0.5])
    def test_invalid_noise_sigma_is_refused_by_name(self, setup, noise_sigma):
        # nan compares False both ways, so a bare `< 0` check lets it through
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=-900.0)
        with pytest.raises(ValueError, match=f"noise_sigma must be finite and non-negative, got {noise_sigma}"):
            synth_echo(setup, setup.channels[0], truth, rng=RngStream(1), noise_sigma=noise_sigma)
        with pytest.raises(ValueError, match="noise_sigma"):
            run_pipeline(setup, truth, seed=1, noise_sigma=noise_sigma)


class TestCompression:
    def test_stationary_subpeaks_are_one_nth_of_the_full_peak(self, setup):
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=0.0)
        rx = synth_echo(setup, setup.channels[0], truth)
        replica = make_lfm(setup)
        full = np.abs(compress_sp(rx, [replica])[0, 0]).max()
        sub = np.abs(compress_sp(rx, split_subpulses(replica, 8))[0]).max(axis=1)
        np.testing.assert_allclose(sub / full, 1.0 / 8.0, rtol=1e-6)

    def test_single_segment_reproduces_full_compression(self, setup):
        truth = TargetTruth(range_m=10e3, radial_velocity_mps=-700.0)
        rx = synth_echo(setup, setup.channels[0], truth)
        replica = make_lfm(setup)
        pp = compress_sp(rx, [replica])[:, 0, :]
        sp = compress_sp(rx, split_subpulses(replica, 1))
        np.testing.assert_array_equal(sp[:, 0, :], pp)

    @pytest.mark.parametrize("n", [1, 7, 8])
    def test_fft_correlation_matches_direct_per_segment_reference(self, setup, n):
        # n = 7 splits the 200-sample replica into unequal segments; the
        # second window is exactly replica-long, leaving a single range bin,
        # and one sample less leaves none
        channel = setup.channels[0]
        replica = make_lfm(setup)
        segments = split_subpulses(replica, n)
        offsets = np.cumsum([0] + [len(s) for s in segments[:-1]])
        noisy = synth_echo(
            setup, channel, TargetTruth(10e3, -900.0), rng=RngStream(3, 0), noise_sigma=0.5
        )
        exact_fit = noisy[:, 100 : 100 + replica.size]
        for rx in (noisy, exact_fit):
            out_len = rx.shape[1] - replica.size + 1
            reference = np.stack(
                [
                    np.stack(
                        [
                            np.correlate(row, seg, "valid")[off : off + out_len]
                            for seg, off in zip(segments, offsets)
                        ]
                    )
                    for row in rx
                ]
            )
            got = compress_sp(rx, segments)
            assert got.shape == (rx.shape[0], n, out_len)
            peak = np.abs(reference).max()
            assert np.abs(got - reference).max() <= 1e-12 * peak
        with pytest.raises(ValueError):
            compress_sp(exact_fit[:, 1:], segments)

    def test_segment_path_tolerates_doppler_on_a_plain_pulse(self):
        # unmodulated rectangle, f_d * tau = 0.9: the full-pulse correlation
        # loses sinc(0.9) while each eighth only loses sinc(0.9/8)
        length = 400
        replica = np.ones(length, complex)
        rx = (replica * np.exp(2j * np.pi * 0.9 * np.arange(length) / length))[None, :]
        full = np.abs(compress_sp(rx, [replica])[:, 0, :]).max()
        sub = np.abs(compress_sp(rx, split_subpulses(replica, 8))).max()
        assert sub > full
        model = abs(
            (math.sin(math.pi * 0.9 / 8) / (math.pi * 0.9 / 8))
            / (8 * math.sin(math.pi * 0.9) / (math.pi * 0.9))
        )
        assert sub / full == pytest.approx(model, rel=0.2)


def fft_reference_maps(rx, segments):
    """|fft2| over (pulse, segment) of the compress_sp cube: the maps
    doppler_maps computes, by the route its filter bank replaces."""
    return np.abs(np.fft.fft2(compress_sp(rx, segments), axes=(0, 1)))


class TestMaps:
    @pytest.mark.parametrize("pulses, segments", [(1, 1), (1, 8), (11, 8), (31, 32), (64, 8), (13, 7)])
    def test_matches_the_fft_on_random_cubes(self, pulses, segments):
        # random windows and replica; 200 samples split 32 or 7 ways gives
        # segments of unequal length
        rng = np.random.default_rng(pulses * 100 + segments)
        channel = PrfChannel(prf=1000.0, num_pulses=pulses, num_subpulses=segments)
        replica = rng.normal(size=200) + 1j * rng.normal(size=200)
        rx = rng.normal(size=(pulses, 296)) + 1j * rng.normal(size=(pulses, 296))
        parts = split_subpulses(replica, segments)
        dmap = doppler_maps(rx, parts, channel)
        reference = fft_reference_maps(rx, parts)
        assert dmap.sp.shape == reference.shape == (pulses, segments, 97)
        assert np.abs(dmap.sp - reference).max() <= 1e-12 * reference.max()
        np.testing.assert_array_equal(dmap.pp, dmap.sp[:, 0, :])

    def test_noisy_scene_peaks_match_the_fft_route(self, setup):
        rng = np.random.default_rng(2024)
        segments = split_subpulses(make_lfm(setup), 8)
        for seed in range(20):
            truth = TargetTruth(float(rng.uniform(2e3, 70e3)), float(rng.uniform(-3800.0, 3800.0)))
            for i, channel in enumerate(setup.channels):
                dmap = simulate_channel(
                    setup, channel, truth, rng=RngStream(seed, i), noise_sigma=0.05
                )
                rx = synth_echo(setup, channel, truth, rng=RngStream(seed, i), noise_sigma=0.05)
                reference = fft_reference_maps(rx, segments)
                assert np.argmax(dmap.sp) == np.argmax(reference)
                assert np.argmax(dmap.pp) == np.argmax(reference[:, 0, :])

    def test_on_lattice_tone_peaks_at_folded_bin_and_range(self, setup):
        channel = setup.channels[0]
        v = -40 * 100.0 * setup.wavelength_m / 2.0  # bin -40 on the shared lattice
        dmap = simulate_channel(setup, channel, TargetTruth(10e3, v))
        k, r = np.unravel_index(int(np.argmax(dmap.pp)), dmap.pp.shape)
        assert (k, r) == ((-40) % channel.num_pulses, expected_delay_bin(setup))

    def test_pulse_map_is_the_zero_segment_slice(self, setup):
        channel = setup.channels[0]
        truth = TargetTruth(10e3, -900.0)
        dmap = simulate_channel(setup, channel, truth)
        # independent route: full-replica compression, then the pulse-axis DFT
        full = compress_sp(synth_echo(setup, channel, truth), [make_lfm(setup)])[:, 0, :]
        np.testing.assert_allclose(dmap.pp, np.abs(np.fft.fft(full, axis=0)), rtol=1e-10, atol=1e-9)

    def test_zero_input_gives_zero_maps(self, setup):
        channel = setup.channels[0]
        window = int(round(setup.sample_rate_hz / channel.prf))
        rx = np.zeros((channel.num_pulses, window), complex)
        dmap = doppler_maps(rx, split_subpulses(make_lfm(setup), 8), channel)
        assert np.all(dmap.pp == 0.0) and np.all(dmap.sp == 0.0)

    def test_map_energy_matches_cube_energy_per_range_bin(self, setup):
        channel = setup.channels[0]
        segments = split_subpulses(make_lfm(setup), 8)
        rx = synth_echo(setup, channel, TargetTruth(10e3, -900.0), rng=RngStream(2, 0), noise_sigma=0.3)
        dmap = doppler_maps(rx, segments, channel)
        cube = compress_sp(rx, segments)
        pulses, parts = cube.shape[:2]
        cube_energy = (np.abs(cube) ** 2).sum(axis=(0, 1))
        map_energy = (dmap.sp ** 2).sum(axis=(0, 1)) / (pulses * parts)
        np.testing.assert_allclose(map_energy, cube_energy, rtol=1e-12)

    def test_maps_keep_the_bits_of_the_full_correlation_cube(self, setup):
        # the magnitudes of matched_filter's complex (pulse, segment, range)
        # cube against the filter bank, the route the maps took before they
        # were reduced window by window
        channel = setup.channels[0]
        segments = split_subpulses(make_lfm(setup), 8)
        rx = synth_echo(setup, channel, TargetTruth(10e3, -900.0), rng=RngStream(4, 0), noise_sigma=0.3)
        n = len(segments)
        phases = np.exp(2j * math.pi * (np.outer(np.arange(n), np.arange(n)) % n) / n)
        bank = np.concatenate(segments) * np.repeat(phases, [seg.size for seg in segments], axis=1)
        cube = np.abs(matched_filter(np.fft.fft(rx, axis=0), bank))
        dmap = doppler_maps(rx, segments, channel)
        np.testing.assert_array_equal(dmap.sp, cube)
        np.testing.assert_array_equal(dmap.pp, cube[:, 0, :])

    def test_maps_are_made_without_the_complex_cube(self, setup):
        # the complex cube alone is twice the magnitude maps
        channel = setup.channels[0]
        segments = split_subpulses(make_lfm(setup), 8)
        rx = synth_echo(setup, channel, TargetTruth(10e3, -900.0), rng=RngStream(4, 0), noise_sigma=0.3)
        doppler_maps(rx, segments, channel)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            dmap = doppler_maps(rx, segments, channel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert channel.num_pulses == 11
        assert peak < 2.5 * dmap.sp.nbytes

    def test_a_plain_run_never_holds_the_segment_map(self, setup):
        # a run that exports nothing transforms whole only the rows that
        # may hold the segment-map peak
        single = RadarSetup.build(
            carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=setup.channels[:1]
        )
        truth = TargetTruth(10e3, -900.0)
        sp_bytes = simulate_channel(single, single.channels[0], truth).sp.nbytes
        # a first run keeps first-call allocations out of the count
        run_pipeline(single, truth, seed=3, noise_sigma=0.05)
        tracemalloc.start()
        try:
            run_pipeline(single, truth, seed=3, noise_sigma=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert single.channels[0].num_pulses == 11 and sp_bytes == 11 * 8 * 7074 * 8
        assert peak < sp_bytes

    def test_windows_must_match_the_channel(self, setup):
        channel = setup.channels[0]
        segments = split_subpulses(make_lfm(setup), 8)
        rx = np.ones((channel.num_pulses, 400), complex)
        with pytest.raises(ValueError, match="do not match channel"):
            doppler_maps(rx[1:], segments, channel)
        with pytest.raises(ValueError, match="do not match channel"):
            doppler_maps(rx, segments[:7], channel)
        rx[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            doppler_maps(rx, segments, channel)

    def test_datacube_shape_validation(self, setup):
        channel = setup.channels[0]
        profiles = np.zeros((channel.num_pulses, channel.num_subpulses, 5), complex)
        with pytest.raises(ValueError, match="expected"):
            build_datacube(profiles[0], channel)
        with pytest.raises(ValueError, match="do not match channel"):
            build_datacube(profiles[1:], channel)
        profiles[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            build_datacube(profiles, channel)
        profiles[0, 0, 0] = 0
        cube = build_datacube(profiles, channel)
        assert cube.shape == (5, channel.num_pulses, channel.num_subpulses)
        assert np.shares_memory(cube, profiles)


class TestTargetTruth:
    @pytest.mark.parametrize("field, value", [
        ("amplitude", math.nan),
        ("amplitude", math.inf),
        ("amplitude", -1.0),
        ("range_m", math.inf),
        ("range_m", math.nan),
        ("range_m", 0.0),
        ("radial_velocity_mps", math.nan),
        ("radial_velocity_mps", -math.inf),
    ])
    def test_invalid_field_is_refused_by_name(self, field, value):
        fields = {"range_m": 10e3, "radial_velocity_mps": -900.0, "amplitude": 1.0}
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            TargetTruth(**fields)


def skewed_setup():
    # the coincidence-mode radar: the third channel's prf is 0.3 Hz off
    channels = [
        PrfChannel(prf=prf, num_pulses=m, num_subpulses=8)
        for prf, m in zip((1100, 1300, 1700.3, 1900), MODULI)
    ]
    return RadarSetup.build(carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=channels)


class TestDetection:
    def test_noiseless_receding_target_recovers_velocity(self, setup):
        report = run_pipeline(setup, TargetTruth(range_m=10e3, radial_velocity_mps=-900.0))
        assert report.detected
        quarter_bin = 100.0 * setup.wavelength_m / 4.0
        assert abs(report.velocity_mps + 900.0) <= quarter_bin

    def test_stationary_target_reports_zero(self, setup):
        report = run_pipeline(setup, TargetTruth(range_m=10e3, radial_velocity_mps=0.0))
        assert report.detected
        assert report.velocity_mps == 0.0
        assert [c.apparent_bin for c in report.channels] == [0, 0, 0, 0]
        # a noiseless map has no noise floor; round-off must not fake one
        assert all(math.isinf(c.peak_ratio) for c in report.channels)

    def test_noise_only_input_is_rejected_by_the_threshold(self, setup):
        silent = TargetTruth(range_m=10e3, radial_velocity_mps=0.0, amplitude=0.0)
        report = run_pipeline(setup, silent, seed=1, noise_sigma=1.0)
        assert not report.detected
        assert report.fused is None
        assert math.isnan(report.velocity_mps)

    def test_an_empty_noiseless_scene_detects_nothing(self, setup):
        # every map is zero throughout: no peak, so no ratio to a floor
        silent = TargetTruth(range_m=10e3, radial_velocity_mps=-900.0, amplitude=0.0)
        report = run_pipeline(setup, silent)
        assert [c.peak_ratio for c in report.channels] == [0.0] * len(setup.channels)
        assert not any(c.detected for c in report.channels)
        assert not report.detected and math.isnan(report.velocity_mps)

    def test_noise_without_a_seed_is_refused_before_any_channel_runs(self, setup, monkeypatch):
        def synth(*args, **kwargs):
            raise AssertionError("a channel was simulated")

        monkeypatch.setattr(radar_sim, "synth_echo", synth)
        with pytest.raises(ValueError, match="seed"):
            run_pipeline(setup, TargetTruth(10e3, -900.0), seed=None, noise_sigma=0.05)

    def test_coincidence_mode_unfolds_a_target_on_the_nyquist_vote(self):
        # below -3.4 km/s every channel's segment-axis peak is the Nyquist
        # bin, read as +fmax; scored against +fmax alone the unfold lands
        # 7.3 km/s away, on the other side of the window
        skewed = skewed_setup()
        truth = TargetTruth(range_m=6734.7, radial_velocity_mps=-3769.622)
        report = run_pipeline(
            skewed, truth, seed=1662192019, noise_sigma=0.05, spacing_tolerance_hz=1.0
        )
        assert report.detected
        assert [c.coarse_bin for c in report.channels] == [4, 4, 4, 4]
        assert abs(report.velocity_mps + 3769.622) <= 4.0

    def test_pipeline_is_deterministic_for_a_fixed_seed(self, setup):
        truth = TargetTruth(10e3, -900.0)
        a = run_pipeline(setup, truth, seed=7, noise_sigma=0.5)
        b = run_pipeline(setup, truth, seed=7, noise_sigma=0.5)
        assert a.velocity_mps == b.velocity_mps
        assert [c.peak_ratio for c in a.channels] == [c.peak_ratio for c in b.channels]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_report_and_maps_do_not_depend_on_the_thread_count(self, setup, monkeypatch, cpus):
        truth = TargetTruth(10e3, -900.0)
        serial = [
            simulate_channel(setup, ch, truth, rng=RngStream(7, i), noise_sigma=0.5)
            for i, ch in enumerate(setup.channels)
        ]
        seen = {}

        def record(index, dmap):
            # each channel's thread hands over its maps here and writes its own key
            seen[index] = dmap
            return []

        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline left its one route")

        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        # neither a plain run nor an exporting run makes its maps through
        # simulate_channel or doppler_maps; only the exporting one fills a
        # whole map on the way
        monkeypatch.setattr(radar_sim, "simulate_channel", refuse)
        monkeypatch.setattr(radar_sim, "doppler_maps", refuse)
        report = run_pipeline(setup, truth, seed=7, noise_sigma=0.5)
        exported, _ = radar_sim._simulate_and_detect(setup, truth, 7, 0.5, 0.0, export=record)
        assert report == exported == detect_and_unfold(serial, setup)
        assert set(seen) == set(range(len(serial)))
        for index, want in enumerate(serial):
            got = seen[index]
            assert got.channel == want.channel
            np.testing.assert_array_equal(got.sp, want.sp)
            np.testing.assert_array_equal(got.pp, want.pp)

    def test_apparent_bins_fold_the_true_bin(self, setup):
        # high-SNR trials on lattice velocities: every channel's measured bin
        # must be the true bin's residue
        rng = np.random.default_rng(99)
        channels = setup.channels
        for trial in range(25):
            b_d = int(rng.integers(-THETA // 2, THETA // 2))
            v = b_d * 100.0 * setup.wavelength_m / 2.0
            report = run_pipeline(setup, TargetTruth(10e3, v), seed=trial, noise_sigma=0.01)
            for ch, det in zip(channels, report.channels):
                assert det.apparent_bin == (b_d % THETA) % ch.num_pulses

    def test_segment_map_peak_never_falls_below_pulse_map_peak(self, setup):
        peaks = {}
        for v in (300.0, 600.0, 900.0):
            dmap = simulate_channel(setup, setup.channels[0], TargetTruth(10e3, v))
            pp_peak = float(dmap.pp.max())
            sp_peak = float(dmap.sp.max())
            assert sp_peak >= pp_peak * (1.0 - 1e-9)
            peaks[v] = (pp_peak, sp_peak)
        # fastest case: clear strict advantage for the segment path
        pp_900, sp_900 = peaks[900.0]
        assert sp_900 / pp_900 > 1.02

    @staticmethod
    def whole_map_peaks(sp):
        """The peak pick over the whole stacked map: np.argmax over the
        pulse map sp[:, 0, :] and over sp, and the pulse map's median."""
        pp = sp[:, 0, :]
        k_bin, r_bin = np.unravel_index(int(np.argmax(pp)), pp.shape)
        median = float(np.median(pp))
        peak = float(pp[k_bin, r_bin])
        if median > peak * np.finfo(float).eps:
            ratio = peak / median
        else:
            ratio = math.inf if peak > 0 else 0.0
        _, l_bin, _ = np.unravel_index(int(np.argmax(sp)), sp.shape)
        return radar_sim.ChannelDetection(
            apparent_bin=int(k_bin),
            coarse_bin=int(l_bin),
            peak_range_bin=int(r_bin),
            peak_ratio=ratio,
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
        # few distinct values, so ties across rows are the rule
        elements=st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf]),
    ))
    @example(np.zeros((3, 2, 4)))
    @example(np.full((2, 3, 2), math.inf))
    @example(np.array([[[1.0, 3.0]], [[3.0, math.inf]], [[math.inf, 2.0]]]))
    def test_pick_matches_the_whole_map_reference(self, sp):
        want = self.whole_map_peaks(sp)
        assert radar_sim._pick_peaks(sp) == want
        if not sp.any():
            assert want.peak_ratio == 0.0

    def test_empty_map_list_rejected(self, setup):
        with pytest.raises(ValueError):
            detect_and_unfold([], setup)

    @pytest.mark.parametrize("prfs, tolerance, match", [
        ((1100, 1300, 1700.3, 1900), 1e-6,
         r"bin spacings spread 0\.0176471 Hz exceeds spacing_tolerance_hz=1e-06"),
        ((1100, 1300, 1700, 1900), math.nan, "spacing_tolerance_hz must be finite and non-negative"),
        ((1100, 1300, 1700, 1900), math.inf, "spacing_tolerance_hz must be finite and non-negative"),
        ((1100, 1300, 1700, 1900), -1.0, "spacing_tolerance_hz must be finite and non-negative"),
    ], ids=["spread-above-tolerance", "nan", "inf", "negative"])
    def test_pipeline_honours_the_spacing_tolerance(self, prfs, tolerance, match):
        channels = [
            PrfChannel(prf=prf, num_pulses=m, num_subpulses=8) for prf, m in zip(prfs, MODULI)
        ]
        skewed = RadarSetup.build(
            carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=channels
        )
        with pytest.raises(ValueError, match=match):
            run_pipeline(skewed, TargetTruth(10e3, -900.0), spacing_tolerance_hz=tolerance)

    def test_the_channel_set_is_checked_before_any_channel_is_simulated(self, monkeypatch):
        channels = [
            PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=n) for m, n in ((11, 8), (13, 4))
        ]
        mixed = RadarSetup.build(
            carrier_hz=6e9, pulse_width_s=25e-6, bandwidth_hz=2e6, channels=channels
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a channel was simulated before the check")

        # every channel starts at synth_echo, exporting or not; simulate_channel
        # is refused too, should a channel ever be simulated through it again
        monkeypatch.setattr(radar_sim, "synth_echo", refuse)
        monkeypatch.setattr(radar_sim, "simulate_channel", refuse)
        with pytest.raises(ValueError, match=r"channels disagree on subpulse count: \[4, 8\]"):
            run_pipeline(mixed, TargetTruth(10e3, -900.0))

    def test_mixed_subpulse_counts_are_refused_below_the_threshold_too(self, setup):
        # flat maps: peak over median is 1, so no channel reaches the threshold
        maps = [
            radar_sim.DopplerMap(
                channel=PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=n),
                sp=np.ones((m, n, 5)),
            )
            for m, n in ((11, 8), (13, 4))
        ]
        with pytest.raises(ValueError, match=r"channels disagree on subpulse count: \[4, 8\]"):
            detect_and_unfold(maps, setup)
        assert not detect_and_unfold(maps[:1], setup).detected

    def test_the_pulse_map_is_a_view_of_the_segment_map(self, setup):
        dmap = simulate_channel(setup, setup.channels[0], TargetTruth(10e3, -900.0))
        assert np.shares_memory(dmap.pp, dmap.sp)
        np.testing.assert_array_equal(dmap.pp, dmap.sp[:, 0, :])

    @pytest.mark.parametrize("build, field", [
        (lambda ch, sp: radar_sim.DopplerMap(channel=ch, sp=sp, pp=sp[:, 0, :]), "pp"),
        (lambda ch, sp: radar_sim.DetectionReport(channels=(), fused=None, velocity_mps=0.0),
         "velocity_mps"),
        (lambda ch, sp: radar_sim.DetectionReport(channels=(), fused=None, detected=True),
         "detected"),
        (lambda ch, sp: radar_sim.ChannelDetection(
            apparent_bin=0, coarse_bin=0, peak_range_bin=0, peak_ratio=4.0, detected=True),
         "detected"),
    ], ids=["DopplerMap-pp", "DetectionReport-velocity_mps", "DetectionReport-detected",
            "ChannelDetection-detected"])
    def test_the_derived_fields_are_refused(self, setup, build, field):
        # each follows from what the record holds; a caller still passing
        # one must hear so rather than have it disagree with its source
        with pytest.raises(TypeError, match=f"'{field}'"):
            build(setup.channels[0], np.ones((11, 8, 5)))

    def test_a_channel_detects_from_its_peak_ratio_at_the_threshold(self):
        def channel(ratio):
            return radar_sim.ChannelDetection(
                apparent_bin=0, coarse_bin=0, peak_range_bin=0, peak_ratio=ratio
            )

        threshold = radar_sim.DETECTION_THRESHOLD
        assert channel(threshold).detected and channel(math.inf).detected
        assert not channel(math.nextafter(threshold, 0.0)).detected

    def test_a_report_derives_detection_and_velocity_from_its_unfolding(self, setup):
        report = run_pipeline(setup, TargetTruth(range_m=10e3, radial_velocity_mps=-900.0))
        assert report.detected and report.velocity_mps == report.fused.velocity_mps
        empty = radar_sim.DetectionReport(channels=report.channels, fused=None)
        assert not empty.detected and math.isnan(empty.velocity_mps)


def channel_spectra(setup, channel, truth, seed, noise_sigma):
    """The receive windows and segments of one channel, and the conjugated
    bank spectra, map shape and 2-D spectrum X that a plain run's channel
    takes from them."""
    rng = RngStream(seed, stream_id=setup.channels.index(channel))
    rx = synth_echo(setup, channel, truth, rng=rng, noise_sigma=noise_sigma)
    segments = split_subpulses(make_lfm(setup), channel.num_subpulses)
    spectra, bank_spectra, shape = radar_sim._channel_spectra(rx, segments, channel)
    return rx, segments, bank_spectra, shape, spectra


SPECTRUM_VALUES = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def pruned_search_inputs(draw):
    """An X and bank spectra of up to 8 rows, 4 segments and 256 bins, with
    rows copied from others (exact ties), rows or all of X zero, and X and
    the bank on supports that overlap a little or not at all; and a map
    shape whose range count fits the spectra."""
    rows, segments = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    nfft = draw(st.integers(1, 256))
    spectra = draw(hnp.arrays(np.complex128, (rows, nfft), elements=SPECTRUM_VALUES))
    bank = draw(hnp.arrays(np.complex128, (segments, nfft), elements=SPECTRUM_VALUES))
    for k in range(rows):
        if draw(st.booleans()):
            spectra[k] = spectra[draw(st.integers(0, rows - 1))]
    zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows) | st.just([True] * rows))
    spectra[np.array(zero)] = 0
    support = draw(st.none() | hnp.arrays(np.bool_, nfft))
    if support is not None:
        spectra[:, ~support] = 0
        bank[:, support & ~draw(hnp.arrays(np.bool_, nfft))] = 0
    return spectra, bank, (rows, segments, draw(st.integers(1, nfft)))


class TestPrunedPeaks:
    """A plain run transforms whole only the segment-map rows that may hold
    the peak; its detections must be the whole-map pick's, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pruned_search_inputs())
    # one bin and one segment: numpy multiplies a lone element of a (1, 1)
    # product with other bits than of a (1,) one
    @example((np.array([[3.263 + 0.011j], [4.0 + 0.0j]]), np.array([[1.5 + 445.0j]]), (2, 1, 1)))
    # products below the normal range, where no relative margin holds
    @example((
        np.array([[2 - 4j, -1 + 0j], [-3 - 3j, 4 + 3j]]) * 1e-162,
        np.array([[-4 - 1j, -1 - 1j], [-1 - 3j, 1 - 2j]]) * 1e-162,
        (2, 2, 2),
    ))
    @example((np.zeros((3, 16), complex), np.ones((2, 16), complex), (3, 2, 9)))
    def test_drawn_spectra(self, inputs):
        spectra, bank, shape = inputs
        want = radar_sim._pick_peaks(radar_sim._map_rows(spectra, bank, np.empty(shape)))
        got = radar_sim._pruned_peaks(spectra, bank, shape)
        assert got == want
        assert got.peak_ratio.hex() == want.peak_ratio.hex()

    @staticmethod
    def assert_pruned_pick_is_the_whole_map_pick(setup, truth, seed, noise_sigma):
        for channel in setup.channels:
            rx, segments, bank, shape, spectra = channel_spectra(
                setup, channel, truth, seed, noise_sigma
            )
            whole = doppler_maps(rx, segments, channel).sp
            want = radar_sim._pick_peaks(whole)
            got = radar_sim._pruned_peaks(spectra, bank, shape)
            assert got == want
            assert got.peak_ratio.hex() == want.peak_ratio.hex()

    @pytest.mark.parametrize("skewed", [False, True], ids=["exact", "coincidence"])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_readme_scenes(self, setup, skewed, seed):
        radar = skewed_setup() if skewed else setup
        rng = np.random.default_rng(seed)
        truth = TargetTruth(float(rng.uniform(2e3, 60e3)), float(rng.uniform(-3800.0, 3800.0)))
        self.assert_pruned_pick_is_the_whole_map_pick(radar, truth, seed, 0.05)
        tolerance = 1.0 if skewed else 0.0
        maps = [
            simulate_channel(radar, ch, truth, rng=RngStream(seed, i), noise_sigma=0.05)
            for i, ch in enumerate(radar.channels)
        ]
        assert run_pipeline(radar, truth, seed, 0.05, tolerance) == detect_and_unfold(
            maps, radar, tolerance
        )

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    @pytest.mark.parametrize("bin_offset", [0.5, 0.25, 12.5, -0.5])
    def test_half_bin_velocities(self, setup, bin_offset, noise_sigma):
        # between two pulse-Doppler bins the target's energy splits across
        # two rows, whose maxima are nearly equal
        v = (-40 + bin_offset) * 100.0 * setup.wavelength_m / 2.0
        self.assert_pruned_pick_is_the_whole_map_pick(setup, TargetTruth(10e3, v), 5, noise_sigma)

    @pytest.mark.parametrize("amplitude", [0.0, 0.02, 0.05, 0.1])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_low_snr_and_noise_only_scenes(self, setup, amplitude, seed):
        truth = TargetTruth(25e3, -2000.0, amplitude)
        self.assert_pruned_pick_is_the_whole_map_pick(setup, truth, seed, 0.05)

    @pytest.mark.parametrize("doppler_bin", [0.0, -40.0, 17.0, -24.37, 600.2])
    def test_noiseless_scenes(self, setup, doppler_bin):
        # on a bin the bound of the target's row is tight: all of its
        # spectrum adds in phase at the peak
        v = doppler_bin * 100.0 * setup.wavelength_m / 2.0
        self.assert_pruned_pick_is_the_whole_map_pick(setup, TargetTruth(10e3, v), 0, 0.0)

    def test_noiseless_on_bin_target_reads_an_infinite_ratio(self, setup):
        report = run_pipeline(setup, TargetTruth(10e3, -40 * 100.0 * setup.wavelength_m / 2.0))
        assert all(math.isinf(c.peak_ratio) for c in report.channels)

    def test_an_empty_scene(self, setup):
        silent = TargetTruth(10e3, 0.0, amplitude=0.0)
        self.assert_pruned_pick_is_the_whole_map_pick(setup, silent, 0, 0.0)

    def test_the_pruning_engages(self, setup, monkeypatch):
        # count the inverse FFTs that transform a whole pulse-Doppler row
        # (all N subpulse-Doppler bins) per channel, told apart by length
        whole_rows = {}
        inverse = np.fft.ifft

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 2:
                length = np.shape(a)[-1]
                whole_rows[length] = whole_rows.get(length, 0) + 1
            return inverse(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        rng = np.random.default_rng(11)
        for seed in range(3):
            truth = TargetTruth(float(rng.uniform(2e3, 60e3)), float(rng.uniform(-3800.0, 3800.0)))
            whole_rows.clear()
            report = run_pipeline(setup, truth, seed=seed, noise_sigma=0.05)
            assert report.detected
            assert len(whole_rows) == len(setup.channels)
            assert all(1 <= count <= 2 for count in whole_rows.values())

    def test_an_exporting_run_fills_and_exports_every_row(self, setup, tmp_path):
        truth = TargetTruth(10e3, -2500.0)

        def export(index, dmap):
            return [str(p) for p in export_maps(dmap, tmp_path / f"ch{index}")]

        report, written = radar_sim._simulate_and_detect(setup, truth, 3, 0.05, 0.0, export=export)
        assert report == run_pipeline(setup, truth, seed=3, noise_sigma=0.05)
        assert len(written) == 2 * len(setup.channels)
        for index, channel in enumerate(setup.channels):
            want = simulate_channel(
                setup, channel, truth, rng=RngStream(3, index), noise_sigma=0.05
            )
            sp = np.fromfile(tmp_path / f"ch{index}.sp.f32", dtype="<f4")
            pp = np.fromfile(tmp_path / f"ch{index}.pp.f32", dtype="<f4")
            np.testing.assert_array_equal(sp, want.sp.astype("<f4").ravel())
            np.testing.assert_array_equal(pp, want.pp.astype("<f4").ravel())


class TestExport:
    def test_map_export_writes_both_grids(self, setup, tmp_path):
        dmap = simulate_channel(setup, setup.channels[0], TargetTruth(10e3, -300.0))
        pp_path, sp_path = export_maps(dmap, tmp_path / "maps")
        pp_meta = json.loads((tmp_path / "maps.pp.f32.json").read_text())
        raw = np.fromfile(pp_path, dtype="<f4").reshape(pp_meta["shape"])
        np.testing.assert_allclose(raw, dmap.pp.astype(np.float32), rtol=1e-6)
        assert sp_path.exists()
        assert pp_meta["prf_hz"] == setup.channels[0].prf
