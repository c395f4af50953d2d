"""Congruence solver tests: folding, modular arithmetic, velocity unfolding."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpulse import (
    NotInvertibleError,
    OutOfWindowError,
    PrfChannel,
    ccrt_solve,
    common_bin_spacing,
    doppler_to_velocity,
    modular_inverse,
    unfold,
    unfold_tolerant,
    velocity_to_doppler,
)

MODULI = (11, 13, 17, 19)
THETA = 11 * 13 * 17 * 19  # 46189


def reference_channels(num_subpulses=8, moduli=MODULI):
    # shared 100 Hz bin spacing, prf = 100 * M
    return [PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=num_subpulses) for m in moduli]


def accepted_bins(moduli, fmax_hz, corrections, spacing=100.0):
    """The bins b in [0, Theta) whose residues unfold within +-fmax_hz.

    Exact mode accepts the window W of the 2*floor(fmax/spacing) + 1 bins
    nearest zero. A residue one bin off in channel i moves the solved bin
    by +-beta_i, the bin that is 1 modulo M_i and 0 modulo every other
    modulus (found here by search), so one correction also accepts every
    (W +- beta_i) mod Theta.
    """
    theta = math.prod(moduli)
    half = math.floor(fmax_hz / spacing)
    window = {b % theta for b in range(-half, half + 1)}
    if not corrections:
        return window
    basis = [
        next(b for b in range(theta) if all(b % n == (j == i) for j, n in enumerate(moduli)))
        for i in range(len(moduli))
    ]
    moved = ({(w + s * beta) % theta for w in window} for beta in basis for s in (-1, 1))
    return window.union(*moved)


class TestModularInverse:
    def test_identity_modulus(self):
        assert modular_inverse(1, 7) == 1

    def test_matches_brute_force_scan(self):
        assert modular_inverse(8, 11) == 7
        assert [b for b in range(1, 11) if 8 * b % 11 == 1] == [7]

    def test_non_coprime_pair_rejected(self):
        with pytest.raises(NotInvertibleError):
            modular_inverse(6, 9)

    def test_non_integer_arguments_rejected(self):
        with pytest.raises(ValueError, match="a must be an integer"):
            modular_inverse(2.5, 7)
        with pytest.raises(ValueError, match="modulus must be an integer"):
            modular_inverse(2, 7.5)

    @given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_product_is_one_whenever_defined(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(NotInvertibleError, match=f"gcd {math.gcd(a, m)}"):
                modular_inverse(a, m)
        else:
            inv = modular_inverse(a, m)
            assert 0 <= inv < m and (inv >= 1 or m == 1)
            assert a * inv % m == 1 % m


class TestCcrtSolve:
    def test_two_modulus_example(self):
        assert ccrt_solve([3, 5], [2, 3]) == 8

    def test_all_zero_residues(self):
        assert ccrt_solve(MODULI, [0, 0, 0, 0]) == 0

    def test_reference_bin_thirty_six(self):
        residues = [36 % m for m in MODULI]
        assert residues == [3, 10, 2, 17]
        assert ccrt_solve(MODULI, residues) == 36

    def test_small_system_exhaustively(self):
        for b in range(3 * 5 * 7):
            assert ccrt_solve([3, 5, 7], [b % 3, b % 5, b % 7]) == b

    def test_non_coprime_moduli_rejected(self):
        with pytest.raises(NotInvertibleError):
            ccrt_solve([6, 9], [1, 2])

    def test_residue_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ccrt_solve([3, 5], [3, 0])
        with pytest.raises(ValueError, match="residue"):
            ccrt_solve((3, 5), (1.5, 2))
        with pytest.raises(ValueError, match="modulus"):
            ccrt_solve((3.9, 5), (1, 2))

    def test_theta_is_the_product(self):
        # the largest residue in every channel is the last bin before the wrap
        assert ccrt_solve(MODULI, [m - 1 for m in MODULI]) == THETA - 1


class TestCcrtSolveArray:
    def test_recovers_the_true_bins(self):
        rng = np.random.default_rng(3)
        bins = np.concatenate([np.arange(50), rng.integers(0, THETA, 500), [THETA - 1]])
        residues = bins[:, None] % np.array(MODULI)
        solved = ccrt_solve(MODULI, residues)
        assert solved.dtype == np.int64
        assert solved.tolist() == bins.tolist()
        one = ccrt_solve(MODULI, residues[60])
        assert type(one) is int and one == bins[60]

    def test_python_int_fallback_beyond_int64(self):
        moduli = (65521, 65519, 65497, 65479)  # primes near 2**16
        theta = math.prod(moduli)
        assert theta > 2 ** 63
        rng = np.random.default_rng(4)
        bins = [0, 1, theta - 1] + [int(rng.integers(0, 2 ** 62)) * 4 + k for k in range(3)]
        residues = np.array([[b % m for m in moduli] for b in bins])
        solved = ccrt_solve(moduli, residues)
        assert solved.dtype == object
        assert solved.tolist() == bins
        one = ccrt_solve(moduli, tuple(residues[2]))
        assert type(one) is int and one == theta - 1

    def test_non_coprime_moduli_rejected(self):
        with pytest.raises(NotInvertibleError):
            ccrt_solve((6, 9), [[1, 2]])

    def test_residue_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ccrt_solve((3, 5), [[0, 0], [3, 0]])
        with pytest.raises(ValueError):
            ccrt_solve((3, 5), [[0, 0, 0]])
        with pytest.raises(ValueError, match="residue"):
            ccrt_solve((3, 5), np.array([[1.5, 2]], dtype=object))
        with pytest.raises(ValueError, match="residue"):
            ccrt_solve((3, 5), [[0, 1], [1.5, 2]])
        with pytest.raises(ValueError, match="modulus"):
            ccrt_solve((3.9, 5), [[1, 2]])


class TestBinMaps:
    def test_velocity_doppler_pair(self):
        assert doppler_to_velocity(0.0, 0.05) == 0.0
        assert doppler_to_velocity(36000.0, 0.05) == pytest.approx(900.0, rel=1e-12)
        assert doppler_to_velocity(-36000.0, 0.05) == pytest.approx(-900.0, rel=1e-12)
        assert velocity_to_doppler(doppler_to_velocity(1234.5, 0.05), 0.05) == pytest.approx(1234.5)
        with pytest.raises(ValueError):
            doppler_to_velocity(100.0, 0.0)

    @pytest.mark.parametrize("call, name", [
        (lambda value: doppler_to_velocity(100.0, value), "wavelength"),
        (lambda value: velocity_to_doppler(100.0, value), "wavelength"),
        (lambda value: unfold([1, 2], reference_channels()[:2], 6700.0, wavelength_m=value),
         "wavelength"),
        (lambda value: unfold([1, 2], reference_channels()[:2], 6700.0, fmax_hz=value), "fmax_hz"),
        (lambda value: unfold_tolerant([1, 2], reference_channels()[:2], 6700.0, fmax_hz=value),
         "fmax_hz"),
    ], ids=["doppler_to_velocity", "velocity_to_doppler", "unfold-wavelength", "unfold-fmax",
            "unfold_tolerant-fmax"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_wavelength_or_window_is_refused_by_name(self, call, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call(value)

    @pytest.mark.parametrize("unfolder", [unfold, unfold_tolerant])
    @pytest.mark.parametrize("kwargs, match", [
        ({"coarse_hz": math.nan, "fmax_hz": THETA * 100.0}, "coarse_hz must be finite"),
        ({"coarse_hz": math.nan}, "coarse_hz must be finite"),
        ({"coarse_hz": math.inf}, "coarse_hz must be finite"),
        ({"coarse_hz": -math.inf}, "coarse_hz must be finite"),
        ({"fmax_hz": -10.0}, "fmax_hz must be finite and non-negative"),
        ({"wavelength_m": 0.0}, "wavelength must be finite and positive"),
        ({"wavelength_m": -0.05}, "wavelength must be finite and positive"),
    ], ids=["nan-coarse-full-window", "nan-coarse", "inf-coarse", "minus-inf-coarse",
            "negative-fmax", "zero-wavelength", "negative-wavelength"])
    def test_a_bad_coarse_estimate_window_or_wavelength_is_refused_by_name(
        self, unfolder, kwargs, match
    ):
        # a 3600 Hz target on the reference channels; each bad value used to
        # give a wrong answer, a garbled message or a NaN velocity
        call = {"coarse_hz": 3600.0, "wavelength_m": 0.05, **kwargs}
        with pytest.raises(ValueError, match=match):
            unfolder([36 % m for m in MODULI], reference_channels(), **call)

    def test_common_bin_spacing(self):
        assert common_bin_spacing(reference_channels()) == pytest.approx(100.0, rel=1e-12)
        skewed = [
            PrfChannel(prf=1100.0, num_pulses=11),
            PrfChannel(prf=1301.0, num_pulses=13),
        ]
        with pytest.raises(ValueError):
            common_bin_spacing(skewed)


class TestUnfold:
    def test_advancing_target(self):
        chans = reference_channels()
        res = unfold([36 % m for m in MODULI], chans, coarse_hz=3600.0, wavelength_m=0.05)
        assert res.bin == 36
        assert res.doppler_hz == pytest.approx(3600.0)
        assert res.velocity_mps == pytest.approx(90.0)
        assert res.sign_resolved

    def test_receding_target_selects_negative_candidate(self):
        chans = reference_channels()
        residues = [(-36) % m for m in MODULI]
        assert residues == [8, 3, 15, 2]
        res = unfold(residues, chans, coarse_hz=-3600.0, wavelength_m=0.05)
        assert res.bin == THETA - 36
        assert res.doppler_hz == pytest.approx(-3600.0)
        assert res.velocity_mps == pytest.approx(-90.0)

    def test_zero_bin_zero_coarse(self):
        res = unfold([0, 0, 0, 0], reference_channels(), coarse_hz=0.0)
        assert res.doppler_hz == 0.0
        assert res.sign_resolved
        assert math.isnan(res.velocity_mps)  # no wavelength supplied

    def test_empty_candidate_window_rejected(self):
        with pytest.raises(OutOfWindowError):
            unfold([3, 10, 2, 17], reference_channels(), coarse_hz=0.0, fmax_hz=10.0)

    @pytest.mark.parametrize("unfolder", [unfold, unfold_tolerant])
    def test_empty_channel_list_is_refused_by_name(self, unfolder):
        with pytest.raises(ValueError, match="channel list must be non-empty"):
            unfolder([], [], 0.0)

    def test_residue_count_must_match(self):
        with pytest.raises(ValueError):
            unfold([1, 2], reference_channels(), coarse_hz=0.0)

    @pytest.mark.parametrize("unfolder", [unfold, unfold_tolerant])
    @pytest.mark.parametrize("residue", [1.7, math.nan, "1", "x"])
    def test_non_integral_residue_is_refused_by_name(self, unfolder, residue):
        # truncating 1.7 would unfold the bin of [1, 2] (67 on moduli 11, 13)
        chans = reference_channels()[:2]
        assert unfolder([1, 2], chans, coarse_hz=6700.0).bin == 67
        with pytest.raises(ValueError, match="residue must be an integer"):
            unfolder([residue, 2], chans, coarse_hz=6700.0)
        # the message names the value given, also after a good residue
        with pytest.raises(ValueError, match=re.escape(f"an integer, got {residue!r}")):
            unfolder([1, residue], chans, coarse_hz=6700.0)

    @pytest.mark.parametrize("unfolder", [unfold, unfold_tolerant])
    @pytest.mark.parametrize("residues", [[11, 2], [-3, 2], [1, 13]])
    def test_out_of_range_residue_is_refused(self, unfolder, residues):
        # reducing [11, 2] modulo (11, 13) first would unfold the bin of [0, 2]
        with pytest.raises(ValueError, match="residues out of range"):
            unfolder(residues, reference_channels()[:2], coarse_hz=0.0)

    @given(st.integers(min_value=-(THETA // 2), max_value=THETA // 2))
    @settings(max_examples=200, deadline=None)
    def test_fold_then_unfold_round_trips(self, b_d):
        chans = reference_channels()
        truth_hz = b_d * 100.0
        residues = [(b_d % THETA) % ch.num_pulses for ch in chans]
        res = unfold(residues, chans, coarse_hz=truth_hz)
        assert res.doppler_hz == pytest.approx(truth_hz, abs=1e-6)

    def test_coarse_estimate_tolerates_half_window_error(self):
        # recovery bound of a quarter bin spacing in velocity terms
        chans = reference_channels()
        lam = 0.05
        for b_d, shift in ((-3000, 900.0), (5000, -1200.0), (20000, 400.0)):
            truth_hz = b_d * 100.0
            residues = [(b_d % THETA) % ch.num_pulses for ch in chans]
            res = unfold(residues, chans, coarse_hz=truth_hz + shift, wavelength_m=lam)
            v_true = doppler_to_velocity(truth_hz, lam)
            assert abs(res.velocity_mps - v_true) <= 100.0 * lam / 4.0


class TestUnfoldTolerant:
    def test_matching_spacings_behave_like_unfold(self):
        chans = reference_channels()
        residues = [36 % ch.num_pulses for ch in chans]
        strict = unfold(residues, chans, coarse_hz=3600.0, wavelength_m=0.05)
        loose = unfold_tolerant(residues, chans, coarse_hz=3600.0, wavelength_m=0.05)
        assert loose.doppler_hz == pytest.approx(strict.doppler_hz)

    def test_recovers_through_slightly_skewed_prf(self):
        chans = [
            PrfChannel(prf=1100.0, num_pulses=11, num_subpulses=8),
            PrfChannel(prf=1300.0, num_pulses=13, num_subpulses=8),
            PrfChannel(prf=1700.3, num_pulses=17, num_subpulses=8),
            PrfChannel(prf=1900.0, num_pulses=19, num_subpulses=8),
        ]
        # residues as a common-spacing radar would have measured them
        residues = [36 % ch.num_pulses for ch in chans]
        res = unfold_tolerant(residues, chans, coarse_hz=3600.0, wavelength_m=0.05)
        assert abs(res.doppler_hz - 3600.0) <= 150.0

    def test_out_of_window_still_raised(self):
        with pytest.raises(OutOfWindowError):
            unfold_tolerant([3, 10, 2, 17], reference_channels(), coarse_hz=0.0, fmax_hz=10.0)

    def test_one_residue_off_by_a_bin_is_shifted_back_in_coincidence_mode_only(self):
        # bin 36 with the first channel reading 4 instead of 3: exact mode
        # shifts no residue, so the set is refused as noise would be
        chans = reference_channels()
        residues = [4, 10, 2, 17]
        with pytest.raises(OutOfWindowError, match="for bin"):
            unfold(residues, chans, coarse_hz=3600.0, fmax_hz=160e3)
        res = unfold_tolerant(residues, chans, coarse_hz=3600.0, fmax_hz=160e3)
        assert res.bin == 36 and res.doppler_hz == pytest.approx(3600.0)

    def test_a_coarse_estimate_on_the_nyquist_edge_may_mean_either_sign(self):
        # the segment axis reads its Nyquist bin as +fmax; the truth sits
        # near -fmax, and a shifted residue set lands nearer +fmax
        chans = [
            PrfChannel(prf=prf, num_pulses=m, num_subpulses=8)
            for prf, m in zip((1100.0, 1300.0, 1700.3, 1900.0), MODULI)
        ]
        truth_bin = -1509
        residues = [(truth_bin % THETA) % m for m in MODULI]
        res = unfold_tolerant(residues, chans, coarse_hz=160e3, fmax_hz=160e3, wavelength_m=0.05)
        assert res.bin == truth_bin % THETA
        assert abs(res.doppler_hz - truth_bin * 100.0) <= 150.0
        assert res.sign_resolved

    @given(
        st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in MODULI)),
        st.sampled_from([None, 160e3, 20e3]),
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_measured_residues_win_whenever_they_unfold(self, residues, fmax_hz, where):
        # fewest shifts first: on equal spacings the unshifted residues,
        # when they unfold at all, give unfold's own answer
        chans = reference_channels()
        coarse_hz = where * (THETA * 50.0 if fmax_hz is None else fmax_hz)
        try:
            strict = unfold(list(residues), chans, coarse_hz, fmax_hz=fmax_hz)
        except OutOfWindowError:
            return
        loose = unfold_tolerant(list(residues), chans, coarse_hz, fmax_hz=fmax_hz)
        assert (loose.bin, loose.doppler_hz) == (strict.bin, strict.doppler_hz)


class TestWhatEachModeAccepts:
    @staticmethod
    def unfolded_bins(unfolder, moduli, fmax_hz):
        chans = reference_channels(moduli=moduli)
        bins = set()
        for residues in itertools.product(*(range(m) for m in moduli)):
            try:
                unfolder(list(residues), chans, coarse_hz=0.0, fmax_hz=fmax_hz)
            except OutOfWindowError:
                continue
            bins.add(ccrt_solve(moduli, residues))
        return bins

    @pytest.mark.parametrize("moduli, fmax_hz", [
        ((3, 5, 7), 900.0), ((2, 3, 5, 7), 1050.0), ((4, 9, 5, 7), 2050.0),
    ])
    def test_every_residue_tuple_of_a_small_lattice(self, moduli, fmax_hz):
        exact = accepted_bins(moduli, fmax_hz, corrections=False)
        loose = accepted_bins(moduli, fmax_hz, corrections=True)
        assert len(exact) == 2 * math.floor(fmax_hz / 100.0) + 1
        assert exact < loose < set(range(math.prod(moduli)))
        assert self.unfolded_bins(unfold, moduli, fmax_hz) == exact
        assert self.unfolded_bins(unfold_tolerant, moduli, fmax_hz) == loose

    @pytest.mark.parametrize("subpulses, counts", [
        (4, (1601, 12195)), (8, (3201, 21855)), (16, (6401, 36339)), (32, (12801, THETA)),
    ])
    def test_the_readme_table_by_set_arithmetic_and_a_seeded_sample(self, subpulses, counts):
        # README's acceptance table at fmax = N/(2 tau), tau = 25 us;
        # enumerating all 46 189 tuples takes seconds, so the small
        # lattices above carry the full enumeration
        fmax_hz = subpulses / (2.0 * 25e-6)
        exact = accepted_bins(MODULI, fmax_hz, corrections=False)
        loose = accepted_bins(MODULI, fmax_hz, corrections=True)
        assert (len(exact), len(loose)) == counts
        chans = reference_channels(subpulses)
        for b in np.random.default_rng(subpulses).integers(0, THETA, 150).tolist():
            residues = [b % m for m in MODULI]
            for unfolder, accepted in ((unfold, exact), (unfold_tolerant, loose)):
                try:
                    unfolder(residues, chans, coarse_hz=0.0, fmax_hz=fmax_hz)
                    assert b in accepted
                except OutOfWindowError:
                    assert b not in accepted

    def test_two_corrections_from_every_window_bin_are_refused(self):
        # bin 36 with the first two channels each a bin off: no one-residue
        # correction reaches a bin within +-160 kHz
        residues = [4, 11, 2, 17]
        assert ccrt_solve(MODULI, residues) not in accepted_bins(MODULI, 160e3, corrections=True)
        with pytest.raises(OutOfWindowError, match="or any one-residue correction within"):
            unfold_tolerant(residues, reference_channels(), coarse_hz=3600.0, fmax_hz=160e3)

    def test_twelve_channels_unfold_in_little_memory(self):
        # 1 + 2L = 25 candidate bins: the work grows linearly with L
        primes = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        chans = reference_channels(moduli=primes)
        residues = [36 % m for m in primes]
        residues[0] = 4  # one channel a bin off
        tracemalloc.start()
        try:
            res = unfold_tolerant(residues, chans, coarse_hz=3600.0, fmax_hz=160e3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.bin == 36 and res.doppler_hz == pytest.approx(3600.0) and res.sign_resolved
        assert peak < 1 << 20


class TestChannelValidation:
    def test_bin_spacing_is_prf_over_pulses(self):
        ch = PrfChannel(prf=1300.0, num_pulses=13, num_subpulses=8)
        assert ch.bin_spacing == pytest.approx(100.0, rel=1e-12)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            PrfChannel(prf=1000.0, num_pulses=0)
        with pytest.raises(ValueError):
            PrfChannel(prf=-5.0, num_pulses=3)

    @pytest.mark.parametrize("prf", [math.nan, math.inf])
    def test_non_finite_prf_is_refused_by_name(self, prf):
        with pytest.raises(ValueError, match="prf must be finite"):
            PrfChannel(prf=prf, num_pulses=5)
