"""Congruence solver tests: folding, modular arithmetic, velocity unfolding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpulse import (
    NotInvertibleError,
    OutOfWindowError,
    PrfChannel,
    apparent_bin,
    ccrt_solve,
    common_bin_spacing,
    doppler_to_velocity,
    fold_bin,
    modular_inverse,
    unfold,
    unfold_tolerant,
    velocity_to_doppler,
)

MODULI = (11, 13, 17, 19)
THETA = 11 * 13 * 17 * 19  # 46189


def reference_channels(num_subpulses=8):
    # shared 100 Hz bin spacing, prf = 100 * M
    return [PrfChannel(prf=100.0 * m, num_pulses=m, num_subpulses=num_subpulses) for m in MODULI]


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
        with pytest.raises(ValueError, match="bin index"):
            fold_bin(7.9, PrfChannel(prf=500.0, num_pulses=5))

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
    def test_apparent_bin_examples(self):
        ch = PrfChannel(prf=1100.0, num_pulses=11)
        assert apparent_bin(0.0, ch) == 0
        assert apparent_bin(250.0, ch) == 2
        assert apparent_bin(-250.0, ch) == 9

    def test_apparent_bin_edges(self):
        ch = PrfChannel(prf=1100.0, num_pulses=11)
        # half-prf keeps floor semantics; tiny negative wraps M back to 0
        assert apparent_bin(550.0, ch) == 5
        assert apparent_bin(-10.0, ch) == 0
        with pytest.raises(OutOfWindowError):
            apparent_bin(550.1, ch)

    def test_fold_bin_examples(self):
        assert fold_bin(36, PrfChannel(prf=1100.0, num_pulses=11)) == 3
        assert fold_bin(10, PrfChannel(prf=1300.0, num_pulses=13)) == 10
        assert fold_bin(THETA + 5, PrfChannel(prf=1700.0, num_pulses=17)) == 46194 % 17

    def test_velocity_doppler_pair(self):
        assert doppler_to_velocity(0.0, 0.05) == 0.0
        assert doppler_to_velocity(36000.0, 0.05) == pytest.approx(900.0, rel=1e-12)
        assert doppler_to_velocity(-36000.0, 0.05) == pytest.approx(-900.0, rel=1e-12)
        assert velocity_to_doppler(doppler_to_velocity(1234.5, 0.05), 0.05) == pytest.approx(1234.5)
        with pytest.raises(ValueError):
            doppler_to_velocity(100.0, 0.0)

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

    def test_residue_count_must_match(self):
        with pytest.raises(ValueError):
            unfold([1, 2], reference_channels(), coarse_hz=0.0)

    @pytest.mark.parametrize("unfolder", [unfold, unfold_tolerant])
    @pytest.mark.parametrize("residue", [1.7, math.nan, "1"])
    def test_non_integral_residue_is_refused_by_name(self, unfolder, residue):
        # truncating 1.7 would unfold the bin of [1, 2] (67 on moduli 11, 13)
        chans = reference_channels()[:2]
        assert unfolder([1, 2], chans, coarse_hz=6700.0).bin == 67
        with pytest.raises(ValueError, match="residue must be an integer"):
            unfolder([residue, 2], chans, coarse_hz=6700.0)

    @given(st.integers(min_value=-(THETA // 2), max_value=THETA // 2))
    @settings(max_examples=200, deadline=None)
    def test_fold_then_unfold_round_trips(self, b_d):
        chans = reference_channels()
        truth_hz = b_d * 100.0
        residues = [fold_bin(b_d % THETA, ch) for ch in chans]
        res = unfold(residues, chans, coarse_hz=truth_hz)
        assert res.doppler_hz == pytest.approx(truth_hz, abs=1e-6)

    def test_coarse_estimate_tolerates_half_window_error(self):
        # recovery bound of a quarter bin spacing in velocity terms
        chans = reference_channels()
        lam = 0.05
        for b_d, shift in ((-3000, 900.0), (5000, -1200.0), (20000, 400.0)):
            truth_hz = b_d * 100.0
            residues = [fold_bin(b_d % THETA, ch) for ch in chans]
            res = unfold(residues, chans, coarse_hz=truth_hz + shift, wavelength_m=lam)
            v_true = doppler_to_velocity(truth_hz, lam)
            assert abs(res.velocity_mps - v_true) <= 100.0 * lam / 4.0


class TestUnfoldTolerant:
    def test_matching_spacings_behave_like_unfold(self):
        chans = reference_channels()
        residues = [fold_bin(36, ch) for ch in chans]
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
        residues = [fold_bin(36, ch) for ch in chans]
        res = unfold_tolerant(residues, chans, coarse_hz=3600.0, wavelength_m=0.05)
        assert abs(res.doppler_hz - 3600.0) <= 150.0

    def test_out_of_window_still_raised(self):
        with pytest.raises(OutOfWindowError):
            unfold_tolerant([3, 10, 2, 17], reference_channels(), coarse_hz=0.0, fmax_hz=10.0)


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
