"""Numeric kernel tests: log-I0, quadrature, matched filter, RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import i0, i0e

from subpulse import (
    ConvergenceError,
    RngStream,
    bessel_i0_log,
    integrate_semi_infinite,
    matched_filter,
)


class TestBesselI0Log:
    def test_small_arguments_match_reference_values(self):
        assert bessel_i0_log(0.0) == 0.0
        # I0(1) and I0(5), reference values from Abramowitz & Stegun
        assert bessel_i0_log(1.0) == pytest.approx(math.log(1.2660658777520084), rel=1e-12)
        assert bessel_i0_log(5.0) == pytest.approx(math.log(27.239871823604442), rel=1e-12)

    def test_matches_scipy_i0_grid(self):
        for x in (0.1, 1.0, 7.5, 19.9, 20.1, 50.0, 300.0):
            ref = i0e(x) * math.exp(x)
            assert math.exp(bessel_i0_log(x)) == pytest.approx(ref, rel=1e-11)

    def test_consistent_with_i0_and_overflow_safe(self):
        for x in (0.5, 20.0, 100.0):
            assert bessel_i0_log(x) == pytest.approx(math.log(i0(x)), abs=1e-12)
        big = bessel_i0_log(5000.0)
        assert big == pytest.approx(5000.0 + math.log(i0e(5000.0)), rel=1e-12)

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ValueError):
            bessel_i0_log(-1.0)
        with pytest.raises(ValueError):
            bessel_i0_log(math.nan)


class TestSemiInfiniteQuadrature:
    def test_exponential_integrates_to_one(self):
        assert integrate_semi_infinite(lambda t: math.exp(-t)) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_moment_integrates_to_half(self):
        assert integrate_semi_infinite(lambda t: t * math.exp(-t * t)) == pytest.approx(0.5, abs=1e-10)

    def test_bessel_weighted_gaussian_identity_grid(self):
        # int_0^inf t exp(b t^2) I0(a t) dt = -exp(-a^2/(4b)) / (2b), b < 0.
        # Composed in log space: the raw product overflows I0 under the
        # integrator's large-t probes.
        for a in (0.0, 1.0, 2.0):
            for b in (-0.5, -1.0, -2.0):
                exact = -math.exp(-a * a / (4.0 * b)) / (2.0 * b)
                got = integrate_semi_infinite(
                    lambda t, a=a, b=b: math.exp(b * t * t + bessel_i0_log(a * t)) * t
                )
                assert got == pytest.approx(exact, rel=1e-9)

    def test_breakpoints_do_not_change_the_value(self):
        f = lambda t: t * math.exp(-t * t)
        plain = integrate_semi_infinite(f)
        hinted = integrate_semi_infinite(f, breakpoints=[0.3, 1.0, 4.0])
        assert hinted == pytest.approx(plain, rel=1e-10)

    def test_convergence_failure_carries_estimate_and_bound(self):
        with pytest.raises(ConvergenceError) as info:
            integrate_semi_infinite(lambda t: math.exp(-t) * math.sin(4000.0 * t))
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0

    def test_convergence_failure_carries_quadpacks_own_estimate(self):
        # one segment, so the error must hold QUADPACK's figures unchanged
        f = lambda t: math.exp(-t) * math.sin(4000.0 * t)
        value, bound, _, message = integrate.quad(
            f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-10, limit=200, full_output=1
        )
        with pytest.raises(ConvergenceError) as info:
            integrate_semi_infinite(f)
        assert message
        assert (info.value.estimate, info.value.error_bound) == (value, bound)


class TestMatchedFilter:
    def test_autocorrelation_peaks_at_zero_lag_with_energy(self):
        rng = np.random.default_rng(0)
        replica = rng.normal(size=32) + 1j * rng.normal(size=32)
        out = matched_filter(replica, replica)
        energy = float(np.sum(np.abs(replica) ** 2))
        assert abs(out[0]) == pytest.approx(energy, rel=1e-12)

    def test_delay_moves_the_peak(self):
        rng = np.random.default_rng(1)
        replica = rng.normal(size=24) + 1j * rng.normal(size=24)
        for d in (0, 3, 17):
            rx = np.concatenate([np.zeros(d), replica, np.zeros(5)])
            out = np.abs(matched_filter(rx, replica))
            assert int(np.argmax(out)) == d

    def test_doppler_mismatch_on_rect_follows_sinc(self):
        # rectangular replica, f_d * tau = 0.9, equal lengths -> single lag
        length = 400
        replica = np.ones(length, complex)
        rx = replica * np.exp(2j * np.pi * 0.9 * np.arange(length) / length)
        out = matched_filter(rx, replica)
        assert len(out) == 1
        ratio = abs(out[0]) / length
        sinc = abs(math.sin(math.pi * 0.9) / (math.pi * 0.9))
        assert ratio == pytest.approx(sinc, abs=1e-4)

    def test_equal_length_swap_conjugates(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert matched_filter(a, b)[0] == pytest.approx(np.conj(matched_filter(b, a)[0]), rel=1e-12)

    def test_replica_longer_than_rx_rejected(self):
        with pytest.raises(ValueError):
            matched_filter(np.ones(4), np.ones(5))

    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_zero_lag_dominates_by_cauchy_schwarz(self, n, seed):
        rng = np.random.default_rng(seed)
        replica = rng.normal(size=n) + 1j * rng.normal(size=n)
        out = np.abs(matched_filter(np.concatenate([replica, np.zeros(7)]), replica))
        assert out[0] >= out.max() - 1e-9 * out.max()


class TestRngAndGaussian:
    def test_same_seed_and_stream_replays(self):
        a = RngStream(42, 0)
        b = RngStream(42, 0)
        assert list(a.generator.normal(0.0, 0.5, 4)) == list(b.generator.normal(0.0, 0.5, 4))

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert a.generator.normal(0.0, 0.5) != b.generator.normal(0.0, 0.5)

    @pytest.mark.parametrize("seed, stream_id, name", [(-1, 0, "seed"), (3, -2, "stream_id")])
    def test_negative_address_is_refused_by_name(self, seed, stream_id, name):
        with pytest.raises(ValueError, match=name):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id, name", [
        (2.7, 0, "seed"),
        (math.nan, 0, "seed"),
        (3, 1.5, "stream_id"),
        (3, math.inf, "stream_id"),
    ])
    def test_non_integral_address_is_refused_by_name(self, seed, stream_id, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RngStream(seed, stream_id)

    def test_moments_at_a_million_draws(self):
        rng = RngStream(7, 0)
        draws = rng.generator.normal(0.0, math.sqrt(0.5), 10 ** 6)
        assert abs(float(draws.mean())) <= 0.0035
        rng2 = RngStream(8, 0)
        draws2 = rng2.generator.normal(2.0, math.sqrt(0.5), 10 ** 6)
        assert 0.49 <= float(draws2.var()) <= 0.51

