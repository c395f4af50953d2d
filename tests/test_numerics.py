"""Numeric kernel tests: log-I0, quadrature, matched filter, RNG."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft, integrate
from scipy.special import i0, i0e

from subpulse import (
    ConvergenceError,
    RngStream,
    bessel_i0_log,
    integrate_semi_infinite,
    matched_filter,
)
from subpulse.numerics import _adaptive_kronrod, _next_fast_len


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
        with pytest.raises(ValueError):
            bessel_i0_log(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            bessel_i0_log(np.array([1.0, math.inf]))

    def test_arrays_in_arrays_out_numbers_in_floats_out(self):
        x = np.array([[0.0, 1.0], [50.0, 5000.0]])
        got = bessel_i0_log(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert got.tolist() == [[bessel_i0_log(v) for v in row] for row in x.tolist()]
        assert type(bessel_i0_log(3)) is float
        assert type(bessel_i0_log(np.float64(3.0))) is float


# integrands of the quadrature tests: (name, f on an array of t, exact value)
QUADRATURE_CASES = [
    ("exponential", lambda t: np.exp(-t), 1.0),
    ("gaussian-moment", lambda t: t * np.exp(-t * t), 0.5),
    ("bessel-weighted", lambda t: np.exp(-t * t + bessel_i0_log(2.0 * t)) * t, math.exp(1.0) / 2.0),
    ("rational", lambda t: 1.0 / (1.0 + t * t), math.pi / 2.0),
]


class TestSemiInfiniteQuadrature:
    def test_exponential_integrates_to_one(self):
        assert integrate_semi_infinite(lambda t: np.exp(-t)) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_moment_integrates_to_half(self):
        assert integrate_semi_infinite(lambda t: t * np.exp(-t * t)) == pytest.approx(0.5, abs=1e-10)

    def test_bessel_weighted_gaussian_identity_grid(self):
        # int_0^inf t exp(b t^2) I0(a t) dt = -exp(-a^2/(4b)) / (2b), b < 0.
        # Composed in log space: the raw product overflows I0 under the
        # integrator's large-t probes.
        for a in (0.0, 1.0, 2.0):
            for b in (-0.5, -1.0, -2.0):
                exact = -math.exp(-a * a / (4.0 * b)) / (2.0 * b)
                got = integrate_semi_infinite(
                    lambda t, a=a, b=b: np.exp(b * t * t + bessel_i0_log(a * t)) * t
                )
                assert got == pytest.approx(exact, rel=1e-9)

    def test_breakpoints_do_not_change_the_value(self):
        f = lambda t: t * np.exp(-t * t)
        plain = integrate_semi_infinite(f)
        hinted = integrate_semi_infinite(f, breakpoints=[0.3, 1.0, 4.0])
        assert hinted == pytest.approx(plain, rel=1e-10)

    def test_integrand_sees_one_array_per_round(self):
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return np.exp(-t)

        integrate_semi_infinite(f, breakpoints=[1.0, 5.0])
        # three segments of 8 fifteen-node panels in the first call
        assert shapes[0] == (3 * 8 * 15,)
        assert all(len(shape) == 1 and shape[0] % 15 == 0 for shape in shapes)

    def test_integrand_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="shape"):
            integrate_semi_infinite(lambda t: np.exp(-t)[::2])

    @pytest.mark.parametrize("name, f, exact", QUADRATURE_CASES, ids=[c[0] for c in QUADRATURE_CASES])
    @pytest.mark.parametrize("breakpoints", [(), (0.5, 2.0, 9.0)], ids=["plain", "split"])
    def test_agrees_with_quadpack(self, name, f, exact, breakpoints):
        edges = [0.0] + list(breakpoints) + [math.inf]
        reference = sum(
            integrate.quad(lambda t: float(f(np.array([t]))[0]), a, b, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        got = integrate_semi_infinite(f, breakpoints=breakpoints)
        assert reference == pytest.approx(exact, rel=1e-9)
        assert got == pytest.approx(reference, rel=1e-9)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_convergence_failure_carries_estimate_and_bound(self):
        with pytest.raises(ConvergenceError) as info:
            integrate_semi_infinite(lambda t: np.exp(-t) * np.sin(4000.0 * t))
        err = info.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0

    def test_failed_estimate_lies_within_its_bound(self):
        # int_0^inf exp(-t) sin(w t) dt = w / (1 + w^2)
        omega = 4000.0
        with pytest.raises(ConvergenceError) as info:
            integrate_semi_infinite(lambda t: np.exp(-t) * np.sin(omega * t))
        exact = omega / (1.0 + omega * omega)
        assert abs(info.value.estimate - exact) <= info.value.error_bound

    def test_noise_limited_integrand_stops_at_the_panel_cap(self):
        # relative noise of 1e-6 keeps every panel above its share of the
        # 1e-10 tolerance; only the 200-panel cap ends the bisection
        rng = np.random.default_rng(5)
        nodes = []

        def noisy(t):
            nodes.append(t.size)
            return np.exp(-t) * (1.0 + 1e-6 * rng.standard_normal(t.shape))

        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ConvergenceError) as info:
                integrate_semi_infinite(noisy)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.estimate == pytest.approx(1.0, abs=1e-4)
        # one segment: 8 panels, then at most 192 splits into two new panels
        assert sum(nodes) <= 15 * (8 + 2 * 192)
        assert elapsed < 1.0
        assert peak < 2 * 2 ** 20


# one integrand that converges at once, one that needs seven rounds of
# bisection and one that the panel cap stops: (f, breakpoints)
BATCH_CASES = [
    (lambda t: 1.0 / (1.0 + t * t), (0.5, 2.0)),
    (lambda t: np.exp(-t) * np.cos(6.0 * t) ** 2, ()),
    (lambda t: np.exp(-t) * np.sin(4000.0 * t), (1.0,)),
]


class TestBatchedQuadrature:
    @staticmethod
    def batched(cases):
        calls = []

        def f(t, which):
            calls.append(np.unique(which).tolist())
            out = np.empty(t.shape)
            for index, (g, _) in enumerate(cases):
                mine = which == index
                out[mine] = g(t[mine])
            return out

        return f, [points for _, points in cases], calls

    def test_each_integral_keeps_its_bits_bound_and_error(self):
        f, breakpoints, calls = self.batched(BATCH_CASES)
        together = _adaptive_kronrod(f, breakpoints)
        for (g, points), (estimate, bound, error) in zip(BATCH_CASES, together):
            ((alone_estimate, alone_bound, alone_error),) = _adaptive_kronrod(
                lambda t, which: g(t), [points]
            )
            assert (estimate, bound) == (alone_estimate, alone_bound)
            assert type(error) is type(alone_error)
            if error is not None:
                assert str(error) == str(alone_error)
                assert (error.estimate, error.error_bound) == (estimate, bound)
        assert [error is None for _, _, error in together] == [True, True, False]
        # one integrand call a round, over every integral still running
        assert calls == [[0, 1, 2]] + [[1, 2]] * 5 + [[1]]

    def test_the_sequence_form_returns_a_tuple_and_raises_the_first_failure(self):
        f, breakpoints, _ = self.batched(BATCH_CASES)
        alone = [integrate_semi_infinite(g, points) for g, points in BATCH_CASES[:2]]
        assert integrate_semi_infinite(f, breakpoints[:2]) == tuple(alone)
        with pytest.raises(ConvergenceError) as failed_alone:
            integrate_semi_infinite(*BATCH_CASES[2])
        with pytest.raises(ConvergenceError) as failed_together:
            integrate_semi_infinite(f, breakpoints)
        assert str(failed_together.value) == str(failed_alone.value)
        assert failed_together.value.estimate == failed_alone.value.estimate
        assert failed_together.value.error_bound == failed_alone.value.error_bound


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

    def test_fft_length_is_scipys_next_fast_len(self):
        assert [_next_fast_len(n) for n in range(1, 20_001)] == [
            fft.next_fast_len(n) for n in range(1, 20_001)
        ]
        # the README radar's four receive windows
        assert [_next_fast_len(n) for n in (7273, 6154, 4706, 4211)] == [7290, 6160, 4725, 4224]

    @pytest.mark.parametrize("windows, replicas, window, length", [
        (None, None, 300, 70),  # one window, one replica
        (None, None, 40, 40),  # equal lengths: a single lag
        (3, 4, 101, 23),  # stacked windows against stacked replicas
        (2, None, 64, 9),
        (None, 3, 64, 64),
    ])
    def test_matches_the_direct_sum(self, windows, replicas, window, length):
        # np.correlate(a, v, "valid") is the direct sum over a[k+n] conj(v[n])
        rng = np.random.default_rng(window * 100 + length)

        def draw(stack, n):
            shape = (n,) if stack is None else (stack, n)
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        rx, replica = draw(windows, window), draw(replicas, length)
        reference = np.array([
            [np.correlate(row, rep, "valid") for rep in np.atleast_2d(replica)]
            for row in np.atleast_2d(rx)
        ])
        if replica.ndim == 1:
            reference = reference[:, 0]
        if rx.ndim == 1:
            reference = reference[0]
        out = matched_filter(rx, replica)
        assert out.shape == reference.shape
        assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max()

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

    @pytest.mark.parametrize("seed, stream_id, name", [
        (-1, 0, "seed"), (3, -2, "stream_id"), (3, (0, -2), "stream_id"),
    ])
    def test_negative_address_is_refused_by_name(self, seed, stream_id, name):
        with pytest.raises(ValueError, match=name):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id, name", [
        (2.7, 0, "seed"),
        (math.nan, 0, "seed"),
        (3, 1.5, "stream_id"),
        (3, math.inf, "stream_id"),
        (3, (1, 1.5), "stream_id"),
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

