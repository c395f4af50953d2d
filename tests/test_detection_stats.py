"""Closed-form detection statistics against quadrature, Monte Carlo and
external oracles.

Reference values below were frozen from independent routes before being
asserted here: the quadrature oracle for the closed forms, and a
10^7-trial simulation for the zero-mean corner.
"""

import math
import re
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpulse import (
    ChannelStats,
    ConvergenceError,
    FusionRule,
    NumericalDomainError,
    combine_m_of_l,
    from_snr,
    pd_closed_form,
    pd_oracle,
    pfa_closed_form,
    pfa_oracle,
)
from subpulse.detection_stats import _channel_kernel, _kernel_terms

REFERENCE_PULSES = (7, 11, 13, 17)

# pulse-domain SNR 10 dB, 8 subpulses, loadings (0.5, 0.99)
PD_AT_10DB = {
    7: 0.6506064656151358,
    11: 0.790780809010204,
    13: 0.8454162136374408,
    17: 0.9213491215235047,
}
# pulse-domain SNR 5 dB, same layout
PFA_AT_5DB = {
    7: 0.2373288436456447,
    11: 0.08222827677542904,
    13: 0.04587248524624532,
    17: 0.013421681184935147,
}

# zero-mean 2x2 corner, frozen 10^7-trial simulation (seed 20260814)
MC_M0_PD = (0.1235352, 0.00010405491548262389)
MC_M0_PFA = (0.456794, 0.0001575224560384963)


def stats_m0_2x2():
    return ChannelStats(lambda1=0.5, lambda2=0.99, m_re=0.0, M=2, N=2)


class TestChannelStats:
    def test_derived_quantities(self):
        assert ChannelStats(0.5, 0.9, 5.0, 5, 6).m == 25.0
        assert ChannelStats(0.5, 0.9, -5.0, 5, 6).m == 25.0

    @pytest.mark.parametrize("value, message", [
        (math.nan, "m_re must be finite, got nan"),
        (math.inf, "m_re must be finite, got inf"),
        (1e200, "m_re=1e+200 puts the mean power beyond float64"),
        (-1e155, "m_re=-1e+155 puts the mean power beyond float64"),
    ], ids=["nan", "inf", "overflow", "negative-overflow"])
    def test_an_unusable_mean_amplitude_is_refused_by_name(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChannelStats(0.5, 0.99, value, 7, 8)

    def test_the_largest_usable_mean_amplitude_builds(self):
        amp = math.sqrt(np.finfo(float).max) * (1.0 - 1e-15)
        assert math.isfinite(ChannelStats(0.5, 0.99, amp, 7, 8).m)

    @pytest.mark.parametrize("field", ["sigma1", "sigma2", "m_im"])
    def test_the_dropped_noise_scales_and_mean_phase_are_refused(self, field):
        # unit noise scale and a real mean are the whole model; a caller still
        # passing the old fields must hear so rather than have them ignored
        with pytest.raises(TypeError, match=f"'{field}'"):
            ChannelStats(lambda1=0.5, lambda2=0.99, m_re=1.0, M=7, N=8, **{field: 1.0})

    def test_loadings_must_be_strictly_inside_unit_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                ChannelStats(bad, 0.5, 0.0, 2, 2)
            with pytest.raises(ValueError):
                ChannelStats(0.5, bad, 0.0, 2, 2)


class TestFromSnr:
    def test_silent_target_has_zero_mean_power(self):
        assert from_snr(-math.inf, 0.5, 0.99, 7, 8).m == 0.0

    def test_literal_small_signal_substitution(self):
        # m = 2 * M * snr / lambda1^2 when the scale is passed explicitly
        s = from_snr(10.0, 0.5, 0.99, 7, 8, snr_scale=2 / 0.5 ** 2)
        assert s.m == pytest.approx(560.0, rel=1e-12)

    def test_mean_amplitude_is_the_root_of_the_mean_power(self):
        s = from_snr(10.0, 0.5, 0.99, 7, 8)
        assert s.m_re == math.sqrt(0.32 * 7 * 10.0)
        assert s.m == s.m_re * s.m_re

    @pytest.mark.parametrize("snr_db, scale, message", [
        (4000.0, 0.32, "snr1_db=4000.0 puts the mean power beyond float64"),
        (400.0, 1e300, "snr1_db=400.0 puts the mean power beyond float64"),
        (math.inf, 0.32, "snr1_db=inf puts the mean power beyond float64"),
        (math.nan, 0.32, "snr1_db must be a number, got nan"),
        (10.0, math.nan, "snr_scale must be finite and positive, got nan"),
        (10.0, math.inf, "snr_scale must be finite and positive, got inf"),
    ], ids=["overflow", "scaled-overflow", "inf", "nan", "nan-scale", "inf-scale"])
    def test_an_unusable_snr_or_scale_is_refused_by_name(self, snr_db, scale, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            from_snr(snr_db, 0.5, 0.99, 7, 8, snr_scale=scale)


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5])
@pytest.mark.parametrize("build, field", [
    (lambda v: ChannelStats(0.5, 0.5, 0.0, v, 2), "M"),
    (lambda v: ChannelStats(0.5, 0.5, 0.0, 2, v), "N"),
    (lambda v: from_snr(10.0, 0.5, 0.99, v, 8), "M"),
    (lambda v: from_snr(10.0, 0.5, 0.99, 7, v), "N"),
    (lambda v: FusionRule(required=v, total=2), "required"),
    (lambda v: FusionRule(required=1, total=v), "total"),
], ids=["stats-M", "stats-N", "from_snr-M", "from_snr-N", "fusion-required", "fusion-total"])
def test_non_integral_count_is_refused_by_name(build, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        build(value)


class TestClosedForms:
    def test_single_bin_layout_always_detects(self):
        for m_re in (0.0, 1.0, 30.0):
            s = ChannelStats(0.5, 0.99, m_re, 1, 1)
            assert pd_closed_form(s) == pytest.approx(1.0, abs=1e-9)
            assert pfa_closed_form(s) == 0.0

    def test_single_axis_layouts_cannot_false_alarm(self):
        assert pfa_closed_form(ChannelStats(0.5, 0.99, 2.0, 1, 8)) == 0.0
        assert pfa_closed_form(ChannelStats(0.5, 0.99, 2.0, 7, 1)) == 0.0

    def test_detection_reference_points(self):
        for pulses, expected in PD_AT_10DB.items():
            got = pd_closed_form(from_snr(10.0, 0.5, 0.99, pulses, 8))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_false_alarm_reference_points(self):
        for pulses, expected in PFA_AT_5DB.items():
            got = pfa_closed_form(from_snr(5.0, 0.5, 0.99, pulses, 8))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_midrange_regression_point(self):
        s = from_snr(7.0, 0.5, 0.99, 11, 8)
        assert s.m == pytest.approx(17.641790623679984, rel=1e-14)
        assert pd_closed_form(s) == pytest.approx(0.43344678819589993, abs=1e-13)
        assert pfa_closed_form(s) == pytest.approx(0.010882684714138627, abs=1e-13)


class TestOracles:
    def test_single_bin_layout(self):
        s = ChannelStats(0.5, 0.99, 2.0, 1, 1)
        assert pd_oracle(s) == pytest.approx(1.0, abs=1e-9)
        assert pfa_oracle(s) == pytest.approx(0.0, abs=1e-9)

    def test_detection_points_match_quadrature(self):
        for pulses in REFERENCE_PULSES:
            s = from_snr(10.0, 0.5, 0.99, pulses, 8)
            assert abs(pd_closed_form(s) - pd_oracle(s)) < 1e-6

    def test_false_alarm_points_match_quadrature(self):
        for pulses in REFERENCE_PULSES:
            s = from_snr(5.0, 0.5, 0.99, pulses, 8)
            assert abs(pfa_closed_form(s) - pfa_oracle(s)) < 1e-6

    def test_zero_mean_corner_matches_frozen_simulation(self):
        s = stats_m0_2x2()
        pd_hat, pd_se = MC_M0_PD
        pfa_hat, pfa_se = MC_M0_PFA
        assert abs(pd_closed_form(s) - pd_hat) <= 3 * pd_se
        assert abs(pfa_closed_form(s) - pfa_hat) <= 3 * pfa_se
        assert abs(pd_oracle(s) - pd_hat) <= 3 * pd_se
        assert abs(pfa_oracle(s) - pfa_hat) <= 3 * pfa_se


# loadings near the kernel's edge, where P - 1 written as
# c1 + c2 - c1/q1 - c2/q2, with c_i = lam_i^2 / (1 - lam_i^2), cancels
EDGE_LOADINGS = [(0.001, 0.9999), (0.001, 0.999999)]
# the perfbench stats sweep pool
POOL_PULSES = (7, 11, 13, 17, 19, 23, 29, 31)
POOL_SUBPULSES = (8, 16, 32)


def decimal_sums(stats):
    """PD and PFA double sums of the closed form in 50-digit decimal.

    The same terms as the float64 kernel, on the same float inputs, so the
    difference is the float64 evaluation's rounding alone.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        one = Decimal(1)
        lam1_sq = Decimal(stats.lambda1) ** 2
        lam2_sq = Decimal(stats.lambda2) ** 2
        m = Decimal(stats.m)
        pd = pfa = Decimal(0)
        for k in range(stats.M):
            q1 = one + k * (one - lam1_sq) / 2
            for l in range(stats.N):
                q2 = one + l * (one - lam2_sq) / 2
                excess = k * lam1_sq / (2 * q1) + l * lam2_sq / (2 * q2)
                p = one + excess
                term = (
                    math.comb(stats.M - 1, k) * math.comb(stats.N - 1, l)
                    / (q1 * q2 * p) * (-m * excess / p).exp()
                )
                term = -term if (k + l) % 2 else term
                pd += term
                if k and l:
                    pfa += term
        return float(pd), float(pfa)


class TestKernelPrecision:
    @pytest.mark.parametrize("lambda1, lambda2", EDGE_LOADINGS)
    @pytest.mark.parametrize("pulses", [7, 17])
    def test_edge_loadings_match_quadrature(self, lambda1, lambda2, pulses):
        for snr_db in (10.0, 20.0, 30.0):
            s = from_snr(snr_db, lambda1, lambda2, pulses, 8)
            assert abs(pd_closed_form(s) - pd_oracle(s)) <= 1e-6
            assert abs(pfa_closed_form(s) - pfa_oracle(s)) <= 1e-6

    def test_rounding_bound_covers_the_float_sum(self):
        eps = np.finfo(float).eps
        worst = 0.0
        for lambda1, lambda2 in [(0.5, 0.99), EDGE_LOADINGS[1]]:
            for pulses in (2, 7, 17, 31, 64):
                for subpulses in (2, 8, 32):
                    for snr_db in (-5.0, 5.0, 15.0):
                        s = from_snr(snr_db, lambda1, lambda2, pulses, subpulses)
                        terms, weights = _kernel_terms(s, _channel_kernel(s))
                        for block, exact in zip((np.s_[:, :], np.s_[1:, 1:]), decimal_sums(s)):
                            value = math.fsum(terms[block].ravel().tolist())
                            bound = eps * math.fsum(weights[block].ravel().tolist())
                            worst = max(worst, abs(value - exact) / bound)
        assert worst <= 1.0

    def test_unresolvable_sum_raises_with_its_bound(self):
        # float64 gives 0.0040146 here against a true 0.0038719
        s = from_snr(-5.0, 0.5, 0.99, 17, 32)
        with pytest.raises(NumericalDomainError) as info:
            pd_closed_form(s)
        message = str(info.value)
        for part in ("M=17", "N=32", f"m={s.m!r}", "lambda1=0.5", "lambda2=0.99", "bound"):
            assert part in message
        assert pd_oracle(s) == pytest.approx(0.0038718566507820714, abs=1e-9)

    def test_oracles_are_within_their_tolerance_of_the_exact_sums(self):
        # the rule's own tolerance, max(1e-12, 1e-10 |p|), on the pool grid's
        # lowest rows, where the alternating win mixtures cancel most
        points = [
            from_snr(snr_db, 0.5, 0.99, pulses, subpulses)
            for pulses in POOL_PULSES
            for subpulses in POOL_SUBPULSES
            for snr_db in (4.0, 4.5, 5.0)
        ]
        exact = [decimal_sums(s) for s in points]
        for column, oracle in enumerate((pd_oracle, pfa_oracle)):
            for s, value, sums in zip(points, oracle(points), exact):
                tolerance = max(1e-12, 1e-10 * abs(sums[column]))
                assert abs(value - sums[column]) <= tolerance, (oracle.__name__, s.M, s.N, s.m)

    # Below the pool grid the oracles return values off by more than that
    # tolerance, with no error: their bound leaves out the rounding of the
    # alternating mixture they integrate (ROADMAP item 3a). Measured miss, in
    # tolerances: 5.3, 1.8, 9.1, 1.09 and 16.7. A bound that covers the
    # rounding either certifies these values or raises, and then they XPASS.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the oracle bound omits the mixture's rounding")
    @pytest.mark.parametrize("oracle, column, point", [
        (pfa_oracle, 1, (31, 32, -5.0)),
        (pfa_oracle, 1, (31, 32, -2.0)),
        (pfa_oracle, 1, (7, 32, 0.0)),
        (pfa_oracle, 1, (17, 32, -5.0)),
        (pd_oracle, 0, (31, 32, -3.0)),
    ], ids=["pfa-31-32-m5", "pfa-31-32-m2", "pfa-7-32-0", "pfa-17-32-m5", "pd-31-32-m3"])
    def test_an_oracle_value_below_the_pool_is_within_tolerance_or_raises(
        self, oracle, column, point
    ):
        pulses, subpulses, snr_db = point
        s = from_snr(snr_db, 0.5, 0.99, pulses, subpulses)
        exact = decimal_sums(s)[column]
        try:
            value = oracle(s)
        except ConvergenceError:
            return
        assert abs(value - exact) <= max(1e-12, 1e-10 * abs(exact))

    def test_pool_grid_is_certified_and_matches_quadrature(self):
        for pulses in POOL_PULSES:
            for subpulses in POOL_SUBPULSES:
                for snr_db in np.arange(4.0, 15.25, 0.5):
                    s = from_snr(float(snr_db), 0.5, 0.99, pulses, subpulses)
                    assert abs(pd_closed_form(s) - pd_oracle(s)) <= 1e-6
                    assert abs(pfa_closed_form(s) - pfa_oracle(s)) <= 1e-6


def pool_grid():
    return [
        from_snr(float(snr_db), 0.5, 0.99, pulses, subpulses)
        for pulses in POOL_PULSES
        for subpulses in POOL_SUBPULSES
        for snr_db in np.arange(4.0, 15.25, 0.5)
    ]


PROBABILITIES = [pd_closed_form, pfa_closed_form, pd_oracle, pfa_oracle]


class TestSequences:
    @pytest.mark.parametrize("fn", PROBABILITIES, ids=lambda fn: fn.__name__)
    def test_a_sequence_gives_the_per_point_values(self, fn):
        # shuffled, so that one sequence interleaves every (M, N) layout
        grid = pool_grid()
        mixed = [grid[i] for i in np.random.default_rng(14).permutation(len(grid))]
        assert fn(mixed) == tuple(fn(s) for s in mixed)
        assert fn([]) == ()

    @pytest.mark.parametrize("fn, third, error", [
        (pd_closed_form, (17, 32, -5.0), NumericalDomainError),
        (pfa_closed_form, (17, 32, -5.0), NumericalDomainError),
        (pd_oracle, (64, 8, 5.0), ConvergenceError),
        (pfa_oracle, (13, 32, -5.0), ConvergenceError),
    ], ids=lambda case: getattr(case, "__name__", ""))
    def test_a_sequence_raises_the_error_of_its_first_failing_point(self, fn, third, error):
        pulses, subpulses, snr_db = third
        failing = from_snr(snr_db, 0.5, 0.99, pulses, subpulses)
        # the fourth point fails too, with another message
        points = [
            from_snr(10.0, 0.5, 0.99, 7, 8), from_snr(10.0, 0.5, 0.99, 11, 16),
            failing, from_snr(-5.0, 0.5, 0.99, 128, 32),
        ]
        with pytest.raises(error) as alone:
            fn(failing)
        with pytest.raises(error) as together:
            fn(points)
        assert str(together.value) == str(alone.value)
        if error is ConvergenceError:
            assert together.value.estimate == alone.value.estimate
            assert together.value.error_bound == alone.value.error_bound


class TestFusion:
    def test_unanimous_rule_is_the_product(self):
        probs = [0.3, 0.7, 0.2, 0.9]
        got = combine_m_of_l(probs, FusionRule(required=4, total=4))
        assert got == 0.3 * 0.7 * 0.2 * 0.9

    def test_one_of_two_enumeration(self):
        assert combine_m_of_l([0.9, 0.8], FusionRule(1, 2)) == pytest.approx(0.98, rel=1e-12)

    def test_single_channel_passthrough(self):
        assert combine_m_of_l([0.37], FusionRule(1, 1)) == pytest.approx(0.37, rel=1e-12)

    def test_rule_bounds_enforced(self):
        with pytest.raises(ValueError):
            FusionRule(3, 2)
        with pytest.raises(ValueError):
            FusionRule(0, 2)
        with pytest.raises(ValueError):
            combine_m_of_l([0.5, 0.5], FusionRule(2, 3))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_full_outcome_enumeration(self, probs, data):
        required = data.draw(st.integers(min_value=1, max_value=len(probs)))
        total = 0.0
        for mask in range(2 ** len(probs)):
            fired = [(mask >> i) & 1 for i in range(len(probs))]
            if sum(fired) < required:
                continue
            weight = 1.0
            for p, f in zip(probs, fired):
                weight *= p if f else (1.0 - p)
            total += weight
        got = combine_m_of_l(probs, FusionRule(required, len(probs)))
        assert got == pytest.approx(total, abs=1e-12)

    def test_many_equal_channels_give_the_binomial_tail_quickly(self):
        # from the unanimous rule down, so a cost that grows with the number
        # of qualifying subsets trips the 1 s budget within seconds
        total, p = 24, 0.37
        start = time.perf_counter()
        for required in range(total, 0, -1):
            got = combine_m_of_l([p] * total, FusionRule(required, total))
            assert time.perf_counter() - start < 1.0, f"over budget at required={required}"
            tail = math.fsum(
                math.comb(total, k) * p ** k * (1.0 - p) ** (total - k)
                for k in range(required, total + 1)
            )
            assert got == pytest.approx(tail, abs=1e-12)


class TestStructuralProperties:
    def test_disjoint_events_never_exceed_unit_mass(self):
        for snr in (-5.0, 0.0, 5.0, 10.0, 15.0):
            for pulses in REFERENCE_PULSES:
                s = from_snr(snr, 0.5, 0.99, pulses, 8)
                assert pd_closed_form(s) + pfa_closed_form(s) <= 1.0 + 1e-9

    def test_detection_monotone_in_snr(self):
        grid = np.arange(-5.0, 15.5, 0.5)
        pd_vals = [pd_closed_form(from_snr(g, 0.5, 0.99, 7, 8)) for g in grid]
        pfa_vals = [pfa_closed_form(from_snr(g, 0.5, 0.99, 7, 8)) for g in grid]
        assert all(b >= a - 1e-12 for a, b in zip(pd_vals, pd_vals[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(pfa_vals, pfa_vals[1:]))

    @given(st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=40, deadline=None)
    def test_mean_sign_is_irrelevant(self, amp):
        # the law sees the mean amplitude only through its power m_re^2,
        # which a sign flip keeps bit-equal
        onaxis = ChannelStats(0.5, 0.99, amp, 7, 8)
        flipped = ChannelStats(0.5, 0.99, -amp, 7, 8)
        assert flipped.m == onaxis.m
        assert pd_closed_form(flipped) == pd_closed_form(onaxis)
        assert pfa_closed_form(flipped) == pfa_closed_form(onaxis)

    def test_mean_sign_is_irrelevant_to_the_oracles(self):
        for amp in (0.0, 1.5, 4.0):
            onaxis = ChannelStats(0.5, 0.8, amp, 5, 6)
            flipped = ChannelStats(0.5, 0.8, -amp, 5, 6)
            assert pd_oracle(flipped) == pd_oracle(onaxis)
            assert pfa_oracle(flipped) == pfa_oracle(onaxis)
