"""Trial-level simulation tests: sampler moments, outcome logic, estimator
determinism and convergence.
"""

import math

import numpy as np
import pytest

from subpulse import montecarlo, numerics
from subpulse import (
    ChannelStats,
    McConfig,
    McEstimate,
    RngStream,
    estimate,
    from_snr,
    pd_closed_form,
    pd_oracle,
    pfa_closed_form,
)

FIG2_POINT = dict(snr1_db=10.0, lambda1=0.5, lambda2=0.99, N=8)


def reference_stats(pulses=7, snr1_db=10.0):
    return from_snr(snr1_db, 0.5, 0.99, pulses, 8)


def batch_values(stats, seed, row, trials, batch_size):
    """Per-trial (PD, PFA) arrays of each batch, drawn serially from its stream."""
    return [
        montecarlo._run_batch(
            RngStream(seed, (row, b)), stats, min(batch_size, trials - b * batch_size)
        )
        for b in range(-(-trials // batch_size))
    ]


def target_pair(stats, seed, n, stream=0):
    """The complex target pair (g1, g2) of one batch's draw."""
    g = montecarlo._target_pair(RngStream(seed, stream), stats, n)
    return g[0] + 1j * g[1], g[2] + 1j * g[3]


class TestSampler:
    def test_complex_mean_tracks_the_loaded_mean(self):
        s = ChannelStats(0.5, 0.99, 1.5, 5, 5)
        n = 200_000
        g1, _ = target_pair(s, 17, n)
        mean = g1.mean()
        target = s.lambda1 * s.m_re
        assert abs(mean - target) <= 3.0 / math.sqrt(n)

    def test_complex_correlation_equals_loading_product(self):
        s = ChannelStats(0.5, 0.99, 1.5, 5, 5)
        n = 200_000
        g1, g2 = target_pair(s, 19, n)
        cov = np.mean(g1 * np.conj(g2)) - g1.mean() * np.conj(g2.mean())
        denom = math.sqrt(
            (np.var(g1.real) + np.var(g1.imag)) * (np.var(g2.real) + np.var(g2.imag))
        )
        assert cov.real / denom == pytest.approx(s.lambda1 * s.lambda2, abs=0.01)

    def test_vanishing_loadings_decouple_the_envelopes(self):
        s = ChannelStats(1e-6, 1e-6, 0.0, 5, 5)
        n = 200_000
        g1, g2 = target_pair(s, 18, n)
        p1, p2 = np.abs(g1) ** 2, np.abs(g2) ** 2
        assert abs(np.corrcoef(p1, p2)[0, 1]) <= 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("lambda1, lambda2, m_re", [
        (0.5, 0.99, 1.5),
        (0.001, 0.999999, 3.0),
        (0.9999, 0.9999, 3.0),  # lambda1 lambda2 = 0.9998: g2 is nearly g1
    ])
    def test_each_target_has_its_own_mean_unit_variance_and_the_loading_correlation(
        self, lambda1, lambda2, m_re
    ):
        # |g - E g|^2 is Exp(1) at unit variance, so its mean has SE 1/sqrt(n);
        # the sample correlation's SE is at most (1 - rho^2)/sqrt(n), which
        # near rho = 1 resolves the sqrt(1 - rho^2) coefficient of u2
        s = ChannelStats(lambda1, lambda2, m_re, 5, 5)
        rho = lambda1 * lambda2
        n = 200_000
        g1, g2 = target_pair(s, 23, n)
        for g, loading in ((g1, lambda1), (g2, lambda2)):
            assert abs(g.mean() - loading * m_re) <= 4.0 / math.sqrt(n)
            assert abs(np.mean(np.abs(g - g.mean()) ** 2) - 1.0) <= 5.0 / math.sqrt(n)
        d1, d2 = g1 - g1.mean(), g2 - g2.mean()
        corr = np.mean(d1 * np.conj(d2)).real / math.sqrt(
            np.mean(np.abs(d1) ** 2) * np.mean(np.abs(d2) ** 2)
        )
        assert abs(corr - rho) <= 5.0 * (1.0 - rho ** 2) / math.sqrt(n)


class TestRunTrial:
    def test_single_bin_layout_always_detects(self):
        s = ChannelStats(0.5, 0.99, 2.0, 1, 1)
        est = estimate(McConfig(stats=s, seed=5, trials=200, batch_size=64))
        assert est.pd_hat == 1.0
        assert est.pfa_hat == 0.0

    def test_overwhelming_target_saturates_detection(self):
        s = ChannelStats(0.5, 0.99, 1e4, 4, 4)
        est = estimate(McConfig(stats=s, seed=0, trials=5000))
        assert est.pd_hat == 1.0
        assert est.pfa_hat == 0.0

    def test_outcomes_partition_every_run(self):
        s = reference_stats()
        est = estimate(McConfig(stats=s, seed=3, trials=20_000))
        assert est.pd_hat + est.pfa_hat <= 1.0
        assert est.pd_hat >= 0.0 and est.pfa_hat >= 0.0


class TestEstimate:
    def test_fixed_seed_is_bit_deterministic(self):
        cfg = McConfig(stats=reference_stats(), seed=42, trials=50_000)
        assert estimate(cfg) == estimate(cfg)

    def test_reported_stderr_is_the_sample_stderr(self):
        s = reference_stats()
        trials, batch_size = 10_000, 3000
        est = estimate(McConfig(stats=s, seed=1, trials=trials, batch_size=batch_size))
        pd, pfa = (np.concatenate(v) for v in zip(*batch_values(s, 1, 0, trials, batch_size)))
        assert est.stderr_pd == pytest.approx(np.std(pd) / math.sqrt(trials), rel=1e-12)
        assert est.stderr_pfa == pytest.approx(np.std(pfa) / math.sqrt(trials), rel=1e-12)

    def test_doubling_trials_halves_the_variance(self):
        # ratio / 2 follows F(1199, 1199) under a correct sampler, so the
        # 1.6-2.4 gate holds with probability 0.999
        s = reference_stats()
        short = [estimate(McConfig(stats=s, seed=400 + k, trials=2500)).pd_hat for k in range(1200)]
        long = [estimate(McConfig(stats=s, seed=9400 + k, trials=5000)).pd_hat for k in range(1200)]
        ratio = np.var(short, ddof=1) / np.var(long, ddof=1)
        assert 1.6 <= ratio <= 2.4

    def test_spread_across_seeds_tracks_reported_stderr(self):
        s = reference_stats()
        ests = [estimate(McConfig(stats=s, seed=k, trials=2500)) for k in range(64)]
        reported = np.mean([e.stderr_pd for e in ests])
        spread = np.std([e.pd_hat for e in ests], ddof=1)
        assert 0.7 * reported <= spread <= 1.4 * reported

    def test_concordance_with_closed_forms_across_seeds(self):
        # a correct sampler puts at most 4 of 400 seeds beyond 3 SE with
        # probability 0.995; one with a 1 % beyond-3-SE rate passes at 0.629
        s = reference_stats()
        pd_ref, pfa_ref = pd_closed_form(s), pfa_closed_form(s)
        pd_bad = pfa_bad = 0
        for seed in range(400):
            est = estimate(McConfig(stats=s, seed=seed, trials=100_000))
            if abs(est.pd_hat - pd_ref) > 3 * est.stderr_pd:
                pd_bad += 1
            if abs(est.pfa_hat - pfa_ref) > 3 * est.stderr_pfa:
                pfa_bad += 1
        assert pd_bad <= 4
        assert pfa_bad <= 4

    def test_detection_operating_point_at_a_million_trials(self):
        s = reference_stats(pulses=7, snr1_db=10.0)
        est = estimate(McConfig(stats=s, seed=0, trials=10 ** 6))
        assert abs(est.pd_hat - pd_closed_form(s)) <= 3 * est.stderr_pd

    def test_false_alarm_operating_point_at_a_million_trials(self):
        # asserted against the oracle-validated closed form; the quoted
        # curve value for this layout is handled by the acceptance suite
        s = reference_stats(pulses=17, snr1_db=5.0)
        est = estimate(McConfig(stats=s, seed=0, trials=10 ** 6))
        assert abs(est.pfa_hat - pfa_closed_form(s)) <= 3 * est.stderr_pfa

    def test_lambda_edge_agrees_with_the_oracle(self):
        # near lambda2 = 1 the float64 closed form once read 0.0060003 here
        s = from_snr(30.0, 0.001, 0.999999, 17, 8)
        est = estimate(McConfig(stats=s, seed=0, trials=8 << 20))
        reference = pd_oracle(s)
        assert abs(est.pd_hat - reference) <= 3 * est.stderr_pd
        assert abs(0.0060003 - reference) > 40 * est.stderr_pd

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("batches", [1, 2, 5])
    def test_threaded_batches_equal_the_serial_stream_sum(self, monkeypatch, batches, cpus):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        s = reference_stats()
        batch_size, seed = 1000, 21
        trials = batch_size * (batches - 1) + 337
        config = McConfig(stats=s, seed=seed, trials=trials, batch_size=batch_size, row=3)
        est = estimate(config)
        pd, pfa = (np.concatenate(v) for v in zip(*batch_values(s, seed, 3, trials, batch_size)))
        assert est.pd_hat == pytest.approx(pd.mean(), rel=1e-12)
        assert est.pfa_hat == pytest.approx(pfa.mean(), rel=1e-12)
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: 1)
        assert estimate(config) == est

    @pytest.mark.parametrize("pulses, subpulses", [(1, 1), (1, 8), (7, 8), (31, 32)])
    def test_batch_is_the_competitor_cdf_at_the_target_envelopes(self, pulses, subpulses):
        s = from_snr(10.0, 0.5, 0.99, pulses, subpulses)
        n = 5000
        g1, g2 = target_pair(s, 6, n, stream=2)
        f1 = 1.0 - np.exp(-np.abs(g1) ** 2 / 2.0)
        f2 = 1.0 - np.exp(-np.abs(g2) ** 2 / 2.0)
        win = f1 ** (pulses - 1) * f2 ** (subpulses - 1)
        lose = (1.0 - f1 ** (pulses - 1)) * (1.0 - f2 ** (subpulses - 1))
        pd, pfa = montecarlo._run_batch(RngStream(6, 2), s, n)
        np.testing.assert_allclose(pd, win, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pfa, lose, rtol=0.0, atol=1e-12)
        if pulses == 1:
            assert (pfa == 0.0).all()
        if pulses == subpulses == 1:
            assert (pd == 1.0).all()

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    @pytest.mark.parametrize("k", [0, 1, 30])
    def test_sliced_exponential_max_equals_the_rayleigh_row_max(self, k, n):
        # the F^k that replaces the drawn competitors is the law of their row
        # max: at each drawn max's power it is a uniform variate (probability
        # integral transform), and an empty row (max -inf) is beaten with certainty
        xmax = np.random.default_rng(8).rayleigh(1.0, (n, k)).max(axis=1, initial=-np.inf)
        win, lose = montecarlo._win_lose(np.square(xmax), k)
        if k == 0:
            assert (win == 1.0).all() and (lose == 0.0).all()
            return
        np.testing.assert_allclose(win + lose, 1.0, rtol=0.0, atol=1e-15)
        assert ((win >= 0.0) & (win <= 1.0)).all()
        assert abs(win.mean() - 0.5) <= 5.0 * math.sqrt(1.0 / (12.0 * n))
        tails = np.count_nonzero(win <= 0.25)
        assert abs(tails - 0.25 * n) <= 5.0 * math.sqrt(0.25 * 0.75 * n)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(stats=reference_stats(), seed=0, trials=0)
        with pytest.raises(ValueError):
            McConfig(stats=reference_stats(), seed=0, trials=10, batch_size=0)
        with pytest.raises(ValueError, match="seed"):
            McConfig(stats=reference_stats(), seed=-3)
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(stats=reference_stats(), seed=2.5)
        with pytest.raises(ValueError, match="row must be non-negative"):
            McConfig(stats=reference_stats(), seed=0, row=-1)
        # a batch is capped at 2^20 trials, refused before any is drawn
        assert McConfig(stats=reference_stats(), seed=0, batch_size=1 << 20).batch_size == 1 << 20
        with pytest.raises(ValueError, match="^batch_size must be <= 1048576, got 2147483648$"):
            McConfig(stats=reference_stats(), seed=0, batch_size=1 << 31)

    @pytest.mark.parametrize("stats", [(7, 8), None, "stats"])
    def test_stats_that_are_not_channel_stats_are_refused_by_name(self, stats):
        with pytest.raises(TypeError, match=f"^stats must be ChannelStats, got {type(stats).__name__}$"):
            McConfig(stats=stats, seed=1)

    @pytest.mark.parametrize("field", ["trials", "batch_size", "row"])
    @pytest.mark.parametrize("value", [2.5, 1000.9, math.nan, math.inf])
    def test_non_integral_count_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McConfig(stats=reference_stats(), seed=1, **{field: value})

    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_an_estimate_does_not_echo_its_config(self, field):
        # trials and seed are the caller's McConfig; an estimate holds only
        # what the run measured
        with pytest.raises(TypeError, match=f"'{field}'"):
            McEstimate(pd_hat=0.5, pfa_hat=0.1, stderr_pd=0.01, stderr_pfa=0.01, **{field: 1})
