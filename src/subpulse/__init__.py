"""Pulsed-Doppler subpulse processing toolkit.

Splitting each transmitted pulse into coherent subpulses buys a second,
coarser Doppler axis whose window scales with the subpulse count instead of
the pulse repetition frequency. This package covers the full chain built on
that idea: congruence arithmetic that unfolds ambiguous fine-Doppler bins
across coprime channel sets (`ccrt`), closed-form detection and false-alarm
probabilities for the correlated two-domain envelope test with quadrature
oracles (`detection_stats`), a Monte Carlo rig for the same model
(`montecarlo`), a waveform-level range-Doppler simulator (`radar_sim`), and a
CLI that drives sweeps and emits deterministic CSV artifacts (`cli_io`).
"""

__version__ = "0.1.0"

from .numerics import (
    ConvergenceError,
    RngStream,
    bessel_i0_log,
    integrate_semi_infinite,
    matched_filter,
)
from .ccrt import (
    NotInvertibleError,
    OutOfWindowError,
    PrfChannel,
    UnfoldResult,
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
from .detection_stats import (
    SNR_SCALE_DEFAULT,
    ChannelStats,
    FusionRule,
    NumericalDomainError,
    combine_m_of_l,
    from_snr,
    pd_closed_form,
    pd_oracle,
    pfa_closed_form,
    pfa_oracle,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    TrialOutcome,
    estimate,
    run_trial,
)
from .radar_sim import (
    DETECTION_THRESHOLD,
    SPEED_OF_LIGHT,
    ChannelDetection,
    Datacube,
    DetectionReport,
    DopplerMap,
    RadarSetup,
    TargetTruth,
    build_datacube,
    compress_pp,
    compress_sp,
    detect_and_unfold,
    doppler_maps,
    export_maps,
    make_lfm,
    run_pipeline,
    simulate_channel,
    split_subpulses,
    synth_echo,
)
from .cli_io import ConfigError, ExperimentConfig, RunResult, load_config, main, run

__all__ = [name for name in dir() if not name.startswith("_")]
