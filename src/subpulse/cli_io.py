"""Experiment orchestration: JSON configs in, deterministic CSV + manifest out.

The CLI mirrors the experiment modes as subcommands (``pd``, ``pfa``,
``fused``, ``mc``, ``ccrt-check``, ``simulate``). Every run writes one CSV
with a fixed per-mode column schema and a JSON manifest alongside it carrying
the effective config, the seed, library versions, and the outcome of the
internal cross-checks. Exit status is 0 only when every cross-check passed.

Probabilities are written with 17 significant digits so a rerun from the
manifest's echoed config reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from .ccrt import NotInvertibleError, PrfChannel, _check_moduli, _check_spacings, ccrt_solve
from .detection_stats import (
    SNR_SCALE_DEFAULT,
    FusionRule,
    combine_m_of_l,
    from_snr,
    pd_closed_form,
    pd_oracle,
    pfa_closed_form,
    pfa_oracle,
)
from .montecarlo import McConfig, estimate
from .radar_sim import (
    RadarSetup,
    TargetTruth,
    _simulate_and_detect,
    # simulate runs through _simulate_and_detect and calls neither of these
    # two here, but perfbench/tracing.py wraps them at these names
    detect_and_unfold,
    export_maps,
    simulate_channel,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "SCHEMAS",
    "load_config",
    "run",
    "main",
]

# Fixed, documented column order per mode. Tests pin these.
SCHEMAS = {
    "pd_sweep": (
        "snr1_db", "channel", "pulses", "subpulses",
        "pd_closed", "pd_oracle", "pd_mc", "pd_mc_stderr",
    ),
    "pfa_sweep": (
        "snr1_db", "channel", "pulses", "subpulses",
        "pfa_closed", "pfa_oracle", "pfa_mc", "pfa_mc_stderr",
    ),
    "fused_sweep": (
        "snr1_db", "required", "total",
        "fused_pd_closed", "fused_pd_oracle", "fused_pfa_closed", "fused_pfa_oracle",
    ),
    "mc_validate": (
        "snr1_db", "channel", "pulses", "subpulses", "trials",
        "pd_closed", "pd_mc", "pd_z", "pd_agree",
        "pfa_closed", "pfa_mc", "pfa_z", "pfa_agree",
    ),
    "ccrt_check": ("moduli", "theta", "checked", "passed", "all_pass"),
    "simulate": (
        "channel", "prf_hz", "pulses", "subpulses",
        "apparent_bin", "coarse_bin", "peak_range_bin", "peak_ratio", "detected",
        "fused_bin", "fused_doppler_hz", "velocity_mps", "all_detected",
    ),
}
MODES = tuple(SCHEMAS)
# modes that read the SNR grid and the channel model
_SWEEP_MODES = frozenset({"pd_sweep", "pfa_sweep", "fused_sweep", "mc_validate"})
# modes that read an `mc` section and the Monte Carlo flags
_MC_MODES = frozenset({"pd_sweep", "pfa_sweep", "mc_validate"})

_ORACLE_TOL = 1e-6  # closed form vs quadrature, absolute
_MC_Z_LIMIT = 5.0
_CCRT_BLOCK = 1 << 14  # lattice bins per array solve in ccrt_check


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    channels: tuple[tuple[int, int], ...]
    lambda1: float = 0.5
    lambda2: float = 0.99
    snr_grid: tuple[float, ...] = ()
    snr_scale: float = SNR_SCALE_DEFAULT
    fusion: Optional[FusionRule] = None
    mc_trials: int = McConfig.trials
    mc_batch: int = McConfig.batch_size
    seed: Optional[int] = None
    radar: Optional[RadarSetup] = None
    target: Optional[TargetTruth] = None
    noise_sigma: float = 0.0
    spacing_tolerance_hz: float = 0.0
    export_map_files: bool = False
    output_path: str = "results.csv"
    raw: dict = field(default_factory=dict, compare=False, repr=False)


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    rows: tuple[dict, ...]
    csv_path: Optional[Path]
    manifest_path: Path
    failures: tuple[str, ...]
    error: Optional[dict]  # {"type", "message"} of an exception the run raised


def _parse_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _need(raw: dict, key: str, kind, *, default=None, required=False):
    """Take `key` out of `raw`, a working copy; an object comes back as a copy.

    A key inside a section is given by its dotted path, `snr_db.start`, and
    its errors name that path.
    """
    name = key.rpartition(".")[2]
    if name not in raw:
        if required:
            raise ConfigError(f"missing required field '{key}'")
        return default
    value = raw.pop(name)
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        # json accepts NaN and Infinity, which no field of this config allows
        if not math.isfinite(value):
            raise ConfigError(f"field '{key}' must be a finite number, got {value}")
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind):
        raise ConfigError(f"field '{key}' must be {kind.__name__}, got {type(value).__name__}")
    return dict(value) if kind is dict else value


# said with the refusal of a key that only some runs read, or that is gone
_UNREAD_HINTS = {
    "seed": "'seed' is read only by runs that draw random numbers: mc, simulate, "
    "and pd/pfa with an 'mc' section",
    "mc.seed": "the Monte Carlo seed is 'seed' (or --seed)",
    "fusion.total": "the vote total is the channel count",
}


def _refuse_unread(left: dict, path: str, mode: str) -> None:
    """Refuse the keys a run did not take out of `left`, one object of its config."""
    if left:
        names = [path + key for key in sorted(left)]
        hints = "".join(f"; {_UNREAD_HINTS[name]}" for name in names if name in _UNREAD_HINTS)
        raise ConfigError(f"{mode} runs do not read {', '.join(map(repr, names))}{hints}")


def _parse_channels(raw: dict, mode: str) -> tuple[tuple[int, int], ...]:
    items = _need(raw, "channels", list, required=True)
    if not items:
        raise ConfigError("field 'channels' must be a non-empty list")
    channels = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"channels[{i}] must be an object with 'pulses' and 'subpulses'")
        entry = dict(item)
        counts = (entry.pop("pulses", None), entry.pop("subpulses", 1))
        for key, v in zip(("pulses", "subpulses"), counts):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"channels[{i}].{key} must be a positive integer")
        _refuse_unread(entry, f"channels[{i}].", mode)
        channels.append(counts)
    try:
        _check_moduli(tuple(pulses for pulses, _ in channels))
    except NotInvertibleError as err:
        raise ConfigError(
            f"channels[].pulses: {err}; "
            "congruence unfolding needs pairwise-coprime pulse counts"
        ) from err
    return tuple(channels)


def _parse_radar(
    raw: dict, channels: tuple[tuple[int, int], ...], spacing_tolerance_hz: float
) -> RadarSetup:
    section = _need(raw, "radar", dict, required=True)
    carrier = _need(section, "radar.carrier_hz", float, required=True)
    width = _need(section, "radar.pulse_width_s", float, required=True)
    bandwidth = _need(section, "radar.bandwidth_hz", float, required=True)
    fs = _need(section, "radar.sample_rate_hz", float)
    prfs = _need(section, "radar.prf_hz", list, required=True)
    _refuse_unread(section, "radar.", "simulate")
    if len(prfs) != len(channels):
        raise ConfigError(
            f"radar.prf_hz has {len(prfs)} entries but 'channels' has {len(channels)}"
        )
    prf_channels = []
    for i, prf in enumerate(prfs):
        if not isinstance(prf, (int, float)) or isinstance(prf, bool) or not 0 < prf < math.inf:
            raise ConfigError(f"radar.prf_hz[{i}] must be a positive finite number")
        pulses, subpulses = channels[i]
        prf_channels.append(PrfChannel(prf=float(prf), num_pulses=pulses, num_subpulses=subpulses))
    try:
        _check_spacings(prf_channels, spacing_tolerance_hz)
    except ValueError as err:
        if spacing_tolerance_hz > 0:
            raise ConfigError(f"radar.prf_hz: {err}") from err
        raise ConfigError(
            f"radar.prf_hz: {err} (set 'spacing_tolerance_hz' or pass "
            "--tolerance-hz to use coincidence-mode unfolding)"
        ) from err
    try:
        return RadarSetup.build(
            carrier_hz=carrier,
            pulse_width_s=width,
            bandwidth_hz=bandwidth,
            channels=tuple(prf_channels),
            sample_rate_hz=fs,
        )
    except ValueError as err:
        raise ConfigError(f"radar: {err}") from err


def _draws_mc(mode: str, raw: dict) -> bool:
    """Whether a run draws Monte Carlo: mc always, pd and pfa with an `mc` section."""
    return mode == "mc_validate" or (mode in _MC_MODES and "mc" in raw)


def _config_from_dict(raw: dict, *, mode: Optional[str] = None) -> ExperimentConfig:
    """Parse `raw` for one mode; each key is taken out as it is read, and the rest refused."""
    left = dict(raw)
    file_mode = _need(left, "mode", str)
    if file_mode is not None and mode is not None and file_mode != mode:
        raise ConfigError(f"config mode '{file_mode}' conflicts with subcommand mode '{mode}'")
    effective = file_mode or mode
    if effective is None:
        raise ConfigError("missing required field 'mode' (or pass a subcommand)")
    if effective not in MODES:
        raise ConfigError(f"field 'mode' must be one of {MODES}, got '{effective}'")
    raw = {**raw, "mode": effective}
    channels = _parse_channels(left, effective)
    parsed = {}

    if effective in _SWEEP_MODES:
        for name in ("lambda1", "lambda2"):
            lam = parsed[name] = _need(left, name, float, default=_DEFAULTS[name])
            if not 0.0 < lam < 1.0:
                raise ConfigError(f"field '{name}' must lie strictly between 0 and 1, got {lam}")
        snr_scale = parsed["snr_scale"] = _need(
            left, "snr_scale", float, default=_DEFAULTS["snr_scale"]
        )
        if snr_scale <= 0:
            raise ConfigError(f"field 'snr_scale' must be positive, got {snr_scale}")
        grid = _need(left, "snr_db", dict, required=True)
        start = _need(grid, "snr_db.start", float, required=True)
        stop = _need(grid, "snr_db.stop", float, required=True)
        step = _need(grid, "snr_db.step", float, default=1.0)
        _refuse_unread(grid, "snr_db.", effective)
        if step <= 0:
            raise ConfigError(f"snr_db.step must be > 0, got {step}")
        if stop < start:
            raise ConfigError(f"snr_db grid is empty: start {start} exceeds stop {stop}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        parsed["snr_grid"] = tuple(start + i * step for i in range(count))

    if effective == "fused_sweep":
        section = _need(left, "fusion", dict, default={})
        required = _need(section, "fusion.required", int, default=len(channels))
        _refuse_unread(section, "fusion.", effective)
        try:
            parsed["fusion"] = FusionRule(required=required, total=len(channels))
        except ValueError as err:
            raise ConfigError(f"fusion: {err}") from err

    if effective in _MC_MODES:
        section = _need(left, "mc", dict, default={})
        for key, name in (("trials", "mc_trials"), ("batch_size", "mc_batch")):
            value = parsed[name] = _need(section, f"mc.{key}", int, default=_DEFAULTS[name])
            if value < 1:
                raise ConfigError(f"mc.{key} must be >= 1, got {value}")
        _refuse_unread(section, "mc.", effective)

    if _draws_mc(effective, raw) or effective == "simulate":
        seed = parsed["seed"] = _need(left, "seed", int)
        if seed is not None and seed < 0:
            raise ConfigError(f"field 'seed' must be >= 0, got {seed}")
        if seed is None and effective != "simulate":
            raise ConfigError(
                "an explicit seed is required when Monte Carlo runs "
                "(set 'seed' in the config, or pass --seed)"
            )

    if effective == "simulate":
        spacing_tolerance = _need(
            left, "spacing_tolerance_hz", float, default=_DEFAULTS["spacing_tolerance_hz"]
        )
        if spacing_tolerance < 0:
            raise ConfigError(
                f"field 'spacing_tolerance_hz' must be >= 0, got {spacing_tolerance}"
            )
        subpulse_counts = sorted({subpulses for _, subpulses in channels})
        if len(subpulse_counts) > 1:
            raise ConfigError(
                f"channels disagree on subpulse count: {subpulse_counts}; "
                "simulate needs one subpulse count for every channel"
            )
        radar = _parse_radar(left, channels, spacing_tolerance)
        section = _need(left, "target", dict, default={})
        range_m = _need(section, "target.range_m", float, default=10_000.0)
        velocity = _need(section, "target.velocity_mps", float, default=-900.0)
        amplitude = _need(section, "target.amplitude", float, default=TargetTruth.amplitude)
        _refuse_unread(section, "target.", effective)
        try:
            target = TargetTruth(
                range_m=range_m, radial_velocity_mps=velocity, amplitude=amplitude
            )
        except ValueError as err:
            raise ConfigError(f"target: {err}") from err
        noise_sigma = _need(left, "noise_sigma", float, default=_DEFAULTS["noise_sigma"])
        if noise_sigma < 0:
            raise ConfigError(f"field 'noise_sigma' must be >= 0, got {noise_sigma}")
        parsed.update(
            radar=radar,
            target=target,
            noise_sigma=noise_sigma,
            spacing_tolerance_hz=spacing_tolerance,
            export_map_files=_need(left, "export_maps", bool, default=_DEFAULTS["export_map_files"]),
        )

    output_path = _need(left, "output_path", str, default=_DEFAULTS["output_path"])
    if not output_path:
        raise ConfigError("field 'output_path' must be a non-empty path")
    _refuse_unread(left, "", effective)
    return ExperimentConfig(
        mode=effective, channels=channels, output_path=output_path, raw=raw, **parsed
    )


def load_config(path, *, mode: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Cross-field rules (pairwise-coprime pulse counts, one shared bin spacing,
    sample rate covering the sweep bandwidth, non-empty SNR grid) are all
    enforced here so every later stage can assume a coherent setup. A key
    the mode does not read is refused by its dotted path.
    """
    return _config_from_dict(_parse_json(path), mode=mode)


def _sweep_points(config: ExperimentConfig) -> list:
    """(snr_db, channel index, pulses, subpulses, ChannelStats) per row, SNR-major."""
    return [
        (snr_db, index, pulses, subpulses, from_snr(
            snr1_db=snr_db,
            lambda1=config.lambda1,
            lambda2=config.lambda2,
            M=pulses,
            N=subpulses,
            snr_scale=config.snr_scale,
        ))
        for snr_db in config.snr_grid
        for index, (pulses, subpulses) in enumerate(config.channels)
    ]


def _mc_for(config: ExperimentConfig, stats, row_index: int):
    return estimate(
        McConfig(
            stats=stats,
            seed=config.seed,
            trials=config.mc_trials,
            batch_size=config.mc_batch,
            row=row_index,
        )
    )


def _rows_prob_sweep(config: ExperimentConfig, which: str, failures: list):
    rows = []
    closed_fn = pd_closed_form if which == "pd" else pfa_closed_form
    oracle_fn = pd_oracle if which == "pd" else pfa_oracle
    use_mc = _draws_mc(config.mode, config.raw)
    points = _sweep_points(config)
    stats_all = [stats for *_, stats in points]
    closed_all = closed_fn(stats_all)
    oracle_all = oracle_fn(stats_all)
    for (snr_db, index, pulses, subpulses, stats), closed, oracle in zip(
        points, closed_all, oracle_all
    ):
        if abs(closed - oracle) > _ORACLE_TOL:
            failures.append(
                f"{which} closed-form vs oracle disagree at snr={snr_db} dB, "
                f"M={pulses}, N={subpulses}: {closed!r} vs {oracle!r} "
                f"(gap {abs(closed - oracle):.3e})"
            )
        mc_val = mc_err = None
        if use_mc:
            est = _mc_for(config, stats, len(rows))
            mc_val = est.pd_hat if which == "pd" else est.pfa_hat
            mc_err = est.stderr_pd if which == "pd" else est.stderr_pfa
            if abs(mc_val - closed) > _MC_Z_LIMIT * mc_err + 10.0 / config.mc_trials:
                failures.append(
                    f"{which} Monte Carlo disagrees at snr={snr_db} dB, M={pulses}, "
                    f"N={subpulses}: {mc_val!r} vs closed {closed!r} (stderr {mc_err!r}, "
                    f"gap {abs(mc_val - closed):.3e})"
                )
        rows.append({
            "snr1_db": snr_db,
            "channel": index,
            "pulses": pulses,
            "subpulses": subpulses,
            f"{which}_closed": closed,
            f"{which}_oracle": oracle,
            f"{which}_mc": mc_val,
            f"{which}_mc_stderr": mc_err,
        })
    return rows


def _rows_fused(config: ExperimentConfig, failures: list):
    rows = []
    rule = config.fusion
    stats_all = [stats for *_, stats in _sweep_points(config)]
    per_point = [fn(stats_all) for fn in (pd_closed_form, pd_oracle, pfa_closed_form, pfa_oracle)]
    width = len(config.channels)
    for i, snr_db in enumerate(config.snr_grid):
        pd_c, pd_o, pfa_c, pfa_o = (
            combine_m_of_l(values[i * width:(i + 1) * width], rule) for values in per_point
        )
        if abs(pd_c - pd_o) > _ORACLE_TOL or abs(pfa_c - pfa_o) > _ORACLE_TOL:
            failures.append(
                f"fused closed-form vs oracle disagree at snr={snr_db} dB: "
                f"pd {pd_c!r}/{pd_o!r} pfa {pfa_c!r}/{pfa_o!r}"
            )
        rows.append({
            "snr1_db": snr_db,
            "required": rule.required,
            "total": rule.total,
            "fused_pd_closed": pd_c,
            "fused_pd_oracle": pd_o,
            "fused_pfa_closed": pfa_c,
            "fused_pfa_oracle": pfa_o,
        })
    return rows


def _rows_mc_validate(config: ExperimentConfig, failures: list):
    rows = []
    floor = 10.0 / config.mc_trials
    points = _sweep_points(config)
    stats_all = [stats for *_, stats in points]
    pd_all = pd_closed_form(stats_all)
    pfa_all = pfa_closed_form(stats_all)
    for (snr_db, index, pulses, subpulses, stats), pd_c, pfa_c in zip(points, pd_all, pfa_all):
        est = _mc_for(config, stats, len(rows))
        pd_z = (est.pd_hat - pd_c) / max(est.stderr_pd, floor)
        pfa_z = (est.pfa_hat - pfa_c) / max(est.stderr_pfa, floor)
        pd_ok = abs(pd_z) <= _MC_Z_LIMIT
        pfa_ok = abs(pfa_z) <= _MC_Z_LIMIT
        if not (pd_ok and pfa_ok):
            failures.append(
                f"mc_validate z-score out of range at snr={snr_db} dB, M={pulses}, "
                f"N={subpulses}: "
                f"pd_z={pd_z:.2f} pfa_z={pfa_z:.2f}"
            )
        rows.append({
            "snr1_db": snr_db,
            "channel": index,
            "pulses": pulses,
            "subpulses": subpulses,
            "trials": config.mc_trials,
            "pd_closed": pd_c,
            "pd_mc": est.pd_hat,
            "pd_z": pd_z,
            "pd_agree": int(pd_ok),
            "pfa_closed": pfa_c,
            "pfa_mc": est.pfa_hat,
            "pfa_z": pfa_z,
            "pfa_agree": int(pfa_ok),
        })
    return rows


def _rows_ccrt_check(config: ExperimentConfig, failures: list):
    moduli = tuple(pulses for pulses, _ in config.channels)
    theta = math.prod(moduli)
    column = np.array(moduli)
    passed = 0
    for start in range(0, theta, _CCRT_BLOCK):
        bins = np.arange(start, min(start + _CCRT_BLOCK, theta))
        solved = ccrt_solve(moduli, bins[:, None] % column)
        passed += int(np.count_nonzero(solved == bins))
    if passed != theta:
        failures.append(f"ccrt round-trip failed for {theta - passed} of {theta} bins")
    return [{
        "moduli": "x".join(str(m) for m in moduli),
        "theta": theta,
        "checked": theta,
        "passed": passed,
        "all_pass": int(passed == theta),
    }]


def _rows_simulate(config: ExperimentConfig, failures: list, exports: list):
    setup = config.radar

    def export(index: int, dmap) -> list:
        base = str(Path(config.output_path).with_suffix("")) + f".ch{index}"
        return [name for p in export_maps(dmap, base) for name in (str(p), str(p) + ".json")]

    report, written = _simulate_and_detect(
        setup,
        config.target,
        seed=config.seed,
        noise_sigma=config.noise_sigma,
        spacing_tolerance_hz=config.spacing_tolerance_hz,
        export=export if config.export_map_files else None,
    )
    exports.extend(written)
    if not report.detected:
        failures.append("simulate: fused detection did not succeed")
    rows = []
    for index, (channel, det) in enumerate(zip(setup.channels, report.channels)):
        rows.append({
            "channel": index,
            "prf_hz": channel.prf,
            "pulses": channel.num_pulses,
            "subpulses": channel.num_subpulses,
            "apparent_bin": det.apparent_bin,
            "coarse_bin": det.coarse_bin,
            "peak_range_bin": det.peak_range_bin,
            "peak_ratio": det.peak_ratio,
            "detected": int(det.detected),
            "fused_bin": report.fused.bin if report.fused else None,
            "fused_doppler_hz": report.fused.doppler_hz if report.fused else None,
            "velocity_mps": report.velocity_mps,
            "all_detected": int(report.detected),
        })
    return rows


def _format_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else "NA"
    return str(value)


def _write_csv(path: Path, mode: str, rows: Sequence[dict]) -> bytes:
    columns = SCHEMAS[mode]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    body = ("\n".join(lines) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body)
    return body


def _versions() -> dict:
    try:
        from importlib.metadata import version

        package = version("subpulse")
    except Exception:
        package = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "subpulse": package,
    }


def run(config: ExperimentConfig) -> RunResult:
    """Dispatch one experiment, write CSV + manifest, report cross-check status."""
    csv_path = Path(config.output_path)
    manifest_path = Path(str(csv_path) + ".manifest.json")
    failures: list = []
    exports: list = []
    rows: list = []
    error = None
    try:
        if config.mode == "pd_sweep":
            rows = _rows_prob_sweep(config, "pd", failures)
        elif config.mode == "pfa_sweep":
            rows = _rows_prob_sweep(config, "pfa", failures)
        elif config.mode == "fused_sweep":
            rows = _rows_fused(config, failures)
        elif config.mode == "mc_validate":
            rows = _rows_mc_validate(config, failures)
        elif config.mode == "ccrt_check":
            rows = _rows_ccrt_check(config, failures)
        elif config.mode == "simulate":
            rows = _rows_simulate(config, failures, exports)
        else:
            raise ConfigError(f"unhandled mode {config.mode!r}")
    except Exception as err:  # module errors become manifest records
        error = {"type": type(err).__name__, "message": str(err)}

    body = b""
    if error is None:
        body = _write_csv(csv_path, config.mode, rows)

    manifest = {
        "mode": config.mode,
        "seed": config.seed,
        "config": config.raw,
        "versions": _versions(),
        "output": str(csv_path) if error is None else None,
        "rows": len(rows),
        "csv_sha256": hashlib.sha256(body).hexdigest() if error is None else None,
        "exports": exports,
        "cross_checks": {"passed": error is None and not failures, "failures": failures},
        "error": error,
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    exit_code = 0 if (error is None and not failures) else 1
    return RunResult(
        exit_code=exit_code,
        rows=tuple(rows),
        csv_path=csv_path if error is None else None,
        manifest_path=manifest_path,
        failures=tuple(failures),
        error=error,
    )


_SUBCOMMANDS = {
    "pd": "pd_sweep",
    "pfa": "pfa_sweep",
    "fused": "fused_sweep",
    "mc": "mc_validate",
    "ccrt-check": "ccrt_check",
    "simulate": "simulate",
}


# Override flags as (flag, config path, type, help, modes that read it). type
# bool is a switch that sets True. A subcommand offers only the flags its mode
# reads, so argparse refuses the rest with exit 2. The Monte Carlo fields are
# read by the sweeps that can run it (pd and pfa turn it on when the config
# has an `mc` section).
_SIMULATE = frozenset({"simulate"})
_FLAGS = (
    ("--output", ("output_path",), str, "override output_path", frozenset(MODES)),
    ("--seed", ("seed",), int, "override the run seed", _MC_MODES | _SIMULATE),
    ("--trials", ("mc", "trials"), int, "override mc.trials", _MC_MODES),
    ("--batch-size", ("mc", "batch_size"), int, "override mc.batch_size", _MC_MODES),
    ("--snr-scale", ("snr_scale",), float, "override snr_scale", _SWEEP_MODES),
    ("--noise-sigma", ("noise_sigma",), float, "override noise_sigma", _SIMULATE),
    ("--tolerance-hz", ("spacing_tolerance_hz",), float,
     "allow unequal bin spacings up to this spread (coincidence mode)", _SIMULATE),
    ("--velocity-mps", ("target", "velocity_mps"), float, "override target.velocity_mps",
     _SIMULATE),
    ("--range-m", ("target", "range_m"), float, "override target.range_m", _SIMULATE),
    ("--export-maps", ("export_maps",), bool, "write map files", _SIMULATE),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subpulse",
        description="Run detection-statistics sweeps, Monte Carlo validation, "
        "congruence checks, and range-Doppler simulations from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, mode in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=f"run the {mode} experiment")
        p.add_argument("config", help="path to the JSON config file")
        for flag, _, kind, text, modes in _FLAGS:
            if mode not in modes:
                continue
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, type=kind, help=text)
    return parser


def _apply_overrides(raw: dict, args: argparse.Namespace) -> dict:
    raw = dict(raw)
    for flag, path, _, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        if len(path) == 1:
            raw[path[0]] = value
        else:
            section, key = path
            raw[section] = {**_need(raw, section, dict, default={}), key: value}
    return raw


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    mode = _SUBCOMMANDS[args.command]
    try:
        raw = _apply_overrides(_parse_json(args.config), args)
        config = _config_from_dict(raw, mode=mode)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        result = run(config)
    except OSError as err:  # the CSV or manifest could not be written
        print(f"run error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if result.error is not None:
        print(f"run error: {result.error['type']}: {result.error['message']}", file=sys.stderr)
    for failure in result.failures:
        print(f"cross-check failed: {failure}", file=sys.stderr)
    if result.exit_code == 0:
        print(f"wrote {result.csv_path} ({len(result.rows)} rows); all cross-checks passed")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
