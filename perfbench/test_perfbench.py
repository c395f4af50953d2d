"""Self-tests of the benchmark: generators, checkers, tracer and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from subpulse import cli_io  # noqa: E402

SEEDS = range(6)


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    # generated configs name their outputs relative to the working directory
    monkeypatch.chdir(tmp_path)


def all_ops(seed):
    return [
        op
        for name in workloads.WORKLOADS
        for op in workloads.make_pool(name, seed) + workloads.census_ops(name, seed)
    ]


# -- generators -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs_and_other_seeds_differ(workload):
    def configs(seed):
        return [op.config_bytes() for op in workloads.make_pool(workload, seed)]

    assert configs(3) == configs(3)
    assert configs(3) != configs(4)


def test_stats_interleaves_its_three_parts_evenly():
    pool = workloads.make_pool("stats", 5)
    kind = {"pd_sweep": "sweep", "pfa_sweep": "sweep", "fused_sweep": "sweep",
            "mc_validate": "mc", "ccrt_check": "lattice"}
    for quarter in range(4):
        ops = pool[quarter * len(pool) // 4:(quarter + 1) * len(pool) // 4]
        counts = {part: sum(kind[op.mode] == part for op in ops) for part in workloads.STATS_PARTS}
        assert counts == {part: workloads.POOL_SIZE[part] // 4 for part in workloads.STATS_PARTS}


def test_every_generated_config_is_accepted_by_the_cli(tmp_path):
    # A config the CLI rejects is a benchmark bug, never a program failure.
    for seed in SEEDS:
        for i, op in enumerate(all_ops(seed)):
            path = tmp_path / f"c{i}.json"
            path.write_bytes(op.config_bytes())
            cli_io.load_config(path, mode=op.mode)


def test_pulse_counts_are_pairwise_coprime():
    for seed in SEEDS:
        for op in all_ops(seed):
            pulses = [ch["pulses"] for ch in op.raw["channels"]]
            assert all(math.gcd(a, b) == 1 for a, b in combinations(pulses, 2)), pulses


def test_scene_echoes_fit_the_shortest_receive_window():
    for seed in SEEDS:
        for op in workloads.make_pool("scene", seed):
            prfs = op.raw["radar"]["prf_hz"]
            assert all(workloads.echo_fits(op.raw["target"]["range_m"], prf) for prf in prfs)
    assert 70_000.0 < workloads.max_range_m()
    assert not workloads.echo_fits(workloads.max_range_m() + 100.0, 1900.0)


def test_scene_pool_mix_and_tolerance_spread():
    for seed in SEEDS:
        pool = workloads.make_pool("scene", seed)
        tolerant = [op for op in pool if "spacing_tolerance_hz" in op.raw]
        assert len(tolerant) == len(pool) // 4
        assert sum(bool(op.raw.get("export_maps")) for op in pool) == len(pool) // 4
        for op in tolerant:
            spacings = [prf / ch["pulses"] for prf, ch in zip(op.raw["radar"]["prf_hz"], op.raw["channels"])]
            assert 0 < max(spacings) - min(spacings) <= op.raw["spacing_tolerance_hz"]
        for op in pool:
            assert abs(op.raw["target"]["velocity_mps"]) <= workloads.MAX_SPEED_MPS


def test_lattice_pool_spans_its_theta_range():
    for seed in SEEDS:
        thetas = sorted(
            op.expect["theta"] for op in workloads.make_pool("stats", seed) if op.mode == "ccrt_check"
        )
        assert 10 ** 3 <= thetas[0] and thetas[-1] < 10 ** 5
        assert len(set(thetas)) == len(thetas)


# -- checkers ----------------------------------------------------------------------


def run_first_op(tmp_path, mode, index=0):
    pool = workloads.make_pool("scene" if mode == "simulate" else "stats", 11)
    op = [op for op in pool if op.mode == mode][index]
    path = tmp_path / "op.json"
    path.write_bytes(op.config_bytes())
    return op, cli_io.run(cli_io.load_config(path, mode=op.mode))


def with_rows(result, **changes):
    rows = tuple({**row, **changes} for row in result.rows)
    return dataclasses.replace(result, rows=rows)


@pytest.mark.parametrize("index, bins", [(2, 1), (0, 2)])  # exact mode; coincidence mode
def test_scene_checker_flags_a_velocity_bins_off(tmp_path, index, bins):
    op, result = run_first_op(tmp_path, "simulate", index)
    assert ("spacing_tolerance_hz" in op.raw) == (index == 0)
    assert workloads.check(op, result) is None
    shift = bins * workloads.BIN_SPACING_HZ * workloads.WAVELENGTH_M / 2.0
    moved = with_rows(result, velocity_mps=op.expect["velocity_mps"] + shift)
    assert "velocity off" in workloads.check(op, moved)
    assert "detection" in workloads.check(op, with_rows(result, all_detected=0))


def test_sweep_checker_flags_an_uncertified_point(tmp_path):
    op, result = run_first_op(tmp_path, "pfa_sweep")
    assert workloads.check(op, result) is None
    closed = f"{op.mode.split('_')[0]}_closed"
    rows = list(result.rows)
    rows[1] = {**rows[1], closed: rows[1][closed] + 2e-6}
    assert "oracle" in workloads.check(op, dataclasses.replace(result, rows=tuple(rows)))
    assert workloads.check(op, dataclasses.replace(result, rows=result.rows[:-1])) is not None


def test_mc_checker_flags_a_z_score_beyond_five(tmp_path):
    op, result = run_first_op(tmp_path, "mc_validate")
    assert workloads.check(op, result) is None
    assert "z out of range" in workloads.check(op, with_rows(result, pd_z=5.5))


def test_lattice_checker_flags_a_missed_bin(tmp_path):
    op, result = run_first_op(tmp_path, "ccrt_check")
    assert workloads.check(op, result) is None
    theta = op.expect["theta"]
    assert "passed" in workloads.check(op, with_rows(result, passed=theta - 1))


def test_checker_flags_a_nonzero_exit_code(tmp_path):
    op, result = run_first_op(tmp_path, "ccrt_check")
    assert "exit code 1" in workloads.check(op, dataclasses.replace(result, exit_code=1))


# -- tail, tracer, BENCHMARK.json -----------------------------------------------------


def test_closed_loop_runs_an_op_and_times_the_host_probe_apart(tmp_path):
    ops, _ = run.prepare("stats", 1, tmp_path)
    records, timed_s, probes = run.closed_loop(ops[:1], 0.0, run.HOST_PROBE_WORK["stats"])
    assert len(records) == 1 and records[0]["failure"] is None
    assert len(probes) == 1 and 0 < probes[0]
    assert 0 < timed_s <= records[0]["latency_s"] + 0.05  # the probe is left out


def test_host_factor_is_the_trimmed_mean_probe_over_the_reference():
    ref = run.REFERENCE_PROBE_S
    assert run.host_factor([ref, 3 * ref, 2 * ref]) == pytest.approx(2.0)
    # the fastest and slowest tenth are left out
    probes = [0.0] + [ref] * 4 + [2 * ref] * 4 + [100 * ref]
    assert run.host_factor(probes) == pytest.approx(1.5)
    assert set(run.HOST_PROBE_WORK) == set(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    value, pct = run.tail([float(i) for i in range(12)])
    assert value == 5.0  # never below the median


def test_tracer_restores_the_program_and_reports_every_layer(tmp_path):
    import importlib

    originals = {
        (m, a): getattr(importlib.import_module(f"subpulse.{m}"), a)
        for m, a, _, _ in tracing.WRAPPED
    }
    ops, _ = run.prepare("stats", 2, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        latencies = []
        for i, (op, path) in enumerate(ops[:3]):  # one pd, one pfa, one fused op
            tracer.op_id = i
            latency, failure = run.run_op(op, path)
            assert failure is None
            latencies.append(latency)
    finally:
        tracer.uninstall()
    assert tracer.missing == [] and tracer.hook_errors == []
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(f"subpulse.{m}"), a) is fn
    metrics = tracer.per_layer(len(latencies), sum(latencies))
    assert set(metrics) | {"trace.overhead_frac"} == set(tracing.LAYER_UNITS)
    assert metrics["detection_stats.points_certified_ratio"] == 1.0
    assert metrics["trace.coverage_frac"] > 0.9
    spans = tracer.spans
    assert {s[0] for s in spans} >= {
        "cli_io.load_config", "cli_io.run", "detection_stats.pd_oracle",
        "detection_stats.combine_m_of_l", "numerics.integrate_semi_infinite",
    }
    assert {s[4] for s in spans} == {0, 1, 2}
    for name, start, end, parent, op_id in spans:
        if parent is not None:  # a child lies inside its parent, in the same op
            assert spans[parent][1] <= start <= end <= spans[parent][2]
            assert spans[parent][4] == op_id


def test_benchmark_json_is_well_formed_and_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert name.match(entry["name"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
