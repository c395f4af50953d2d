"""Command-line contract: config parsing, CSV schemas, manifests, rerun byte-identity."""

import copy
import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subpulse import (
    ChannelStats, FusionRule, PrfChannel, RadarSetup, TargetTruth, combine_m_of_l,
    doppler_to_velocity, from_snr, main, modular_inverse, pd_closed_form, pfa_closed_form,
    split_subpulses, synth_echo, unfold, velocity_to_doppler,
)
from subpulse import cli_io, numerics
from subpulse.ccrt import _check_spacings
from subpulse.cli_io import SCHEMAS
from subpulse.montecarlo import McConfig, estimate


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    header, *lines = path.read_text().rstrip("\n").split("\n")
    columns = header.split(",")
    return columns, [dict(zip(columns, line.split(","))) for line in lines]


def sweep_config(tmp_path, out_name, **extra):
    data = {
        "channels": [{"pulses": 7, "subpulses": 8}, {"pulses": 11, "subpulses": 8}],
        "snr_db": {"start": 9.0, "stop": 10.0, "step": 1.0},
        "output_path": str(tmp_path / out_name),
    }
    data.update(extra)
    return write_config(tmp_path, out_name + ".json", data)


def radar_config(tmp_path, out_name, prf_hz=(1100, 1300, 1700, 1900), **extra):
    data = {
        "channels": [{"pulses": p, "subpulses": 8} for p in (11, 13, 17, 19)],
        "radar": {
            "carrier_hz": 6e9,
            "pulse_width_s": 25e-6,
            "bandwidth_hz": 2e6,
            "prf_hz": list(prf_hz),
        },
        "target": {"range_m": 10000.0, "velocity_mps": -900.0},
        "output_path": str(tmp_path / out_name),
    }
    data.update(extra)
    return write_config(tmp_path, out_name + ".json", data)


class TestDetectionSweeps:
    def test_pd_sweep_csv_matches_the_library(self, tmp_path, capsys):
        config = sweep_config(tmp_path, "pd.csv")
        assert main(["pd", config]) == 0
        assert "all cross-checks passed" in capsys.readouterr().out
        columns, rows = read_csv(tmp_path / "pd.csv")
        assert tuple(columns) == SCHEMAS["pd_sweep"]
        assert len(rows) == 4  # two SNRs x two channels
        for row in rows:
            stats = from_snr(
                snr1_db=float(row["snr1_db"]),
                lambda1=0.5,
                lambda2=0.99,
                M=int(row["pulses"]),
                N=int(row["subpulses"]),
            )
            # 17 significant digits round-trip float64 exactly
            assert float(row["pd_closed"]) == pd_closed_form(stats)
            assert abs(float(row["pd_oracle"]) - float(row["pd_closed"])) <= 1e-6
            assert row["pd_mc"] == "NA" and row["pd_mc_stderr"] == "NA"

    def test_pfa_sweep_csv_matches_the_library(self, tmp_path):
        config = sweep_config(tmp_path, "pfa.csv")
        assert main(["pfa", config]) == 0
        columns, rows = read_csv(tmp_path / "pfa.csv")
        assert tuple(columns) == SCHEMAS["pfa_sweep"]
        for row in rows:
            stats = from_snr(
                snr1_db=float(row["snr1_db"]),
                lambda1=0.5,
                lambda2=0.99,
                M=int(row["pulses"]),
                N=int(row["subpulses"]),
            )
            assert float(row["pfa_closed"]) == pfa_closed_form(stats)

    def test_fused_sweep_applies_the_vote_rule(self, tmp_path):
        config = write_config(tmp_path, "fused.json", {
            "channels": [{"pulses": p, "subpulses": 8} for p in (7, 11, 13, 17)],
            "snr_db": {"start": 2.0, "stop": 2.0, "step": 1.0},
            "fusion": {"required": 1},
            "output_path": str(tmp_path / "fused.csv"),
        })
        assert main(["fused", config]) == 0
        columns, rows = read_csv(tmp_path / "fused.csv")
        assert tuple(columns) == SCHEMAS["fused_sweep"]
        (row,) = rows
        assert (int(row["required"]), int(row["total"])) == (1, 4)
        rule = FusionRule(1, 4)
        singles = [
            pd_closed_form(from_snr(snr1_db=2.0, lambda1=0.5, lambda2=0.99, M=m, N=8))
            for m in (7, 11, 13, 17)
        ]
        assert float(row["fused_pd_closed"]) == combine_m_of_l(singles, rule)

    def test_rerun_is_byte_identical(self, tmp_path):
        config = sweep_config(tmp_path, "again.csv")
        assert main(["pd", config]) == 0
        first_csv = (tmp_path / "again.csv").read_bytes()
        first_manifest = (tmp_path / "again.csv.manifest.json").read_text()
        assert main(["pd", config]) == 0
        assert (tmp_path / "again.csv").read_bytes() == first_csv
        assert (tmp_path / "again.csv.manifest.json").read_text() == first_manifest


    def test_a_failed_cross_check_names_the_layout_and_the_gap(self, tmp_path, monkeypatch):
        # pool sweeps repeat a pulse count across subpulse counts, so M alone
        # does not say which row failed; the sweep asks for all its points at once
        monkeypatch.setattr(
            cli_io, "pd_oracle", lambda points: tuple(p + 1e-3 for p in pd_closed_form(points))
        )
        config = write_config(tmp_path, "bad.json", {
            "channels": [{"pulses": 7, "subpulses": 8}],
            "snr_db": {"start": 10.0, "stop": 10.0},
            "output_path": str(tmp_path / "bad.csv"),
        })
        assert main(["pd", config]) == 1
        manifest = json.loads((tmp_path / "bad.csv.manifest.json").read_text())
        (failure,) = manifest["cross_checks"]["failures"]
        assert "M=7, N=8" in failure and "gap 1.000e-03" in failure

    @pytest.mark.parametrize("start", [4000.0, 400.0])
    def test_an_overflowing_snr_is_refused_by_name(self, tmp_path, capsys, start):
        config = write_config(tmp_path, "loud.json", {
            "channels": [{"pulses": 7, "subpulses": 8}],
            "snr_db": {"start": start, "stop": start},
            "output_path": str(tmp_path / "loud.csv"),
        })
        assert main(["pd", config, "--snr-scale", "1e300"]) == 1
        err = capsys.readouterr().err
        assert f"run error: ValueError: snr1_db={start!r}" in err
        assert not (tmp_path / "loud.csv").exists()

    @pytest.mark.parametrize("grid, expected", [
        # 0.3 / 0.1 rounds just below 3; the 1e-9 slack keeps the stop point
        ((0.0, 0.3, 0.1), (0.0, 0.1, 0.2, 0.30000000000000004)),
        ((2.5, 2.5, 1.0), (2.5,)),
        ((0.0, 1.0, 5.0), (0.0,)),
        ((-5.0, 15.0, 0.5), tuple(k / 2 for k in range(-10, 31))),
        # the largest grid the loader takes: one more point is refused
        ((0.0, 9999.0, 1.0), tuple(float(k) for k in range(10_000))),
    ], ids=["slack", "one-point", "wide-step", "readme-span", "at-the-cap"])
    def test_the_snr_grid_is_start_plus_i_steps(self, grid, expected):
        start, stop, step = grid
        config = cli_io._config_from_dict({
            "channels": [{"pulses": 7}],
            "snr_db": {"start": start, "stop": stop, "step": step},
        }, mode="pd_sweep")
        assert config.snr_grid == expected

    @pytest.mark.parametrize("command, extra, expected", [
        ("pd", {}, {"pd_closed_form": 1, "pd_oracle": 1}),
        ("pfa", {}, {"pfa_closed_form": 1, "pfa_oracle": 1}),
        ("fused", {}, {
            "pd_closed_form": 1, "pd_oracle": 1, "pfa_closed_form": 1, "pfa_oracle": 1,
            "combine_m_of_l": 4 * 2,
        }),
        ("mc", {"seed": 2, "mc": {"trials": 2000, "batch_size": 1024}},
         {"pd_closed_form": 1, "pfa_closed_form": 1, "estimate": 2 * 2}),
    ])
    def test_each_statistic_is_called_once_per_run(
        self, tmp_path, monkeypatch, command, extra, expected
    ):
        # the benchmark's tracer wraps these names in cli_io and times one
        # span per call, so a sweep makes one call per run, not one per row
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("pd_closed_form", "pfa_closed_form", "pd_oracle", "pfa_oracle",
                     "combine_m_of_l", "estimate"):
            monkeypatch.setattr(cli_io, name, counted(name, getattr(cli_io, name)))
        config = sweep_config(tmp_path, "calls.csv", **extra)  # two SNR points, two channels
        main([command, config])
        manifest = json.loads((tmp_path / "calls.csv.manifest.json").read_text())
        assert manifest["error"] is None and manifest["rows"] > 0
        assert calls == expected


# (subcommand, flag, argument, value expected at the flag's config path);
# each flag goes through a subcommand that reads it
FLAG_CASES = [
    ("ccrt-check", "--output", "moved.csv", "moved.csv"),
    ("mc", "--seed", "42", 42),
    ("mc", "--trials", "1234", 1234),
    ("mc", "--batch-size", "99", 99),
    ("fused", "--snr-scale", "0.25", 0.25),
    ("simulate", "--noise-sigma", "0.01", 0.01),
    ("simulate", "--tolerance-hz", "0.5", 0.5),
    ("simulate", "--velocity-mps", "-500", -500.0),
    ("simulate", "--range-m", "9000", 9000.0),
    ("simulate", "--export-maps", None, True),
]


class TestManifest:
    def test_manifest_records_the_run_and_hashes_the_csv(self, tmp_path):
        config = sweep_config(tmp_path, "m.csv", seed=11, mc={"trials": 4000, "batch_size": 512})
        assert main(["pd", config]) == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["mode"] == "pd_sweep"
        assert manifest["seed"] == 11
        assert manifest["rows"] == 4
        assert manifest["config"]["channels"][0]["pulses"] == 7
        assert manifest["config"]["mc"]["trials"] == 4000
        for key in ("python", "numpy", "scipy", "subpulse"):
            assert key in manifest["versions"]
        digest = hashlib.sha256((tmp_path / "m.csv").read_bytes()).hexdigest()
        assert manifest["csv_sha256"] == digest
        assert manifest["cross_checks"] == {"passed": True, "failures": []}
        assert manifest["error"] is None

    def test_cli_overrides_land_in_the_echoed_config(self, tmp_path):
        config = sweep_config(tmp_path, "o.csv")
        out = tmp_path / "moved.csv"
        assert main(["pd", config, "--output", str(out), "--snr-scale", "0.25"]) == 0
        manifest = json.loads((tmp_path / "moved.csv.manifest.json").read_text())
        assert manifest["config"]["output_path"] == str(out)
        assert manifest["config"]["snr_scale"] == 0.25
        assert out.exists()

    @pytest.mark.parametrize("command, flag, value, expected", FLAG_CASES)
    def test_every_flag_lands_at_its_config_path(
        self, tmp_path, monkeypatch, command, flag, value, expected
    ):
        monkeypatch.chdir(tmp_path)
        if command == "simulate":
            config = radar_config(tmp_path, "f.csv", seed=3, output_path="f.csv")
        else:
            data = {"channels": [{"pulses": 3}, {"pulses": 5}], "output_path": "f.csv"}
            if command != "ccrt-check":
                data.update(snr_db={"start": 10.0, "stop": 10.0})
            if command not in ("ccrt-check", "fused"):
                data.update(seed=1, mc={"trials": 2000})
            config = write_config(tmp_path, "f.json", data)
        argv = [command, config, flag] + ([] if value is None else [value])
        assert main(argv) == 0
        output = value if flag == "--output" else "f.csv"
        echoed = json.loads((tmp_path / f"{output}.manifest.json").read_text())["config"]
        (path,) = [path for name, path, *_ in cli_io._FLAGS if name == flag]
        for key in path:
            echoed = echoed[key]
        assert echoed == expected

    def test_the_flag_cases_cover_every_flag(self):
        assert sorted(case[1] for case in FLAG_CASES) == sorted(name for name, *_ in cli_io._FLAGS)

    @pytest.mark.parametrize("command", ["pd", "pfa", "fused", "mc", "ccrt-check"])
    def test_simulate_only_flags_are_refused_elsewhere(self, tmp_path, capsys, command):
        config = sweep_config(tmp_path, "s.csv", seed=1)
        simulate_only = [
            (flag, kind) for flag, _, kind, _, modes in cli_io._FLAGS if modes == {"simulate"}
        ]
        assert len(simulate_only) == 5
        for flag, kind in simulate_only:
            with pytest.raises(SystemExit) as info:
                main([command, config, flag] + ([] if kind is bool else ["1"]))
            assert info.value.code == 2
            assert flag in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


    @pytest.mark.parametrize("output, error", [
        ("d", "IsADirectoryError"), ("f/out.csv", "FileExistsError"),
    ], ids=["directory", "under-a-file"])
    def test_a_write_error_is_a_run_error(self, tmp_path, capsys, output, error):
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("")
        config = write_config(tmp_path, "w.json", {
            "channels": [{"pulses": 3}, {"pulses": 5}],
            "output_path": str(tmp_path / output),
        })
        assert main(["ccrt-check", config]) == 1
        assert capsys.readouterr().err.startswith(f"run error: {error}: ")

    @pytest.mark.parametrize("command, flag", [
        ("ccrt-check", "--seed"), ("ccrt-check", "--trials"), ("ccrt-check", "--batch-size"),
        ("ccrt-check", "--snr-scale"), ("fused", "--seed"), ("fused", "--trials"),
        ("fused", "--batch-size"), ("simulate", "--trials"), ("simulate", "--batch-size"),
        ("simulate", "--snr-scale"),
    ])
    def test_a_flag_the_subcommand_does_not_read_is_refused(
        self, tmp_path, capsys, command, flag
    ):
        config = sweep_config(tmp_path, "unread.csv", seed=1)
        with pytest.raises(SystemExit) as info:
            main([command, config, flag, "1"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "unread.csv").exists()

    def test_every_subcommand_offers_exactly_the_flags_its_mode_reads(self):
        offered = {
            command: {flag for flag, *_, modes in cli_io._FLAGS if mode in modes}
            for command, mode in cli_io._SUBCOMMANDS.items()
        }
        mc = {"--output", "--seed", "--trials", "--batch-size", "--snr-scale"}
        assert offered == {
            "pd": mc, "pfa": mc, "mc": mc,
            "fused": {"--output", "--snr-scale"},
            "ccrt-check": {"--output"},
            "simulate": {
                "--output", "--seed", "--noise-sigma", "--tolerance-hz", "--velocity-mps",
                "--range-m", "--export-maps",
            },
        }


class TestMonteCarloMode:
    def test_mc_validate_agrees_with_the_closed_form(self, tmp_path):
        config = write_config(tmp_path, "mc.json", {
            "channels": [{"pulses": 7, "subpulses": 8}],
            "snr_db": {"start": 10.0, "stop": 10.0, "step": 1.0},
            "output_path": str(tmp_path / "mc.csv"),
        })
        assert main(["mc", config, "--seed", "3", "--trials", "20000", "--batch-size", "4096"]) == 0
        columns, rows = read_csv(tmp_path / "mc.csv")
        assert tuple(columns) == SCHEMAS["mc_validate"]
        (row,) = rows
        assert int(row["trials"]) == 20000
        assert int(row["pd_agree"]) == 1 and int(row["pfa_agree"]) == 1
        assert abs(float(row["pd_z"])) <= 5.0
        stats = from_snr(snr1_db=10.0, lambda1=0.5, lambda2=0.99, M=7, N=8)
        est = estimate(McConfig(stats=stats, seed=3, trials=20000, batch_size=4096))
        assert float(row["pd_mc"]) == est.pd_hat
        assert float(row["pfa_mc"]) == est.pfa_hat

    def test_an_out_of_range_z_names_the_layout_and_the_score(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli_io, "pd_closed_form", lambda points: (0.0,) * len(points))
        config = write_config(tmp_path, "mcbad.json", {
            "channels": [{"pulses": 7, "subpulses": 8}],
            "snr_db": {"start": 10.0, "stop": 10.0},
            "output_path": str(tmp_path / "mcbad.csv"),
        })
        assert main(["mc", config, "--seed", "3", "--trials", "4000", "--batch-size", "4096"]) == 1
        manifest = json.loads((tmp_path / "mcbad.csv.manifest.json").read_text())
        (failure,) = manifest["cross_checks"]["failures"]
        assert "M=7, N=8" in failure and "pd_z=" in failure

    def test_rows_do_not_replay_the_next_seeds_streams(self, tmp_path):
        stats = from_snr(snr1_db=10.0, lambda1=0.5, lambda2=0.99, M=7, N=8)
        estimates = {}
        for seed in (7, 8):
            path = sweep_config(tmp_path, f"rows{seed}.csv", seed=seed, mc={"trials": 4000})
            config = cli_io.load_config(path, mode="mc_validate")
            estimates[seed] = [cli_io._mc_for(config, stats, row) for row in (0, 1)]
        assert estimates[7][0].pd_hat != estimates[7][1].pd_hat
        assert estimates[7][1].pd_hat != estimates[8][0].pd_hat

    def test_csv_and_manifest_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        config = sweep_config(tmp_path, "cpus.csv")
        flags = ["--seed", "5", "--trials", "20000", "--batch-size", "4096"]
        outputs = []
        for cpus in (1, 2, 3, 3):
            monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
            assert main(["mc", config, *flags]) == 0
            outputs.append((
                (tmp_path / "cpus.csv").read_bytes(),
                (tmp_path / "cpus.csv.manifest.json").read_bytes(),
            ))
        assert all(output == outputs[0] for output in outputs)

    def test_mc_without_a_seed_is_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, "mc2.json", {
            "channels": [{"pulses": 7, "subpulses": 8}],
            "snr_db": {"start": 10.0, "stop": 10.0, "step": 1.0},
            "output_path": str(tmp_path / "mc2.csv"),
        })
        assert main(["mc", config]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "--seed" in err

    def test_an_error_inside_the_run_is_printed_and_recorded(self, tmp_path, capsys):
        # the closed form cannot resolve M=31, N=32 at -5 dB
        config = write_config(tmp_path, "deep.json", {
            "channels": [{"pulses": 31, "subpulses": 32}],
            "snr_db": {"start": -5.0, "stop": -5.0},
            "output_path": str(tmp_path / "deep.csv"),
        })
        assert main(["pd", config]) == 1
        err = capsys.readouterr().err
        manifest = json.loads((tmp_path / "deep.csv.manifest.json").read_text())
        assert manifest["error"]["type"] == "NumericalDomainError"
        assert manifest["output"] is None and manifest["cross_checks"]["passed"] is False
        assert f"run error: NumericalDomainError: {manifest['error']['message']}" in err

    def test_a_failing_point_raises_before_any_monte_carlo_batch(self, tmp_path, monkeypatch):
        # row 0 (M=7) resolves, row 1 (M=31, N=32) does not; the closed forms
        # run over the whole grid first, so no row draws a batch
        drawn = []
        monkeypatch.setattr(cli_io, "estimate", lambda config: drawn.append(config))
        config = write_config(tmp_path, "deepmc.json", {
            "channels": [{"pulses": 7, "subpulses": 8}, {"pulses": 31, "subpulses": 32}],
            "snr_db": {"start": -5.0, "stop": -5.0},
            "output_path": str(tmp_path / "deepmc.csv"),
        })
        assert main(["mc", config, "--seed", "1", "--trials", "4000"]) == 1
        manifest = json.loads((tmp_path / "deepmc.csv.manifest.json").read_text())
        assert manifest["error"]["type"] == "NumericalDomainError"
        assert "M=31" in manifest["error"]["message"]
        assert drawn == []


class TestCongruenceMode:
    def test_round_trip_over_the_whole_lattice(self, tmp_path):
        config = write_config(tmp_path, "ccrt.json", {
            "channels": [{"pulses": 3}, {"pulses": 5}, {"pulses": 7}],
            "output_path": str(tmp_path / "ccrt.csv"),
        })
        assert main(["ccrt-check", config]) == 0
        columns, rows = read_csv(tmp_path / "ccrt.csv")
        assert tuple(columns) == SCHEMAS["ccrt_check"]
        (row,) = rows
        assert row["moduli"] == "3x5x7"
        assert int(row["theta"]) == 105
        assert int(row["passed"]) == 105
        assert int(row["all_pass"]) == 1

    def test_lattice_spanning_several_blocks_is_checked_whole(self, tmp_path):
        moduli = (11, 13, 17, 19)
        theta = math.prod(moduli)
        assert theta > cli_io._CCRT_BLOCK and theta % cli_io._CCRT_BLOCK
        config = write_config(tmp_path, "lattice.json", {
            "channels": [{"pulses": m} for m in moduli],
            "output_path": str(tmp_path / "lattice.csv"),
        })
        assert main(["ccrt-check", config]) == 0
        _, rows = read_csv(tmp_path / "lattice.csv")
        (row,) = rows
        assert int(row["checked"]) == theta
        assert int(row["passed"]) == theta
        assert int(row["all_pass"]) == 1


class TestSimulateMode:
    def test_noiseless_run_recovers_the_target(self, tmp_path):
        config = radar_config(tmp_path, "sim.csv", export_maps=True)
        assert main(["simulate", config]) == 0
        columns, rows = read_csv(tmp_path / "sim.csv")
        assert tuple(columns) == SCHEMAS["simulate"]
        assert len(rows) == 4
        wavelength = 299792458.0 / 6e9
        for row in rows:
            assert int(row["detected"]) == 1
            assert int(row["all_detected"]) == 1
            assert abs(float(row["velocity_mps"]) + 900.0) <= 100.0 * wavelength / 4.0
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert len(manifest["exports"]) == 16  # (pp + sp raw + sidecars) x 4 channels
        for name in manifest["exports"]:
            assert (tmp_path / name).name  # recorded as written paths
        sidecar = json.loads((tmp_path / "sim.ch0.pp.f32.json").read_text())
        assert sidecar["dtype"] == "<f4"
        assert sidecar["axes"] == ["pulse_doppler", "range"]

    def test_noisy_run_is_reproducible_from_the_seed(self, tmp_path):
        config = radar_config(tmp_path, "noisy.csv", seed=5, noise_sigma=0.3)
        assert main(["simulate", config]) == 0
        first = (tmp_path / "noisy.csv").read_bytes()
        assert main(["simulate", config]) == 0
        assert (tmp_path / "noisy.csv").read_bytes() == first

    def test_outputs_and_exports_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        # the channels export their maps from their own threads
        config = radar_config(tmp_path, "cpus.csv", seed=5, noise_sigma=0.3, export_maps=True)
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(numerics, "_usable_cpus", lambda: cpus)
            assert main(["simulate", config]) == 0
            manifest = json.loads((tmp_path / "cpus.csv.manifest.json").read_text())
            names = [
                str(tmp_path / f"cpus.ch{i}.{grid}.f32{ext}")
                for i in range(4) for grid in ("pp", "sp") for ext in ("", ".json")
            ]
            assert manifest["exports"] == names
            outputs.append([
                (tmp_path / name).read_bytes()
                for name in ("cpus.csv", "cpus.csv.manifest.json", *names)
            ])
        assert outputs[0] == outputs[1]

    def test_skewed_spacings_need_the_tolerance_flag(self, tmp_path, capsys):
        config = radar_config(tmp_path, "skew.csv", prf_hz=(1100, 1300, 1700.3, 1900))
        assert main(["simulate", config]) == 2
        err = capsys.readouterr().err
        assert "spacing_tolerance_hz" in err or "--tolerance-hz" in err
        assert main(["simulate", config, "--tolerance-hz", "1.0"]) == 0
        _, rows = read_csv(tmp_path / "skew.csv")
        assert all(int(row["all_detected"]) == 1 for row in rows)
        assert abs(float(rows[0]["velocity_mps"]) + 900.0) <= 4.0

    def test_spacing_errors_keep_their_wording(self, tmp_path, capsys):
        config = radar_config(tmp_path, "skew.csv", prf_hz=(1100, 1300, 1700.3, 1900))
        assert main(["simulate", config]) == 2
        assert capsys.readouterr().err == (
            "config error: radar.prf_hz: channels do not share a common bin spacing: "
            "100.0 Hz vs 100.01764705882353 Hz; exact congruence unfolding requires "
            "prf_i = M_i * spacing with one spacing (set 'spacing_tolerance_hz' or pass "
            "--tolerance-hz to use coincidence-mode unfolding)\n"
        )
        assert main(["simulate", config, "--tolerance-hz", "1e-6"]) == 2
        assert capsys.readouterr().err == (
            "config error: radar.prf_hz: bin spacings spread 0.0176471 Hz exceeds "
            "spacing_tolerance_hz=1e-06\n"
        )


class TestConfigErrors:
    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channels": [,]}')
        assert main(["pd", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_non_coprime_pulse_counts_are_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, "gcd.json", {
            "channels": [{"pulses": 4, "subpulses": 8}, {"pulses": 6, "subpulses": 8}],
            "snr_db": {"start": 0.0, "stop": 0.0},
            "output_path": str(tmp_path / "x.csv"),
        })
        assert main(["pd", config]) == 2
        assert "coprime" in capsys.readouterr().err

    def test_missing_required_field_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, "miss.json", {
            "channels": [{"pulses": 7, "subpulses": 8}],
            "output_path": str(tmp_path / "x.csv"),
        })
        assert main(["pd", config]) == 2
        assert "'snr_db'" in capsys.readouterr().err

    def test_a_missing_field_in_a_section_is_named_by_its_path(self, tmp_path, capsys):
        config = write_config(tmp_path, "nested.json", {
            "channels": [{"pulses": 7}],
            "snr_db": {"stop": 3},
            "output_path": str(tmp_path / "x.csv"),
        })
        assert main(["pd", config]) == 2
        assert capsys.readouterr().err == "config error: missing required field 'snr_db.start'\n"

    def test_a_mistyped_field_in_a_section_is_named_by_its_path(self, tmp_path, capsys):
        config = radar_config(tmp_path, "x.csv", target={"range_m": "x"})
        assert main(["simulate", config]) == 2
        assert capsys.readouterr().err == (
            "config error: field 'target.range_m' must be float, got str\n"
        )

    def test_fusion_total_must_cover_every_channel(self, tmp_path, capsys):
        config = write_config(tmp_path, "fr.json", {
            "channels": [{"pulses": 7}, {"pulses": 11}],
            "snr_db": {"start": 0.0, "stop": 0.0},
            "fusion": {"required": 1, "total": 3},
            "output_path": str(tmp_path / "x.csv"),
        })
        assert main(["fused", config]) == 2
        assert "fusion.total" in capsys.readouterr().err

    def test_mode_field_conflicting_with_subcommand(self, tmp_path, capsys):
        config = sweep_config(tmp_path, "conflict.csv", mode="pd_sweep")
        assert main(["pfa", config]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_missing_file_is_a_config_error(self, tmp_path, capsys):
        assert main(["pd", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, flags, field", [
        ({"target": {"range_m": 10000.0, "velocity_mps": -900.0, "amplitude": -1}},
         [], "amplitude"),
        ({}, ["--velocity-mps", "nan"], "velocity_mps"),
        ({"noise_sigma": math.nan}, [], "noise_sigma"),
        ({"prf_hz": (math.nan, 1300, 1700, 1900)}, [], "prf_hz"),
        ({"export_maps": "no"}, [], "export_maps"),
        ({"seed": -3}, [], "'seed'"),
        ({}, ["--seed", "-1"], "'seed'"),
    ], ids=["negative-amplitude", "nan-velocity-flag", "nan-noise", "nan-prf", "string-export-maps",
            "negative-seed", "negative-seed-flag"])
    def test_invalid_simulate_field_is_named(self, tmp_path, capsys, overrides, flags, field):
        config = radar_config(tmp_path, "bad.csv", **overrides)
        assert main(["simulate", config, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("overrides, flags, field", [
        ({"seed": -3}, [], "'seed'"),
        ({"mc": {"seed": -2}}, [], "'mc.seed'"),
        ({"seed": 5}, ["--seed", "-1"], "'seed'"),
    ], ids=["negative-seed", "negative-mc-seed", "negative-seed-flag"])
    def test_invalid_mc_seed_is_named(self, tmp_path, capsys, overrides, flags, field):
        config = sweep_config(tmp_path, "bad.csv", **overrides)
        assert main(["mc", config, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("overrides, flags", [
        ({"seed": 1, "mc": {"seed": 2}}, []),
        ({"mc": {"seed": 2}}, ["--seed", "1"]),
    ], ids=["config", "seed-flag"])
    def test_disagreeing_seed_and_mc_seed_are_refused(self, tmp_path, capsys, overrides, flags):
        # 'seed' is the one spelling of the Monte Carlo seed; mc.seed is refused
        config = sweep_config(tmp_path, "seeds.csv", **overrides)
        assert main(["mc", config, *flags]) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: mc_validate runs do not read 'mc.seed'; "
            "the Monte Carlo seed is 'seed' (or --seed)\n"
        )
        assert not (tmp_path / "seeds.csv").exists()
        assert not (tmp_path / "seeds.csv.manifest.json").exists()

    def test_simulate_refuses_mixed_subpulse_counts(self, tmp_path, capsys):
        channels = [{"pulses": 11, "subpulses": 8}, {"pulses": 13, "subpulses": 4}]
        config = radar_config(tmp_path, "mixed.csv", prf_hz=(1100, 1300), channels=channels)
        assert main(["simulate", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "subpulse count: [4, 8]" in err
        assert not (tmp_path / "mixed.csv").exists()

    @pytest.mark.parametrize("command, make, overrides, named", [
        *[("pd", sweep_config, {key: value}, key)
          for key in ("lambda1", "lambda2") for value in (0, 1)],
        *[("pd", sweep_config, {"snr_scale": value}, "snr_scale") for value in (0, -1)],
        ("pd", sweep_config, {"snr_db": {"start": 9.0, "stop": 10.0, "step": 0}}, "snr_db.step"),
        ("pd", sweep_config, {"snr_db": {"start": 10.0, "stop": 9.0}}, "snr_db"),
        ("mc", sweep_config, {"seed": 1, "mc": {"trials": 0}}, "mc.trials"),
        ("mc", sweep_config, {"seed": 1, "mc": {"batch_size": 0}}, "mc.batch_size"),
        ("mc", sweep_config, {"seed": -1}, "'seed'"),
        ("simulate", radar_config, {"seed": -1}, "'seed'"),
        *[(command, make, {"channels": [{"pulses": 7, "subpulses": 8, key: value},
                                        {"pulses": 11, "subpulses": 8}]}, f"channels[0].{key}")
          for command, make in (("pd", sweep_config), ("ccrt-check", sweep_config))
          for key in ("pulses", "subpulses") for value in (0, True, 7.0)],
        ("fused", sweep_config, {"fusion": {"required": 0}}, "fusion"),
        ("fused", sweep_config, {"output_path": ""}, "output_path"),
        ("simulate", radar_config, {"spacing_tolerance_hz": -1}, "spacing_tolerance_hz"),
        ("simulate", radar_config, {"noise_sigma": -0.1}, "noise_sigma"),
        ("simulate", radar_config, {"prf_hz": (1100, 1300), "channels": [
            {"pulses": 11, "subpulses": 8}, {"pulses": 13, "subpulses": 4}]}, "subpulse count"),
        ("simulate", radar_config, {"prf_hz": (0, 1300, 1700, 1900)}, "radar.prf_hz[0]"),
        ("simulate", radar_config, {"prf_hz": (True, 1300, 1700, 1900)}, "radar.prf_hz[0]"),
        ("simulate", radar_config, {"prf_hz": (1100, 1300, 1700)}, "radar.prf_hz"),
    ])
    def test_each_load_time_refusal_names_its_key(
        self, tmp_path, capsys, command, make, overrides, named
    ):
        config = make(tmp_path, "refused.csv", **overrides)
        assert main([command, config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err, err
        assert not (tmp_path / "refused.csv").exists()
        assert not (tmp_path / "refused.csv.manifest.json").exists()

    def test_an_integer_past_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        config = tmp_path / "digits.json"
        config.write_text('{"channels": [{"pulses": ' + "7" * 5000 + "}]}")
        assert main(["ccrt-check", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config parse error:") and "4300 digits" in err

    _HUGE = "int too large to convert to float"

    @pytest.mark.parametrize("command, make, overrides, message", [
        ("pd", sweep_config, {"lambda2": 1},
         "field 'lambda2': lambda2 must lie strictly inside (0, 1), got 1.0"),
        ("pd", sweep_config, {"snr_scale": -1},
         "field 'snr_scale': snr_scale must be finite and positive, got -1.0"),
        ("mc", sweep_config, {"seed": 1, "mc": {"batch_size": 0}},
         "field 'mc.batch_size': batch_size must be >= 1, got 0"),
        ("mc", sweep_config, {"seed": -1}, "field 'seed': seed must be non-negative, got -1"),
        ("simulate", radar_config, {"seed": -1},
         "field 'seed': seed must be non-negative, got -1"),
        ("simulate", radar_config, {"spacing_tolerance_hz": -1},
         "field 'spacing_tolerance_hz': spacing_tolerance_hz must be finite and non-negative, "
         "got -1.0"),
        ("simulate", radar_config, {"prf_hz": (0, 1300, 1700, 1900)},
         "field 'radar.prf_hz[0]': prf must be finite and positive, got 0.0"),
        ("simulate", radar_config, {"prf_hz": (1100, 1300), "channels": [
            {"pulses": 11, "subpulses": 8}, {"pulses": 13, "subpulses": 4}]},
         "field 'channels[].subpulses': channels disagree on subpulse count: [4, 8]"),
        ("fused", sweep_config, {"fusion": {"required": 3}},
         "field 'fusion.required': required must lie in 1..total, got required=3 total=2"),
        # the loader's own range rules read as the library's do
        ("ccrt-check", sweep_config, {"channels": [{"pulses": 7, "subpulses": 0}]},
         "field 'channels[0].subpulses': subpulses must be >= 1, got 0"),
        ("pd", sweep_config, {"snr_db": {"start": 9.0, "stop": 10.0, "step": 0}},
         "field 'snr_db.step': step must be finite and positive, got 0.0"),
        ("simulate", radar_config, {"noise_sigma": -0.1},
         "field 'noise_sigma': noise_sigma must be finite and non-negative, got -0.1"),
        # a grid past the cap, or one whose point count overflows, is refused unbuilt
        ("pd", sweep_config, {"snr_db": {"start": 0.0, "stop": 1e300}},
         "field 'snr_db': the grid from 0.0 to 1e+300 in steps of 1.0 has more than "
         "10000 points"),
        ("pfa", sweep_config, {"snr_db": {"start": -1e308, "stop": 1e308}},
         "field 'snr_db': the grid from -1e+308 to 1e+308 in steps of 1.0 has more than "
         "10000 points"),
        ("pd", sweep_config, {"snr_db": {"start": 0.0, "stop": 10000.0}},
         "field 'snr_db': the grid from 0.0 to 10000.0 in steps of 1.0 has more than "
         "10000 points"),
        # a bool is no integer
        ("mc", sweep_config, {"seed": True}, "field 'seed' must be int, got bool"),
        ("mc", sweep_config, {"seed": 1, "mc": {"trials": True}},
         "field 'mc.trials' must be int, got bool"),
        ("fused", sweep_config, {"fusion": {"required": True}},
         "field 'fusion.required' must be int, got bool"),
        # an integer beyond float64 is refused by the path that holds it
        ("pd", sweep_config, {"lambda1": 10 ** 400}, f"field 'lambda1': {_HUGE}"),
        ("pd", sweep_config, {"snr_db": {"start": 9.0, "stop": 10.0, "step": 10 ** 400}},
         f"field 'snr_db.step': {_HUGE}"),
        ("simulate", radar_config, {"noise_sigma": 10 ** 400}, f"field 'noise_sigma': {_HUGE}"),
        ("simulate", radar_config, {"target": {"range_m": 1e4, "velocity_mps": -10 ** 400}},
         f"field 'target.velocity_mps': {_HUGE}"),
        ("simulate", radar_config, {"prf_hz": (10 ** 400, 1300, 1700, 1900)},
         f"field 'radar.prf_hz[0]': {_HUGE}"),
        ("pd", sweep_config, {"channels": [{"pulses": 10 ** 400}]}, f"field 'channels[0]': {_HUGE}"),
        ("simulate", radar_config, {"channels": [{"pulses": p, "subpulses": 8} for p in (
            10 ** 400, 13, 17, 19)]}, f"field 'channels[].pulses': {_HUGE}"),
        # a batch past the cap is refused before any trial is drawn
        ("mc", sweep_config, {"seed": 1, "mc": {"batch_size": 1 << 31}},
         "field 'mc.batch_size': batch_size must be <= 1048576, got 2147483648"),
    ])
    def test_a_refusal_names_the_dotted_key(
        self, tmp_path, capsys, command, make, overrides, message
    ):
        config = make(tmp_path, "lib.csv", **overrides)
        assert main([command, config]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "lib.csv.manifest.json").exists()

    @pytest.mark.parametrize("command, make, overrides, flags, field", [
        ("pd", sweep_config, {}, ["--seed", "9"], "'seed'"),
        ("pfa", sweep_config, {"seed": 9}, [], "'seed'"),
        ("fused", sweep_config, {"seed": 4}, [], "'seed'"),
        ("fused", sweep_config, {"mc": {"trials": 5}}, [], "'mc'"),
        ("fused", sweep_config, {"seed": 4, "mc": {"trials": 5}}, [], "'mc'"),
        ("ccrt-check", sweep_config, {"seed": 1}, [], "'seed'"),
        ("ccrt-check", sweep_config, {"mc": {"seed": 1}}, [], "'mc'"),
        ("simulate", radar_config, {"seed": 3, "mc": {"trials": 5}}, [], "'mc'"),
    ], ids=["pd-seed-flag", "pfa-seed", "fused-seed", "fused-mc", "fused-seed-and-mc",
            "ccrt-seed", "ccrt-mc-seed", "simulate-mc"])
    def test_a_monte_carlo_input_no_run_reads_is_refused(
        self, tmp_path, capsys, command, make, overrides, flags, field
    ):
        config = make(tmp_path, "unread.csv", **overrides)
        assert main([command, config, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not (tmp_path / "unread.csv.manifest.json").exists()

    @pytest.mark.parametrize("command, make, overrides, flags", [
        ("mc", sweep_config, {"mc": 5}, ["--trials", "100"]),
        ("mc", sweep_config, {"mc": 5}, ["--batch-size", "100"]),
        ("simulate", radar_config, {"target": "far"}, ["--velocity-mps", "-500"]),
        ("simulate", radar_config, {"target": "far"}, ["--range-m", "9000"]),
    ], ids=["mc-trials-flag", "mc-batch-flag", "target-velocity-flag", "target-range-flag"])
    def test_flag_into_a_non_object_section_is_named(
        self, tmp_path, capsys, command, make, overrides, flags
    ):
        config = make(tmp_path, "bad.csv", **overrides)
        assert main([command, config, *flags]) == 2
        err = capsys.readouterr().err
        section = next(iter(overrides))
        assert err.startswith("config error:") and f"field '{section}' must be dict" in err
        assert not (tmp_path / "bad.csv").exists()


# One refusal of each single-field range rule the library checks, as
# (call, parameter name, offending value). `_build` names a config key by the
# first word of the message, so each message starts with its parameter's name.
_CHANNEL = PrfChannel(prf=1100.0, num_pulses=11, num_subpulses=8)
_RADAR = {"carrier_hz": 6e9, "pulse_width_s": 25e-6, "bandwidth_hz": 2e6,
          "sample_rate_hz": 8e6, "channels": (_CHANNEL,)}
_TARGET = {"range_m": 1e4, "radial_velocity_mps": -900.0, "amplitude": 1.0}
_STATS = {"lambda1": 0.5, "lambda2": 0.99, "m_re": 1.0, "M": 7, "N": 8}
_MC = {"stats": from_snr(10.0, 0.5, 0.99, 7, 8), "seed": 1}
LIBRARY_REFUSALS = [
    (lambda v: PrfChannel(prf=v, num_pulses=11), "prf", 0.0),
    (lambda v: PrfChannel(prf=1100.0, num_pulses=v), "num_pulses", 0),
    (lambda v: PrfChannel(prf=1100.0, num_pulses=11, num_subpulses=v), "num_subpulses", 0),
    (lambda v: doppler_to_velocity(100.0, v), "wavelength", 0.0),
    (lambda v: velocity_to_doppler(100.0, v), "wavelength", math.inf),
    (lambda v: _check_spacings([_CHANNEL], v), "spacing_tolerance_hz", -1.0),
    (lambda v: unfold([1], [_CHANNEL], 0.0, fmax_hz=v), "fmax_hz", math.nan),
    (lambda v: modular_inverse(3, v), "modulus", 0),
    (lambda v: ChannelStats(**{**_STATS, "M": v}), "M", 0),
    (lambda v: ChannelStats(**{**_STATS, "N": v}), "N", 0),
    (lambda v: ChannelStats(**{**_STATS, "m_re": v}), "m_re", math.nan),
    (lambda v: from_snr(10.0, 0.5, 0.99, 7, 8, snr_scale=v), "snr_scale", -1.0),
    (lambda v: McConfig(**{**_MC, "seed": v}), "seed", -1),
    (lambda v: McConfig(**_MC, trials=v), "trials", 0),
    (lambda v: McConfig(**_MC, batch_size=v), "batch_size", 0),
    (lambda v: McConfig(**_MC, row=v), "row", -1),
    (lambda v: numerics.RngStream(v), "seed", -2),
    (lambda v: numerics.RngStream(1, (0, v)), "stream_id", -1),
    (lambda v: RadarSetup(**{**_RADAR, "carrier_hz": v}), "carrier_hz", 0.0),
    (lambda v: RadarSetup(**{**_RADAR, "pulse_width_s": v}), "pulse_width_s", -25e-6),
    (lambda v: RadarSetup(**{**_RADAR, "bandwidth_hz": v}), "bandwidth_hz", -1.0),
    (lambda v: RadarSetup(**{**_RADAR, "sample_rate_hz": v}), "sample_rate_hz", math.nan),
    (lambda v: TargetTruth(**{**_TARGET, "range_m": v}), "range_m", 0.0),
    (lambda v: TargetTruth(**{**_TARGET, "radial_velocity_mps": v}), "radial_velocity_mps",
     math.nan),
    (lambda v: TargetTruth(**{**_TARGET, "amplitude": v}), "amplitude", -1.0),
    (lambda v: split_subpulses([1.0] * 8, v), "subpulse count", 0),
    (lambda v: synth_echo(RadarSetup(**_RADAR), _CHANNEL, TargetTruth(**_TARGET),
                          noise_sigma=v), "noise_sigma", -0.5),
    (lambda v: McConfig(**_MC, batch_size=v), "batch_size", (1 << 20) + 1),
]
# the refusals whose wording changed when they moved into the shared helpers
NEW_WORDINGS = {
    "num_pulses": "num_pulses must be >= 1, got 0",
    "num_subpulses": "num_subpulses must be >= 1, got 0",
    "modulus": "modulus must be >= 1, got 0",
    "M": "M must be >= 1, got 0",
    "N": "N must be >= 1, got 0",
    "radial_velocity_mps": "radial_velocity_mps must be finite, got nan",
}


@pytest.mark.parametrize("call, name, value", LIBRARY_REFUSALS,
                         ids=[f"{i}-{name}" for i, (_, name, _) in enumerate(LIBRARY_REFUSALS)])
def test_a_library_refusal_starts_with_its_parameter_and_shows_its_value(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")
    assert message == NEW_WORDINGS.get(name, message)


# Every key each subcommand reads, as the one config that sets them all (pd and
# pfa read `seed` only beside an `mc` section); channel entries read `pulses`
# and `subpulses` in every mode. A mode refuses any other key, by its path.
_SWEEP_KEYS = {
    "lambda1": 0.5, "lambda2": 0.99, "snr_scale": 1.0,
    "snr_db": {"start": 10.0, "stop": 10.0, "step": 1.0},
}
_MC_KEYS = {"mc": {"trials": 100, "batch_size": 100}, "seed": 1}
KEYS_READ = {
    "pd": {**_SWEEP_KEYS, **_MC_KEYS},
    "pfa": {**_SWEEP_KEYS, **_MC_KEYS},
    "fused": {**_SWEEP_KEYS, "fusion": {"required": 1}},
    "mc": {**_SWEEP_KEYS, **_MC_KEYS},
    "ccrt-check": {},
    "simulate": {
        "radar": {
            "carrier_hz": 6e9, "pulse_width_s": 25e-6, "bandwidth_hz": 2e6,
            "sample_rate_hz": 8e6, "prf_hz": [1100, 1300],
        },
        "target": {"range_m": 10000.0, "velocity_mps": -900.0, "amplitude": 1.0},
        "noise_sigma": 0.0, "spacing_tolerance_hz": 0.0, "export_maps": False, "seed": 1,
    },
}


def full_config(tmp_path, command):
    return copy.deepcopy({
        "mode": cli_io._SUBCOMMANDS[command],
        "channels": [{"pulses": 11, "subpulses": 8}, {"pulses": 13, "subpulses": 8}],
        **KEYS_READ[command],
        "output_path": str(tmp_path / "keys.csv"),
    })


def key_paths(value, prefix=""):
    """Dotted paths of every key in a config; `channels[]` stands for each entry."""
    if isinstance(value, list):
        return set().union(*(key_paths(item, prefix[:-1] + "[].") for item in value))
    if not isinstance(value, dict):
        return set()
    return set().union(*({prefix + k} | key_paths(v, f"{prefix}{k}.") for k, v in value.items()))


class TestKeyContract:
    def test_the_table_names_every_known_key_path(self, tmp_path):
        paths = set().union(*(key_paths(full_config(tmp_path, c)) for c in KEYS_READ))
        assert len(paths) == 31
        assert "mc.seed" not in paths and "fusion.total" not in paths

    @pytest.mark.parametrize("command", list(KEYS_READ))
    def test_a_config_with_every_key_the_mode_reads_loads(self, tmp_path, command):
        full = full_config(tmp_path, command)
        config = cli_io._config_from_dict(full, mode=cli_io._SUBCOMMANDS[command])
        assert config.raw == full

    @pytest.mark.parametrize("command", list(KEYS_READ))
    def test_every_key_the_mode_does_not_read_is_refused_by_path(
        self, tmp_path, capsys, command
    ):
        full = full_config(tmp_path, command)
        paths = set().union(*(key_paths(full_config(tmp_path, c)) for c in KEYS_READ))
        known = {path.rsplit(".", 1)[-1] for path in paths}
        # the top level, every section the mode reads, and a channel entry
        objects = [("", full), ("channels[1].", full["channels"][1])]
        objects += [(f"{key}.", value) for key, value in full.items() if isinstance(value, dict)]
        for prefix, obj in objects:
            for name in sorted(known - set(obj)) + ["colour"]:
                obj[name] = 1
                config = write_config(tmp_path, "keys.json", full)
                del obj[name]
                assert main([command, config]) == 2, prefix + name
                err = capsys.readouterr().err
                assert err.startswith("config error:") and repr(prefix + name) in err, err
                if prefix + name == "seed":
                    assert "mc, simulate, and pd/pfa with an 'mc' section" in err
        assert not list(tmp_path.glob("keys.csv*"))


# One JSON value of each kind the loader can meet: a huge or negative int, any
# float (NaN and Infinity included, since json reads them), a str, a bool,
# null, a list or an object.
_JSON_VALUES = st.one_of(
    st.integers(min_value=10 ** 300, max_value=10 ** 500),
    st.integers(min_value=-(10 ** 500), max_value=-1),
    st.floats(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def _set_path(config, path, value):
    """Set the key at dotted `path`; `name[]` steps into the list's first entry."""
    *parents, leaf = path.split(".")
    for part in parents:
        config = config[part[:-2]][0] if part.endswith("[]") else config[part]
    if leaf.endswith("[]"):
        config[leaf[:-2]][0] = value
    else:
        config[leaf] = value


class TestLoadFuzz:
    @pytest.mark.parametrize("command", list(KEYS_READ))
    def test_one_drawn_value_loads_or_is_a_config_error(self, command):
        full = full_config(Path("fuzz"), command)
        paths = sorted(key_paths(full) | ({"radar.prf_hz[]"} if "radar" in full else set()))

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(path=st.sampled_from(paths), value=_JSON_VALUES)
        def load(path, value):
            raw = copy.deepcopy(full)
            _set_path(raw, path, value)
            try:
                cli_io._config_from_dict(raw, mode=cli_io._SUBCOMMANDS[command])
            except cli_io.ConfigError:
                pass

        load()
