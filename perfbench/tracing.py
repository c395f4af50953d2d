"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces functions at the names their callers look up
(`subpulse.cli_io.simulate_channel`, `subpulse.radar_sim.compress_sp`, ...)
with wrappers that time each call; `uninstall` puts the originals back, so
an untraced run executes the unmodified program.

Three kinds of wrapper:
  * span: every call is kept as (name, start, end, parent, op id);
  * timed: calls and time are summed but no span is kept, for functions
    called 10^5 times per op (`ccrt_solve` in ccrt-check);
  * count: calls are counted, nothing is timed (`modular_inverse`).
A span's self time is its duration minus the time of the wrapped calls made
inside it; a module's self time sums that over the module's names. Per-
integrand helpers such as `bessel_i0_log` are deliberately not wrapped.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

from workloads import ORACLE_TOL, oracle_gaps

# (module, attribute, reported name, kind). Names follow the module that
# defines the function, wherever the wrapper is installed.
WRAPPED = (
    ("cli_io", "load_config", "cli_io.load_config", "span"),
    ("cli_io", "run", "cli_io.run", "span"),
    ("cli_io", "simulate_channel", "radar_sim.simulate_channel", "span"),
    ("radar_sim", "synth_echo", "radar_sim.synth_echo", "span"),
    ("radar_sim", "compress_sp", "radar_sim.compress_sp", "span"),
    ("radar_sim", "matched_filter", "numerics.matched_filter", "span"),
    ("radar_sim", "build_datacube", "radar_sim.build_datacube", "span"),
    ("radar_sim", "doppler_maps", "radar_sim.doppler_maps", "span"),
    ("cli_io", "detect_and_unfold", "radar_sim.detect_and_unfold", "span"),
    ("radar_sim", "unfold", "ccrt.unfold", "span"),
    ("radar_sim", "unfold_tolerant", "ccrt.unfold_tolerant", "span"),
    ("ccrt", "unfold", "ccrt.unfold", "span"),
    ("cli_io", "export_maps", "radar_sim.export_maps", "span"),
    ("cli_io", "pd_closed_form", "detection_stats.pd_closed_form", "span"),
    ("cli_io", "pfa_closed_form", "detection_stats.pfa_closed_form", "span"),
    ("cli_io", "pd_oracle", "detection_stats.pd_oracle", "span"),
    ("cli_io", "pfa_oracle", "detection_stats.pfa_oracle", "span"),
    ("cli_io", "combine_m_of_l", "detection_stats.combine_m_of_l", "span"),
    ("detection_stats", "integrate_semi_infinite", "numerics.integrate_semi_infinite", "span"),
    ("cli_io", "estimate", "montecarlo.estimate", "span"),
    ("cli_io", "ccrt_solve", "ccrt.ccrt_solve", "timed"),
    ("ccrt", "ccrt_solve", "ccrt.ccrt_solve", "timed"),
    ("ccrt", "modular_inverse", "ccrt.modular_inverse", "count"),
)
MODULES = ("cli_io", "radar_sim", "numerics", "ccrt", "detection_stats", "montecarlo")

# Unit of every per-layer metric; all are per op unless the name says
# otherwise. A layer the workload does not reach reports 0.
LAYER_UNITS = {
    "cli_io.load_config.ms": "ms",
    "cli_io.run.self_ms": "ms",
    "cli_io.bytes_written": "bytes",
    "radar_sim.synth_echo.ms": "ms",
    "radar_sim.compress_sp.ms": "ms",
    "numerics.matched_filter.ms": "ms",
    "numerics.matched_filter.calls": "count",
    "radar_sim.samples_compressed": "count",
    "radar_sim.doppler_maps.ms": "ms",
    "radar_sim.detect_and_unfold.ms": "ms",
    "ccrt.unfold.calls": "count",
    "ccrt.unfold_tolerant.ms": "ms",
    "ccrt.unfold_tolerant.attempts_per_result": "ratio",
    "radar_sim.export_maps.ms": "ms",
    "radar_sim.bytes_exported": "bytes",
    "detection_stats.pd_closed_form.ms": "ms",
    "detection_stats.pfa_closed_form.ms": "ms",
    "detection_stats.pd_oracle.ms": "ms",
    "detection_stats.pfa_oracle.ms": "ms",
    "detection_stats.combine_m_of_l.ms": "ms",
    "numerics.integrate_semi_infinite.calls": "count",
    "numerics.integrate_semi_infinite.ms": "ms",
    "numerics.integrate_semi_infinite.errors": "count",
    "detection_stats.domain_errors": "count",
    "detection_stats.points_certified_ratio": "ratio",
    "montecarlo.estimate.ms": "ms",
    "montecarlo.trials": "count",
    "montecarlo.batches": "count",
    "montecarlo.rng_draws": "count",
    "montecarlo.trials_per_s": "1/s",
    "ccrt.ccrt_solve.calls": "count",
    "ccrt.ccrt_solve.ms": "ms",
    "ccrt.modular_inverse.calls": "count",
    **{f"{module}.self_ms": "ms" for module in MODULES},
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if p is not None and Path(p).is_file())


class Tracer:
    """Collects spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counters = defaultdict(float)
        self.missing: list = []
        self.hook_errors: list = []
        self.op_id = None
        self._stack: list = []  # frames: [child seconds, nearest kept span index, name]
        self._saved: list = []
        self._hooks = {
            "radar_sim.compress_sp": self._on_compress,
            "radar_sim.export_maps": self._on_export,
            "cli_io.run": self._on_run,
            "ccrt.unfold": self._on_unfold,
            "montecarlo.estimate": self._on_estimate,
            "numerics.integrate_semi_infinite": self._on_quadrature,
            "detection_stats.pd_closed_form": self._on_closed_form,
            "detection_stats.pfa_closed_form": self._on_closed_form,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        makers = {"span": self._span, "timed": self._timed, "count": self._counting}
        for module_name, attr, name, kind in WRAPPED:
            module = importlib.import_module(f"subpulse.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, makers[kind](original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _counting(self, fn, name):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, name):
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _span(self, fn, name):
        stat, stack, spans, clock = self.stats[name], self._stack, self.spans, time.perf_counter
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            frame = [0.0, index, name]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                spans[index] = (name, start, end, parent[1] if parent else None, self.op_id)
                if hook is not None:
                    try:
                        hook(args, result, error, parent[2] if parent else None)
                    except Exception as err:  # a counter must never fail the op
                        self.hook_errors.append(f"{name}: {type(err).__name__}: {err}")

        return wrapper

    # -- counters computed where the work happens --------------------------

    def _on_unfold(self, args, result, error, parent):
        if parent == "ccrt.unfold_tolerant":
            self.counters["ccrt.unfold_tolerant.attempts"] += 1

    def _on_compress(self, args, result, error, parent):
        rx, segments = args[0], args[1]
        self.counters["radar_sim.samples_compressed"] += rx.shape[0] * len(segments) * rx.shape[1]

    def _on_export(self, args, result, error, parent):
        if result is not None:
            self.counters["radar_sim.bytes_exported"] += _file_bytes(
                *result, *(str(p) + ".json" for p in result)
            )

    def _on_run(self, args, result, error, parent):
        if result is None:
            return
        self.counters["cli_io.bytes_written"] += _file_bytes(result.csv_path, result.manifest_path)
        for gap in oracle_gaps(args[0].mode, result.rows):
            self.counters["detection_stats.points"] += 1
            if gap <= ORACLE_TOL:
                self.counters["detection_stats.points_certified"] += 1

    def _on_estimate(self, args, result, error, parent):
        config = args[0]
        stats = config.stats
        self.counters["montecarlo.trials"] += config.trials
        self.counters["montecarlo.batches"] += math.ceil(config.trials / config.batch_size)
        self.counters["montecarlo.rng_draws"] += config.trials * (6 + stats.M - 1 + stats.N - 1)

    def _on_quadrature(self, args, result, error, parent):
        if error is not None:
            self.counters["numerics.integrate_semi_infinite.errors"] += 1

    def _on_closed_form(self, args, result, error, parent):
        if type(error).__name__ == "NumericalDomainError":
            self.counters["detection_stats.domain_errors"] += 1

    # -- reporting ----------------------------------------------------------

    def per_layer(self, ops: int, op_seconds: float) -> dict:
        """Per-op layer metrics over `ops` traced ops taking `op_seconds` in all."""

        def per_op(value):
            return value / ops

        def calls(name):
            return self.stats[name][0] if name in self.stats else 0

        def seconds(name):
            return self.stats[name][1] if name in self.stats else 0.0

        def ms(name):
            return per_op(seconds(name)) * 1e3

        c = self.counters
        tolerant = calls("ccrt.unfold_tolerant")
        out = {
            "cli_io.load_config.ms": ms("cli_io.load_config"),
            "cli_io.run.self_ms": per_op(self.stats["cli_io.run"][2]) * 1e3,
            "cli_io.bytes_written": per_op(c["cli_io.bytes_written"]),
            "radar_sim.synth_echo.ms": ms("radar_sim.synth_echo"),
            "radar_sim.compress_sp.ms": ms("radar_sim.compress_sp"),
            "numerics.matched_filter.ms": ms("numerics.matched_filter"),
            "numerics.matched_filter.calls": per_op(calls("numerics.matched_filter")),
            "radar_sim.samples_compressed": per_op(c["radar_sim.samples_compressed"]),
            "radar_sim.doppler_maps.ms": ms("radar_sim.doppler_maps"),
            "radar_sim.detect_and_unfold.ms": ms("radar_sim.detect_and_unfold"),
            "ccrt.unfold.calls": per_op(calls("ccrt.unfold")),
            "ccrt.unfold_tolerant.ms": ms("ccrt.unfold_tolerant"),
            "ccrt.unfold_tolerant.attempts_per_result": (
                c["ccrt.unfold_tolerant.attempts"] / tolerant if tolerant else 0.0
            ),
            "radar_sim.export_maps.ms": ms("radar_sim.export_maps"),
            "radar_sim.bytes_exported": per_op(c["radar_sim.bytes_exported"]),
            "detection_stats.pd_closed_form.ms": ms("detection_stats.pd_closed_form"),
            "detection_stats.pfa_closed_form.ms": ms("detection_stats.pfa_closed_form"),
            "detection_stats.pd_oracle.ms": ms("detection_stats.pd_oracle"),
            "detection_stats.pfa_oracle.ms": ms("detection_stats.pfa_oracle"),
            "detection_stats.combine_m_of_l.ms": ms("detection_stats.combine_m_of_l"),
            "numerics.integrate_semi_infinite.calls": per_op(
                calls("numerics.integrate_semi_infinite")
            ),
            "numerics.integrate_semi_infinite.ms": ms("numerics.integrate_semi_infinite"),
            "numerics.integrate_semi_infinite.errors": per_op(
                c["numerics.integrate_semi_infinite.errors"]
            ),
            "detection_stats.domain_errors": per_op(c["detection_stats.domain_errors"]),
            "detection_stats.points_certified_ratio": (
                c["detection_stats.points_certified"] / c["detection_stats.points"]
                if c["detection_stats.points"] else 0.0
            ),
            "montecarlo.estimate.ms": ms("montecarlo.estimate"),
            "montecarlo.trials": per_op(c["montecarlo.trials"]),
            "montecarlo.batches": per_op(c["montecarlo.batches"]),
            "montecarlo.rng_draws": per_op(c["montecarlo.rng_draws"]),
            "montecarlo.trials_per_s": (
                c["montecarlo.trials"] / seconds("montecarlo.estimate")
                if seconds("montecarlo.estimate") else 0.0
            ),
            "ccrt.ccrt_solve.calls": per_op(calls("ccrt.ccrt_solve")),
            "ccrt.ccrt_solve.ms": ms("ccrt.ccrt_solve"),
            "ccrt.modular_inverse.calls": per_op(calls("ccrt.modular_inverse")),
        }
        for module in MODULES:
            out[f"{module}.self_ms"] = per_op(
                sum(v[2] for k, v in self.stats.items() if k.startswith(module + "."))
            ) * 1e3
        covered = seconds("cli_io.load_config") + seconds("cli_io.run")
        out["trace.coverage_frac"] = covered / op_seconds if op_seconds else 0.0
        return out

    def write_spans(self, path) -> None:
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [list(s) for s in self.spans if s is not None],
            "missing_wrappers": self.missing,
            "hook_errors": self.hook_errors,
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n")
