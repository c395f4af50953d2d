#!/usr/bin/env python3
"""Benchmark of the subpulse CLI: one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload scene --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the repository root. The package is imported from ./src. An op is
one `cli_io.load_config` + `cli_io.run` call on a config generated from the
seed (workloads.py); every op's output is checked. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 spends
half of the time untraced and half traced, over the same ops, and reports
the per-layer metrics (tracing.py) plus the tracing overhead.

The op timings are given at the host's reference speed: between ops the
benchmark times a fixed piece of work of its own (host_probe), and scales
the timings by the run's mean probe time over REFERENCE_PROBE_S. The
wall-clock values are printed and recorded beside them. See README.md,
"Host speed".

Results, with a provenance record, go to perfbench/out/; a traced run
writes its spans next to them. Without src/ next to this directory the run
stops with exit code 2 before printing any result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
READY = "perfbench-setup-ready"
# host_probe work per workload, about 12 ms either way: (small-int loop
# iterations, floats boxed into a list and a dict, numpy FFT round trips on
# a HOST_PROBE_SHAPE array). The probe does the kind of work the workload's
# ops do, since the host slows kinds of work by different amounts: scene
# ops are numpy FFTs and interpreted code about half and half; stats ops
# (quadrature callbacks, CCRT loops) are mostly interpreted code that boxes
# floats, which slows more than a small-int loop and far more than numpy.
HOST_PROBE_WORK = {"scene": (60_000, 0, 1), "stats": (0, 40_000, 0)}
HOST_PROBE_SHAPE = (16, 8192)  # complex128, 2 MiB: about 6 ms a round trip
HOST_PROBE_EVERY_S = 0.5
# About the mean host_probe time on the machine the baseline was measured
# on (README.md). Only ratios to it matter: a run whose probes take twice as
# long reports its timings halved.
REFERENCE_PROBE_S = 0.012
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, rejected input)."""


# -- ops -----------------------------------------------------------------------


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory under perfbench/out, the working directory while it is open.

    The generated configs name their outputs relative to it, so the same
    seed gives byte-identical configs wherever the checkout lives.
    """
    path = OUT_DIR / name
    path.mkdir(parents=True, exist_ok=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


def prepare(workload: str, seed: int, directory: Path):
    """Generate the seed's pool and census ops and write their configs."""
    pool = workloads.make_pool(workload, seed)
    census = workloads.census_ops(workload, seed)
    paths = []
    for i, op in enumerate(pool + census):
        path = directory / f"op{i}.json"
        path.write_bytes(op.config_bytes())
        paths.append(path)
    return list(zip(pool, paths)), list(zip(census, paths[len(pool):]))


def run_op(op, path):
    """One timed op; returns (seconds, failure reason or None)."""
    from subpulse import cli_io

    start = time.perf_counter()
    try:
        config = cli_io.load_config(path, mode=op.mode)
    except cli_io.ConfigError as err:
        raise BenchError(f"generated config {path.name} was rejected: {err}") from err
    try:
        result = cli_io.run(config)
    except Exception as err:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, f"raised {type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    return seconds, workloads.check(op, result)


def host_probe(buffer, loops: int, floats: int, ffts: int) -> float:
    """Seconds taken by a fixed piece of work that shares no code with the program.

    The host of this benchmark slows its CPUs by up to 1.8x in phases of
    seconds to minutes, for the probe and the ops alike; the probe time
    tracks that speed.
    """
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    boxed = [math.exp(-i * 1e-4) * 1.5 for i in range(floats)]
    sum({i: x for i, x in enumerate(boxed)}.values())
    for _ in range(ffts):
        numpy.fft.ifft(numpy.fft.fft(buffer, axis=1) * buffer, axis=1)
    return time.perf_counter() - start


def probe_buffer():
    import numpy

    rows, cols = HOST_PROBE_SHAPE
    return numpy.exp(1j * numpy.arange(rows * cols, dtype=float).reshape(rows, cols) / cols)


def closed_loop(ops, seconds: float, work, tracer=None):
    """Cycle through ops for `seconds` of timed wall time; one op in flight.

    Before an op, at most every HOST_PROBE_EVERY_S, times host_probe with
    `work` (loops, floats, ffts).
    Returns the op records, the timed wall time, which leaves out the
    probes, and the probe times.
    """
    buffer = probe_buffer()
    records = []
    probes = []
    probing = 0.0
    last_probe = -math.inf
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if now - last_probe >= HOST_PROBE_EVERY_S:
            probes.append(host_probe(buffer, *work))
            last_probe = time.perf_counter()
            probing += last_probe - now
        op, path = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        latency, reason = run_op(op, path)
        records.append({"pool_index": i % len(ops), "mode": op.mode,
                        "latency_s": latency, "failure": reason})
        i += 1
        if time.perf_counter() - start - probing >= seconds:
            break
    return records, time.perf_counter() - start - probing, probes


def host_factor(probes) -> float:
    """How much slower than the reference the host ran: mean probe / reference.

    The mean leaves out the fastest and slowest tenth of the probes. Not the
    median: probe times fall in a fast and a slow cluster, and the median
    jumps between them as their shares change.
    """
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_PROBE_S


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    Never below the median, which it equals with 21 samples or fewer.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


# -- set-up time ------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> int:
    """Child side of a set-up probe: set up, run the warm-up op, say ready."""
    with scratch_dir(f"work-{os.getpid()}") as directory:
        ops, _ = prepare(workload, seed, directory)
        run_op(*ops[0])
        print(READY, flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh process to its first op being due, K times."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != READY or code != 0:
            raise BenchError(f"set-up probe exited with code {code}")
        samples.append(elapsed)
    return samples


# -- provenance ---------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level} {kind}"] = _read(index / "size").strip()
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "platform": platform.platform(),
    }


# -- one workload -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, t_start: float) -> int:
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    work = HOST_PROBE_WORK[workload]
    with scratch_dir(f"work-{os.getpid()}") as directory:
        ops, census = prepare(workload, seed, directory)
        warm_seconds, warm_failure = run_op(*ops[0])
        main_setup_s = time.perf_counter() - t_start
        record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "pool_size": len(ops), "warm_up": {"seconds": warm_seconds,
                                                     "failure": warm_failure}}
        if trace:
            from tracing import LAYER_UNITS, Tracer

            untraced, untraced_s, untraced_probes = closed_loop(ops, seconds / 2.0, work)
            tracer = Tracer()
            tracer.install()
            try:
                records, loop_s, probes = closed_loop(ops, seconds / 2.0, work, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.per_layer(len(records), sum(r["latency_s"] for r in records))
            # each half at the reference speed, so a host phase change between
            # the halves is not read as tracing overhead
            metrics["trace.overhead_frac"] = 1.0 - (
                len(records) / (loop_s * host_factor(probes))) / (
                len(untraced) / (untraced_s * host_factor(untraced_probes)))
            record["host_probe_s"] = {"untraced": untraced_probes, "traced": probes}
            records = untraced + records
            units = LAYER_UNITS
            tracer.write_spans(OUT_DIR / f"{stem}.spans.json")
            record["missing_wrappers"] = tracer.missing
        else:
            records, loop_s, probes = closed_loop(ops, seconds, work)
            latencies = [r["latency_s"] for r in records]
            tail_s, tail_pct = tail(latencies)
            setup_samples = measure_setup(workload, seed)
            wall = {
                "throughput_ops_s": len(records) / loop_s,
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_tail_ms": tail_s * 1e3,
            }
            factor = host_factor(probes)
            metrics = {
                "throughput_ops_s": wall["throughput_ops_s"] * factor,
                "op_p50_ms": wall["op_p50_ms"] / factor,
                "op_tail_ms": wall["op_tail_ms"] / factor,
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            record.update({"op_tail_percentile": tail_pct, "op_samples": len(records),
                           "setup_samples_s": setup_samples, "main_setup_s": main_setup_s,
                           "host_factor": factor, "host_probe_s": probes, "wall_clock": wall})
        census_records = [{"mode": op.mode, "config": op.raw, "failure": run_op(op, path)[1]}
                          for op, path in census]

    failed = sum(r["failure"] is not None for r in records)
    if warm_failure is not None:
        failed += 1
    attempted = len(records) + 1
    record.update({
        "provenance": provenance(),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "ops": records,
        "census": census_records,
    })
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload} seed {seed}: {attempted} ops, {failed} failed "
          f"(fail_frac {failed / attempted:.4g})")
    for name, value in metrics.items():
        extra = ""
        if name in record.get("wall_clock", {}):
            extra = f"  (wall clock {record['wall_clock'][name]:.6g})"
        if name == "op_tail_ms":
            extra += f"  (p{record['op_tail_percentile']:.1f} of {record['op_samples']} samples)"
        print(f"  {name:45s} {value:14.6g} {units[name]}{extra}")
    if "host_factor" in record:
        probes = record["host_probe_s"]
        print(f"  host ran {record['host_factor']:.4g}x the reference probe time "
              f"(mean of {len(probes)} probes, middle 80 %); "
              "throughput and op latencies above are at the reference speed")
    for failure in [r["failure"] for r in records if r["failure"]][:5]:
        print(f"  failed op: {failure}")
    if census_records:
        misses = sum(c["failure"] is not None for c in census_records)
        print(f"  census: {misses} of {len(census_records)} ops from excluded regions fail "
              "(known defects, not counted above; see perfbench/README.md)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# -- all workloads ------------------------------------------------------------------


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout, end="")
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "subpulse" / "__init__.py").is_file():
        print(f"error: no subpulse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            return run_all(args)
        if args.probe_setup:
            return probe_setup(args.workload, args.seed)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), t_start)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
