#!/usr/bin/env python3
"""Regenerate every table and figure at full experiment fidelity.

All figures share one cached, deduplicated run engine
(:mod:`repro.analysis.runner`): overlapping simulation points (figure 5
/ figure 6's round-robin rows / table 4) are simulated once, results are
persisted under ``results/.runcache/`` so re-running an unchanged sweep
performs zero simulations, and cache misses fan out over ``--jobs``
worker processes.  Serial and parallel sweeps, cold or warm, produce
bit-identical reports.

The combined report goes to stdout and (unless ``--output -``) to
``results/experiments_scale<scale>.txt``; machine-readable timing data
lands in ``results/BENCH_experiments.json``.

Runtime knobs:

* ``--scale`` — trace fidelity (fraction of paper instruction counts;
  default 1e-4 ≈ one trace instruction per 10k paper instructions).
  Runtime grows roughly linearly with scale; 2e-5 suits smoke tests.
* ``--jobs`` — worker processes for cache-missing simulations.

The sweep is fault tolerant (``docs/RESILIENCE.md``): every completed
simulation persists to the runcache immediately, so a sweep killed at
any point — even SIGKILL — resumes from its completed points on the
next invocation (a figure-level checkpoint in the cache directory
reports what a resumed sweep skipped).  ``--timeout`` bounds each run's
wall clock, transient worker failures retry with seeded backoff, and
``--max-failures`` / ``--fail-fast`` choose between salvaging partial
results and aborting early; a sweep that still has permanently-failed
points prints a structured failure report and exits with status 3.

Usage:  python scripts/run_experiments.py [--scale S] [--jobs N]
            [--no-cache] [--output PATH|-] [--timeout S] [--retries N]
            [--max-failures N | --fail-fast]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.analysis import (
    DEFAULT_SAMPLING,
    ResilienceConfig,
    Runner,
    SweepFailure,
    run_breakdown_table3,
    run_fig4_ideal,
    run_fig5_real,
    run_fig6_fetch,
    run_fig8_decoupled,
    run_fig9_summary,
    run_serving_scenario,
    run_stall_breakdown,
    run_table4_cache,
)
from repro.analysis.runner import (
    code_version,
    read_checked_json,
    write_checked_json,
)
from repro.obs import PhaseProfiler

#: Default fidelity: 1e-4 = one trace instruction per 10k paper instructions.
DEFAULT_SCALE = 1e-4

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "results")
CACHE_DIR = os.path.join(RESULTS_DIR, ".runcache")
HOTLOOP_BASELINE = os.path.join(RESULTS_DIR, "hotloop_baseline.json")


def scale_tag(scale: float) -> str:
    """Compact scientific tag for filenames: 1e-4, 2e-5, 1.5e-3."""
    mantissa, exponent = f"{scale:e}".split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{int(exponent)}"


#: Child body for :func:`measure_hot_loop`.  The baseline figure was
#: recorded in a fresh interpreter (min over back-to-back repeats), so
#: the re-measurement runs in one too — timing inside the sweep process
#: would charge its accumulated heap to the simulator under test.
_HOTLOOP_CHILD = r"""
import json, sys, time
from repro.analysis.runner import memory_factory, workload_traces
from repro.core.fetch import FetchPolicy
from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor


def calibrate():
    # Machine-speed calibration: the same fixed integer loop the
    # baseline recording timed (inside a function, as here — module
    # level would run on dict lookups and skew the comparison), so the
    # baseline figure can be scaled to this machine's current speed
    # (shared boxes drift +-30% between sessions).
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    return time.perf_counter() - t0


def main():
    cfg = json.loads(sys.argv[1])
    traces = workload_traces(
        cfg["isa"], cfg["scale"], cfg["seed"], cfg["trace_dir"]
    )
    best = None
    cycles = None
    calibration = None
    for __ in range(cfg["repeats"]):
        t0 = time.perf_counter()
        processor = SMTProcessor(
            SMTConfig(isa=cfg["isa"], n_threads=cfg["n_threads"]),
            memory_factory(cfg["memory"])(),
            traces,
            fetch_policy=FetchPolicy(cfg["fetch_policy"]),
            completions_target=cfg["completions_target"],
        )
        result = processor.run()
        elapsed = time.perf_counter() - t0
        cycles = result.cycles
        if best is None or elapsed < best:
            best = elapsed
        # Interleaved with the simulation repeats so both minima sample
        # the same load window.
        elapsed = calibrate()
        if calibration is None or elapsed < calibration:
            calibration = elapsed
    print(json.dumps(
        {"best": best, "cycles": cycles, "calibration": calibration}
    ))


main()
"""


#: Child body for :func:`measure_sampled_point`: times one sampled
#: simulation point serial (window_jobs=1) vs window-sharded, in a fresh
#: interpreter for the same reasons as the hot-loop child, and asserts
#: the two schedules hash identically (sharding must be a pure
#: execution-strategy change).
_SHARDPOINT_CHILD = r"""
import hashlib, json, os, sys, time
from dataclasses import replace
from repro.analysis.runner import (
    RunRequest, execute_request, result_to_dict, workload_traces,
)
from repro.core.smt import sampled_chunk_count


def calibrate():
    # Same fixed loop as the hot-loop child (see its comment).
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    return time.perf_counter() - t0


def canonical(result):
    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def main():
    cfg = json.loads(sys.argv[1])
    request = RunRequest(
        isa=cfg["isa"],
        n_threads=cfg["n_threads"],
        memory=cfg["memory"],
        fetch_policy=cfg["fetch_policy"],
        scale=cfg["scale"],
        seed=cfg["seed"],
        completions_target=cfg["completions_target"],
        sampling=cfg["sampling"],
    )
    trace_dir = cfg["trace_dir"]
    traces = workload_traces(
        request.isa, request.scale, request.seed, trace_dir
    )
    chunks = sampled_chunk_count(
        request.sampling, traces, request.completions_target
    )
    sharded_request = replace(request, window_jobs=cfg["window_jobs"])
    serial = sharded = calibration = None
    serial_hash = sharded_hash = None
    for __ in range(cfg["repeats"]):
        t0 = time.perf_counter()
        result = execute_request(request, trace_dir)
        elapsed = time.perf_counter() - t0
        serial_hash = canonical(result)
        if serial is None or elapsed < serial:
            serial = elapsed
        t0 = time.perf_counter()
        result = execute_request(sharded_request, trace_dir)
        elapsed = time.perf_counter() - t0
        sharded_hash = canonical(result)
        if sharded is None or elapsed < sharded:
            sharded = elapsed
        elapsed = calibrate()
        if calibration is None or elapsed < calibration:
            calibration = elapsed
    print(json.dumps({
        "serial": serial,
        "sharded": sharded,
        "chunks": chunks,
        "serial_hash": serial_hash,
        "sharded_hash": sharded_hash,
        "identical": serial_hash == sharded_hash,
        "calibration": calibration,
        "cores": os.cpu_count(),
    }))


main()
"""


#: Child body for :func:`measure_flat_backend`: times the reference
#: hot-loop configuration under the flat engine vs the object engine in
#: a fresh interpreter (same protocol as the hot-loop child), asserting
#: the two backends hash identically — the flat engine is a pure
#: execution-strategy change, like window sharding.
_FLATBACKEND_CHILD = r"""
import hashlib, json, sys, time
from repro.analysis.runner import (
    memory_factory, result_to_dict, workload_traces,
)
from repro.core.engine_flat import COMPILED
from repro.core.fetch import FetchPolicy
from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor


def calibrate():
    # Same fixed loop as the hot-loop child (see its comment).
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    return time.perf_counter() - t0


def canonical(result):
    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run_once(cfg, traces, backend):
    t0 = time.perf_counter()
    processor = SMTProcessor(
        SMTConfig(
            isa=cfg["isa"], n_threads=cfg["n_threads"], backend=backend
        ),
        memory_factory(cfg["memory"])(),
        traces,
        fetch_policy=FetchPolicy(cfg["fetch_policy"]),
        completions_target=cfg["completions_target"],
    )
    result = processor.run()
    return time.perf_counter() - t0, result


def main():
    cfg = json.loads(sys.argv[1])
    traces = workload_traces(
        cfg["isa"], cfg["scale"], cfg["seed"], cfg["trace_dir"]
    )
    flat = obj = calibration = None
    flat_hash = obj_hash = cycles = None
    for __ in range(cfg["repeats"]):
        elapsed, result = run_once(cfg, traces, "flat")
        flat_hash = canonical(result)
        cycles = result.cycles
        if flat is None or elapsed < flat:
            flat = elapsed
        elapsed, result = run_once(cfg, traces, "object")
        obj_hash = canonical(result)
        if obj is None or elapsed < obj:
            obj = elapsed
        elapsed = calibrate()
        if calibration is None or elapsed < calibration:
            calibration = elapsed
    print(json.dumps({
        "flat": flat,
        "object": obj,
        "cycles": cycles,
        "identical": flat_hash == obj_hash,
        "compiled": COMPILED,
        "calibration": calibration,
    }))


main()
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path
        for path in (
            os.path.join(REPO_ROOT, "src"),
            os.environ.get("PYTHONPATH"),
        )
        if path
    )
    return env


def measure_sampled_point(
    runner: Runner, repeats: int = 2
) -> dict | None:
    """Re-time the reference sampled point, serial vs window-sharded.

    ``results/hotloop_baseline.json``'s ``sampled_point`` section pins
    the wall time of one sampled simulation point under both schedules
    (config + protocol inside).  This re-runs the identical
    configuration in a fresh subprocess — min over ``repeats`` of
    ``execute_request`` serial and with the recorded ``window_jobs`` —
    asserts the two schedules are bit-identical, and returns the
    before/after record for BENCH_experiments.json and
    ``scripts/check_hotloop.py``'s second curve.  Returns ``None`` when
    the baseline has no ``sampled_point`` section or the subprocess
    fails.
    """
    if not os.path.exists(HOTLOOP_BASELINE):
        return None
    try:
        with open(HOTLOOP_BASELINE) as handle:
            baseline = json.load(handle)["sampled_point"]
        cfg = baseline["config"]
    except (OSError, ValueError, KeyError):
        return None
    payload = dict(cfg, repeats=repeats, trace_dir=runner.trace_dir)
    if payload["trace_dir"]:
        runner.workload(cfg["isa"], cfg["scale"], cfg["seed"])
    proc = subprocess.run(
        [sys.executable, "-c", _SHARDPOINT_CHILD, json.dumps(payload)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    if proc.returncode != 0:
        return None
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    machine_factor = measured["calibration"] / baseline["calibration_seconds"]
    return {
        "config": cfg,
        "repeats": repeats,
        "chunks": measured["chunks"],
        "cores": measured["cores"],
        "identical": measured["identical"],
        "machine_factor": round(machine_factor, 3),
        "baseline_serial_seconds": baseline["serial_seconds"],
        "baseline_sharded_seconds": baseline["sharded_seconds"],
        "serial_seconds": round(measured["serial"], 4),
        "sharded_seconds": round(measured["sharded"], 4),
        "shard_speedup": round(measured["serial"] / measured["sharded"], 3),
    }


def measure_flat_backend(runner: Runner, repeats: int = 4) -> dict | None:
    """Re-time the reference point under the flat vs object engine.

    ``results/hotloop_baseline.json``'s ``flat_backend`` section pins
    the wall time of the hot-loop reference configuration under
    ``SMTConfig(backend="flat")`` (protocol and compile state inside).
    This re-runs both backends in a fresh subprocess — min over
    ``repeats`` each — asserts they hash identically, and returns the
    record for BENCH_experiments.json and ``check_hotloop.py``'s third
    curve, including the drift-normalized speedup over the *pre-PR-2*
    hot-loop floor (``before_seconds``), the number the ≥5× compiled
    target is defined against.  Returns ``None`` when the baseline has
    no ``flat_backend`` section or the subprocess fails.
    """
    if not os.path.exists(HOTLOOP_BASELINE):
        return None
    try:
        with open(HOTLOOP_BASELINE) as handle:
            baseline = json.load(handle)
        cfg = baseline["config"]
        flat_baseline = baseline["flat_backend"]
    except (OSError, ValueError, KeyError):
        return None
    payload = dict(cfg, repeats=repeats, trace_dir=runner.trace_dir)
    if payload["trace_dir"]:
        runner.workload(cfg["isa"], cfg["scale"], cfg["seed"])
    proc = subprocess.run(
        [sys.executable, "-c", _FLATBACKEND_CHILD, json.dumps(payload)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    if proc.returncode != 0:
        return None
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    # Two drift factors, one per recording machine: the flat baseline's
    # own calibration normalizes the regression guard, the pre-PR-2
    # calibration normalizes the headline speedup-over-floor figure.
    machine_factor = (
        measured["calibration"] / flat_baseline["calibration_seconds"]
    )
    adjusted_floor = baseline["before_seconds"] * (
        measured["calibration"] / baseline["calibration_seconds"]
    )
    record = {
        "config": cfg,
        "repeats": repeats,
        "compiled": measured["compiled"],
        "identical": measured["identical"],
        "machine_factor": round(machine_factor, 3),
        "baseline_flat_seconds": flat_baseline["flat_seconds"],
        "baseline_compiled": flat_baseline.get("compiled", False),
        "target_speedup_vs_prepr2": flat_baseline.get(
            "target_speedup_vs_prepr2"
        ),
        "flat_seconds": round(measured["flat"], 4),
        "object_seconds": round(measured["object"], 4),
        "speedup_vs_object": round(
            measured["object"] / measured["flat"], 3
        ),
        "adjusted_prepr2_seconds": round(adjusted_floor, 4),
        "speedup_vs_prepr2": round(adjusted_floor / measured["flat"], 3),
    }
    if measured["cycles"] != baseline["cycles"]:
        record["speedup_vs_prepr2"] = None
        record["note"] = (
            f"cycle count drifted from the baseline "
            f"({measured['cycles']} vs {baseline['cycles']})"
        )
    return record


def measure_hot_loop(runner: Runner, repeats: int = 8) -> dict | None:
    """Re-time the reference hot-loop run against the recorded baseline.

    ``results/hotloop_baseline.json`` pins the pre-optimization wall
    time of one simulation (config + measurement protocol inside).
    This runs the identical configuration on the current tree in a
    fresh subprocess — trace construction is excluded, only
    SMTProcessor construction + ``run()`` is measured, min over
    ``repeats`` — and returns the before/after record for
    BENCH_experiments.json.  Returns ``None`` when no baseline file is
    present or the subprocess fails (the sweep still completes).
    """
    if not os.path.exists(HOTLOOP_BASELINE):
        return None
    try:
        with open(HOTLOOP_BASELINE) as handle:
            baseline = json.load(handle)
        cfg = baseline["config"]
    except (OSError, ValueError, KeyError) as exc:
        print(
            f"warning: hot-loop baseline {HOTLOOP_BASELINE} is unreadable "
            f"({exc!r}); skipping the hot-loop re-measurement",
            file=sys.stderr,
        )
        return None
    payload = dict(cfg, repeats=repeats, trace_dir=runner.trace_dir)
    if payload["trace_dir"]:
        # Warm the on-disk trace cache so the child only deserializes.
        runner.workload(cfg["isa"], cfg["scale"], cfg["seed"])
    proc = subprocess.run(
        [sys.executable, "-c", _HOTLOOP_CHILD, json.dumps(payload)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    if proc.returncode != 0:
        return None
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    # Scale the recorded baseline by the calibration drift so the ratio
    # compares simulator versions, not machine moods.
    machine_factor = measured["calibration"] / baseline["calibration_seconds"]
    adjusted_before = baseline["before_seconds"] * machine_factor
    record = {
        "config": cfg,
        "repeats": repeats,
        "before_seconds": baseline["before_seconds"],
        "machine_factor": round(machine_factor, 3),
        "adjusted_before_seconds": round(adjusted_before, 4),
        "after_seconds": round(measured["best"], 4),
        "speedup": round(adjusted_before / measured["best"], 3),
    }
    if measured["cycles"] != baseline["cycles"]:
        # The model changed since the baseline was recorded; the
        # comparison is no longer like-for-like, so flag that instead
        # of reporting a bogus speedup.
        record["speedup"] = None
        record["note"] = (
            f"cycle count drifted from the baseline "
            f"({measured['cycles']} vs {baseline['cycles']})"
        )
    return record


class SweepCheckpoint:
    """Figure-level progress marker for killed sweeps.

    The runcache itself is the point-level checkpoint — every completed
    simulation persists the moment it finishes — so a rerun after a
    crash never re-simulates completed points.  On top of that, this
    file (``sweep-checkpoint.json`` in the cache directory, checksummed
    and atomically written like every cache entry) records which
    figures already completed, so a resumed invocation can say what it
    is skipping.  The key ties the checkpoint to (scale, sampling, code
    version); a mismatched or unreadable checkpoint is simply ignored.
    It is removed when a sweep runs to completion.
    """

    def __init__(self, cache_dir: str | None, key: dict):
        self.path = (
            os.path.join(cache_dir, "sweep-checkpoint.json")
            if cache_dir
            else None
        )
        self.key = key
        self.completed: list[str] = []
        self.resumed_from: list[str] = []
        if self.path and os.path.exists(self.path):
            payload, status = read_checked_json(self.path)
            if status == "ok" and payload.get("key") == key:
                self.resumed_from = list(payload.get("completed", []))

    def mark(self, name: str) -> None:
        self.completed.append(name)
        self.flush()

    def flush(self) -> None:
        """Persist current progress unconditionally.

        ``mark`` flushes after every completed figure; the separate
        entry point exists for the SIGTERM/SIGINT handler, so a polite
        kill leaves exactly the checkpoint a SIGKILL-and-resume would
        find.
        """
        if self.path is None:
            return
        try:
            write_checked_json(
                self.path,
                {
                    "key": self.key,
                    "completed": self.completed,
                    "updated_at": time.time(),
                },
            )
        except OSError:
            pass  # a lost checkpoint only costs the resume notice

    def clear(self) -> None:
        if self.path and os.path.exists(self.path):
            os.unlink(self.path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale_pos", nargs="?", type=float, default=None,
        help="positional scale (backward compatible with the old CLI)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help=f"trace fidelity (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cache-missing runs (default 1)",
    )
    parser.add_argument(
        "--window-jobs", type=int, default=1, metavar="N",
        help="worker processes per sampled point's measurement windows "
        "(intra-run parallelism; bit-identical to serial; default 1). "
        "Complements --jobs: use --jobs for many points in flight, "
        "--window-jobs to cut the latency of a few large sampled points.",
    )
    parser.add_argument(
        "--backend", choices=("object", "flat", "auto"), default=None,
        help="pipeline engine for every simulation point (default: the "
        "per-request 'auto' — the flat engine when its compiled kernel "
        "is installed, else the object engine).  A pure execution-"
        "strategy knob: results are bit-identical and share one cache "
        "slot across backends.",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk result/trace cache (still dedups in process)",
    )
    parser.add_argument(
        "--output", default=None,
        help="report file (default results/experiments_scale<scale>.txt; "
        "'-' for stdout only)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result/trace cache directory (default results/.runcache; "
        "ignored with --no-cache)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget: a run exceeding it is killed, "
        "charged a timeout failure and retried (default: no timeout)",
    )
    parser.add_argument(
        "--retries", type=int, default=3,
        help="retries per run for transient failures — worker crashes, "
        "timeouts, I/O errors (default 3)",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort the sweep once N points have failed permanently "
        "(default: salvage mode — finish and cache every completable "
        "point, then report the failures and exit 3)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first permanently-failed point instead of "
        "salvaging the rest of the sweep",
    )
    parser.add_argument(
        "--serving", action="store_true",
        help="also run the media-server scenario: open-loop stream "
        "traffic over the SMT/CMP×SMT grid with the three admission "
        "policies (docs/SERVING.md); cached through the same runner",
    )
    parser.add_argument(
        "--no-hotloop", action="store_true",
        help="skip the hot-loop re-measurement (used by harnesses that "
        "run many short sweeps)",
    )
    parser.add_argument(
        "--sampling", nargs="?", const="default", default=None,
        metavar="FF,WIN,WARM",
        help="statistical sampling: the bare flag uses the default "
        f"(ff,window,warmup)={DEFAULT_SAMPLING}; or give three "
        "comma-separated instruction counts.  Every EIPC table then "
        "reports a 95%% confidence interval.",
    )
    args = parser.parse_args(argv)
    if args.scale is not None and args.scale_pos is not None:
        parser.error("give the scale positionally or via --scale, not both")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.window_jobs < 1:
        parser.error("--window-jobs must be >= 1")
    if args.max_failures is not None and args.max_failures < 1:
        parser.error("--max-failures must be >= 1")
    args.scale = (
        args.scale if args.scale is not None
        else args.scale_pos if args.scale_pos is not None
        else DEFAULT_SCALE
    )
    if args.sampling is not None:
        if args.sampling == "default":
            args.sampling = DEFAULT_SAMPLING
        else:
            try:
                parts = tuple(int(v) for v in args.sampling.split(","))
            except ValueError:
                parts = ()
            if len(parts) != 3:
                parser.error("--sampling takes FF,WIN,WARM (three integers)")
            args.sampling = parts
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cache_dir = None if args.no_cache else (args.cache_dir or CACHE_DIR)
    resilience = ResilienceConfig(
        timeout=args.timeout,
        max_attempts=args.retries + 1,
        max_failures=args.max_failures,
        fail_fast=args.fail_fast,
    )
    with Runner(
        jobs=args.jobs,
        cache_dir=cache_dir,
        resilience=resilience,
        window_jobs=args.window_jobs,
        backend=args.backend,
    ) as runner:
        return sweep(args, runner, cache_dir)


def sweep(args, runner: Runner, cache_dir: str | None) -> int:
    """Every figure and table through ``runner``; returns the exit code."""
    scale = args.scale
    sampling = args.sampling
    checkpoint = SweepCheckpoint(
        cache_dir,
        key={
            "scale": repr(scale),
            "sampling": list(sampling) if sampling else None,
            "code_version": code_version(),
        },
    )
    if checkpoint.resumed_from:
        # Stdout only, never the report: a straight-through sweep and a
        # killed-and-resumed sweep must produce identical report files.
        print(
            f"resuming from checkpoint: {', '.join(checkpoint.resumed_from)} "
            "completed previously; their points are served from the runcache"
        )

    lines: list[str] = []

    def emit(*parts: str) -> None:
        text = " ".join(parts)
        print(text)
        lines.append(text)

    emit(f"# Experiment run at scale={scale:g} (jobs={args.jobs}, "
         f"cache={'off' if args.no_cache else 'on'}, "
         f"sampling={'off' if not sampling else sampling})\n")
    start = time.time()
    timings: dict[str, dict] = {}
    profiler = PhaseProfiler()
    stall_breakdown: dict | None = None

    def timed(name, fn, **kwargs):
        before = runner.stats.snapshot()
        t0 = time.time()
        with profiler.phase(name):
            result = fn(scale=scale, runner=runner, **kwargs)
        timings[name] = {
            "wall_seconds": time.time() - t0,
            **runner.stats.delta_since(before),
        }
        emit(result.report, "\n")
        checkpoint.mark(name)
        return result

    def write_bench(
        status: str,
        hot_loop: dict | None = None,
        sampled_point: dict | None = None,
        flat_backend: dict | None = None,
    ) -> None:
        stats = runner.stats
        # Throughput covers cache hits too: cached results carry the
        # wall time of the run that produced them, so a fully-cached
        # sweep still reports the throughput its numbers were simulated
        # at instead of null.
        throughput_seconds = stats.sim_seconds + stats.cached_sim_seconds
        throughput_instructions = (
            stats.sim_instructions + stats.cached_instructions
        )
        bench = {
            "scale": scale,
            "jobs": args.jobs,
            "backend": args.backend or "auto",
            "cache": not args.no_cache,
            "sampling": list(sampling) if sampling else None,
            "code_version": code_version(),
            "status": status,
            "wall_seconds": time.time() - start,
            "resumed_figures": checkpoint.resumed_from,
            "resilience": {
                "timeout": args.timeout,
                "max_attempts": args.retries + 1,
                "max_failures": args.max_failures,
                "fail_fast": args.fail_fast,
            },
            "runner": stats.snapshot(),
            "failures": [
                outcome.to_dict()
                for outcome in runner.outcomes.values()
                if outcome.status != "ok"
            ],
            "instructions_per_second": (
                throughput_instructions / throughput_seconds
                if throughput_seconds else None
            ),
            "figures": timings,
        }
        if hot_loop is not None:
            bench["hot_loop"] = hot_loop
        if sampled_point is not None:
            bench["sampled_point"] = sampled_point
        if flat_backend is not None:
            bench["flat_backend"] = flat_backend
        # Shard provenance: how many points used intra-run parallelism
        # and what each one's chunk fan-out cost.
        bench["window_sharding"] = {
            "window_jobs": args.window_jobs,
            "points_sharded": len(runner.window_shard_events),
            "shards": stats.window_shards,
            "events": runner.window_shard_events,
        }
        if stall_breakdown is not None:
            bench["stall_breakdown"] = stall_breakdown
        # Wall-clock phase tree (repro.obs.PhaseProfiler): volatile by
        # construction, never part of report comparisons.
        bench["profile"] = profiler.to_dict()
        os.makedirs(RESULTS_DIR, exist_ok=True)
        bench_path = os.path.join(RESULTS_DIR, "BENCH_experiments.json")
        with open(bench_path, "w") as handle:
            json.dump(bench, handle, indent=2)
            handle.write("\n")
        print(f"timing data written to {bench_path}")

    def print_resilience_summary() -> None:
        # Stdout only (not the report): fault handling varies run to
        # run, the tables must not.  Printed unconditionally so a clean
        # run is visibly clean and a salvaged run visibly salvaged —
        # these counts previously rode BENCH provenance only.
        stats = runner.stats
        print(
            f"resilience: {stats.retries} retries, {stats.timeouts} timeouts, "
            f"{stats.pool_breaks} pool restarts, "
            f"{stats.corrupt_quarantined} corrupt cache entries quarantined, "
            f"{stats.cache_write_errors} cache write errors, "
            f"{stats.degraded} serial degradations, "
            f"{stats.failed_points} failed points"
        )

    def _interrupted(signum, frame):
        raise SystemExit(128 + signum)

    # A polite kill (TERM from a scheduler, Ctrl-C) must leave the same
    # resumable state a SIGKILL does: the handler turns the signal into
    # an orderly unwind, and the except branch below flushes the figure
    # checkpoint before exiting.  Only the main thread may install
    # signal handlers; elsewhere (tests driving main() from a worker
    # thread) the default disposition stays.
    previous_handlers: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, _interrupted
                )
            except (ValueError, OSError):  # pragma: no cover
                pass

    try:
        try:
            timed("table3", run_breakdown_table3)
            fig4 = timed("fig4", run_fig4_ideal, sampling=sampling)
            fig5 = timed("fig5", run_fig5_real, ideal=fig4, sampling=sampling)
            timed("table4", run_table4_cache, fig5=fig5)
            fig6 = timed("fig6", run_fig6_fetch, sampling=sampling)
            timed("fig8", run_fig8_decoupled, sampling=sampling)
            timed("fig9", run_fig9_summary, sampling=sampling)
            # Observed companion runs (full detail, artifact-cached):
            # where the fetch/dispatch slots went at the headline 8T
            # point.
            stall_breakdown = timed("stalls", run_stall_breakdown).measured
            if args.serving:
                # The media-server scenario (open-loop arrivals over the
                # serving grid) rides the same cached runner: a warm
                # rerun simulates nothing and reproduces the report byte
                # for byte.
                timed("serving", run_serving_scenario)
        except SweepFailure as failure:
            # Completed points are cached; the checkpoint stays so a
            # rerun resumes instead of restarting.
            print(f"\n{failure.summary()}", file=sys.stderr)
            print(
                "sweep stopped; every completed point is cached — fix the "
                "cause (or relax --max-failures) and rerun to resume from "
                "the checkpoint",
                file=sys.stderr,
            )
            print_resilience_summary()
            write_bench("failed")
            return 3
        except SystemExit as exc:
            # The signal handler above (or an injected stand-in): flush
            # the figure checkpoint so the interrupted sweep resumes
            # exactly like a crashed one, then exit with the
            # conventional 128+signum status.
            checkpoint.flush()
            print(
                "\ninterrupted; figure checkpoint flushed — every "
                "completed point is cached, rerun to resume",
                file=sys.stderr,
            )
            print_resilience_summary()
            write_bench("interrupted")
            code = exc.code
            return code if isinstance(code, int) else 1
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    # Section 5.3's scalar/vector mixing statistic at 8 threads.
    for isa in ("mmx", "mom"):
        run = fig6.runs[(isa, "rr", 8)]
        emit(
            f"{isa.upper()} vector-only issue cycles @8T (RR): "
            f"{run.vector_only_fraction:.1%} "
            f"(paper: {'1%' if isa == 'mmx' else '4%'})"
        )

    if args.no_hotloop:
        hot_loop = None
        sampled_point = None
        flat_backend = None
    else:
        with profiler.phase("hot_loop"):
            hot_loop = measure_hot_loop(runner)
        with profiler.phase("sampled_point"):
            sampled_point = measure_sampled_point(runner)
        with profiler.phase("flat_backend"):
            flat_backend = measure_flat_backend(runner)
    if hot_loop is not None and hot_loop.get("speedup"):
        emit(
            f"\nhot loop (mom/8T/conventional/rr @1e-4): "
            f"{hot_loop['adjusted_before_seconds']:.2f} s -> "
            f"{hot_loop['after_seconds']:.2f} s "
            f"({hot_loop['speedup']:.2f}x vs pre-optimization baseline, "
            f"machine-drift normalized)"
        )
    if sampled_point is not None:
        # Stdout only: wall clocks vary machine to machine, the report
        # must not.
        cfg = sampled_point["config"]
        print(
            f"sampled point ({cfg['isa']}/{cfg['n_threads']}T/"
            f"{cfg['memory']}/{cfg['fetch_policy']} @{cfg['scale']:g}, "
            f"{sampled_point['chunks']} chunks, "
            f"window_jobs={sampled_point['config']['window_jobs']}, "
            f"{sampled_point['cores']} cores): "
            f"{sampled_point['serial_seconds']:.2f} s serial -> "
            f"{sampled_point['sharded_seconds']:.2f} s sharded "
            f"({sampled_point['shard_speedup']:.2f}x, bit-identical="
            f"{sampled_point['identical']})"
        )
    if flat_backend is not None:
        # Stdout only: same rationale as the sampled point above.
        kernel = "compiled" if flat_backend["compiled"] else "pure-python"
        speedup = flat_backend.get("speedup_vs_prepr2")
        vs_prepr2 = f", {speedup:.2f}x vs pre-PR-2 floor" if speedup else ""
        print(
            f"flat backend ({kernel} kernel): "
            f"{flat_backend['object_seconds']:.2f} s object -> "
            f"{flat_backend['flat_seconds']:.2f} s flat "
            f"({flat_backend['speedup_vs_object']:.2f}x vs object engine"
            f"{vs_prepr2}, bit-identical={flat_backend['identical']})"
        )

    wall = time.time() - start
    stats = runner.stats
    emit(
        f"\nruns: {stats.requested} requested, {stats.deduplicated} deduped, "
        f"{stats.memo_hits + stats.disk_hits} cached, {stats.simulated} simulated"
    )
    print_resilience_summary()
    emit(f"total wall time: {wall:.0f} s")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    if args.output != "-":
        suffix = "_sampled" if sampling else ""
        report_path = args.output or os.path.join(
            RESULTS_DIR, f"experiments_scale{scale_tag(scale)}{suffix}.txt"
        )
        with open(report_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"report written to {report_path}")

    write_bench("ok", hot_loop, sampled_point, flat_backend)
    checkpoint.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
