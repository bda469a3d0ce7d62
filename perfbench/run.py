"""The repository benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 20 --trace 0

``--workload`` is ``paper-sweep``, ``serving-grid`` or
``pipeline-ideal`` (see ``suite.py`` and ``README.md``).  With
``--trace 0`` the run measures the end-to-end metrics with no wrapper
around the program, in reference seconds (``hostspeed.py``); with
``--trace 1`` it measures the per-layer ledger
(``ledger.py``) and writes its spans as a Chrome-trace document under
``.perfbench-out/``.  Either way the run checks every output and prints,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Caches live in a fresh directory under ``.perfbench-scratch/``, removed
when the run ends (the empty parent stays, so concurrent runs never race
on it); one record per run is appended to
``.perfbench-out/history.jsonl``.  Both directories are git-ignored.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-scratch")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("paper-sweep", "serving-grid", "pipeline-ideal")
SETUP_SAMPLES = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- host


def calibrate() -> float:
    """The fixed 2M-iteration loop ``scripts/run_experiments.py`` times."""
    started = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i ^ (i >> 3)
    return time.perf_counter() - started


def git_commit() -> str:
    """The checkout's commit, read from ``.git``; ``unknown`` without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.01)


def peak_rss_mib() -> float:
    """Highest RSS of this process and of the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_samples(
    workload, seed: int, scale: float, sandbox: str
) -> tuple[list[float], list[float]]:
    """Set-up times, reference and raw seconds, each from a fresh interpreter.

    The probes share one bytecode cache in the sandbox, filled by an
    untimed probe first.  So every sample is a repeated start, the way a
    user meets it, whether or not the checkout holds ``__pycache__``
    directories and whatever ``PYTHONDONTWRITEBYTECODE`` says.
    """
    env = dict(
        os.environ, PYTHONPATH=SRC,
        PYTHONPYCACHEPREFIX=os.path.join(sandbox, "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, os.path.join(HERE, "setup_probe.py"),
        *workload.setup_probe_args(), "--seed", str(seed), "--scale", repr(scale),
    ]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=120,
        )
        reference, seconds = map(float, done.stdout.split()[-2:])
        scaled.append(reference)
        raw.append(seconds)
    return scaled[1:], raw[1:]


def p85(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[16]


# ------------------------------------------------------------- checks


class Checks:
    """Every output a run verifies; ``failed`` counts the wrong ones."""

    def __init__(self, workload, cold):
        self.workload = workload
        self.expected = self.digests(cold)
        self.reports = dict(cold.reports)
        self.wrong: dict[str, str] = {}
        self.other_checks = 0
        self.resimulated = 0
        self.first_replay: dict | None = None

    def digests(self, phase) -> dict[str, str]:
        return {
            self.workload.label(key): self.workload.digest(result)
            for key, result in phase.results.items()
        }

    def replay(self, phase, cached: bool = True) -> None:
        """A replay must reproduce every point and report of the cold phase.

        The first replay is compared by canonical SHA-256; later ones by
        value against it, which is ten times cheaper than re-hashing.
        ``cached`` replays run through a runner must not simulate.
        """
        if self.first_replay is None:
            got = self.digests(phase)
            self.first_replay = phase.results
            wrong = [
                label for label, digest in self.expected.items()
                if got.get(label) != digest
            ]
        else:
            wrong = [
                self.workload.label(key)
                for key, result in self.first_replay.items()
                if phase.results.get(key) != result
            ]
        for label in wrong:
            self.wrong.setdefault(label, "differs from the cold phase")
        for name, text in self.reports.items():
            if phase.reports.get(name) != text:
                self.wrong.setdefault(
                    f"report {name}", "differs from the cold phase"
                )
        if cached and phase.stats is not None:
            self.resimulated += phase.stats.simulated

    def finish(self, reference: list[tuple[str, bool]]) -> None:
        """Add the workload's reference checks; replays through a runner
        must have been served from its cache."""
        for label, ok in reference:
            self.add(label, ok)
        if self.reports:
            self.add(
                "replays served from the cache", self.resimulated == 0,
                f"{self.resimulated} points simulated again",
            )

    def add(self, label: str, ok: bool, why: str = "check failed") -> None:
        self.other_checks += 1
        if not ok:
            self.wrong.setdefault(label, why)

    @property
    def attempted(self) -> int:
        return len(self.expected) + len(self.reports) + self.other_checks

    @property
    def failed(self) -> int:
        return len(self.wrong)

    def results_sha256(self) -> str:
        from suite import canonical_sha256

        return canonical_sha256(sorted(self.expected.items()))


# --------------------------------------------------------------- runs


def run_untraced(workload, args, sandbox: str):
    """End-to-end metrics: cold phase, then replays, with no wrapper
    around the program.

    Every host time is reported in reference seconds (``hostspeed.py``):
    its raw seconds scaled by the host speed sampled around it, so a slow
    spell of a shared host does not read as a slower program.  The raw
    values go to the record and the text lines.
    """
    from hostspeed import HostSpeed
    from suite import SCALE

    workload.prepare()
    colds = []
    replays = []
    with HostSpeed(os.path.join(sandbox, "hostspeed")) as speed:
        for _ in range(workload.cold_phases):
            cache_dir = tempfile.mkdtemp(dir=sandbox)
            colds.append(workload.phase(cache_dir))
            reap_children()
            workload.fill_point_spans(cache_dir, colds[-1])
        cold = colds[0]
        checks = Checks(workload, cold)
        for again in colds[1:]:
            checks.replay(again, cached=False)
        cold_total = sum(phase.seconds for phase in colds)
        replay_total = 0.0
        # Replays fill the run up to --seconds, and take at least a
        # quarter of it, so their median spans more than one burst of
        # host load.
        while (
            len(replays) < workload.min_replays
            or cold_total + replay_total < args.seconds
            or replay_total < args.seconds / 4
            or len(replays) % workload.replay_batch
        ):
            replay = workload.phase(cache_dir)
            checks.replay(replay)
            # Keep only the timing: the replay's outputs are checked.
            replay.results, replay.reports = {}, {}
            replays.append(replay)
            replay_total += replay.seconds
    cold_seconds = speed.scale([phase.span for phase in colds])
    replay_seconds = speed.scale([phase.span for phase in replays])
    point_seconds = speed.scale(
        [span for phase in colds + replays for span in phase.point_spans]
    )
    # Each sample averages ``replay_batch`` replays: a ~10 ms replay is
    # either preempted or not, and the median of that two-humped
    # distribution jumps whenever host load crosses one half.
    batch = workload.replay_batch
    samples = [
        statistics.fmean(replay_seconds[start:start + batch])
        for start in range(0, len(replay_seconds), batch)
    ]
    # Read before the set-up probes start, so only pool workers count.
    rss = peak_rss_mib()
    checks.finish(workload.reference_checks(cold))
    setup, raw_setup = setup_samples(workload, args.seed, SCALE, sandbox)
    tail = p85(point_seconds)
    beyond = sum(1 for value in point_seconds if value > tail)
    wall = statistics.median(cold_seconds)
    raw = {
        "wall_s": statistics.median(phase.seconds for phase in colds),
        "warm_wall_s": statistics.median(
            statistics.fmean(r.seconds for r in replays[start:start + batch])
            for start in range(0, len(replays), batch)
        ),
        "setup_s": statistics.median(raw_setup),
    }
    metrics = {
        "wall_s": (
            wall, "s",
            f"median of {len(colds)} cold phases; raw {raw['wall_s']:.4g} s",
        ),
        "sim_inst_per_s": (
            cold.instructions / wall, "1/s",
            f"{cold.instructions} insts per cold phase",
        ),
        "point_p50_s": (
            statistics.median(point_seconds), "s", f"n={len(point_seconds)}"
        ),
        "point_p85_s": (
            tail, "s", f"n={len(point_seconds)}, {beyond} beyond",
        ),
        "warm_wall_s": (
            statistics.median(samples), "s",
            f"median of {len(samples)} means of {batch} replays; "
            f"raw {raw['warm_wall_s']:.4g} s",
        ),
        "setup_s": (
            statistics.median(setup), "s",
            f"median of {len(setup)} starts; raw {raw['setup_s']:.4g} s",
        ),
        "peak_rss_mib": (rss, "MiB", "max over process and pool workers"),
    }
    return metrics, checks, {"raw_seconds": raw}


def untraced_baseline(args) -> tuple[float, str]:
    """Raw cold wall seconds and results digest of an untraced run in a
    fresh process."""
    done = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    provenance = next(
        json.loads(line[len("provenance "):])
        for line in done.stdout.splitlines() if line.startswith("provenance ")
    )
    return provenance["raw_seconds"]["wall_s"], provenance["results_sha256"]


def run_traced(workload, args, sandbox: str):
    """Per-layer metrics: the ledger over one cold phase and fixed replays."""
    import ledger as ledger_module
    from repro.obs.trace import validate_chrome_trace
    from suite import DRIVERS

    baseline_wall, baseline_digest = untraced_baseline(args)
    workload.prepare()
    cache_dir = tempfile.mkdtemp(dir=sandbox)
    ledger = ledger_module.Ledger()
    stats_total: dict[str, float] = {}
    replays = []

    def traced_phase(name: str):
        frame = ledger.enter(name, "bench")
        phase = workload.phase(cache_dir, ledger)
        ledger.exit(frame)
        reap_children()
        if phase.stats is not None:
            for key, value in phase.stats.snapshot().items():
                stats_total[key] = stats_total.get(key, 0) + value
        return phase

    with ledger_module.Instrumentation(ledger):
        cold = traced_phase("phase.cold")
        for _ in range(workload.traced_replays):
            replays.append(traced_phase("phase.warm"))
    checks = Checks(workload, cold)
    for replay in replays:
        checks.replay(replay)
    checks.finish(workload.reference_checks(cold))
    checks.add(
        "traced results equal untraced results",
        checks.results_sha256() == baseline_digest,
    )
    for key in ("disk_hits", "memo_hits", "simulated", "retries", "failed_points"):
        stats_total.setdefault(key, 0)
    metrics = {
        name: (value, unit, "")
        for name, (value, unit) in ledger_module.layer_metrics(
            ledger.spans, ledger.pool, stats_total, DRIVERS
        ).items()
    }
    metrics["trace.overhead_frac"] = (
        cold.seconds / baseline_wall - 1.0, "ratio",
        f"traced {cold.seconds:.3f} s vs untraced {baseline_wall:.3f} s",
    )
    document = ledger_module.chrome_trace(ledger.spans, os.getpid(), {
        "workload": args.workload, "seed": args.seed,
    })
    try:
        validate_chrome_trace(document)
        checks.add("chrome trace document", True)
    except ValueError as exc:
        checks.add("chrome trace document", False, str(exc))
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(
        OUT, f"trace-{args.workload}-seed{args.seed}.json"
    )
    with open(trace_path, "w") as handle:
        json.dump(document, handle)
    return metrics, checks, {"chrome_trace": os.path.relpath(trace_path, ROOT)}


# --------------------------------------------------------------- main


def provenance(workload, args, checks) -> dict:
    from repro.analysis.runner import code_version
    from repro.analysis.serving import serving_code_version
    from suite import SCALE

    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": workload.input_seed,
        "scale": SCALE,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": workload.jobs,
        "cpu_count": os.cpu_count(),
        "code_version": code_version(),
        "serving_code_version": serving_code_version(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "calibration_s": min(calibrate() for _ in range(3)),
        "results_sha256": checks.results_sha256(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: {SRC}/repro is missing; run from a checkout "
            "of the whole repository",
            file=sys.stderr,
        )
        return 2
    # Explicit, so the imports hold when the interpreter does not put the
    # script's directory on the path (PYTHONSAFEPATH, -P).
    sys.path[:0] = [SRC, HERE]
    from suite import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    os.makedirs(SCRATCH, exist_ok=True)
    sandbox = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, checks, extra = run(workload, args, sandbox)
    finally:
        reap_children()
        shutil.rmtree(sandbox, ignore_errors=True)
    record = {**provenance(workload, args, checks), **extra}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit:9s} {note}")
    print(
        f"  {'failed_frac':34s} {checks.failed / checks.attempted:>16.6g} "
        f"{'ratio':9s} {checks.failed} of {checks.attempted} outputs wrong"
    )
    for label, why in sorted(checks.wrong.items()):
        print(f"  WRONG {label}: {why}")
    if "chrome_trace" in extra:
        print(f"  chrome trace: {extra['chrome_trace']}")
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as handle:
        handle.write(json.dumps({"provenance": record, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
