"""The benchmark's workloads and the reference checks on their outputs.

Every workload is a closed loop on the host: a phase starts only when
the previous one has returned.  A *phase* is one pass over the
workload's simulation points; :meth:`phase` returns its wall time and
every point's result, keyed by the point's request.  A run measures
``cold_phases`` phases, each from empty caches, then replays.

* ``paper-sweep``: every paper driver on one ``Runner(jobs=min(2,
  nproc))``, in ``scripts/run_experiments.py``'s order.  Against an
  empty cache directory it is the cold sweep; a fresh runner against
  the filled directory is the warm replay.
* ``serving-grid``: ``run_serving_scenario``'s 24-point grid on a
  ``Runner(jobs=1)``, cold and then warm in the same way.
* ``pipeline-ideal``: ``SMTProcessor(...).run()`` on ``PerfectMemory``
  for both ISAs x 1/2/4/8 threads over traces prebuilt in set-up; no
  runner, cache or pool.  Its first phase is the cold one, later
  phases are the replays.

The scale is the one ``tests/golden/bitident.json`` pins, so at the
pinned seed the points that file lists must reproduce its hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace

from repro.analysis import (
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
    ResultStore,
    RunRequest,
    Runner,
    RunnerStats,
    execute_request,
    result_to_dict,
)
from repro.analysis.serving import ServingRequest
from repro.core.fetch import FetchPolicy
from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor
from repro.memory.perfect import PerfectMemory
from repro.serving.simulator import derive_interarrival
from repro.workloads.mediabench import WORKLOAD_ORDER, build_workload_traces
from repro.workloads.streams import generate_stream_schedule

#: The trace scale ``tests/golden/bitident.json`` pins (checked there).
SCALE = 2e-5
PIN_SEED = 0
ISAS = ("mmx", "mom")
THREADS = (1, 2, 4, 8)

#: Every ``run_*`` driver, in the order the benchmark can call them.
DRIVERS = (
    "run_breakdown_table3",
    "run_fig4_ideal",
    "run_fig5_real",
    "run_table4_cache",
    "run_fig6_fetch",
    "run_fig8_decoupled",
    "run_fig9_summary",
    "run_stall_breakdown",
    "run_serving_scenario",
)


def canonical_sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Phase:
    """One pass over a workload's points."""

    seconds: float
    #: request -> result (``RunResult``, or the serving result dict).
    results: dict
    #: driver name -> rendered report text.
    reports: dict[str, str] = field(default_factory=dict)
    stats: RunnerStats | None = None
    #: ``time.perf_counter()`` when the phase started.
    started: float = 0.0
    #: ``(start, end)`` of each simulated point, on the same clock.
    point_spans: list[tuple[float, float]] = field(default_factory=list)

    @property
    def span(self) -> tuple[float, float]:
        return self.started, self.started + self.seconds

    @property
    def instructions(self) -> int:
        if self.stats is not None:
            return self.stats.sim_instructions
        return sum(r.committed_instructions for r in self.results.values())


class SeededRunner(Runner):
    """A runner that gives every request the workload seed.

    The paper drivers take no seed, so the benchmark re-seeds their
    requests here; the mapping handed back to the drivers keeps their
    own request objects as keys.  ``served`` collects every point the
    runner returned, keyed by the re-seeded request.
    """

    def __init__(self, seed: int, **kwargs):
        super().__init__(**kwargs)
        self.seed = seed
        self.served: dict[RunRequest, object] = {}

    def run_batch(self, requests):
        seeded = {request: replace(request, seed=self.seed) for request in requests}
        results = super().run_batch(list(seeded.values()))
        mapped = {}
        for request, actual in seeded.items():
            self.served[actual] = results[actual]
            mapped[request] = results[actual]
        return mapped


def _driver(ledger, name: str, call):
    """Call one paper driver, as a ``driver.<name>`` span when traced."""
    if ledger is None:
        return call()
    frame = ledger.enter(f"driver.{name}", "report")
    try:
        return call()
    finally:
        ledger.exit(frame)


def _load_golden(root: str, name: str) -> dict:
    with open(os.path.join(root, "tests", "golden", name)) as handle:
        return json.load(handle)


def _pin_request(cls, entry: dict):
    return cls(**{
        key: tuple(value) if isinstance(value, list) else value
        for key, value in entry["request"].items()
    })


class _RunnerWorkload:
    """Shared shape of the two workloads that run through a ``Runner``."""

    name = ""
    #: Cold phases per untraced run (each from empty caches); warm
    #: replays per untraced run, at least, and per traced run, exactly.
    cold_phases = 1
    min_replays = 30
    #: Replays averaged into one ``warm_wall_s`` sample.
    replay_batch = 10
    traced_replays = 10
    pin_section = ""
    pin_class = None

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        #: The seed the simulated inputs are generated from.
        self.input_seed = seed

    def prepare(self) -> None:
        """Main-process set-up beyond the imports: nothing to prebuild."""

    def setup_probe_args(self) -> list[str]:
        return []

    def fill_point_spans(self, cache_dir: str, phase: Phase) -> None:
        """Each point's span, from the host seconds and the wall-clock
        save time the runner stored with it."""
        offset = time.time() - time.perf_counter()
        store = ResultStore(cache_dir)
        for request in phase.results:
            payload, status = store.load(store.fingerprint_of(request))
            if status == "ok":
                end = payload["saved_at"] - offset
                phase.point_spans.append((end - payload["sim_seconds"], end))

    def reference_checks(self, phase: Phase) -> list[tuple[str, bool]]:
        """Pinned points reproduce ``bitident.json``'s result hashes.

        Every pinned request the phase simulated is checked (sampled pins
        are not part of any workload); finding none is a failure too.
        """
        document = _load_golden(self.root, "bitident.json")
        if self.seed != PIN_SEED or document["scale"] != SCALE:
            return []
        checks = []
        for name, entry in sorted(document[self.pin_section].items()):
            result = phase.results.get(_pin_request(self.pin_class, entry))
            if result is not None:
                checks.append((
                    f"pin {name}", self.digest(result) == entry["result_sha256"]
                ))
        return checks or [(f"a {self.pin_section} pin was simulated", False)]


class PaperSweep(_RunnerWorkload):
    name = "paper-sweep"
    pin_section = "runs"
    pin_class = RunRequest
    #: The two-worker pool makes one cold sweep swing with host load.
    cold_phases = 2

    def __init__(self, root: str, seed: int):
        super().__init__(root, seed)
        cpus = len(os.sched_getaffinity(0))
        self.jobs = min(2, cpus)

    def phase(self, cache_dir: str, ledger=None) -> Phase:
        runner = SeededRunner(self.seed, jobs=self.jobs, cache_dir=cache_dir)
        reports = {}

        def call(name, driver, **kwargs):
            result = _driver(
                ledger, name,
                lambda: driver(scale=SCALE, runner=runner, **kwargs),
            )
            reports[name] = result.report
            return result

        started = time.perf_counter()
        call("run_breakdown_table3", run_breakdown_table3)
        fig4 = call("run_fig4_ideal", run_fig4_ideal)
        fig5 = call("run_fig5_real", run_fig5_real, ideal=fig4)
        call("run_table4_cache", run_table4_cache, fig5=fig5)
        call("run_fig6_fetch", run_fig6_fetch)
        call("run_fig8_decoupled", run_fig8_decoupled)
        call("run_fig9_summary", run_fig9_summary)
        call("run_stall_breakdown", run_stall_breakdown)
        seconds = time.perf_counter() - started
        return Phase(seconds, runner.served, reports, runner.stats, started)

    @staticmethod
    def digest(result) -> str:
        return canonical_sha256(result_to_dict(result))

    @staticmethod
    def label(request: RunRequest) -> str:
        return (
            f"{request.isa}/{request.n_threads}T/{request.memory}/"
            f"{request.fetch_policy}/c{request.completions_target}"
        )


class ServingGrid(_RunnerWorkload):
    """The serving grid at a scenario seed matched in size to the pin.

    A grid's cost follows its stream schedule: which programs the 16
    streams draw and how far apart they arrive.  Left free, those swing
    the work of a run by a quarter from seed to seed.  So benchmark seed
    ``n > 0`` runs the first scenario seed from ``1000 * n`` on whose
    offered instructions lie within 2 % and whose arrival span lies
    within 3 % of the pinned seed's; the pinned seed runs as itself.
    Programs, trace variants and arrival gaps still differ per seed.
    """

    name = "serving-grid"
    pin_section = "serving_runs"
    pin_class = ServingRequest
    jobs = 1
    n_streams = 16

    def prepare(self) -> None:
        if self.seed != PIN_SEED:
            self.input_seed = self._matched_seed()

    def _matched_seed(self) -> int:
        lengths, interarrival = {}, {}
        for isa in ISAS:
            palette = {}
            traces = build_workload_traces(isa, scale=SCALE, seed=PIN_SEED)
            for name, trace in zip(WORKLOAD_ORDER, traces):
                palette.setdefault(name, trace)
            lengths[isa] = {n: t.expanded_length for n, t in palette.items()}
            # run_serving_scenario's default mix and load; both grid
            # machines have 8 contexts.
            interarrival[isa] = derive_interarrival(
                palette, "mixed", 0.85, 8
            )

        def size(seed: int) -> tuple[int, int]:
            offered, span = 0, 0
            for isa in ISAS:
                schedule = generate_stream_schedule(
                    self.n_streams, interarrival[isa], seed=seed
                )
                offered += sum(lengths[isa][s.program] for s in schedule)
                span += schedule[-1].arrival
            return offered, span

        pinned_offered, pinned_span = size(PIN_SEED)
        candidate = 1000 * self.seed
        while True:
            offered, span = size(candidate)
            if (abs(offered / pinned_offered - 1) <= 0.02
                    and abs(span / pinned_span - 1) <= 0.03):
                return candidate
            candidate += 1

    def phase(self, cache_dir: str, ledger=None) -> Phase:
        runner = Runner(jobs=self.jobs, cache_dir=cache_dir)
        started = time.perf_counter()
        result = _driver(
            ledger, "run_serving_scenario",
            lambda: run_serving_scenario(
                scale=SCALE, runner=runner, n_streams=self.n_streams,
                seed=self.input_seed,
            ),
        )
        seconds = time.perf_counter() - started
        return Phase(
            seconds, dict(result.runs),
            {"run_serving_scenario": result.report}, runner.stats, started,
        )

    @staticmethod
    def digest(result) -> str:
        return canonical_sha256(result)

    @staticmethod
    def label(request: ServingRequest) -> str:
        return (
            f"{request.isa}/{request.arch}-{request.cores}x"
            f"{request.contexts}/{request.memory}/{request.policy}"
        )


class PipelineIdeal:
    name = "pipeline-ideal"
    cold_phases = 1
    min_replays = 3
    replay_batch = 1
    traced_replays = 1
    jobs = 1
    #: Passes over the 8 configurations per phase: ~5 s of simulation,
    #: long enough to average out short bursts of host load.
    rounds = 4

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.input_seed = seed
        self.traces: dict[str, list] = {}

    def prepare(self) -> None:
        self.traces = {
            isa: build_workload_traces(isa, scale=SCALE, seed=self.seed)
            for isa in ISAS
        }

    def setup_probe_args(self) -> list[str]:
        return ["--prebuild"]

    def phase(self, cache_dir: str | None = None, ledger=None) -> Phase:
        results = {}
        point_spans = []
        started = time.perf_counter()
        for round_ in range(self.rounds):
            for isa in ISAS:
                for n_threads in THREADS:
                    point_started = time.perf_counter()
                    result = SMTProcessor(
                        SMTConfig(isa=isa, n_threads=n_threads),
                        PerfectMemory(),
                        self.traces[isa],
                        fetch_policy=FetchPolicy.RR,
                    ).run()
                    point_spans.append((point_started, time.perf_counter()))
                    results[(isa, n_threads, round_)] = result
        seconds = time.perf_counter() - started
        return Phase(
            seconds, results, started=started, point_spans=point_spans
        )

    def fill_point_spans(self, cache_dir, phase: Phase) -> None:
        """Measured inside :meth:`phase` already."""

    @staticmethod
    def digest(result) -> str:
        return canonical_sha256(result_to_dict(result))

    @staticmethod
    def label(key: tuple) -> str:
        return f"{key[0]}/{key[1]}T/perfect/rr#{key[2]}"

    def reference_checks(self, phase: Phase) -> list[tuple[str, bool]]:
        """One point against the runner's own path; fig4 goldens at the pin.

        The cross-checked point rotates with the seed.  At the pinned
        seed every EIPC that ``tests/golden/fig4.json`` lists must sit
        within that file's tolerance.
        """
        keys = sorted(phase.results)
        key = keys[self.seed % len(keys)]
        isa, n_threads, __ = key
        reference = execute_request(RunRequest(
            isa, n_threads, memory="perfect", scale=SCALE, seed=self.seed
        ))
        checks = [(
            f"runner path {self.label(key)}",
            self.digest(reference) == self.digest(phase.results[key]),
        )]
        document = _load_golden(self.root, "fig4.json")
        if self.seed != PIN_SEED or document["scale"] != SCALE:
            return checks
        for isa in ISAS:
            for n_threads in THREADS:
                entry = document["metrics"].get(f"eipc_{isa}_{n_threads}t")
                if entry is None:
                    continue
                measured = phase.results[(isa, n_threads, 0)].eipc
                tolerance = entry["abs_tol"]
                if tolerance is None:
                    tolerance = entry["rel_tol"] * abs(entry["value"])
                checks.append((
                    f"fig4 golden eipc {isa} {n_threads}T",
                    abs(measured - entry["value"]) <= tolerance,
                ))
        return checks


WORKLOADS = {
    cls.name: cls for cls in (PaperSweep, ServingGrid, PipelineIdeal)
}
