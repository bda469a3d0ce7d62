"""Cached serving-scenario driver: the "how many users" experiment.

`run_serving_scenario` sweeps the serving grid — ISA × architecture
(wide SMT vs CMP×SMT) × memory hierarchy × admission policy — through
the same fingerprint/runcache/resilience machinery the paper figures
use: serving results are pure functions of a :class:`ServingRequest`,
cold/warm and serial/parallel sweeps are bit-identical (the same JSON
round-trip discipline as ``Runner.run_batch``), and cache entries share
the runner's :class:`~repro.analysis.runner.ResultStore` (fingerprints
are ``serving-`` prefixed so the two families never collide).

The fingerprint covers the simulation code version *plus* a hash of the
``repro.serving`` package source (which is not part of
``code_version()``'s simulation packages): editing the admission or
metering logic invalidates serving entries without touching the much
larger figure cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

from repro.analysis.reporting import format_table
from repro.analysis.resilience import SweepFailure
from repro.analysis.runner import RESULT_FORMAT, Runner, code_version, workload_traces
from repro.serving.admission import ADMISSION_POLICIES, AdmissionController
from repro.serving.metering import meter_result
from repro.serving.simulator import (
    SERVING_MEMORY_KINDS,
    ServingSimulator,
    build_serving_machine,
    derive_interarrival,
)
from repro.tracegen.program import DEFAULT_SCALE
from repro.tracegen.serialize import TraceCache
from repro.verify import faultinject
from repro.workloads.mediabench import (
    WORKLOAD_ORDER,
    build_stream_trace_variants,
)
from repro.workloads.streams import (
    CODE_BASE_STRIDE,
    SERVING_MIXES,
    generate_stream_schedule,
    rebase_trace,
)

#: Bumped when the serving result dict changes shape incompatibly.
SERVING_FORMAT = 1

#: The architecture design points of the serving grid:
#: ``(arch, cores, contexts)`` — the paper's wide 8-context SMT against
#: a 4-core × 2-context CMP×SMT with the same total context count.
SERVING_ARCH_POINTS = (("smt", 1, 8), ("cmp", 4, 2))

_serving_version_cache: str | None = None


def serving_code_version() -> str:
    """Hash of the serving package source, combined with code_version().

    ``repro.serving`` is not one of the runner's simulation packages
    (editing it must not invalidate the paper-figure cache), but serving
    results *are* functions of it — so serving fingerprints carry this
    separate hash.
    """
    global _serving_version_cache
    if _serving_version_cache is None:
        import repro.serving

        digest = hashlib.sha256(code_version().encode())
        package_dir = os.path.dirname(repro.serving.__file__)
        for name in sorted(os.listdir(package_dir)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as handle:
                digest.update(handle.read())
        _serving_version_cache = digest.hexdigest()[:40]
    return _serving_version_cache


@dataclass(frozen=True)
class ServingRequest:
    """Everything that determines one serving run (and its fingerprint)."""

    isa: str
    arch: str = "smt"
    cores: int = 1
    contexts: int = 8
    memory: str = "conventional"
    policy: str = "rr"
    mix: str = "mixed"
    n_streams: int = 16
    load: float = 0.85
    slack: float = 1.0
    queue_limit: int = 8
    scale: float = DEFAULT_SCALE
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ("smt", "cmp"):
            raise ValueError(f"unknown serving arch {self.arch!r}")
        if self.arch == "smt" and self.cores != 1:
            raise ValueError("arch='smt' is a single wide processor")
        if self.cores < 1 or self.contexts < 1:
            raise ValueError("need at least one core and one context")
        if self.memory not in SERVING_MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {self.memory!r}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}")
        if self.mix not in SERVING_MIXES:
            raise ValueError(f"unknown serving mix {self.mix!r}")
        if self.n_streams < 1:
            raise ValueError("need at least one stream")
        if not self.load > 0:
            raise ValueError("load must be positive")
        if not self.slack > 0:
            raise ValueError("slack must be positive")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")

    # `describe_request` (resilience failure reports) reads these names.
    @property
    def n_threads(self) -> int:
        return self.cores * self.contexts

    @property
    def fetch_policy(self) -> str:
        return f"serve-{self.policy}"

    def fingerprint(
        self, version: str | None = None, serving_version: str | None = None
    ) -> str:
        """Content address of this run's result in the shared store."""
        payload = asdict(self)
        # Floats go through repr, like RunRequest.scale, so equal-value
        # but differently-typed inputs cannot alias.
        payload["scale"] = repr(self.scale)
        payload["load"] = repr(self.load)
        payload["slack"] = repr(self.slack)
        payload["code_version"] = version or code_version()
        payload["serving_version"] = serving_version or serving_code_version()
        payload["serving_format"] = SERVING_FORMAT
        payload["result_format"] = RESULT_FORMAT
        blob = json.dumps(payload, sort_keys=True).encode()
        return "serving-" + hashlib.sha256(blob).hexdigest()[:40]


#: In-process memo for stream trace variants (bounded like the runner's
#: workload memo; the disk-level TraceCache handles cross-process reuse).
_VARIANT_MEMO: dict[tuple, dict] = {}
_VARIANT_MEMO_LIMIT = 6


def _stream_traces(
    request: ServingRequest, schedule, trace_dir: str | None
) -> dict[int, object]:
    """Assign each stream its own trace variant.

    Occurrence ``i`` of a program in arrival order gets the variant
    seeded ``seed + 7*i``, then the variant is rebased to the stream's
    own code base (``stream_id * CODE_BASE_STRIDE``).  Both halves break
    I-cache phase-lock: distinct variants mean concurrent same-program
    streams carry different content, and distinct code bases mean hot
    loops of *different* programs stop competing for the few cache sets
    a shared base address funnels them into.
    """
    seen: dict[str, int] = {}
    variant_of: dict[int, tuple[str, int]] = {}
    for stream in schedule:
        variant = seen.get(stream.program, 0)
        seen[stream.program] = variant + 1
        variant_of[stream.stream_id] = (stream.program, variant)
    key = (
        request.isa,
        repr(request.scale),
        request.seed,
        tuple((stream.stream_id, stream.program) for stream in schedule),
    )
    by_stream = _VARIANT_MEMO.get(key)
    if by_stream is None:
        cache = TraceCache(trace_dir) if trace_dir is not None else None
        variants = build_stream_trace_variants(
            request.isa,
            seen,
            scale=request.scale,
            seed=request.seed,
            cache=cache,
        )
        by_stream = {
            stream.stream_id: rebase_trace(
                variants[variant_of[stream.stream_id][0]][
                    variant_of[stream.stream_id][1]
                ],
                stream.stream_id * CODE_BASE_STRIDE,
            )
            for stream in schedule
        }
        if len(_VARIANT_MEMO) >= _VARIANT_MEMO_LIMIT:
            _VARIANT_MEMO.clear()
        _VARIANT_MEMO[key] = by_stream
    return by_stream


def execute_serving_request(
    request: ServingRequest, trace_dir: str | None = None
) -> dict:
    """Run one serving point to completion; returns the metered dict.

    Deterministic: traces come from the seeded generator (shared trace
    cache), the schedule from the seeded arrival generator, and the
    machine from the same pipeline model as every other experiment.
    """
    traces = workload_traces(request.isa, request.scale, request.seed, trace_dir)
    palette = {}
    for name, trace in zip(WORKLOAD_ORDER, traces):
        if name not in palette:
            palette[name] = trace
    n_slots = request.cores * request.contexts
    interarrival = derive_interarrival(
        palette, request.mix, request.load, n_slots
    )
    schedule = generate_stream_schedule(
        request.n_streams,
        interarrival,
        seed=request.seed,
        mix=request.mix,
        slack_scale=request.slack,
    )
    traces_by_stream = _stream_traces(request, schedule, trace_dir)
    machine_traces = []
    seen_ids: set[int] = set()
    for stream in schedule:
        trace = traces_by_stream[stream.stream_id]
        if id(trace) not in seen_ids:
            seen_ids.add(id(trace))
            machine_traces.append(trace)
    machine, scheduler = build_serving_machine(
        request.arch,
        request.isa,
        request.cores,
        request.contexts,
        request.memory,
        machine_traces,
    )
    admission = AdmissionController(
        request.cores,
        request.contexts,
        policy=request.policy,
        queue_limit=request.queue_limit,
    )
    simulator = ServingSimulator(
        machine, scheduler, admission, schedule, traces_by_stream
    )
    result = meter_result(simulator.run(), machine, admission)
    result["provenance"] = {
        "serving_format": SERVING_FORMAT,
        "mean_interarrival": interarrival,
        "n_slots": n_slots,
    }
    return result


def serving_pool_execute(args: tuple) -> dict:
    """Worker entry point (module-level, so pool workers can import it)."""
    request, trace_dir, attempt, fingerprint = args
    faultinject.fire_execution_fault(fingerprint, attempt)
    started = time.perf_counter()
    result = execute_serving_request(request, trace_dir)
    return {
        "elapsed": time.perf_counter() - started,
        "result": result,
        "attempt": attempt,
    }


def run_serving_batch(
    requests: list[ServingRequest], runner: Runner
) -> dict[ServingRequest, dict]:
    """Execute a serving batch with the runner's cache and resilience.

    The exact ``run_batch`` discipline: dedup, memo, disk hits, then
    cache-missing points through the resilient executor with every
    result JSON-round-tripped before use — cold/warm and serial/parallel
    sweeps are bit-identical by construction.  Raises
    :class:`~repro.analysis.resilience.SweepFailure` after salvaging
    every completable point, like ``run_batch``.
    """
    runner.stats.requested += len(requests)
    unique: list[ServingRequest] = []
    seen: set[ServingRequest] = set()
    for request in requests:
        if request not in seen:
            seen.add(request)
            unique.append(request)
    runner.stats.deduplicated += len(requests) - len(unique)
    memo: dict[ServingRequest, dict] = runner.__dict__.setdefault(
        "serving_memo", {}
    )
    version = runner.version
    serving_version = serving_code_version()

    todo: list[ServingRequest] = []
    for request in unique:
        if request in memo:
            runner.stats.memo_hits += 1
            continue
        if runner.store is not None:
            payload, status = runner.store.load(
                request.fingerprint(version, serving_version)
            )
            if status == "corrupt":
                runner.stats.corrupt_quarantined += 1
            if payload is not None:
                memo[request] = payload["result"]
                runner.stats.disk_hits += 1
                runner.stats.cached_sim_seconds += float(
                    payload.get("sim_seconds", 0.0)
                )
                continue
        todo.append(request)

    if todo:
        started = time.perf_counter()

        def on_success(request: ServingRequest, payload: dict) -> None:
            result = json.loads(json.dumps(payload["result"]))
            runner.stats.simulated += 1
            runner.stats.sim_cycles += result["summary"]["cycles"]
            runner.stats.sim_instructions += result["summary"][
                "committed_instructions"
            ]
            memo[request] = result
            if runner.store is not None:
                stored = runner.store.store(
                    request.fingerprint(version, serving_version),
                    asdict(request),
                    result,
                    payload["elapsed"],
                    payload.get("attempt", 0),
                )
                if not stored:
                    runner.stats.cache_write_errors += 1

        executor = runner.executor(
            serving_pool_execute,
            fingerprint_of=lambda request: request.fingerprint(
                version, serving_version
            ),
        )
        outcomes = executor.execute(todo, runner.trace_dir, on_success)
        runner.stats.sim_seconds += time.perf_counter() - started
        runner.record_execution(executor)
        if executor.failed or executor.aborted:
            raise SweepFailure(outcomes, total=len(todo))

    return {request: memo[request] for request in unique}


def _arch_label(arch: str, cores: int, contexts: int) -> str:
    if arch == "smt":
        return f"smt-{contexts}T"
    return f"cmp-{cores}x{contexts}T"


def run_serving_scenario(
    scale: float = DEFAULT_SCALE,
    runner: Runner | None = None,
    n_streams: int = 16,
    load: float = 0.85,
    mix: str = "mixed",
    seed: int = 0,
):
    """The media-server experiment: sustainable streams per design point.

    Sweeps ISA × architecture × memory under round-robin admission, then
    the three admission policies on the CMP×SMT/conventional machine —
    the point where placement genuinely matters (private L1s, shared
    L2).  Returns an :class:`~repro.analysis.experiments.ExperimentResult`
    whose ``measured`` dict keys are ``isa/arch/memory/policy``.
    """
    from repro.analysis.experiments import ISAS, ExperimentResult

    runner = runner or Runner()
    requests: list[ServingRequest] = []
    for isa in ISAS:
        for arch, cores, contexts in SERVING_ARCH_POINTS:
            for memory in SERVING_MEMORY_KINDS:
                for policy in ADMISSION_POLICIES:
                    requests.append(
                        ServingRequest(
                            isa=isa,
                            arch=arch,
                            cores=cores,
                            contexts=contexts,
                            memory=memory,
                            policy=policy,
                            mix=mix,
                            n_streams=n_streams,
                            load=load,
                            scale=scale,
                            seed=seed,
                        )
                    )
    results = run_serving_batch(requests, runner)

    measured = {}
    for request, result in results.items():
        label = _arch_label(request.arch, request.cores, request.contexts)
        summary = result["summary"]
        measured[f"{request.isa}/{label}/{request.memory}/{request.policy}"] = {
            "streams_per_mcycle": summary["streams_per_mcycle"],
            "latency_p50": summary["latency_p50"],
            "latency_p95": summary["latency_p95"],
            "latency_p99": summary["latency_p99"],
            "miss_rate": summary["miss_rate"],
            "unserved_rate": summary["unserved_rate"],
            "rejected": summary["rejected"],
            "eipc": summary["eipc"],
        }

    arch_rows = []
    for isa in ISAS:
        for arch, cores, contexts in SERVING_ARCH_POINTS:
            label = _arch_label(arch, cores, contexts)
            for memory in SERVING_MEMORY_KINDS:
                point = measured[f"{isa}/{label}/{memory}/rr"]
                arch_rows.append(
                    [
                        isa,
                        label,
                        memory,
                        point["streams_per_mcycle"],
                        point["latency_p50"],
                        point["latency_p95"],
                        point["miss_rate"],
                        point["unserved_rate"],
                        point["eipc"],
                    ]
                )
    report = format_table(
        [
            "isa", "arch", "memory", "str/Mcyc",
            "p50", "p95", "miss", "unserved", "eipc",
        ],
        arch_rows,
        title=(
            f"Serving capacity (open-loop, mix={mix}, "
            f"{n_streams} streams, load={load:g}, policy=rr)"
        ),
        float_fmt="{:.3f}",
    )
    policy_rows = []
    for isa in ISAS:
        for policy in ADMISSION_POLICIES:
            point = measured[f"{isa}/cmp-4x2T/conventional/{policy}"]
            policy_rows.append(
                [
                    isa,
                    policy,
                    point["streams_per_mcycle"],
                    point["latency_p95"],
                    point["latency_p99"],
                    point["miss_rate"],
                ]
            )
    report += "\n\n" + format_table(
        ["isa", "policy", "str/Mcyc", "p95", "p99", "miss"],
        policy_rows,
        title="Admission policy comparison (cmp-4x2T, conventional)",
        float_fmt="{:.3f}",
    )
    lines = []
    for isa in ISAS:
        ranked = sorted(
            ADMISSION_POLICIES,
            key=lambda policy: -measured[
                f"{isa}/cmp-4x2T/conventional/{policy}"
            ]["streams_per_mcycle"],
        )
        lines.append(
            f"{isa}: best admission policy by sustained throughput: "
            + " > ".join(ranked)
        )
    report += "\n" + "\n".join(lines)
    return ExperimentResult(
        name="serving",
        measured=measured,
        paper_values={},
        report=report,
        runs=results,
    )
