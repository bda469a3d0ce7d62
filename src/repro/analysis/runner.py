"""The experiment run engine: fingerprinted, deduplicated, parallel, cached.

Every figure/table driver describes the simulations it needs as
:class:`RunRequest` values and hands them to a shared :class:`Runner`.
The runner then

* **fingerprints** each request — ISA, thread count, memory system,
  fetch policy, trace scale, seed, completion target, plus a hash of the
  simulation-relevant source code — so a result is reusable exactly when
  rerunning the simulation would reproduce it bit for bit;
* **deduplicates** requests: figures 5/6 and table 4 (for example) share
  their conventional-hierarchy round-robin points, which are simulated
  once per process no matter how many figures ask;
* **fans out** cache-missing runs across one worker pool per runner when
  ``jobs > 1`` — runs are independent and deterministically seeded, so
  parallel and serial execution produce bit-identical results;
* **persists** results as JSON under a cache directory (the experiment
  script uses ``results/.runcache/``), keyed by the fingerprint, so
  re-running an unchanged sweep performs zero simulations and any code
  or configuration change transparently invalidates stale entries.

Trace generation is cached the same way: workload traces are memoized in
process and, when a cache directory is configured, persisted via
:class:`repro.tracegen.serialize.TraceCache`, so a trace is generated
once per sweep and parsed at most once per process.  The runner forks
its :class:`~repro.analysis.resilience.WorkerPool` lazily, at the first
batch that needs it, and keeps it until :meth:`Runner.close` (or until
the runner is garbage-collected), so each worker parses each trace once
for the runner's whole life rather than once per batch.  A runner whose
batches are all cache hits forks nothing.

Workers are forked, so they see the parent's module state as it was
when the runner's pool was forked, or when it was last replaced after a
timeout kill or a break: a fault plan installed with
:func:`repro.verify.faultinject.install`, a test double installed over
``_pool_execute``, a benchmark's wrappers around the layers' entry
points.  Anything installed later does not reach the workers of a live
pool; build a new :class:`Runner` after installing it.

All results returned by the runner — serial, parallel, cold or warm
cache — pass through the same JSON round-trip
(:func:`result_to_dict` / :func:`result_from_dict`), which is lossless
(Python's JSON float serialization round-trips exactly), making
bit-identical reports a structural property rather than an aspiration.

Execution is fault tolerant (:mod:`repro.analysis.resilience`): runs
carry wall-clock timeouts, transient failures retry with seeded
backoff, a broken process pool restarts (degrading to serial execution
if it keeps breaking), and every request ends in a structured
:class:`~repro.analysis.resilience.RunOutcome` rather than an aborted
sweep.  The on-disk cache is crash safe: entries are written atomically
(temp file + rename), carry a content checksum, and a corrupt entry is
quarantined with a :class:`CacheIntegrityWarning` — never silently
swallowed — then recomputed.  Results persist the moment each run
completes, so a sweep killed at any point resumes from every finished
simulation.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
import warnings
import weakref
from dataclasses import asdict, dataclass, field, fields, replace

import repro
from repro.analysis.resilience import (
    ResilienceConfig,
    ResilientExecutor,
    RunOutcome,
    SweepFailure,
    WorkerPool,
)
from repro.verify import faultinject
from repro.core.fetch import FetchPolicy
from repro.core.metrics import RunResult
from repro.core.params import SMTConfig
from repro.core.smt import (
    SMTProcessor,
    merge_sampled_chunks,
    sampled_chunk_count,
)
from repro.memory.decoupled import DecoupledHierarchy
from repro.memory.hierarchy import ConventionalHierarchy
from repro.memory.interface import CacheStats, MemoryStats
from repro.memory.perfect import PerfectMemory
from repro.tracegen.program import DEFAULT_SCALE, Trace
from repro.tracegen.serialize import TraceCache
from repro.workloads.mediabench import build_workload_traces

#: Bumped when the result serialization format changes incompatibly.
#: 2: entries gained the checksum envelope of :func:`write_checked_json`.
RESULT_FORMAT = 2


class CacheIntegrityWarning(UserWarning):
    """A cache entry failed its integrity check and was quarantined.

    Corrupt entries (torn writes from a killed process, bit rot, disk
    faults) are renamed to ``<entry>.corrupt`` — kept for forensics,
    never loaded — and the result is recomputed.  The count lands in
    ``RunnerStats.corrupt_quarantined`` and the sweep provenance.
    """


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    """Content checksum over the canonical JSON form of ``payload``."""
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()[:16]


def write_checked_json(path: str, payload) -> None:
    """Atomically persist ``{"checksum": ..., "payload": ...}``.

    Temp-file-plus-rename keeps readers (and a later resume) from ever
    observing a torn entry; the checksum lets them detect every other
    corruption mode.
    """
    record = {"checksum": _checksum(payload), "payload": payload}
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_checked_json(path: str):
    """Load a checksummed entry: ``(payload, status)``.

    ``status`` is ``"ok"``, ``"missing"``, ``"legacy"`` (readable JSON
    without our envelope — a pre-checksum cache format, stale but not
    corrupt) or ``"corrupt"`` (unparseable, or checksum mismatch);
    ``payload`` is ``None`` unless ``"ok"``.
    """
    try:
        with open(path) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        return None, "missing"
    except (OSError, ValueError):
        return None, "corrupt"
    if (
        not isinstance(record, dict)
        or set(record) != {"checksum", "payload"}
    ):
        return None, "legacy"
    if _checksum(record["payload"]) != record["checksum"]:
        return None, "corrupt"
    return record["payload"], "ok"


def verify_cache(cache_dir: str) -> dict:
    """Integrity-scan every entry of a result-cache directory.

    Returns ``{"ok": count, "corrupt": [paths], "legacy": [paths],
    "quarantined": [paths]}`` — ``quarantined`` lists ``.corrupt``
    files left by earlier quarantines.  Used by tests and the
    chaos-smoke harness to assert a cache holds no torn entries.
    """
    ok, corrupt, legacy, quarantined = 0, [], [], []
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if name.endswith(".corrupt"):
            quarantined.append(path)
            continue
        if not name.endswith(".json"):
            continue
        __, status = read_checked_json(path)
        if status == "ok":
            ok += 1
        elif status == "corrupt":
            corrupt.append(path)
        elif status == "legacy":
            legacy.append(path)
    return {
        "ok": ok,
        "corrupt": corrupt,
        "legacy": legacy,
        "quarantined": quarantined,
    }


def quarantine_entry(path: str, what: str = "result-cache") -> str:
    """Move a corrupt cache entry aside, loudly.

    Returns the quarantine path (``<entry>.corrupt``), or
    ``"(could not be moved)"`` when the rename itself failed.  Callers
    own the bookkeeping (``RunnerStats.corrupt_quarantined`` for the
    runner, ``ServiceStats`` for the sweep service).
    """
    quarantined = f"{path}.corrupt"
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = "(could not be moved)"
    warnings.warn(
        CacheIntegrityWarning(
            f"corrupt {what} entry {path}: parse/checksum failure; "
            f"quarantined to {quarantined}, recomputing"
        ),
        stacklevel=3,
    )
    return quarantined


class ResultStore:
    """The content-addressed, checksummed result store.

    One directory of ``<fingerprint>.json`` entries in the
    :func:`write_checked_json` envelope, shared by :class:`Runner`
    (in-process sweeps) and the sweep service (``repro.service`` —
    many clients, one store).  Both sides read and write the exact
    same payload shape, so a sweep that ran through the service is a
    warm cache for ``run_experiments.py`` and vice versa:

    ``{"result_format", "code_version", "request", "result",
    "sim_seconds", "saved_at"}``

    The store is crash-safe (atomic rename + checksum; a torn write is
    quarantined on next read, never served) and append-only from the
    callers' point of view — entries are only ever replaced by a
    recompute of the same fingerprint.
    """

    def __init__(self, cache_dir: str, version: str | None = None):
        self.cache_dir = cache_dir
        self.version = version
        os.makedirs(cache_dir, exist_ok=True)

    @property
    def trace_dir(self) -> str:
        """Trace-cache directory, nested so one rm clears both."""
        path = os.path.join(self.cache_dir, "traces")
        os.makedirs(path, exist_ok=True)
        return path

    def fingerprint_of(self, request) -> str:
        return request.fingerprint(self.version)

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.cache_dir, f"{fingerprint}.json")

    def load(self, fingerprint: str) -> tuple[dict | None, str]:
        """Load an entry: ``(payload, status)``.

        ``status`` is ``"ok"``, ``"missing"``, ``"stale"`` (readable
        but a different result format — recompute) or ``"corrupt"``
        (quarantined before returning); ``payload`` is ``None`` unless
        ``"ok"``.
        """
        path = self.path_for(fingerprint)
        payload, status = read_checked_json(path)
        if status == "corrupt":
            quarantine_entry(path)
            return None, "corrupt"
        if payload is None:  # missing, or a stale pre-checksum format
            return None, "missing" if status == "missing" else "stale"
        if payload.get("result_format") != RESULT_FORMAT:
            return None, "stale"
        return payload, "ok"

    def store(
        self,
        fingerprint: str,
        request_payload: dict,
        result_payload: dict,
        elapsed: float,
        attempt: int = 0,
    ) -> bool:
        """Persist one finished point; ``False`` if the write failed.

        A failed write is loud (``CacheIntegrityWarning``) but not
        fatal: the caller already holds the result in memory, so losing
        persistence costs a recompute next session, not correctness.
        """
        path = self.path_for(fingerprint)
        payload = {
            "result_format": RESULT_FORMAT,
            "code_version": self.version or code_version(),
            "request": request_payload,
            "result": result_payload,
            "sim_seconds": elapsed,
            "saved_at": time.time(),
        }
        try:
            write_checked_json(path, payload)
        except OSError as exc:
            warnings.warn(
                CacheIntegrityWarning(
                    f"could not persist result-cache entry {path}: {exc}"
                ),
                stacklevel=3,
            )
            return False
        faultinject.corrupt_cache_entry(path, fingerprint, attempt)
        return True

    def scan(self) -> dict:
        """Integrity-scan the whole store (see :func:`verify_cache`)."""
        return verify_cache(self.cache_dir)


#: Subpackages whose source determines simulation results.  The analysis
#: layer (drivers, reporting) is deliberately excluded: rewording a
#: report must not invalidate cached simulations.
_SIMULATION_PACKAGES = ("core", "memory", "isa", "tracegen", "workloads")

_MEMORY_FACTORIES = {
    "perfect": PerfectMemory,
    "conventional": ConventionalHierarchy,
    "decoupled": DecoupledHierarchy,
}


def memory_factory(kind: str):
    """Memory-system class for a configuration name."""
    try:
        return _MEMORY_FACTORIES[kind]
    except KeyError:
        raise ValueError(f"unknown memory system {kind!r}") from None


_code_version_cache: str | None = None


def code_version() -> str:
    """Hash of the simulation-relevant source tree.

    Part of every run fingerprint: editing the core, the memory models,
    the ISA tables, the trace generator or the workloads invalidates all
    cached results, while analysis-layer edits do not.
    """
    global _code_version_cache
    if _code_version_cache is None:
        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for package in _SIMULATION_PACKAGES:
            package_dir = os.path.join(root, package)
            for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


#: SMTConfig fields that intentionally do NOT ride the request
#: fingerprint.  Audited by the FPR-* codelint rules
#: (:mod:`repro.verify.codelint.rules_fpr`): every ``SMTConfig`` field
#: must either be forwarded from a :class:`RunRequest` field inside
#: :func:`execute_request` (and thereby fingerprinted via
#: ``asdict(self)``) or appear here with its reason.  Three legitimate
#: categories:
#:
#: * **derived** — computed from fingerprinted fields in
#:   ``SMTConfig.__post_init__``; fingerprinting them would be
#:   double-counting;
#: * **observer-only** — proven result-neutral end to end
#:   (``tests/test_core_sanitizer.py`` and the obs bit-identity suite
#:   show sanitized/observed runs byte-identical to plain ones);
#: * **structural constant** — not settable through the runner at all;
#:   changing one means editing ``core/params.py``, which the
#:   fingerprint's code-version hash over ``src/repro/core`` already
#:   invalidates.
#:
#: Adding an SMTConfig field without either forwarding it or extending
#: this table fails CI (FPR-CONFIG-UNFINGERPRINTED); stale entries fail
#: too (FPR-EXEMPT-STALE), like isacheck's TIMING_ONLY_MNEMONICS.
FINGERPRINT_EXEMPT_CONFIG_FIELDS = {
    "resources": "derived: scaled_resources(n_threads) in __post_init__",
    "issue_simd": "derived: 2 for mmx / 1 for mom in __post_init__",
    "sanitize": "observer-only: sanitized runs are bit-identical",
    "observe": "observer-only: observability rides the result, not the key",
    "fetch_groups": "structural constant (paper §3); code-version covered",
    "fetch_group_size": "structural constant (paper §3); code-version covered",
    "dispatch_width": "structural constant (paper §3); code-version covered",
    "commit_width": "structural constant (paper §3); code-version covered",
    "issue_int": "structural constant (paper §3); code-version covered",
    "issue_mem": "structural constant (paper §3); code-version covered",
    "issue_fp": "structural constant (paper §3); code-version covered",
    "vector_lanes": "structural constant (paper §3); code-version covered",
    "decode_buffer": "structural constant (paper §3); code-version covered",
    "mispredict_redirect": (
        "structural constant (paper §3); code-version covered"
    ),
}

#: :class:`RunRequest` fields that intentionally do NOT ride the
#: fingerprint, mirroring ``FINGERPRINT_EXEMPT_CONFIG_FIELDS`` above.
#: ``fingerprint`` pops every key listed here from its payload;
#: ``tests/test_analysis_runner.py`` audits the table (each key must be
#: a real request field, and requests differing only in an exempt field
#: must fingerprint — and compare — equal).
FINGERPRINT_EXEMPT_REQUEST_FIELDS = {
    "window_jobs": (
        "measurement-invariant by construction: the sampled schedule is "
        "chunked identically for every window_jobs value (the chunk "
        "count is a pure function of config and workload, see "
        "repro.core.smt.sampled_chunk_count) and merged in fixed chunk "
        "order, so serial and sharded execution are bit-identical; "
        "fingerprinting it would fork the result cache on a pure "
        "execution-strategy knob"
    ),
    "backend": (
        "measurement-invariant by contract: the flat engine "
        "(repro.core.engine_flat) is bit-identical to the object engine "
        "— same canonical hash, same sampled chunk schedule — pinned by "
        "the cross-backend golden suite (tests/test_engine_flat.py), so "
        "both backends share one runcache slot; fingerprinting it would "
        "fork the result cache on a pure execution-strategy knob"
    ),
}


@dataclass(frozen=True)
class RunRequest:
    """One simulation point of an experiment sweep.

    Everything that determines the simulation's outcome is a field here
    (the code version is added by the fingerprint); two equal requests
    are guaranteed to produce bit-identical results.
    """

    isa: str
    n_threads: int
    memory: str = "conventional"
    fetch_policy: str = "rr"
    scale: float = DEFAULT_SCALE
    seed: int = 0
    completions_target: int = 8
    #: Statistical sampling parameters ``(ff_len, window_len,
    #: warmup_len)`` or ``None`` for full detail — forwarded to
    #: :class:`SMTConfig` and part of the fingerprint: a sampled result
    #: never masquerades as (or shadows) a full-detail one.
    sampling: tuple | None = None
    #: Worker processes for the sampled run's window chunks (``1`` =
    #: in-process serial schedule).  An execution-strategy knob, not a
    #: measurement parameter: excluded from equality/hash (two requests
    #: differing only here are the *same* simulation point — memo and
    #: cache must agree) and from the fingerprint (see
    #: ``FINGERPRINT_EXEMPT_REQUEST_FIELDS``).  Ignored for non-sampled
    #: runs and for workloads too small to chunk.
    window_jobs: int = field(default=1, compare=False)
    #: Pipeline engine (``SMTConfig.backend``): ``"object"``, ``"flat"``
    #: or ``"auto"``.  An execution-strategy knob like ``window_jobs``
    #: — the flat engine is bit-identical by contract — so it is
    #: excluded from equality/hash (both backends are the *same*
    #: simulation point; memo and cache must agree) and from the
    #: fingerprint (see ``FINGERPRINT_EXEMPT_REQUEST_FIELDS``).
    backend: str = field(default="auto", compare=False)

    def __post_init__(self):
        if self.backend not in ("object", "flat", "auto"):
            raise ValueError(
                "backend must be 'object', 'flat' or 'auto', "
                f"not {self.backend!r}"
            )
        # Normalize enum-typed policies so RunRequest("mmx", 1,
        # fetch_policy=FetchPolicy.RR) and the string form are the same
        # request (and hash identically).
        if isinstance(self.fetch_policy, FetchPolicy):
            object.__setattr__(self, "fetch_policy", self.fetch_policy.value)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "window_jobs", max(1, int(self.window_jobs)))
        if self.sampling is not None:
            # Lists (e.g. from JSON round-trips) and tuples must be the
            # same request; tuples also keep the dataclass hashable.
            object.__setattr__(
                self, "sampling", tuple(int(v) for v in self.sampling)
            )

    def fingerprint(self, version: str | None = None) -> str:
        """Stable cache key: request fields + code version + format."""
        payload = asdict(self)
        for exempt in FINGERPRINT_EXEMPT_REQUEST_FIELDS:
            payload.pop(exempt, None)
        payload["scale"] = repr(self.scale)
        payload["code_version"] = version or code_version()
        payload["result_format"] = RESULT_FORMAT
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:40]


# ------------------------------------------------------------------ results


def result_to_dict(result: RunResult) -> dict:
    """Serialize a :class:`RunResult` to JSON-safe plain data.

    The ``observability`` snapshot is carried only when present: an
    unobserved run serializes without the key at all, keeping its JSON
    byte-identical to trees that predate the observability layer (the
    bit-identity suite pins this).
    """
    payload = asdict(result)
    if payload.get("observability") is None:
        payload.pop("observability", None)
    return payload


def result_from_dict(data: dict) -> RunResult:
    """Reconstruct a :class:`RunResult` from :func:`result_to_dict` data."""
    payload = dict(data)
    mem = payload.pop("memory")
    cache_fields = {"icache", "l1", "l2"}
    memory = MemoryStats(
        **{
            key: CacheStats(**value) if key in cache_fields else value
            for key, value in mem.items()
        }
    )
    return RunResult(memory=memory, **payload)


# ------------------------------------------------------------------ traces

#: In-process memo of whole-workload trace lists.  Traces are immutable
#: and generation is deterministic, so sharing them between runs (and
#: with the drivers) is safe; the memo is bounded because large-scale
#: trace lists are tens of megabytes each.
_WORKLOAD_MEMO: dict[tuple, list[Trace]] = {}
_WORKLOAD_MEMO_LIMIT = 6


def workload_traces(
    isa: str,
    scale: float,
    seed: int = 0,
    trace_dir: str | None = None,
) -> list[Trace]:
    """The §5.1 workload's traces, memoized in process and on disk.

    ``trace_dir`` is part of the memo key so that a cache-directory
    runner always persists its traces even when a cacheless run already
    memoized the same workload.
    """
    key = (isa, float(scale), int(seed), trace_dir)
    traces = _WORKLOAD_MEMO.get(key)
    if traces is None:
        cache = TraceCache(trace_dir) if trace_dir else None
        traces = build_workload_traces(isa, scale=scale, seed=seed, cache=cache)
        if len(_WORKLOAD_MEMO) >= _WORKLOAD_MEMO_LIMIT:
            _WORKLOAD_MEMO.pop(next(iter(_WORKLOAD_MEMO)))
        _WORKLOAD_MEMO[key] = traces
    return traces


# ------------------------------------------------------------------ execution


def execute_request(
    request: RunRequest, trace_dir: str | None = None
) -> RunResult:
    """Run one simulation point (no result caching at this layer).

    Sampled requests with ``window_jobs > 1`` fan their window chunks
    out over a process pool (:func:`_execute_request_sharded`) — unless
    this process is itself a pool worker, in which case nesting pools
    would oversubscribe the machine and the serial schedule (which is
    bit-identical anyway) runs instead.
    """
    if (
        request.window_jobs > 1
        and request.sampling is not None
        and multiprocessing.parent_process() is None
    ):
        sharded = _execute_request_sharded(request, trace_dir)
        if sharded is not None:
            return sharded
    traces = workload_traces(
        request.isa, request.scale, request.seed, trace_dir
    )
    processor = SMTProcessor(
        SMTConfig(
            isa=request.isa,
            n_threads=request.n_threads,
            sampling=request.sampling,
            backend=request.backend,
        ),
        memory_factory(request.memory)(),
        traces,
        fetch_policy=FetchPolicy(request.fetch_policy),
        completions_target=request.completions_target,
    )
    return processor.run()


def pool_execute(args: tuple) -> dict:
    """Worker-process entry point: simulate and return timed plain data.

    ``args`` is ``(request, trace_dir, attempt, fingerprint)`` — the
    attempt number and fingerprint feed the deterministic fault
    injection hook (a no-op unless a plan is installed).  The per-run
    wall time is persisted with the cached result so a later
    fully-cached sweep can still report the throughput of the
    simulations that produced its numbers.

    Shared by :meth:`Runner.run_batch` and the sweep service — both
    dispatch through the module attribute at call time, so a test
    double installed over either name applies to every consumer.
    """
    request, trace_dir, attempt, fingerprint = args
    faultinject.fire_execution_fault(fingerprint, attempt)
    started = time.perf_counter()
    result = execute_request(request, trace_dir)
    return {
        "elapsed": time.perf_counter() - started,
        "result": result_to_dict(result),
        "attempt": attempt,
    }


#: Legacy name of :func:`pool_execute`; ``run_batch`` dispatches through
#: this module global so existing test doubles keep working.
_pool_execute = pool_execute


# ------------------------------------------------------------- window shards

#: Resilience policy for intra-run window-shard execution.  Module-level
#: because pool workers need it importable; :class:`Runner` installs its
#: own policy here (last runner wins — acceptable for a process-wide
#: execution knob, and tests monkeypatch it directly).
_WINDOW_RESILIENCE = ResilienceConfig()

#: Shard provenance drained by :meth:`Runner.run_batch` into BENCH:
#: one ``{"fingerprint", "chunks", "window_jobs", "shard_seconds",
#: "wall_seconds"}`` record per sharded point.
_WINDOW_SHARD_LOG: list[dict] = []


@dataclass(frozen=True)
class _WindowShard:
    """One window chunk of a sampled request, as a pool task.

    Wraps the base request so the resilience layer can describe and
    fingerprint it; the properties expose the fields
    :func:`~repro.analysis.resilience.describe_request` reads.
    """

    base: RunRequest
    index: int
    n_chunks: int

    @property
    def isa(self) -> str:
        return self.base.isa

    @property
    def n_threads(self) -> int:
        return self.base.n_threads

    @property
    def memory(self) -> str:
        return self.base.memory

    @property
    def fetch_policy(self) -> str:
        return self.base.fetch_policy

    @property
    def scale(self) -> float:
        return self.base.scale


def _window_pool_execute(args: tuple) -> dict:
    """Pool entry point for one window shard (mirrors `_pool_execute`)."""
    shard, trace_dir, attempt, fingerprint = args
    faultinject.fire_execution_fault(fingerprint, attempt)
    request = shard.base
    started = time.perf_counter()
    traces = workload_traces(
        request.isa, request.scale, request.seed, trace_dir
    )
    processor = SMTProcessor(
        SMTConfig(
            isa=request.isa,
            n_threads=request.n_threads,
            sampling=request.sampling,
            backend=request.backend,
        ),
        memory_factory(request.memory)(),
        traces,
        fetch_policy=FetchPolicy(request.fetch_policy),
        completions_target=request.completions_target,
    )
    chunk = processor.run_sampled_chunk(shard.index, shard.n_chunks)
    return {
        "elapsed": time.perf_counter() - started,
        "chunk": chunk,
        "attempt": attempt,
    }


def _execute_request_sharded(
    request: RunRequest, trace_dir: str | None = None
) -> RunResult | None:
    """Fan a sampled request's window chunks out over a process pool.

    Returns ``None`` when the workload is too small to chunk (the
    caller falls through to the plain serial path).  Shards execute
    under the same resilience machinery as whole runs — per-shard
    timeouts, retries, pool restarts — and merge in fixed chunk order,
    so the result is bit-identical to the serial schedule no matter how
    shards are scheduled or which of them had to retry.
    """
    traces = workload_traces(
        request.isa, request.scale, request.seed, trace_dir
    )
    n_chunks = sampled_chunk_count(
        request.sampling, traces, request.completions_target
    )
    if n_chunks <= 1:
        return None
    base_fingerprint = request.fingerprint()
    shards = [
        _WindowShard(base=request, index=index, n_chunks=n_chunks)
        for index in range(n_chunks)
    ]
    chunks: dict[int, dict] = {}
    shard_seconds = 0.0

    def on_success(shard: _WindowShard, payload: dict) -> None:
        nonlocal shard_seconds
        # The same JSON round-trip the whole-run path applies: pooled
        # and in-process shards hand identical plain data to the merge.
        chunks[shard.index] = json.loads(json.dumps(payload["chunk"]))
        shard_seconds += payload["elapsed"]

    jobs = min(request.window_jobs, n_chunks)
    started = time.perf_counter()
    with WorkerPool(jobs) as pool:
        executor = ResilientExecutor(
            _WINDOW_RESILIENCE,
            jobs,
            _window_pool_execute,
            fingerprint_of=lambda shard: f"{base_fingerprint}/w{shard.index}",
            pool=pool,
        )
        outcomes = executor.execute(shards, trace_dir, on_success)
    if executor.failed or executor.aborted:
        raise SweepFailure(outcomes, total=len(shards))
    _WINDOW_SHARD_LOG.append(
        {
            "fingerprint": base_fingerprint,
            "chunks": n_chunks,
            "window_jobs": request.window_jobs,
            "shard_seconds": shard_seconds,
            "wall_seconds": time.perf_counter() - started,
        }
    )
    return merge_sampled_chunks(
        SMTConfig(
            isa=request.isa,
            n_threads=request.n_threads,
            sampling=request.sampling,
        ),
        FetchPolicy(request.fetch_policy),
        [chunks[index] for index in range(n_chunks)],
    )


def _instructions_of(result: RunResult) -> int:
    """Instructions a run actually retired, for throughput accounting.

    A sampled result's ``committed_instructions`` covers only the
    measurement windows (the quantity its EIPC is defined over); the
    work the run performed — and the basis of the sampling speedup —
    is the whole workload it advanced, which the per-program completion
    ledger records for fast-forwarded and detailed regimes alike.
    """
    if result.samples is not None:
        return int(sum(result.per_program_committed.values()))
    return result.committed_instructions


# ------------------------------------------------------------------ runner


@dataclass
class RunnerStats:
    """What a runner did on behalf of its callers."""

    requested: int = 0
    deduplicated: int = 0      # duplicate requests folded away
    memo_hits: int = 0         # served from the in-process memo
    disk_hits: int = 0         # served from the on-disk cache
    simulated: int = 0         # actually executed
    sim_seconds: float = 0.0   # wall time spent executing
    sim_instructions: int = 0  # committed instructions across executed runs
    sim_cycles: int = 0        # simulated cycles across executed runs
    # Provenance of disk-cache hits: the wall time and instruction count
    # of the runs that originally produced them, so a fully-cached sweep
    # can still report a meaningful simulation throughput.
    cached_sim_seconds: float = 0.0
    cached_instructions: int = 0
    artifact_hits: int = 0     # derived artifacts served from cache
    # Resilience provenance: what it took to get the results above.
    retries: int = 0               # attempts re-scheduled after a failure
    timeouts: int = 0              # runs killed for exceeding the deadline
    pool_breaks: int = 0           # process-pool restarts after worker death
    pool_starts: int = 0           # worker pools forked, replacements included
    degraded: int = 0              # batches that fell back to serial execution
    failed_points: int = 0         # requests that failed permanently
    corrupt_quarantined: int = 0   # cache entries quarantined as corrupt
    cache_write_errors: int = 0    # results that could not be persisted
    window_shards: int = 0         # window chunks executed for sharded points

    def snapshot(self) -> dict:
        return asdict(self)

    def delta_since(self, before: dict) -> dict:
        return {
            field.name: getattr(self, field.name) - before[field.name]
            for field in fields(self)
        }


class Runner:
    """Executes batches of run requests with dedup, caching and fan-out.

    Parameters
    ----------
    jobs:
        Worker processes for cache-missing runs.  ``1`` executes in
        process; higher values fan out over the runner's one
        :class:`~repro.analysis.resilience.WorkerPool`, forked at the
        first batch that needs it and kept until :meth:`close`.
        Results are bit-identical either way.
    cache_dir:
        Directory for the on-disk result cache (and, under ``traces/``,
        the trace cache).  ``None`` disables persistence — the runner
        still deduplicates and memoizes within the process.
    version:
        Override for the code-version component of fingerprints (tests
        use this to exercise invalidation without editing source files).
    resilience:
        The :class:`~repro.analysis.resilience.ResilienceConfig`
        governing timeouts, retries and failure policy for cache-missing
        runs (default: no timeout, 4 attempts, salvage mode).
    window_jobs:
        Worker processes for each sampled run's window chunks
        (intra-run parallelism; see ``RunRequest.window_jobs``).  ``1``
        keeps the in-process serial schedule.  Complements ``jobs``:
        use ``jobs`` when a sweep has many points in flight, and
        ``window_jobs`` to cut the latency of a few large sampled
        points — inside pool workers sharding auto-disables, so the
        two never nest.
    backend:
        Pipeline engine override applied to every executed request
        (``"object"``, ``"flat"`` or ``"auto"``; see
        ``RunRequest.backend``).  ``None`` (default) leaves each
        request's own setting.  Like ``window_jobs``, a pure
        execution-strategy knob: results are bit-identical either way
        and share one cache slot.

    The runner is a context manager: leaving ``with Runner(...)`` (or
    calling :meth:`close`) shuts its worker pool down; garbage
    collection does the same for a runner nobody closed.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | None = None,
        version: str | None = None,
        resilience: ResilienceConfig | None = None,
        window_jobs: int = 1,
        backend: str | None = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache_dir = cache_dir
        self.version = version
        self.resilience = resilience or ResilienceConfig()
        self.window_jobs = max(1, int(window_jobs))
        if backend not in (None, "object", "flat", "auto"):
            raise ValueError(
                "backend must be None, 'object', 'flat' or 'auto', "
                f"not {backend!r}"
            )
        self.backend = backend
        #: Shard provenance records drained from the module log after
        #: each batch (one per sharded point; rides BENCH).
        self.window_shard_events: list[dict] = []
        # Shards execute through module-level machinery so pool workers
        # can import it; install this runner's resilience policy there.
        global _WINDOW_RESILIENCE
        _WINDOW_RESILIENCE = self.resilience
        self.stats = RunnerStats()
        #: Per-request execution bookkeeping (status, attempts, failure
        #: records) for every request this runner had to execute.
        self.outcomes: dict[RunRequest, RunOutcome] = {}
        self._memo: dict[RunRequest, RunResult] = {}
        self._artifacts: dict[tuple, object] = {}
        #: The shared on-disk result store (``None`` without a cache
        #: dir).  The same class backs the sweep service, so either
        #: side's entries are warm hits for the other.
        self.store: ResultStore | None = (
            ResultStore(cache_dir, version) if cache_dir else None
        )
        #: The worker pool every executor this runner builds borrows.
        self._pool = WorkerPool(self.jobs)
        weakref.finalize(self, self._pool.close)

    def close(self) -> None:
        """Shut the worker pool down; a later batch forks a new one."""
        self._pool.close()

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----- cache plumbing ---------------------------------------------------

    @property
    def trace_dir(self) -> str | None:
        if self.store is None:
            return None
        return self.store.trace_dir

    def _cache_path(self, request: RunRequest) -> str | None:
        if self.store is None:
            return None
        return self.store.path_for(request.fingerprint(self.version))

    def _quarantine(self, path: str, what: str) -> None:
        """Move a corrupt cache entry aside, loudly, and count it."""
        quarantine_entry(path, what)
        self.stats.corrupt_quarantined += 1

    def _cache_load(
        self, request: RunRequest
    ) -> tuple[RunResult, float] | None:
        """Load a cached result and the wall time that produced it."""
        if self.store is None:
            return None
        payload, status = self.store.load(request.fingerprint(self.version))
        if status == "corrupt":
            self.stats.corrupt_quarantined += 1
            return None
        if payload is None:
            return None
        return (
            result_from_dict(payload["result"]),
            float(payload.get("sim_seconds", 0.0)),
        )

    def _cache_store(
        self,
        request: RunRequest,
        result: RunResult,
        elapsed: float,
        attempt: int = 0,
    ) -> None:
        if self.store is None:
            return
        stored = self.store.store(
            request.fingerprint(self.version),
            asdict(request),
            result_to_dict(result),
            elapsed,
            attempt,
        )
        if not stored:
            # The result is already memoized; losing persistence costs a
            # recompute next session, not this sweep's correctness.
            self.stats.cache_write_errors += 1

    # ----- execution --------------------------------------------------------

    def run(self, request: RunRequest) -> RunResult:
        """Execute (or recall) a single request."""
        return self.run_batch([request])[request]

    def run_batch(
        self, requests: list[RunRequest]
    ) -> dict[RunRequest, RunResult]:
        """Execute a batch, deduplicated, in parallel when configured.

        Returns a mapping from each distinct request to its result;
        duplicate requests in the batch map to the single shared result.

        Execution goes through the resilience layer: results are
        memoized and persisted the moment each run completes (a killed
        sweep resumes from every finished point), transient failures
        retry per ``self.resilience``, and if any request still fails
        permanently a :class:`~repro.analysis.resilience.SweepFailure`
        is raised *after* every completable run has been salvaged and
        cached.
        """
        self.stats.requested += len(requests)
        unique: list[RunRequest] = []
        seen: set[RunRequest] = set()
        for request in requests:
            if request not in seen:
                seen.add(request)
                unique.append(request)
        self.stats.deduplicated += len(requests) - len(unique)

        todo: list[RunRequest] = []
        for request in unique:
            if request in self._memo:
                self.stats.memo_hits += 1
                continue
            cached = self._cache_load(request)
            if cached is not None:
                result, elapsed = cached
                self.stats.disk_hits += 1
                self.stats.cached_sim_seconds += elapsed
                self.stats.cached_instructions += _instructions_of(result)
                self._memo[request] = result
                continue
            todo.append(request)

        if todo:
            if self.window_jobs > 1:
                # Equality/hash ignore window_jobs, so the rewritten
                # requests stay valid keys for the memo and the result
                # mapping returned to the caller.
                todo = [
                    replace(request, window_jobs=self.window_jobs)
                    for request in todo
                ]
            if self.backend is not None:
                # Same contract as window_jobs: backend is excluded from
                # equality/hash, so rewritten requests remain the keys
                # the caller and the memo agree on.
                todo = [
                    replace(request, backend=self.backend)
                    for request in todo
                ]
            started = time.perf_counter()
            trace_dir = self.trace_dir
            version = self.version
            # Stale shard events from direct execute_request callers
            # must not be attributed to this batch.
            del _WINDOW_SHARD_LOG[:]

            def on_success(request: RunRequest, payload: dict) -> None:
                # Every result passes through the same round-trip the
                # disk cache uses, so cold/warm and serial/parallel runs
                # are bit-identical by construction.  Called as soon as
                # the run completes: the cache entry lands before any
                # other run finishes, which is what makes a SIGKILLed
                # sweep resumable from every completed point.
                result = result_from_dict(
                    json.loads(json.dumps(payload["result"]))
                )
                self.stats.simulated += 1
                self.stats.sim_instructions += _instructions_of(result)
                self.stats.sim_cycles += result.cycles
                self._memo[request] = result
                self._cache_store(
                    request, result, payload["elapsed"],
                    payload.get("attempt", 0),
                )

            executor = self.executor(
                _pool_execute,
                fingerprint_of=lambda request: request.fingerprint(version),
            )
            outcomes = executor.execute(todo, trace_dir, on_success)
            if _WINDOW_SHARD_LOG:
                # Only the in-process path (jobs == 1) reaches the log:
                # pool workers shard nothing, and their module state
                # would not be visible here anyway.
                events = list(_WINDOW_SHARD_LOG)
                del _WINDOW_SHARD_LOG[:]
                self.window_shard_events.extend(events)
                self.stats.window_shards += sum(
                    event["chunks"] for event in events
                )
            self.stats.sim_seconds += time.perf_counter() - started
            self.record_execution(executor)
            for outcome in outcomes:
                self.outcomes[outcome.request] = outcome
            if executor.failed or executor.aborted:
                raise SweepFailure(outcomes, total=len(todo))

        return {request: self._memo[request] for request in unique}

    def executor(self, worker, fingerprint_of) -> ResilientExecutor:
        """An executor on this runner's resilience policy and pool."""
        return ResilientExecutor(
            self.resilience,
            self.jobs,
            worker,
            fingerprint_of,
            pool=self._pool,
        )

    def record_execution(self, executor: ResilientExecutor) -> None:
        """Fold a finished executor's counters into ``stats``."""
        self.stats.retries += executor.retries
        self.stats.timeouts += executor.timeouts
        self.stats.pool_breaks += executor.pool_breaks
        self.stats.pool_starts += executor.pool_starts
        self.stats.degraded += executor.degraded
        self.stats.failed_points += executor.failed

    # ----- derived artifacts ------------------------------------------------

    def artifact(self, name: str, payload: dict, compute):
        """Cache a JSON-safe derived value keyed by payload + code version.

        For analysis products that are expensive to derive but are pure
        functions of the simulation source and a parameter payload (the
        Table 3 instruction breakdown, for instance).  ``compute`` runs
        only on a cache miss; hits are counted in ``stats.artifact_hits``.
        Every value — fresh or cached — passes through the same JSON
        round-trip, so cached and recomputed reports are bit-identical.
        """
        blob = json.dumps(
            {
                "artifact": name,
                "payload": payload,
                "code_version": self.version or code_version(),
                "result_format": RESULT_FORMAT,
            },
            sort_keys=True,
        )
        key = hashlib.sha256(blob.encode()).hexdigest()[:40]
        memo_key = (name, key)
        if memo_key in self._artifacts:
            self.stats.artifact_hits += 1
            return self._artifacts[memo_key]
        path = (
            os.path.join(self.cache_dir, f"artifact-{key}.json")
            if self.cache_dir
            else None
        )
        if path is not None and os.path.exists(path):
            payload, status = read_checked_json(path)
            if status == "corrupt":
                self._quarantine(path, "artifact-cache")
            elif status == "ok" and "value" in payload:
                self.stats.artifact_hits += 1
                self._artifacts[memo_key] = payload["value"]
                return payload["value"]
            # "legacy" (pre-checksum format): recompute and re-persist.
        value = json.loads(json.dumps(compute()))
        self._artifacts[memo_key] = value
        if path is not None:
            try:
                write_checked_json(path, {"key": key, "value": value})
            except OSError as exc:
                self.stats.cache_write_errors += 1
                warnings.warn(
                    CacheIntegrityWarning(
                        f"could not persist artifact-cache entry {path}: {exc}"
                    ),
                    stacklevel=2,
                )
        return value

    # ----- trace access -----------------------------------------------------

    def workload(self, isa: str, scale: float, seed: int = 0) -> list[Trace]:
        """Workload traces through the runner's trace cache."""
        return workload_traces(isa, scale, seed, self.trace_dir)
