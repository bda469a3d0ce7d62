"""Host-time ledger: spans recorded at the layer boundaries of ``repro``.

The traced benchmark run wraps the public entry points of each layer
from the benchmark's own code (nothing under ``src/`` changes) and
records one span per call: name, layer, start, end, parent span and the
simulation point's fingerprint as the request id.  Calls made millions
of times — memory accesses, serving lockstep cycles, admission
decisions — are folded into one aggregate child span per enclosing
span, carrying their call count and summed self time.

Pool workers are reached through :class:`PoolProbe`, a picklable
stand-in for the runner's worker entry point.  The pool forks, so
workers inherit every wrapper; each worker records its spans in
isolation and returns them inside the result payload, where the
``ResilientExecutor.execute`` wrapper takes them out before the runner
sees the payload.

A layer's self time is its spans' time minus the time of their child
spans (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field

#: The ledger that installed wrappers report to.  Module-level because
#: :class:`PoolProbe` is rebuilt from a pickle inside forked workers and
#: must find the ledger the worker inherited.
ACTIVE: Ledger | None = None

#: Original worker entry points, by probe key (see :class:`PoolProbe`).
_ORIGINALS: dict[str, object] = {}

_perf = time.perf_counter


@dataclass(slots=True)
class Span:
    id: str
    parent: str | None
    name: str
    layer: str
    start: float
    end: float
    request: str | None
    pid: int
    args: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class _Frame:
    id: str
    parent: str | None
    name: str
    layer: str
    start: float
    request: str | None
    #: name -> [layer, self seconds, calls] of folded high-frequency calls.
    aggregates: dict = field(default_factory=dict)


@dataclass
class PoolTimes:
    """Cross-process timings of pooled points, summed."""

    dispatch_wait: float = 0.0   # pickled by the parent -> worker starts
    ipc: float = 0.0             # worker returns -> parent handles result
    capacity: float = 0.0        # executor wall time x workers


class Ledger:
    """Spans and folded call counts, kept in memory until the run ends."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.pool = PoolTimes()
        #: Fingerprint of the simulation point being served, if any.
        self.request: str | None = None
        #: Span id pooled workers hang their spans under (the open
        #: ``pool.execute`` span); read by the pickling thread.
        self.pool_parent: str | None = None
        self._open: list[_Frame] = []
        self._fine: list[list[float]] = []
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self.pid}:{self._next}"

    def enter(self, name: str, layer: str, parent: str | None = None) -> _Frame:
        if parent is None and self._open:
            parent = self._open[-1].id
        frame = _Frame(
            self._new_id(), parent, name, layer, _perf(), self.request
        )
        self._open.append(frame)
        return frame

    def exit(self, frame: _Frame, args: dict | None = None,
             request: str | None = None) -> None:
        end = _perf()
        popped = self._open.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self.spans.append(Span(
            frame.id, frame.parent, frame.name, frame.layer, frame.start,
            end, request or frame.request, self.pid, args,
        ))
        for name, (layer, seconds, calls) in frame.aggregates.items():
            self.spans.append(Span(
                self._new_id(), frame.id, name, layer, frame.start,
                frame.start + seconds, frame.request, self.pid,
                {"calls": calls, "aggregate": True},
            ))

    def fold(self, name: str, layer: str, seconds: float) -> None:
        """Account one high-frequency leaf call to the enclosing span."""
        if self._fine:
            self._fine[-1][0] += seconds
        aggregates = self._open[-1].aggregates
        entry = aggregates.get(name)
        if entry is None:
            aggregates[name] = [layer, seconds, 1]
        else:
            entry[1] += seconds
            entry[2] += 1

    def run_isolated(self, name: str, layer: str, parent: str, call):
        """Run ``call()`` under a fresh root span; return (result, spans).

        Used inside forked pool workers, which inherit the parent's open
        spans: the worker's own spans must start a new tree.
        """
        if self.pid != os.getpid():
            self.pid, self._next = os.getpid(), 0
        saved = (self._open, self._fine, self.spans)
        self._open, self._fine, self.spans = [], [], []
        try:
            frame = self.enter(name, layer, parent=parent)
            result = call()
            self.exit(frame)
            return result, self.spans
        finally:
            self._open, self._fine, self.spans = saved


# ------------------------------------------------------------ wrappers


def _span(ledger: Ledger, name: str, layer: str, fn, describe=None):
    """Wrap ``fn`` so every call is one span.

    ``describe(args, result)`` may return ``(span_args, request_id)``.
    """
    def wrapper(*args, **kwargs):
        frame = ledger.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            ledger.exit(frame)
            raise
        if describe is None:
            ledger.exit(frame)
        else:
            span_args, request = describe(args, result)
            ledger.exit(frame, span_args, request)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _leaf(ledger: Ledger, name: str, layer: str, fn):
    """Wrap a high-frequency call that calls no other wrapped layer."""
    fold = ledger.fold

    def wrapper(*args, **kwargs):
        start = _perf()
        result = fn(*args, **kwargs)
        fold(name, layer, _perf() - start)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _nested(ledger: Ledger, name: str, layer: str, fn):
    """Wrap a high-frequency call whose leaf callees are folded too."""
    def wrapper(*args, **kwargs):
        fine = ledger._fine
        inner = [0.0]
        fine.append(inner)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _perf() - start
            fine.pop()
            ledger.fold(name, layer, elapsed - inner[0])
            if fine:
                fine[-1][0] += inner[0]

    wrapper.__wrapped__ = fn
    return wrapper


class PoolProbe:
    """Picklable stand-in for a worker entry point ``(args) -> payload``.

    Pickling records when the parent sent the task; the rebuilt probe
    in the worker times the point, records the worker's spans in
    isolation and adds them to the payload under ``"perfbench"``.  Run
    in process (``jobs=1``), the probe is one span in the caller's tree
    and only tags the payload with the point's fingerprint.
    """

    def __init__(self, key: str, sent: float | None = None,
                 parent: str | None = None):
        self.key = key
        self.sent = sent
        self.parent = parent

    def __reduce__(self):
        parent = ACTIVE.pool_parent if ACTIVE is not None else None
        return (PoolProbe, (self.key, _perf(), parent))

    def __call__(self, args):
        original = _ORIGINALS[self.key]
        ledger = ACTIVE
        fingerprint = args[3]
        if ledger is None:
            return original(args)
        if self.sent is None:
            saved = ledger.request
            ledger.request = fingerprint
            frame = ledger.enter("pool.worker", "pool")
            try:
                payload = original(args)
            finally:
                ledger.exit(frame)
                ledger.request = saved
            payload["perfbench"] = {"request": fingerprint}
            return payload
        ledger.request = fingerprint
        start = _perf()
        payload, spans = ledger.run_isolated(
            "pool.worker", "pool", self.parent, lambda: original(args)
        )
        payload["perfbench"] = {
            "request": fingerprint,
            "sent": self.sent,
            "start": start,
            "end": _perf(),
            "spans": spans,
        }
        return payload


def _executor_execute(ledger: Ledger, fn):
    """Wrap ``ResilientExecutor.execute``: the pool layer's entry point."""
    def execute(self, requests, trace_dir, on_success):
        def traced_success(request, payload):
            received = _perf()
            info = payload.pop("perfbench", None) or {}
            if "spans" in info:
                ledger.spans.extend(info["spans"])
                ledger.pool.dispatch_wait += info["start"] - info["sent"]
                ledger.pool.ipc += received - info["end"]
            saved = ledger.request
            ledger.request = info.get("request")
            try:
                on_success(request, payload)
            finally:
                ledger.request = saved

        workers = (
            min(self.jobs, len(requests))
            if self.jobs > 1 and len(requests) > 1 else 1
        )
        frame = ledger.enter("pool.execute", "pool")
        saved_parent, ledger.pool_parent = ledger.pool_parent, frame.id
        try:
            return fn(self, requests, trace_dir, traced_success)
        finally:
            ledger.pool_parent = saved_parent
            ledger.pool.capacity += (_perf() - frame.start) * workers
            ledger.exit(frame, {"workers": workers, "points": len(requests)})

    execute.__wrapped__ = fn
    return execute


# -------------------------------------------------------- installation


def _describe_fingerprint(args, result):
    return None, result


def _describe_store(args, result):
    return None, args[1]


def _describe_core_run(args, result):
    processor = args[0]
    return {
        "cycles": processor.now,
        "insts": processor.committed,
        "l1_hit_rate": result.memory.l1.hit_rate,
        "l2_hit_rate": result.memory.l2.hit_rate,
    }, None


def _describe_serving_run(args, result):
    simulator = args[0]
    return {
        "cycles": result["cycles"],
        "insts": sum(core.committed for core in simulator.machine.cores),
    }, None


def _describe_meter(args, result):
    summary = result["summary"]
    return {
        "latency_p99": summary["latency_p99"],
        "miss_rate": summary["miss_rate"],
        "streams_per_mcycle": summary["streams_per_mcycle"],
        "l1_hit_rate": result["memory"]["l1_hit_rate"],
        "l2_hit_rate": result["memory"]["l2_hit_rate"],
    }, None


class Instrumentation:
    """Installs the ledger's wrappers; :meth:`remove` restores the originals.

    Use as a context manager around the traced phase.  Functions are
    replaced in every ``repro`` module that imported them by name, so
    call sites that bound them with ``from ... import`` are covered.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Ledger:
        global ACTIVE
        if ACTIVE is not None:
            raise RuntimeError("a ledger is already installed")
        ACTIVE = self.ledger
        try:
            self._install()
        except BaseException:
            self.remove()
            raise
        return self.ledger

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        _ORIGINALS.clear()
        ACTIVE = None

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, make) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def _function(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, binding, wrapper)

    def _probe(self, module: str, attr: str) -> None:
        owner = importlib.import_module(module)
        key = f"{module}:{attr}"
        _ORIGINALS[key] = getattr(owner, attr)
        self._set(owner, attr, PoolProbe(key))

    def _install(self) -> None:
        from repro.analysis.resilience import ResilientExecutor
        from repro.analysis.runner import ResultStore, RunRequest, Runner
        from repro.analysis.serving import ServingRequest
        from repro.core.smt import SMTProcessor
        from repro.memory.decoupled import DecoupledHierarchy
        from repro.memory.hierarchy import ConventionalHierarchy
        from repro.memory.perfect import PerfectMemory
        from repro.serving.admission import AdmissionController
        from repro.serving.simulator import ServingSimulator
        from repro.tracegen.serialize import TraceCache

        ledger = self.ledger

        def span(name, layer, describe=None):
            return lambda fn: _span(ledger, name, layer, fn, describe)

        # tracegen: repro.tracegen + repro.workloads
        self._function(
            "repro.workloads.mediabench", "build_workload_traces",
            span("tracegen.build_workload_traces", "tracegen"),
        )
        self._function(
            "repro.workloads.mediabench", "build_stream_trace_variants",
            span("tracegen.build_stream_trace_variants", "tracegen"),
        )
        self._function(
            "repro.tracegen.program", "build_program_trace",
            span("tracegen.generate", "tracegen"),
        )
        self._function(
            "repro.workloads.streams", "rebase_trace",
            span("tracegen.rebase_trace", "tracegen"),
        )
        self._method(TraceCache, "get", span("tracegen.cache_get", "tracegen"))

        # runner: fingerprints, the result store, decoding, batches
        for cls in (RunRequest, ServingRequest):
            self._method(cls, "fingerprint", span(
                "runner.fingerprint", "runner", _describe_fingerprint
            ))
        self._method(ResultStore, "load", span(
            "runner.store_load", "runner", _describe_store
        ))
        self._method(ResultStore, "store", span(
            "runner.store_write", "runner", _describe_store
        ))
        self._function(
            "repro.analysis.runner", "result_from_dict",
            span("runner.decode", "runner"),
        )
        self._method(Runner, "run_batch", span("runner.run_batch", "runner"))
        self._method(Runner, "artifact", span("runner.artifact", "runner"))
        self._function(
            "repro.analysis.serving", "run_serving_batch",
            span("runner.run_batch", "runner"),
        )

        # pool: executor dispatch plus the worker entry points
        self._method(
            ResilientExecutor, "execute",
            lambda fn: _executor_execute(ledger, fn),
        )
        self._probe("repro.analysis.runner", "_pool_execute")
        self._probe("repro.analysis.serving", "serving_pool_execute")

        # core: whole runs, and serving's lockstep cycles (folded)
        self._method(SMTProcessor, "run", span(
            "core.run", "core", _describe_core_run
        ))

        def machine_builder(fn):
            def build(*args, **kwargs):
                machine, scheduler = fn(*args, **kwargs)
                machine.step_cycle = _nested(
                    ledger, "core.step", "core", machine.step_cycle
                )
                return machine, scheduler
            return span("core.build", "core")(build)

        self._function(
            "repro.serving.simulator", "build_serving_machine",
            machine_builder,
        )

        # memory: the hierarchy instances' access methods (folded)
        for cls in (ConventionalHierarchy, DecoupledHierarchy, PerfectMemory):
            for attr in ("access", "access_stream", "fetch"):
                self._method(
                    cls, attr, lambda fn: _leaf(ledger, "memory", "memory", fn)
                )

        # serving: the event loop, admission decisions, metering
        self._method(ServingSimulator, "run", span(
            "serving.simulate", "serving", _describe_serving_run
        ))
        for attr in ("offer", "release"):
            self._method(
                AdmissionController, attr,
                lambda fn: _leaf(ledger, "serving.admission", "serving", fn),
            )
        self._function(
            "repro.serving.metering", "meter_result",
            span("serving.meter", "serving", _describe_meter),
        )

        # report: table rendering (driver spans are opened by the suite)
        for attr in ("format_table", "paper_vs_measured"):
            self._function(
                "repro.analysis.reporting", attr, span("report.render", "report")
            )


# ------------------------------------------------------------ analysis


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span id: the span's time minus its children's time."""
    children: dict[str, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - children.get(span.id, 0.0) for span in spans}


def chrome_trace(spans: list[Span], main_pid: int, other: dict) -> dict:
    """The spans as a Chrome-trace ("JSON Object Format") document.

    One track per process; aggregate spans (folded calls) sit on a
    second track of their process because they are sums, not intervals.
    """
    epoch = min((span.start for span in spans), default=0.0)
    events = []
    pids = set()
    for span in spans:
        pids.add(span.pid)
        aggregate = bool(span.args and span.args.get("aggregate"))
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": round((span.start - epoch) * 1e6),
            "dur": max(0, round(span.seconds * 1e6)),
            "pid": span.pid,
            "tid": 1 if aggregate else 0,
            "args": {
                "span": span.id,
                "parent": span.parent,
                "request": span.request,
                **(span.args or {}),
            },
        })
    for pid in sorted(pids):
        label = "benchmark" if pid == main_pid else f"pool worker {pid}"
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "perfbench", **other},
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: list[Span], pool: PoolTimes, stats: dict, drivers
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from a traced phase.

    ``stats`` sums the ``RunnerStats`` of every runner the phase used.
    Simulated counts and rates come from the results the spans carry,
    so they are exact: a pure speed-up leaves them unchanged.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    layer_self: dict[str, float] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + own[span.id]

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(span.seconds for span in named(name))

    def arg_values(names, key) -> list:
        return [s.args[key] for name in names for s in named(name)]

    # tracegen: a cache get without a generate child is a hit.
    gets = named("tracegen.cache_get")
    get_ids = {span.id for span in gets}
    generated_in = {span.parent for span in named("tracegen.generate")}
    hits = [span for span in gets if span.id not in generated_in]
    cache_load = sum(span.seconds for span in hits)
    direct_builds = sum(
        1 for span in named("tracegen.generate") if span.parent not in get_ids
    )

    memory = named("memory")
    memory_busy = sum(span.seconds for span in memory)
    simulate = total("core.run") + total("serving.simulate")
    sim_cycles = sum(arg_values(("core.run", "serving.simulate"), "cycles"))
    sim_insts = sum(arg_values(("core.run", "serving.simulate"), "insts"))
    core_self = layer_self.get("core", 0.0)
    points = ("core.run", "serving.meter")

    metrics = {
        "tracegen.build_s": (layer_self.get("tracegen", 0.0) - cache_load, "s"),
        "tracegen.traces": (len(gets) + direct_builds, "count"),
        "tracegen.cache_load_s": (cache_load, "s"),
        "tracegen.cache_hit_ratio": (
            len(hits) / len(gets) if gets else 0.0, "ratio"
        ),
        "runner.fingerprint_s": (total("runner.fingerprint"), "s"),
        "runner.fingerprints": (len(named("runner.fingerprint")), "count"),
        "runner.store_load_s": (total("runner.store_load"), "s"),
        "runner.store_write_s": (total("runner.store_write"), "s"),
        "runner.decode_s": (total("runner.decode"), "s"),
        "runner.disk_hits": (stats["disk_hits"], "count"),
        "runner.memo_hits": (stats["memo_hits"], "count"),
        "runner.simulated": (stats["simulated"], "count"),
        "pool.dispatch_wait_s": (pool.dispatch_wait, "s"),
        "pool.ipc_s": (pool.ipc, "s"),
        "pool.worker_busy_frac": (
            total("pool.worker") / pool.capacity if pool.capacity else 0.0,
            "ratio",
        ),
        "pool.retries": (stats["retries"], "count"),
        "pool.failed": (stats["failed_points"], "count"),
        "core.self_s": (core_self, "s"),
        "core.host_us_per_inst": (
            core_self / sim_insts * 1e6 if sim_insts else 0.0, "us"
        ),
        "core.host_ns_per_cycle": (
            core_self / sim_cycles * 1e9 if sim_cycles else 0.0, "ns"
        ),
        "core.sim_cycles": (sim_cycles, "cycles"),
        "core.sim_insts": (sim_insts, "count"),
        "memory.calls": (sum(s.args["calls"] for s in memory), "count"),
        "memory.busy_s": (memory_busy, "s"),
        "memory.share": (memory_busy / simulate if simulate else 0.0, "ratio"),
        "memory.l1_hit_rate": (_mean(arg_values(points, "l1_hit_rate")), "ratio"),
        "memory.l2_hit_rate": (_mean(arg_values(points, "l2_hit_rate")), "ratio"),
        "serving.simulate_s": (
            sum(own[span.id] for span in named("serving.simulate")), "s"
        ),
        "serving.admission_s": (total("serving.admission"), "s"),
        "serving.meter_s": (total("serving.meter"), "s"),
        "serving.latency_p99_cycles": (
            _mean(arg_values(["serving.meter"], "latency_p99")), "cycles"
        ),
        "serving.miss_rate": (
            _mean(arg_values(["serving.meter"], "miss_rate")), "ratio"
        ),
        "serving.streams_per_mcycle": (
            _mean(arg_values(["serving.meter"], "streams_per_mcycle")),
            "1/Mcycle",
        ),
        "report.render_s": (total("report.render"), "s"),
    }
    for name in drivers:
        metrics[f"driver.{name}_s"] = (total(f"driver.{name}"), "s")
    return metrics
