"""The SMT processor model: fetch, rename, issue, execute, graduate.

Trace-driven and cycle-level.  Each cycle runs the stages back to front
(completion, commit, issue, dispatch, fetch) so results computed in a
cycle are visible one cycle later:

* **completion** — instructions finishing this cycle wake dependents;
  resolved mispredicted branches unblock their thread's fetch.
* **commit** — up to 8 instructions retire per cycle, in-order per
  thread; finished programs hand their context to the next program of
  the multiprogrammed list (section 5.1 methodology).
* **issue** — per-queue out-of-order issue: 4 int, 4 mem, 4 FP, and
  2 MMX or 1 MOM per cycle; memory operations query the memory system,
  MOM arithmetic occupies the 2-lane vector unit.
* **dispatch** — round-robin over threads, renaming onto the shared
  physical pools (Table 1 sizing) and inserting into queues + the shared
  graduation window.
* **fetch** — up to 2 threads x 4 instructions through the I-cache,
  thread order set by the fetch policy; branch mispredictions block the
  thread until resolution (trace-driven squash model).

The stage bodies are written for speed: opcode metadata is read from
flat tuples indexed by the integer opcode, queue/window bookkeeping is
inlined (with the sanitizer and observer hooks behind one per-cycle
test), fetch groups come from a per-trace memoized plan, and per-cycle
structures are preallocated.  Semantics are bit-identical to the
straightforward formulation — the experiment runner's cache
fingerprints rely on that; docs/MODEL.md ("Performance &
reproducibility") lists the model invariants the fast path relies on.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import asdict

from repro.core.branch import GsharePredictor
from repro.core.execute import VectorUnit
from repro.core.fetch import FetchPolicy, order_threads
from repro.core.metrics import RunResult
from repro.core.params import SMTConfig
from repro.core.queues import IssueQueue
from repro.core.rob import GraduationWindow
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_INFO, Opcode, Queue
from repro.isa.registers import NO_REG, RegisterClass
from repro.memory.interface import AccessType, MemoryStats, MemorySystem
from repro.tracegen.program import Trace
from repro.workloads.multiprog import MultiprogramScheduler

_STATE_WAITING = 0
#: Waiting, and a mispredicted branch: its completion unblocks fetch.
_STATE_MISPREDICTED = 1
_STATE_DONE = 2

_CLASS_SHIFT = 8          # matches repro.isa.registers._CLASS_SHIFT

# The rename map is a flat list indexed by the packed register id
# ``(class << _CLASS_SHIFT) | index``.  NO_REG is -1, which Python
# aliases onto the last slot — (ACC, index 255) — but no architected
# register can occupy it (every logical count is far below 256), and
# writes are guarded by ``dst != NO_REG``, so that slot is never written.
_RENAME_SLOTS = len(RegisterClass) << _CLASS_SHIFT

# MMX packed loads/stores are single 64-bit references with no stream
# semantics; they travel the scalar ports (and L1) even in the decoupled
# organization.  Only MOM stream memory uses the vector ports.
_MEM_KIND = {
    Opcode.LOAD: AccessType.SCALAR_LOAD,
    Opcode.STORE: AccessType.SCALAR_STORE,
    Opcode.MMX_LOAD: AccessType.SCALAR_LOAD,
    Opcode.MMX_STORE: AccessType.SCALAR_STORE,
    Opcode.MOM_LOAD: AccessType.VECTOR_LOAD,
    Opcode.MOM_STORE: AccessType.VECTOR_STORE,
}

# Flat per-opcode tables: tuple indexing on the IntEnum opcode is much
# cheaper than OPCODE_INFO dict lookups plus attribute chains in the
# per-instruction hot loops below.
_INFO = tuple(OPCODE_INFO[op] for op in Opcode)
_QUEUE_OF = tuple(info.queue for info in _INFO)
_LATENCY = tuple(info.latency for info in _INFO)
_IS_MEM = tuple(info.is_mem for info in _INFO)
_IS_STREAM = tuple(info.is_stream for info in _INFO)
_IS_BRANCH = tuple(info.is_branch for info in _INFO)
_IS_SIMD = tuple(info.is_simd for info in _INFO)
_MEM_KIND_OF = tuple(_MEM_KIND.get(op) for op in Opcode)
#: Issue-to-result latency of opcodes that complete after a fixed delay;
#: 0 for memory and stream opcodes, whose completion the memory system
#: or the vector unit decides.  Every fixed latency is at least 1, so a
#: fixed-latency result never lands in the issuing cycle.
_FIXED_LATENCY = tuple(
    0 if info.is_mem or info.is_stream else info.latency for info in _INFO
)

# ---------------------------------------------------------------- fetch plan
#
# A fetch group's extent is static: it starts at the fetched instruction
# and takes up to ``fetch_group_size`` instructions, stopping at an
# I-cache line boundary, at the end of the trace and after the first
# taken branch.  Only the predictor's verdicts are dynamic: a
# mispredicted branch ends the group early.  Each trace therefore
# memoizes, per group size, one code per instruction — the length of the
# group starting there in the low ``group_size.bit_length()`` bits and
# the mask of its branch offsets above them.  A code is planned on the
# first fetch of its group start (0 means "not planned yet"; a group
# always holds at least one instruction), so a trace fetched once pays
# one planning walk per group, the walk the fetch stage would otherwise
# repeat on every visit.


def _trace_memo(trace: Trace) -> dict:
    """The trace's memo of derived plans; it lives and dies with the trace.

    Holds the fetch plans (key ``("fetch", group_size)``) and the
    fast-forward plan (key ``"fast-forward"``).  Traces are immutable
    once built, so a plan stays valid for the trace's life.
    """
    memo = trace._memo
    if memo is None:
        memo = trace._memo = {}
    return memo


def _fetch_plan(trace: Trace, group_size: int):
    """The trace's (lazily filled) fetch plan for ``group_size``.

    An unsigned ``array`` of the narrowest width that holds a code —
    two bytes per instruction up to 12-instruction groups.
    """
    memo = _trace_memo(trace)
    key = ("fetch", group_size)
    plan = memo.get(key)
    if plan is None:
        bits = group_size.bit_length() + group_size
        length = len(trace.instructions)
        for typecode in "HIQ":
            itemsize = array(typecode).itemsize
            if itemsize * 8 >= bits:
                plan = array(typecode, bytes(itemsize * length))
                break
        else:
            plan = [0] * length
        memo[key] = plan
    return plan


def _plan_group(plan, instructions: list, idx: int, group_size: int) -> int:
    """Plan the fetch group starting at ``idx``; store and return its code."""
    line = instructions[idx].pc >> 5
    stop = min(idx + group_size, len(instructions))
    length = 0
    mask = 0
    for position in range(idx, stop):
        inst = instructions[position]
        if inst.pc >> 5 != line:
            # Fetch groups cannot cross an I-cache line boundary.
            break
        length += 1
        if _IS_BRANCH[inst.op]:
            mask |= 1 << (position - idx)
            if inst.taken:
                break
    code = length | mask << group_size.bit_length()
    plan[idx] = code
    return code


class _BranchOffsets(dict):
    """Branch-offset mask -> ascending tuple of its set bit positions."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        offsets = tuple(
            bit for bit in range(mask.bit_length()) if mask >> bit & 1
        )
        self[mask] = offsets
        return offsets


_BRANCH_OFFSETS = _BranchOffsets()

# --------------------------------------------------------------- fast-forward
#
# The sampled mode's fast-forward only has to *warm* long-lived state
# (gshare tables, cache tags), so the only instructions that matter are
# branches, memory references and I-cache line changes — typically well
# under half the trace.  Each trace gets a memoized "plan": the sparse,
# ordered list of those eventful instructions plus a prefix sum of
# expanded weights, so whole runs of pure-ALU instructions retire as one
# subtraction instead of a per-instruction interpreter loop.

_FF_FETCH = 0    # (idx, tag, pc,       0,      0,      None)
_FF_BRANCH = 1   # (idx, tag, pc,       taken,  0,      None)
_FF_MEM = 2      # (idx, tag, mem_addr, 0,      0,      kind)
_FF_STREAM = 3   # (idx, tag, mem_addr, stride, length, kind)


def _ff_plan(trace: Trace) -> tuple:
    """The trace's memoized fast-forward plan.

    ``(event_indices, events, weight_prefix)``: the eventful
    instructions' indices, their event tuples, and the prefix sum of
    expanded weights over the whole trace.
    """
    memo = _trace_memo(trace)
    plan = memo.get("fast-forward")
    if plan is not None:
        return plan
    events: list[tuple] = []
    append = events.append
    prefix = [0] * (len(trace.instructions) + 1)
    total = 0
    last_line = -1
    last_mem_key = None
    for idx, inst in enumerate(trace.instructions):
        pc = inst.pc
        line = pc >> 5
        if line != last_line:
            append((idx, _FF_FETCH, pc, 0, 0, None))
            last_line = line
        op = inst.op
        if _IS_BRANCH[op]:
            append((idx, _FF_BRANCH, pc, inst.taken, 0, None))
        weight = inst.stream_length
        if _IS_MEM[op]:
            kind = _MEM_KIND_OF[op]
            if weight > 1:
                append(
                    (idx, _FF_STREAM, inst.mem_addr, inst.stride, weight,
                     kind)
                )
                last_mem_key = None
            else:
                # Consecutive references to one line with one kind
                # coalesce: right after the first call the line is
                # already most-recently-used (or, for stores, already
                # touched), so the repeat cannot change replacement
                # state on either hierarchy.
                mem_key = (inst.mem_addr >> 5, kind)
                if mem_key != last_mem_key:
                    append((idx, _FF_MEM, inst.mem_addr, 0, 0, kind))
                    last_mem_key = mem_key
        total += weight
        prefix[idx + 1] = total
    plan = (tuple(e[0] for e in events), events, prefix)
    memo["fast-forward"] = plan
    return plan


# ------------------------------------------------------------- window chunks
#
# The sampled schedule is *chunked*: the run's expected committed span is
# cut into up to _MAX_WINDOW_CHUNKS equal slices, and each slice executes
# the ff/warmup/window/drain loop independently after reconstructing its
# architectural start state (functional skim + a warmed final stretch).
# Chunks are pure functions of (config, workload, chunk index), so they
# can run serially in one process or fan out over a process pool; either
# way the merged result is bit-identical because it is the *same* chunk
# tasks combined by the same deterministic merge.

#: Upper bound on window chunks per sampled run (diminishing returns —
#: reconstruction overhead is paid once per chunk).
_MAX_WINDOW_CHUNKS = 16

#: Minimum sampling periods a chunk must contain: slicing finer than
#: this would spend more time reconstructing start state than measuring.
_PERIODS_PER_CHUNK = 3

#: Fewer chunks than this and the run keeps the plain single-chunk
#: schedule: chunking exists to expose parallelism, and a 2-3-way split
#: adds a reconstruction per chunk for very little of it.
_MIN_WINDOW_CHUNKS = 4

#: Warm horizon of a chunk's start-state reconstruction, in sampling
#: periods.  The stretch immediately before the chunk's first window is
#: replayed through the warming fast-forward (gshare + cache tags); the
#: prefix before that is skimmed functionally without warming.  Four
#: periods re-touches far more state than one window can observe while
#: keeping reconstruction cost independent of the chunk's position.
_WARM_SPAN_PERIODS = 4


def _sampled_geometry(
    sampling: tuple, traces: list, completions_target: int
) -> tuple[int, int, int, int]:
    """Effective ``(ff_len, window_len, warmup_len, expected_committed)``.

    Applies the same fast-forward clamp as the sampled run loop: at
    least four sampling periods must fit in the workload's expected
    committed span, so degenerate parameter/workload pairs still
    measure something.
    """
    ff_len, window_len, warmup_len = sampling
    expected = sum(
        traces[i % len(traces)].expanded_length
        for i in range(completions_target)
    )
    ff_cap = expected // 4 - warmup_len - window_len
    if ff_len > ff_cap:
        ff_len = max(0, ff_cap)
    return ff_len, window_len, warmup_len, expected


def sampled_chunk_count(
    sampling: tuple, traces: list, completions_target: int
) -> int:
    """Window chunks a sampled run splits into (1 = the plain schedule).

    A pure function of the configuration and workload — deliberately
    independent of ``window_jobs`` — so the schedule (and therefore the
    result) never depends on how many workers execute it.
    """
    ff_len, window_len, warmup_len, expected = _sampled_geometry(
        sampling, traces, completions_target
    )
    span = ff_len + window_len + warmup_len
    if span <= 0:
        return 1
    periods = expected // span
    n_chunks = min(_MAX_WINDOW_CHUNKS, periods // _PERIODS_PER_CHUNK)
    return n_chunks if n_chunks >= _MIN_WINDOW_CHUNKS else 1


def merge_sampled_chunks(
    config: SMTConfig,
    fetch_policy: FetchPolicy,
    chunks: list[dict],
    observability: dict | None = None,
) -> RunResult:
    """Combine :meth:`SMTProcessor.run_sampled_chunk` payloads.

    Samples concatenate and counters sum in ascending chunk order, so
    the merge is deterministic regardless of completion order (float
    addition is order-sensitive; fixing the order makes serial and
    pooled execution bit-identical).  ``program_completions`` comes from
    the last chunk: its scheduler ran the workload tail to completion,
    so its count covers the whole run.
    """
    chunks = sorted(chunks, key=lambda chunk: chunk["index"])
    samples: list[list] = []
    cycles = 0
    committed = 0
    equivalent = 0.0
    lookups = 0
    mispredicts = 0
    vector_only_cycles = 0
    active_cycles = 0
    issue_counts: dict[str, int] = {}
    per_program: dict[str, int] = {}
    memory = MemoryStats()
    caches = {"icache": memory.icache, "l1": memory.l1, "l2": memory.l2}
    for chunk in chunks:
        samples.extend(chunk["samples"])
        cycles += chunk["cycles"]
        committed += chunk["committed"]
        equivalent += chunk["equivalent"]
        lookups += chunk["predictor_lookups"]
        mispredicts += chunk["predictor_mispredicts"]
        vector_only_cycles += chunk["vector_only_cycles"]
        active_cycles += chunk["active_cycles"]
        for name, count in chunk["issue_counts"].items():
            issue_counts[name] = issue_counts.get(name, 0) + count
        for name, count in chunk["per_program_committed"].items():
            per_program[name] = per_program.get(name, 0) + count
        stats = chunk["memory"]
        for name, target in caches.items():
            source = stats[name]
            target.accesses += source["accesses"]
            target.hits += source["hits"]
            target.latency_sum += source["latency_sum"]
        memory.dram_accesses += stats["dram_accesses"]
        memory.bank_conflict_cycles += stats["bank_conflict_cycles"]
        memory.write_buffer_stalls += stats["write_buffer_stalls"]
        memory.coherence_invalidations += stats["coherence_invalidations"]
    return RunResult(
        isa=config.isa,
        n_threads=config.n_threads,
        fetch_policy=fetch_policy.value,
        cycles=cycles,
        committed_instructions=committed,
        committed_equivalent=equivalent,
        program_completions=chunks[-1]["completions"],
        memory=memory,
        mispredict_rate=mispredicts / lookups if lookups else 0.0,
        issue_counts=issue_counts,
        vector_only_cycles=vector_only_cycles,
        active_cycles=active_cycles,
        per_program_committed=per_program,
        sampling=list(config.sampling),
        samples=samples,
        observability=observability,
    )


class InFlight:
    """Dynamic state of one dispatched instruction.

    ``state`` is :data:`_STATE_WAITING` until the result arrives, then
    :data:`_STATE_DONE`; a mispredicted branch waits in
    :data:`_STATE_MISPREDICTED` instead, so its completion knows to
    unblock the thread's fetch without a separate per-entry flag.
    """

    __slots__ = (
        "inst",
        "thread",
        "state",
        "deps",
        "dependents",
        "queue",
    )

    def __init__(self, inst: Instruction, thread: int, mispredicted: bool):
        self.inst = inst
        self.thread = thread
        self.state = _STATE_MISPREDICTED if mispredicted else _STATE_WAITING
        self.deps = 0
        #: Lazily allocated: most instructions complete with no waiters,
        #: so the list is only created when a dependent first registers.
        self.dependents: list[InFlight] | None = None
        #: The IssueQueue this entry dispatched into (set at dispatch);
        #: lets the completion stage wake dependents without re-deriving
        #: the queue from the opcode.
        self.queue: IssueQueue | None = None


#: The rename map's entry for a register with no in-flight producer: an
#: always-complete pseudo-instruction, so dispatch tests one state
#: instead of testing for ``None`` first.  Commit leaves a retired
#: producer mapped — it is complete too, so it creates no dependency —
#: until a younger writer replaces it or the context is reassigned.
_NO_PRODUCER = InFlight(None, -1, False)
_NO_PRODUCER.state = _STATE_DONE


class ThreadContext:
    """Per-hardware-context front-end and rename state.

    The decode buffer holds bare :class:`Instruction` records.  A
    mispredicted branch blocks its thread's fetch until it completes, so
    it is always the last entry of its decode buffer; the
    ``mispredict_pending`` flag marks that last entry instead of a
    per-entry field.  ``inflight_insts``, ``inflight_ops`` and
    ``fetched_vector_last`` are maintained only under the fetch policies
    that read them (not round-robin).
    """

    __slots__ = (
        "index",
        "trace",
        "trace_len",
        "fetch_idx",
        "fetch_plan",
        "decode",
        "mispredict_pending",
        "rename",
        "fetch_blocked",
        "fetch_stall_until",
        "fetched_vector_last",
        "inflight_insts",
        "inflight_ops",
        "equiv_per_inst",
        "trace_expanded",
    )

    def __init__(self, index: int):
        self.index = index
        self.trace: Trace | None = None
        self.trace_len = 0
        self.fetch_idx = 0
        #: The trace's fetch plan for this machine's group size, looked
        #: up by the fetch stage on the first fetch after ``assign``.
        self.fetch_plan = None
        self.decode: deque = deque()
        self.mispredict_pending = False
        self.rename: list[InFlight] = [_NO_PRODUCER] * _RENAME_SLOTS
        self.fetch_blocked = False
        self.fetch_stall_until = 0
        self.fetched_vector_last = False
        self.inflight_insts = 0
        self.inflight_ops = 0
        self.equiv_per_inst = 1.0
        self.trace_expanded = 1

    def assign(self, trace: Trace) -> None:
        self.trace = trace
        self.trace_len = len(trace.instructions)
        self.fetch_idx = 0
        self.fetch_plan = None
        self.decode.clear()
        self.mispredict_pending = False
        self.rename = [_NO_PRODUCER] * _RENAME_SLOTS
        self.fetch_blocked = False
        self.fetched_vector_last = False
        self.trace_expanded = trace.expanded_length
        self.equiv_per_inst = trace.mmx_equivalent / self.trace_expanded

    @property
    def fetch_done(self) -> bool:
        return self.trace is None or self.fetch_idx >= self.trace_len


class SMTProcessor:
    """Runs a multiprogrammed workload on the configured SMT machine."""

    def __new__(cls, config=None, *args, **kwargs):
        # Backend dispatch (SMTConfig.backend): constructing the base
        # class may return the flat-buffer engine instead.  Sanitize and
        # observe runs always stay on the object engine — the hooks only
        # exist here (docs/MODEL.md "Compiled backend").  Subclasses
        # (including FlatSMTProcessor itself) construct literally.
        if (
            cls is SMTProcessor
            and config is not None
            and config.backend != "object"
            and not config.sanitize
            and (config.observe is None or config.observe is False)
        ):
            from repro.core.engine_flat import resolve_flat_engine

            engine = resolve_flat_engine(config.backend)
            if engine is not None:
                return object.__new__(engine)
        return object.__new__(cls)

    def __init__(
        self,
        config: SMTConfig,
        memory: MemorySystem,
        traces: list[Trace],
        fetch_policy: FetchPolicy = FetchPolicy.RR,
        completions_target: int = 8,
        max_cycles: int = 50_000_000,
        warmup_fraction: float = 0.3,
        scheduler: MultiprogramScheduler | None = None,
    ):
        for trace in traces:
            if trace.isa != config.isa:
                raise ValueError(
                    f"trace {trace.name} is {trace.isa}, machine is {config.isa}"
                )
        self.config = config
        self.memory = memory
        self.fetch_policy = fetch_policy
        # The in-flight counters feed only the non-RR fetch policies.
        self._track_inflight = fetch_policy is not FetchPolicy.RR
        self.max_cycles = max_cycles
        self.scheduler = scheduler or MultiprogramScheduler(
            traces, config.n_threads, completions_target=completions_target
        )
        self.predictor = GsharePredictor()
        self.vector_unit = VectorUnit(config.vector_lanes)
        sizes = config.resources.queue_sizes
        self.queues = {
            Queue.INT: IssueQueue("int", sizes["int"]),
            Queue.FP: IssueQueue("fp", sizes["fp"]),
            Queue.MEM: IssueQueue("mem", sizes["mem"]),
            Queue.SIMD: IssueQueue("simd", sizes["simd"]),
        }
        self._issue_width = {
            Queue.INT: config.issue_int,
            Queue.FP: config.issue_fp,
            Queue.MEM: config.issue_mem,
            Queue.SIMD: config.issue_simd,
        }
        # Flat issue plan in queue declaration order, and a queue table
        # indexed by the Queue enum value for dispatch/wakeup.
        self._issue_plan = tuple(
            (queue, self._issue_width[queue_id], queue_id is Queue.SIMD)
            for queue_id, queue in self.queues.items()
        )
        self._queue_table = tuple(
            self.queues[Queue(i)] for i in range(len(Queue))
        )
        # Opcode -> IssueQueue object directly, folding the _QUEUE_OF hop
        # into construction so dispatch does a single tuple index.
        self._queue_of_op = tuple(self._queue_table[q] for q in _QUEUE_OF)
        self.window = GraduationWindow(
            config.resources.graduation_window, config.n_threads
        )
        self.sanitizer = None
        if config.sanitize:
            # Imported lazily so the core has no dependency on the
            # verify layer unless invariant checking is requested.
            from repro.verify.sanitizer import RuntimeSanitizer

            self.sanitizer = RuntimeSanitizer()
            self.window.sanitizer = self.sanitizer
            for queue in self.queues.values():
                queue.sanitizer = self.sanitizer
            memory.attach_sanitizer(self.sanitizer)
        self.observer = None
        if config.observe is not None and config.observe is not False:
            # Imported lazily, like the sanitizer: the core only depends
            # on the observability layer when observation is requested.
            from repro.obs.events import resolve_observer

            observer = resolve_observer(config.observe)
            if observer is not None:
                # Sized once here; step() bumps the tallies by index.
                observer.attach(config.n_threads)
                self.observer = observer
                self.window.observer = observer
                memory.attach_observer(observer)
        self._pool_free = self._initial_pools()
        self.threads = [ThreadContext(i) for i in range(config.n_threads)]
        for slot, assignment in zip(
            self.threads,
            self.scheduler.next_assignments(config.n_threads),
        ):
            slot.assign(assignment.trace)
        #: Completion cycle -> entries whose results arrive then.
        self._wake: defaultdict[int, list[InFlight]] = defaultdict(list)
        self._rotation = 0
        # Preallocated round-robin thread orders, one per rotation phase.
        n = config.n_threads
        self._orders = tuple(
            tuple((i + r) % n for i in range(n)) for r in range(n)
        )
        self._decode_room = config.decode_buffer - config.fetch_group_size
        # Fetch-plan code layout (see _fetch_plan): group length in the
        # low bits, branch-offset mask above them.
        self._plan_shift = config.fetch_group_size.bit_length()
        self._plan_length = (1 << self._plan_shift) - 1
        # Warmup: caches/predictor train on the first fraction of the
        # committed work; statistics cover only the measurement window
        # (standard trace-driven methodology — the scaled traces would
        # otherwise be dominated by cold misses the paper's
        # billion-instruction runs amortize away).
        expected_total = sum(t.expanded_length for t in traces)
        self._warmup_commits = int(warmup_fraction * expected_total)
        self._warm = self._warmup_commits == 0
        if config.sampling is not None:
            # Sampled mode: the per-window warmup replaces the global
            # warmup fraction (a 30 % detailed warmup would defeat the
            # fast-forward), and measurement is delta-based per window,
            # so the boundary reset machinery must stay inert.
            self._warmup_commits = 0
            self._warm = True
        self._base_cycles = 0
        self._base_committed = 0
        self._base_equiv = 0.0
        # Statistics.
        self.now = 0
        self.committed = 0
        self.committed_by_thread = [0] * config.n_threads
        self.committed_equiv = 0.0
        self.per_program_committed: dict[str, int] = {}
        self.vector_only_cycles = 0
        self.active_cycles = 0

    def _initial_pools(self) -> list[int]:
        """Free physical registers per class, indexed by class value."""
        free = [0] * len(RegisterClass)
        for cls, count in self.config.resources.rename_regs.items():
            free[cls] = count
        return free

    @property
    def pools(self) -> dict[RegisterClass, int]:
        """Free physical registers of each renamed register class."""
        return {
            cls: self._pool_free[cls]
            for cls in self.config.resources.rename_regs
        }

    # ------------------------------------------------------------------ stages

    def _fetch_order(self) -> tuple[int, ...] | list[int]:
        """Thread priority order for this cycle under the fetch policy."""
        n = self.config.n_threads
        base = self._orders[self._rotation % n]
        policy = self.fetch_policy
        if policy is FetchPolicy.RR:
            return base
        threads = self.threads
        if policy is FetchPolicy.ICOUNT:
            return sorted(base, key=lambda t: threads[t].inflight_insts)
        if policy is FetchPolicy.OCOUNT:
            return sorted(base, key=lambda t: threads[t].inflight_ops)
        if policy is FetchPolicy.BALANCE:
            if self.queues[Queue.SIMD].occupancy == 0:
                return sorted(
                    base, key=lambda t: not threads[t].fetched_vector_last
                )
            return sorted(base, key=lambda t: threads[t].fetched_vector_last)
        # Fall back to the reference implementation for any new policy.
        return order_threads(
            policy,
            n,
            self._rotation,
            [t.inflight_insts for t in threads],
            [t.inflight_ops for t in threads],
            [t.fetched_vector_last for t in threads],
            self.queues[Queue.SIMD].occupancy == 0,
        )

    # ------------------------------------------------------------------ driver

    def _skip_target(self) -> int:
        """Earliest future cycle at which anything can happen."""
        candidates = []
        if self._wake:
            candidates.append(min(self._wake))
        for ctx in self.threads:
            if ctx.trace is None or ctx.fetch_idx >= ctx.trace_len:
                continue
            if not ctx.fetch_blocked and ctx.fetch_stall_until > self.now:
                candidates.append(ctx.fetch_stall_until)
        if not candidates:
            return self.now + 1
        # ``step`` has already advanced ``now`` past the last processed
        # cycle, so the earliest candidate may be the *current* cycle —
        # never skip beyond it or its wake entries would be orphaned.
        return max(min(candidates), self.now)

    # codelint: hot-loop — the HOT-* rules hold this body to the
    # compiled-backend subset: hoisted locals, no per-iteration
    # allocation, no closures (docs/VERIFY.md).
    def step(self) -> bool:
        """Advance one cycle; returns whether any pipeline work happened.

        Exposed so multi-core drivers (the CMP extension) can advance
        several cores in lockstep against shared memory resources.

        The five pipeline stages — complete, commit, issue, dispatch,
        fetch — run fused in this one body.  The simulator executes this
        method tens of thousands of times per run, so the stages share a
        single set of hoisted locals (thread table, rotation order,
        graduation-window occupancy) instead of each paying its own call
        and prologue cost.  A ``stage`` marker comment opens each stage
        (``scripts/profile_step.py`` attributes bytecodes by them).

        The body relies on invariants of the trace-driven model
        (docs/MODEL.md, "Performance & reproducibility"): nothing is
        ever squashed in the processor, a pending mispredicted branch is
        the last entry of its decode buffer, the in-flight counters are
        maintained only for the fetch policies that read them, and
        fetch groups come from the trace's memoized fetch plan.
        """
        now = self.now
        config = self.config
        threads = self.threads
        window = self.window
        fifos = window._fifos
        win_sanitizer = window.sanitizer
        observer = self.observer
        if observer is not None:
            # The observer counts through per-thread tallies bumped
            # inline (repro.obs.events.TALLIES order); its per-instruction
            # hooks only keep lifetime records, so they run only when it
            # records events.
            (
                fetched_tally, dispatched_tally, issued_tally,
                completed_tally, committed_tally,
                blocked_tally, icache_tally, decode_full_tally,
                no_slot_tally, queue_full_tally, window_full_tally,
                pool_empty_tally,
            ) = observer.tallies
            obs_events = observer.events
        # One test per hook site instead of one per hook: the sanitizer
        # (window and queues, attached together) and the observer.
        hooked = win_sanitizer is not None or observer is not None
        track = self._track_inflight
        # Per-instruction bookkeeping of issue and fetch: the in-flight
        # counters and the observer's tallies.
        per_inst_hooks = track or observer is not None
        pools = self._pool_free
        scheduler = self.scheduler
        predictor = self.predictor
        per_program_committed = self.per_program_committed
        order = self._orders[self._rotation % config.n_threads]
        win_occ = window.occupancy

        # stage: complete — results arriving this cycle wake their dependents.
        entries = self._wake.pop(now, None)
        completed = 0
        if entries:
            redirect = config.mispredict_redirect
            for entry in entries:
                # A waiting entry's only nonzero state is
                # _STATE_MISPREDICTED: the branch resolves, fetch resumes.
                if entry.state:
                    ctx = threads[entry.thread]
                    ctx.fetch_blocked = False
                    stall = now + redirect
                    if stall > ctx.fetch_stall_until:
                        ctx.fetch_stall_until = stall
                entry.state = _STATE_DONE
                dependents = entry.dependents
                if dependents is not None:
                    for dependent in dependents:
                        dependent.deps -= 1
                        if dependent.deps == 0:
                            dependent.queue.ready.append(dependent)
                    entry.dependents = None
            if observer is not None:
                for entry in entries:
                    completed_tally[entry.thread] += 1
                    if obs_events:
                        observer.on_complete(entry, now)
            completed = len(entries)

        # stage: commit — in-order retirement from the per-thread FIFOs.
        commit_width = config.commit_width
        budget = commit_width
        committed = self.committed
        committed_equiv = self.committed_equiv
        by_thread = self.committed_by_thread
        for thread in order:
            if budget <= 0:
                break
            fifo = fifos[thread]
            if fifo:
                head = fifo[0]
                if head.state != _STATE_DONE:
                    continue
                ctx = threads[thread]
                equiv = ctx.equiv_per_inst
                retired = 0
                while True:
                    fifo.popleft()
                    budget -= 1
                    if hooked:
                        if win_sanitizer is not None:
                            window.occupancy = (
                                win_occ - (commit_width - budget)
                            )
                            win_sanitizer.on_window_retire(window, thread, head)
                        if observer is not None:
                            committed_tally[thread] += 1
                            if obs_events:
                                observer.on_commit(thread, head, now)
                    inst = head.inst
                    dst = inst.dst
                    if dst != NO_REG:
                        pools[dst >> _CLASS_SHIFT] += 1
                    weight = inst.stream_length
                    retired += weight
                    # Per instruction: float accumulation order is part
                    # of the bit-identity contract.
                    committed_equiv += weight * equiv
                    if budget <= 0 or not fifo:
                        break
                    head = fifo[0]
                    if head.state != _STATE_DONE:
                        break
                committed += retired
                by_thread[thread] += retired
                if fifo:
                    continue
            else:
                ctx = threads[thread]
            # Program completion: everything fetched, dispatched, retired.
            if (
                ctx.trace is not None
                and ctx.fetch_idx >= ctx.trace_len
                and not ctx.decode
            ):
                name = ctx.trace.name
                per_program_committed[name] = (
                    per_program_committed.get(name, 0)
                    + ctx.trace_expanded
                )
                replacement = scheduler.on_completion()
                if replacement is None:
                    ctx.trace = None
                else:
                    ctx.assign(replacement.trace)
                    predictor.reset_thread(thread)
                if observer is not None:
                    observer.on_thread_assign(thread)
        committed_any = commit_width - budget
        win_occ -= committed_any
        self.committed = committed
        self.committed_equiv = committed_equiv

        # Warmup boundary: restart measurement with warm structures.
        if not self._warm and committed >= self._warmup_commits:
            self._warm = True
            self._base_cycles = now
            self._base_committed = committed
            self._base_equiv = committed_equiv
            self.memory.reset_stats()
            self.predictor.lookups = 0
            self.predictor.mispredicts = 0
            self.vector_only_cycles = 0
            self.active_cycles = 0
        if scheduler.done:
            window.occupancy = win_occ
            return bool(completed or committed_any)

        # stage: issue — drain ready queues into the execution resources.
        issued = 0
        issued_vector = False
        issued_scalar = False
        wake = self._wake
        floor = now + 1
        memory = self.memory
        vector_execute = self.vector_unit.execute
        fixed_latency = _FIXED_LATENCY
        is_mem = _IS_MEM
        latency_of = _LATENCY
        mem_kind_of = _MEM_KIND_OF
        for queue, width, is_simd in self._issue_plan:
            ready = queue.ready
            if not ready:
                continue
            taken = 0
            while taken < width and ready:
                entry = ready.popleft()
                taken += 1
                inst = entry.inst
                op = inst.op
                done = fixed_latency[op]
                if done:
                    done += now
                else:
                    if is_mem[op]:
                        if inst.stream_length > 1:
                            done = memory.access_stream(
                                entry.thread,
                                inst.mem_addr,
                                inst.stride,
                                inst.stream_length,
                                mem_kind_of[op],
                                now,
                            )
                        else:
                            done = memory.access(
                                entry.thread, inst.mem_addr, mem_kind_of[op],
                                now,
                            )
                    else:
                        done = vector_execute(
                            now,
                            inst.stream_length,
                            latency_of[op],
                            reduction=(op is Opcode.MOM_REDUCE),
                        )
                    if done < floor:
                        done = floor
                if per_inst_hooks:
                    if track:
                        ctx = threads[entry.thread]
                        ctx.inflight_insts -= 1
                        ctx.inflight_ops -= inst.stream_length
                    if observer is not None:
                        issued_tally[entry.thread] += 1
                        if obs_events:
                            observer.on_issue(entry, now, done)
                wake[done].append(entry)
            if taken:
                queue.occupancy -= taken
                queue.issued_total += taken
                issued += taken
                if is_simd:
                    issued_vector = True
                else:
                    issued_scalar = True

        # stage: dispatch — rename and insert decoded instructions.
        dispatch_width = config.dispatch_width
        budget = dispatch_width
        queue_of_op = self._queue_of_op
        win_cap = window.capacity
        inflight_new = InFlight.__new__
        # Round-robin, one instruction per thread per pass.  Every stall
        # condition (empty decode, full queue, full window, empty register
        # pool) is monotone within a cycle, so a thread that fails to
        # dispatch is dropped from the scan instead of being re-checked.
        live = order
        while budget > 0 and live:
            next_live = []
            for thread in live:
                ctx = threads[thread]
                decode = ctx.decode
                if not decode:
                    continue
                inst = decode[0]
                queue = queue_of_op[inst.op]
                if queue.occupancy >= queue.capacity or win_occ >= win_cap:
                    if observer is not None:
                        if queue.occupancy >= queue.capacity:
                            queue_full_tally[thread] += 1
                        else:
                            window_full_tally[thread] += 1
                    continue
                dst = inst.dst
                if dst != NO_REG:
                    # The pool test is the last stall condition, so the
                    # register is claimed as soon as it passes.
                    cls = dst >> _CLASS_SHIFT
                    free = pools[cls]
                    if free <= 0:
                        if observer is not None:
                            pool_empty_tally[thread] += 1
                        continue
                    pools[cls] = free - 1
                decode.popleft()
                # InFlight construction, spelled out (the constructor is
                # the single hottest allocation site in the simulator).
                entry = inflight_new(InFlight)
                entry.inst = inst
                entry.thread = thread
                entry.dependents = None
                entry.queue = queue
                if decode or not ctx.mispredict_pending:
                    entry.state = _STATE_WAITING
                else:
                    entry.state = _STATE_MISPREDICTED
                    ctx.mispredict_pending = False
                rename = ctx.rename
                deps = 0
                for src in inst.srcs:
                    producer = rename[src]
                    if producer.state != _STATE_DONE:
                        deps += 1
                        waiters = producer.dependents
                        if waiters is None:
                            producer.dependents = [entry]
                        else:
                            waiters.append(entry)
                entry.deps = deps
                if dst != NO_REG:
                    rename[dst] = entry
                fifos[thread].append(entry)
                win_occ += 1
                queue.occupancy += 1
                if deps == 0:
                    queue.ready.append(entry)
                if hooked:
                    if win_sanitizer is not None:
                        window.occupancy = win_occ
                        win_sanitizer.on_window_insert(window, thread, entry)
                    if queue.sanitizer is not None:
                        queue.sanitizer.check_queue(queue)
                    if observer is not None:
                        dispatched_tally[thread] += 1
                        if obs_events:
                            observer.on_dispatch(thread, entry, now)
                budget -= 1
                if not budget:
                    break
                next_live.append(thread)
            live = next_live
        dispatched = dispatch_width - budget
        window.occupancy = win_occ

        # stage: fetch — pull instruction groups into the decode buffers.
        groups = 0
        fetched = 0
        fetch_groups = config.fetch_groups
        group_size = config.fetch_group_size
        plan_shift = self._plan_shift
        plan_length = self._plan_length
        branch_offsets = _BRANCH_OFFSETS
        decode_room = self._decode_room
        memory_fetch = memory.fetch
        predict = self.predictor.predict_and_update
        is_simd_of = _IS_SIMD
        # Round-robin needs no per-thread sort; skip the policy dispatch.
        if track:
            order = self._fetch_order()
        for thread in order:
            if groups == fetch_groups:
                if observer is None:
                    break
                # Stall attribution: remaining threads with fetchable
                # work lost this cycle's fetch-group arbitration.
                ctx = threads[thread]
                if (
                    ctx.trace is not None
                    and ctx.fetch_idx < ctx.trace_len
                    and not ctx.fetch_blocked
                    and ctx.fetch_stall_until <= now
                    and len(ctx.decode) <= decode_room
                ):
                    no_slot_tally[thread] += 1
                continue
            ctx = threads[thread]
            idx = ctx.fetch_idx
            trace = ctx.trace
            if trace is None or idx >= ctx.trace_len:
                continue
            if ctx.fetch_blocked:
                # Wrong-path fetch: the front end does not know the branch
                # mispredicted, so the thread keeps consuming fetch slots
                # on instructions that will be squashed.
                if observer is not None:
                    blocked_tally[thread] += 1
                groups += 1
                continue
            decode = ctx.decode
            if ctx.fetch_stall_until > now:
                if observer is not None:
                    icache_tally[thread] += 1
                continue
            if len(decode) > decode_room:
                if observer is not None:
                    decode_full_tally[thread] += 1
                continue
            groups += 1
            instructions = trace.instructions
            ready = memory_fetch(thread, instructions[idx].pc, now)
            if ready > now + 2:
                # A genuine I-cache miss: stall the thread until the fill
                # arrives.  One-cycle bank-conflict delays are absorbed in
                # place — re-attempting them would itself occupy the bank
                # and can livelock two threads against each other.
                ctx.fetch_stall_until = ready
                if observer is not None:
                    icache_tally[thread] += 1
                continue
            plan = ctx.fetch_plan
            if plan is None:
                plan = ctx.fetch_plan = _fetch_plan(trace, group_size)
            code = plan[idx]
            if not code:
                code = _plan_group(plan, instructions, idx, group_size)
            end = idx + (code & plan_length)
            mispredicted = False
            mask = code >> plan_shift
            if mask:
                # Predict the group's branches in order; a mispredicted
                # one ends the group and blocks the thread's fetch.
                for offset in branch_offsets[mask]:
                    inst = instructions[idx + offset]
                    if not predict(thread, inst.pc, inst.taken):
                        end = idx + offset + 1
                        mispredicted = True
                        ctx.fetch_blocked = True
                        ctx.mispredict_pending = True
                        break
            decode.extend(instructions[idx:end])
            fetched += end - idx
            ctx.fetch_idx = end
            if per_inst_hooks:
                if observer is not None:
                    fetched_tally[thread] += end - idx
                    if obs_events:
                        last = end - 1
                        for position in range(idx, end):
                            observer.on_fetch(
                                thread, instructions[position], now,
                                mispredicted and position == last,
                            )
                if track:
                    took_vector = False
                    ops = 0
                    for position in range(idx, end):
                        inst = instructions[position]
                        ops += inst.stream_length
                        if is_simd_of[inst.op]:
                            took_vector = True
                    ctx.inflight_insts += end - idx
                    ctx.inflight_ops += ops
                    ctx.fetched_vector_last = took_vector

        if issued:
            self.active_cycles += 1
            if issued_vector and not issued_scalar:
                self.vector_only_cycles += 1
        self._rotation += 1
        self.now = now + 1
        return bool(
            completed or committed_any or issued or dispatched or fetched
        )

    def run(self) -> RunResult:
        """Simulate until the completion target is reached."""
        if self.config.sampling is not None:
            return self._run_sampled()
        step = self.step
        scheduler = self.scheduler
        max_cycles = self.max_cycles
        while not scheduler.done and self.now < max_cycles:
            if not step() and not scheduler.done:
                target = self._skip_target()
                if target > self.now:
                    self.now = target
        self._check_livelock()
        self._finalize_sanitizer()
        return self._make_result(
            cycles=self.now - self._base_cycles,
            committed_instructions=self.committed - self._base_committed,
            committed_equivalent=self.committed_equiv - self._base_equiv,
        )

    def _check_livelock(self) -> None:
        if self.now >= self.max_cycles:
            raise RuntimeError(
                f"simulation exceeded {self.max_cycles} cycles — livelock?"
            )

    def _finalize_sanitizer(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.finalize(
                self.now, self.window, self.queues.values(), self.memory
            )

    def _make_result(
        self,
        cycles: int,
        committed_instructions: int,
        committed_equivalent: float,
        sampling: list | None = None,
        samples: list | None = None,
    ) -> RunResult:
        return RunResult(
            isa=self.config.isa,
            n_threads=self.config.n_threads,
            fetch_policy=self.fetch_policy.value,
            cycles=cycles,
            committed_instructions=committed_instructions,
            committed_equivalent=committed_equivalent,
            program_completions=self.scheduler.completions,
            memory=self.memory.stats,
            mispredict_rate=self.predictor.mispredict_rate,
            issue_counts={
                queue.name: queue.issued_total
                for queue in self.queues.values()
            },
            vector_only_cycles=self.vector_only_cycles,
            active_cycles=self.active_cycles,
            per_program_committed=dict(self.per_program_committed),
            sampling=sampling,
            samples=samples,
            observability=(
                self.observer.snapshot()
                if self.observer is not None
                else None
            ),
        )

    # ------------------------------------------------------------- sampling

    def _run_detailed_for(self, commits: int) -> None:
        """Advance the detailed model until ``commits`` more retire."""
        target = self.committed + commits
        step = self.step
        scheduler = self.scheduler
        max_cycles = self.max_cycles
        while (
            self.committed < target
            and not scheduler.done
            and self.now < max_cycles
        ):
            if not step() and not scheduler.done:
                skip = self._skip_target()
                if skip > self.now:
                    self.now = skip

    def _drain_pipeline(self) -> None:
        """Retire all in-flight work without fetching anything new.

        Runs the detailed model with fetch frozen (every thread's stall
        horizon pushed past ``max_cycles``) until the graduation window,
        the wake lists and the decode buffers are empty, so the
        fast-forward can take over at a clean instruction boundary — no
        dispatched instruction is ever skipped or double-counted.
        """
        threads = self.threads
        sentinel = self.max_cycles + 1
        saved = [ctx.fetch_stall_until for ctx in threads]
        for ctx in threads:
            ctx.fetch_stall_until = sentinel
        scheduler = self.scheduler
        max_cycles = self.max_cycles
        while (
            (
                self.window.occupancy
                or self._wake
                or any(ctx.decode for ctx in threads)
            )
            and not scheduler.done
            and self.now < max_cycles
        ):
            if not self.step() and not scheduler.done:
                # The frozen stall horizons must not drive the idle skip,
                # so only the wake lists are consulted here.
                if self._wake:
                    skip = min(self._wake)
                    if skip > self.now:
                        self.now = skip
        for ctx, stall in zip(threads, saved):
            ctx.fetch_stall_until = stall

    def _fast_forward(self, budget: int) -> None:
        """Functionally retire ``budget`` (expanded) instructions.

        No rename/issue/window bookkeeping and no cycle accounting —
        instructions retire straight off the traces, in round-robin
        chunks across threads so cache interleaving resembles the
        detailed execution.  Long-lived predictor and cache state stays
        live: branches train the shared gshare tables and memory
        references run the hierarchies' warming-only tag path.  Pure-ALU
        instructions carry no long-lived state, so each trace's memoized
        plan (:func:`_ff_plan`) lets a chunk retire as one prefix-sum
        subtraction plus a walk of only its eventful instructions.  Must
        be called with the pipeline drained (:meth:`_drain_pipeline`).
        """
        threads = self.threads
        scheduler = self.scheduler
        predictor = self.predictor
        predict = predictor.predict_and_update
        memory = self.memory
        warm = memory.warm
        warm_stream = memory.warm_stream
        warm_fetch = memory.warm_fetch
        by_thread = self.committed_by_thread
        n_threads = len(threads)
        plans: list[tuple | None] = [None] * n_threads
        positions = [0] * n_threads
        for ctx in threads:
            if ctx.trace is not None:
                plan = _ff_plan(ctx.trace)
                plans[ctx.index] = plan
                # Detailed windows advance fetch_idx without touching the
                # plan cursor, so re-seat it on every fast-forward entry.
                positions[ctx.index] = bisect_left(plan[0], ctx.fetch_idx)
        chunk = 128
        remaining = budget
        while remaining > 0 and not scheduler.done:
            progressed = False
            for ctx in threads:
                if remaining <= 0 or scheduler.done:
                    break
                trace = ctx.trace
                if trace is None:
                    continue
                thread = ctx.index
                idx = ctx.fetch_idx
                trace_len = ctx.trace_len
                if idx < trace_len:
                    ev_idx, events, prefix = plans[thread]
                    end = idx + chunk
                    if end > trace_len:
                        end = trace_len
                    pos = positions[thread]
                    n_events = len(ev_idx)
                    while pos < n_events and ev_idx[pos] < end:
                        event = events[pos]
                        pos += 1
                        tag = event[1]
                        if tag == _FF_FETCH:
                            warm_fetch(thread, event[2])
                        elif tag == _FF_BRANCH:
                            predict(thread, event[2], event[3])
                        elif tag == _FF_MEM:
                            warm(thread, event[2], event[5])
                        else:
                            warm_stream(
                                thread, event[2], event[3], event[4],
                                event[5],
                            )
                    positions[thread] = pos
                    committed = prefix[end] - prefix[idx]
                    idx = end
                    ctx.fetch_idx = end
                    remaining -= committed
                    self.committed += committed
                    by_thread[thread] += committed
                    self.committed_equiv += committed * ctx.equiv_per_inst
                    progressed = True
                if idx >= trace_len:
                    # Program fully consumed (pipeline is drained, so
                    # nothing of it is in flight): rotate the workload
                    # exactly as the commit stage does.
                    name = trace.name
                    self.per_program_committed[name] = (
                        self.per_program_committed.get(name, 0)
                        + ctx.trace_expanded
                    )
                    replacement = scheduler.on_completion()
                    if replacement is None:
                        ctx.trace = None
                        plans[thread] = None
                    else:
                        ctx.assign(replacement.trace)
                        predictor.reset_thread(thread)
                        plans[thread] = _ff_plan(replacement.trace)
                        positions[thread] = 0
                    progressed = True
            if not progressed:
                break

    def _reset_run_state(self) -> None:
        """Rewind the processor to its pristine post-construction state.

        Every window chunk starts from this state before reconstructing
        its own position, so a chunk's result is identical whether the
        processor is freshly built (pool worker) or reused across chunks
        (serial in-process schedule).  Long-lived structures that carry
        sanitizer/observer references (graduation window, issue queues,
        memory hierarchy) are reset in place; the rest are rebuilt.
        """
        config = self.config
        old = self.scheduler
        self.scheduler = MultiprogramScheduler(
            old.traces, config.n_threads,
            completions_target=old.completions_target,
        )
        self.predictor = GsharePredictor()
        self.vector_unit = VectorUnit(config.vector_lanes)
        for queue in self.queues.values():
            queue.occupancy = 0
            queue.ready.clear()
            queue.issued_total = 0
        self.window.occupancy = 0
        for fifo in self.window._fifos:
            fifo.clear()
        self._pool_free = self._initial_pools()
        self.threads = [ThreadContext(i) for i in range(config.n_threads)]
        for slot, assignment in zip(
            self.threads,
            self.scheduler.next_assignments(config.n_threads),
        ):
            slot.assign(assignment.trace)
        self._wake = defaultdict(list)
        self._rotation = 0
        self.now = 0
        self.committed = 0
        self.committed_by_thread = [0] * config.n_threads
        self.committed_equiv = 0.0
        self.per_program_committed = {}
        self.vector_only_cycles = 0
        self.active_cycles = 0
        self._base_cycles = 0
        self._base_committed = 0
        self._base_equiv = 0.0
        # Sampled-mode invariant (chunks only exist in sampled mode):
        # the global warmup-fraction machinery stays inert.
        self._warmup_commits = 0
        self._warm = True
        self.memory.reset()

    def _quiet_skip(self, target_committed: int) -> None:
        """Skim the traces to ``target_committed`` without warming.

        The architectural fast-forward minus its event walk: fetch
        indices, commit counters and the program rotation advance via
        the memoized prefix sums, but no predictor training and no cache
        warming happen.  Used for the cold prefix of a chunk's
        start-state reconstruction — state that far back is evicted or
        overwritten before the chunk's first window could observe it.
        """
        threads = self.threads
        scheduler = self.scheduler
        by_thread = self.committed_by_thread
        chunk = 128
        while self.committed < target_committed and not scheduler.done:
            progressed = False
            for ctx in threads:
                if self.committed >= target_committed or scheduler.done:
                    break
                trace = ctx.trace
                if trace is None:
                    continue
                thread = ctx.index
                idx = ctx.fetch_idx
                trace_len = ctx.trace_len
                if idx < trace_len:
                    prefix = _ff_plan(trace)[2]
                    end = idx + chunk
                    if end > trace_len:
                        end = trace_len
                    committed = prefix[end] - prefix[idx]
                    idx = end
                    ctx.fetch_idx = end
                    self.committed += committed
                    by_thread[thread] += committed
                    self.committed_equiv += committed * ctx.equiv_per_inst
                    progressed = True
                if idx >= trace_len:
                    name = trace.name
                    self.per_program_committed[name] = (
                        self.per_program_committed.get(name, 0)
                        + ctx.trace_expanded
                    )
                    replacement = scheduler.on_completion()
                    if replacement is None:
                        ctx.trace = None
                    else:
                        ctx.assign(replacement.trace)
                        self.predictor.reset_thread(thread)
                    progressed = True
            if not progressed:
                break

    def run_sampled_chunk(self, index: int, n_chunks: int) -> dict:
        """Execute one window chunk of the sampled schedule.

        Resets to pristine state, reconstructs the chunk's start
        position (quiet skim of the cold prefix, warming fast-forward
        over the final :data:`_WARM_SPAN_PERIODS` sampling periods),
        then runs the standard ff/warmup/window/drain loop until the
        chunk's committed-instruction boundary.  The returned payload is
        a plain JSON-safe dict so it survives a process-pool round trip;
        :func:`merge_sampled_chunks` combines the payloads into the
        final :class:`RunResult`.

        A chunk may overshoot its boundary by a partial period — the
        next chunk reconstructs to its own exact boundary regardless, so
        the schedule stays deterministic for every ``n_chunks``.
        """
        config = self.config
        self._reset_run_state()
        scheduler = self.scheduler
        ff_len, window_len, warmup_len, expected = _sampled_geometry(
            config.sampling, scheduler.traces, scheduler.completions_target
        )
        span = ff_len + window_len + warmup_len
        chunk_expanded = expected // n_chunks
        start = index * chunk_expanded
        end = None if index == n_chunks - 1 else (index + 1) * chunk_expanded
        if start:
            warm_span = min(start, _WARM_SPAN_PERIODS * span)
            self._quiet_skip(start - warm_span)
            budget = start - self.committed
            if budget > 0:
                self._fast_forward(budget)
        base_programs = dict(self.per_program_committed)
        samples: list[list] = []
        cycles = 0
        committed = 0
        equivalent = 0.0
        while (
            not scheduler.done
            and self.now < self.max_cycles
            and (end is None or self.committed < end)
        ):
            if ff_len:
                self._fast_forward(ff_len)
                if scheduler.done:
                    break
            if warmup_len:
                self._run_detailed_for(warmup_len)
                if scheduler.done:
                    break
            base_now = self.now
            base_committed = self.committed
            base_equiv = self.committed_equiv
            self._run_detailed_for(window_len)
            window_cycles = self.now - base_now
            window_committed = self.committed - base_committed
            if window_cycles and window_committed:
                window_equiv = self.committed_equiv - base_equiv
                samples.append(
                    [window_cycles, window_committed, window_equiv]
                )
                cycles += window_cycles
                committed += window_committed
                equivalent += window_equiv
            if scheduler.done:
                break
            self._drain_pipeline()
        self._check_livelock()
        self._finalize_sanitizer()
        per_program: dict[str, int] = {}
        for name, count in self.per_program_committed.items():
            delta = count - base_programs.get(name, 0)
            if delta:
                per_program[name] = delta
        predictor = self.predictor
        return {
            "index": index,
            "n_chunks": n_chunks,
            "samples": samples,
            "cycles": cycles,
            "committed": committed,
            "equivalent": equivalent,
            "completions": scheduler.completions,
            "per_program_committed": per_program,
            "memory": asdict(self.memory.stats),
            "predictor_lookups": predictor.lookups,
            "predictor_mispredicts": predictor.mispredicts,
            "issue_counts": {
                queue.name: queue.issued_total
                for queue in self.queues.values()
            },
            "vector_only_cycles": self.vector_only_cycles,
            "active_cycles": self.active_cycles,
        }

    def _run_sampled(self) -> RunResult:
        """SMARTS-style sampled run: fast-forward, warm up, measure.

        Each period functionally fast-forwards ``ff_len`` instructions
        (predictor/cache state warmed, no timing), runs ``warmup_len``
        instructions of unmeasured detailed execution to refill the
        pipeline and short-lived structures, then measures EIPC over a
        ``window_len``-instruction detailed window.  The reported
        ``cycles``/``committed``/``equivalent`` are sums over the
        measurement windows (ratio-of-sums EIPC); the per-window deltas
        are returned as ``samples`` for the confidence interval.

        The schedule is *chunked* (see :func:`sampled_chunk_count`): the
        run executes as a deterministic sequence of independent window
        chunks, merged in chunk order.  Running the same chunks in a
        process pool (``RunRequest.window_jobs``) therefore produces a
        bit-identical result — the parallel path is this method with the
        loop body farmed out.
        """
        scheduler = self.scheduler
        n_chunks = sampled_chunk_count(
            self.config.sampling, scheduler.traces,
            scheduler.completions_target,
        )
        chunks = [
            self.run_sampled_chunk(index, n_chunks)
            for index in range(n_chunks)
        ]
        return merge_sampled_chunks(
            self.config,
            self.fetch_policy,
            chunks,
            observability=(
                self.observer.snapshot()
                if self.observer is not None
                else None
            ),
        )
