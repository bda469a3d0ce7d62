"""Flat-buffer hot-loop kernel for the table-driven pipeline engine.

This module holds the per-cycle kernel of
:class:`repro.core.engine_flat.FlatSMTProcessor` as a *module-level*
function so the optional compiled build (mypyc/Cython, see
``scripts/build_flat_backend.py``) can compile it without inheriting
from an interpreted class.  When the compiled sibling
``repro.core._flatstep_c`` is importable it shadows this module; the
pure-Python definition below is the always-available fallback.

The kernel is semantically the same five fused stages as
:meth:`repro.core.smt.SMTProcessor.step` — complete, commit, issue,
dispatch, fetch, back to front — but every per-instruction object the
object engine allocates (``InFlight``) or chases (``Instruction``
attributes) is replaced by integer ids into preallocated flat buffers:

* **slot tables** — one slot per graduation-window entry, recycled
  through a free list.  ``array('q')`` buffers hold state, dependency
  counts, destination register, weight, address and stride; small
  object lists hold the opcode enum, the issue-queue reference and the
  reused waiter lists.  The issue-queue ``ready`` deques and the
  graduation-window FIFOs carry slot ids instead of ``InFlight``
  objects.
* **trace tables** — per-trace tuples (:func:`trace_tables`) of opcode,
  pc, registers, weights and branch metadata, so the pipeline never
  touches an :class:`~repro.isa.instruction.Instruction` after fetch.
  The decode buffers carry ``(index << 1) | mispredicted`` packed ints.

Equivalence is bit-exact by construction: the kernel performs the same
memory/predictor/vector-unit calls in the same order with the same
arguments as the object engine, and the shared counters (queues, window
occupancy, thread contexts, commit statistics) are maintained
identically.  ``tests/test_engine_flat.py`` pins the contract against
the golden bitident hashes.  The object engine's ``squashed`` flag is
omitted: the trace-driven squash model blocks fetch at the mispredicted
branch, so no dispatched instruction is ever squashed and the object
engine's check is vacuous (asserted by the cross-backend pins).
"""

from __future__ import annotations

from repro.core.fetch import FetchPolicy
from repro.core.smt import (
    _CLASS_SHIFT,
    _IS_BRANCH,
    _IS_MEM,
    _IS_SIMD,
    _IS_STREAM,
    _LATENCY,
    _MEM_KIND_OF,
    _STATE_DONE,
    _STATE_WAITING,
)
from repro.isa.opcodes import Opcode
from repro.tracegen.program import Trace

#: table cache: id(trace) -> (trace, ops, pcs, dsts, srcs, addrs,
#: strides, weights, takens, branch_flags, simd_flags).  Entries hold
#: the trace itself, so a live table's id() can never be reused by a
#: different trace; FIFO-bounded so huge traces from many scales do
#: not accumulate.
_TRACE_TABLES: dict[int, tuple] = {}
_TRACE_TABLE_LIMIT = 64


def trace_tables(trace: Trace) -> tuple:
    """Memoized flat per-instruction tables for one trace."""
    key = id(trace)
    cached = _TRACE_TABLES.get(key)
    if cached is not None and cached[0] is trace:
        return cached
    instructions = trace.instructions
    ops = tuple(inst.op for inst in instructions)
    tables = (
        trace,
        ops,
        tuple(inst.pc for inst in instructions),
        tuple(inst.dst for inst in instructions),
        tuple(inst.srcs for inst in instructions),
        tuple(inst.mem_addr for inst in instructions),
        tuple(inst.stride for inst in instructions),
        tuple(inst.stream_length for inst in instructions),
        tuple(inst.taken for inst in instructions),
        tuple(_IS_BRANCH[op] for op in ops),
        tuple(_IS_SIMD[op] for op in ops),
    )
    if len(_TRACE_TABLES) >= _TRACE_TABLE_LIMIT:
        _TRACE_TABLES.pop(next(iter(_TRACE_TABLES)))
    _TRACE_TABLES[key] = tables
    return tables


# codelint: hot-loop — the HOT-* rules hold this body to the
# compiled-backend subset: hoisted locals, no per-iteration
# allocation, no closures (docs/VERIFY.md).
def flat_step(self) -> bool:
    """Advance one cycle of a FlatSMTProcessor; see module docstring.

    ``self`` is a :class:`~repro.core.engine_flat.FlatSMTProcessor`;
    keeping the kernel free-standing (instead of a method) is what lets
    the compiled build replace it wholesale.
    """
    now = self.now
    config = self.config
    threads = self.threads
    window = self.window
    fifos = window._fifos
    pools = self._pool_table
    scheduler = self.scheduler
    predictor = self.predictor
    per_program_committed = self.per_program_committed
    order = self._orders[self._rotation % config.n_threads]
    win_occ = window.occupancy
    s_state = self._slot_state
    s_deps = self._slot_deps
    s_misp = self._slot_mispredicted
    s_thread = self._slot_thread
    s_dst = self._slot_dst
    s_weight = self._slot_weight
    s_addr = self._slot_addr
    s_stride = self._slot_stride
    s_op = self._slot_op
    s_queue = self._slot_queue
    s_waiters = self._slot_waiters
    free_slots = self._free_slots

    # ---- complete: results arriving this cycle wake their dependents.
    entries = self._wake.pop(now, None)
    completed = 0
    if entries:
        redirect = config.mispredict_redirect
        for slot in entries:
            s_state[slot] = _STATE_DONE
            waiters = s_waiters[slot]
            if waiters:
                for dep in waiters:
                    remaining = s_deps[dep] - 1
                    s_deps[dep] = remaining
                    if remaining == 0:
                        s_queue[dep].ready.append(dep)
                del waiters[:]
            if s_misp[slot]:
                ctx = threads[s_thread[slot]]
                ctx.fetch_blocked = False
                stall = now + redirect
                if stall > ctx.fetch_stall_until:
                    ctx.fetch_stall_until = stall
        completed = len(entries)

    # ---- commit: in-order retirement from the per-thread FIFOs.
    budget = config.commit_width
    committed_any = 0
    committed = self.committed
    committed_equiv = self.committed_equiv
    by_thread = self.committed_by_thread
    for thread in order:
        if budget == 0:
            break
        ctx = threads[thread]
        fifo = fifos[thread]
        if fifo:
            rename = ctx.rename
            equiv = ctx.equiv_per_inst
            while budget > 0 and fifo:
                head = fifo[0]
                if s_state[head] != _STATE_DONE:
                    break
                fifo.popleft()
                win_occ -= 1
                dst = s_dst[head]
                if dst >= 0:
                    pools[dst >> _CLASS_SHIFT] += 1
                    if rename[dst] == head:
                        rename[dst] = -1
                weight = s_weight[head]
                committed += weight
                by_thread[thread] += weight
                committed_equiv += weight * equiv
                free_slots.append(head)
                budget -= 1
                committed_any += 1
        # Program completion: everything fetched, dispatched, retired.
        if (
            not fifo
            and ctx.trace is not None
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
    self.committed = committed
    self.committed_equiv = committed_equiv

    # ---- warmup boundary: restart measurement with warm structures.
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

    # ---- issue: drain ready queues into the execution resources.
    issued = 0
    issued_vector = False
    issued_scalar = False
    wake = self._wake
    floor = now + 1
    memory = self.memory
    vector_execute = self.vector_unit.execute
    is_mem = _IS_MEM
    is_stream = _IS_STREAM
    latency_of = _LATENCY
    mem_kind_of = _MEM_KIND_OF
    mom_reduce = Opcode.MOM_REDUCE
    for queue, width, is_simd in self._issue_plan:
        ready = queue.ready
        if not ready:
            continue
        taken = 0
        q_occ = queue.occupancy
        q_issued = queue.issued_total
        while taken < width and ready:
            entry = ready.popleft()
            q_occ -= 1
            q_issued += 1
            taken += 1
            thread = s_thread[entry]
            ctx = threads[thread]
            stream_length = s_weight[entry]
            ctx.inflight_insts -= 1
            ctx.inflight_ops -= stream_length
            op = s_op[entry]
            if is_mem[op]:
                if stream_length > 1:
                    done = memory.access_stream(
                        thread,
                        s_addr[entry],
                        s_stride[entry],
                        stream_length,
                        mem_kind_of[op],
                        now,
                    )
                else:
                    done = memory.access(
                        thread, s_addr[entry], mem_kind_of[op], now
                    )
            elif is_stream[op]:
                done = vector_execute(
                    now,
                    stream_length,
                    latency_of[op],
                    reduction=(op is mom_reduce),
                )
            else:
                done = now + latency_of[op]
            if done < floor:
                done = floor
            lst = wake.get(done)
            if lst is None:
                wake[done] = [entry]
            else:
                lst.append(entry)
        queue.occupancy = q_occ
        queue.issued_total = q_issued
        if taken:
            issued += taken
            if is_simd:
                issued_vector = True
            else:
                issued_scalar = True

    # ---- dispatch: rename and insert decoded instructions.
    budget = config.dispatch_width
    dispatched = 0
    queue_of_op = self._queue_of_op
    win_cap = window.capacity
    # Round-robin, one instruction per thread per pass; stall conditions
    # are monotone within a cycle, so a stalled thread drops out.
    live = [t for t in order if threads[t].decode]
    while budget > 0 and live:
        next_live = []
        for thread in live:
            if budget == 0:
                break
            ctx = threads[thread]
            decode = ctx.decode
            if not decode:
                continue
            packed = decode[0]
            idx = packed >> 1
            op = ctx.t_ops[idx]
            queue = queue_of_op[op]
            if queue.occupancy >= queue.capacity or win_occ >= win_cap:
                continue
            dst = ctx.t_dsts[idx]
            if dst >= 0 and pools[dst >> _CLASS_SHIFT] <= 0:
                continue
            decode.popleft()
            slot = free_slots.pop()
            s_state[slot] = _STATE_WAITING
            s_misp[slot] = packed & 1
            s_thread[slot] = thread
            s_op[slot] = op
            s_dst[slot] = dst
            s_weight[slot] = ctx.t_weights[idx]
            s_addr[slot] = ctx.t_addrs[idx]
            s_stride[slot] = ctx.t_strides[idx]
            s_queue[slot] = queue
            rename = ctx.rename
            deps = 0
            for src in ctx.t_srcs[idx]:
                producer = rename[src]
                if producer >= 0 and s_state[producer] != _STATE_DONE:
                    deps += 1
                    s_waiters[producer].append(slot)
            s_deps[slot] = deps
            if dst >= 0:
                pools[dst >> _CLASS_SHIFT] -= 1
                rename[dst] = slot
            fifos[thread].append(slot)
            win_occ += 1
            queue.occupancy += 1
            if deps == 0:
                queue.ready.append(slot)
            budget -= 1
            dispatched += 1
            next_live.append(thread)
        live = next_live
    window.occupancy = win_occ

    # ---- fetch: pull instruction groups into the decode buffers.
    groups = 0
    fetched = 0
    fetch_groups = config.fetch_groups
    group_size = config.fetch_group_size
    decode_room = self._decode_room
    memory_fetch = memory.fetch
    predict = predictor.predict_and_update
    if self.fetch_policy is not FetchPolicy.RR:
        order = self._fetch_order()
    for thread in order:
        if groups == fetch_groups:
            break
        ctx = threads[thread]
        idx = ctx.fetch_idx
        if ctx.trace is None or idx >= ctx.trace_len:
            continue
        if ctx.fetch_blocked:
            # Wrong-path fetch: the thread keeps consuming fetch slots
            # on instructions that will be squashed.
            groups += 1
            continue
        decode = ctx.decode
        if ctx.fetch_stall_until > now:
            continue
        if len(decode) > decode_room:
            continue
        groups += 1
        pcs = ctx.t_pcs
        ops = ctx.t_ops
        takens = ctx.t_takens
        weights = ctx.t_weights
        branch_flags = ctx.t_br
        simd_flags = ctx.t_simd
        trace_len = ctx.trace_len
        pc = pcs[idx]
        ready = memory_fetch(thread, pc, now)
        if ready > now + 2:
            # A genuine I-cache miss: stall the thread until the fill
            # arrives (one-cycle bank conflicts are absorbed in place).
            ctx.fetch_stall_until = ready
            continue
        took_vector = False
        group_line = pc >> 5
        inflight_insts = 0
        inflight_ops = 0
        for __ in range(group_size):
            if idx >= trace_len:
                break
            pc = pcs[idx]
            if pc >> 5 != group_line:
                # Fetch groups cannot cross an I-cache line boundary.
                break
            mispredicted = False
            taken_branch = False
            if branch_flags[idx]:
                taken_branch = takens[idx]
                mispredicted = not predict(thread, pc, taken_branch)
            decode.append((idx << 1) | mispredicted)
            inflight_insts += 1
            inflight_ops += weights[idx]
            fetched += 1
            if simd_flags[idx]:
                took_vector = True
            idx += 1
            if mispredicted:
                ctx.fetch_blocked = True
                break
            if taken_branch:
                break
        ctx.fetch_idx = idx
        ctx.inflight_insts += inflight_insts
        ctx.inflight_ops += inflight_ops
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
