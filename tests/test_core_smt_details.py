"""Targeted tests of SMT pipeline corner behaviours."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FetchPolicy, SMTConfig, SMTProcessor
from repro.core.branch import GsharePredictor
from repro.core.params import Resources, scaled_resources
from repro.core.smt import (
    _BRANCH_OFFSETS,
    _STATE_DONE,
    _STATE_MISPREDICTED,
    _STATE_WAITING,
    _fetch_plan,
    _plan_group,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegisterClass
from repro.memory import PerfectMemory
from repro.tracegen.builder import TraceBuilder
from repro.tracegen.mixes import WORKLOAD_MIXES
from repro.tracegen.program import Trace


def make_trace(emit, isa="mmx", name="tiny"):
    builder = TraceBuilder(isa, seed=7)
    emit(builder)
    return Trace(
        name=name,
        isa=isa,
        instructions=builder.instructions,
        mmx_equivalent=sum(i.stream_length for i in builder.instructions),
        mix=WORKLOAD_MIXES["gsmdec"],
    )


def run(trace, config=None, **kw):
    processor = SMTProcessor(
        config or SMTConfig(isa=trace.isa),
        PerfectMemory(),
        [trace],
        completions_target=1,
        warmup_fraction=0.0,
        **kw,
    )
    result = processor.run()
    return processor, result


class TestDependencyTiming:
    def test_independent_ops_reach_issue_width(self):
        # 400 integer ops with no sources: IPC should approach 4.
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(400):
                inst = builder.int_op(pc=base)
                inst.srcs = ()
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.ipc > 3.0

    def test_serial_chain_limited_to_one_per_cycle(self):
        def emit(builder):
            base = builder.alloc_code(1)
            prev = builder.int_op(pc=base)
            for __ in range(300):
                inst = builder.int_op(pc=base)
                inst.srcs = (prev.dst,)
                prev = inst
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.ipc < 1.4          # true dependence chain

    def test_long_latency_op_blocks_dependent(self):
        def emit(builder):
            base = builder.alloc_code(2)
            mul = builder.int_op(mul=True, pc=base)       # 8-cycle latency
            dep = builder.int_op(pc=base + 4)
            dep.srcs = (mul.dst,)
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.cycles >= 9


class TestResourceStalls:
    def test_tiny_window_throttles_ilp(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(400):
                inst = builder.int_op(pc=base)
                inst.srcs = ()
        trace = make_trace(emit)
        big = scaled_resources(1)
        tiny = Resources(
            rename_regs=dict(big.rename_regs),
            queue_sizes=dict(big.queue_sizes),
            graduation_window=4,
        )
        __, result_tiny = run(
            trace, config=SMTConfig(isa="mmx", resources=tiny)
        )
        __, result_big = run(trace)
        assert result_tiny.ipc < result_big.ipc

    def test_rename_pool_exhaustion_throttles(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(400):
                inst = builder.int_op(pc=base)
                inst.srcs = ()
        trace = make_trace(emit)
        big = scaled_resources(1)
        regs = dict(big.rename_regs)
        regs[RegisterClass.INT] = 3
        starved = Resources(
            rename_regs=regs,
            queue_sizes=dict(big.queue_sizes),
            graduation_window=big.graduation_window,
        )
        __, result = run(trace, config=SMTConfig(isa="mmx", resources=starved))
        # Three rename registers sustain ~1.5 IPC (alloc/free round trip).
        assert result.ipc < 2.0


class TestWarmupBoundary:
    def test_warmup_shrinks_measured_window(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(500):
                builder.int_op(pc=base)
        trace = make_trace(emit)
        processor = SMTProcessor(
            SMTConfig(isa="mmx"),
            PerfectMemory(),
            [trace],
            completions_target=1,
            warmup_fraction=0.5,
        )
        result = processor.run()
        # Roughly half the instructions fall inside the measured window.
        assert 150 < result.committed_instructions < 350

    def test_zero_warmup_measures_everything(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(100):
                builder.int_op(pc=base)
        trace = make_trace(emit)
        __, result = run(trace)
        assert result.committed_instructions == 100


class TestFetchPolicySelection:
    def test_policy_recorded_in_result(self):
        def emit(builder):
            base = builder.alloc_code(1)
            for __ in range(50):
                builder.int_op(pc=base)
        trace = make_trace(emit)
        processor = SMTProcessor(
            SMTConfig(isa="mmx"),
            PerfectMemory(),
            [trace],
            fetch_policy=FetchPolicy.BALANCE,
            completions_target=1,
            warmup_fraction=0.0,
        )
        assert processor.run().fetch_policy == "balance"


# ----- fetch plan and decode-buffer invariants --------------------------------

#: (pc step, kind): steps of 0 and 4 stay inside a 32-byte line most of
#: the time, 28/36 jump across line boundaries.
_INST_SPECS = st.lists(
    st.tuples(
        st.sampled_from([0, 4, 4, 4, 8, 28, 36]),
        st.sampled_from(["alu", "alu", "alu", "not_taken", "taken"]),
    ),
    min_size=1,
    max_size=60,
)


def spec_trace(specs, start=0x1000, unique_pcs=False) -> Trace:
    """A trace of ALU ops and branches laid out by ``specs``."""
    instructions = []
    pc = start
    for step, kind in specs:
        pc += max(step, 4) if unique_pcs else step
        if kind == "alu":
            instructions.append(Instruction(Opcode.INT_ALU, pc=pc))
        else:
            instructions.append(
                Instruction(Opcode.BRANCH, pc=pc, taken=kind == "taken")
            )
    return Trace(
        name="specs",
        isa="mmx",
        instructions=instructions,
        mmx_equivalent=len(instructions),
        mix=WORKLOAD_MIXES["gsmdec"],
    )


def reference_group(instructions, idx, group_size, mispredicts):
    """The per-instruction fetch walk the plan replaces.

    Returns ``(end, predicted, mispredicted)``: the index after the last
    fetched instruction, the positions whose branch was predicted (in
    order), and whether the group ended on a mispredicted branch.
    """
    line = instructions[idx].pc >> 5
    predicted = []
    for __ in range(group_size):
        if idx >= len(instructions):
            break
        inst = instructions[idx]
        if inst.pc >> 5 != line:
            break
        position = idx
        idx += 1
        if inst.op is Opcode.BRANCH:
            predicted.append(position)
            if position in mispredicts:
                return idx, predicted, True
            if inst.taken:
                break
    return idx, predicted, False


def planned_group(plan, instructions, idx, group_size, mispredicts):
    """The fetch stage's decoding of a plan code, same return shape."""
    shift = group_size.bit_length()
    code = plan[idx] or _plan_group(plan, instructions, idx, group_size)
    end = idx + (code & ((1 << shift) - 1))
    predicted = []
    for offset in _BRANCH_OFFSETS[code >> shift]:
        predicted.append(idx + offset)
        if idx + offset in mispredicts:
            return idx + offset + 1, predicted, True
    return end, predicted, False


class TestFetchPlan:
    @given(
        _INST_SPECS,
        st.integers(1, 8),
        st.integers(0, 7),
        st.sets(st.integers(0, 59)),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_matches_reference_walk(
        self, specs, group_size, misalign, mispredicts
    ):
        trace = spec_trace(specs, start=0x1000 + 4 * misalign)
        instructions = trace.instructions
        plan = _fetch_plan(trace, group_size)
        assert not any(plan), "a fresh plan holds no planned groups"
        # Every instruction is a possible group start (a taken branch or
        # a mispredict redirects fetch anywhere).
        for idx in range(len(instructions)):
            assert planned_group(
                plan, instructions, idx, group_size, mispredicts
            ) == reference_group(instructions, idx, group_size, mispredicts)
        # Memoized: a second pass reads the stored codes unchanged.
        codes = list(plan)
        assert all(codes)
        for idx in range(len(instructions)):
            assert planned_group(
                plan, instructions, idx, group_size, mispredicts
            ) == reference_group(instructions, idx, group_size, mispredicts)
        assert list(plan) == codes

    @given(_INST_SPECS, st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_plan_fills_only_visited_group_starts(self, specs, group_size):
        trace = spec_trace(specs)
        instructions = trace.instructions
        plan = _fetch_plan(trace, group_size)
        visited = []
        idx = 0
        while idx < len(instructions):
            visited.append(idx)
            idx, __, __ = planned_group(
                plan, instructions, idx, group_size, set()
            )
        assert [i for i, code in enumerate(plan) if code] == visited

    def test_plans_are_per_trace_and_group_size(self):
        trace = spec_trace([(4, "alu")] * 20)
        four = _fetch_plan(trace, 4)
        assert _fetch_plan(trace, 4) is four
        assert _fetch_plan(trace, 2) is not four
        assert four.typecode == "H" and four.itemsize == 2
        # A rebuilt trace (new instructions) never inherits plans.
        assert replace(trace, instructions=list(trace.instructions)) \
            ._memo is None

    def test_wide_groups_get_a_wider_code(self):
        # 20 instructions on one pc: a single line, so a 16-wide group
        # is limited by the group size alone.
        specs = [(0, "alu")] * 14 + [(0, "not_taken"), (0, "taken")] * 3
        trace = spec_trace(specs)
        plan = _fetch_plan(trace, 16)
        assert plan.itemsize * 8 >= 16 + (16).bit_length()
        for idx in range(len(specs)):
            assert planned_group(
                plan, trace.instructions, idx, 16, {17}
            ) == reference_group(trace.instructions, idx, 16, {17})


class _RecordingPredictor(GsharePredictor):
    """Gshare that remembers which (thread, pc) it mispredicted.

    A context's record is dropped when it is handed its next program
    (the core resets the thread's history then), so with strictly
    increasing pcs a key names one dynamic instruction.
    """

    def __init__(self):
        super().__init__()
        self.missed: set[tuple[int, int]] = set()

    def predict_and_update(self, thread, pc, taken):
        correct = super().predict_and_update(thread, pc, taken)
        if not correct:
            self.missed.add((thread, pc))
        return correct

    def reset_thread(self, thread):
        super().reset_thread(thread)
        self.missed = {key for key in self.missed if key[0] != thread}


class TestDecodeBufferInvariant:
    @given(
        st.lists(_INST_SPECS, min_size=1, max_size=2),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_pending_mispredict_is_last_in_its_decode_buffer(
        self, programs, group_size
    ):
        # Disjoint, strictly increasing pcs: (thread, pc) names one
        # dynamic instruction.
        traces = [
            spec_trace(specs, start=0x10000 * (n + 1), unique_pcs=True)
            for n, specs in enumerate(programs)
        ]

        def build():
            return SMTProcessor(
                SMTConfig(
                    isa="mmx", n_threads=len(traces),
                    fetch_group_size=group_size,
                ),
                PerfectMemory(),
                traces,
                completions_target=len(traces),
                warmup_fraction=0.0,
            )

        processor = build()
        predictor = processor.predictor = _RecordingPredictor()
        scheduler = processor.scheduler
        while not scheduler.done and processor.now < 100_000:
            if not processor.step() and not scheduler.done:
                processor.now = max(processor.now, processor._skip_target())
            for ctx in processor.threads:
                decode = list(ctx.decode)
                missed = [
                    i for i, inst in enumerate(decode)
                    if (ctx.index, inst.pc) in predictor.missed
                ]
                assert len(missed) <= 1
                if missed:
                    assert missed == [len(decode) - 1]
                    assert ctx.fetch_blocked
                assert ctx.mispredict_pending == bool(missed)
                for entry in processor.window._fifos[ctx.index]:
                    if entry.state == _STATE_DONE:
                        continue
                    key = (ctx.index, entry.inst.pc)
                    assert entry.state == (
                        _STATE_MISPREDICTED if key in predictor.missed
                        else _STATE_WAITING
                    )
        # Stepping by hand (and recording) reproduces the plain run.
        plain = build().run()
        assert scheduler.done
        assert (processor.now, processor.committed) == (
            plain.cycles, plain.committed_instructions
        )
