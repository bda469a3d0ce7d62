#!/usr/bin/env python3
"""Per-stage bytecode profile of the fused ``SMTProcessor.step()``.

Counts the bytecodes the interpreter executes inside ``step()``'s own
frame, per committed instruction, split by pipeline stage.  The count
comes from opcode trace events (``frame.f_trace_opcodes``), so it is
deterministic: the same tree on the same Python version always prints
the same table, unlike a wall-clock profile.  Callees (the memory
system, the branch predictor, the vector unit) are not counted — the
table measures the per-instruction work of the fused body itself.

Stage boundaries are the ``# stage: <name>`` marker comments in
``step()``'s source (``complete``, ``commit``, ``issue``, ``dispatch``,
``fetch``): each marker opens a stage that runs to the next one.  Lines
before the first marker (hoisting the per-cycle locals) are reported as
``entry``; the cycle bookkeeping after the fetch loop counts as fetch.

The points are mmx-1T, mom-8T and mmx-4T at scale 2e-5, seed 0.  Each
runs ``SMTProcessor(...).run()`` on ``PerfectMemory`` with prebuilt
workload traces (the ``pipeline-ideal`` benchmark's setup), so nothing
outside the core pipeline is measured.  ``committed`` is the
processor's total (stream-weighted) commit count, warmup included, so
it matches the cycles the profile covers.

Usage:
    PYTHONPATH=src python scripts/profile_step.py [--markdown PATH]
"""

from __future__ import annotations

import argparse
import inspect
import platform
import re
import sys

from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor
from repro.memory.perfect import PerfectMemory
from repro.workloads.mediabench import build_workload_traces

STAGES = ("complete", "commit", "issue", "dispatch", "fetch")
COLUMNS = ("entry",) + STAGES
STAGE_MARKER = re.compile(r"#\s*stage:\s*(\w+)")
POINTS = (("mmx", 1), ("mom", 8), ("mmx", 4))
SCALE = 2e-5
SEED = 0


def stage_of_lines(function) -> dict[int, str]:
    """Map every source line of ``function`` to its pipeline stage."""
    lines, first = inspect.getsourcelines(function)
    stage = "entry"
    seen = []
    mapping = {}
    for offset, text in enumerate(lines):
        match = STAGE_MARKER.search(text)
        if match:
            stage = match.group(1)
            if stage not in STAGES:
                raise ValueError(
                    f"unknown stage marker {stage!r} at line "
                    f"{first + offset}; expected one of {STAGES}"
                )
            seen.append(stage)
        mapping[first + offset] = stage
    if sorted(seen) != sorted(STAGES):
        raise ValueError(
            f"step() must carry each of the {len(STAGES)} stage markers "
            f"exactly once; found {seen}"
        )
    return mapping


class OpcodeCounter:
    """Counts opcode events per source line in frames of one code object.

    Restores the trace function it replaced (a coverage tracer, say) on
    exit.  It does not chain to it: such a tracer may reinstall itself
    as the global trace function on its next call event, which would end
    the count.  Frames started inside the block are therefore not seen
    by the outer tracer.
    """

    def __init__(self, code):
        self.code = code
        self.by_line: dict[int, int] = {}
        self.previous = None

    def __enter__(self) -> "OpcodeCounter":
        self.previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self.previous)

    def _on_call(self, frame, event, arg):
        if frame.f_code is not self.code:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._on_opcode

    def _on_opcode(self, frame, event, arg):
        if event == "opcode":
            line = frame.f_lineno
            self.by_line[line] = self.by_line.get(line, 0) + 1
        return self._on_opcode


def profile_point(isa: str, n_threads: int, scale: float, seed: int) -> dict:
    traces = build_workload_traces(isa, scale=scale, seed=seed)
    processor = SMTProcessor(
        SMTConfig(isa=isa, n_threads=n_threads), PerfectMemory(), traces
    )
    step = type(processor).step
    if step is not SMTProcessor.step:
        raise RuntimeError(
            f"{type(processor).__name__} replaces SMTProcessor.step(); "
            "the profile covers the object engine only"
        )
    stages = stage_of_lines(step)
    with OpcodeCounter(step.__code__) as counter:
        processor.run()
    totals = dict.fromkeys(COLUMNS, 0)
    for line, count in counter.by_line.items():
        totals[stages.get(line, "entry")] += count
    committed = processor.committed
    return {
        "point": f"{isa}-{n_threads}T",
        "cycles": processor.now,
        "committed": committed,
        "bytecodes": totals,
        "per_inst": {
            name: count / committed for name, count in totals.items()
        },
        "per_inst_total": sum(totals.values()) / committed,
    }


def render(records: list[dict]) -> str:
    header = ["point", "committed", "cycles", *COLUMNS, "total"]
    rows = [header, ["---"] * len(header)]
    for record in records:
        rows.append(
            [record["point"], str(record["committed"]), str(record["cycles"])]
            + [f"{record['per_inst'][name]:.1f}" for name in COLUMNS]
            + [f"{record['per_inst_total']:.1f}"]
        )
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", help="also write the table here")
    args = parser.parse_args(argv)

    records = [
        profile_point(isa, n_threads, SCALE, SEED)
        for isa, n_threads in POINTS
    ]
    title = (
        f"step() bytecodes per committed instruction — PerfectMemory, "
        f"scale {SCALE:g}, seed {SEED}, Python "
        f"{platform.python_version()}"
    )
    table = f"{title}\n\n{render(records)}\n"
    print(table)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
