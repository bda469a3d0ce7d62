#!/usr/bin/env python3
"""Per-stage bytecode profile of the fused ``SMTProcessor.step()``.

Counts the bytecodes the interpreter executes inside ``step()``'s own
frame, per committed instruction, split by pipeline stage.  The count
comes from opcode trace events (``frame.f_trace_opcodes``), so it is
deterministic: the same tree on the same Python version always prints
the same table, unlike a wall-clock profile.  Callees (the memory
system, the branch predictor, the vector unit) are not counted — the
table measures the per-instruction work of the fused body itself.
The one exception is the ``obs`` column: bytecodes executed in frames
of :mod:`repro.obs` code (the observer's hooks, its metrics registry),
per committed instruction — what observation costs on top of the body.

Stage boundaries are the ``# stage: <name>`` marker comments in
``step()``'s source (``complete``, ``commit``, ``issue``, ``dispatch``,
``fetch``): each marker opens a stage that runs to the next one.  Lines
before the first marker (hoisting the per-cycle locals) are reported as
``entry``; the cycle bookkeeping after the fetch loop counts as fetch.

The points are mmx-1T, mom-8T and mmx-4T at scale 2e-5, seed 0, plus
mom-8T again with ``observe="metrics"`` (the observer mode the serving
scenario and the stall breakdown run).  Each runs
``SMTProcessor(...).run()`` on ``PerfectMemory`` with prebuilt workload
traces (the ``pipeline-ideal`` benchmark's setup), so nothing outside
the core pipeline is measured.  ``committed`` is the
processor's total (stream-weighted) commit count, warmup included, so
it matches the cycles the profile covers.

Usage:
    PYTHONPATH=src python scripts/profile_step.py [--markdown PATH]
"""

from __future__ import annotations

import argparse
import inspect
import os
import platform
import re
import sys

import repro.obs
from repro.core.params import SMTConfig
from repro.core.smt import SMTProcessor
from repro.memory.perfect import PerfectMemory
from repro.workloads.mediabench import build_workload_traces

STAGES = ("complete", "commit", "issue", "dispatch", "fetch")
COLUMNS = ("entry",) + STAGES
STAGE_MARKER = re.compile(r"#\s*stage:\s*(\w+)")
#: ``(isa, threads, observe)``: the three unobserved points, then mom-8T
#: under the metrics-only observer.
POINTS = (
    ("mmx", 1, None), ("mom", 8, None), ("mmx", 4, None),
    ("mom", 8, "metrics"),
)
#: Frames of code in this directory count toward the ``obs`` column.
OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__)) + os.sep
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
    """Counts opcode events per source line in frames of one code object,
    and in total in frames of :mod:`repro.obs` code (``obs``).

    Restores the trace function it replaced (a coverage tracer, say) on
    exit.  It does not chain to it: such a tracer may reinstall itself
    as the global trace function on its next call event, which would end
    the count.  Frames started inside the block are therefore not seen
    by the outer tracer.
    """

    def __init__(self, code):
        self.code = code
        self.by_line: dict[int, int] = {}
        self.obs = 0
        self.previous = None

    def __enter__(self) -> "OpcodeCounter":
        self.previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self.previous)

    def _on_call(self, frame, event, arg):
        if frame.f_code is self.code:
            tracer = self._on_opcode
        elif frame.f_code.co_filename.startswith(OBS_DIR):
            tracer = self._on_obs_opcode
        else:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return tracer

    def _on_opcode(self, frame, event, arg):
        if event == "opcode":
            line = frame.f_lineno
            self.by_line[line] = self.by_line.get(line, 0) + 1
        return self._on_opcode

    def _on_obs_opcode(self, frame, event, arg):
        if event == "opcode":
            self.obs += 1
        return self._on_obs_opcode


def profile_point(
    isa: str, n_threads: int, scale: float, seed: int, observe=None
) -> dict:
    traces = build_workload_traces(isa, scale=scale, seed=seed)
    processor = SMTProcessor(
        SMTConfig(isa=isa, n_threads=n_threads, observe=observe),
        PerfectMemory(),
        traces,
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
        "point": f"{isa}-{n_threads}T" + (f" {observe}" if observe else ""),
        "cycles": processor.now,
        "committed": committed,
        "bytecodes": totals,
        "per_inst": {
            name: count / committed for name, count in totals.items()
        },
        "per_inst_total": sum(totals.values()) / committed,
        "per_inst_obs": counter.obs / committed,
    }


def render(records: list[dict]) -> str:
    header = ["point", "committed", "cycles", *COLUMNS, "total", "obs"]
    rows = [header, ["---"] * len(header)]
    for record in records:
        rows.append(
            [record["point"], str(record["committed"]), str(record["cycles"])]
            + [f"{record['per_inst'][name]:.1f}" for name in COLUMNS]
            + [f"{record['per_inst_total']:.1f}",
               f"{record['per_inst_obs']:.1f}"]
        )
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--markdown", help="also write the table here")
    args = parser.parse_args(argv)

    records = [
        profile_point(isa, n_threads, SCALE, SEED, observe)
        for isa, n_threads, observe in POINTS
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
