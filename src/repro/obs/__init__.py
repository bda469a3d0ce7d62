"""Opt-in observability: pipeline events, metrics, traces, profiling.

Request observation per run with ``SMTConfig(observe=...)``:

* ``observe=True`` — full :class:`~repro.obs.events.PipelineObserver`
  (per-instruction lifetime records + memory events + metrics);
* ``observe="metrics"`` — metrics registry only (what the stall-cause
  breakdown sweeps use; no per-instruction storage);
* ``observe=<PipelineObserver>`` — bring your own (e.g. with custom
  bounds), then inspect ``observer.records`` after the run;
* ``observe=None`` (default) — disabled.  Every hook in the simulator
  is a single ``is not None`` test; disabled runs are bit-identical to
  a tree without this package (enforced by ``tests/test_obs_bitident.py``
  and the ``check_hotloop.py`` drift gate).

See ``docs/OBSERVABILITY.md`` for the event schema and the
``scripts/pipetrace_tool.py`` walkthrough.
"""

from repro.obs.events import (
    STAGES,
    STALL_CAUSES,
    TALLIES,
    InstRecord,
    ObservabilityError,
    PipelineObserver,
    resolve_observer,
    validate_records,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import (
    chrome_trace,
    parse_ascii,
    render_ascii,
    validate_chrome_trace,
)

__all__ = [
    "STAGES",
    "STALL_CAUSES",
    "TALLIES",
    "Counter",
    "Histogram",
    "InstRecord",
    "MetricsRegistry",
    "ObservabilityError",
    "PhaseProfiler",
    "PipelineObserver",
    "chrome_trace",
    "parse_ascii",
    "render_ascii",
    "resolve_observer",
    "validate_chrome_trace",
    "validate_records",
]
