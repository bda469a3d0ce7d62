"""Hierarchical metrics registry: counters and histograms per component.

Every instrumented component (pipeline stages, caches, MSHRs, write
buffers, the stream-bypass path) publishes counters and latency
histograms under a two-level ``component / name`` namespace, with
per-thread resolution where the emitting site knows the hardware
context.  The registry is plain Python with no simulation dependencies,
so it can ride :class:`repro.core.metrics.RunResult` provenance through
the runner's JSON round-trip (``to_dict`` output is JSON-safe and
reconstructs losslessly).

The registry is only ever allocated when observability is requested
(``SMTConfig(observe=...)``); disabled runs never touch this module.
"""

from __future__ import annotations

from bisect import bisect_left


class Counter:
    """A monotone event counter with per-thread resolution.

    Thread ``-1`` (the default) is the "no context" bucket used by
    components that do not know the requesting hardware context (the
    L2 banks, the DRAM channel).
    """

    __slots__ = ("per_thread", "untyped")

    def __init__(self):
        self.per_thread: list[int] = []
        self.untyped = 0

    def add(self, thread: int = -1, n: int = 1) -> None:
        if thread < 0:
            self.untyped += n
            return
        per_thread = self.per_thread
        if thread >= len(per_thread):
            per_thread.extend([0] * (thread + 1 - len(per_thread)))
        per_thread[thread] += n

    @property
    def total(self) -> int:
        return self.untyped + sum(self.per_thread)

    def to_dict(self) -> dict:
        payload: dict = {"total": self.total}
        if self.per_thread:
            payload["per_thread"] = list(self.per_thread)
        if self.untyped:
            payload["untyped"] = self.untyped
        return payload


#: Default histogram bucket upper bounds (cycles); the last bucket is
#: open-ended.  Chosen around the model's latency landmarks: L1 hit (1),
#: L2 hit (~12-16), DRAM fill (~60-120), queueing pile-ups beyond.
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Histogram:
    """Fixed-bucket latency histogram with count/sum/min/max and
    per-thread counts."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max",
                 "per_thread")

    def __init__(self, bounds: tuple = DEFAULT_BOUNDS):
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None
        self.per_thread: list[int] = []

    def observe(self, value: int, thread: int = -1, n: int = 1) -> None:
        # The first bucket whose upper bound is >= value; past the last
        # bound, the open-ended bucket.
        self.buckets[bisect_left(self.bounds, value)] += n
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if thread >= 0:
            per_thread = self.per_thread
            if thread >= len(per_thread):
                per_thread.extend([0] * (thread + 1 - len(per_thread)))
            per_thread[thread] += n

    def touch(self, thread: int) -> None:
        """Give ``thread`` a per-thread row without observing a value."""
        per_thread = self.per_thread
        if thread >= len(per_thread):
            per_thread.extend([0] * (thread + 1 - len(per_thread)))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        payload: dict = {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        if self.per_thread:
            payload["per_thread"] = list(self.per_thread)
        return payload


class MetricsRegistry:
    """Counters and histograms addressed by ``component / name``.

    Instruments call :meth:`counter` / :meth:`histogram` once per site
    (the returned object is cached) and then operate on the returned
    object directly, so the per-event cost is one method call with no
    dict lookup in the registry.
    """

    def __init__(self):
        self._counters: dict[tuple[str, str], Counter] = {}
        self._histograms: dict[tuple[str, str], Histogram] = {}

    def counter(self, component: str, name: str) -> Counter:
        key = (component, name)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def histogram(
        self, component: str, name: str, bounds: tuple = DEFAULT_BOUNDS
    ) -> Histogram:
        key = (component, name)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(bounds)
        return histogram

    def components(self) -> list[str]:
        return sorted(
            {key[0] for key in self._counters}
            | {key[0] for key in self._histograms}
        )

    def to_dict(self) -> dict:
        """Nested JSON-safe snapshot: ``{component: {name: {...}}}``.

        Counters and histograms share the namespace; a histogram entry
        is recognizable by its ``buckets`` key.
        """
        tree: dict[str, dict] = {}
        for (component, name), counter in sorted(self._counters.items()):
            tree.setdefault(component, {})[name] = counter.to_dict()
        for (component, name), histogram in sorted(self._histograms.items()):
            tree.setdefault(component, {})[name] = histogram.to_dict()
        return tree
