"""The graduation window: shared capacity, per-thread in-order retire.

The paper's SMT extension keeps one graduation window whose entries
retire in per-thread program order ("some additional logic is required in
the graduation window in order to allow per-thread retirements, as well
as a mechanism to perform per-thread instruction flush").  We model it as
a shared occupancy budget with one FIFO per hardware context.
"""

from __future__ import annotations

from collections import deque


class GraduationWindow:
    """Shared-capacity reorder window with per-thread FIFOs.

    The SMT core's commit/dispatch stages inline insert/retire (with the
    sanitizer hooks preserved) for speed; these methods remain the
    reference implementation used by other drivers and the tests.
    """

    __slots__ = ("capacity", "occupancy", "_fifos", "sanitizer", "observer")

    def __init__(self, capacity: int, n_threads: int):
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self.occupancy = 0
        self._fifos: list[deque] = [deque() for __ in range(n_threads)]
        #: Optional :class:`repro.verify.sanitizer.RuntimeSanitizer`.
        self.sanitizer = None
        #: Optional :class:`repro.obs.events.PipelineObserver`.
        self.observer = None

    @property
    def has_space(self) -> bool:
        return self.occupancy < self.capacity

    def insert(self, thread: int, entry) -> None:
        if not self.has_space:
            raise RuntimeError("graduation window overflow")
        self._fifos[thread].append(entry)
        self.occupancy += 1
        if self.sanitizer is not None:
            self.sanitizer.on_window_insert(self, thread, entry)

    def head(self, thread: int):
        fifo = self._fifos[thread]
        return fifo[0] if fifo else None

    def retire_head(self, thread: int):
        """Pop and return the thread's oldest entry (must exist)."""
        entry = self._fifos[thread].popleft()
        self.occupancy -= 1
        if self.sanitizer is not None:
            self.sanitizer.on_window_retire(self, thread, entry)
        return entry

    def thread_occupancy(self, thread: int) -> int:
        return len(self._fifos[thread])

    def flush_thread(self, thread: int, now: int = 0) -> int:
        """Per-thread flush; returns how many entries were squashed.

        Reference-only squash semantics for drivers and tests whose
        entries carry a ``squashed`` flag: the SMT core never flushes
        (its trace-driven squash model blocks fetch at a mispredicted
        branch instead), and its ``InFlight`` entries have no such flag.
        """
        fifo = self._fifos[thread]
        squashed = len(fifo)
        for entry in fifo:
            entry.squashed = True
        if self.sanitizer is not None:
            self.sanitizer.on_window_flush(thread, fifo)
        if self.observer is not None:
            self.observer.on_squash(thread, list(fifo), now)
        fifo.clear()
        self.occupancy -= squashed
        return squashed

    def is_empty(self, thread: int) -> bool:
        return not self._fifos[thread]
