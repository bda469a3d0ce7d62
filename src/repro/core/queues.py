"""Out-of-order issue queues.

Each of the four queues (integer, FP, memory, SIMD) holds dispatched
instructions until their source operands are ready, then offers them to
the issue stage oldest-first.  Wakeup is event-driven: completing
producers decrement their dependents' outstanding-source counts and move
newly-ready instructions onto the ready list.
"""

from __future__ import annotations

from collections import deque


class IssueQueue:
    """One issue queue with bounded capacity and a FIFO ready list.

    The SMT core's issue/dispatch stages inline the bookkeeping these
    methods perform (including the sanitizer hooks) for speed; the
    methods remain the reference implementation and the API other
    drivers and the tests use.  ``__slots__`` keeps the per-queue
    attribute access cheap.
    """

    __slots__ = (
        "name",
        "capacity",
        "occupancy",
        "ready",
        "issued_total",
        "sanitizer",
    )

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.occupancy = 0
        self.ready: deque = deque()
        # Issue-bandwidth accounting for utilization reporting.
        self.issued_total = 0
        #: Optional :class:`repro.verify.sanitizer.RuntimeSanitizer`.
        self.sanitizer = None

    @property
    def has_space(self) -> bool:
        return self.occupancy < self.capacity

    def insert(self, entry) -> None:
        """Dispatch an instruction into the queue.

        ``entry`` is an ``InFlight`` record; entries with no outstanding
        sources go straight onto the ready list.
        """
        if not self.has_space:
            raise RuntimeError(f"{self.name} queue overflow")
        self.occupancy += 1
        if entry.deps == 0:
            self.ready.append(entry)
        if self.sanitizer is not None:
            self.sanitizer.check_queue(self)

    def wake(self, entry) -> None:
        """A dependent became ready (called by the completion stage)."""
        self.ready.append(entry)

    def pop_ready(self):
        """Oldest ready instruction, or ``None``; frees the queue slot.

        Reference-only squash semantics: entries marked ``squashed`` (by
        :meth:`GraduationWindow.flush_thread
        <repro.core.rob.GraduationWindow.flush_thread>`) are skipped.
        The SMT core never squashes — a mispredicted branch blocks fetch
        until it resolves — so its inlined issue stage has no such test
        and its entries carry no ``squashed`` flag (docs/MODEL.md,
        "Performance & reproducibility").
        """
        while self.ready:
            entry = self.ready.popleft()
            if entry.squashed:
                self.occupancy -= 1
                continue
            self.occupancy -= 1
            self.issued_total += 1
            return entry
        return None
