"""The host's speed, sampled with a fixed reference loop while a run measures.

The benchmark runs on shared machines whose speed swings by a third or
more over minutes: while other tenants load the machine, all the code
the benchmark runs slows down, for as long as they stay.  A longer run
cannot average that out, because the slow spells last longer than a
run.  So, while a phase is timed, a ``SIGALRM`` timer interrupts
the process every :data:`INTERVAL_S` seconds and times one short
reference loop, :func:`reference_loop`, right where the work is running.
A measured span is then reported at the reference speed::

    reference seconds = (span - reference loops inside it)
                        * NOMINAL_S / (median reference loop near the span)

so a host that runs everything 1.4x slower for a while reads about the
same.  The loop is plain Python, like the simulator, and is fixed here:
a change to the program cannot change it.  ``NOMINAL_S`` is about what
the loop takes on an unloaded 2-vCPU x86 VM, so reference seconds read
close to that machine's wall seconds.

Pool workers are forked from the sampling process; an at-fork hook
starts their own timer, and they append their samples to a file per
worker under the run's sandbox, read back by
:meth:`HostSpeed.worker_samples`.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time

#: Iterations of the reference loop's arithmetic part.
ITERATIONS = 20_000
#: Records the reference loop's allocation part encodes and decodes.
RECORDS = 750
#: Seconds :func:`reference_loop` takes at nominal speed.
NOMINAL_S = 0.0034
#: Seconds between two reference loops.
INTERVAL_S = 0.25
#: Samples this close to a span (seconds) estimate its speed.
NEAR_S = 1.0


def reference_loop() -> float:
    """Seconds one pass of the fixed reference loop takes.

    Half interpreter arithmetic, half building, encoding and decoding
    small records: a slow spell slows the allocation-heavy warm replays
    more than plain arithmetic, and the pipeline model the other way
    round, and this mix tracks both.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i ^ (i >> 3)
    records = [{"i": i, "v": i * 0.5, "k": str(i)} for i in range(RECORDS)]
    json.loads(json.dumps(records))
    return time.perf_counter() - started


class HostSpeed:
    """Samples the reference loop in this process and its forked workers.

    Use as a context manager around everything a run times.  Timestamps
    are ``time.perf_counter()`` readings, which share one clock across
    the processes of a run (``CLOCK_MONOTONIC`` on Linux).  Workers
    forked after the run leaves the context do not sample.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._own: list[tuple[float, float]] = []
        self._file = None
        self._previous = None
        self._active = False

    # ----------------------------------------------------------- sampling

    def _on_alarm(self, signum, frame) -> None:
        at = time.perf_counter()
        took = reference_loop()
        if self._file is None:
            self._own.append((at, took))
        else:
            self._file.write(f"{at!r} {took!r}\n")
            self._file.flush()

    def _start_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _after_fork_in_child(self) -> None:
        if not self._active:
            return
        # A forked pool worker: sample too, into a file of its own.
        self._own = []
        self._file = open(
            os.path.join(self.directory, f"samples-{os.getpid()}.txt"), "a"
        )
        self._start_timer()

    def __enter__(self) -> "HostSpeed":
        os.makedirs(self.directory, exist_ok=True)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        self._active = True
        self._start_timer()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)

    # ----------------------------------------------------------- reading

    def worker_samples(self) -> list[tuple[float, float]]:
        """Every ``(timestamp, loop seconds)`` the pool workers took."""
        found = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("samples-"):
                with open(os.path.join(self.directory, name)) as handle:
                    for line in handle:
                        fields = line.split()
                        # A worker killed mid-write leaves a torn line.
                        if len(fields) == 2:
                            found.append((float(fields[0]), float(fields[1])))
        return found

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, end)`` span's length in reference seconds.

        The speed comes from the median of the samples within
        :data:`NEAR_S` of the span, which a loop preempted now and then
        does not move: the pool workers' samples where there are any
        (this process's own loops then compete with the workers for the
        cores), else this process's.  This process's loops inside the span are taken out
        of its length; a worker's are not, as its peers run on meanwhile.
        """
        workers = self.worker_samples()
        scaled = []
        for start, end in spans:
            near = [
                took for at, took in workers
                if start - NEAR_S <= at <= end + NEAR_S
            ] or [
                took for at, took in self._own
                if start - NEAR_S <= at <= end + NEAR_S
            ]
            if not near:
                raise RuntimeError(
                    f"no reference sample within {NEAR_S} s of a timed span"
                )
            inside = sum(
                took for at, took in self._own
                if start <= at and at + took <= end
            )
            speed = NOMINAL_S / statistics.median(near)
            scaled.append(max(end - start - inside, 0.0) * speed)
        return scaled
