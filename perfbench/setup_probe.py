"""Time the benchmark's set-up in a fresh interpreter; print the seconds.

Set-up is what a run pays before its first simulation: importing
``repro.analysis``, ``repro.core`` and ``repro.serving``, hashing the
source tree for ``code_version()`` and ``serving_code_version()`` and,
with ``--prebuild``, generating the pipeline-ideal workload's traces.
``run.py`` starts this script several times per run and reports the
median.  It prints two numbers: the set-up time in reference seconds
(scaled by the reference loop of ``hostspeed.py``, timed just before and
after in this interpreter) and in raw seconds.  Usage::

    PYTHONPATH=src python3 perfbench/setup_probe.py [--prebuild --seed N --scale S]
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from hostspeed import NOMINAL_S, reference_loop  # noqa: E402

#: Reference loops timed on each side of the set-up.
REFERENCE_LOOPS = 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prebuild", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=2e-5)
    args = parser.parse_args()

    before = [reference_loop() for _ in range(REFERENCE_LOOPS)]
    started = time.perf_counter()
    import repro.analysis  # noqa: F401
    import repro.core  # noqa: F401
    import repro.serving  # noqa: F401
    from repro.analysis.runner import code_version
    from repro.analysis.serving import serving_code_version

    code_version()
    serving_code_version()
    if args.prebuild:
        from repro.workloads.mediabench import build_workload_traces

        for isa in ("mmx", "mom"):
            build_workload_traces(isa, scale=args.scale, seed=args.seed)
    seconds = time.perf_counter() - started
    after = [reference_loop() for _ in range(REFERENCE_LOOPS)]
    speed = NOMINAL_S / statistics.median(before + after)
    print(repr(seconds * speed), repr(seconds))


if __name__ == "__main__":
    main()
