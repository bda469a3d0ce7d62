#!/usr/bin/env python3
"""CI smoke test for the media-server scenario's cache discipline.

Runs a small serving grid — both ISAs on the CMP×SMT design point under
all three admission policies — through the cached runner and asserts the
serving contract (docs/SERVING.md):

1. a cold parallel sweep (``jobs=2``) simulates every point exactly
   once,
2. a warm rerun against the same cache directory simulates nothing and
   reproduces every result hash bit for bit,
3. a cold *serial* sweep in a fresh cache produces the identical
   hashes — neither process fan-out nor the cache layer may move a
   serving metric by a single bit,
4. the three policies produce at least two distinct results per ISA
   (the grid genuinely exercises placement, not a degenerate point).

Exit status: 0 on success, 1 on any violated invariant.

Usage:  python scripts/serving_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.runner import Runner  # noqa: E402
from repro.analysis.serving import (  # noqa: E402
    ServingRequest,
    run_serving_batch,
)

#: Smoke scale — the golden scale, sub-minute for the whole grid.
SCALE = 2e-5

REQUESTS = [
    ServingRequest(
        isa=isa, arch="cmp", cores=4, contexts=2,
        policy=policy, n_streams=8, scale=SCALE,
    )
    for isa in ("mmx", "mom")
    for policy in ("rr", "least", "affinity")
]


def canonical_sha256(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sweep(cache_dir: str | None, jobs: int) -> tuple[dict, Runner]:
    with Runner(jobs=jobs, cache_dir=cache_dir) as runner:
        results = run_serving_batch(REQUESTS, runner)
    hashes = {
        f"{request.isa}/{request.policy}": canonical_sha256(results[request])
        for request in REQUESTS
    }
    return hashes, runner


def main() -> int:
    failures: list[str] = []
    scratch = tempfile.mkdtemp(prefix="serving-smoke-")
    try:
        warm_dir = os.path.join(scratch, "parallel-cache")
        cold_hashes, cold_runner = sweep(warm_dir, jobs=2)
        if cold_runner.stats.simulated != len(REQUESTS):
            failures.append(
                f"cold sweep simulated {cold_runner.stats.simulated} "
                f"points, expected {len(REQUESTS)}"
            )

        warm_hashes, warm_runner = sweep(warm_dir, jobs=2)
        if warm_runner.stats.simulated != 0:
            failures.append(
                f"warm rerun simulated {warm_runner.stats.simulated} "
                "points, expected 0 (every point must come from the cache)"
            )
        if warm_runner.stats.disk_hits != len(REQUESTS):
            failures.append(
                f"warm rerun took {warm_runner.stats.disk_hits} disk "
                f"hits, expected {len(REQUESTS)}"
            )
        if warm_hashes != cold_hashes:
            failures.append("warm rerun hashes diverged from the cold sweep")

        serial_hashes, serial_runner = sweep(
            os.path.join(scratch, "serial-cache"), jobs=1
        )
        if serial_runner.stats.simulated != len(REQUESTS):
            failures.append(
                f"serial sweep simulated {serial_runner.stats.simulated} "
                f"points, expected {len(REQUESTS)}"
            )
        if serial_hashes != cold_hashes:
            failures.append(
                "serial sweep hashes diverged from the parallel sweep"
            )

        for isa in ("mmx", "mom"):
            distinct = {
                value
                for key, value in cold_hashes.items()
                if key.startswith(f"{isa}/")
            }
            if len(distinct) < 2:
                failures.append(
                    f"{isa}: all three admission policies produced one "
                    "result — the smoke grid no longer exercises placement"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name in sorted(cold_hashes):
        print(f"  {name:14s} {cold_hashes[name][:16]}")
    if failures:
        for failure in failures:
            print(f"serving smoke FAILED: {failure}")
        return 1
    print(
        f"serving smoke OK: {len(REQUESTS)} points, cold parallel == warm "
        "== cold serial, policies distinct"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
