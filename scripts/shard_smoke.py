#!/usr/bin/env python3
"""CI smoke test for window-sharded sampled execution.

Runs one sampled simulation point that genuinely chunks
(``sampled_chunk_count > 1``) through the full (backend x window_jobs)
matrix — the object and flat engines, each under the serial and
window-sharded (``window_jobs=2``) schedules, every cell through its
own cold cache — and asserts:

1. the sharded runs actually fanned out (shard provenance events with
   more than one chunk),
2. all four cells produce the same canonical result hash — neither
   intra-run parallelism nor the engine choice may move a result by a
   single bit,
3. a warm rerun pointed at the flat engine's serial cache, but asking
   for the object backend window-sharded, hits that cache entry
   (``backend`` and ``window_jobs`` are both exempt from the
   fingerprint, so the whole matrix shares one cache slot and the warm
   rerun simulates nothing).

Exit status: 0 on success, 1 on any violated invariant.

Usage:  python scripts/shard_smoke.py
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

from repro.analysis.runner import (  # noqa: E402
    Runner,
    RunRequest,
    result_to_dict,
    workload_traces,
)
from repro.core.smt import sampled_chunk_count  # noqa: E402

#: Small enough for a sub-minute CI step; the short sampling period
#: makes the schedule chunk even at smoke scale (5 chunks here, vs the
#: default 40000-cycle period which only chunks at production scales).
REQUEST = RunRequest(
    isa="mom",
    n_threads=8,
    memory="conventional",
    fetch_policy="rr",
    scale=2e-5,
    sampling=(1000, 200, 50),
)


def canonical_sha256(result) -> str:
    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> int:
    scratch = tempfile.mkdtemp(prefix="shard_smoke_")
    try:
        traces = workload_traces(
            REQUEST.isa, REQUEST.scale, REQUEST.seed,
            os.path.join(scratch, "traces"),
        )
        n_chunks = sampled_chunk_count(
            REQUEST.sampling, traces, REQUEST.completions_target
        )
        if n_chunks <= 1:
            print(
                f"FAIL: smoke configuration no longer chunks "
                f"(sampled_chunk_count={n_chunks}); pick a configuration "
                "that exercises the sharded path"
            )
            return 1

        hashes = {}
        wall = 0.0
        for backend in ("object", "flat"):
            for window_jobs in (1, 2):
                cache = os.path.join(scratch, f"{backend}_{window_jobs}")
                with Runner(
                    cache_dir=cache,
                    window_jobs=window_jobs,
                    backend=backend,
                ) as runner:
                    result = runner.run_batch([REQUEST])[REQUEST]
                hashes[(backend, window_jobs)] = canonical_sha256(result)
                if window_jobs == 2:
                    shards = runner.stats.window_shards
                    if shards != n_chunks:
                        print(
                            f"FAIL: sharded {backend} run reported "
                            f"{shards} window shards, expected {n_chunks} "
                            "— the request did not fan out"
                        )
                        return 1
                    wall += sum(
                        event["wall_seconds"]
                        for event in runner.window_shard_events
                    )

        reference = hashes[("object", 1)]
        divergent = {
            cell: digest
            for cell, digest in hashes.items()
            if digest != reference
        }
        if divergent:
            print(
                "FAIL: bit-identity broken across the "
                "(backend x window_jobs) matrix — reference "
                f"object/serial {reference[:16]}, divergent: "
                + ", ".join(
                    f"{backend}/window_jobs={jobs} {digest[:16]}"
                    for (backend, jobs), digest in sorted(divergent.items())
                )
            )
            return 1

        # The whole matrix shares one cache slot: an object-backend
        # sharded runner pointed at the flat engine's serial cache must
        # hit it, not resimulate.
        with Runner(
            cache_dir=os.path.join(scratch, "flat_1"),
            window_jobs=2,
            backend="object",
        ) as warm:
            warm.run_batch([REQUEST])
        if warm.stats.simulated != 0 or warm.stats.disk_hits != 1:
            print(
                "FAIL: object-backend sharded runner missed the flat "
                f"serial cache entry (simulated={warm.stats.simulated}, "
                f"disk_hits={warm.stats.disk_hits}) — backend or "
                "window_jobs leaked into the fingerprint"
            )
            return 1

        print(
            f"shard smoke OK: {n_chunks} chunks, "
            f"hash {reference[:16]} identical across "
            "{object,flat} x {window_jobs=1,2}, "
            f"warm cache shared cross-backend ({wall:.2f} s sharded wall)"
        )
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
