#!/usr/bin/env python3
"""Regenerate (or check) the golden-run regression baselines.

``tests/golden/{table3,fig4,fig6,fig8}.json`` lock each experiment's
headline metrics at smoke scale (2e-5) with tolerance bands;
``tests/test_golden_runs.py`` re-measures them on every run of the
suite.  After a deliberate modelling change moves a headline number,
regenerate with:

    PYTHONPATH=src python scripts/update_goldens.py

``--check`` recomputes and diffs without writing (exit 1 when any
metric leaves its band — same verdict the test suite gives, usable from
a shell loop or CI without pytest).  ``--experiments`` narrows the set;
``--jobs`` fans cache-missing simulations out over worker processes.

``--bitident NAME...`` instead records bit-exact pins in
``tests/golden/bitident.json``'s ``runs`` section: each name is
``isa/<N>T/memory/policy`` (for example ``mom/4T/conventional/ocount``)
and is simulated at the file's scale, then stored with its canonical
``RunResult`` hash, headline counters and pinned-version fingerprint.
Only the named entries are written.  Record a pin on the tree *before*
an optimization of the core, so the pin proves the optimization exact:

    PYTHONPATH=src python scripts/update_goldens.py \
        --bitident mom/4T/conventional/ocount

A name prefixed ``observed/`` is written to the ``observed_runs``
section instead: the point (``isa/<N>T/memory/policy``, or
``isa/cmp-<C>x<K>T/memory`` for a ``CmpSystem``) runs under
``observe="metrics"`` and ``observe=True``, and each mode's
``RunResult.observability`` hash and per-core ``stall_breakdown()`` are
stored:

    PYTHONPATH=src python scripts/update_goldens.py \
        --bitident observed/mom/cmp-4x2T/decoupled

The goldens are measurements, not aspirations: the script records what
the current tree produces.  Review the printed paper-vs-measured lines
before committing a regeneration — a golden that drifts away from the
paper's targets is a modelling regression even when every test passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

from repro.analysis.goldens import (
    EXPERIMENTS,
    GOLDEN_SCALE,
    OBSERVE_MODES,
    build_golden_document,
    check_experiment,
    compare_metrics,
    golden_path,
    observed_point,
    observed_spec,
)
from repro.analysis.runner import (
    RunRequest,
    Runner,
    execute_request,
    result_to_dict,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
BITIDENT_NAME = re.compile(r"^(mmx|mom)/(\d+)T/(\w+)/(\w+)$")
OBSERVED_PREFIX = "observed/"


def canonical_sha256(result) -> str:
    """The hash ``tests/test_obs_bitident.py`` pins a result by."""
    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def record_bitident(names: list[str], golden_dir: str) -> int:
    """Simulate and write the named full-detail bit-identity pins."""
    path = os.path.join(golden_dir, "bitident.json")
    with open(path) as handle:
        document = json.load(handle)
    for name in names:
        if name.startswith(OBSERVED_PREFIX):
            point = name[len(OBSERVED_PREFIX):]
            try:
                spec = observed_spec(point, document["scale"])
            except ValueError as error:
                print(f"error: {error}")
                return 2
            entry = {"spec": spec}
            for mode, observe in OBSERVE_MODES.items():
                entry[mode] = observed_point(spec, observe)
            document.setdefault("observed_runs", {})[point] = entry
            print(f"pinned observed {point}: " + ", ".join(
                f"{mode} {entry[mode]['observability_sha256'][:12]}"
                for mode in OBSERVE_MODES
            ))
            continue
        match = BITIDENT_NAME.match(name)
        if match is None:
            print(f"error: {name!r} is not of the form isa/<N>T/memory/policy")
            return 2
        isa, threads, memory, policy = match.groups()
        request = RunRequest(
            isa=isa, n_threads=int(threads), memory=memory,
            fetch_policy=policy, scale=document["scale"],
        )
        result = execute_request(request)
        document["runs"][name] = {
            "request": {
                "isa": isa, "n_threads": int(threads), "memory": memory,
                "fetch_policy": policy, "scale": document["scale"],
                "sampling": None,
            },
            "fingerprint_pinned": request.fingerprint(
                document["pinned_version"]
            ),
            "result_sha256": canonical_sha256(result),
            "cycles": result.cycles,
            "committed_instructions": result.committed_instructions,
            "committed_equivalent": result.committed_equivalent,
        }
        print(f"pinned {name}: {result.cycles} cycles, "
              f"{result.committed_instructions} committed")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiments", nargs="+", default=list(EXPERIMENTS),
        choices=EXPERIMENTS, metavar="EXP",
        help=f"subset to regenerate (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--golden-dir", default=DEFAULT_GOLDEN_DIR,
        help="where the golden JSON files live",
    )
    parser.add_argument(
        "--scale", type=float, default=GOLDEN_SCALE,
        help="trace fidelity to record at (default: %(default)g)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cache-missing simulations",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="recompute and diff against the existing goldens; write nothing",
    )
    parser.add_argument(
        "--bitident", nargs="+", metavar="NAME",
        help="record these isa/<N>T/memory/policy bit-identity pins "
        "(observed/<point> for an observed_runs pin) instead of the "
        "golden metrics",
    )
    args = parser.parse_args(argv)
    if args.bitident:
        return record_bitident(args.bitident, args.golden_dir)

    runner = Runner(jobs=args.jobs)
    status = 0
    for experiment in args.experiments:
        if args.check:
            failures, report = check_experiment(
                experiment, args.golden_dir, runner
            )
            print(report)
            print()
            if failures:
                status = 1
            continue
        document = build_golden_document(experiment, runner, args.scale)
        path = golden_path(experiment, args.golden_dir)
        previous = None
        if os.path.exists(path):
            with open(path) as handle:
                previous = json.load(handle)["metrics"]
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        changed, report = (
            compare_metrics(previous, document["metrics"])
            if previous is not None
            else ([], None)
        )
        print(
            f"wrote {path}: {len(document['metrics'])} metrics"
            + (f", {len(changed)} moved outside their previous band"
               if previous is not None else " (new)")
        )
        if changed and report:
            print(report)
            print()
    runner.close()
    stats = runner.stats
    print(
        f"runner: {stats.simulated} simulated, {stats.memo_hits} memoized, "
        f"{stats.sim_seconds:.1f}s simulating",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
