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

The goldens are measurements, not aspirations: the script records what
the current tree produces.  Review the printed paper-vs-measured lines
before committing a regeneration — a golden that drifts away from the
paper's targets is a modelling regression even when every test passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.goldens import (
    EXPERIMENTS,
    GOLDEN_SCALE,
    build_golden_document,
    check_experiment,
    compare_metrics,
    golden_path,
)
from repro.analysis.runner import Runner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")


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
    args = parser.parse_args(argv)

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
