"""Bit-identity: `observe=None` runs are byte-identical to the pre-
observability tree.

``tests/golden/bitident.json`` pins, from the commit immediately before
the observability layer landed: the canonical ``RunResult`` JSON hash of
four representative runs, their pinned-version ``RunRequest``
fingerprints, and the headline counters.  Any observability hook that
perturbs a disabled run — an extra stat, a reordered dict key, a
serialized ``None`` — fails here with the exact run that diverged.

Its ``observed_runs`` section pins the other side: the
``RunResult.observability`` hash and the stall breakdowns of observed
runs, so a change to how the observer counts must report the same
numbers.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

from repro.analysis.goldens import OBSERVE_MODES, observed_point
from repro.analysis.runner import (
    RESULT_FORMAT,
    RunRequest,
    execute_request,
    memory_factory,
    result_from_dict,
    result_to_dict,
    workload_traces,
)
from repro.core import FetchPolicy, SMTConfig, SMTProcessor
from repro.core.metrics import RunResult

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "bitident.json"
)

with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def request_of(entry: dict) -> RunRequest:
    payload = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in entry["request"].items()
    }
    return RunRequest(**payload)


def canonical_sha256(result) -> str:
    blob = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_unobserved_run_matches_pre_observability_bytes(name):
    entry = GOLDEN["runs"][name]
    result = execute_request(request_of(entry))
    assert result.cycles == entry["cycles"], name
    assert result.committed_instructions == entry["committed_instructions"]
    assert result.committed_equivalent == pytest.approx(
        entry["committed_equivalent"], abs=0, rel=0
    )
    assert canonical_sha256(result) == entry["result_sha256"], (
        f"{name}: RunResult JSON diverged from the pre-observability tree"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_fingerprints_unchanged_under_pinned_version(name):
    # Fingerprints mix in code_version(), which necessarily moves every
    # PR; pinning the version isolates the request schema + canonical
    # serialization, which must NOT move (the cache would silently fork
    # if e.g. RunRequest grew an `observe` field).
    entry = GOLDEN["runs"][name]
    fingerprint = request_of(entry).fingerprint(GOLDEN["pinned_version"])
    assert fingerprint == entry["fingerprint_pinned"]


#: Pins whose fetch policy reads the core's policy-conditional in-flight
#: counters (everything but round-robin).
NON_RR_PINS = sorted(
    name for name, entry in GOLDEN["runs"].items()
    if entry["request"]["fetch_policy"] != "rr"
)


def test_every_non_rr_fetch_policy_is_pinned():
    policies = {GOLDEN["runs"][name]["request"]["fetch_policy"]
                for name in NON_RR_PINS}
    assert policies == {"icount", "ocount", "balance"}


@pytest.mark.parametrize("hook", ["observe", "sanitize"])
@pytest.mark.parametrize("name", NON_RR_PINS)
def test_hooked_non_rr_run_hashes_like_the_plain_run(name, hook):
    # The observer and the sanitizer take the hooked paths of step();
    # with the observability snapshot set aside, the result must be the
    # pinned plain-run bytes.
    request = request_of(GOLDEN["runs"][name])
    processor = SMTProcessor(
        SMTConfig(isa=request.isa, n_threads=request.n_threads,
                  **{hook: True}),
        memory_factory(request.memory)(),
        workload_traces(request.isa, request.scale, request.seed),
        fetch_policy=FetchPolicy(request.fetch_policy),
        completions_target=request.completions_target,
    )
    payload = result_to_dict(processor.run())
    observed = payload.pop("observability", None)
    assert (observed is not None) == (hook == "observe")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        GOLDEN["runs"][name]["result_sha256"]
    )


def test_result_format_unchanged():
    assert RESULT_FORMAT == 2


def test_run_request_has_no_observe_field():
    # Observability is per-SMTConfig, never per-request: cached results
    # must be shared between observed and unobserved callers.
    assert "observe" not in {f.name for f in fields(RunRequest)}


def test_unobserved_result_serializes_without_observability_key():
    entry = GOLDEN["runs"]["mmx/1T/conventional/rr"]
    result = execute_request(request_of(entry))
    payload = result_to_dict(result)
    assert "observability" not in payload
    restored = result_from_dict(payload)
    assert restored.observability is None
    assert result_to_dict(restored) == payload


def test_observed_result_round_trips_snapshot():
    entry = GOLDEN["runs"]["mmx/1T/conventional/rr"]
    result = execute_request(request_of(entry))
    observed = RunResult(
        **{**result_to_dict(result), "memory": result.memory,
           "observability": {"metrics": {}, "records": 0,
                             "mem_events": 0, "dropped_records": 0,
                             "dropped_events": 0}},
    )
    payload = result_to_dict(observed)
    assert payload["observability"]["records"] == 0
    assert result_from_dict(payload).observability == observed.observability


def test_plain_run_never_imports_the_obs_package():
    # The zero-overhead contract starts at import time: a run without
    # observe= must not even load repro.obs (the lazy import in the
    # core is the only edge into it).
    script = (
        "import sys\n"
        "from repro.analysis.runner import RunRequest, execute_request\n"
        "execute_request(RunRequest(isa='mmx', n_threads=1,"
        " memory='perfect', fetch_policy='rr', scale=2e-5))\n"
        "assert not any(m.startswith('repro.obs') for m in sys.modules),"
        " sorted(m for m in sys.modules if m.startswith('repro.obs'))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_golden_requests_cover_both_hierarchies_and_sampling():
    requests = [request_of(e) for e in GOLDEN["runs"].values()]
    assert {r.memory for r in requests} >= {
        "conventional", "decoupled", "perfect",
    }
    assert {r.isa for r in requests} == {"mmx", "mom"}
    assert any(r.sampling for r in requests)
    assert all(asdict(r)["scale"] == GOLDEN["scale"] for r in requests)


# ----- observed pins: what the observer reports ------------------------------

OBSERVED = GOLDEN["observed_runs"]


def test_observed_pins_cover_both_hierarchies_policies_and_cmp():
    specs = [entry["spec"] for entry in OBSERVED.values()]
    assert {spec["memory"] for spec in specs} == {
        "conventional", "decoupled", "perfect",
    }
    assert {spec["arch"] for spec in specs} == {"smt", "cmp"}
    assert {spec.get("fetch_policy") for spec in specs} >= {
        "rr", "icount", "balance",
    }


@pytest.mark.parametrize("mode", sorted(OBSERVE_MODES))
@pytest.mark.parametrize("name", sorted(OBSERVED))
def test_observed_run_matches_pinned_snapshot(name, mode):
    entry = OBSERVED[name]
    measured = observed_point(entry["spec"], OBSERVE_MODES[mode])
    assert measured["stall_breakdown"] == entry[mode]["stall_breakdown"], (
        f"{name} ({mode}): stall breakdown diverged from the pin"
    )
    assert measured["observability_sha256"] == (
        entry[mode]["observability_sha256"]
    ), f"{name} ({mode}): RunResult.observability diverged from the pin"
