"""The experiment run engine: fingerprints, caching, dedup, parallelism."""

import dataclasses
import gc
import json
import multiprocessing
import os
from collections import Counter

import pytest

from repro.analysis.runner import (
    ResultStore,
    RunRequest,
    Runner,
    code_version,
    execute_request,
    memory_factory,
    result_from_dict,
    result_to_dict,
)
from repro.core.fetch import FetchPolicy
from repro.memory.hierarchy import ConventionalHierarchy
from repro.memory.perfect import PerfectMemory
from repro.tracegen import serialize
from repro.workloads.mediabench import build_workload_traces

#: Small enough for sub-second runs, large enough that every program
#: contributes instructions.
SCALE = 1.2e-5


def tiny(**overrides) -> RunRequest:
    base = dict(isa="mmx", n_threads=2, scale=SCALE)
    base.update(overrides)
    return RunRequest(**base)


class TestRunRequest:
    def test_fingerprint_stable(self):
        assert tiny().fingerprint("v") == tiny().fingerprint("v")

    @pytest.mark.parametrize(
        "change",
        [
            {"isa": "mom"},
            {"n_threads": 4},
            {"memory": "perfect"},
            {"fetch_policy": "icount"},
            {"scale": 1.3e-5},
            {"seed": 1},
            {"completions_target": 16},
            {"sampling": (5000, 500, 100)},
        ],
    )
    def test_fingerprint_covers_every_field(self, change):
        assert tiny(**change).fingerprint("v") != tiny().fingerprint("v")

    def test_fingerprint_covers_code_version(self):
        assert tiny().fingerprint("v1") != tiny().fingerprint("v2")

    def test_enum_policy_normalized(self):
        assert tiny(fetch_policy=FetchPolicy.ICOUNT) == tiny(
            fetch_policy="icount"
        )

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)

    def test_memory_factory(self):
        assert memory_factory("perfect") is PerfectMemory
        assert memory_factory("conventional") is ConventionalHierarchy
        with pytest.raises(ValueError):
            memory_factory("imaginary")


class TestWindowJobsExemption:
    """window_jobs is audited out of the fingerprint, not forgotten.

    The sampled schedule chunks identically for every window_jobs value
    (sampled_chunk_count is a pure function of config and workload) and
    merges in fixed chunk order, so serial and sharded execution are
    bit-identical — fingerprinting the knob would fork the result cache
    on a pure execution strategy.  These tests pin that choice: the
    exemption table stays honest, and equality/hash/fingerprint all
    agree that two requests differing only in window_jobs are the same
    simulation point.
    """

    def test_exempt_table_lists_real_request_fields(self):
        from repro.analysis.runner import FINGERPRINT_EXEMPT_REQUEST_FIELDS

        names = {field.name for field in dataclasses.fields(RunRequest)}
        for name, rationale in FINGERPRINT_EXEMPT_REQUEST_FIELDS.items():
            assert name in names, f"stale exemption entry {name!r}"
            assert rationale and isinstance(rationale, str)
        assert "window_jobs" in FINGERPRINT_EXEMPT_REQUEST_FIELDS

    def test_window_jobs_not_in_fingerprint(self):
        assert (
            tiny(window_jobs=4).fingerprint("v") == tiny().fingerprint("v")
        )

    def test_window_jobs_not_in_equality_or_hash(self):
        assert tiny(window_jobs=4) == tiny()
        assert hash(tiny(window_jobs=4)) == hash(tiny())

    def test_window_jobs_normalized(self):
        assert tiny(window_jobs=0).window_jobs == 1
        assert tiny(window_jobs="3").window_jobs == 3

    def test_replace_preserves_identity(self):
        request = tiny(sampling=(1000, 200, 50))
        rewritten = dataclasses.replace(request, window_jobs=8)
        assert rewritten == request
        assert rewritten.window_jobs == 8
        assert rewritten.fingerprint("v") == request.fingerprint("v")


class TestBackendExemption:
    """backend is audited out of the fingerprint, not forgotten.

    The flat and object engines are bit-identical by contract
    (tests/test_engine_flat.py pins it against golden hashes), so the
    engine choice is a pure execution strategy: fingerprinting it would
    fork the result cache on a knob that cannot move a result.  These
    tests mirror the window_jobs exemption above — the exemption table
    stays honest, and equality/hash/fingerprint all agree that two
    requests differing only in backend are the same simulation point.
    """

    def test_backend_in_exempt_table(self):
        from repro.analysis.runner import FINGERPRINT_EXEMPT_REQUEST_FIELDS

        assert "backend" in FINGERPRINT_EXEMPT_REQUEST_FIELDS

    def test_backend_not_in_fingerprint(self):
        assert (
            tiny(backend="flat").fingerprint("v") == tiny().fingerprint("v")
        )

    def test_backend_not_in_equality_or_hash(self):
        assert tiny(backend="flat") == tiny(backend="object")
        assert hash(tiny(backend="flat")) == hash(tiny(backend="object"))

    def test_backend_validated(self):
        with pytest.raises(ValueError, match="backend"):
            tiny(backend="vectorized")

    def test_replace_preserves_identity(self):
        request = tiny(sampling=(1000, 200, 50))
        rewritten = dataclasses.replace(request, backend="flat")
        assert rewritten == request
        assert rewritten.backend == "flat"
        assert rewritten.fingerprint("v") == request.fingerprint("v")

    def test_runner_backend_override_validated(self):
        with pytest.raises(ValueError, match="backend"):
            Runner(backend="vectorized")


class TestResultRoundTrip:
    def test_lossless(self):
        result = execute_request(tiny())
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert rebuilt == result

    def test_preserves_nested_stats(self):
        result = execute_request(tiny())
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.memory.l1.hit_rate == result.memory.l1.hit_rate
        assert dataclasses.asdict(rebuilt) == dataclasses.asdict(result)


class TestRunnerCaching:
    def test_cold_run_simulates_then_warm_run_does_not(self, tmp_path):
        cold = Runner(cache_dir=str(tmp_path))
        first = cold.run(tiny())
        assert cold.stats.simulated == 1

        warm = Runner(cache_dir=str(tmp_path))
        second = warm.run(tiny())
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == 1
        assert second == first

    def test_config_change_misses(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(tiny())
        other = Runner(cache_dir=str(tmp_path))
        other.run(tiny(memory="perfect"))
        assert other.stats.disk_hits == 0
        assert other.stats.simulated == 1

    def test_seed_change_misses(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(tiny())
        other = Runner(cache_dir=str(tmp_path))
        other.run(tiny(seed=3))
        assert other.stats.disk_hits == 0
        assert other.stats.simulated == 1

    def test_code_version_bump_invalidates(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        runner.run(tiny())
        bumped = Runner(cache_dir=str(tmp_path), version="v2")
        bumped.run(tiny())
        assert bumped.stats.disk_hits == 0
        assert bumped.stats.simulated == 1

    def test_corrupt_cache_entry_resimulated(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        runner.run(tiny())
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{ not json")
        recovered = Runner(cache_dir=str(tmp_path), version="v1")
        recovered.run(tiny())
        assert recovered.stats.simulated == 1

    def test_no_cache_dir_still_memoizes(self):
        runner = Runner()
        runner.run(tiny())
        runner.run(tiny())
        assert runner.stats.simulated == 1
        assert runner.stats.memo_hits == 1

    def test_traces_cached_on_disk(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(tiny())
        traces = os.listdir(runner.trace_dir)
        assert traces and all(t.endswith(".trace") for t in traces)


class TestRunnerDedup:
    def test_duplicate_requests_simulate_once(self):
        runner = Runner()
        results = runner.run_batch([tiny(), tiny(), tiny()])
        assert runner.stats.requested == 3
        assert runner.stats.deduplicated == 2
        assert runner.stats.simulated == 1
        assert len(results) == 1

    def test_distinct_requests_all_run(self):
        runner = Runner()
        batch = [tiny(), tiny(isa="mom")]
        results = runner.run_batch(batch)
        assert runner.stats.simulated == 2
        assert set(results) == set(batch)


class TestRunnerParallel:
    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        batch = [
            tiny(),
            tiny(isa="mom"),
            tiny(memory="perfect"),
            tiny(fetch_policy="icount"),
        ]
        serial = Runner().run_batch(batch)
        parallel = Runner(jobs=2).run_batch(batch)
        for request in batch:
            assert parallel[request] == serial[request], request

    def test_warm_cache_matches_cold_bit_for_bit(self, tmp_path):
        batch = [tiny(), tiny(isa="mom")]
        cold = Runner(cache_dir=str(tmp_path)).run_batch(batch)
        warm_runner = Runner(cache_dir=str(tmp_path))
        warm = warm_runner.run_batch(batch)
        assert warm_runner.stats.simulated == 0
        assert warm == cold


class TestRunnerPool:
    """One worker pool per runner: forked once, kept across batches."""

    BATCHES = (
        (tiny(), tiny(isa="mom")),
        (tiny(memory="perfect"), tiny(isa="mom", memory="perfect")),
    )

    def test_one_pool_serves_consecutive_batches(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        # Trace files on disk first, so the workers parse them rather
        # than generate them.
        trace_dir = ResultStore(cache_dir).trace_dir
        for isa in ("mmx", "mom"):
            build_workload_traces(
                isa, scale=SCALE, cache=serialize.TraceCache(trace_dir)
            )
        log = tmp_path / "loads.log"
        real_load = serialize.load_trace

        def counting_load(path):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {os.path.basename(path)}\n")
            return real_load(path)

        # Installed before the runner is built: its workers inherit it.
        monkeypatch.setattr(serialize, "load_trace", counting_load)
        pooled = {}
        with Runner(jobs=2, cache_dir=cache_dir) as runner:
            for batch in self.BATCHES:
                pooled.update(runner.run_batch(list(batch)))
        assert runner.stats.simulated == 4
        assert runner.stats.pool_starts == 1

        loads = Counter(log.read_text().splitlines())
        assert loads, "no worker parsed a trace: the counter never ran"
        assert max(loads.values()) == 1, "a worker parsed a trace twice"
        workers = {line.split()[0] for line in loads}
        assert str(os.getpid()) not in workers
        assert len(workers) <= 2, "the second batch ran on new workers"

        serial = Runner().run_batch(
            [request for batch in self.BATCHES for request in batch]
        )
        assert pooled == serial

    def test_cached_replay_forks_nothing(self, tmp_path):
        batch = list(self.BATCHES[0])
        with Runner(jobs=2, cache_dir=str(tmp_path)) as cold:
            cold.run_batch(batch)
        children = set(multiprocessing.active_children())
        with Runner(jobs=2, cache_dir=str(tmp_path)) as warm:
            warm.run_batch(batch)
            assert set(multiprocessing.active_children()) == children
        assert warm.stats.disk_hits == 2
        assert warm.stats.simulated == 0
        assert warm.stats.pool_starts == 0

    def test_close_leaves_no_live_worker(self):
        children = set(multiprocessing.active_children())
        runner = Runner(jobs=2)
        runner.run_batch(list(self.BATCHES[0]))
        assert set(multiprocessing.active_children()) > children
        runner.close()
        assert set(multiprocessing.active_children()) == children
        runner.close()  # a second close is a no-op
        assert runner.stats.pool_starts == 1

    def test_with_block_closes_the_pool(self):
        children = set(multiprocessing.active_children())
        with Runner(jobs=2) as runner:
            runner.run_batch(list(self.BATCHES[0]))
            assert set(multiprocessing.active_children()) > children
        assert set(multiprocessing.active_children()) == children

    def test_garbage_collection_releases_the_pool(self):
        children = set(multiprocessing.active_children())
        runner = Runner(jobs=2)
        runner.run_batch(list(self.BATCHES[0]))
        assert set(multiprocessing.active_children()) > children
        del runner
        gc.collect()
        assert set(multiprocessing.active_children()) == children


class TestRunnerStats:
    def test_delta_since(self):
        runner = Runner()
        before = runner.stats.snapshot()
        runner.run(tiny())
        delta = runner.stats.delta_since(before)
        assert delta["simulated"] == 1
        assert delta["sim_instructions"] > 0
        assert delta["sim_cycles"] > 0

    def test_cache_hits_carry_sim_provenance(self, tmp_path):
        # A cached result remembers the wall time and size of the run
        # that produced it, so fully-cached sweeps can still report the
        # throughput behind their numbers instead of null.
        cold = Runner(cache_dir=str(tmp_path))
        result = cold.run(tiny())
        warm = Runner(cache_dir=str(tmp_path))
        warm.run(tiny())
        assert warm.stats.simulated == 0
        assert warm.stats.cached_sim_seconds > 0
        assert warm.stats.cached_instructions == (
            result.committed_instructions
        )


class TestArtifactCache:
    def test_computed_once_and_round_tripped(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1.5, "names": ["a", "b"]}

        first = runner.artifact("t", {"scale": "1"}, compute)
        again = runner.artifact("t", {"scale": "1"}, compute)
        assert first == again == {"x": 1.5, "names": ["a", "b"]}
        assert len(calls) == 1
        assert runner.stats.artifact_hits == 1

    def test_persists_across_runners(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        runner.artifact("t", {"scale": "1"}, lambda: [1, 2])
        fresh = Runner(cache_dir=str(tmp_path), version="v1")
        value = fresh.artifact(
            "t", {"scale": "1"}, lambda: pytest.fail("should be cached")
        )
        assert value == [1, 2]
        assert fresh.stats.artifact_hits == 1

    def test_keyed_by_payload_and_version(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path), version="v1")
        assert runner.artifact("t", {"scale": "1"}, lambda: 1) == 1
        assert runner.artifact("t", {"scale": "2"}, lambda: 2) == 2
        bumped = Runner(cache_dir=str(tmp_path), version="v2")
        assert bumped.artifact("t", {"scale": "1"}, lambda: 3) == 3
