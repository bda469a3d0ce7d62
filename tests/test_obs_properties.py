"""Property-based tests of the observability event-stream invariants.

Random instruction mixes run through the fully-observed pipeline; the
captured per-instruction records must satisfy the invariants
``validate_records`` enforces — stage ordering, per-thread monotone
fetch/commit cycles, no events after squash — and observation must never
change timing.  Seeded-defect negatives (the ``verify`` suites' style)
corrupt known-good record streams one invariant at a time and assert the
validator names the exact violation code.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SMTConfig, SMTProcessor
from repro.memory import ConventionalHierarchy, PerfectMemory
from repro.obs import (
    STAGES,
    Histogram,
    InstRecord,
    ObservabilityError,
    PipelineObserver,
    parse_ascii,
    render_ascii,
    validate_records,
)
from tests.test_core_properties import OP_KINDS, build_random_trace

kind_lists = st.lists(st.sampled_from(OP_KINDS), min_size=5, max_size=250)


def run_observed_trace(trace, n_threads=1):
    observer = PipelineObserver()
    processor = SMTProcessor(
        SMTConfig(isa=trace.isa, n_threads=n_threads, observe=observer),
        PerfectMemory(),
        [trace] * n_threads,
        completions_target=n_threads,
        warmup_fraction=0.0,
        max_cycles=2_000_000,
    )
    return observer, processor.run()


class TestEventStreamInvariants:
    @given(kind_lists, st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_records_satisfy_all_invariants(self, kinds, seed):
        trace = build_random_trace(kinds, seed)
        observer, result = run_observed_trace(trace)
        assert validate_records(observer.records) == len(observer.records)
        committed = sum(1 for r in observer.records if r.committed)
        # Perfect memory, single program: every fetched instruction of
        # the completed program commits; records are per instruction.
        assert committed == len(kinds)

    @given(kind_lists, st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_observation_does_not_change_timing(self, kinds, seed):
        trace = build_random_trace(kinds, seed)
        observer, observed = run_observed_trace(trace)
        plain = SMTProcessor(
            SMTConfig(isa=trace.isa),
            PerfectMemory(),
            [trace],
            completions_target=1,
            warmup_fraction=0.0,
            max_cycles=2_000_000,
        ).run()
        assert observed.cycles == plain.cycles
        assert observed.committed_instructions == plain.committed_instructions

    @given(kind_lists, st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_two_thread_streams_interleave_legally(self, kinds, seed):
        trace = build_random_trace(kinds, seed)
        observer, __ = run_observed_trace(trace, n_threads=2)
        validate_records(observer.records)
        threads = {record.thread for record in observer.records}
        assert threads <= {0, 1}

    @given(kind_lists, st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_ascii_round_trip_is_lossless(self, kinds, seed):
        trace = build_random_trace(kinds, seed)
        observer, __ = run_observed_trace(trace)
        records = observer.records
        parsed = parse_ascii(render_ascii(records, max_width=1 << 22))
        assert len(parsed) == len(records)
        for original, restored in zip(records, parsed):
            for stage in ("fetch", "dispatch", "issue", "complete",
                          "commit", "squash"):
                assert getattr(original, stage) == getattr(restored, stage)


# ----- seeded defects: the validator catches exactly what broke -------------


def clean_records():
    records = []
    for uid in range(4):
        record = InstRecord(uid, 0, 0x100 + 4 * uid, 1, 1, 10 + uid, False)
        record.dispatch = 12 + uid
        record.issue = 14 + uid
        record.complete = 18 + uid
        record.commit = 20 + uid
        records.append(record)
    return records


def expect_violation(records, code):
    with pytest.raises(ObservabilityError) as excinfo:
        validate_records(records)
    assert excinfo.value.code == code
    assert excinfo.value.component == "events"
    assert excinfo.value.details
    return excinfo.value


def test_clean_stream_validates():
    assert validate_records(clean_records()) == 4


def test_defect_stage_order_issue_before_dispatch():
    records = clean_records()
    records[1].issue = records[1].dispatch - 1
    error = expect_violation(records, "OBS-STAGE-ORDER")
    assert error.details["stage"] == "issue"


def test_defect_commit_before_complete():
    records = clean_records()
    records[2].commit = records[2].complete - 1
    expect_violation(records, "OBS-STAGE-ORDER")


def test_defect_stage_gap():
    records = clean_records()
    records[0].issue = None          # later stages still set
    expect_violation(records, "OBS-STAGE-GAP")


def test_defect_missing_fetch():
    records = clean_records()
    records[3].fetch = None
    expect_violation(records, "OBS-NO-FETCH")


def test_defect_nonmonotone_fetch_order():
    records = clean_records()
    records[2].fetch = records[1].fetch - 2
    # Keep the record internally consistent so only ordering trips.
    expect_violation(records, "OBS-FETCH-ORDER")


def test_defect_nonmonotone_commit_order():
    records = clean_records()
    records[3].commit = records[2].commit - 2
    records[3].complete = records[3].commit
    records[3].issue = records[3].complete - 1
    records[3].dispatch = records[3].issue - 1
    records[3].fetch = records[2].fetch  # fetch order stays legal (ties ok)
    expect_violation(records, "OBS-COMMIT-ORDER")


def test_defect_commit_after_squash():
    records = clean_records()
    records[1].squash = records[1].complete
    expect_violation(records, "OBS-POST-SQUASH")


def test_defect_event_after_squash():
    records = clean_records()
    records[1].commit = None
    records[1].squash = records[1].issue
    # complete (set above) postdates the squash cycle.
    error = expect_violation(records, "OBS-POST-SQUASH")
    assert error.details["stage"] == "complete"


def test_defect_same_cycle_dispatch():
    records = clean_records()
    records[0].dispatch = records[0].fetch   # fetch < dispatch is strict
    expect_violation(records, "OBS-STAGE-ORDER")


def test_same_cycle_complete_commit_is_legal():
    records = clean_records()
    records[0].commit = records[0].complete
    assert validate_records(records) == 4


# ----- tallies: inline counts agree with the records and fold exactly ------


def stage_rows(observer, stage, n_threads):
    """Per-thread count of ``smt.<stage>/instructions``, zero-padded."""
    row = observer.registry.counter(f"smt.{stage}", "instructions").per_thread
    return [row[t] if t < len(row) else 0 for t in range(n_threads)]


class TestTallies:
    @given(kind_lists, st.integers(0, 2**16), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_stage_tallies_count_the_records(self, kinds, seed, n_threads):
        trace = build_random_trace(kinds, seed)
        observer, __ = run_observed_trace(trace, n_threads=n_threads)
        records = observer.records
        assert observer.dropped_records == 0
        for stage in STAGES:
            expected = [0] * n_threads
            for record in records:
                if getattr(record, stage) is not None:
                    expected[record.thread] += 1
            assert stage_rows(observer, stage, n_threads) == expected, stage
        # Every record was fetched, so the fetch row counts them all.
        assert sum(stage_rows(observer, "fetch", n_threads)) == len(records)

    @given(
        kind_lists,
        st.integers(0, 2**16),
        st.sampled_from([True, "metrics"]),
        st.lists(st.integers(0, 400), min_size=1, max_size=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_reads_mid_run_do_not_change_the_snapshot(
        self, kinds, seed, observe, read_after
    ):
        trace = build_random_trace(kinds, seed)

        def processor():
            return SMTProcessor(
                SMTConfig(isa=trace.isa, n_threads=2, observe=observe),
                ConventionalHierarchy(),
                [trace] * 2,
                completions_target=2,
                warmup_fraction=0.0,
                max_cycles=2_000_000,
            )

        reference = processor().run().observability
        probed = processor()
        scheduler = probed.scheduler
        for steps in sorted(read_after):
            # The run() loop, idle skips included, up to the read point.
            while probed.now < steps and not scheduler.done:
                if not probed.step() and not scheduler.done:
                    target = probed._skip_target()
                    if target > probed.now:
                        probed.now = target
            probed.observer.stall_breakdown()
            probed.observer.registry.to_dict()
        assert probed.run().observability == reference


@given(st.integers(-(2**40), 2**40))
def test_histogram_bisect_picks_the_linear_scan_bucket(value):
    histogram = Histogram()
    histogram.observe(value)
    bucket = 0
    for bound in histogram.bounds:
        if value <= bound:
            break
        bucket += 1
    expected = [0] * len(histogram.buckets)
    expected[bucket] = 1
    assert histogram.buckets == expected
