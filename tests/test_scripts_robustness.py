"""Robustness of the experiment scripts: guard rails, checkpoint, flags."""

import glob
import json
import os
import signal
import sys
from types import SimpleNamespace

import pytest

from repro.analysis.runner import write_checked_json
from repro.verify import faultinject

SCRIPTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)
sys.path.insert(0, SCRIPTS_DIR)

import check_hotloop  # noqa: E402
import profile_step  # noqa: E402
import run_experiments  # noqa: E402
import update_goldens  # noqa: E402
import verify_tool  # noqa: E402
from run_experiments import SweepCheckpoint  # noqa: E402


class TestCheckHotloopGuards:
    """A broken baseline must produce an actionable message, not a traceback."""

    def run_main(self, monkeypatch, capsys, baseline_path):
        monkeypatch.setattr(
            check_hotloop, "HOTLOOP_BASELINE", str(baseline_path)
        )
        status = check_hotloop.main([])
        return status, capsys.readouterr().out

    def test_missing_baseline(self, tmp_path, monkeypatch, capsys):
        status, out = self.run_main(
            monkeypatch, capsys, tmp_path / "nowhere.json"
        )
        assert status == 2
        assert "no hot-loop baseline" in out
        assert "git checkout" in out  # tells the user how to fix it

    def test_unparseable_baseline(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text("{not json at all")
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "unreadable or malformed" in out
        assert "re-record" in out

    def test_wrong_shape_baseline(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text('["a", "list"]')
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "unreadable or malformed" in out

    def test_missing_required_field(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text('{"config": {}, "before_seconds": 1.0}')
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "calibration_seconds" in out

    def test_unarmed_baseline_names_the_remedy(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text(
            '{"config": {}, "before_seconds": 1.0, '
            '"calibration_seconds": 0.1}'
        )
        status, out = self.run_main(monkeypatch, capsys, baseline)
        assert status == 2
        assert "optimized_speedup" in out


class TestSampledPointCoreCountSkip:
    """The sharded latency check only runs on a matching core count.

    The baseline's sharded curve was recorded on a known core count
    (``cpu_count`` in results/hotloop_baseline.json); on any other
    machine the pool-dispatch-vs-parallelism tradeoff differs, so the
    sharded comparison is skipped with a notice while the serial curve
    and the bit-identity check still run.
    """

    BASELINE = {
        "cpu_count": 1,
        "sampled_point": {
            "config": {"window_jobs": 4},
            "serial_seconds": 2.0,
            "sharded_seconds": 3.0,
            "calibration_seconds": 0.1,
            "cores_recorded": 1,
        },
    }

    def record(self, cores, sharded_seconds=3.0):
        return {
            "config": {"window_jobs": 4},
            "chunks": 8,
            "cores": cores,
            "identical": True,
            "machine_factor": 1.0,
            "baseline_serial_seconds": 2.0,
            "baseline_sharded_seconds": 3.0,
            "serial_seconds": 2.0,
            "sharded_seconds": sharded_seconds,
            "shard_speedup": 2.0 / sharded_seconds,
        }

    def run_check(self, monkeypatch, record):
        monkeypatch.setattr(
            check_hotloop, "measure_sampled_point", lambda runner: record
        )
        return check_hotloop.check_sampled_point(
            None, self.BASELINE, max_regression=0.25
        )

    def test_matching_cores_checks_both_curves(
        self, monkeypatch, capsys
    ):
        status = self.run_check(monkeypatch, self.record(cores=1))
        out = capsys.readouterr().out
        assert status == 0
        assert "[serial]" in out and "[sharded]" in out
        assert "skipped" not in out

    def test_mismatched_cores_skips_only_the_sharded_curve(
        self, monkeypatch, capsys
    ):
        # A wildly regressed sharded time must NOT fail on a 4-core
        # box when the baseline was recorded on 1 core.
        status = self.run_check(
            monkeypatch, self.record(cores=4, sharded_seconds=50.0)
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "latency check skipped" in out
        assert "[serial]" in out
        assert "4 cores" in out and "recorded on 1" in out

    def test_mismatched_cores_still_guards_serial_and_identity(
        self, monkeypatch, capsys
    ):
        record = self.record(cores=4)
        record["identical"] = False
        assert self.run_check(monkeypatch, record) == 1
        assert "BIT-IDENTITY BROKEN" in capsys.readouterr().out


class TestCheckFlatBackendGuards:
    BASELINE = {
        "cycles": 30572,
        "flat_backend": {
            "flat_seconds": 1.1,
            "calibration_seconds": 0.1,
            "compiled": False,
            "target_speedup_vs_prepr2": 5.0,
        },
    }

    def record(self, **overrides):
        base = {
            "config": {},
            "compiled": False,
            "identical": True,
            "machine_factor": 1.0,
            "baseline_flat_seconds": 1.1,
            "baseline_compiled": False,
            "target_speedup_vs_prepr2": 5.0,
            "flat_seconds": 1.1,
            "object_seconds": 1.0,
            "speedup_vs_object": 0.9,
            "adjusted_prepr2_seconds": 1.6,
            "speedup_vs_prepr2": 1.45,
        }
        base.update(overrides)
        return base

    def run_check(self, monkeypatch, record, allow_drift=False):
        monkeypatch.setattr(
            check_hotloop, "measure_flat_backend", lambda runner: record
        )
        return check_hotloop.check_flat_backend(
            None, self.BASELINE, max_regression=0.25, allow_drift=allow_drift
        )

    def test_within_budget_passes(self, monkeypatch, capsys):
        assert self.run_check(monkeypatch, self.record()) == 0
        out = capsys.readouterr().out
        assert "[OK]" in out
        assert "tracked only: pure-python kernel" in out

    def test_missing_baseline_section_is_actionable(self, capsys):
        status = check_hotloop.check_flat_backend(
            None, {"cycles": 1}, max_regression=0.25, allow_drift=False
        )
        assert status == 2
        assert "no flat_backend record" in capsys.readouterr().out

    def test_bit_identity_break_fails_unconditionally(
        self, monkeypatch, capsys
    ):
        record = self.record(identical=False, flat_seconds=0.01)
        assert self.run_check(monkeypatch, record) == 1
        assert "BIT-IDENTITY BROKEN" in capsys.readouterr().out

    def test_latency_regression_fails(self, monkeypatch, capsys):
        record = self.record(flat_seconds=2.0)
        assert self.run_check(monkeypatch, record) == 1
        assert "[REGRESSION]" in capsys.readouterr().out

    def test_cycle_drift_fails_without_allow_drift(
        self, monkeypatch, capsys
    ):
        record = self.record(speedup_vs_prepr2=None, note="cycle drift")
        assert self.run_check(monkeypatch, record) == 1
        assert self.run_check(monkeypatch, record, allow_drift=True) == 0

    def test_pure_python_below_target_is_tracked_not_gated(
        self, monkeypatch
    ):
        # speedup_vs_prepr2 1.45 is far below the 5x target; with a
        # pure-python kernel that is informational, not a failure.
        assert (
            self.run_check(monkeypatch, self.record(speedup_vs_prepr2=1.45))
            == 0
        )

    def test_compiled_kernel_below_target_is_gated(
        self, monkeypatch, capsys
    ):
        record = self.record(
            compiled=True, baseline_compiled=True, speedup_vs_prepr2=2.0
        )
        assert self.run_check(monkeypatch, record) == 1
        assert "below the recorded target" in capsys.readouterr().out


class TestMeasureHotLoopGuard:
    def test_malformed_baseline_returns_none_with_warning(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = tmp_path / "hotloop_baseline.json"
        baseline.write_text("{torn")
        monkeypatch.setattr(
            run_experiments, "HOTLOOP_BASELINE", str(baseline)
        )
        assert run_experiments.measure_hot_loop(runner=None) is None
        assert "unreadable" in capsys.readouterr().err

    def test_missing_baseline_is_silent_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            run_experiments, "HOTLOOP_BASELINE", str(tmp_path / "none.json")
        )
        assert run_experiments.measure_hot_loop(runner=None) is None


class TestSweepCheckpoint:
    KEY = {"scale": "1e-05", "sampling": None, "code_version": "v1"}

    def test_fresh_checkpoint_resumes_nothing(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), self.KEY)
        assert checkpoint.resumed_from == []

    def test_marks_survive_and_resume(self, tmp_path):
        first = SweepCheckpoint(str(tmp_path), self.KEY)
        first.mark("figure5")
        first.mark("figure6")
        resumed = SweepCheckpoint(str(tmp_path), self.KEY)
        assert resumed.resumed_from == ["figure5", "figure6"]

    def test_key_mismatch_invalidates(self, tmp_path):
        SweepCheckpoint(str(tmp_path), self.KEY).mark("figure5")
        other = dict(self.KEY, code_version="v2")
        assert SweepCheckpoint(str(tmp_path), other).resumed_from == []

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        SweepCheckpoint(str(tmp_path), self.KEY).mark("figure5")
        with open(tmp_path / "sweep-checkpoint.json", "w") as handle:
            handle.write("{torn")
        assert SweepCheckpoint(str(tmp_path), self.KEY).resumed_from == []

    def test_clear_removes_the_file(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path), self.KEY)
        checkpoint.mark("figure5")
        checkpoint.clear()
        assert not os.path.exists(tmp_path / "sweep-checkpoint.json")
        assert SweepCheckpoint(str(tmp_path), self.KEY).resumed_from == []

    def test_no_cache_dir_disables_persistence(self):
        checkpoint = SweepCheckpoint(None, self.KEY)
        checkpoint.mark("figure5")  # must not raise
        checkpoint.clear()


class TestFlagValidation:
    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_experiments.parse_args(["--retries", "-1"])

    def test_zero_max_failures_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_experiments.parse_args(["--max-failures", "0"])

    def test_resilience_flags_parse(self):
        args = run_experiments.parse_args(
            [
                "--timeout", "30", "--retries", "2",
                "--max-failures", "3", "--fail-fast",
            ]
        )
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.max_failures == 3
        assert args.fail_fast


# ----- the full driver under interruption and fault summaries -----------------


def _figure_stub(name):
    """A driver double: accepts the timed() kwargs, returns a report."""

    def driver(scale, runner, **kwargs):
        runs = {
            (isa, "rr", 8): SimpleNamespace(vector_only_fraction=0.01)
            for isa in ("mmx", "mom")
        }
        return SimpleNamespace(
            report=f"{name} stub report", measured={"figure": name}, runs=runs
        )

    return driver


def _stub_all_figures(monkeypatch):
    for attr in (
        "run_breakdown_table3", "run_fig4_ideal", "run_fig5_real",
        "run_table4_cache", "run_fig6_fetch", "run_fig8_decoupled",
        "run_fig9_summary", "run_stall_breakdown",
    ):
        monkeypatch.setattr(run_experiments, attr, _figure_stub(attr))


def _checkpoint_key(scale=1e-5):
    return {
        "scale": repr(scale),
        "sampling": None,
        "code_version": run_experiments.code_version(),
    }


class TestSigtermCheckpointFlush:
    def test_sigterm_mid_sweep_flushes_checkpoint_and_exits_143(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            run_experiments, "RESULTS_DIR", str(tmp_path / "results")
        )
        _stub_all_figures(monkeypatch)

        def dying_fig4(scale, runner, **kwargs):
            # Stand-in for a scheduler's polite kill arriving mid-figure:
            # the handler main() installed turns it into SystemExit(143).
            signal.raise_signal(signal.SIGTERM)
            pytest.fail("the SIGTERM handler did not unwind the sweep")

        monkeypatch.setattr(run_experiments, "run_fig4_ideal", dying_fig4)
        cache_dir = str(tmp_path / "cache")
        rc = run_experiments.main(
            ["1e-5", "--cache-dir", cache_dir, "--output", "-"]
        )
        assert rc == 128 + signal.SIGTERM

        # The checkpoint was flushed mid-unwind: a rerun resumes from
        # table3 exactly as it would after a SIGKILL.
        resumed = SweepCheckpoint(cache_dir, _checkpoint_key())
        assert resumed.resumed_from == ["table3"]

        captured = capsys.readouterr()
        assert "interrupted; figure checkpoint flushed" in captured.err
        assert "resilience:" in captured.out
        with open(
            os.path.join(str(tmp_path / "results"), "BENCH_experiments.json")
        ) as handle:
            bench = json.load(handle)
        assert bench["status"] == "interrupted"


class TestResilienceSummaryLine:
    def test_summary_printed_on_a_clean_run(
        self, tmp_path, monkeypatch, capsys
    ):
        # The line must appear unconditionally — a clean run is visibly
        # clean, not silent (the counts used to ride BENCH provenance
        # only).
        monkeypatch.setattr(
            run_experiments, "RESULTS_DIR", str(tmp_path / "results")
        )
        _stub_all_figures(monkeypatch)
        rc = run_experiments.main([
            "1e-5", "--cache-dir", str(tmp_path / "cache"),
            "--output", "-", "--no-hotloop",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert (
            "resilience: 0 retries, 0 timeouts, 0 pool restarts" in out
        )
        with open(
            os.path.join(str(tmp_path / "results"), "BENCH_experiments.json")
        ) as handle:
            assert json.load(handle)["status"] == "ok"


# ----- verify_tool cache subcommand -------------------------------------------


class TestVerifyToolCache:
    def entry(self, directory, name="aa"):
        path = os.path.join(str(directory), f"{name}.json")
        write_checked_json(path, {"result": {"ipc": 1.0}})
        return path

    def test_clean_cache_passes(self, tmp_path, capsys):
        self.entry(tmp_path)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is True
        out = capsys.readouterr().out
        assert "1 ok, 0 corrupt, 0 legacy, 0 quarantined" in out

    def test_missing_directory_is_clean(self, tmp_path, capsys):
        assert verify_tool.run_cache(cache_dir=str(tmp_path / "no")) is True
        assert "no cache directory" in capsys.readouterr().out

    def test_corrupt_entry_fails_with_hint(self, tmp_path, capsys):
        self.entry(tmp_path)
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(faultinject.CORRUPT_PAYLOAD)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is False
        out = capsys.readouterr().out
        assert "1 ok, 1 corrupt" in out
        assert "CORRUPT" in out
        assert "--purge-corrupt" in out

    def test_purge_quarantines_and_rescans_clean(self, tmp_path, capsys):
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(faultinject.CORRUPT_PAYLOAD)
        assert (
            verify_tool.run_cache(cache_dir=str(tmp_path), purge=True)
            is True
        )
        assert "purged" in capsys.readouterr().out
        assert not os.path.exists(corrupt)
        assert not glob.glob(os.path.join(str(tmp_path), "*.corrupt"))
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is True

    def test_legacy_entries_reported_but_not_fatal(self, tmp_path, capsys):
        with open(os.path.join(str(tmp_path), "old.json"), "w") as handle:
            json.dump({"pre-checksum": True}, handle)
        assert verify_tool.run_cache(cache_dir=str(tmp_path)) is True
        out = capsys.readouterr().out
        assert "1 legacy" in out
        assert "LEGACY" in out

    def test_main_cache_subcommand_gates_exit_status(self, tmp_path, capsys):
        corrupt = self.entry(tmp_path, name="bb")
        with open(corrupt, "wb") as handle:
            handle.write(faultinject.CORRUPT_PAYLOAD)
        # main() receives a full argv (program name first).
        argv = ["verify_tool.py", "cache", "--cache-dir", str(tmp_path)]
        assert verify_tool.main(argv) == 1
        assert verify_tool.main(argv + ["--purge-corrupt"]) == 0


class TestProfileStep:
    """The per-stage bytecode profile of ``SMTProcessor.step()``."""

    def test_step_carries_every_stage_marker_in_pipeline_order(self):
        from repro.core.smt import SMTProcessor

        stages = profile_step.stage_of_lines(SMTProcessor.step)
        opened = [
            stage for line, stage in sorted(stages.items())
            if stages.get(line - 1) != stage
        ]
        assert opened == ["entry", *profile_step.STAGES]

    def test_missing_marker_is_an_error(self):
        def partial():
            # stage: complete
            # stage: commit
            return None

        with pytest.raises(ValueError, match="stage markers"):
            profile_step.stage_of_lines(partial)

    def test_counts_are_deterministic(self):
        first = profile_step.profile_point("mom", 2, 1e-5, 0)
        second = profile_step.profile_point("mom", 2, 1e-5, 0)
        assert first == second
        assert all(first["bytecodes"][stage] > 0
                   for stage in profile_step.STAGES)
        assert first["committed"] > 0
        assert first["per_inst_obs"] == 0

    def test_obs_column_counts_observer_bytecodes(self):
        observed = profile_step.profile_point("mom", 2, 1e-5, 0, "metrics")
        plain = profile_step.profile_point("mom", 2, 1e-5, 0)
        assert observed["per_inst_obs"] > 0
        assert observed["point"] == "mom-2T metrics"
        assert observed["committed"] == plain["committed"]

    def test_table_has_a_row_per_point(self):
        record = {
            "point": "mom-2T", "committed": 40, "cycles": 30,
            "per_inst": dict.fromkeys(profile_step.COLUMNS, 2.0),
            "per_inst_total": 12.0, "per_inst_obs": 0.5,
        }
        lines = profile_step.render([record, record]).splitlines()
        assert lines[0] == (
            "| point | committed | cycles | entry | complete | commit | "
            "issue | dispatch | fetch | total | obs |"
        )
        assert lines[2:] == [
            "| mom-2T | 40 | 30 | 2.0 | 2.0 | 2.0 | 2.0 | 2.0 | 2.0 | 12.0 "
            "| 0.5 |"
        ] * 2

    def test_restores_the_previous_trace_function(self):
        from repro.core.smt import SMTProcessor

        def outer_tracer(frame, event, arg):
            return None

        saved = sys.gettrace()
        sys.settrace(outer_tracer)
        try:
            with profile_step.OpcodeCounter(SMTProcessor.step.__code__):
                inside = sys.gettrace()
            restored = sys.gettrace()
        finally:
            sys.settrace(saved)
        assert inside is not outer_tracer
        assert restored is outer_tracer

    def test_no_simulator_module_imports_it(self):
        import ast

        src = os.path.join(os.path.dirname(SCRIPTS_DIR), "src")
        for root, __, names in os.walk(src):
            for name in names:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(root, name)) as handle:
                    tree = ast.parse(handle.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        continue
                    assert not any(
                        "profile_step" in module for module in modules
                    ), name


class TestRecordBitidentPins:
    """``update_goldens.py --bitident`` writes pins the suite accepts."""

    def test_rerecording_a_pin_reproduces_it(self, tmp_path):
        source = os.path.join(
            os.path.dirname(SCRIPTS_DIR), "tests", "golden", "bitident.json"
        )
        with open(source) as handle:
            document = json.load(handle)
        name = "mmx/1T/conventional/rr"
        pinned = document["runs"].pop(name)
        with open(tmp_path / "bitident.json", "w") as handle:
            json.dump(document, handle)
        assert update_goldens.record_bitident([name], str(tmp_path)) == 0
        with open(tmp_path / "bitident.json") as handle:
            assert json.load(handle)["runs"][name] == pinned

    def test_malformed_name_is_rejected(self, tmp_path, capsys):
        with open(tmp_path / "bitident.json", "w") as handle:
            json.dump({"scale": 2e-5, "runs": {}}, handle)
        assert update_goldens.record_bitident(
            ["mmx-1T-conventional"], str(tmp_path)
        ) == 2
        assert "isa/<N>T/memory/policy" in capsys.readouterr().out
