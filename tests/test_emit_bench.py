"""Regression tests for the BENCH_perf.json ``--check`` gates.

The gates run on shared 1-core CI runners, so every timing-derived
gate must know when its number is noise: the sweep wall ratio means
nothing with fewer cores than workers (satellite fix: it used to flag
a ~1.0x ratio on 1-core machines as a parallelism regression), while
the fleet digest gate is deliberately machine-independent and must
fire on any drift.
"""

import json

from benchmarks.emit_bench import (
    check_cold_start_gate,
    check_fleet_gate,
    check_single_run_gate,
    run_checks,
)
from repro.fleet import ClusterTemplate, FleetTopology, run_fleet


def committed_record(tmp_path, **overrides):
    """A minimal committed BENCH_perf.json that skips the slow gates.

    The kernel gate is skipped by recording an impossible cpu_count,
    the lint gate by omitting ``lint.cold_seconds``, and the fleet
    gate by omitting the row — each test then overrides the one block
    it exercises.
    """
    payload = {
        "machine": {"cpu_count": -1},
        "sweep": {"results_identical": True, "workers": 4,
                  "effective_cores": 4, "speedup": 1.8,
                  "measured_ratio": 1.8},
    }
    payload.update(overrides)
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestSweepRatioGate:
    def test_cpu_bound_record_skips_the_ratio_gate(self, tmp_path, capsys):
        """A ~1.0x wall ratio on a 1-core machine is not a regression."""
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 1, "speedup": None,
            "speedup_note": "cpu-bound: 1 core(s) < 4 workers",
            "measured_ratio": 0.97})
        assert run_checks(path, kernel_events=1) == 0
        assert "sweep ratio gate SKIPPED" in capsys.readouterr().out

    def test_slow_parallel_on_capable_machine_fails(self, tmp_path, capsys):
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 8, "speedup": 0.7,
            "measured_ratio": 0.7})
        assert run_checks(path, kernel_events=1) == 1
        assert "speedup 0.7 < 1.0" in capsys.readouterr().out

    def test_healthy_speedup_passes(self, tmp_path, capsys):
        path = committed_record(tmp_path)
        assert run_checks(path, kernel_events=1) == 0
        assert "sweep ratio: OK" in capsys.readouterr().out

    def test_nonidentical_results_still_fail_even_cpu_bound(self, tmp_path):
        """The byte-identity gate never has a noise excuse."""
        path = committed_record(tmp_path, sweep={
            "results_identical": False, "workers": 4,
            "effective_cores": 1, "speedup": None})
        assert run_checks(path, kernel_events=1) == 1


class TestExplicitGateField:
    """The committed record carries its own ``gate`` verdict."""

    def test_emitter_records_skipped_when_cpu_bound(self, monkeypatch):
        import benchmarks.emit_bench as emit_bench
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 1)
        sweep = emit_bench.bench_sweep(days=0.01, seeds=(42,), workers=4)
        assert sweep["gate"] == "skipped"
        assert sweep["speedup"] is None

    def test_emitter_records_active_with_enough_cores(self, monkeypatch):
        import benchmarks.emit_bench as emit_bench
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 64)
        sweep = emit_bench.bench_sweep(days=0.01, seeds=(42,), workers=1)
        assert sweep["gate"] == "active"
        assert sweep["speedup"] is not None

    def test_check_honors_explicit_skipped_gate(self, tmp_path, capsys):
        """An explicitly skipped record never trips the ratio gate,
        even when the raw ratio looks like a regression."""
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 1, "speedup": None,
            "gate": "skipped", "measured_ratio": 0.5})
        assert run_checks(path, kernel_events=1) == 0
        assert "sweep ratio gate SKIPPED" in capsys.readouterr().out

    def test_check_honors_explicit_active_gate(self, tmp_path, capsys):
        path = committed_record(tmp_path, sweep={
            "results_identical": True, "workers": 4,
            "effective_cores": 8, "speedup": 0.7,
            "gate": "active", "measured_ratio": 0.7})
        assert run_checks(path, kernel_events=1) == 1
        assert "speedup 0.7 < 1.0" in capsys.readouterr().out

    def test_committed_record_carries_the_gate_field(self):
        """The repo's own BENCH_perf.json says whether its sweep ratio
        gates anything — the skip is data, not an inference."""
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        committed = json.loads((root / "BENCH_perf.json").read_text())
        assert committed["sweep"]["gate"] in ("skipped", "active")
        if committed["sweep"]["speedup"] is None:
            assert committed["sweep"]["gate"] == "skipped"


class TestSingleRunGate:
    """The end-to-end ``single_run`` wall-time gate."""

    ROW = {"days": 0.01, "events": 1, "seconds": 10.0,
           "events_per_sec": 0.1, "passes": 3}

    def stub_run(self, monkeypatch, seconds):
        import benchmarks.emit_bench as emit_bench
        calls = []

        def fake(days):
            calls.append(days)
            return {"seconds": seconds}

        monkeypatch.setattr(emit_bench, "bench_single_run", fake)
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 2)
        return calls

    def test_missing_row_is_skipped(self, capsys):
        assert check_single_run_gate(None, committed_cpus=2) == 0
        assert "no single_run row" in capsys.readouterr().out

    def test_skipped_across_core_counts(self, monkeypatch, capsys):
        calls = self.stub_run(monkeypatch, seconds=99.0)
        assert check_single_run_gate(self.ROW, committed_cpus=1) == 0
        assert "single_run gate SKIPPED" in capsys.readouterr().out
        assert calls == []

    def test_within_tolerance_passes(self, monkeypatch, capsys):
        calls = self.stub_run(monkeypatch, seconds=12.4)
        assert check_single_run_gate(self.ROW, committed_cpus=2) == 0
        assert "-> OK" in capsys.readouterr().out
        assert calls == [0.01]  # the committed configuration

    def test_slow_run_fails(self, monkeypatch, capsys):
        self.stub_run(monkeypatch, seconds=12.6)
        assert check_single_run_gate(self.ROW, committed_cpus=2) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_run_checks_includes_the_gate(self, tmp_path, monkeypatch,
                                          capsys):
        self.stub_run(monkeypatch, seconds=30.0)
        path = committed_record(tmp_path, machine={"cpu_count": 2},
                                single_run=self.ROW)
        # The kernel gate is active too on a matching core count.
        import benchmarks.emit_bench as emit_bench
        monkeypatch.setattr(emit_bench, "check_kernel_regression",
                            lambda measured, out_path: 0)
        monkeypatch.setattr(emit_bench, "bench_kernel",
                            lambda events: {"events_per_sec": 1.0})
        assert run_checks(path, kernel_events=1) == 1
        assert "single_run seconds: measured 30.0" in capsys.readouterr().out

    def test_emitter_records_best_of_passes(self):
        import benchmarks.emit_bench as emit_bench
        row = emit_bench.bench_single_run(days=0.01)
        assert row["passes"] == emit_bench.SINGLE_RUN_PASSES
        assert row["seconds"] > 0
        assert row["events"] > 0

    def test_committed_record_has_a_single_run_row(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        committed = json.loads((root / "BENCH_perf.json").read_text())
        assert committed["single_run"]["passes"] == 3
        assert committed["single_run"]["seconds"] > 0


class TestColdStartGate:
    """The fresh-process import plus training gate."""

    ROW = {"import_s": 0.3, "train_s": 0.7, "passes": 3}

    def stub_cold_start(self, monkeypatch, import_s, train_s):
        import benchmarks.emit_bench as emit_bench
        calls = []

        def fake():
            calls.append(True)
            return {"import_s": import_s, "train_s": train_s, "passes": 3}

        monkeypatch.setattr(emit_bench, "bench_cold_start", fake)
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 2)
        return calls

    def test_missing_row_is_skipped(self, capsys):
        assert check_cold_start_gate(None, committed_cpus=2) == 0
        assert "no cold_start row" in capsys.readouterr().out

    def test_skipped_across_core_counts(self, monkeypatch, capsys):
        calls = self.stub_cold_start(monkeypatch, 9.0, 9.0)
        assert check_cold_start_gate(self.ROW, committed_cpus=1) == 0
        assert "cold_start gate SKIPPED" in capsys.readouterr().out
        assert calls == []

    def test_within_tolerance_passes(self, monkeypatch, capsys):
        self.stub_cold_start(monkeypatch, 0.35, 0.85)
        assert check_cold_start_gate(self.ROW, committed_cpus=2) == 0
        assert "-> OK" in capsys.readouterr().out

    def test_slow_cold_start_fails(self, monkeypatch, capsys):
        # scipy.stats back at import time: +0.9 s on a 1.0 s budget.
        self.stub_cold_start(monkeypatch, 1.2, 0.7)
        assert check_cold_start_gate(self.ROW, committed_cpus=2) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_run_checks_includes_the_gate(self, tmp_path, monkeypatch,
                                          capsys):
        import benchmarks.emit_bench as emit_bench
        self.stub_cold_start(monkeypatch, 5.0, 5.0)
        path = committed_record(tmp_path, machine={"cpu_count": 2},
                                cold_start=self.ROW)
        monkeypatch.setattr(emit_bench, "check_kernel_regression",
                            lambda measured, out_path: 0)
        monkeypatch.setattr(emit_bench, "bench_kernel",
                            lambda events: {"events_per_sec": 1.0})
        assert run_checks(path, kernel_events=1) == 1
        assert "cold_start seconds: measured 10.0" in capsys.readouterr().out

    def test_emitter_times_fresh_interpreters(self, monkeypatch):
        import benchmarks.emit_bench as emit_bench
        monkeypatch.setattr(emit_bench, "COLD_START_PASSES", 1)
        row = emit_bench.bench_cold_start()
        assert row["passes"] == 1
        assert row["import_s"] > 0
        assert row["train_s"] > 0

    def test_committed_record_has_a_cold_start_row(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        committed = json.loads((root / "BENCH_perf.json").read_text())
        assert committed["cold_start"]["passes"] == 3
        assert committed["cold_start"]["train_s"] > 0


class TestFleetGate:
    CONFIG = {"clusters": 1, "node_count": 4, "days": 0.05}

    def digest_of(self):
        topology = FleetTopology(
            cluster_count=self.CONFIG["clusters"], prefix="bench",
            template=ClusterTemplate(node_count=self.CONFIG["node_count"],
                                     days=self.CONFIG["days"]))
        return run_fleet(topology, max_workers=1).digest

    def test_missing_row_is_skipped(self, capsys):
        assert check_fleet_gate(None) == 0
        assert "no fleet row" in capsys.readouterr().out

    def test_recorded_mode_divergence_fails_without_replay(self, capsys):
        fleet = dict(self.CONFIG, digest="irrelevant",
                     digests_identical=False)
        assert check_fleet_gate(fleet) == 1
        assert "serial != sharded" in capsys.readouterr().out

    def test_digest_replay_matches(self, capsys):
        fleet = dict(self.CONFIG, digest=self.digest_of(),
                     digests_identical=True)
        assert check_fleet_gate(fleet) == 0
        assert "-> OK" in capsys.readouterr().out

    def test_digest_drift_fails(self, capsys):
        fleet = dict(self.CONFIG, digest="0" * 64,
                     digests_identical=True)
        assert check_fleet_gate(fleet) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestFleetWallGate:
    """The fleet row's serial wall time, gated like single_run."""

    ROW = {"clusters": 1, "node_count": 4, "days": 0.05, "digest": "d",
           "digests_identical": True, "serial_seconds": 10.0, "passes": 3}

    def stub_replay(self, monkeypatch, seconds, digest="d"):
        import benchmarks.emit_bench as emit_bench
        calls = []

        def fake(fleet, passes):
            calls.append(passes)
            return [digest] * passes, seconds

        monkeypatch.setattr(emit_bench, "replay_fleet", fake)
        monkeypatch.setattr(emit_bench.os, "cpu_count", lambda: 2)
        return calls

    def test_skipped_across_core_counts_but_digest_checked(
            self, monkeypatch, capsys):
        calls = self.stub_replay(monkeypatch, seconds=99.0)
        assert check_fleet_gate(self.ROW, committed_cpus=1) == 0
        out = capsys.readouterr().out
        assert "fleet wall-time gate SKIPPED" in out
        assert "fleet digest: measured d... vs committed d... -> OK" in out
        assert calls == [1]

    def test_within_tolerance_passes(self, monkeypatch, capsys):
        calls = self.stub_replay(monkeypatch, seconds=12.4)
        assert check_fleet_gate(self.ROW, committed_cpus=2) == 0
        assert "fleet serial seconds: measured 12.4" in \
            capsys.readouterr().out
        assert calls == [3]  # best of FLEET_PASSES

    def test_slow_fleet_fails(self, monkeypatch, capsys):
        self.stub_replay(monkeypatch, seconds=12.6)
        assert check_fleet_gate(self.ROW, committed_cpus=2) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_slow_and_drifted_count_twice(self, monkeypatch):
        self.stub_replay(monkeypatch, seconds=12.6, digest="e")
        assert check_fleet_gate(self.ROW, committed_cpus=2) == 2

    def test_run_checks_passes_the_core_count(self, tmp_path, monkeypatch,
                                              capsys):
        import benchmarks.emit_bench as emit_bench
        self.stub_replay(monkeypatch, seconds=30.0)
        path = committed_record(tmp_path, machine={"cpu_count": 2},
                                fleet=self.ROW)
        monkeypatch.setattr(emit_bench, "check_kernel_regression",
                            lambda measured, out_path: 0)
        monkeypatch.setattr(emit_bench, "bench_kernel",
                            lambda events: {"events_per_sec": 1.0})
        assert run_checks(path, kernel_events=1) == 1
        assert "fleet serial seconds: measured 30.0" in \
            capsys.readouterr().out

    def test_replay_returns_every_digest(self):
        import benchmarks.emit_bench as emit_bench
        digests, seconds = emit_bench.replay_fleet(
            dict(self.ROW, days=0.01), passes=2)
        assert len(digests) == 2 and digests[0] == digests[1]
        assert seconds > 0

    def test_committed_fleet_row_is_best_of_passes(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        committed = json.loads((root / "BENCH_perf.json").read_text())
        assert committed["fleet"]["passes"] == 3
        assert committed["fleet"]["digest"].startswith("ddd9d30b")
