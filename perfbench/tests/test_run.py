"""The runner's output checks and its agreement with BENCHMARK.json."""

import json
import subprocess
import sys

import pytest

import run as bench
from layers import LAYER_METRICS
from workloads import ScenarioRun, canonical_digest


def outcome(*runs, fleet_digest=None, index=0):
    return {"index": index, "runs": [vars(r) for r in runs],
            "fleet_digest": fleet_digest}


def test_matching_digests_count_no_failure():
    passes = [outcome(ScenarioRun("d100", "aa"), ScenarioRun("d140", "bb"))
              for _ in range(3)]
    assert bench.count_failures(passes) == (6, 0, [])


def test_digest_mismatch_is_counted_in_fail_frac():
    passes = [outcome(ScenarioRun("d100", "aa"), ScenarioRun("d140", "bb")),
              outcome(ScenarioRun("d100", "aa"), ScenarioRun("d140", "XX")),
              outcome(ScenarioRun("d100", "aa"), ScenarioRun("d140", "bb"))]
    attempted, failed, reasons = bench.count_failures(passes)
    assert (attempted, failed) == (6, 1)
    assert reasons == ["d140: result digest differs from other runs"]


def test_raise_and_fleet_digest_mismatch_are_counted():
    passes = [outcome(ScenarioRun("c0", "aa"), fleet_digest="f1"),
              outcome(ScenarioRun("c0", "aa"), fleet_digest="f1"),
              outcome(ScenarioRun("c0", "aa"), fleet_digest="f2"),
              outcome(ScenarioRun("c0", error="ScenarioError: boom"),
                      fleet_digest="f1"),
              # Another pass index runs another fleet: no mismatch.
              outcome(ScenarioRun("c1", "bb"), fleet_digest="g", index=1)]
    attempted, failed, reasons = bench.count_failures(passes)
    assert (attempted, failed) == (5, 2)
    assert reasons == ["c0: fleet digest differs from other passes",
                       "c0: ScenarioError: boom"]


def test_each_window_is_scaled_by_the_loop_around_it():
    nominal = bench.NOMINAL_S
    # Two 1-s windows: one while the loop ran at its nominal speed, one
    # while the host ran at half speed (the loop took twice as long).
    outcome = {"windows": [(0.0, 1.0), (5.0, 6.0)],
               "ref_s": [nominal, 2 * nominal]}
    assert bench.scaled_pass_s(outcome) == pytest.approx(1.5)
    assert bench.at_reference_speed(3.0, 3 * nominal) == pytest.approx(1.0)


def test_canonical_digest_ignores_key_order():
    assert canonical_digest({"a": 1.5, "b": [1, 2]}) == \
        canonical_digest({"b": [1, 2], "a": 1.5})
    assert canonical_digest({"a": 1.5}) != canonical_digest({"a": 1.25})


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == LAYER_METRICS


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for source in bench.HERE.glob("*.py"):
        (bench_dir / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("argv", [["--workload", "nope"], []])
def test_bad_arguments_are_refused(argv):
    with pytest.raises(SystemExit):
        bench.main(argv)
