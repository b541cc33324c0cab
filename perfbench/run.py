"""The repository's benchmark of record: end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_study --seed 42 \\
        --seconds 22 --trace 0

``--trace 0`` starts ``SETUPS`` fresh worker processes one after the
other. Each times its own set-up (``import repro`` up to
``trained_artifacts()`` returning) and then runs whole passes of the
workload for its share of what is left of ``--seconds``. The run
reports

* ``setup_s``: median set-up time over the fresh processes (cold);
* ``run_s``: median wall time of one pass of the workload, after
  set-up (warm; for ``fleet_bootstrap`` it includes starting the
  process pool);
* ``peak_rss_mb``: median over the processes of the larger of the
  process's peak RSS and that of its largest pool worker;
* ``run_rss_mb``: median over the processes of how far pass 0, which
  every process runs, raised that peak above where it stood after
  set-up (for a pool worker: above a freshly forked idle child), so the
  memory the workload itself needs shows apart from the set-up's;
* ``fail_frac``: failed / attempted scenario runs (a density, a
  cluster). A run fails when it raises, breaks an output check, or its
  result digest differs from the other runs of the same scenario. It
  is reported through ``attempted`` and ``failed``.

``setup_s`` and ``run_s`` are given at the reference loop's nominal
speed: each sample is scaled by the loop's time just before and just
after it (see ``reference.py``), so that the shared host's drifting
speed does not show as a change of the program. The unscaled medians
are printed too.

``--trace 1`` starts one worker that also runs traced passes and
reports the per-layer metrics instead (see ``layers.py``).

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is non-zero, with no result
printed, when the program under ``src/`` is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from layers import LAYER_METRICS
from reference import NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes per untraced run, one set-up sample each.
SETUPS = 2
#: Time allowed per fresh process for its set-up, its last pass's
#: overrun of the budget and its exit, and once for byte-compiling.
SETUP_ALLOWANCE_S = 25.0
MARGIN_S = 45.0

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             "run_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> Dict[str, Any]:
    """The fields of ``meta.json``'s machine record, for this host."""
    from importlib.metadata import version
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def run_worker(args: argparse.Namespace, budget: float, workers: int,
               deadline: float, offset: int = 0, stride: int = 1,
               spans: str = "") -> Dict[str, Any]:
    """Start one worker process, wait for it, and parse its report."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--budget", repr(budget), "--trace", str(args.trace),
               "--workers", str(workers), "--offset", str(offset),
               "--stride", str(stride), "--spans", spans]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # A session of its own, so a timeout can stop its pool workers too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(),
                                                1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError("worker ran past the run's deadline") from None
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return json.loads(lines[-1])


def _kill_group(pgid: int) -> None:
    """Stop anything the worker left running in its session."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def count_failures(passes: Sequence[Dict[str, Any]]
                   ) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over every scenario run of ``passes``.

    A run fails when it carries an error, when its digest is not the
    one most runs of the same scenario gave, or when its pass's fleet
    digest is not the one most passes with the same index gave.
    """
    digests: Dict[str, Counter] = defaultdict(Counter)
    fleets: Dict[int, Counter] = defaultdict(Counter)
    for outcome in passes:
        fleets[outcome["index"]][outcome.get("fleet_digest")] += 1
        for run in outcome["runs"]:
            if run["digest"]:
                digests[run["name"]][run["digest"]] += 1
    attempted = failed = 0
    reasons: List[str] = []
    for outcome in passes:
        usual_fleet = fleets[outcome["index"]].most_common(1)[0][0]
        for run in outcome["runs"]:
            attempted += 1
            reason = run["error"]
            if reason is None and \
                    run["digest"] != digests[run["name"]].most_common(1)[0][0]:
                reason = "result digest differs from other runs"
            if reason is None and outcome.get("fleet_digest") != usual_fleet:
                reason = "fleet digest differs from other passes"
            if reason is not None:
                failed += 1
                reasons.append(f"{run['name']}: {reason}")
    return attempted, failed, reasons


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` taken while the reference loop took ``ref_s``, scaled
    to the loop's nominal speed (see ``reference.py``)."""
    return seconds * NOMINAL_S / ref_s


def scaled_pass_s(outcome: Dict[str, Any]) -> float:
    """A pass's time, each of its windows scaled by the loop around it."""
    return sum(at_reference_speed(end - begin, ref_s)
               for (begin, end), ref_s in zip(outcome["windows"],
                                              outcome["ref_s"]))


def end_to_end_samples(reports: Sequence[Dict[str, Any]]
                       ) -> Dict[str, List[float]]:
    """Every sample of each end-to-end metric, in the order taken."""
    return {
        "setup_s": [at_reference_speed(r["import_s"] + r["train_s"],
                                       r["setup_ref_s"]) for r in reports],
        "run_s": [scaled_pass_s(p) for r in reports for p in r["passes"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "run_rss_mb": [r["run_rss_mb"] for r in reports],
    }


def raw_samples(reports: Sequence[Dict[str, Any]]
                ) -> Dict[str, List[float]]:
    """The unscaled times, and the reference loop's times beside them."""
    return {
        "setup wall": [r["import_s"] + r["train_s"] for r in reports],
        "run wall": [p["wall_s"] for r in reports for p in r["passes"]],
        "loop": [r["setup_ref_s"] for r in reports]
        + [t for r in reports for p in r["passes"] for t in p["ref_s"]],
    }


def print_info(workload: str, outcome: Dict[str, Any]) -> None:
    """Simulated results beside the host metrics (informational)."""
    info = outcome["info"]
    print(f"simulated per pass: {outcome['node_days']:g} node-days, "
          f"{outcome['events']} kernel events")
    if workload == "fleet_bootstrap":
        print(f"fleet: {len(outcome['runs'])} clusters, "
              f"{info['databases']} databases, adjusted revenue "
              f"${info['adjusted_revenue']:,.0f}, {info['failovers']} "
              f"failovers, digest {outcome['fleet_digest'][:16]} "
              f"({info['mode']})")
        return
    per_density = info["per_density"]
    for pct, row in sorted(per_density.items(), key=lambda kv: int(kv[0])):
        print(f"density {pct}%: adjusted revenue "
              f"${row['adjusted_revenue']:,.2f}, creation redirects "
              f"{row['creation_redirects']}, failed-over cores "
              f"{row['failed_over_cores']:g}")
    if len(per_density) > 1:
        peak = max(per_density.items(),
                   key=lambda kv: kv[1]["adjusted_revenue"])[0]
        print(f"adjusted revenue peaks at {peak}%")
    if workload == "chaos_churn":
        print(f"chaos: {info['failovers']} failovers, {info['retries']} "
              f"retries, {info['naming_errors']} naming errors, "
              f"{info['stale_reads']} stale reads, "
              f"{info['rpc_reports_lost']} report RPCs lost")


def print_layers(report: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"{'span':<28}{'calls':>10}{'incl s':>10}{'self s':>10}"
          "   (per traced pass)")
    for name, calls, total_s, self_s in report["self_times"]:
        print(f"{name:<28}{calls:>10}{total_s:>10.4f}{self_s:>10.4f}")
    layers = report["layers"]
    for name, value in layers.items():
        print(f"{name:<36}{value:>16.6g} {units[name]}")
    self_s = sum(row[3] for row in report["self_times"])
    print(f"self times {self_s:.6f} s + other_s {layers['other_s']:.6f} s "
          f"= traced run_s {layers['trace.run_s']:.6f} s; every top-level "
          "span lies inside a timed pass")
    print(f"tracing overhead {layers['trace.overhead']:.3f}x the untraced "
          "run_s")


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42,
                        help="scenario seed (default 42)")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="seconds of passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    allowance = args.seconds + (SETUPS + 1) * SETUP_ALLOWANCE_S + MARGIN_S
    deadline = time.monotonic() + allowance
    # Byte-compile first, so no set-up sample pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)], check=True,
                   stdout=subprocess.DEVNULL, timeout=SETUP_ALLOWANCE_S)
    cores = nproc()
    try:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}.csv.gz"
            reports = [run_worker(args, args.seconds, 1, deadline,
                                  spans=str(spans))]
        else:
            reports = []
            for index in range(SETUPS):
                # Share what is left of --seconds among the workers to
                # come, so that whole passes add up to about --seconds.
                spent = sum(p["wall_s"] + sum(p["ref_s"]) for r in reports
                            for p in r["passes"])
                budget = (args.seconds - spent) / (SETUPS - index)
                reports.append(run_worker(args, budget, cores, deadline,
                                          offset=index, stride=SETUPS))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = [p for r in reports for p in r["passes"] + r.get("traced", [])]
    attempted, failed, reasons = count_failures(passes)
    print(f"workload {args.workload}, seed {args.seed}, nproc {cores}, "
          f"{len(reports)} fresh process(es)")
    print(f"this machine: {machine()}")
    recorded = json.loads((HERE / "meta.json").read_text())
    print(f"figures recorded on: {recorded['machine']}; held-out seed "
          f"{recorded['held_out_seed']}")
    for reason in reasons:
        print(f"FAILED {reason}")
    print_info(args.workload, passes[0])
    samples = end_to_end_samples(reports)
    values = {name: median(taken) for name, taken in samples.items()}
    for name, value in values.items():
        print(f"{name:<12}{value:>14.6f} {E2E_UNITS[name]:<3} "
              f"(median of {len(samples[name])}: "
              f"{', '.join(f'{v:.4g}' for v in samples[name])})")
    print(f"unscaled, beside the loop's nominal {NOMINAL_S} s:")
    for name, taken in raw_samples(reports).items():
        print(f"{name:<12}{median(taken):>14.6f} s   "
              f"(median of {len(taken)})")
    print(f"{'fail_frac':<12}{failed / attempted:>14.6f}     "
          f"({failed} of {attempted} scenario runs)")
    if args.trace:
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        print_layers(reports[0], units)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in reports[0]["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
