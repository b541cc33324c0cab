"""One fresh benchmark process: set up, run passes, report as JSON.

``run.py`` starts this script once per set-up sample. It times
``import repro`` and ``trained_artifacts()`` (the set-up every fresh
process pays) and the reference loop just before and after them, then
runs passes of one workload until its time budget is spent, and prints
one JSON object as its last line of output.

With ``--trace 1`` it first runs untraced passes for half the budget,
then installs the layer wrappers, runs traced passes for the other
half, removes the wrappers again, and adds the per-layer metrics. It
fails if a top-level span lies outside the timed parts of the traced
passes, or if ``other_s`` comes out negative.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import multiprocessing
import resource
import sys
import time
from statistics import fmean
from typing import Any, Callable, Dict, Iterable, Iterator, List

import layers
import reference
import workloads
from tracer import Tracer, summarize

clock = time.perf_counter


def _reap_children() -> None:
    """Wait for the pool workers a fleet pass started (and let go of)."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
        if child.is_alive():
            child.terminate()
            child.join()


def pass_indices(offset: int, stride: int) -> Iterator[int]:
    """Pass 0, which every worker runs, then ``1 + offset`` by ``stride``.

    Every worker of a run repeats pass 0, so its results are compared
    across fresh processes; the other passes are split among the
    workers, so a run covers as many distinct passes as it can.
    """
    yield 0
    yield from itertools.count(1 + offset, stride)


def run_passes(run_one: Callable[[int], workloads.PassOutcome],
               indices: Iterable[int],
               budget_s: float) -> List[workloads.PassOutcome]:
    """Run passes while the next one would end nearer ``budget_s``.

    At least one pass always runs.
    """
    outcomes: List[workloads.PassOutcome] = []
    start = clock()
    for index in indices:
        outcomes.append(run_one(index))
        elapsed = clock() - start
        if elapsed + elapsed / len(outcomes) / 2 > budget_s:
            break
    return outcomes


def own_peak_mb() -> float:
    """Peak RSS of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_mb() -> float:
    """Peak RSS of the largest child this process has reaped, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def idle_child_peak_mb() -> float:
    """Fork an idle child and reap it: the RSS a pool worker starts at.

    Returns the largest reaped child's peak RSS afterwards.
    """
    child = multiprocessing.Process(target=int)
    child.start()
    child.join()
    return children_peak_mb()


def _chaos_per_pass(outcomes: List[workloads.PassOutcome]
                    ) -> Dict[str, float]:
    keys = ("retries", "rpc_reports_lost", "naming_errors")
    return {key: sum(o.info.get(key, 0) for o in outcomes) / len(outcomes)
            for key in keys}


def traced_report(args: argparse.Namespace,
                  run_one: Callable[[int], workloads.PassOutcome],
                  untraced: List[workloads.PassOutcome],
                  import_s: float, train_s: float) -> Dict[str, Any]:
    """Run the traced passes and derive the per-layer metrics."""
    tracer = Tracer()
    try:
        layers.install(tracer)
        # The same passes as the untraced ones, so results must match.
        traced = run_passes(run_one, itertools.count(), args.budget / 2)
    finally:
        tracer.restore()
    if not tracer.is_restored():
        raise RuntimeError("a layer wrapper was left installed")
    if args.spans:
        tracer.write(args.spans)
    passes = len(traced)
    # Means, not medians: the span totals are sums over all passes.
    traced_run_s = fmean(o.wall_s for o in traced)
    untraced_run_s = fmean(o.wall_s for o in untraced)
    stats = summarize(tracer)
    metrics = layers.layer_metrics(
        tracer, stats, passes, traced_run_s=traced_run_s,
        untraced_run_s=untraced_run_s, import_s=import_s, train_s=train_s,
        events=sum(o.events for o in traced) / passes,
        chaos=_chaos_per_pass(traced),
        scenario_s=[s for o in traced for s in o.scenario_s])
    stray = tracer.top_level_outside([w for o in traced for w in o.windows])
    if stray:
        raise RuntimeError(f"{stray} top-level spans lie outside the timed "
                           "part of the traced passes")
    if metrics["other_s"] < 0:
        raise RuntimeError(f"other_s is negative: {metrics['other_s']!r}")
    return {
        "traced": [dataclasses.asdict(o) for o in traced],
        "layers": metrics,
        "self_times": layers.self_time_table(stats, passes),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of passes to run (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="fleet workers for the untraced passes")
    parser.add_argument("--offset", type=int, default=0,
                        help="this worker's place among the run's workers")
    parser.add_argument("--stride", type=int, default=1,
                        help="number of workers in the run")
    parser.add_argument("--spans", default="",
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    # The host's speed around set-up, from the reference loop timed just
    # before and just after it (the loop imports nothing).
    before = reference.time_loop(clock)
    start = clock()
    import repro  # noqa: F401
    import repro.core.runner  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.parallel  # noqa: F401
    from repro.experiments.scenarios import trained_artifacts
    imported = clock()
    trained_artifacts()
    trained = clock()
    import_s, train_s = imported - start, trained - imported
    setup_ref_s = (before + reference.time_loop(clock)) / 2
    # Where the run's memory growth is measured from: this process's
    # peak after set-up, and the peak of a child forked now, which is
    # where every pool worker of a fleet pass starts.
    own_base, child_base = own_peak_mb(), idle_child_peak_mb()
    # Growth over pass 0 alone, which every worker runs the same way: the
    # peak creeps up with every later pass as the heap fragments, and the
    # number of passes depends on the host's speed.
    first_pass_growth: List[float] = []

    # The traced run keeps every fleet cluster in this process, so its
    # untraced passes run the same way for a like-for-like overhead.
    workers = 1 if args.trace else args.workers

    gauge = workloads.SpeedGauge()

    def run_one(index: int) -> workloads.PassOutcome:
        outcome = workloads.run_pass(args.workload, args.seed, index, workers,
                                     gauge)
        _reap_children()
        if not first_pass_growth:
            first_pass_growth.append(max(own_peak_mb() - own_base,
                                         children_peak_mb() - child_base))
        return outcome

    budget = args.budget / 2 if args.trace else args.budget
    untraced = run_passes(run_one, pass_indices(args.offset, args.stride),
                          budget)
    report: Dict[str, Any] = {
        "import_s": import_s,
        "train_s": train_s,
        "setup_ref_s": setup_ref_s,
        "passes": [dataclasses.asdict(o) for o in untraced],
        "peak_rss_mb": max(own_peak_mb(), children_peak_mb()),
        "run_rss_mb": first_pass_growth[0],
    }
    if args.trace:
        report.update(traced_report(args, run_one, untraced,
                                    import_s, train_s))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
