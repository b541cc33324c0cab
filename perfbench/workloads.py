"""The benchmark's workloads and the checks on their outputs.

Each workload builds its scenarios from the scenario seed and a pass
index alone. A *pass* runs every scenario once, through the program's
public entry points (``run_scenarios`` and ``run_fleet``). A pass returns one
:class:`ScenarioRun` per scenario — its result digest, or the reason it
failed — plus the simulated figures printed beside the host metrics.
After each timed window of a pass, a :class:`SpeedGauge` times the
reference loop, so every window's time can be scaled to the loop's
nominal speed (see ``reference.py``).

Importing this module does not import ``repro``; the functions do, so
the worker can time ``import repro`` itself.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import reference

#: Paper §5.2: the four density levels of the headline study.
PAPER_DENSITIES = (1.0, 1.1, 1.2, 1.4)
#: Simulated hours per density run (the paper runs 6 days; a run of the
#: benchmark has to fit a few passes into its time budget).
PAPER_HOURS = 6.0
#: Simulated hours of the chaos run at 140% density.
CHAOS_HOURS = 12.0
#: Fleet: clusters per pass, nodes per cluster and simulated hours.
FLEET_CLUSTERS = 24
FLEET_NODES = 32
FLEET_HOURS = 1.0

WORKLOADS = ("paper_study", "fleet_bootstrap", "chaos_churn")


@dataclass
class ScenarioRun:
    """One scenario run inside a pass: a density, a cluster."""

    name: str
    digest: Optional[str] = None
    error: Optional[str] = None


@dataclass
class PassOutcome:
    """What one pass of a workload produced."""

    index: int
    runs: List[ScenarioRun]
    wall_s: float
    #: Wall time of each scenario, in run order.
    scenario_s: List[float]
    #: The timed intervals (``time.perf_counter``) that make up ``wall_s``.
    windows: List[Tuple[float, float]]
    #: Host speed around each window: the reference loop's time.
    ref_s: List[float]
    node_days: float
    events: int = 0
    fleet_digest: Optional[str] = None
    #: Simulated results, informational only (see ``print_info``).
    info: Dict[str, Any] = field(default_factory=dict)


# -- digests and output checks -------------------------------------------


def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "item"):      # numpy scalar
        return value.item()
    return repr(value)


def canonical_digest(payload: Any) -> str:
    """sha256 of the canonical JSON of dataclasses, lists and scalars."""
    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: Any) -> str:
    """Digest of one run's KPIs, revenue report and telemetry frames."""
    return canonical_digest({
        "kpis": dataclasses.asdict(result.kpis),
        "revenue": dataclasses.asdict(result.revenue),
        "frames": [dataclasses.asdict(frame) for frame in result.frames],
    })


def _finite(*values: float) -> bool:
    return all(math.isfinite(value) for value in values)


def check_result(result: Any) -> Optional[str]:
    """Why a :class:`BenchmarkResult` is wrong, or None if it passes."""
    kpis, revenue = result.kpis, result.revenue
    if not result.frames:
        return "no telemetry frames"
    if not _finite(kpis.final_reserved_cores, kpis.final_disk_gb,
                   kpis.core_utilization, kpis.disk_utilization,
                   revenue.total_gross, revenue.total_penalty,
                   revenue.total_adjusted):
        return "non-finite KPI or revenue"
    if not 0.0 <= kpis.core_utilization <= 1.0 + 1e-9:
        return f"core utilization {kpis.core_utilization} outside [0, 1]"
    if kpis.active_databases > len(result.databases):
        return "more active databases than databases created"
    gap = revenue.total_gross - revenue.total_penalty - revenue.total_adjusted
    if abs(gap) > 1e-6 * max(1.0, abs(revenue.total_gross)):
        return "adjusted revenue != gross - penalty"
    return None


def check_summary(summary: Any, bootstrap_count: int) -> Optional[str]:
    """Why a fleet :class:`ClusterSummary` is wrong, or None."""
    if not summary.frames:
        return "no telemetry frames"
    if not _finite(summary.final_reserved_cores, summary.final_disk_gb,
                   summary.revenue_adjusted):
        return "non-finite KPI or revenue"
    if not 0.0 <= summary.core_utilization <= 1.0 + 1e-9:
        return f"core utilization {summary.core_utilization} outside [0, 1]"
    if summary.databases_created < bootstrap_count:
        return (f"{summary.databases_created} databases created, bootstrap "
                f"population is {bootstrap_count}")
    return None


# -- scenarios -------------------------------------------------------------


def paper_scenarios(seed: int) -> list:
    """The 14-node gen5 ring, annealing PLB, maintenance on, 4 densities."""
    from repro.experiments.scenarios import paper_scenario
    return [paper_scenario(density=density, days=PAPER_HOURS / 24,
                           seed=seed, maintenance=True)
            for density in PAPER_DENSITIES]


def chaos_scenarios(seed: int) -> list:
    """The 14-node ring at 140% under ``heavy`` chaos on the k8s backend."""
    from repro.experiments.scenarios import chaos_profile, paper_scenario
    return [paper_scenario(density=1.4, days=CHAOS_HOURS / 24, seed=seed,
                           maintenance=False, backend="k8s"
                           ).with_chaos(chaos_profile("heavy"))]


def fleet_topology(seed: int, index: int) -> Any:
    """Fleet number ``index`` of seed ``seed``: clusters from one template.

    Cluster ``i`` runs with seed ``(seed * 1000 + index) * FLEET_CLUSTERS
    + i``, so no two fleets share a cluster.
    """
    from repro.fleet import ClusterTemplate, FleetTopology
    from repro.units import HOUR
    return FleetTopology(
        cluster_count=FLEET_CLUSTERS, prefix=f"bench{index}",
        base_seed=(seed * 1000 + index) * FLEET_CLUSTERS,
        template=ClusterTemplate(node_count=FLEET_NODES,
                                 days=FLEET_HOURS / 24,
                                 report_interval=HOUR))


# -- passes ----------------------------------------------------------------


class SpeedGauge:
    """Times the reference loop between the timed windows of passes."""

    def __init__(self) -> None:
        self.last = reference.time_loop(time.perf_counter)

    def around(self) -> float:
        """Time the loop again; the mean of this timing and the last.

        Called right after a window, this is the loop's time around it.
        """
        before = self.last
        self.last = reference.time_loop(time.perf_counter)
        return (before + self.last) / 2


def _node_days(scenario: Any) -> float:
    from repro.units import DAY
    return scenario.ring.node_count * scenario.duration / DAY


def run_serial_pass(index: int, scenarios: list,
                    gauge: SpeedGauge) -> PassOutcome:
    """Run each scenario on its own, in order, in this process.

    Only the runs are timed; the output checks come after.
    """
    from repro.parallel import run_scenarios
    windows: List[Tuple[float, float]] = []
    ref_s: List[float] = []
    outputs: List[Any] = []     # a result, or the exception it raised
    for scenario in scenarios:
        begin = time.perf_counter()
        try:
            [output] = run_scenarios([scenario], max_workers=1)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            output = exc
        windows.append((begin, time.perf_counter()))
        ref_s.append(gauge.around())
        outputs.append(output)
    scenario_s = [end - begin for begin, end in windows]
    runs: List[ScenarioRun] = []
    results = []
    for scenario, output in zip(scenarios, outputs):
        if isinstance(output, Exception):
            runs.append(ScenarioRun(
                scenario.name, error=f"{type(output).__name__}: {output}"))
            continue
        error = check_result(output)
        runs.append(ScenarioRun(
            scenario.name, error=error,
            digest=None if error else result_digest(output)))
        results.append(output)
    return PassOutcome(
        index=index, runs=runs, wall_s=sum(scenario_s),
        scenario_s=scenario_s, windows=windows, ref_s=ref_s,
        node_days=sum(_node_days(s) for s in scenarios),
        events=sum(r.events_executed for r in results),
        info=_result_info(results))


def _result_info(results: list) -> Dict[str, Any]:
    info: Dict[str, Any] = {"per_density": {}, "failovers": 0,
                            "retries": 0, "rpc_reports_lost": 0,
                            "naming_errors": 0, "stale_reads": 0}
    for result in results:
        pct = int(round(result.density * 100))
        info["per_density"][pct] = {
            "adjusted_revenue": result.revenue.total_adjusted,
            "creation_redirects": result.kpis.creation_redirects,
            "failed_over_cores": result.kpis.failovers.total_cores_moved,
        }
        info["failovers"] += len(result.failovers)
        chaos = result.kpis.chaos
        if chaos is not None:
            info["retries"] += chaos.retries
            info["rpc_reports_lost"] += chaos.rpc_reports_lost
            info["naming_errors"] += chaos.naming_unavailable_errors
            info["stale_reads"] += chaos.naming_stale_reads
    return info


def run_fleet_pass(seed: int, index: int, workers: int,
                   gauge: SpeedGauge) -> PassOutcome:
    """Run a fleet through ``run_fleet``, sharded over ``workers``.

    ``scenario_s`` holds the gaps between the executor's progress
    callbacks, which are per-cluster wall times when ``workers == 1``.
    """
    from repro.fleet import run_fleet
    topology = fleet_topology(seed, index)
    scenarios = topology.scenarios()
    bootstrap_count = topology.template.resolved_population().total_count
    marks: List[float] = []
    start = time.perf_counter()
    try:
        fleet = run_fleet(
            topology, max_workers=workers,
            progress=lambda _progress: marks.append(time.perf_counter()))
    except Exception as exc:  # noqa: BLE001 - counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        return PassOutcome(
            index=index,
            runs=[ScenarioRun(s.name, error=error) for s in scenarios],
            wall_s=end - start, scenario_s=[], windows=[(start, end)],
            ref_s=[gauge.around()],
            node_days=sum(_node_days(s) for s in scenarios))
    end = time.perf_counter()
    ref_s = [gauge.around()]
    runs = []
    for summary in fleet.summaries:
        error = check_summary(summary, bootstrap_count)
        runs.append(ScenarioRun(
            summary.name, error=error,
            digest=None if error else canonical_digest(summary)))
    gaps = [later - earlier
            for earlier, later in zip([start] + marks, marks)]
    return PassOutcome(
        index=index, runs=runs, wall_s=end - start, scenario_s=gaps,
        windows=[(start, end)], ref_s=ref_s,
        node_days=sum(_node_days(s) for s in scenarios),
        events=sum(s.events_executed for s in fleet.summaries),
        fleet_digest=fleet.digest,
        info={"databases": sum(s.databases_created
                               for s in fleet.summaries),
              "adjusted_revenue": fleet.kpis.revenue_adjusted,
              "failovers": sum(s.failover_count for s in fleet.summaries),
              "mode": fleet.mode})


def run_pass(workload: str, seed: int, index: int, workers: int,
             gauge: SpeedGauge) -> PassOutcome:
    """Pass number ``index`` of ``workload``.

    ``paper_study`` and ``chaos_churn`` run the same scenarios in every
    pass. A fleet's run time depends on its cluster seeds (the bootstrap
    spill fires on some clusters and not on others), so each pass index
    runs its own fleet; ``workers`` applies to the fleet only.
    """
    if workload == "paper_study":
        return run_serial_pass(index, paper_scenarios(seed), gauge)
    if workload == "chaos_churn":
        return run_serial_pass(index, chaos_scenarios(seed), gauge)
    if workload == "fleet_bootstrap":
        return run_fleet_pass(seed, index, workers, gauge)
    raise ValueError(f"unknown workload {workload!r}")
