"""Where the traced run puts its wrappers, and the per-layer metrics.

Every wrapper sits on a public seam of one module of ``src/repro`` and
is named after it. :func:`install` patches them onto a :class:`Tracer`;
:func:`layer_metrics` turns the recorded spans of the traced passes
(summarized by :func:`tracer.summarize`) into the per-layer metrics
listed in ``BENCHMARK.json``, each averaged per pass.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from tracer import SpanStats, Tracer, percentile

#: name -> (unit, better). The order is the order of the report.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "startup.import_s": ("s", "lower"),
    "startup.train_s": ("s", "lower"),
    "runner.bootstrap_s": ("s", "lower"),
    "runner.bootstrap_databases": ("count", "higher"),
    "control_plane.create_calls": ("count", "lower"),
    "control_plane.create_s": ("s", "lower"),
    "control_plane.admit_frac": ("ratio", "higher"),
    "fabric.create_service_calls": ("count", "lower"),
    "fabric.create_service_s": ("s", "lower"),
    "fabric.create_service_p99_ms": ("ms", "lower"),
    "fabric.bootstrap_spill_calls": ("count", "lower"),
    "tenant_ring.sweeps": ("count", "lower"),
    "tenant_ring.sweep_self_s": ("s", "lower"),
    "tenant_ring.sweep_p50_ms": ("ms", "lower"),
    "tenant_ring.sweep_p99_ms": ("ms", "lower"),
    "rgmanager.reports": ("count", "lower"),
    "rgmanager.get_metric_loads_self_s": ("s", "lower"),
    "rgmanager.reports_per_s": ("1/s", "higher"),
    "rgmanager.cpu_batch_s": ("s", "lower"),
    "rgmanager.report_delivered_frac": ("ratio", "higher"),
    "model.find_calls": ("count", "lower"),
    "model.find_s": ("s", "lower"),
    "model.next_value_calls": ("count", "lower"),
    "model.next_value_s": ("s", "lower"),
    "fabric.report_load_calls": ("count", "lower"),
    "fabric.report_load_s": ("s", "lower"),
    "fabric.sweep_violations_s": ("s", "lower"),
    "fabric.failovers": ("count", "lower"),
    "chaos.retries": ("count", "lower"),
    "chaos.rpc_reports_lost": ("count", "lower"),
    "chaos.naming_errors": ("count", "lower"),
    "kernel.events": ("count", "lower"),
    "kernel.events_per_s": ("1/s", "higher"),
    "parallel.cluster_s_max": ("s", "lower"),
    "parallel.cluster_s_mean": ("s", "lower"),
    "parallel.imbalance": ("ratio", "lower"),
    "fleet.merge_s": ("s", "lower"),
    "other_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer seam; undo with ``tracer.restore()``."""
    import repro.fleet.runner as fleet_runner
    from repro.core.model_base import ResourceModel, TotoModelSet
    from repro.core.runner import BenchmarkRunner
    from repro.fabric.cluster import ServiceFabricCluster
    from repro.sqldb.control_plane import ControlPlane
    from repro.sqldb.rgmanager import RgManager
    from repro.sqldb.tenant_ring import TenantRing

    tracer.wrap(BenchmarkRunner, "_bootstrap", "runner.bootstrap")
    tracer.wrap(ControlPlane, "create_database", "control_plane.create")
    tracer.wrap(ServiceFabricCluster, "create_service",
                "fabric.create_service")
    tracer.wrap(ServiceFabricCluster, "bootstrap_spill",
                "fabric.bootstrap_spill")
    # The ``replica-report-sweep`` callback: TenantRing binds it when a
    # ring is built, so the wrapper must be in place before the run.
    tracer.wrap(TenantRing, "_report_sweep", "tenant_ring.sweep")
    tracer.wrap(RgManager, "get_metric_loads",
                "rgmanager.get_metric_loads")
    tracer.wrap(RgManager, "observe_cpu_usage_batch", "rgmanager.cpu_batch")
    tracer.wrap(TotoModelSet, "find", "model.find")
    for model_cls in [ResourceModel] + _subclasses(ResourceModel):
        if "next_value" in vars(model_cls):
            tracer.wrap(model_cls, "next_value", "model.next_value")
    tracer.wrap(ServiceFabricCluster, "report_load", "fabric.report_load")
    tracer.wrap(ServiceFabricCluster, "sweep_violations",
                "fabric.sweep_violations", tally=len)
    tracer.wrap(ServiceFabricCluster, "fail_node", "fabric.fail_node",
                tally=len)
    # run_fleet calls these through its own module namespace.
    for merge in ("merge_summaries", "merge_frames", "fleet_digest"):
        tracer.wrap(fleet_runner, merge, "fleet.merge")


def layer_metrics(tracer: Tracer, stats: Dict[str, SpanStats], passes: int,
                  traced_run_s: float,
                  untraced_run_s: float, import_s: float, train_s: float,
                  events: float, chaos: Dict[str, float],
                  scenario_s: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics per pass, from the spans of ``passes`` passes.

    ``traced_run_s`` and ``untraced_run_s`` are mean pass wall times;
    ``events`` and ``chaos`` are per-pass counts read from the results;
    ``scenario_s`` holds the wall time of every traced scenario run.
    """
    empty = SpanStats()

    def get(name: str) -> SpanStats:
        return stats.get(name, empty)

    def per_pass(value: float) -> float:
        return value / passes

    def ms(name: str, q: float) -> float:
        return percentile(get(name).durations, q) * 1000.0

    create = get("control_plane.create")
    reports = get("rgmanager.get_metric_loads")
    # Per pass: reports answered, and those plus the RPCs chaos dropped.
    delivered = reports.calls / passes
    attempted = delivered + chaos["rpc_reports_lost"]
    tallies = tracer.tallies
    mean_scenario = (sum(scenario_s) / len(scenario_s)) if scenario_s else 0.0
    return {
        "startup.import_s": import_s,
        "startup.train_s": train_s,
        "runner.bootstrap_s": per_pass(get("runner.bootstrap").total_s),
        "runner.bootstrap_databases": per_pass(tracer.count_within(
            "control_plane.create", "runner.bootstrap")),
        "control_plane.create_calls": per_pass(create.calls),
        "control_plane.create_s": per_pass(create.total_s),
        "control_plane.admit_frac": (create.ok_calls / create.calls
                                     if create.calls else 1.0),
        "fabric.create_service_calls": per_pass(
            get("fabric.create_service").calls),
        "fabric.create_service_s": per_pass(
            get("fabric.create_service").total_s),
        "fabric.create_service_p99_ms": ms("fabric.create_service", 99),
        "fabric.bootstrap_spill_calls": per_pass(
            get("fabric.bootstrap_spill").calls),
        "tenant_ring.sweeps": per_pass(get("tenant_ring.sweep").calls),
        "tenant_ring.sweep_self_s": per_pass(get("tenant_ring.sweep").self_s),
        "tenant_ring.sweep_p50_ms": ms("tenant_ring.sweep", 50),
        "tenant_ring.sweep_p99_ms": ms("tenant_ring.sweep", 99),
        "rgmanager.reports": per_pass(reports.calls),
        "rgmanager.get_metric_loads_self_s": per_pass(reports.self_s),
        "rgmanager.reports_per_s": (reports.calls / reports.total_s
                                    if reports.total_s else 0.0),
        "rgmanager.cpu_batch_s": per_pass(get("rgmanager.cpu_batch").total_s),
        "rgmanager.report_delivered_frac": (delivered / attempted
                                            if attempted else 1.0),
        "model.find_calls": per_pass(get("model.find").calls),
        "model.find_s": per_pass(get("model.find").total_s),
        "model.next_value_calls": per_pass(get("model.next_value").calls),
        "model.next_value_s": per_pass(get("model.next_value").total_s),
        "fabric.report_load_calls": per_pass(get("fabric.report_load").calls),
        "fabric.report_load_s": per_pass(get("fabric.report_load").total_s),
        "fabric.sweep_violations_s": per_pass(
            get("fabric.sweep_violations").total_s),
        "fabric.failovers": per_pass(
            tallies.get("fabric.sweep_violations", 0)
            + tallies.get("fabric.fail_node", 0)),
        "chaos.retries": chaos["retries"],
        "chaos.rpc_reports_lost": chaos["rpc_reports_lost"],
        "chaos.naming_errors": chaos["naming_errors"],
        "kernel.events": events,
        "kernel.events_per_s": (events / untraced_run_s
                                if untraced_run_s else 0.0),
        "parallel.cluster_s_max": max(scenario_s, default=0.0),
        "parallel.cluster_s_mean": mean_scenario,
        "parallel.imbalance": (max(scenario_s) / mean_scenario
                               if mean_scenario else 0.0),
        "fleet.merge_s": per_pass(get("fleet.merge").total_s),
        "other_s": traced_run_s - per_pass(tracer.top_level_s()),
        "trace.run_s": traced_run_s,
        "trace.overhead": (traced_run_s / untraced_run_s
                           if untraced_run_s else 0.0),
        "trace.spans": per_pass(len(tracer)),
    }


def self_time_table(stats: Dict[str, SpanStats], passes: int
                    ) -> List[Tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) per span name, per pass."""
    rows = []
    for name, entry in stats.items():
        rows.append((name, round(entry.calls / passes),
                     entry.total_s / passes, entry.self_s / passes))
    rows.sort(key=lambda row: -row[3])
    return rows

