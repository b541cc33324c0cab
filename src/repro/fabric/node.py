"""Cluster nodes with incremental load aggregation.

Paper §3.1: "Every replica of the application reports their load
metrics to the PLB where it aggregates a centralized view of the load
on each node." Aggregates here are maintained incrementally so a
report costs O(metrics), not O(replicas).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.errors import FabricError
from repro.fabric.metrics import ALL_METRICS, NodeCapacities
from repro.fabric.replica import Replica


class Node:
    """One data-plane node: capacities plus hosted replicas."""

    def __init__(self, node_id: int, capacities: NodeCapacities) -> None:
        self.node_id = node_id
        self.capacities = capacities
        self._replicas: Dict[int, Replica] = {}
        #: Service ids hosted here. Anti-affinity caps it at one
        #: replica per service, so a set gives O(1) ``hosts_service``
        #: — the inner loop of every placement scan at fleet scale.
        self._service_ids: Set[str] = set()
        self._loads: Dict[str, float] = {metric: 0.0 for metric in ALL_METRICS}
        #: True while the node undergoes a (simulated) maintenance
        #: upgrade; collectors may flag its readings as outliers.
        self.in_maintenance = False
        #: False while the node is down (failure injection); the PLB
        #: never places onto or moves replicas to an unavailable node.
        self.available = True

    # -- topology -----------------------------------------------------

    @property
    def replicas(self) -> List[Replica]:
        """Replicas currently hosted on this node."""
        return list(self._replicas.values())

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    def hosts_service(self, service_id: str) -> bool:
        """True if any replica of ``service_id`` lives here (anti-affinity)."""
        return service_id in self._service_ids

    def attach(self, replica: Replica) -> None:
        """Host ``replica`` and add its reported loads to the aggregates."""
        if replica.replica_id in self._replicas:
            raise FabricError(
                f"replica {replica.replica_id} already on node {self.node_id}")
        if self.hosts_service(replica.service_id):
            raise FabricError(
                f"node {self.node_id} already hosts a replica of "
                f"service {replica.service_id}")
        self._replicas[replica.replica_id] = replica
        self._service_ids.add(replica.service_id)
        replica.node_id = self.node_id
        for metric, value in replica.reported.items():
            self._loads[metric] = self._loads.get(metric, 0.0) + value

    def detach(self, replica: Replica) -> None:
        """Remove ``replica`` and subtract its loads from the aggregates."""
        if replica.replica_id not in self._replicas:
            raise FabricError(
                f"replica {replica.replica_id} not on node {self.node_id}")
        del self._replicas[replica.replica_id]
        self._service_ids.discard(replica.service_id)
        replica.node_id = None
        for metric, value in replica.reported.items():
            self._loads[metric] = self._loads.get(metric, 0.0) - value

    # -- load accounting ----------------------------------------------

    def apply_report(self, replica: Replica, loads: Dict[str, float]) -> None:
        """Update a hosted replica's reported loads and the aggregates."""
        if replica.replica_id not in self._replicas:
            raise FabricError(
                f"replica {replica.replica_id} not on node {self.node_id}")
        reported = replica.reported
        node_loads = self._loads
        for metric, new_value in loads.items():
            old_value = reported.get(metric, 0.0)
            reported[metric] = new_value
            node_loads[metric] = (node_loads.get(metric, 0.0)
                                  + new_value - old_value)

    def load(self, metric: str) -> float:
        """Aggregate load of ``metric`` on this node."""
        return self._loads.get(metric, 0.0)

    def free(self, metric: str) -> float:
        """Remaining logical capacity for ``metric``."""
        return self.capacities.of(metric) - self.load(metric)

    def utilization(self, metric: str) -> float:
        """Load as a fraction of the logical capacity."""
        return self.load(metric) / self.capacities.of(metric)

    def violates(self, metric: str, tolerance: float = 1e-9) -> bool:
        """True when the aggregate load exceeds the logical capacity."""
        return self.load(metric) > self.capacities.of(metric) + tolerance

    def recompute_loads(self) -> None:
        """Rebuild aggregates from scratch (consistency check / repair)."""
        loads = {metric: 0.0 for metric in ALL_METRICS}
        for replica in self._replicas.values():
            for metric, value in replica.reported.items():
                loads[metric] = loads.get(metric, 0.0) + value
        self._loads = loads

    def __repr__(self) -> str:
        return (f"Node({self.node_id}, replicas={self.replica_count}, "
                f"cpu={self.load('cpu-cores'):.0f}/"
                f"{self.capacities.cpu_cores:.0f}, "
                f"disk={self.load('disk-gb'):.0f}/"
                f"{self.capacities.disk_gb:.0f})")


def total_load(nodes: Iterable[Node], metric: str) -> float:
    """Sum of one metric's aggregate load across ``nodes``."""
    return sum(node.load(metric) for node in nodes)


def total_capacity(nodes: Iterable[Node], metric: str) -> float:
    """Sum of one metric's logical capacity across ``nodes``."""
    return sum(node.capacities.of(metric) for node in nodes)
