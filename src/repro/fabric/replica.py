"""Service replicas and their reported loads.

Every SQL database is a Service Fabric *service*; local-store
(Premium/BC) databases run four replicas on four distinct nodes, while
remote-store (Standard/GP) databases run a single replica (§2). Each
replica owns the loads it last reported to the PLB.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.fabric.metrics import CPU_CORES


class ReplicaRole(enum.Enum):
    """Replica role within a service's replica set."""

    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass(slots=True)
class Replica:
    """One replica of a service placed on a node.

    Attributes:
        replica_id: unique id within the cluster.
        service_id: owning service (the database id).
        role: primary or secondary.
        node_id: hosting node, ``None`` while unplaced.
        reported: last loads reported to the PLB, metric name -> value.
            CPU is seeded with the SLO reservation at creation and never
            changes; disk/memory change with every report.
    """

    replica_id: int
    service_id: str
    role: ReplicaRole
    node_id: Optional[int] = None
    reported: Dict[str, float] = field(default_factory=dict)

    @property
    def is_primary(self) -> bool:
        return self.role is ReplicaRole.PRIMARY

    @property
    def cpu_cores(self) -> float:
        """The CPU reservation this replica holds."""
        return self.reported.get(CPU_CORES, 0.0)

    def load(self, metric: str) -> float:
        """Last reported load for ``metric`` (0 when never reported)."""
        return self.reported.get(metric, 0.0)

    def __repr__(self) -> str:
        return (f"Replica({self.replica_id}, svc={self.service_id}, "
                f"{self.role.value}, node={self.node_id})")
