"""Database instances and their lifecycle state.

A :class:`DatabaseInstance` is the control-plane view of one customer
database: its SLO, creation/drop timestamps, accumulated downtime (for
the SLA penalty in §5.1), and the behaviour flags Toto's disk models
key on (high initial growth, predictable rapid growth).

The class keeps the attribute surface, equality, ``repr`` and pickle
payload of the dataclass it started as, but declares ``__slots__``:
a ring holds every database it ever created, so the per-instance
``__dict__`` is worth saving.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SqlDbError
from repro.sqldb.editions import Edition, GP_TEMPDB_BASELINE_GB
from repro.sqldb.slo import ServiceLevelObjective

#: Lifecycle fields in the (former dataclass) field order — the order
#: used by ``__repr__``, ``__eq__`` and the pickle payload.
_STATE_FIELDS: Tuple[str, ...] = (
    "created_at", "initial_data_gb", "dropped_at", "downtime_seconds",
    "high_initial_growth", "initial_growth_total_gb", "rapid_growth",
    "from_bootstrap", "failover_count",
)


class DatabaseInstance:
    """One customer database hosted (or once hosted) in the ring.

    Attributes:
        db_id: unique id, stable across failovers.
        slo: purchased configuration.
        created_at: simulation timestamp of creation.
        dropped_at: timestamp of drop, ``None`` while active.
        initial_data_gb: data size at creation (restored mdf, bulk
            load, or a small fresh database).
        downtime_seconds: accumulated customer-visible unavailability;
            feeds the SLA credit calculation.
        high_initial_growth: Toto's Initial Creation Growth pattern is
            active for the first 30 minutes (§4.2.3).
        initial_growth_total_gb: total growth the pattern will deliver.
        rapid_growth: the Predictable Rapid Growth state machine governs
            this database (§4.2.4).
        from_bootstrap: True for databases placed before the benchmark
            officially starts (growth frozen during bootstrap, §5.2).
        failover_count: failovers that cost this database downtime.
    """

    __slots__ = ("db_id", "slo") + _STATE_FIELDS + ("dropped_replica_ids",)

    def __init__(self, db_id: str, slo: ServiceLevelObjective,
                 created_at: int, initial_data_gb: float,
                 dropped_at: Optional[int] = None,
                 downtime_seconds: float = 0.0,
                 high_initial_growth: bool = False,
                 initial_growth_total_gb: float = 0.0,
                 rapid_growth: bool = False,
                 from_bootstrap: bool = False,
                 failover_count: int = 0,
                 dropped_replica_ids: Optional[List[int]] = None) -> None:
        if initial_data_gb < 0:
            raise SqlDbError(
                f"{db_id}: negative initial data size "
                f"{initial_data_gb}")
        self.db_id = db_id
        self.slo = slo
        self.created_at = created_at
        self.initial_data_gb = initial_data_gb
        self.dropped_at = dropped_at
        self.downtime_seconds = downtime_seconds
        self.high_initial_growth = high_initial_growth
        self.initial_growth_total_gb = initial_growth_total_gb
        self.rapid_growth = rapid_growth
        self.from_bootstrap = from_bootstrap
        self.failover_count = failover_count
        #: Replica ids released at drop time (per-node cache cleanup).
        self.dropped_replica_ids: List[int] = (
            [] if dropped_replica_ids is None else dropped_replica_ids)

    # -- dataclass-compatible protocol ---------------------------------

    def _field_tuple(self) -> Tuple[Any, ...]:
        values = [self.db_id, self.slo]
        for name in _STATE_FIELDS:
            values.append(getattr(self, name))
        values.append(self.dropped_replica_ids)
        return tuple(values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DatabaseInstance:
            return NotImplemented
        return self._field_tuple() == other._field_tuple()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        parts = [f"db_id={self.db_id!r}", f"slo={self.slo!r}"]
        parts.append(f"created_at={self.created_at!r}")
        parts.append(f"initial_data_gb={self.initial_data_gb!r}")
        parts.append(f"dropped_at={self.dropped_at!r}")
        parts.append(f"downtime_seconds={self.downtime_seconds!r}")
        parts.append(f"high_initial_growth={self.high_initial_growth!r}")
        parts.append(
            f"initial_growth_total_gb={self.initial_growth_total_gb!r}")
        parts.append(f"rapid_growth={self.rapid_growth!r}")
        parts.append(f"from_bootstrap={self.from_bootstrap!r}")
        parts.append(f"failover_count={self.failover_count!r}")
        parts.append(f"dropped_replica_ids={self.dropped_replica_ids!r}")
        return f"DatabaseInstance({', '.join(parts)})"

    def __getstate__(self) -> Dict[str, Any]:
        # The dataclass-era payload: a dict in field order.
        state: Dict[str, Any] = {"db_id": self.db_id, "slo": self.slo}
        for name in _STATE_FIELDS:
            state[name] = getattr(self, name)
        state["dropped_replica_ids"] = self.dropped_replica_ids
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    # -- derived views (unchanged) -------------------------------------

    @property
    def edition(self) -> Edition:
        return self.slo.edition

    @property
    def is_active(self) -> bool:
        return self.dropped_at is None

    @property
    def is_local_store(self) -> bool:
        return self.edition.is_local_store

    def lifetime_seconds(self, now: int) -> int:
        """Seconds the database has existed (up to drop time)."""
        dropped_at = self.dropped_at
        end = dropped_at if dropped_at is not None else now
        created_at = self.created_at
        if end < created_at:
            raise SqlDbError(
                f"{self.db_id}: lifetime query at {now} before creation "
                f"{created_at}")
        return end - created_at

    def downtime_fraction(self, now: int) -> float:
        """Downtime as a fraction of lifetime (0 for zero lifetime)."""
        lifetime = self.lifetime_seconds(now)
        if lifetime <= 0:
            return 0.0
        return self.downtime_seconds / lifetime

    def initial_local_disk_gb(self) -> float:
        """Local disk footprint each replica starts with.

        Local-store databases carry their full data on the node;
        remote-store databases only consume the tempdb baseline (§2).
        """
        if self.is_local_store:
            return self.initial_data_gb
        return GP_TEMPDB_BASELINE_GB

    def record_downtime(self, seconds: float) -> None:
        """Accumulate customer-visible unavailability from a failover."""
        if seconds < 0:
            raise SqlDbError(f"{self.db_id}: negative downtime {seconds}")
        self.downtime_seconds += seconds
        self.failover_count += 1

    def mark_dropped(self, now: int) -> None:
        if self.dropped_at is not None:
            raise SqlDbError(f"{self.db_id}: already dropped")
        if now < self.created_at:
            raise SqlDbError(
                f"{self.db_id}: drop at {now} before creation {self.created_at}")
        self.dropped_at = now
