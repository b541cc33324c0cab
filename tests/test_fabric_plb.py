"""Tests for the PLB: placement, make-room, and capacity violations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.fabric import plb as plb_module
from repro.fabric.annealing import AnnealResult, anneal
from repro.fabric.cluster import ServiceFabricCluster
from repro.fabric.failover import REASON_CAPACITY_VIOLATION, REASON_MAKE_ROOM
from repro.fabric.metrics import CPU_CORES, DISK_GB, MEMORY_GB, NodeCapacities
from repro.fabric.node import Node
from repro.fabric.plb import PlacementAndLoadBalancer
from repro.fabric.replica import Replica, ReplicaRole


def make_cluster(node_count=4, cpu=32.0, disk=1000.0, seed=3,
                 use_annealing=True):
    return ServiceFabricCluster(
        node_count=node_count,
        capacities=NodeCapacities(cpu_cores=cpu, disk_gb=disk,
                                  memory_gb=128.0),
        plb_rng=np.random.default_rng(seed),
        use_annealing=use_annealing)


class TestPlacement:
    def test_single_replica_placed(self):
        cluster = make_cluster()
        record = cluster.create_service("db-1", 1, 4.0, {DISK_GB: 10.0},
                                        now=0)
        assert len(record.replicas) == 1
        assert record.replicas[0].node_id is not None

    def test_replicas_on_distinct_nodes(self):
        cluster = make_cluster()
        record = cluster.create_service("db-1", 4, 2.0, {DISK_GB: 10.0},
                                        now=0)
        node_ids = [replica.node_id for replica in record.replicas]
        assert len(set(node_ids)) == 4

    def test_first_replica_is_primary(self):
        cluster = make_cluster()
        record = cluster.create_service("db-1", 4, 2.0, {}, now=0)
        assert record.replicas[0].role is ReplicaRole.PRIMARY
        assert all(replica.role is ReplicaRole.SECONDARY
                   for replica in record.replicas[1:])

    def test_insufficient_nodes_rejected(self):
        cluster = make_cluster(node_count=3)
        with pytest.raises(PlacementError):
            cluster.create_service("db-1", 4, 2.0, {}, now=0)

    def test_cpu_capacity_respected(self):
        cluster = make_cluster(node_count=2, cpu=8.0)
        cluster.create_service("a", 1, 8.0, {}, now=0)
        cluster.create_service("b", 1, 8.0, {}, now=0)
        with pytest.raises(PlacementError):
            cluster.create_service("c", 1, 8.0, {}, now=0)

    def test_disk_capacity_respected(self):
        cluster = make_cluster(node_count=1, disk=100.0)
        with pytest.raises(PlacementError):
            cluster.create_service("big", 1, 1.0, {DISK_GB: 200.0}, now=0)

    def test_greedy_mode_spreads_by_free_cpu(self):
        cluster = make_cluster(use_annealing=False)
        cluster.create_service("a", 1, 10.0, {}, now=0)
        record = cluster.create_service("b", 1, 10.0, {}, now=0)
        # Greedy picks the freest node, never the one hosting "a".
        a_node = cluster.service("a").replicas[0].node_id
        assert record.replicas[0].node_id != a_node

    def test_placement_balances_load(self):
        cluster = make_cluster(node_count=4)
        for index in range(8):
            cluster.create_service(f"svc-{index}", 1, 4.0, {}, now=0)
        loads = [node.load(CPU_CORES) for node in cluster.nodes]
        assert max(loads) - min(loads) <= 4.0


class TestMakeRoom:
    def test_placement_succeeds_after_make_room(self):
        # Fill both nodes to 28/32 cores with small services; a 6-core
        # request then needs a relocation to fit.
        cluster = make_cluster(node_count=2, cpu=32.0)
        for index in range(14):
            cluster.create_service(f"s{index}", 1, 4.0, {}, now=0)
        record = cluster.create_service("big", 1, 6.0, {}, now=0)
        assert record.replicas[0].node_id is not None
        moves = [r for r in cluster.failovers
                 if r.reason == REASON_MAKE_ROOM]
        assert moves, "expected at least one make-room move"

    def test_make_room_moves_counted_separately(self):
        cluster = make_cluster(node_count=2, cpu=32.0)
        for index in range(14):
            cluster.create_service(f"s{index}", 1, 4.0, {}, now=0)
        cluster.create_service("big", 1, 6.0, {}, now=0)
        assert cluster.plb.stats.make_room_moves >= 1
        for record in cluster.failovers:
            assert record.reason == REASON_MAKE_ROOM
            assert not record.is_capacity_failover

    def test_impossible_even_with_make_room(self):
        cluster = make_cluster(node_count=1, cpu=8.0)
        cluster.create_service("a", 1, 8.0, {}, now=0)
        with pytest.raises(PlacementError):
            cluster.create_service("b", 1, 4.0, {}, now=0)


class TestViolations:
    def test_disk_violation_triggers_failover(self):
        cluster = make_cluster(node_count=2, disk=100.0)
        a = cluster.create_service("a", 1, 2.0, {DISK_GB: 60.0}, now=0)
        b = cluster.create_service("b", 1, 2.0, {DISK_GB: 60.0}, now=0)
        # Force both onto violation: report b's disk growing past capacity
        # on whichever node it shares... place them on the same node is
        # impossible (2 nodes, balanced), so grow one replica past 100.
        replica = a.replicas[0]
        cluster.report_load(replica, {DISK_GB: 120.0})
        node = cluster.node(replica.node_id)
        assert node.violates(DISK_GB)
        records = cluster.sweep_violations(now=10)
        # The replica itself cannot fit anywhere (120 > 100): the sweep
        # must not crash; either it moved the other tenant or got stuck.
        assert all(r.reason == REASON_CAPACITY_VIOLATION for r in records)

    def test_violation_fixed_by_moving_smallest_covering(self):
        cluster = make_cluster(node_count=3, disk=100.0, cpu=64.0)
        services = []
        for index, disk in enumerate((40.0, 30.0, 20.0)):
            services.append(cluster.create_service(
                f"s{index}", 1, 2.0, {DISK_GB: disk}, now=0))
        # Manually pile all three onto node 0 to create a violation.
        for record in services:
            replica = record.replicas[0]
            if replica.node_id != 0:
                cluster.node(replica.node_id).detach(replica)
                cluster.node(0).attach(replica)
        cluster.node(0).recompute_loads()
        assert cluster.node(0).load(DISK_GB) == pytest.approx(90.0)
        cluster.report_load(services[0].replicas[0], {DISK_GB: 55.0})
        assert cluster.node(0).violates(DISK_GB)

        records = cluster.sweep_violations(now=5)
        assert records, "violation should be fixed by a move"
        assert not cluster.node(0).violates(DISK_GB)
        # Smallest replica that covers the 5GB excess is the 20GB one.
        assert records[0].disk_moved_gb == pytest.approx(20.0)

    def test_primary_move_promotes_secondary(self):
        cluster = make_cluster(node_count=5, disk=100.0)
        record = cluster.create_service("bc", 4, 2.0, {DISK_GB: 30.0},
                                        now=0)
        primary = record.primary
        primary_node = cluster.node(primary.node_id)
        cluster.report_load(primary, {DISK_GB: 120.0})
        cluster.sweep_violations(now=5)
        # A new primary must exist and be unique.
        primaries = [replica for replica in record.replicas
                     if replica.is_primary]
        assert len(primaries) == 1
        cluster.validate_invariants()

    def test_downtime_recorded_for_primary_moves(self):
        cluster = make_cluster(node_count=2, disk=100.0)
        record = cluster.create_service("gp", 1, 2.0, {DISK_GB: 60.0},
                                        now=0)
        cluster.create_service("gp2", 1, 2.0, {DISK_GB: 30.0}, now=0)
        replica = record.replicas[0]
        cluster.report_load(replica, {DISK_GB: 80.0})
        records = cluster.sweep_violations(now=5)
        if records:  # single-replica moves always carry downtime
            assert all(r.downtime_seconds > 0 for r in records
                       if r.role is ReplicaRole.PRIMARY)

    def test_stuck_violation_counted(self):
        cluster = make_cluster(node_count=1, disk=100.0)
        record = cluster.create_service("only", 1, 2.0, {DISK_GB: 50.0},
                                        now=0)
        cluster.report_load(record.replicas[0], {DISK_GB: 150.0})
        records = cluster.sweep_violations(now=5)
        assert records == []
        assert cluster.plb.stats.stuck_violations == 1


class TestInvariants:
    def test_validate_after_churn(self):
        cluster = make_cluster(node_count=6, cpu=64.0, disk=2000.0)
        rng = np.random.default_rng(0)
        for index in range(30):
            replica_count = 4 if index % 5 == 0 else 1
            cluster.create_service(f"svc-{index}", replica_count,
                                   float(rng.integers(2, 9)),
                                   {DISK_GB: float(rng.integers(5, 80))},
                                   now=index)
        for index in range(0, 30, 3):
            cluster.drop_service(f"svc-{index}")
        cluster.validate_invariants()
        assert cluster.service_count == 20


def reference_energy(plb, selection, loads):
    """The per-node energy evaluation the precomputed terms replace."""
    chosen = set(selection)
    energy = 0.0
    for node in plb._nodes:
        cpu = node.load(CPU_CORES)
        disk = node.load(DISK_GB)
        if node.node_id in chosen:
            cpu += loads.get(CPU_CORES, 0.0)
            disk += loads.get(DISK_GB, 0.0)
        energy += plb.cpu_weight * (cpu / node.capacities.cpu_cores) ** 2
        energy += plb.disk_weight * (disk / node.capacities.disk_gb) ** 2
    return energy


class ReferencePlb(PlacementAndLoadBalancer):
    """Annealing placement without precomputed terms, memos or skips.

    Every energy is evaluated from scratch and every neighbour makes
    both ``rng.integers`` calls, even over a single choice.
    """

    def find_placement(self, service_id, replica_count, loads):
        feasible = self._feasible_nodes(service_id, loads)
        if len(feasible) < replica_count:
            self.stats.placement_failures += 1
            raise PlacementError(service_id)
        feasible.sort(key=lambda n: (-n.free(CPU_CORES), n.node_id))
        initial = tuple(node.node_id for node in feasible[:replica_count])
        if len(feasible) == replica_count:
            self.stats.placements += 1
            return list(initial)
        candidate_ids = [node.node_id for node in feasible]

        def neighbour(selection, rng):
            chosen = list(selection)
            outside = [nid for nid in candidate_ids if nid not in selection]
            swap_at = int(rng.integers(len(chosen)))
            chosen[swap_at] = outside[int(rng.integers(len(outside)))]
            return tuple(chosen)

        result = anneal(initial,
                        lambda selection: reference_energy(self, selection,
                                                           loads),
                        neighbour, self._rng,
                        iterations=self.anneal_iterations)
        self.stats.anneal_iterations += result.iterations
        self.stats.placements += 1
        return list(result.state)


_POSITIVE = st.floats(min_value=0.5, max_value=1e4, allow_nan=False)
_LOAD = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def energy_cases(draw):
    """Random node loads and capacities, a selection, and new loads."""
    node_count = draw(st.integers(min_value=1, max_value=12))
    nodes = []
    for node_id in range(node_count):
        node = Node(node_id, NodeCapacities(cpu_cores=draw(_POSITIVE),
                                            disk_gb=draw(_POSITIVE),
                                            memory_gb=128.0))
        for index in range(draw(st.integers(min_value=0, max_value=3))):
            node.attach(Replica(
                replica_id=node_id * 10 + index,
                service_id=f"svc-{node_id}-{index}",
                role=ReplicaRole.PRIMARY,
                reported={DISK_GB: draw(_LOAD), MEMORY_GB: draw(_LOAD),
                          CPU_CORES: draw(_LOAD)}))
        nodes.append(node)
    plb = PlacementAndLoadBalancer(nodes, np.random.default_rng(0),
                                   cpu_weight=draw(_POSITIVE),
                                   disk_weight=draw(_POSITIVE))
    selection = tuple(draw(st.permutations(range(node_count)))[
        :draw(st.integers(min_value=1, max_value=node_count))])
    loads = {}
    if draw(st.booleans()):
        loads[CPU_CORES] = draw(_LOAD)
    if draw(st.booleans()):
        loads[DISK_GB] = draw(_LOAD)
    if draw(st.booleans()):
        loads[MEMORY_GB] = draw(_LOAD)
    return plb, selection, loads


class TestPlacementEnergy:
    @given(case=energy_cases())
    @settings(max_examples=200, deadline=None)
    def test_precomputed_energy_is_bit_equal(self, case):
        plb, selection, loads = case
        energy = plb._placement_energy(loads)
        expected = reference_energy(plb, selection, loads)
        assert energy(selection) == expected
        assert energy(selection) == expected  # memoized

    def test_memo_does_not_carry_over_between_placements(self):
        cluster = make_cluster(node_count=4)
        plb = cluster.plb
        loads = {CPU_CORES: 4.0, DISK_GB: 50.0}
        selection = (0, 1)
        first = plb._placement_energy(loads)
        before = first(selection)
        cluster.create_service("db-1", 4, 8.0, {DISK_GB: 200.0}, now=0)
        second = plb._placement_energy(loads)
        after = second(selection)
        assert after == reference_energy(plb, selection, loads)
        assert after != before
        assert first(selection) == before

    @pytest.mark.parametrize("node_count", [2, 5, 8])
    def test_placements_match_reference(self, node_count):
        """Same placements and the same PLB stream state afterwards."""
        def run(plb_class):
            cluster = make_cluster(node_count=node_count, cpu=64.0,
                                   disk=4096.0)
            cluster.plb = plb_class(cluster.nodes, cluster.plb._rng)
            rng = np.random.default_rng(11)
            placements = []
            for index in range(40):
                replicas = int(rng.choice([1, 2, 4]))
                if replicas > node_count:
                    continue
                try:
                    record = cluster.create_service(
                        f"db-{index}", replicas, float(rng.integers(1, 8)),
                        {DISK_GB: float(rng.integers(10, 300))}, now=index)
                except PlacementError:
                    placements.append(None)
                    continue
                placements.append([r.node_id for r in record.replicas])
            placements.append(cluster.plb._rng.bit_generator.state)
            return placements, cluster.plb.stats

        placements, stats = run(PlacementAndLoadBalancer)
        reference, reference_stats = run(ReferencePlb)
        assert placements == reference
        assert stats == reference_stats
        assert stats.anneal_iterations > 0

    def test_duplicate_node_in_annealed_selection_raises(self, monkeypatch):
        """The invariant checks survive ``python -O``."""
        def broken_anneal(initial, energy, neighbour, rng, iterations):
            return AnnealResult(state=(initial[0], initial[0]), energy=0.0,
                                iterations=iterations, accepted_moves=0)

        monkeypatch.setattr(plb_module, "anneal", broken_anneal)
        cluster = make_cluster(node_count=4)
        with pytest.raises(PlacementError, match="chose a node twice"):
            cluster.plb.find_placement("db-1", 2, {CPU_CORES: 1.0})
