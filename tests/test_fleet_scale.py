"""Fleet-scale pins: database pickle payloads and the 100-cluster golden.

Fleet results cross process boundaries as pickles, so the
:class:`~repro.sqldb.database.DatabaseInstance` payload and ``repr`` are
pinned byte for byte. A golden 100-cluster fleet smoke pins the merged
digest so any silent drift in the simulator fails loudly.
"""

import hashlib
import pickle

import pytest

from repro.fleet import ClusterTemplate, FleetTopology, run_fleet
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.slo import get_slo


class TestDatabasePickleIdentity:
    """Pickles and reprs keep the dataclass-era bytes."""

    #: sha256 of the pickle below: a field-ordered dict of plain
    #: scalars. Parallel sweeps ship results, databases included, in it.
    PAYLOAD_SHA256 = ("9b29cd58a1a20b646e0a8ceac8b121af"
                      "e853c331f7099d56c7b365fc46ce5909")

    def instance(self):
        return DatabaseInstance(db_id="db-7", slo=get_slo("GP_Gen5_2"),
                                created_at=3600, initial_data_gb=12.5)

    def test_pickle_bytes_equal(self):
        database = self.instance()
        database.failover_count = 2
        database.record_downtime(1.5)
        payload = pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL)
        assert hashlib.sha256(payload).hexdigest() == self.PAYLOAD_SHA256
        assert repr(database) == (
            "DatabaseInstance(db_id='db-7', slo=ServiceLevelObjective("
            "name='GP_Gen5_2', edition=<Edition.STANDARD_GP: "
            "'Standard/GP'>, cores=2, memory_gb=10.2, max_data_gb=4096.0), "
            "created_at=3600, initial_data_gb=12.5, dropped_at=None, "
            "downtime_seconds=1.5, high_initial_growth=False, "
            "initial_growth_total_gb=0.0, rapid_growth=False, "
            "from_bootstrap=False, failover_count=3, "
            "dropped_replica_ids=[])")

    def test_unpickled_instance_is_standalone_and_equal(self):
        database = self.instance()
        clone = pickle.loads(pickle.dumps(database))
        assert clone == database
        clone.failover_count = 9
        assert database.failover_count == 0
        assert clone != database


@pytest.mark.fleet
class TestFleetGolden:
    """Golden pinned 100-cluster fleet smoke.

    The digest is a sha256 over the canonical JSON of all 100 cluster
    summaries — any drift in the simulator, the replica and database
    state, the reducer, or the merge shows up here first.
    """

    GOLDEN_DIGEST = ("cb442bafd96614c58ce330cc05169da648e488b4"
                     "ed674fa7c2830b3c5eb97ae7")

    def topology(self):
        return FleetTopology(cluster_count=100, prefix="golden",
                             template=ClusterTemplate(node_count=4,
                                                      days=0.05))

    def test_hundred_cluster_smoke_pin(self):
        result = run_fleet(self.topology(), max_workers=1)
        kpis = result.kpis
        assert kpis.clusters == 100
        assert kpis.nodes == 400
        assert kpis.databases_created == 6216
        assert kpis.active_databases == 6192
        assert kpis.reserved_cores == 27424.0
        assert kpis.creation_redirects == 0
        assert kpis.failover_count == 0
        assert kpis.penalized_databases == 1
        assert result.digest == self.GOLDEN_DIGEST
