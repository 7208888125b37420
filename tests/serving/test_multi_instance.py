"""Multi-instance regression: N serving stacks must coexist in one process.

The fleet layer runs one ShardManager (and hence one set of
VersionedSnapshotStores) per simulated node, all in a single process.
These tests pin the audit result: no module-level state or shared cache
namespace collides across instances, provided each instance is given its
own TelemetryRegistry — the process-wide ``default_registry`` is the one
intentionally shared namespace, and injecting a registry opts out of it.
"""

from repro.backend.telemetry import TelemetryRegistry, default_registry
from repro.serving.shards import MapShard, ShardKey, ShardManager
from repro.serving.snapshot import MapSnapshot, VersionedSnapshotStore

KEY = ShardKey("Lab1", 1)


def stub(version, published_at=0.0):
    return MapSnapshot(
        version=version, shard_key=KEY, result=None, published_at=published_at
    )


class TestShardManagerIsolation:
    def test_injected_registries_never_cross_count(self, small_dataset):
        registries = [TelemetryRegistry() for _ in range(3)]
        managers = [ShardManager(telemetry=r) for r in registries]
        counts = [3, 2, 1]
        sessions = [
            s for s in small_dataset.sessions if s.task in ("SWS", "SRS")
        ]
        for manager, count in zip(managers, counts):
            for session in sessions[:count]:
                manager.ingest_session(session)
        for registry, count in zip(registries, counts):
            assert registry.value("serving_sessions_ingested") == count

    def test_ingest_state_is_per_instance(self, small_dataset):
        a = ShardManager(telemetry=TelemetryRegistry())
        b = ShardManager(telemetry=TelemetryRegistry())
        sessions = [
            s for s in small_dataset.sessions if s.task in ("SWS", "SRS")
        ]
        for session in sessions:
            a.ingest_session(session)
        assert len(a.shards()) == 1
        assert b.shards() == []
        shard = a.shards()[0]
        assert shard.sessions_ingested == len(sessions)

    def test_manager_registry_propagates_to_its_shards(self):
        registry = TelemetryRegistry()
        manager = ShardManager(telemetry=registry)
        shard = manager.shard_for("Lab1", 1)
        assert shard.telemetry is registry

    def test_refresh_counters_stay_per_instance(self, small_dataset, empty_cache):
        registries = [TelemetryRegistry(), TelemetryRegistry()]
        managers = [ShardManager(telemetry=r) for r in registries]
        sessions = [
            s for s in small_dataset.sessions if s.task in ("SWS", "SRS")
        ]
        for session in sessions:
            managers[0].ingest_session(session)
        shared_before = default_registry.value("dataflow_nodes_executed")
        managers[0].refresh_all(now=1.0)
        managers[1].refresh_all(now=1.0)
        assert registries[0].value("serving_snapshots_published") == 1
        assert registries[1].value("serving_snapshots_published") == 0.0
        assert registries[0].value("dataflow_nodes_executed") > 0
        assert default_registry.value("dataflow_nodes_executed") == shared_before


class TestSnapshotStoreIsolation:
    def test_version_sequences_are_independent(self):
        a = VersionedSnapshotStore(KEY)
        b = VersionedSnapshotStore(KEY)
        a.publish(None, now=1.0)
        a.publish(None, now=2.0)
        first_b = b.publish(None, now=3.0)
        assert a.current().version == 2
        assert first_b.version == 1

    def test_shared_snapshot_install_does_not_entangle_stores(self):
        a = VersionedSnapshotStore(KEY)
        b = VersionedSnapshotStore(KEY)
        shared = stub(5)
        a.install(shared)
        b.install(shared)
        a.publish(None, now=9.0)
        assert a.current().version == 6
        assert b.current() is shared

    def test_same_key_shards_do_not_share_incremental_state(
        self, small_dataset
    ):
        a = MapShard(KEY, telemetry=TelemetryRegistry())
        b = MapShard(KEY, telemetry=TelemetryRegistry())
        sessions = [
            s for s in small_dataset.sessions if s.task in ("SWS", "SRS")
        ]
        for session in sessions:
            a.ingest(session)
        assert a.dirty and not b.dirty
        assert a.sessions_ingested == len(sessions)
        assert b.sessions_ingested == 0
        assert b.refresh(now=1.0) is None
