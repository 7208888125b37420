"""Shard management: one incremental reconstruction per (building, floor).

"Serve heavy traffic from millions of users" decomposes naturally along
the corpus: queries for one building's floor never need another floor's
map, so each (building, floor) pair becomes a shard owning its own
:class:`~repro.core.incremental.IncrementalCrowdMap` and a replicated
set of :class:`~repro.serving.snapshot.VersionedSnapshotStore` — one
store per serving replica, all installed with the *same* snapshot object
on publish so the derived query indexes are built once per version.

:meth:`MapShard.ingest` only queues an upload; the next
:meth:`MapShard.refresh` rebuilds the map through the batch planner, so
a corrupt upload is quarantined there exactly as in a batch build, with
counters on the shard's registry (under ``pipeline_on_error="raise"``
the refresh raises and the shard stays dirty).

Refresh is scheduler-driven, exactly like the paper's APScheduler-fed
cascade: :meth:`ShardManager.attach_refresh_job` registers a periodic
job on a :class:`~repro.backend.scheduler.SimulatedScheduler` that
re-snapshots every *dirty* shard (one that ingested sessions since its
last publish) and publishes the result to every replica. Shards that saw
no uploads since the last sweep publish nothing — readers keep the
current version.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.backend.scheduler import ScheduledJob, SimulatedScheduler
from repro.backend.telemetry import TelemetryRegistry, default_registry
from repro.core.config import CrowdMapConfig
from repro.core.incremental import IncrementalCrowdMap
from repro.serving.snapshot import MapSnapshot, VersionedSnapshotStore


class ShardKey(NamedTuple):
    """The partition key: every query and upload names one of these."""

    building: str
    floor: int


class MapShard:
    """One shard: its incremental build state plus replicated read stores."""

    def __init__(
        self,
        key: ShardKey,
        config: Optional[CrowdMapConfig] = None,
        n_replicas: int = 2,
        retain_versions: int = 3,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        if n_replicas < 1:
            raise ValueError("a shard needs at least one replica")
        self.key = key
        self.config = config or CrowdMapConfig()
        self.telemetry = telemetry or default_registry
        self.incremental = IncrementalCrowdMap(self.config, self.telemetry)
        self.replicas: Tuple[VersionedSnapshotStore, ...] = tuple(
            VersionedSnapshotStore(key, retain=retain_versions)
            for _ in range(n_replicas)
        )
        self.dirty = False
        self._next_version = 1
        self.sessions_ingested = 0

    def ingest(self, session) -> None:
        """Queue one uploaded session for the shard's next refresh."""
        self.incremental.add_session(session)
        self.sessions_ingested += 1
        self.dirty = True
        self.telemetry.counter(
            "serving_sessions_ingested", "sessions routed into shards"
        ).inc()

    def current(self, replica: int = 0) -> Optional[MapSnapshot]:
        return self.replicas[replica].current()

    def refresh(self, now: float) -> Optional[MapSnapshot]:
        """Re-snapshot and publish to every replica if the shard is dirty.

        Returns the newly published snapshot, or None when there was
        nothing to publish (clean shard, or no SWS content yet).
        """
        if not self.dirty:
            return None
        result = self.incremental.snapshot()
        if result is None:
            return None
        snapshot = MapSnapshot(
            version=self._next_version,
            shard_key=self.key,
            result=result,
            published_at=now,
            config=self.config,
        )
        for store in self.replicas:
            store.install(snapshot)
        self._next_version += 1
        self.dirty = False
        self.telemetry.counter(
            "serving_snapshots_published", "shard snapshot publishes"
        ).inc()
        return snapshot

    def publish_stub(self, now: float) -> MapSnapshot:
        """Publish a content-free snapshot (routing simulations only)."""
        snapshot = MapSnapshot(
            version=self._next_version,
            shard_key=self.key,
            result=None,
            published_at=now,
            config=self.config,
        )
        for store in self.replicas:
            store.install(snapshot)
        self._next_version += 1
        self.dirty = False
        return snapshot


class ShardManager:
    """Owns every shard; routes uploads in and hands shards to the router."""

    def __init__(
        self,
        config: Optional[CrowdMapConfig] = None,
        n_replicas: int = 2,
        retain_versions: int = 3,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        self.config = config or CrowdMapConfig()
        self.n_replicas = n_replicas
        self.retain_versions = retain_versions
        self.telemetry = telemetry or default_registry
        self._shards: Dict[ShardKey, MapShard] = {}

    def shard_for(self, building: str, floor: int) -> MapShard:
        """The shard owning (building, floor), created on first reference."""
        key = ShardKey(building, int(floor))
        shard = self._shards.get(key)
        if shard is None:
            shard = MapShard(
                key,
                config=self.config,
                n_replicas=self.n_replicas,
                retain_versions=self.retain_versions,
                telemetry=self.telemetry,
            )
            self._shards[key] = shard
            self.telemetry.counter(
                "serving_shards_created", "distinct (building, floor) shards"
            ).inc()
        return shard

    def get(self, key: ShardKey) -> Optional[MapShard]:
        return self._shards.get(key)

    def ingest_session(self, session) -> MapShard:
        """Route an uploaded session to its shard by its own annotations."""
        shard = self.shard_for(session.building, session.floor)
        shard.ingest(session)
        return shard

    def shards(self) -> List[MapShard]:
        """All shards in creation order (deterministic: dict preserves it)."""
        return list(self._shards.values())

    def keys(self) -> List[ShardKey]:
        return list(self._shards.keys())

    def refresh_all(self, now: float) -> List[MapSnapshot]:
        """Refresh every dirty shard; returns the snapshots published."""
        published = []
        for shard in self._shards.values():
            snapshot = shard.refresh(now)
            if snapshot is not None:
                published.append(snapshot)
        return published

    def attach_refresh_job(
        self,
        scheduler: SimulatedScheduler,
        interval: float,
        delay: Optional[float] = None,
    ) -> ScheduledJob:
        """Register the periodic refresh-and-publish sweep on ``scheduler``."""
        return scheduler.add_job(
            "shard_refresh",
            interval,
            lambda: self.refresh_all(scheduler.now),
            delay=delay,
        )
