"""``repro.serving`` — the read path: maps as a queryable service.

The paper's deployment story does not end at reconstruction; the cloud
backend exists so that localization and navigation clients can *consume*
floor plans at scale. This package turns shard snapshots (batch-planner
builds of each shard's uploads, see :mod:`repro.core.incremental`) into
a served system, simulated end to end on a deterministic virtual clock:

- :mod:`repro.serving.snapshot` — copy-on-publish versioned snapshots;
  readers always see one consistent immutable version, never a torn map;
- :mod:`repro.serving.shards` — the corpus partitioned by
  (building, floor), one replicated snapshot store per shard, refresh
  driven by :class:`~repro.backend.scheduler.SimulatedScheduler`;
- :mod:`repro.serving.router` — admission control, bounded queues, load
  shedding and hedged replica reads over a seeded discrete-event loop;
- :mod:`repro.serving.handlers` — ``get_floorplan`` / ``locate`` /
  ``route`` query handlers wrapping the core localization and
  navigation modules;
- :mod:`repro.serving.loadgen` — open-loop Poisson traffic plus the SLO
  tracker (p50/p95/p99 virtual latency, shed rate, per-shard QPS).

Run ``python -m repro serve-sim`` for the end-to-end demonstration, and
see the README's "Serving" section for the architecture sketch.
Everything in this package runs on the virtual clock — crowdlint CM007
flags real-time sleeps here, because one ``time.sleep`` would couple the
simulation's results to the host machine.
"""

from repro.serving.handlers import LocateQuery, QueryHandlers, RouteQuery
from repro.serving.loadgen import (
    LoadProfile,
    PayloadFactory,
    SLOTracker,
    generate_arrivals,
    render_report,
    run_serving_simulation,
)
from repro.serving.router import (
    EventLoop,
    Request,
    RequestOutcome,
    RequestRouter,
    ServingConfig,
)
from repro.serving.shards import MapShard, ShardKey, ShardManager
from repro.serving.snapshot import MapSnapshot, VersionedSnapshotStore

__all__ = [
    "EventLoop",
    "LoadProfile",
    "PayloadFactory",
    "LocateQuery",
    "MapShard",
    "MapSnapshot",
    "QueryHandlers",
    "Request",
    "RequestOutcome",
    "RequestRouter",
    "RouteQuery",
    "SLOTracker",
    "ServingConfig",
    "ShardKey",
    "ShardManager",
    "VersionedSnapshotStore",
    "generate_arrivals",
    "render_report",
    "run_serving_simulation",
]
