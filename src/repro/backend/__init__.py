"""Cloud-side substrate the pipeline, serving and fleet layers run on.

The paper deploys CrowdMap's backend on Azure: a Tornado web server
receives chunked uploads, raw data lands in MongoDB, an APScheduler
feeds a cascade pipeline, and PySpark parallelizes trajectory
aggregation. The upload protocol is not simulated here: sessions enter
as :class:`~repro.world.walker.CaptureSession` objects through
:meth:`~repro.serving.shards.ShardManager.ingest_session`. What stays
is the execution substrate behind it:

- :mod:`repro.backend.scheduler` — a simulated-clock periodic scheduler
  (the APScheduler stand-in that drives shard refreshes);
- :mod:`repro.backend.workers` — serial or thread-pool maps for pipeline
  stages, standing in for the Spark job (all in the caller's address
  space);
- :mod:`repro.backend.cache` — the content-addressed result cache;
- :mod:`repro.backend.batching` — same-shape frame batches for the
  batched vision kernels;
- :mod:`repro.backend.telemetry` — counters, gauges and histograms;
- :mod:`repro.backend.faults` — a seeded, lossy, partitionable link
  model for the fleet gossip mesh.
"""

from repro.backend.faults import LinkFaultModel, Partition
from repro.backend.scheduler import SimulatedScheduler, ScheduledJob
from repro.backend.workers import map_parallel, map_with_failures
from repro.backend.telemetry import TelemetryRegistry, default_registry

__all__ = [
    "LinkFaultModel",
    "Partition",
    "SimulatedScheduler",
    "ScheduledJob",
    "map_parallel",
    "map_with_failures",
    "TelemetryRegistry",
    "default_registry",
]
