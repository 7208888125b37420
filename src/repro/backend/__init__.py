"""Client-cloud backend substrate.

The paper deploys CrowdMap's backend on Azure: a Tornado web server
receives 5 MB-chunked uploads over WebSockets, raw data lands in MongoDB,
an APScheduler feeds a cascade pipeline, and PySpark parallelizes
trajectory aggregation. This package reproduces that dataflow in-process:

- :mod:`repro.backend.chunking` — zip-and-chunk upload protocol;
- :mod:`repro.backend.datastore` — an in-memory document store with
  MongoDB-style filters (the raw-data landing zone);
- :mod:`repro.backend.queue` — a task queue with retry/ack semantics;
- :mod:`repro.backend.scheduler` — a simulated-clock periodic scheduler;
- :mod:`repro.backend.workers` — serial or thread-pool maps for pipeline
  stages, plus a thread pool draining the task queue, standing in for
  the Spark job (all in the caller's address space);
- :mod:`repro.backend.server` — the ingest server tying upload, reassembly
  and storage together;
- :mod:`repro.backend.faults` — seeded fault injection (chaos testing the
  above: corrupt chunks, truncated IMU streams, flaky handlers).
"""

from repro.backend.chunking import chunk_payload, reassemble_chunks, Chunk
from repro.backend.datastore import DocumentStore, Document
from repro.backend.faults import (
    FaultDecision,
    FaultInjectionError,
    FaultInjector,
    FlakyHandler,
    LinkFaultModel,
    Partition,
    SlowHandler,
)
from repro.backend.queue import TaskQueue, Task, TaskState, RetryPolicy
from repro.backend.scheduler import SimulatedScheduler, ScheduledJob
from repro.backend.workers import WorkerPool, map_parallel, map_with_failures
from repro.backend.server import IngestServer, UploadSession
from repro.backend.telemetry import TelemetryRegistry, default_registry
from repro.backend.serialization import (
    DecodedSession,
    payload_to_session,
    session_to_payload,
)

__all__ = [
    "chunk_payload",
    "reassemble_chunks",
    "Chunk",
    "DocumentStore",
    "Document",
    "TaskQueue",
    "Task",
    "TaskState",
    "RetryPolicy",
    "FaultDecision",
    "FaultInjectionError",
    "FaultInjector",
    "FlakyHandler",
    "LinkFaultModel",
    "Partition",
    "SlowHandler",
    "SimulatedScheduler",
    "ScheduledJob",
    "WorkerPool",
    "map_parallel",
    "map_with_failures",
    "IngestServer",
    "UploadSession",
    "TelemetryRegistry",
    "default_registry",
    "DecodedSession",
    "payload_to_session",
    "session_to_payload",
]
