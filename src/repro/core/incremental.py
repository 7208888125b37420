"""Incremental reconstruction: sessions processed as they arrive.

The paper's backend is a streaming system — uploads land continuously and
an APScheduler-driven cascade refreshes the floor plan. That cascade is
the batch one: :meth:`IncrementalCrowdMap.snapshot` runs
:meth:`CrowdMapPipeline.run_sessions` over every session added so far,
so a streamed map equals the batch map, quarantined faults included.

The marginal cost of an upload stays linear because planner nodes are
content-addressed: a snapshot executes only nodes with new keys (an SWS
upload's key-frame node, its k−1 pair nodes, pathway and floor plan; an
SRS upload's room node and floor plan) and reads the rest from the
``dataflow`` cache. With ``CROWDMAP_CACHE=off`` every snapshot rebuilds
its whole shard: still correct, but quadratic over an upload stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.config import CrowdMapConfig
from repro.core.pipeline import CrowdMapPipeline, ReconstructionResult

if TYPE_CHECKING:  # annotation only: core must not import backend at runtime
    from repro.backend.telemetry import TelemetryRegistry


class IncrementalCrowdMap:
    """Maintains a CrowdMap reconstruction under a stream of uploads."""

    def __init__(
        self,
        config: Optional[CrowdMapConfig] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        self.pipeline = CrowdMapPipeline(config, telemetry)
        self.sessions: List = []

    @property
    def n_sws(self) -> int:
        return sum(1 for session in self.sessions if session.task == "SWS")

    def add_session(self, session) -> None:
        """Queue one uploaded session (SWS or SRS) for the next snapshot."""
        # Other tasks (e.g. STAIRS) carry no floor-plan content here.
        if session.task in ("SWS", "SRS"):
            self.sessions.append(session)

    def snapshot(self) -> Optional[ReconstructionResult]:
        """The current reconstruction of every session added so far.

        Returns None until at least one SWS session has arrived.
        """
        if not self.n_sws:
            return None
        return self.pipeline.run_sessions(self.sessions)
