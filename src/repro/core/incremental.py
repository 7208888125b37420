"""Incremental reconstruction: sessions processed as they arrive.

The paper's backend is a streaming system — uploads land continuously and
an APScheduler-driven cascade refreshes the floor plan. Batch
:class:`~repro.core.pipeline.CrowdMapPipeline` recomputes everything; this
module maintains the reconstruction *incrementally*:

- a new SWS session is anchored once and scored only against the existing
  sessions (N new pairs instead of N^2 total), with all previous pair
  scores reused from cache;
- a new SRS session only rebuilds the room group (cell) it lands in;
- :meth:`IncrementalCrowdMap.snapshot` re-registers the merge graph from
  the cached candidates and produces the current floor plan on demand.

This is what makes the system "readily deployable at a large scale": the
marginal cost of an upload stays linear in the corpus size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backend.workers import map_parallel
from repro.core.aggregation import (
    AnchoredTrajectory,
    MergeCandidate,
    SequenceAggregator,
    calibrate_drift,
    register_candidates,
)
from repro.core.config import CrowdMapConfig
from repro.core.floorplan import FloorPlanAssembler, FloorPlanResult
from repro.core.keyframes import select_keyframes
from repro.core.panorama import PanoramaBuilder, PanoramaCoverageError, RoomPanorama
from repro.core.pipeline import ReconstructionResult, _trajectory_bounds
from repro.core.room_layout import RoomLayout, RoomLayoutEstimator
from repro.core.skeleton import reconstruct_skeleton
from repro.geometry.primitives import Point


@dataclass
class _RoomCell:
    """State of one SRS cell: its sessions and current best layout."""

    sessions: List = field(default_factory=list)
    panorama: Optional[RoomPanorama] = None
    layout: Optional[RoomLayout] = None


class IncrementalCrowdMap:
    """Maintains a CrowdMap reconstruction under a stream of uploads."""

    def __init__(self, config: Optional[CrowdMapConfig] = None):
        self.config = config or CrowdMapConfig()
        self.aggregator = SequenceAggregator(self.config)
        self.panorama_builder = PanoramaBuilder(self.config)
        self.layout_estimator = RoomLayoutEstimator(self.config)
        self.assembler = FloorPlanAssembler(self.config)
        self._anchored: List[AnchoredTrajectory] = []
        self._candidates: Dict[Tuple[int, int], MergeCandidate] = {}
        self._cells: Dict[Tuple[int, int], _RoomCell] = {}
        self.n_pair_scores = 0  # instrumentation: total pairwise work done

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def n_sws(self) -> int:
        return len(self._anchored)

    @property
    def n_rooms(self) -> int:
        return sum(1 for cell in self._cells.values() if cell.layout is not None)

    def add_session(self, session) -> None:
        """Ingest one uploaded session (SWS or SRS)."""
        if session.task == "SWS":
            self._add_sws(session)
        elif session.task == "SRS":
            self._add_srs(session)
        # Other tasks (e.g. STAIRS) carry no floor-plan content here.

    def _add_sws(self, session) -> None:
        keyframes = select_keyframes(
            session.frames, self.config, session_id=session.session_id
        )
        newcomer = AnchoredTrajectory(
            trajectory=session.device_trajectory,
            keyframes=keyframes,
            session_id=session.session_id,
        )
        new_index = len(self._anchored)
        self._anchored.append(newcomer)
        # Score only the new session against the existing corpus.
        pairs = list(enumerate(self._anchored[:new_index]))
        scored = map_parallel(
            lambda pair: self.aggregator.score_pair(
                pair[1], newcomer, pair[0], new_index
            ),
            pairs,
            max_workers=self.config.n_workers,
            backend=self.config.worker_backend,
        )
        for candidate in scored:
            self._candidates[(candidate.index_a, candidate.index_b)] = candidate
        self.n_pair_scores += len(pairs)

    def _cell_of(self, session) -> Tuple[int, int]:
        traj = session.device_trajectory
        if len(traj) == 0:
            return (0, 0)
        x, y = traj.as_array().mean(axis=0)
        return (int(x // 2.5), int(y // 2.5))

    def _add_srs(self, session) -> None:
        key = self._cell_of(session)
        cell = self._cells.setdefault(key, _RoomCell())
        cell.sessions.append(session)
        # Rebuild only this cell: fit the new session's spin and keep the
        # most consistent layout seen for the cell so far.
        keyframes = select_keyframes(
            session.frames, self.config, session_id=session.session_id
        )
        traj = session.device_trajectory
        if len(traj):
            mean_x, mean_y = traj.as_array().mean(axis=0)
            capture = Point(float(mean_x), float(mean_y))
        else:
            capture = Point(0.0, 0.0)
        hints = Counter(s.room_name for s in cell.sessions if s.room_name)
        room_hint = hints.most_common(1)[0][0] if hints else None
        try:
            pano = self.panorama_builder.build(
                keyframes, capture_position=capture, room_hint=room_hint
            )
        except PanoramaCoverageError:
            return
        layout = self.layout_estimator.estimate(pano)
        if cell.layout is None or layout.consistency > cell.layout.consistency:
            cell.panorama = pano
            cell.layout = layout

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> Optional[ReconstructionResult]:
        """The current reconstruction, registered from cached pair scores.

        Returns None until at least one SWS session has arrived.
        """
        if not self._anchored:
            return None
        candidates = list(self._candidates.values())
        aggregation = register_candidates(self._anchored, candidates)
        if self.config.drift_calibration_iterations > 0:
            trajectories = calibrate_drift(
                self._anchored, aggregation,
                iterations=self.config.drift_calibration_iterations,
            )
        else:
            trajectories = aggregation.trajectories
        bounds = _trajectory_bounds(aggregation, margin=2.0)
        skeleton = reconstruct_skeleton(trajectories, bounds, self.config)

        panoramas = [c.panorama for c in self._cells.values() if c.panorama]
        layouts = [c.layout for c in self._cells.values() if c.layout]
        floorplan: FloorPlanResult = self.assembler.arrange(
            skeleton, layouts, names=[p.room_hint for p in panoramas]
        )
        return ReconstructionResult(
            aggregation=aggregation,
            skeleton=skeleton,
            panoramas=panoramas,
            layouts=layouts,
            floorplan=floorplan,
            timings={},
            anchored=list(self._anchored),
        )
