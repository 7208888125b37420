"""The end-to-end CrowdMap pipeline (cloud-backend cascade).

Mirrors the paper's three backend sub-processes:

1. **Indoor pathway reconstruction** — key-frame selection per SWS
   session, sequence-based trajectory aggregation, occupancy-grid floor
   path skeleton.
2. **Room layout reconstruction** — SRS sessions grouped by skeleton cell,
   panorama stitching per group, rectangular-model fitting per panorama.
3. **Floor plan modeling** — force-directed merge of rooms and skeleton.

The pipeline is deterministic given the dataset and config, parallelizes
its embarrassingly parallel stages through the worker substrate, and
reports per-stage wall-clock timings (the paper's Fig. 7c latency data).

Failure semantics: crowdsourced uploads are unreliable, so the pipeline
*degrades* instead of dying (``config.pipeline_on_error="quarantine"``,
the default). A session whose key-frame selection fails, or a panorama
group that cannot be stitched, is quarantined into
:attr:`ReconstructionResult.failures` — with telemetry counters
(``sessions_quarantined``, ``panorama_groups_quarantined``) — while the
healthy remainder still produces a floor plan. The paper's premise is
that quality grows with trajectory quantity (Fig. 7a); one corrupt
upload must never zero it. Set ``pipeline_on_error="raise"`` to restore
strict fail-fast behaviour.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.telemetry import TelemetryRegistry, default_registry
from repro.backend.workers import MAP_BACKENDS, map_parallel, map_with_failures
from repro.core.aggregation import (
    AggregationResult,
    AnchoredTrajectory,
    SequenceAggregator,
    calibrate_drift,
)
from repro.core.comparison import KeyframeComparator
from repro.core.config import CrowdMapConfig
from repro.core.floorplan import FloorPlanAssembler, FloorPlanResult
from repro.core.keyframes import KeyFrame, prefetch_surf, select_keyframes
from repro.core.panorama import PanoramaBuilder, PanoramaCoverageError, RoomPanorama
from repro.core.room_layout import RoomLayout, RoomLayoutEstimator
from repro.core.skeleton import SkeletonResult, reconstruct_skeleton
from repro.geometry.primitives import BoundingBox, Point
from repro.world.crowd import CrowdDataset
from repro.world.walker import CaptureSession


#: Installed by ``repro/__init__``: ``pipeline -> planner`` where the
#: planner exposes ``run_sessions``. Kept as an injection point because
#: ``repro.dataflow`` sits above ``core`` only through the unlayered
#: package root in the CM010 DAG.
_planner_factory = None


def set_planner_factory(factory) -> None:
    """Install the dataflow-planner factory (called by package wiring)."""
    global _planner_factory
    _planner_factory = factory


@dataclass(frozen=True)
class StageFailure:
    """One quarantined item: which stage rejected what, and why."""

    stage: str      # "keyframes" (per SWS session) or "panorama" (per group)
    item_id: str    # session id, or "+"-joined session ids of a group
    error_type: str
    message: str


@dataclass
class ReconstructionResult:
    """Everything the pipeline produces for one building."""

    aggregation: AggregationResult
    skeleton: SkeletonResult
    panoramas: List[RoomPanorama]
    layouts: List[RoomLayout]
    floorplan: FloorPlanResult
    timings: Dict[str, float] = field(default_factory=dict)
    anchored: List[AnchoredTrajectory] = field(default_factory=list)
    #: Items quarantined by graceful degradation (empty on a clean run).
    failures: List[StageFailure] = field(default_factory=list)

    @property
    def n_quarantined(self) -> int:
        return len(self.failures)

    def failures_for_stage(self, stage: str) -> List[StageFailure]:
        return [f for f in self.failures if f.stage == stage]

    def layout_for_room(self, room_hint: str) -> Optional[RoomLayout]:
        for pano, layout in zip(self.panoramas, self.layouts):
            if pano.room_hint == room_hint:
                return layout
        return None


class CrowdMapPipeline:
    """Orchestrates the full reconstruction for one building's dataset."""

    def __init__(
        self,
        config: Optional[CrowdMapConfig] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        self.config = config or CrowdMapConfig()
        if self.config.pipeline_on_error not in ("quarantine", "raise"):
            raise ValueError(
                "pipeline_on_error must be 'quarantine' or 'raise', got "
                f"{self.config.pipeline_on_error!r}"
            )
        if self.config.worker_backend not in MAP_BACKENDS:
            raise ValueError(
                f"worker_backend must be one of {MAP_BACKENDS}, got "
                f"{self.config.worker_backend!r}"
            )
        self.telemetry = telemetry or default_registry
        self.comparator = KeyframeComparator(self.config)
        self.aggregator = SequenceAggregator(self.config, self.comparator)
        self.panorama_builder = PanoramaBuilder(self.config)
        self.layout_estimator = RoomLayoutEstimator(self.config)
        self.assembler = FloorPlanAssembler(self.config)

    @property
    def _quarantine(self) -> bool:
        return self.config.pipeline_on_error == "quarantine"

    # ------------------------------------------------------------------
    # Stage 1: pathway
    # ------------------------------------------------------------------

    def anchor_session(self, session: CaptureSession) -> AnchoredTrajectory:
        """Select key-frames for one SWS session and anchor its trajectory."""
        keyframes = select_keyframes(
            session.frames, self.config, session_id=session.session_id
        )
        return AnchoredTrajectory(
            trajectory=session.device_trajectory,
            keyframes=keyframes,
            session_id=session.session_id,
        )

    def build_pathway(
        self, sessions: List[CaptureSession]
    ) -> Tuple[List[AnchoredTrajectory], AggregationResult, SkeletonResult,
               List[StageFailure]]:
        if self._quarantine:
            successes, errors = map_with_failures(
                self.anchor_session, sessions,
                max_workers=self.config.n_workers,
                backend=self.config.worker_backend,
            )
            anchored = [result for _, result in successes]
            failures = []
            for idx, exc in errors:
                session = sessions[idx]
                failures.append(
                    StageFailure(
                        stage="keyframes",
                        item_id=session.session_id,
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
                )
                self.telemetry.counter(
                    "sessions_quarantined",
                    "SWS sessions quarantined by graceful degradation",
                ).inc()
        else:
            anchored = map_parallel(
                self.anchor_session, sessions,
                max_workers=self.config.n_workers,
                backend=self.config.worker_backend,
            )
            failures = []
        # SURF for every anchored session's key-frames in shape-grouped
        # batches, before aggregation compares them; the planner instead
        # pulls SURF lazily per frame, so this reference keeps the two
        # paths checked against each other.
        for one in anchored:
            prefetch_surf(one.keyframes, self.config)
        aggregation = self.aggregator.aggregate(anchored)
        if anchored and self.config.drift_calibration_iterations > 0:
            trajectories = calibrate_drift(
                anchored, aggregation,
                iterations=self.config.drift_calibration_iterations,
            )
        else:
            trajectories = aggregation.trajectories
        bounds = _trajectory_bounds(aggregation, margin=2.0)
        skeleton = reconstruct_skeleton(trajectories, bounds, self.config)
        return anchored, aggregation, skeleton, failures

    # ------------------------------------------------------------------
    # Stage 2: rooms
    # ------------------------------------------------------------------

    def _srs_capture_position(self, session: CaptureSession) -> Point:
        """Device-estimated spin position (the SRS trajectory is a point)."""
        traj = session.device_trajectory
        if len(traj) == 0:
            return Point(0.0, 0.0)
        mean_x, mean_y = traj.as_array().mean(axis=0)
        return Point(float(mean_x), float(mean_y))

    def group_srs_sessions(
        self, sessions: List[CaptureSession], cell_size: float = 2.5
    ) -> List[List[CaptureSession]]:
        """Group SRS sessions by the skeleton cell of their capture position.

        The paper generates one panorama per occupancy cell holding
        multiple key-frames; spins performed in the same cell merge into
        one panorama group.
        """
        buckets: Dict[Tuple[int, int], List[CaptureSession]] = defaultdict(list)
        for session in sessions:
            pos = self._srs_capture_position(session)
            key = (int(pos.x // cell_size), int(pos.y // cell_size))
            buckets[key].append(session)
        return [buckets[k] for k in sorted(buckets)]

    def build_room(
        self, group: List[CaptureSession]
    ) -> Optional[Tuple[RoomPanorama, RoomLayout]]:
        """Panorama + layout for one SRS cell group.

        Raises :class:`PanoramaCoverageError` when neither any single
        session nor the pooled fallback can cover the circle; in
        quarantine mode :meth:`build_rooms` turns that into a
        :class:`StageFailure` instead of aborting the building.

        When several users spun in the same cell, each session is stitched
        and fitted on its own and the most surface-consistent layout wins:
        redundant captures provide robustness ("some places were captured
        multiple times"), while fusing different users' frames into one
        panorama would let their independent heading biases fight at the
        seams. A pooled panorama remains the fallback when no single
        session covers the full circle by itself.
        """
        hints = Counter(s.room_name for s in group if s.room_name)
        room_hint = hints.most_common(1)[0][0] if hints else None

        best: Optional[Tuple[RoomPanorama, RoomLayout]] = None
        for session in group:
            try:
                session_keyframes = select_keyframes(
                    session.frames, self.config, session_id=session.session_id
                )
                capture = self._srs_capture_position(session)
                pano = self.panorama_builder.build(
                    session_keyframes, capture_position=capture,
                    room_hint=room_hint,
                )
            except (PanoramaCoverageError, ValueError):
                # A corrupt or under-covering session must not disqualify
                # its healthier cell-mates; the pooled fallback (or the
                # group-level quarantine) handles the all-bad case.
                continue
            layout = self.layout_estimator.estimate(pano)
            if best is None or layout.consistency > best[1].consistency:
                best = (pano, layout)
        if best is not None:
            return best

        # Fallback: pool every session's key-frames into one panorama.
        keyframes: List[KeyFrame] = []
        for session in group:
            try:
                keyframes.extend(
                    select_keyframes(session.frames, self.config,
                                     session_id=session.session_id)
                )
            except ValueError:
                continue
        positions = np.array(
            [[p.x, p.y] for p in (self._srs_capture_position(s) for s in group)]
        )
        mean_x, mean_y = positions.mean(axis=0)
        capture = Point(float(mean_x), float(mean_y))
        pano = self.panorama_builder.build(
            keyframes, capture_position=capture, room_hint=room_hint
        )
        return pano, self.layout_estimator.estimate(pano)

    def build_rooms(
        self, sessions: List[CaptureSession]
    ) -> Tuple[List[RoomPanorama], List[RoomLayout], List[StageFailure]]:
        groups = self.group_srs_sessions(sessions)
        if self._quarantine:
            successes, errors = map_with_failures(
                self.build_room, groups,
                max_workers=self.config.n_workers,
                backend=self.config.worker_backend,
            )
            results = [result for _, result in successes]
            failures = []
            for idx, exc in errors:
                group_id = "+".join(s.session_id for s in groups[idx])
                failures.append(
                    StageFailure(
                        stage="panorama",
                        item_id=group_id,
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
                )
                self.telemetry.counter(
                    "panorama_groups_quarantined",
                    "SRS panorama groups quarantined by graceful degradation",
                ).inc()
        else:
            results = map_parallel(
                self.build_room, groups,
                max_workers=self.config.n_workers,
                backend=self.config.worker_backend,
            )
            failures = []
        panoramas, layouts = [], []
        for result in results:
            if result is None:
                continue
            pano, layout = result
            panoramas.append(pano)
            layouts.append(layout)
        return panoramas, layouts, failures

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------

    def run(self, dataset: CrowdDataset) -> ReconstructionResult:
        """Reconstruct the floor plan from one building's crowd dataset."""
        return self.run_sessions(dataset.sessions)

    def run_sessions(self, sessions: List[CaptureSession]) -> ReconstructionResult:
        """Reconstruct from a raw session list (split by task internally).

        This is the entry point the backend uses: decoded uploads arrive as
        a flat stream, and multi-floor reconstruction feeds per-floor
        session groups through it.

        Execution builds and runs the dataflow graph via the installed
        planner. Under every config it is byte-identical to the original
        fixed cascade in :meth:`run_sessions_legacy`, which stays as the
        reference the bit-identity tests compare against.
        """
        return _planner_factory(self).run_sessions(sessions)

    def run_sessions_legacy(
        self, sessions: List[CaptureSession]
    ) -> ReconstructionResult:
        """The original fixed cascade (pathway → rooms → floor plan)."""
        sws = [s for s in sessions if s.task == "SWS"]
        srs = [s for s in sessions if s.task == "SRS"]
        timings: Dict[str, float] = {}
        failures: List[StageFailure] = []

        t0 = time.perf_counter()
        anchored, aggregation, skeleton, pathway_failures = self.build_pathway(sws)
        failures.extend(pathway_failures)
        timings["pathway"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        panoramas, layouts, room_failures = self.build_rooms(srs)
        failures.extend(room_failures)
        timings["rooms"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        floorplan = self.assembler.arrange(
            skeleton, layouts, names=[p.room_hint for p in panoramas]
        )
        timings["floorplan"] = time.perf_counter() - t0

        return ReconstructionResult(
            aggregation=aggregation,
            skeleton=skeleton,
            panoramas=panoramas,
            layouts=layouts,
            floorplan=floorplan,
            timings=timings,
            anchored=anchored,
            failures=failures,
        )


def _trajectory_bounds(aggregation: AggregationResult, margin: float) -> BoundingBox:
    """Joint bounding box of all aggregated trajectories."""
    arrays = [
        traj.as_array() for traj in aggregation.trajectories if len(traj) > 0
    ]
    if not arrays:
        return BoundingBox(0.0, 0.0, 1.0, 1.0)
    points = np.concatenate(arrays, axis=0)
    min_x, min_y = points.min(axis=0)
    max_x, max_y = points.max(axis=0)
    return BoundingBox(
        float(min_x) - margin, float(min_y) - margin,
        float(max_x) + margin, float(max_y) + margin,
    )
