"""The dataflow planner: executes the reconstruction graph.

The planner replaces the cascade's *control flow*, not its kernels: every
node executes through the same pipeline methods the legacy path calls
(``anchor_session``, ``score_pair``, ``build_room``, the skeleton and
assembler entry points), so it is byte-identical to the cascade by
construction. What changes is scheduling:

- **Graph-level skipping.** Each node's content key (see
  :mod:`repro.dataflow.graph`) is looked up in the ``dataflow``
  result-cache namespace before the node runs. A warm rerun resolves
  the whole graph from session digests (memoized on the session
  objects) and cache lookups — no interior array is re-hashed, no
  kernel runs.
- **Stage fusion.** Under the serial backend the per-session
  gray→blur→HOG chain is fused into one global pass over every frame of
  every *missing* key-frame node, packed into full same-shape batches
  across session boundaries (the per-session passes leave ragged batch
  tails; the global pass doesn't). The fused pass fills the same
  per-frame ``hog`` cache slots selection reads, so values are
  bit-identical to the per-session path.
- **Serial pair scoring and lazy SURF.** On the 1-core bench box the
  thread-pool pair map and the eager SURF prefetch both cost more than
  they save; the planner scores pairs in-line and lets comparison pull
  SURF features lazily (both bit-identical — same kernels, same order).
  Parallel backends keep the legacy fan-out + prefetch pipelining.

The aggressive profile is plain config (a positive
``keyframe_prescreen_threshold``). Every node key fingerprints the
config fields its kernels read, so default and aggressive nodes share
one namespace without ever sharing a slot.

Execution telemetry (which nodes ran, which were skipped) is exposed via
:func:`last_plan_report` for the invalidation tests and the bench
scenarios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.graph import (
    Node,
    ReconstructionPlan,
    build_plan,
    seal_floorplan_key,
    seal_pathway_key,
)
from repro.dataflow.runtime import get_runtime

#: Result-cache namespace of every graph node.
_NAMESPACE = "dataflow"


@dataclass
class PlanReport:
    """Node-execution telemetry for one planner run."""

    executed: Dict[str, List[str]] = field(default_factory=dict)
    skipped: Dict[str, List[str]] = field(default_factory=dict)

    def _ids(self, table: Dict[str, List[str]], kind: Optional[str]) -> List[str]:
        if kind is not None:
            return list(table.get(kind, ()))
        return [nid for ids in table.values() for nid in ids]

    def executed_ids(self, kind: Optional[str] = None) -> List[str]:
        return self._ids(self.executed, kind)

    def skipped_ids(self, kind: Optional[str] = None) -> List[str]:
        return self._ids(self.skipped, kind)

    def n_executed(self, kind: Optional[str] = None) -> int:
        return len(self._ids(self.executed, kind))

    def n_skipped(self, kind: Optional[str] = None) -> int:
        return len(self._ids(self.skipped, kind))


_last_report: Optional[PlanReport] = None


def last_plan_report() -> Optional[PlanReport]:
    """The execution report of the most recent planner run (or None)."""
    return _last_report


def _frames_valid(frames: Sequence[Any]) -> bool:
    """The cheap validity screen selection applies before computing HOGs.

    Mirrors :func:`repro.core.keyframes.select_keyframes` so the fused
    pass never spends kernel time on (or caches values for) frames whose
    session is about to be quarantined anyway.
    """
    import math
    for frame in frames:
        pixels = frame.pixels
        if pixels is None or pixels.size == 0:
            return False
        if not (math.isfinite(float(pixels.min()))
                and math.isfinite(float(pixels.max()))):
            return False
    return True


class DataflowPlanner:
    """Builds and executes the reconstruction dataflow graph."""

    def __init__(self, pipeline: Any):
        self.pipeline = pipeline
        self.config = pipeline.config

    # -- node bookkeeping ---------------------------------------------

    def _lookup(self, cache: Any, node: Node, report: PlanReport) -> Tuple[bool, Any]:
        hit, value = cache.lookup(_NAMESPACE, node.key)
        if hit:
            report.skipped.setdefault(node.kind, []).append(node.node_id)
            get_runtime().telemetry.counter(
                "dataflow_nodes_skipped",
                "dataflow nodes resolved from the graph-level cache",
            ).inc()
        return hit, value

    def _executed(self, cache: Any, node: Node, value: Any, report: PlanReport) -> None:
        cache.store(_NAMESPACE, node.key, value)
        report.executed.setdefault(node.kind, []).append(node.node_id)
        get_runtime().telemetry.counter(
            "dataflow_nodes_executed",
            "dataflow nodes whose kernels actually ran",
        ).inc()

    @property
    def _serial(self) -> bool:
        return self.config.worker_backend == "serial"

    def _fused_hog_pass(
        self,
        sessions: Sequence[Any],
        plan: Any,
        cache: Any,
        report: PlanReport,
    ) -> None:
        """One global gray→blur→HOG pass over every pending session.

        Only under the serial backend (process workers compute HOGs in
        their own address spaces) and only when caching is enabled (the
        pass communicates with selection through the ``hog`` cache
        slots). Sessions that fail the validity screen are left for
        selection to quarantine.

        Each session's shared frame-stack node is accounted here: a
        marker hit means a previous run already pushed this content
        through the shared-plane chain (its per-frame cache slots are
        warm, so the session is dropped from the fused batch); a miss
        executes the pass and stores the marker. When the key-frame
        pre-screen is enabled it thins each session's frames first, so
        the fused chain never runs on frames the selection is about to
        drop anyway.
        """
        from repro.core.keyframes import _frame_hogs, prescreen_survivors
        prescreen = self.config.keyframe_prescreen_threshold > 0.0
        frames: List[Any] = []
        pending_nodes: List[Node] = []
        for session in sessions:
            if not _frames_valid(session.frames):
                continue
            node = plan.fs_nodes.get(session.session_id)
            if node is not None:
                hit, _ = self._lookup(cache, node, report)
                if hit:
                    continue
                pending_nodes.append(node)
            session_frames = session.frames
            if prescreen:
                session_frames = prescreen_survivors(session_frames, self.config)
            frames.extend(session_frames)
        if frames:
            _frame_hogs(frames, self.config)
        for node in pending_nodes:
            self._executed(cache, node, True, report)

    # -- phases --------------------------------------------------------

    def run_sessions(self, sessions: Sequence[Any]) -> Any:
        """Execute the full graph; returns a ``ReconstructionResult``."""
        from repro.core.pipeline import (
            ReconstructionResult,
            StageFailure,
            _trajectory_bounds,
        )
        from repro.core.aggregation import (
            AnchoredTrajectory,
            calibrate_drift,
            register_candidates,
        )
        from repro.core.keyframes import prefetch_surf
        from repro.core.skeleton import reconstruct_skeleton

        global _last_report
        rt = get_runtime()
        cache = rt.get_cache()
        pipeline = self.pipeline
        config = self.config
        quarantine = config.pipeline_on_error == "quarantine"
        fuse = self._serial and cache.enabled

        plan = build_plan(pipeline, sessions)
        report = PlanReport()
        timings: Dict[str, float] = {}
        failures: List[StageFailure] = []

        # ---- phase 1: pathway ----------------------------------------
        t0 = time.perf_counter()
        kf_values: Dict[int, Any] = {}
        kf_miss: List[int] = []
        for idx, node in enumerate(plan.kf_nodes):
            hit, value = self._lookup(cache, node, report)
            if hit:
                kf_values[idx] = value
            else:
                kf_miss.append(idx)

        failed_ids: List[str] = []
        if kf_miss:
            miss_sessions = [plan.sws_sessions[i] for i in kf_miss]
            if fuse:
                self._fused_hog_pass(miss_sessions, plan, cache, report)
            consume = None
            if config.surf_prefetch and not self._serial:
                # Parallel backends keep the legacy stage pipelining:
                # SURF runs on each session's key-frames in the parent
                # while later sessions still stream back. Serially, lazy
                # per-comparison SURF computes strictly fewer frames.
                def consume(index: int, ok: bool, value: Any) -> None:
                    if ok and value is not None:
                        prefetch_surf(value.keyframes, config)
            successes, errors = rt.map_with_failures(
                pipeline.anchor_session, miss_sessions,
                max_workers=config.n_workers,
                backend=config.worker_backend,
                transport=config.worker_transport,
                consume=consume,
            )
            # pipeline_on_error="raise": fail fast with the first error in
            # input order, before any node of the phase is stored.
            if errors and not quarantine:
                raise errors[0][1]
            for pos, anchored_one in successes:
                idx = kf_miss[pos]
                kf_values[idx] = anchored_one
                self._executed(cache, plan.kf_nodes[idx], anchored_one, report)
            for pos, exc in errors:
                idx = kf_miss[pos]
                session = plan.sws_sessions[idx]
                failed_ids.append(session.session_id)
                failures.append(StageFailure(
                    stage="keyframes",
                    item_id=session.session_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                ))
                pipeline.telemetry.counter(
                    "sessions_quarantined",
                    "SWS sessions quarantined by graceful degradation",
                ).inc()

        # Survivors, in original session order — the same ordering the
        # cascade's order-preserving worker map produces.
        survivors = [i for i in range(len(plan.sws_sessions)) if i in kf_values]
        anchored: List[AnchoredTrajectory] = [kf_values[i] for i in survivors]

        candidates = []
        surviving_pairs: List[Tuple[int, int]] = []
        for p in range(len(survivors)):
            for q in range(p + 1, len(survivors)):
                ij = (survivors[p], survivors[q])
                surviving_pairs.append(ij)
                node = plan.pair_nodes[ij]
                hit, value = self._lookup(cache, node, report)
                if hit:
                    cand = replace(value, index_a=p, index_b=q)
                else:
                    cand = pipeline.aggregator.score_pair(
                        anchored[p], anchored[q], p, q
                    )
                    # Store position-free: a pair's score is a property of
                    # the two sessions, not of where they sit in today's
                    # survivor list.
                    self._executed(
                        cache, node, replace(cand, index_a=0, index_b=1), report
                    )
                candidates.append(cand)

        plan.pathway_node.key = seal_pathway_key(
            plan, surviving_pairs, failed_ids, config
        )
        hit, value = self._lookup(cache, plan.pathway_node, report)
        if hit:
            aggregation, skeleton = value
        else:
            aggregation = register_candidates(anchored, candidates)
            if anchored and config.drift_calibration_iterations > 0:
                trajectories = calibrate_drift(
                    anchored, aggregation,
                    iterations=config.drift_calibration_iterations,
                )
            else:
                trajectories = aggregation.trajectories
            bounds = _trajectory_bounds(aggregation, margin=2.0)
            skeleton = reconstruct_skeleton(trajectories, bounds, config)
            self._executed(
                cache, plan.pathway_node, (aggregation, skeleton), report
            )
        timings["pathway"] = time.perf_counter() - t0

        # ---- phase 2: rooms ------------------------------------------
        t0 = time.perf_counter()
        room_values: Dict[int, Any] = {}
        room_failed: Dict[int, str] = {}
        room_miss: List[int] = []
        for idx, node in enumerate(plan.room_nodes):
            hit, value = self._lookup(cache, node, report)
            if hit:
                room_values[idx] = value
            else:
                room_miss.append(idx)

        if room_miss:
            miss_groups = [plan.srs_groups[i] for i in room_miss]
            if fuse:
                self._fused_hog_pass(
                    [session for group in miss_groups for session in group],
                    plan, cache, report,
                )
            successes, errors = rt.map_with_failures(
                pipeline.build_room, miss_groups,
                max_workers=config.n_workers,
                backend=config.worker_backend,
                transport=config.worker_transport,
            )
            if errors and not quarantine:
                raise errors[0][1]
            for pos, result in successes:
                idx = room_miss[pos]
                room_values[idx] = result
                self._executed(cache, plan.room_nodes[idx], result, report)
            for pos, exc in errors:
                idx = room_miss[pos]
                group_id = "+".join(
                    s.session_id for s in plan.srs_groups[idx]
                )
                room_failed[idx] = group_id
                failures.append(StageFailure(
                    stage="panorama",
                    item_id=group_id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                ))
                pipeline.telemetry.counter(
                    "panorama_groups_quarantined",
                    "SRS panorama groups quarantined by graceful degradation",
                ).inc()

        panoramas, layouts = [], []
        room_outcomes: List[str] = []
        for idx, node in enumerate(plan.room_nodes):
            if idx in room_failed:
                room_outcomes.append(f"failed:{room_failed[idx]}")
                continue
            room_outcomes.append(node.key)
            result = room_values.get(idx)
            if result is None:
                continue
            pano, layout = result
            panoramas.append(pano)
            layouts.append(layout)
        timings["rooms"] = time.perf_counter() - t0

        # ---- phase 3: floor plan -------------------------------------
        t0 = time.perf_counter()
        plan.floorplan_node.key = seal_floorplan_key(
            plan, plan.pathway_node.key, room_outcomes, config
        )
        hit, floorplan = self._lookup(cache, plan.floorplan_node, report)
        if not hit:
            floorplan = pipeline.assembler.arrange(
                skeleton, layouts, names=[p.room_hint for p in panoramas]
            )
            self._executed(cache, plan.floorplan_node, floorplan, report)
        timings["floorplan"] = time.perf_counter() - t0

        _last_report = report
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
