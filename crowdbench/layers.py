"""Which functions the traced run wraps, and the per-layer metrics they give.

Per-layer values are per timed operation (per build, per query, per
upload, per converged mesh) unless they are ratios or load-generator figures, so a
faster program that fits more operations into a run does not look like
it does more work. What each group should move, and where:

- ``vision.*`` (kernels): ``op_p50_ms`` on cold_build; SURF, HOG and
  matching also ``capacity_per_s`` and the query tail on serve_read,
  where LSD must read 0 (rooms are never re-fitted to answer a query).
- ``core.keyframes`` ... ``core.pipeline.*`` (the paper's cascade):
  ``op_p50_ms`` on cold_build; key-frames, pair scoring and registration
  also the upload-to-publish latency (``op_p50_ms``) on live.
- ``core.localization``/``core.navigation``: ``capacity_per_s`` and the
  query tail on serve_read; ``core.incremental.*`` the upload-to-publish
  latency on live.
- ``dataflow.*``: ``op_p50_ms`` on cold_build, where every node executes
  and ``dataflow.nodes_skipped.*`` must read 0.
- ``backend.*``: cache hit ratios and evictions move the query tail on
  serve_read (novel locates evict SURF entries); digests and the worker
  map move ``op_p50_ms`` on cold_build.
- ``serving.*``: ``capacity_per_s`` and ``op_p50_ms`` on serve_read; on live,
  ``serving.query.*`` are the reads that waited behind uploads, and
  load-generator lag separates that waiting from service.
- ``fleet.*``: ``op_p50_ms`` on fleet; messages and bytes are what a
  gossip change moves first.
- ``trace.overhead_ratio``: a warm-up operation's traced time over its
  untraced time, the median of four back-to-back pairs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from crowdbench.tracer import Span, Target, self_times

_KIND_NAMES = ("framestack", "keyframes", "pair", "pathway", "room", "floorplan")
CACHE_NAMESPACES = ("hog", "surf", "s1_signatures", "s2_score", "dataflow")


def _keyframe_counts(args, kwargs, result):
    frames = args[0] if args else kwargs["frames"]
    return {"frames_in": len(frames), "keyframes_out": len(result)}


def _pipeline_timings(args, kwargs, result):
    return {f"{stage}_s": seconds for stage, seconds in result.timings.items()}


def _plan_report(args, kwargs, result):
    from repro.dataflow.planner import last_plan_report

    report = last_plan_report()
    counts = {}
    for kind in _KIND_NAMES:
        counts[f"executed.{kind}"] = report.n_executed(kind)
        counts[f"skipped.{kind}"] = report.n_skipped(kind)
    return counts


def _gossip_round(args, kwargs, result):
    return {key: result[key] for key in (
        "messages_sent", "bytes_sent", "dropped", "merged_records",
        "stale_regions",
    )}


TARGETS: List[Target] = [
    Target("vision.lsd", "repro.vision.lsd", "detect_line_segments"),
    Target("vision.surf", "repro.vision.surf", "detect_and_describe"),
    Target("vision.surf", "repro.vision.surf", "surf_detect_batch"),
    Target("vision.hog", "repro.vision.hog", "hog_descriptor"),
    Target("vision.hog", "repro.vision.hog", "hog_descriptor_stack"),
    Target("vision.hog", "repro.vision.hog", "hog_descriptors_batch"),
    Target("vision.matching", "repro.vision.matching", "match_descriptors"),
    Target("vision.stitching", "repro.vision.stitching", "stitch_cylindrical"),
    Target("core.keyframes", "repro.core.keyframes", "select_keyframes",
           _keyframe_counts),
    Target("core.aggregation.score_pair", "repro.core.aggregation",
           "SequenceAggregator.score_pair", lambda a, k, r: {"pairs": 1}),
    Target("core.aggregation.register", "repro.core.aggregation",
           "register_candidates"),
    Target("core.aggregation.register", "repro.core.aggregation",
           "calibrate_drift"),
    Target("core.comparison", "repro.core.comparison",
           "KeyframeComparator.compare",
           lambda a, k, r: {"matched": int(r.matched)}),
    Target("core.panorama", "repro.core.panorama", "PanoramaBuilder.build"),
    Target("core.room_layout", "repro.core.room_layout",
           "RoomLayoutEstimator.estimate"),
    Target("core.skeleton", "repro.core.skeleton", "reconstruct_skeleton"),
    Target("core.floorplan", "repro.core.floorplan",
           "FloorPlanAssembler.arrange"),
    Target("core.pipeline", "repro.core.pipeline",
           "CrowdMapPipeline.run_sessions", _pipeline_timings),
    Target("core.localization.localize", "repro.core.localization",
           "VisualLocalizer.localize",
           lambda a, k, r: {"matched": int(r.matched)}),
    Target("core.navigation.plan", "repro.core.navigation",
           "SkeletonNavigator.plan", lambda a, k, r: {"found": int(r.found)}),
    Target("core.incremental.add_session", "repro.core.incremental",
           "IncrementalCrowdMap.add_session"),
    Target("core.incremental.snapshot", "repro.core.incremental",
           "IncrementalCrowdMap.snapshot"),
    Target("dataflow.planner", "repro.dataflow.planner",
           "DataflowPlanner.run_sessions", _plan_report),
    Target("dataflow.graph.build_plan", "repro.dataflow.graph", "build_plan"),
    Target("backend.cache.digest", "repro.backend.cache", "array_digest"),
    Target("backend.workers.map", "repro.backend.workers", "map_parallel"),
    Target("backend.workers.map", "repro.backend.workers", "map_with_failures"),
    Target("serving.shard.ingest", "repro.serving.shards", "MapShard.ingest"),
    Target("serving.shard.refresh", "repro.serving.shards", "MapShard.refresh"),
    Target("serving.snapshot.index_build", "repro.serving.snapshot",
           "MapSnapshot.localizer"),
    Target("serving.snapshot.index_build", "repro.serving.snapshot",
           "MapSnapshot.navigator"),
    Target("serving.handlers.get_floorplan", "repro.serving.handlers",
           "QueryHandlers.get_floorplan"),
    Target("serving.handlers.locate", "repro.serving.handlers",
           "QueryHandlers.locate"),
    Target("serving.handlers.route", "repro.serving.handlers",
           "QueryHandlers.route"),
    Target("fleet.node.ingest", "repro.fleet.node", "FleetNode.ingest_session"),
    Target("fleet.node.fused_map", "repro.fleet.node", "FleetNode.fused_map"),
    Target("fleet.gossip.round", "repro.fleet.gossip", "GossipMesh.run_round",
           _gossip_round),
]

#: Telemetry counters read around the traced run (process-wide registry).
CACHE_COUNTERS = ["cache_evictions"] + [
    f"cache_{event}_{ns}" for ns in CACHE_NAMESPACES for event in ("hits", "misses")
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Sequence[Span],
    n_ops: int,
    counters: Dict[str, float],
    details: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced measurement.

    ``counters`` are telemetry deltas over the traced run (see
    :data:`CACHE_COUNTERS`); ``details`` carries the load generator's
    figures (``lag_p99_ms``, ``backlog_max``) and the query latencies
    (``query_p50_ms``, ``query_tail_ms``), which on live are the reads
    that ran beside the uploads.
    """
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += selfs[span.span_id]
        for key, value in span.counts.items():
            counts[span.name][key] += value
    per_op = 1.0 / max(n_ops, 1)

    m: Dict[str, float] = {}
    for group in ("lsd", "surf", "hog", "matching", "stitching"):
        m[f"vision.{group}.calls"] = calls[f"vision.{group}"] * per_op
        m[f"vision.{group}.self_s"] = busy[f"vision.{group}"] * per_op

    kf = counts["core.keyframes"]
    m["core.keyframes.frames_in"] = kf["frames_in"] * per_op
    m["core.keyframes.keyframes_out"] = kf["keyframes_out"] * per_op
    m["core.keyframes.self_s"] = busy["core.keyframes"] * per_op
    m["core.aggregation.pairs_scored"] = calls["core.aggregation.score_pair"] * per_op
    m["core.aggregation.score_pair.self_s"] = (
        busy["core.aggregation.score_pair"] * per_op
    )
    m["core.aggregation.register.self_s"] = busy["core.aggregation.register"] * per_op
    m["core.comparison.compares"] = calls["core.comparison"] * per_op
    m["core.comparison.matched_ratio"] = _ratio(
        counts["core.comparison"]["matched"], calls["core.comparison"]
    )
    m["core.comparison.self_s"] = busy["core.comparison"] * per_op
    for stage in ("panorama", "room_layout", "skeleton", "floorplan"):
        m[f"core.{stage}.self_s"] = busy[f"core.{stage}"] * per_op
    for stage in ("pathway", "rooms", "floorplan"):
        m[f"core.pipeline.{stage}_s"] = counts["core.pipeline"][f"{stage}_s"] * per_op

    m["core.localization.localize.self_s"] = (
        busy["core.localization.localize"] * per_op
    )
    m["core.localization.matched_ratio"] = _ratio(
        counts["core.localization.localize"]["matched"],
        calls["core.localization.localize"],
    )
    m["core.navigation.plan.self_s"] = busy["core.navigation.plan"] * per_op
    m["core.navigation.found_ratio"] = _ratio(
        counts["core.navigation.plan"]["found"], calls["core.navigation.plan"]
    )
    for step in ("add_session", "snapshot"):
        m[f"core.incremental.{step}.self_s"] = (
            busy[f"core.incremental.{step}"] * per_op
        )

    m["dataflow.planner.self_s"] = busy["dataflow.planner"] * per_op
    m["dataflow.graph.build_plan.self_s"] = busy["dataflow.graph.build_plan"] * per_op
    for outcome in ("executed", "skipped"):
        for kind in _KIND_NAMES:
            m[f"dataflow.nodes_{outcome}.{kind}"] = (
                counts["dataflow.planner"][f"{outcome}.{kind}"] * per_op
            )

    for ns in CACHE_NAMESPACES:
        hits = counters.get(f"cache_hits_{ns}", 0.0)
        m[f"backend.cache.{ns}.hit_ratio"] = _ratio(
            hits, hits + counters.get(f"cache_misses_{ns}", 0.0)
        )
    m["backend.cache.evictions"] = counters.get("cache_evictions", 0.0) * per_op
    m["backend.cache.digest.calls"] = calls["backend.cache.digest"] * per_op
    m["backend.cache.digest.self_s"] = busy["backend.cache.digest"] * per_op
    m["backend.workers.map.self_s"] = busy["backend.workers.map"] * per_op

    for step in ("ingest", "refresh"):
        m[f"serving.shard.{step}.self_s"] = busy[f"serving.shard.{step}"] * per_op
    m["serving.snapshot.index_build.self_s"] = (
        busy["serving.snapshot.index_build"] * per_op
    )
    for kind in ("get_floorplan", "locate", "route"):
        m[f"serving.handlers.{kind}.calls"] = calls[f"serving.handlers.{kind}"] * per_op
        m[f"serving.handlers.{kind}.self_s"] = busy[f"serving.handlers.{kind}"] * per_op
    for key in ("lag_p99_ms", "backlog_max"):
        m[f"serving.loadgen.{key}"] = details.get(key, 0.0)
    for key in ("p50_ms", "tail_ms"):
        m[f"serving.query.{key}"] = details.get(f"query_{key}", 0.0)

    m["fleet.node.ingest.self_s"] = busy["fleet.node.ingest"] * per_op
    m["fleet.node.fused_map.self_s"] = busy["fleet.node.fused_map"] * per_op
    m["fleet.gossip.round.self_s"] = busy["fleet.gossip.round"] * per_op
    gossip = counts["fleet.gossip.round"]
    for key, name in (("messages_sent", "messages"), ("dropped", "dropped"),
                      ("merged_records", "merged_records"),
                      ("stale_regions", "stale_regions")):
        m[f"fleet.gossip.{name}"] = gossip[key] * per_op
    m["fleet.gossip.rounds"] = calls["fleet.gossip.round"] * per_op
    m["fleet.gossip.bytes"] = gossip["bytes_sent"] * per_op

    m["trace.overhead_ratio"] = overhead_ratio
    return m
