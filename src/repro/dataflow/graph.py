"""The reconstruction dataflow graph: nodes, content keys, dependencies.

The legacy cascade runs pathway → rooms → floor plan as three opaque
stage calls. Here the same computation is an explicit DAG whose nodes
are the kernel-invocation groups the paper's Fig. 7c latency breakdown
names, each keyed by a *content address*:

- ``fs:<session>`` — the shared per-frame stack of derived planes
  (grayscale, blurred, gradients, standardized, integral) every consumer
  kernel reads. Key = session digest + the stack's config scope; the
  key-frame and room nodes of the session depend on it, so a session
  content change invalidates exactly its own stack subgraph.
- ``kf:<session>`` — key-frame selection for one session. Key = digest
  of the session's frames + trajectory + capture metadata, scoped to the
  HOG/NCC and pre-screen config fields the selection reads — so the
  default and aggressive profiles key every selection-dependent node
  apart and share one cache namespace safely.
- ``pair:<a>+<b>`` — pairwise merge scoring between two sessions. Key =
  both key-frame node keys + the comparison/LCSS config fields. A pair
  node's key therefore changes exactly when either input session (or a
  threshold it reads) changes — no interior value is re-hashed.
- ``pathway`` — registration, drift calibration and the floor-path
  skeleton over every surviving pair. Key = ordered key-frame and pair
  node keys (+ skeleton/drift fields).
- ``room:<cells>`` — panorama + layout for one SRS cell group. Key = the
  group's session digests + panorama/layout fields.
- ``floorplan`` — force-directed assembly. Key = pathway key + room node
  keys + force-model fields.

Keys compose recursively: a node's key embeds its producers' *keys*, not
their values, so skipping an entire warm subgraph costs one digest per
graph input (memoized on the session object) and zero re-hashing of
interior arrays. Quarantined producers contribute a failure marker to
their consumers' keys, keeping degraded runs content-addressed too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CrowdMapConfig
from repro.dataflow.runtime import get_runtime

#: Config fields each node kind reads — the scope of its fingerprint.
#: Over-inclusion is safe (spurious invalidation); under-inclusion is a
#: correctness bug (stale reuse), so every group errs toward inclusion.
#: The shared frame stack (repro.vision.framestack) derives per-frame
#: planes — grayscale, blurred, gradients, standardized, integral — whose
#: only config input is the HOG blur sigma (every other plane is a pure
#: function of the pixels). The ``fs:`` marker also vouches for which
#: frames the fused HOG pass covered, and the key-frame pre-screen picks
#: those, so its two fields are in scope: a marker written under one
#: profile never vouches for the frames the other profile reads.
FRAMESTACK_FIELDS: Tuple[str, ...] = (
    "hog_blur_sigma",
    "keyframe_prescreen_threshold", "keyframe_prescreen_heading",
)
KEYFRAME_FIELDS: Tuple[str, ...] = (
    "keyframe_ncc_threshold", "hog_cell_size", "hog_blur_sigma",
    "keyframe_prescreen_threshold", "keyframe_prescreen_heading",
)
COMPARISON_FIELDS: Tuple[str, ...] = (
    "s1_weights", "s1_threshold", "surf_distance_threshold",
    "s2_threshold", "max_heading_difference",
    "surf_response_threshold", "surf_max_features",
    "lcss_epsilon", "lcss_delta", "s3_threshold", "resample_interval",
    "max_anchor_proposals", "min_anchor_matches", "max_geo_displacement",
)
PATHWAY_FIELDS: Tuple[str, ...] = (
    "drift_calibration_iterations", "grid_cell_size", "alpha",
    "repair_radius", "trajectory_splat_radius", "binarize_cap_quantile",
    "min_visits", "seed",
)
ROOM_FIELDS: Tuple[str, ...] = KEYFRAME_FIELDS + (
    "panorama_width", "layout_samples", "camera_height",
    "panorama_min_overlap", "panorama_max_gap",
    "surf_response_threshold", "surf_max_features", "seed",
)
FLOORPLAN_FIELDS: Tuple[str, ...] = (
    "force_attract", "force_repulse", "force_iterations",
    "force_tolerance", "seed",
)


def trajectory_digest(trajectory: Any) -> str:
    """Content digest of a device trajectory (positions + timestamps)."""
    rt = get_runtime()
    return rt.value_fingerprint(
        rt.array_digest(trajectory.as_array()),
        rt.array_digest(trajectory.times()),
    )


def session_digest(session: Any) -> str:
    """Content digest of one capture session, memoized on the object.

    Covers everything downstream nodes can read: per-frame pixel digests
    (memoized on each frame), capture metadata (timestamps, headings,
    frame indices), the device trajectory, and the session identity
    fields. Mutating a frame *in place* violates the content-addressing
    contract everywhere in this codebase — replace frames (or sessions)
    to change content.
    """
    memoized = getattr(session, "_crowdmap_session_digest", None)
    if memoized is not None:
        return memoized
    rt = get_runtime()
    parts: List[Any] = [
        session.session_id, session.task, session.room_name,
        trajectory_digest(session.device_trajectory),
    ]
    for frame in session.frames:
        parts.append(rt.frame_digest(frame))
        parts.append((frame.timestamp, frame.heading, frame.frame_index))
    digest = rt.value_fingerprint(*parts)
    try:
        session._crowdmap_session_digest = digest
    except AttributeError:  # slots/frozen containers just recompute
        pass
    return digest


@dataclass
class Node:
    """One unit of plannable work, content-addressed by ``key``."""

    node_id: str              # stable human-readable id ("kf:u0-s1")
    kind: str                 # "framestack" | "keyframes" | "pair" | "pathway" | "room" | "floorplan"
    stage: str                # timings bucket: "pathway" | "rooms" | "floorplan"
    key: Optional[str]        # content address; late-keyed nodes start None
    deps: Tuple[str, ...] = ()  # producer node_ids


@dataclass
class ReconstructionPlan:
    """The static dataflow graph for one session list.

    Key-frame, pair and room node keys are pure content addresses and
    are known before anything executes; the pathway and floor-plan nodes
    are *late-keyed* — their keys depend on which producers survive
    quarantine, so the planner seals them as soon as the producer
    outcomes are known (still before any of their own work runs).
    """

    sws_sessions: List[Any]
    srs_groups: List[List[Any]]
    kf_nodes: List[Node]
    pair_nodes: Dict[Tuple[int, int], Node]
    room_nodes: List[Node]
    pathway_node: Node
    floorplan_node: Node
    comparison_fp: str
    #: Per-session shared frame-stack nodes, keyed by session_id. First
    #: class so the planner can account (and the cache can invalidate)
    #: the shared-plane computation subgraph-locally: a session content
    #: change re-runs exactly its own stack node, nothing else.
    fs_nodes: Dict[str, Node] = field(default_factory=dict)
    nodes: Dict[str, Node] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in self.iter_nodes():
            self.nodes[node.node_id] = node

    def iter_nodes(self) -> List[Node]:
        return (
            list(self.fs_nodes.values())
            + self.kf_nodes
            + list(self.pair_nodes.values())
            + [self.pathway_node]
            + self.room_nodes
            + [self.floorplan_node]
        )


def build_plan(
    pipeline: Any, sessions: Sequence[Any]
) -> ReconstructionPlan:
    """Build the content-addressed dataflow graph for a session list.

    Pure planning: digests sessions (once each, memoized) and lays out
    nodes + dependencies; executes nothing. Room grouping reuses the
    pipeline's skeleton-cell bucketing so planner and cascade agree on
    group identity byte for byte.
    """
    rt = get_runtime()
    config: CrowdMapConfig = pipeline.config
    sws = [s for s in sessions if s.task == "SWS"]
    srs = [s for s in sessions if s.task == "SRS"]

    kf_fp = rt.config_fingerprint(config, KEYFRAME_FIELDS)
    fs_fp = rt.config_fingerprint(config, FRAMESTACK_FIELDS)
    comparison_fp = rt.config_fingerprint(config, COMPARISON_FIELDS)
    room_fp = rt.config_fingerprint(config, ROOM_FIELDS)

    # One shared frame-stack node per session (SWS and SRS alike): the
    # derived per-frame planes every consumer kernel reads. Its key is
    # the session content plus the stack's own config scope, so a pixel
    # change invalidates exactly that session's stack node.
    fs_nodes = {
        session.session_id: Node(
            node_id=f"fs:{session.session_id}",
            kind="framestack",
            stage="pathway" if session.task == "SWS" else "rooms",
            key=rt.value_fingerprint("fs", session_digest(session), fs_fp),
        )
        for session in sws + srs
    }

    kf_nodes = [
        Node(
            node_id=f"kf:{session.session_id}",
            kind="keyframes",
            stage="pathway",
            key=rt.value_fingerprint("kf", session_digest(session), kf_fp),
            deps=(fs_nodes[session.session_id].node_id,),
        )
        for session in sws
    ]

    pair_nodes: Dict[Tuple[int, int], Node] = {}
    for i in range(len(sws)):
        for j in range(i + 1, len(sws)):
            a, b = kf_nodes[i], kf_nodes[j]
            pair_nodes[(i, j)] = Node(
                node_id=f"pair:{sws[i].session_id}+{sws[j].session_id}",
                kind="pair",
                stage="pathway",
                key=rt.value_fingerprint(
                    "pair", a.key, b.key, comparison_fp
                ),
                deps=(a.node_id, b.node_id),
            )

    pathway_node = Node(
        node_id="pathway",
        kind="pathway",
        stage="pathway",
        key=None,  # sealed once quarantine outcomes are known
        deps=tuple(n.node_id for n in kf_nodes)
        + tuple(n.node_id for n in pair_nodes.values()),
    )

    groups = pipeline.group_srs_sessions(srs)
    room_nodes = [
        Node(
            node_id="room:" + "+".join(s.session_id for s in group),
            kind="room",
            stage="rooms",
            key=rt.value_fingerprint(
                "room", *[session_digest(s) for s in group], room_fp
            ),
            deps=tuple(
                fs_nodes[s.session_id].node_id for s in group
            ),
        )
        for group in groups
    ]

    floorplan_node = Node(
        node_id="floorplan",
        kind="floorplan",
        stage="floorplan",
        key=None,  # sealed from the pathway key + room outcomes
        deps=("pathway",) + tuple(n.node_id for n in room_nodes),
    )

    return ReconstructionPlan(
        sws_sessions=sws,
        srs_groups=groups,
        kf_nodes=kf_nodes,
        pair_nodes=pair_nodes,
        room_nodes=room_nodes,
        pathway_node=pathway_node,
        floorplan_node=floorplan_node,
        comparison_fp=comparison_fp,
        fs_nodes=fs_nodes,
    )


def seal_pathway_key(
    plan: ReconstructionPlan,
    surviving_pairs: Sequence[Tuple[int, int]],
    failed_session_ids: Sequence[str],
    config: CrowdMapConfig,
) -> str:
    """Finalize the pathway node's key from its producers' outcomes."""
    rt = get_runtime()
    return rt.value_fingerprint(
        "pathway",
        *[n.key for n in plan.kf_nodes],
        *[plan.pair_nodes[ij].key for ij in surviving_pairs],
        *[f"failed:{sid}" for sid in failed_session_ids],
        rt.config_fingerprint(config, PATHWAY_FIELDS),
    )


def seal_floorplan_key(
    plan: ReconstructionPlan,
    pathway_key: str,
    room_outcomes: Sequence[str],
    config: CrowdMapConfig,
) -> str:
    """Finalize the floor-plan key from the pathway key + room outcomes.

    ``room_outcomes`` carries, in group order, each room node's key for
    successes or a ``failed:<group>`` marker for quarantined groups.
    """
    rt = get_runtime()
    return rt.value_fingerprint(
        "floorplan",
        pathway_key,
        *room_outcomes,
        rt.config_fingerprint(config, FLOORPLAN_FIELDS),
    )
