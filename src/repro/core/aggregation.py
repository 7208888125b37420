"""Sequence-based user-trajectory aggregation (paper Section III.B.I).

Video key-frames act as "anchor points" between trajectories: when several
key-frames of trajectory A match key-frames of trajectory B *in temporal
order*, the two walks very likely share a path. The paper captures this
with the longest common subsequence over trajectory points,

    L(Ta_i, Tb_j) = 1 + L(Ta_{i-1}, Tb_{j-1})   if d(ta_i, tb_j) <= eps
                                                 and |i - j| < delta,

scored as ``S3 = max_{f in F} L(Ta, f(Tb)) / min(i, j)`` (Eq. 2) where F
is a set of candidate transforms. We generate F from the matched anchors
themselves: each consistent anchor set proposes the rigid transform that
registers B's anchor positions onto A's (plus single-anchor translation
fallbacks), and S3 is maximized over the proposals. Pairs with
``S3 > h_l`` merge; a spanning tree over merges places every trajectory in
one common frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.workers import map_parallel
from repro.core.comparison import KeyframeComparator
from repro.core.config import CrowdMapConfig
from repro.core.keyframes import KeyFrame
from repro.geometry.primitives import Point, Transform2D, wrap_angle
from repro.sensors.trajectory import Trajectory


@dataclass
class AnchoredTrajectory:
    """A device trajectory plus its selected key-frames.

    ``anchor_index(k)`` gives the resampled-trajectory point index nearest
    key-frame ``k``'s capture time.
    """

    trajectory: Trajectory
    keyframes: List[KeyFrame]
    session_id: str

    _resampled: Optional[Trajectory] = field(default=None, repr=False)

    def resampled(self, interval: float) -> Trajectory:
        if self._resampled is None:
            self._resampled = self.trajectory.resampled(interval)
        return self._resampled

    def anchor_point(self, keyframe: KeyFrame, interval: float) -> np.ndarray:
        traj = self.resampled(interval)
        idx = traj.nearest_index(keyframe.timestamp)
        p = traj[idx]
        return np.array([p.x, p.y])


def lcss_similarity(
    xy_a: np.ndarray,
    xy_b: np.ndarray,
    epsilon: float,
    delta: int,
) -> Tuple[int, float]:
    """Banded LCSS length and normalized score between two point arrays.

    Implements the paper's recursion directly with a dynamic program
    restricted to the band ``|i - j| < delta``. Returns ``(L, S3)`` with
    ``S3 = L / min(len_a, len_b)``.
    """
    n, m = len(xy_a), len(xy_b)
    if n == 0 or m == 0:
        return 0, 0.0
    # dp[i][j] over 1-based indices; band keeps it near-linear.
    prev = np.zeros(m + 1, dtype=np.int32)
    curr = np.zeros(m + 1, dtype=np.int32)
    eps_sq = epsilon * epsilon
    for i in range(1, n + 1):
        curr[0] = 0
        j_lo = max(1, i - delta + 1)
        j_hi = min(m, i + delta - 1)
        # Outside the band, carry the best-so-far from the left edge.
        curr[1:j_lo] = prev[1:j_lo]
        ax, ay = xy_a[i - 1]
        for j in range(j_lo, j_hi + 1):
            dx = ax - xy_b[j - 1][0]
            dy = ay - xy_b[j - 1][1]
            if dx * dx + dy * dy <= eps_sq:
                curr[j] = 1 + prev[j - 1]
            else:
                curr[j] = max(curr[j - 1], prev[j])
        if j_hi < m:
            curr[j_hi + 1 :] = curr[j_hi]
        prev, curr = curr, prev
    length = int(prev[m])
    return length, length / min(n, m)


def fit_rigid_transform(src: np.ndarray, dst: np.ndarray) -> Transform2D:
    """Least-squares rigid transform mapping ``src`` points onto ``dst``.

    2D Kabsch: optimal rotation from the cross-covariance, then the
    translation aligning the centroids.
    """
    if len(src) != len(dst) or len(src) == 0:
        raise ValueError("need equally many source and destination points")
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    s = src - cs
    d = dst - cd
    cov = s.T @ d
    theta = math.atan2(cov[0, 1] - cov[1, 0], cov[0, 0] + cov[1, 1])
    c, si = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -si], [si, c]])
    t = cd - rot @ cs
    return Transform2D(theta=theta, tx=float(t[0]), ty=float(t[1]))


def _longest_increasing_pairs(
    pairs: Sequence[Tuple[int, int, float]],
) -> List[Tuple[int, int, float]]:
    """Largest subset of (i, j) match pairs increasing in both indices.

    This is the "sequence-based" consistency requirement: anchors between
    two walks must appear in the same temporal order in both.
    """
    ordered = sorted(pairs, key=lambda p: (p[0], p[1]))
    best_chain: List[Tuple[int, int, float]] = []
    chains: List[List[Tuple[int, int, float]]] = []
    for pair in ordered:
        extendable = [
            chain for chain in chains
            if chain[-1][0] < pair[0] and chain[-1][1] < pair[1]
        ]
        if extendable:
            base = max(extendable, key=len)
            chain = base + [pair]
        else:
            chain = [pair]
        chains.append(chain)
        if len(chain) > len(best_chain):
            best_chain = chain
    return best_chain


@dataclass(frozen=True)
class MergeCandidate:
    """A scored, transform-carrying merge decision for a trajectory pair."""

    index_a: int
    index_b: int
    s3: float
    transform: Transform2D  # maps B's frame into A's frame
    n_anchor_matches: int
    mergeable: bool
    #: Sequence-consistent matched key-frame index pairs (into the two
    #: sessions' keyframe lists); used by drift calibration.
    anchor_pairs: Tuple[Tuple[int, int], ...] = ()


@dataclass
class AggregationResult:
    """Aggregated trajectories in one common frame."""

    trajectories: List[Trajectory]
    transforms: List[Transform2D]
    candidates: List[MergeCandidate]
    components: List[List[int]]

    def merged_pairs(self) -> List[Tuple[int, int]]:
        return [(c.index_a, c.index_b) for c in self.candidates if c.mergeable]


def calibrate_drift(
    anchored: Sequence["AnchoredTrajectory"],
    result: "AggregationResult",
    iterations: int = 2,
) -> List[Trajectory]:
    """Anchor-based drift calibration of the registered trajectories.

    Paper Section V.D: "We process multiple continuous key-frames to
    calibrate the drift error residing in the trajectories, and then
    aggregate these trajectories." After rigid registration, every matched
    key-frame pair asserts that two walks saw the same place at their
    anchor instants; the residual between the corresponding trajectory
    points is dead-reckoning drift. Each trajectory is warped by a
    time-interpolated offset that moves its anchor points halfway toward
    the pairwise consensus, repeated for a couple of smoothing iterations.

    Returns the calibrated trajectories (same order as ``result``).
    """
    trajectories = [
        Trajectory(
            points=list(t.points),
            user_id=t.user_id,
            trajectory_id=t.trajectory_id,
            keyframe_indices=dict(t.keyframe_indices),
        )
        for t in result.trajectories
    ]
    merged = [c for c in result.candidates if c.mergeable and c.anchor_pairs]
    if not merged:
        return trajectories

    for _ in range(max(1, iterations)):
        corrections: Dict[int, List[Tuple[float, float, float]]] = {
            i: [] for i in range(len(trajectories))
        }
        for cand in merged:
            ia, ib = cand.index_a, cand.index_b
            traj_a, traj_b = trajectories[ia], trajectories[ib]
            if not traj_a.points or not traj_b.points:
                continue
            for ka, kb in cand.anchor_pairs:
                kf_a = anchored[ia].keyframes[ka]
                kf_b = anchored[ib].keyframes[kb]
                pa = traj_a[traj_a.nearest_index(kf_a.timestamp)]
                pb = traj_b[traj_b.nearest_index(kf_b.timestamp)]
                mid_x = (pa.x + pb.x) / 2.0
                mid_y = (pa.y + pb.y) / 2.0
                corrections[ia].append(
                    (kf_a.timestamp, (mid_x - pa.x) / 2.0, (mid_y - pa.y) / 2.0)
                )
                corrections[ib].append(
                    (kf_b.timestamp, (mid_x - pb.x) / 2.0, (mid_y - pb.y) / 2.0)
                )
        for i, corr in corrections.items():
            if not corr:
                continue
            corr.sort()
            times = np.array([c[0] for c in corr])
            dxs = np.array([c[1] for c in corr])
            dys = np.array([c[2] for c in corr])
            traj = trajectories[i]
            pt_times = traj.times()
            offset_x = np.interp(pt_times, times, dxs)
            offset_y = np.interp(pt_times, times, dys)
            from repro.sensors.trajectory import TrajectoryPoint

            traj.points = [
                TrajectoryPoint(p.x + float(ox), p.y + float(oy), p.t, p.heading)
                for p, ox, oy in zip(traj.points, offset_x, offset_y)
            ]
    return trajectories


class SequenceAggregator:
    """Aggregates anchored trajectories via key-frame anchors + LCSS."""

    def __init__(
        self,
        config: Optional[CrowdMapConfig] = None,
        comparator: Optional[KeyframeComparator] = None,
    ):
        self.config = config or CrowdMapConfig()
        self.comparator = comparator or KeyframeComparator(self.config)

    # ------------------------------------------------------------------
    # Pairwise machinery
    # ------------------------------------------------------------------

    def anchor_matches(
        self, a: AnchoredTrajectory, b: AnchoredTrajectory
    ) -> List[Tuple[int, int, float]]:
        """Ordered key-frame matches between two sessions.

        Returns sequence-consistent (index into a.keyframes, index into
        b.keyframes, S2 score) triples.
        """
        raw: List[Tuple[int, int, float]] = []
        for i, kf_a in enumerate(a.keyframes):
            for j, kf_b in enumerate(b.keyframes):
                result = self.comparator.compare(kf_a, kf_b)
                if result.matched:
                    raw.append((i, j, result.s2))
        return _longest_increasing_pairs(raw)

    def _proposals(
        self,
        a: AnchoredTrajectory,
        b: AnchoredTrajectory,
        matches: Sequence[Tuple[int, int, float]],
    ) -> List[Transform2D]:
        """Candidate transforms of B's frame into A's (the paper's F)."""
        interval = self.config.resample_interval
        src = np.array([b.anchor_point(b.keyframes[j], interval) for _, j, _ in matches])
        dst = np.array([a.anchor_point(a.keyframes[i], interval) for i, _, _ in matches])
        proposals: List[Transform2D] = [Transform2D.identity()]
        if len(matches) >= 2:
            proposals.append(fit_rigid_transform(src, dst))
        # Heading-aligned single-anchor translations, strongest first.
        ranked = sorted(enumerate(matches), key=lambda kv: -kv[1][2])
        for k, (i, j, _) in ranked[: self.config.max_anchor_proposals]:
            rotation = wrap_angle(
                a.keyframes[i].heading - b.keyframes[j].heading
            )
            c, s = math.cos(rotation), math.sin(rotation)
            rotated = np.array([c * src[k][0] - s * src[k][1],
                                s * src[k][0] + c * src[k][1]])
            t = dst[k] - rotated
            proposals.append(Transform2D(rotation, float(t[0]), float(t[1])))
        return proposals[: self.config.max_anchor_proposals + 2]

    def score_pair(
        self, a: AnchoredTrajectory, b: AnchoredTrajectory,
        index_a: int = 0, index_b: int = 1,
    ) -> MergeCandidate:
        """Full pairwise decision: anchors -> transforms -> LCSS -> S3."""
        cfg = self.config
        matches = self.anchor_matches(a, b)
        if len(matches) < cfg.min_anchor_matches:
            return MergeCandidate(
                index_a=index_a, index_b=index_b, s3=0.0,
                transform=Transform2D.identity(),
                n_anchor_matches=len(matches), mergeable=False,
                anchor_pairs=tuple((i, j) for i, j, _ in matches),
            )
        xy_a = a.resampled(cfg.resample_interval).as_array()
        xy_b = b.resampled(cfg.resample_interval).as_array()
        origin_b = (
            Point(b.trajectory.points[0].x, b.trajectory.points[0].y)
            if b.trajectory.points else Point(0.0, 0.0)
        )
        best_s3 = -1.0
        best_transform = Transform2D.identity()
        for transform in self._proposals(a, b, matches):
            # Geo-prior gate: both sessions carry a coarse absolute anchor
            # (Task-1), so a registration that teleports B further than the
            # combined origin-noise + drift budget cannot be right — it is
            # the signature of the parallel-corridor ambiguity.
            displacement = transform.apply(origin_b).distance_to(origin_b)
            if displacement > cfg.max_geo_displacement:
                continue
            moved = transform.apply_array(xy_b)
            _, s3 = lcss_similarity(xy_a, moved, cfg.lcss_epsilon, cfg.lcss_delta)
            if s3 > best_s3:
                best_s3 = s3
                best_transform = transform
        best_s3 = max(best_s3, 0.0)
        return MergeCandidate(
            index_a=index_a,
            index_b=index_b,
            s3=best_s3,
            transform=best_transform,
            n_anchor_matches=len(matches),
            mergeable=best_s3 > cfg.s3_threshold,
            anchor_pairs=tuple((i, j) for i, j, _ in matches),
        )

    # ------------------------------------------------------------------
    # Whole-crowd aggregation
    # ------------------------------------------------------------------

    def aggregate(
        self, anchored: Sequence[AnchoredTrajectory]
    ) -> AggregationResult:
        """Register all trajectories into one common frame.

        Pairwise merge candidates are scored (in parallel), mergeable pairs
        form a graph, and a BFS spanning tree of each connected component
        composes transforms so every trajectory lands in the frame of its
        component's root. Components never linked by anchors keep their own
        (geo-referenced) frame — identity transform.
        """
        n = len(anchored)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        candidates = map_parallel(
            lambda ij: self.score_pair(
                anchored[ij[0]], anchored[ij[1]], ij[0], ij[1]
            ),
            pairs,
            max_workers=self.config.n_workers,
            backend=self.config.worker_backend,
        )
        return register_candidates(anchored, list(candidates))


def register_candidates(
    anchored: Sequence[AnchoredTrajectory],
    candidates: List[MergeCandidate],
) -> AggregationResult:
    """Build the common frame from already-scored merge candidates.

    Shared by batch aggregation and the incremental pipeline (which scores
    only the new session's pairs per update and re-registers from cache).
    """
    n = len(anchored)
    adjacency: Dict[int, List[Tuple[int, Transform2D]]] = {
        i: [] for i in range(n)
    }
    for cand in candidates:
        if not cand.mergeable:
            continue
        # transform maps B into A's frame.
        adjacency[cand.index_a].append((cand.index_b, cand.transform))
        adjacency[cand.index_b].append(
            (cand.index_a, cand.transform.inverse())
        )

    transforms: List[Optional[Transform2D]] = [None] * n
    components: List[List[int]] = []
    for root in range(n):
        if transforms[root] is not None:
            continue
        component = [root]
        transforms[root] = Transform2D.identity()
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for neighbour, edge in adjacency[node]:
                if transforms[neighbour] is None:
                    # node's frame -> root's frame, composed with
                    # neighbour -> node.
                    transforms[neighbour] = transforms[node].compose(edge)
                    component.append(neighbour)
                    frontier.append(neighbour)
        components.append(sorted(component))

    # Geo-prior correction: spanning-tree registration leaves every
    # component in its *root's* frame, inheriting that single session's
    # origin error. Each member's own dead-reckoning origin is an
    # unbiased geo-referenced prior (Task-1 annotation), so shifting
    # the whole component by the mean residual against those priors
    # shrinks the component's absolute offset by sqrt(#members).
    for component in components:
        dx_sum = dy_sum = 0.0
        count = 0
        for i in component:
            if not anchored[i].trajectory.points:
                continue
            origin = anchored[i].trajectory.points[0]
            t = transforms[i] or Transform2D.identity()
            moved_origin = t.apply(Point(origin.x, origin.y))
            dx_sum += origin.x - moved_origin.x
            dy_sum += origin.y - moved_origin.y
            count += 1
        if count == 0:
            continue
        shift = Transform2D(0.0, dx_sum / count, dy_sum / count)
        for i in component:
            base = transforms[i] or Transform2D.identity()
            transforms[i] = shift.compose(base)

    moved = []
    for i, anc in enumerate(anchored):
        t = transforms[i] or Transform2D.identity()
        moved.append(anc.trajectory.transformed(t.theta, t.tx, t.ty))
    return AggregationResult(
        trajectories=moved,
        transforms=[t or Transform2D.identity() for t in transforms],
        candidates=list(candidates),
        components=components,
    )
