"""Room layout generation from 360-degree panoramas (Section III.C.II).

The paper's recipe: detect line segments in the panorama (LSD), find the
vanishing structure with the Hough transform, select the vertical segments
marking room corners, then generate thousands of candidate 3D rectangular
room models and keep the one maximizing a pixel-wise surface-consistency
metric (PanoContext).

Our estimator follows the same structure with the consistency metric made
explicit for a cylindrical panorama: the wall-floor boundary row observed
at each panorama column converts (through the camera height) into a
distance-to-wall profile ``d(azimuth)``; a candidate rectangular room —
orientation plus four wall distances — predicts its own profile in closed
form; the sampled candidate minimizing the robust profile error (with a
bonus for placing its corners on detected vertical line segments) wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.config import CrowdMapConfig
from repro.core.panorama import RoomPanorama
from repro.geometry.primitives import Point
from repro.vision.filters import gaussian_blur
from repro.vision.hough import dominant_vertical_columns
from repro.vision.lsd import detect_line_segments
from repro.world.renderer import Camera

TWO_PI = 2.0 * math.pi


def _interpolate_circular(values: np.ndarray) -> np.ndarray:
    """Fill NaNs by linear interpolation on a circular axis."""
    n = len(values)
    valid = np.isfinite(values)
    if valid.all():
        return values
    if not valid.any():
        return np.full(n, 5.0)
    idx = np.arange(n)
    # Unroll the circle: duplicate the valid samples one period out.
    xs = np.concatenate([idx[valid], idx[valid] + n])
    ys = np.concatenate([values[valid], values[valid]])
    filled = values.copy()
    filled[~valid] = np.interp(idx[~valid] + n, xs, ys)
    return filled


@dataclass(frozen=True)
class RoomLayout:
    """A fitted rectangular room model.

    ``orientation`` is the direction (radians, CCW from +x) of the room's
    first wall normal; ``width`` spans along that direction and ``depth``
    across it. ``center`` is the room centre in the panorama's frame
    (i.e. relative to the building skeleton once the capture position is
    known). ``consistency`` is the surface-consistency score of the
    winning model (higher is better).
    """

    center: Point
    width: float
    depth: float
    orientation: float
    consistency: float
    corner_azimuths: Tuple[float, ...] = ()
    #: Wall distances (a, b, c, d) from the capture point along the
    #: normals (theta, theta+pi, theta+pi/2, theta-pi/2); set by the
    #: estimator, used by the L-shaped extension.
    wall_distances: Tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def area(self) -> float:
        return self.width * self.depth

    def aspect_ratio(self) -> float:
        long_side = max(self.width, self.depth)
        short_side = min(self.width, self.depth)
        return long_side / short_side if short_side > 0 else float("inf")


@dataclass(frozen=True)
class LShapedLayout:
    """A fitted L-shaped room: the union of two same-orientation rectangles.

    Implements the paper's future-work direction for non-rectangular rooms
    (Section VI): each rectangle is parameterized like the base model
    (camera inside both); the union's distance profile is the pointwise
    maximum of the two rectangles' profiles.
    """

    center: Point  # centroid of the union (approximate)
    rect_a: RoomLayout
    rect_b: RoomLayout
    orientation: float
    consistency: float

    def area(self) -> float:
        """Union area: A + B - overlap (same-orientation rectangles)."""
        return (
            self.rect_a.area() + self.rect_b.area() - self._overlap_area()
        )

    def _overlap_area(self) -> float:
        # Work in the shared rotated frame centred on the camera: each
        # rectangle spans [-b, a] x [-d, c] along (theta, theta+90).
        a1, b1, c1, d1 = self.rect_a.wall_distances
        a2, b2, c2, d2 = self.rect_b.wall_distances
        du = max(0.0, min(a1, a2) + min(b1, b2))
        dv = max(0.0, min(c1, c2) + min(d1, d2))
        return du * dv

    def aspect_ratio(self) -> float:
        """Aspect ratio of the union's bounding rectangle."""
        a1, b1, c1, d1 = self.rect_a.wall_distances
        a2, b2, c2, d2 = self.rect_b.wall_distances
        width = max(a1, a2) + max(b1, b2)
        depth = max(c1, c2) + max(d1, d2)
        long_side, short_side = max(width, depth), min(width, depth)
        return long_side / short_side if short_side > 0 else float("inf")

    @property
    def is_rectangular(self) -> bool:
        return self._overlap_area() >= 0.98 * min(
            self.rect_a.area(), self.rect_b.area()
        )


class RoomLayoutEstimator:
    """Samples rectangular room models against a panorama's evidence."""

    def __init__(
        self,
        config: Optional[CrowdMapConfig] = None,
        camera: Optional[Camera] = None,
    ):
        self.config = config or CrowdMapConfig()
        self.camera = camera or Camera()

    # ------------------------------------------------------------------
    # Evidence extraction
    # ------------------------------------------------------------------

    def boundary_profile(
        self, pano: RoomPanorama, gray: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Distance-to-wall (m) per panorama column from wall junctions.

        For each column the wall-floor junction (strongest low vertical
        intensity transition below the horizon) gives the distance as
        ``eye_height / tan(elevation)``; where that junction falls outside
        the frame (very near walls) the wall-ceiling junction is used
        instead with the standard wall height. Columns where neither
        junction is visible are interpolated from their circular
        neighbours, and the profile is median-filtered to suppress
        per-column outliers (posters, scuffs).

        ``gray`` optionally carries the panorama's precomputed grayscale
        plane so the estimator's stages share one conversion.
        """
        from repro.world.floorplan_model import WALL_HEIGHT

        if gray is None:
            gray = pano.panorama.grayscale()
        gray = gaussian_blur(gray, 1.0)
        h, w = gray.shape
        horizon = (h - 1) / 2.0
        focal = self.camera.focal_px
        eye = self.camera.eye_height
        head = WALL_HEIGHT - eye
        dv = np.abs(np.diff(gray, axis=0))  # (h-1, w)

        lo = int(horizon + 4)
        hi = int(horizon - 4)
        floor_band = dv[lo : h - 3, :]
        ceil_band = dv[2:hi, :]

        # Every strong vertical transition is a junction *candidate*: the
        # floor band also contains wainscot lines and poster bottoms, the
        # ceiling band poster tops and light fixtures. Candidates from both
        # bands vote: the column keeps the candidate closest (in log space)
        # to the panorama-wide median, which rejects the systematic
        # impostors (a wainscot line reads 3x too far; a light fixture
        # reads too near) without assuming either junction is visible.
        # One whole-band comparison + nonzero per band (instead of one per
        # column) finds every strong transition; the distances for all
        # candidates are then computed in one vectorized expression and
        # grouped per column as plain Python floats for the pairing pass.
        floor_cands: List[List[float]] = [[] for _ in range(w)]
        ceil_cands: List[List[float]] = [[] for _ in range(w)]
        if floor_band.shape[0] > 2:
            peaks = floor_band.max(axis=0)
            strong = floor_band > (0.45 * peaks)[None, :]
            rows, cols = np.nonzero(strong & (peaks > 1e-3)[None, :])
            rows = rows + lo
            keep = rows < h - 5
            dist = eye * focal / np.maximum(rows[keep] - horizon, 1.0)
            for col, d in zip(cols[keep].tolist(), dist.tolist()):
                floor_cands[col].append(d)
        if ceil_band.shape[0] > 2:
            peaks = ceil_band.max(axis=0)
            strong = ceil_band > (0.45 * peaks)[None, :]
            rows, cols = np.nonzero(strong & (peaks > 1e-3)[None, :])
            rows = rows + 2
            keep = rows > 4
            dist = head * focal / np.maximum(horizon - rows[keep], 1.0)
            for col, d in zip(cols[keep].tolist(), dist.tolist()):
                ceil_cands[col].append(d)

        distances = np.full(w, np.nan)
        tolerance = math.log(1.3)
        for col in range(w):
            floor_c = floor_cands[col]
            ceil_c = ceil_cands[col]
            # The true wall distance is the one both junctions agree on;
            # each impostor (wainscot 3x, poster bottom ~7x, poster top
            # ~2.4x, fixtures <1x) appears in only one band or at a
            # different multiple. Among agreeing (floor, ceiling) pairs the
            # *smallest* is the wall (impostor pairs, when they collide,
            # land farther out).
            best = None
            for f in floor_c:
                for c in ceil_c:
                    if abs(math.log(f / c)) < tolerance:
                        paired = math.sqrt(f * c)
                        if best is None or paired < best:
                            best = paired
            if best is not None:
                distances[col] = best
            elif floor_c or ceil_c:
                distances[col] = min(floor_c + ceil_c)

        # Reject implausibly distant estimates (door/window vistas and
        # missed junctions) relative to the room's typical scale, then
        # fill the gaps from circular neighbours.
        finite = distances[np.isfinite(distances)]
        if finite.size:
            scale = float(np.median(finite))
            distances[distances > 3.5 * scale] = np.nan
        distances = _interpolate_circular(distances)
        # Median filter (window 5) over the circular profile, all columns
        # at once through a windowed view.
        padded = np.concatenate([distances[-2:], distances, distances[:2]])
        filtered = np.median(sliding_window_view(padded, 5), axis=1)
        return np.clip(filtered, 0.3, 40.0)

    def detect_corners(
        self,
        pano: RoomPanorama,
        max_corners: int = 8,
        gray: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Corner azimuths from vertical line-segment evidence (Fig. 5).

        Runs the line-segment detector on the panorama and ranks panorama
        columns by their vertical-segment support (the Hough-style voting
        of :func:`dominant_vertical_columns`).
        """
        if gray is None:
            gray = pano.panorama.grayscale()
        segments = detect_line_segments(pano.panorama.pixels, gray=gray)
        ranked = dominant_vertical_columns(segments, pano.width)
        azimuths = []
        for column, _support in ranked[:max_corners]:
            azimuths.append(pano.panorama.azimuth_of_column(column))
        return azimuths

    # ------------------------------------------------------------------
    # Model sampling and scoring
    # ------------------------------------------------------------------

    @staticmethod
    def _predict_profile(
        azimuths: np.ndarray,
        theta: np.ndarray,
        dists: np.ndarray,
    ) -> np.ndarray:
        """Distance profiles of candidate rectangles, (K, C).

        ``theta`` (K,) is each candidate's orientation; ``dists`` (K, 4)
        holds the wall distances along normals theta, theta+pi,
        theta+pi/2, theta-pi/2. A ray along azimuth az exits the rectangle
        at ``min over walls with cos(az - normal) > 0 of
        wall_dist / cos(az - normal)``.

        The (K, 4, C) cosine grid is expanded via the angle-addition
        identity ``cos(az - n) = cos(az)cos(n) + sin(az)sin(n)``: one
        cos/sin pair per candidate (the four normals' terms are sign/swap
        permutations of it) and per azimuth, then multiply-adds — instead
        of K*4*C transcendental evaluations, which dominated this
        function's cost.
        """
        cos_az = np.cos(azimuths)  # (C,)
        sin_az = np.sin(azimuths)
        cos_t = np.cos(theta)  # (K,)
        sin_t = np.sin(theta)
        # The four normals' cosine planes are sign flips of two (K, C)
        # planes: walls theta / theta+pi see +-(cos_t cos_az + sin_t
        # sin_az), walls theta+-pi/2 see +-(-sin_t cos_az + cos_t
        # sin_az). Each plane keeps the multiply-then-add-in-place order
        # of the stacked (K, 4, C) form this replaces, and IEEE negation
        # plus symmetric rounding make the flipped walls exact negations
        # — so every per-element ratio below is unchanged, while the
        # working set drops from one (K, 4, C) cube to (K, C) planes.
        plane_a = cos_t[:, None] * cos_az[None, :]  # (K, C)
        plane_a += sin_t[:, None] * sin_az[None, :]
        plane_b = (-sin_t)[:, None] * cos_az[None, :]
        plane_b += cos_t[:, None] * sin_az[None, :]
        # Walls facing away (cosine <= 1e-6) must not win the min. Rather
        # than an inf-filled buffer plus a where-mask, clamp the
        # denominator: the four normals are exactly 90 deg apart, so some
        # wall always has cosine >= sqrt(2)/2 and ratio <= 40/0.707 — a
        # clamped entry's ratio is >= 0.4/1e-6 and can never be selected,
        # making the min bit-identical while the division runs unmasked
        # in the cosine buffer. The running minimum visits the walls in
        # the same 0..3 order as the stacked form's axis-1 reduce (min is
        # exact, so association cannot change the value anyway).
        profile = None
        for k, plane in enumerate((plane_a, -plane_a, plane_b, -plane_b)):
            np.maximum(plane, 1e-6, out=plane)
            np.divide(dists[:, k, None], plane, out=plane)
            if profile is None:
                profile = plane
            else:
                np.minimum(profile, plane, out=profile)
        return profile  # (K, C)

    def _sample_candidates(
        self,
        profile: np.ndarray,
        azimuths: np.ndarray,
        n_samples: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw candidate (theta, four wall distances) from the evidence.

        Orientations are drawn around the profile's dominant axis (plus
        uniform exploration); wall distances around the observed profile
        values in each candidate's four normal directions.
        """
        # Dominant axis: the theta in [0, pi/2) maximizing the alignment of
        # profile extremes, estimated from the circular moment of 4*az
        # weighted by 1/d (near walls dominate).
        weights = 1.0 / np.maximum(profile, 0.5)
        moment = np.sum(weights * np.exp(1j * 4.0 * azimuths))
        theta0 = float(np.angle(moment)) / 4.0
        thetas = np.where(
            rng.random(n_samples) < 0.7,
            theta0 + rng.normal(0.0, math.radians(6.0), n_samples),
            rng.uniform(0.0, math.pi / 2.0, n_samples),
        )
        # Observed distance near each candidate's wall normals.
        dists = np.empty((n_samples, 4), dtype=np.float64)
        c = len(azimuths)
        for k in range(4):
            direction = thetas + (0.0, math.pi, math.pi / 2.0, -math.pi / 2.0)[k]
            idx = np.round(
                (np.mod(direction, TWO_PI)) / TWO_PI * c
            ).astype(int) % c
            base = profile[idx]
            dists[:, k] = base * rng.lognormal(0.0, 0.18, n_samples)
        dists = np.clip(dists, 0.4, 40.0)
        return thetas, dists

    def _score(
        self,
        predicted: np.ndarray,
        profile: np.ndarray,
        thetas: np.ndarray,
        corner_azimuths: List[float],
        log_profile: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Surface-consistency score per candidate (higher is better).

        ``log_profile`` optionally carries a precomputed ``np.log(profile)``
        (it is loop-invariant across sampling rounds). ``predicted`` is
        consumed: the log-error chain runs in place on it.
        """
        if log_profile is None:
            log_profile = np.log(profile)
        log_err = np.log(predicted, out=predicted)
        log_err -= log_profile[None, :]
        np.abs(log_err, out=log_err)
        np.minimum(log_err, 1.0, out=log_err)
        consistency = -log_err.mean(axis=1)
        if corner_azimuths:
            # Bonus when a candidate's corners align with detected
            # vertical-line azimuths.
            corners = np.array(corner_azimuths)
            # Candidate corner azimuths follow from theta and distances
            # only loosely; reward orientation agreement mod pi/2.
            diffs = np.abs(
                np.angle(
                    np.exp(1j * 4.0 * (thetas[:, None] - corners[None, :]))
                )
            ) / 4.0
            consistency += 0.1 * np.exp(-diffs.min(axis=1) / math.radians(5.0))
        return consistency

    def estimate(self, pano: RoomPanorama) -> RoomLayout:
        """Fit the best rectangular room model to a panorama.

        Samples ``layout_samples`` candidate models (paper: 20,000; default
        here 2,000 — see DESIGN.md) and returns the surface-consistency
        winner.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        # Panorama.grayscale() memoizes, so both evidence stages below
        # share one grayscale conversion.
        profile = self.boundary_profile(pano)
        c = len(profile)
        azimuths = np.arange(c) / c * TWO_PI
        corner_azimuths = self.detect_corners(pano)
        log_profile = np.log(profile)

        best_params: Optional[Tuple[float, np.ndarray]] = None
        best_score = -np.inf

        def consider(thetas: np.ndarray, dists: np.ndarray) -> None:
            nonlocal best_params, best_score
            predicted = self._predict_profile(azimuths, thetas, dists)
            scores = self._score(
                predicted, profile, thetas, corner_azimuths, log_profile
            )
            k = int(np.argmax(scores))
            if scores[k] > best_score:
                best_score = float(scores[k])
                best_params = (float(thetas[k]), dists[k].copy())

        # Exploration round, then two refinement rounds with shrinking
        # perturbations around the incumbent (the paper's 20,000-sample
        # search, spent adaptively).
        budgets = [
            max(1, int(cfg.layout_samples * 0.6)),
            max(1, int(cfg.layout_samples * 0.25)),
            max(1, int(cfg.layout_samples * 0.15)),
        ]
        chunk = 4000
        remaining = budgets[0]
        while remaining > 0:
            n = min(chunk, remaining)
            remaining -= n
            thetas, dists = self._sample_candidates(profile, azimuths, n, rng)
            consider(thetas, dists)
        for budget, theta_sigma, dist_sigma in (
            (budgets[1], math.radians(2.0), 0.06),
            (budgets[2], math.radians(0.7), 0.02),
        ):
            assert best_params is not None
            theta0, dists0 = best_params
            remaining = budget
            while remaining > 0:
                n = min(chunk, remaining)
                remaining -= n
                thetas = theta0 + rng.normal(0.0, theta_sigma, n)
                dists = np.clip(
                    dists0[None, :] * rng.lognormal(0.0, dist_sigma, (n, 4)),
                    0.4, 40.0,
                )
                consider(thetas, dists)

        assert best_params is not None  # layout_samples >= 1
        theta, (a, b, cc, d) = best_params
        ux, uy = math.cos(theta), math.sin(theta)
        vx, vy = -uy, ux
        center = Point(
            pano.capture_position.x + (a - b) / 2.0 * ux + (cc - d) / 2.0 * vx,
            pano.capture_position.y + (a - b) / 2.0 * uy + (cc - d) / 2.0 * vy,
        )
        return RoomLayout(
            center=center,
            width=float(a + b),
            depth=float(cc + d),
            orientation=theta,
            consistency=best_score,
            corner_azimuths=tuple(corner_azimuths[:4]),
            wall_distances=(float(a), float(b), float(cc), float(d)),
        )

    # ------------------------------------------------------------------
    # Non-rectangular extension (paper Section VI future work)
    # ------------------------------------------------------------------

    def estimate_lshape(self, pano: RoomPanorama) -> LShapedLayout:
        """Fit an L-shaped model: the union of two co-oriented rectangles.

        Both rectangles contain the camera, so a ray leaves the union at
        the *farther* of its two rectangle exits — the predicted profile is
        the pointwise maximum. Sampling seeds the first rectangle with the
        best rectangular fit and explores the second around the residual
        (the profile regions the rectangle under-explains).
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed + 1)
        profile = self.boundary_profile(pano)
        c = len(profile)
        azimuths = np.arange(c) / c * TWO_PI
        base = self.estimate(pano)
        theta0 = base.orientation

        # Per-wall wedge statistics: the profile values within +-45 deg of
        # each wall normal. The core rectangle samples near each wedge's
        # *low* quantile (the true near wall); the extended arm pushes one
        # wall toward its wedge's *high* quantile (the alcove's far wall).
        normals = theta0 + np.array([0.0, math.pi, math.pi / 2.0, -math.pi / 2.0])
        wedge_q = np.zeros((4, 3))
        for j, normal in enumerate(normals):
            diff = np.angle(np.exp(1j * (azimuths - normal)))
            wedge = profile[np.abs(diff) < math.pi / 4.0]
            if wedge.size == 0:
                wedge = profile
            wedge_q[j] = np.quantile(wedge, [0.25, 0.5, 0.9])

        best_score = -np.inf
        best = None
        n_total = max(200, cfg.layout_samples // 2)
        chunk = 2000

        log_profile = np.log(profile)

        def consider(thetas, d_a, d_b):
            nonlocal best_score, best
            pred_a = self._predict_profile(azimuths, thetas, d_a)
            pred_b = self._predict_profile(azimuths, thetas, d_b)
            predicted = np.maximum(pred_a, pred_b, out=pred_a)
            log_err = np.log(predicted, out=predicted)
            log_err -= log_profile[None, :]
            np.abs(log_err, out=log_err)
            np.minimum(log_err, 1.0, out=log_err)
            scores = -log_err.mean(axis=1)
            k = int(np.argmax(scores))
            if scores[k] > best_score:
                best_score = float(scores[k])
                best = (float(thetas[k]), d_a[k].copy(), d_b[k].copy())

        remaining = n_total
        while remaining > 0:
            n = min(chunk, remaining)
            remaining -= n
            thetas = theta0 + rng.normal(0.0, math.radians(3.0), n)
            # Core rectangle near the wedges' near walls.
            d_a = np.clip(
                wedge_q[None, :, 0] * rng.lognormal(0.0, 0.15, (n, 4)),
                0.4, 40.0,
            )
            # Arm: copy the core, extend one randomly chosen wall to the
            # wedge's far quantile; optionally tighten the perpendicular
            # pair so the arm stays narrow.
            d_b = d_a * rng.lognormal(0.0, 0.1, (n, 4))
            arms = rng.integers(0, 4, n)
            arm_dist = wedge_q[arms, 2] * rng.lognormal(0.0, 0.15, n)
            d_b[np.arange(n), arms] = arm_dist
            perp = np.where(arms < 2, 2, 0)  # index of a perpendicular wall
            d_b[np.arange(n), perp] *= rng.uniform(0.3, 1.0, n)
            d_b[np.arange(n), perp + 1] *= rng.uniform(0.3, 1.0, n)
            d_b = np.clip(d_b, 0.4, 40.0)
            consider(thetas, d_a, d_b)

        # Refinement round around the incumbent.
        assert best is not None
        theta_i, da_i, db_i = best
        n = max(200, n_total // 2)
        thetas = theta_i + rng.normal(0.0, math.radians(1.0), n)
        d_a = np.clip(da_i[None, :] * rng.lognormal(0.0, 0.05, (n, 4)), 0.4, 40.0)
        d_b = np.clip(db_i[None, :] * rng.lognormal(0.0, 0.05, (n, 4)), 0.4, 40.0)
        consider(thetas, d_a, d_b)

        theta, da, db = best

        def rect(d):
            a, b, cc, dd = d
            ux, uy = math.cos(theta), math.sin(theta)
            vx, vy = -uy, ux
            centre = Point(
                pano.capture_position.x + (a - b) / 2.0 * ux + (cc - dd) / 2.0 * vx,
                pano.capture_position.y + (a - b) / 2.0 * uy + (cc - dd) / 2.0 * vy,
            )
            return RoomLayout(
                center=centre, width=float(a + b), depth=float(cc + dd),
                orientation=theta, consistency=best_score,
                wall_distances=tuple(float(x) for x in d),
            )

        rect_a, rect_b = rect(da), rect(db)
        centroid = Point(
            (rect_a.center.x * rect_a.area() + rect_b.center.x * rect_b.area())
            / (rect_a.area() + rect_b.area()),
            (rect_a.center.y * rect_a.area() + rect_b.center.y * rect_b.area())
            / (rect_a.area() + rect_b.area()),
        )
        return LShapedLayout(
            center=centroid, rect_a=rect_a, rect_b=rect_b,
            orientation=theta, consistency=best_score,
        )

    def estimate_auto(self, pano: RoomPanorama, complexity_penalty: float = 0.015):
        """Pick the rectangular or L-shaped model by penalized consistency.

        The L model has five extra parameters, so it must beat the
        rectangle by ``complexity_penalty`` in consistency to be chosen —
        matching the paper's observation that ~90% of rooms are rectangular
        and should stay so.
        """
        rect = self.estimate(pano)
        lshape = self.estimate_lshape(pano)
        if lshape.consistency > rect.consistency + complexity_penalty:
            return lshape
        return rect
