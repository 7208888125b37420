"""Line segment detection (after von Gioi et al., "LSD", IPOL 2012).

Room layout generation (paper Section III.C.II, Fig. 5a) begins by
detecting line segments in the room panorama. LSD's core idea is region
growing on the level-line field: pixels whose gradient orientations agree
within a tolerance are grouped into line-support regions, each approximated
by a rectangle and validated by its density of aligned points. We implement
that pipeline (greedy region growing, PCA rectangle fit, density
validation) without the a-contrario NFA machinery — the fixed density test
is sufficient at the panorama resolutions the pipeline uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.vision.filters import sobel_gradients
from repro.vision.image import to_grayscale


@dataclass(frozen=True)
class LineSegment2D:
    """A detected image-space line segment with its support strength."""

    x1: float
    y1: float
    x2: float
    y2: float
    strength: float  # total gradient magnitude of the support region

    def length(self) -> float:
        return math.hypot(self.x2 - self.x1, self.y2 - self.y1)

    def angle(self) -> float:
        """Orientation in ``[0, pi)``."""
        return math.atan2(self.y2 - self.y1, self.x2 - self.x1) % math.pi

    def midpoint(self) -> tuple:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def is_vertical(self, tolerance: float = math.pi / 8) -> bool:
        """True when the segment is within ``tolerance`` of image-vertical."""
        return abs(self.angle() - math.pi / 2.0) < tolerance


def _coarse_support_screen(
    usable: np.ndarray,
    min_region_size: int,
    min_length: float,
) -> np.ndarray:
    """Mask out support provably unable to seed a surviving segment.

    A 2x2 max-pool of the support mask is labelled instead of the full
    grid (a quarter of the labelling work): 8-connected fine pixels land
    in the same or 8-adjacent coarse cells, so every fine support
    component maps *inside* one coarse component. Each coarse component
    bounds its fine content: at most 4 fine pixels per cell, and a fine
    bounding box no larger than the coarse box scaled by two. Coarse
    components whose bounds already fail the size or length test are
    erased wholesale — regions grow only through usable pixels, so
    removing a whole (coarse-connected superset of a) fine component
    cannot change any other region's growth, the same argument as the
    fine component shave below.

    The thresholds are the provable bounds (``4 * cells <
    min_region_size``, scaled diagonal < ``min_length``), so the output
    is bit-identical to no screen at all.
    """
    from scipy.ndimage import find_objects, label

    h, w = usable.shape
    ph, pw = (h + 1) // 2, (w + 1) // 2
    padded = np.zeros((ph * 2, pw * 2), dtype=bool)
    padded[:h, :w] = usable
    coarse = padded.reshape(ph, 2, pw, 2).any(axis=(1, 3))

    labels, n = label(coarse, structure=np.ones((3, 3), bool))
    if not n:
        return usable
    sizes = np.bincount(labels.ravel())
    doomed = sizes * 4 < min_region_size
    doomed[0] = False
    for idx, slices in enumerate(find_objects(labels)):  # crowdlint: allow[CM006] loop is over connected components (few), reading each one's bounding-box slices
        if slices is None or doomed[idx + 1]:
            continue
        sy, sx = slices
        bh = (sy.stop - sy.start) * 2.0
        bw = (sx.stop - sx.start) * 2.0
        if math.hypot(bh - 1.0, bw - 1.0) < min_length:
            doomed[idx + 1] = True
    if doomed.any():
        keep_coarse = ~doomed[labels]  # (ph, pw)
        fine_keep = np.repeat(
            np.repeat(keep_coarse, 2, axis=0), 2, axis=1
        )[:h, :w]
        usable = usable & fine_keep
    return usable


def detect_line_segments(
    image: np.ndarray,
    magnitude_quantile: float = 0.7,
    angle_tolerance: float = math.pi / 8,
    min_region_size: int = 12,
    min_length: float = 6.0,
    min_density: float = 0.4,
    max_segments: int = 400,
    gray: np.ndarray = None,
    prescreen: bool = True,
) -> List[LineSegment2D]:
    """Detect line segments by level-line region growing.

    Pixels above the ``magnitude_quantile`` gradient-magnitude quantile are
    seeds, visited in decreasing magnitude order (LSD's ordering). A region
    grows through 8-connected neighbours whose level-line angle stays within
    ``angle_tolerance`` of the region's running mean angle. Each region is
    fit with a PCA line; it is kept when it has at least ``min_region_size``
    pixels, spans ``min_length`` pixels and fills at least ``min_density``
    of its bounding rectangle.

    ``gray`` optionally carries the image's precomputed grayscale plane
    (the shared frame stack computes it once per frame); it must be the
    untouched ``to_grayscale(image)`` output. ``prescreen`` enables the
    coarse-to-fine support screen — provably output-invisible by itself,
    exposed as a flag so the oracle tests can compare both paths.
    """
    if gray is None:
        gray = to_grayscale(image)
    if gray.max() > 1.5:
        gray = gray / 255.0
    gx, gy = sobel_gradients(gray)
    magnitude = np.sqrt(gx * gx + gy * gy)
    # Level-line angle: orthogonal to the gradient, on the half circle.
    # arctan2 + pi/2 lies in (-pi/2, 3pi/2]; folding into [0, pi) needs
    # one conditional add and one conditional subtract of pi — the same
    # additions np.mod performs (both exact here), minus its divide.
    level_angle = np.arctan2(gy, gx) + math.pi / 2.0
    np.subtract(
        level_angle, math.pi, out=level_angle, where=level_angle >= math.pi
    )
    np.add(level_angle, math.pi, out=level_angle, where=level_angle < 0.0)

    h, w = gray.shape
    positive = magnitude[magnitude > 0]
    if positive.size == 0:
        return []
    threshold = np.quantile(positive, magnitude_quantile)
    usable = magnitude >= max(threshold, 1e-9)
    if prescreen:
        # Coarse stage first: the quarter-resolution screen erases
        # hopeless support cheaply before the full-resolution labelling
        # pass below spends time on it.
        usable = _coarse_support_screen(usable, min_region_size, min_length)
    # Early rejection of undersized support components: a region grows
    # only through usable pixels, so every region is a subset of one
    # 8-connected component of ``usable`` — components smaller than
    # ``min_region_size`` can therefore never survive the size check
    # below. Discarding them up front skips their seed visits and
    # growth work without changing any kept segment (small components
    # cannot interact with other components' growth either). The same
    # argument covers the length test: a region's PCA extent is at most
    # its component's bounding-box diagonal, so components whose
    # diagonal is under ``min_length`` are equally doomed.
    from scipy.ndimage import find_objects, label

    components, n_components = label(usable, structure=np.ones((3, 3), bool))
    if n_components:
        sizes = np.bincount(components.ravel())
        doomed = sizes < min_region_size
        doomed[0] = False
        for idx, slices in enumerate(find_objects(components)):  # crowdlint: allow[CM006] loop is over connected components (few), reading each one's bounding-box slices
            if slices is None or doomed[idx + 1]:
                continue
            sy, sx = slices
            diag = math.hypot(
                (sy.stop - sy.start) - 1.0, (sx.stop - sx.start) - 1.0
            )
            if diag < min_length:
                doomed[idx + 1] = True
        if doomed.any():
            usable &= ~doomed[components]
    used = ~usable  # mark weak pixels as already consumed

    seed_rows, seed_cols = np.nonzero(usable)
    order = np.argsort(-magnitude[seed_rows, seed_cols])
    # Flat indices into a one-pixel-padded raster: the padding ring is
    # pre-marked "used", so the growth loop needs no bounds checks, and
    # every neighbour is one integer offset away.
    wp = w + 2
    seeds = ((seed_rows[order] + 1) * wp + (seed_cols[order] + 1)).tolist()

    # Region growing is inherently sequential (each accepted pixel shifts
    # the running mean angle the next acceptance test uses), so the loop
    # stays — but it runs on plain Python scalars over flat buffers: a
    # bytearray visited mask and a flat list of angles index ~20x faster
    # than per-pixel numpy calls, and the raster values are identical.
    level_flat = np.pad(level_angle, 1).ravel().tolist()
    magnitude_flat = np.pad(magnitude, 1).ravel()
    used_pad = np.ones((h + 2, w + 2), dtype=bool)
    used_pad[1:-1, 1:-1] = used
    used_flat = bytearray(used_pad.ravel().tobytes())
    pi = math.pi
    half_pi = 0.5 * math.pi
    cos = math.cos
    sin = math.sin
    atan2 = math.atan2

    neighbours = (-wp - 1, -wp, -wp + 1, -1, 1, wp - 1, wp, wp + 1)
    segments: List[LineSegment2D] = []

    for si in seeds:  # crowdlint: allow[CM006] sequential region growing on flat python buffers is the vectorization-resistant core of LSD
        if used_flat[si]:
            continue
        region = [si]
        used_flat[si] = True
        # Track mean region angle as a unit vector on the doubled circle so
        # that angles near 0 and near pi average correctly.
        angle0 = level_flat[si]
        sum_cos = cos(2.0 * angle0)
        sum_sin = sin(2.0 * angle0)
        head = 0
        # The mean angle only moves when a pixel is accepted, so it is
        # recomputed lazily (stale flag) instead of once per popped
        # pixel — the value each acceptance test sees is unchanged.
        mean_angle = 0.5 * atan2(sum_sin, sum_cos) % pi
        stale = False
        while head < len(region):
            ci = region[head]
            head += 1
            if stale:
                mean_angle = 0.5 * atan2(sum_sin, sum_cos) % pi
                stale = False
            for off in neighbours:
                ni = ci + off
                if used_flat[ni]:
                    continue
                angle = level_flat[ni]
                # Both angles live in [0, pi), so |difference| < pi and
                # the half-circle fold needs no modulo; at d == pi/2 the
                # two fold branches agree exactly.
                d = abs(angle - mean_angle)
                if d >= half_pi:
                    d = pi - d
                if d < angle_tolerance:
                    used_flat[ni] = True
                    region.append(ni)
                    sum_cos += cos(2.0 * angle)
                    sum_sin += sin(2.0 * angle)
                    stale = True
        if len(region) < min_region_size:
            continue
        flat = np.array(region)
        rows, cols = np.divmod(flat, wp)
        pts = np.empty((len(region), 2), dtype=np.float64)  # rows=(y, x)
        np.subtract(rows, 1, out=pts[:, 0], casting="unsafe")
        np.subtract(cols, 1, out=pts[:, 1], casting="unsafe")
        # The padded flat raster serves the weights in one gather (the
        # same magnitude values the (y, x) fancy index would fetch).
        weights = magnitude_flat[flat]
        # Inlined np.average (same multiply/sum/divide sequence, minus its
        # dispatch overhead); the weight total is reused by the covariance
        # normalization and the strength sum below.
        total_weight = weights.sum()
        centroid = np.multiply(pts, weights[:, None]).sum(axis=0) / total_weight
        centered = pts - centroid
        cov = (centered * weights[:, None]).T @ centered / total_weight
        eigvals, eigvecs = np.linalg.eigh(cov)
        principal = eigvecs[:, int(np.argmax(eigvals))]  # (dy, dx)
        projections = centered @ principal
        t_min, t_max = float(projections.min()), float(projections.max())
        length = t_max - t_min
        if length < min_length:
            continue
        # Density of support pixels within the fitted rectangle.
        ortho = eigvecs[:, int(np.argmin(eigvals))]
        widths = centered @ ortho
        rect_width = max(1.0, float(widths.max() - widths.min()))
        density = len(region) / (length * rect_width)
        if density < min_density:
            continue
        p1 = centroid + t_min * principal
        p2 = centroid + t_max * principal
        segments.append(
            LineSegment2D(
                x1=float(p1[1]), y1=float(p1[0]),
                x2=float(p2[1]), y2=float(p2[0]),
                strength=float(total_weight),
            )
        )
        if len(segments) >= max_segments:
            break
    segments.sort(key=lambda s: -s.strength)
    return segments
