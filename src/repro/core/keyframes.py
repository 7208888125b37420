"""Video key-frame selection (paper Section III.B.I).

Processing every frame with SURF was the paper's bottleneck, so frames are
first thinned: a HOG descriptor summarizes each frame's gradient structure,
consecutive frames are compared with a normalized cross-correlation score
``Scc``, and frames too similar to the last kept key-frame are dropped —
keeping only "frames with noticeable camera motion". With a positive
``keyframe_prescreen_threshold`` (the aggressive profile), a cheap
pixel-energy pre-screen first drops near-duplicate frames before the
HOG chain runs on them.

A :class:`KeyFrame` caches every signature the later comparison stages
need (color histogram, shape signature, wavelet signature, SURF features),
so each is computed exactly once per key-frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

import math

from repro.backend.batching import plan_batches
from repro.backend.cache import config_fingerprint, frame_digest, get_cache
from repro.core.config import CrowdMapConfig
from repro.geometry.primitives import angle_difference
from repro.vision.color_histogram import chromaticity_histogram
from repro.vision.filters import gaussian_blur_stack
from repro.vision.framestack import adopt_gray_stack, frame_stack
from repro.vision.hog import (
    hog_descriptor,
    hog_descriptor_stack,
    hog_similarity,
)
from repro.vision.image import to_grayscale_stack
from repro.vision.image import Frame
from repro.vision.shape_matching import shape_signature
from repro.vision.surf import SurfFeature, detect_and_describe, surf_detect_batch
from repro.vision.wavelet import WaveletSignature, wavelet_signature


class KeyframeSelectionError(ValueError):
    """A session's frames cannot yield key-frames (corrupt or empty pixels).

    Crowdsourced uploads arrive damaged — dropped chunks, codec bit-rot —
    and NaN pixels would otherwise flow silently into every downstream
    signature. Raising here gives the pipeline a clean per-session
    quarantine point instead of a poisoned reconstruction.
    """

    def __init__(self, message: str, session_id: str = "",
                 frame_index: Optional[int] = None):
        super().__init__(message)
        self.session_id = session_id
        self.frame_index = frame_index


@dataclass
class KeyFrame:
    """A selected key-frame with its cached comparison signatures."""

    frame: Frame
    keyframe_id: str
    hog: np.ndarray
    color: Optional[np.ndarray] = None
    shape: Optional[np.ndarray] = None
    wavelet: Optional[WaveletSignature] = None
    surf: Optional[List[SurfFeature]] = None
    _config: CrowdMapConfig = field(default_factory=CrowdMapConfig, repr=False)
    _surf_matrix: Optional[tuple] = field(default=None, repr=False)

    @property
    def timestamp(self) -> float:
        return self.frame.timestamp

    @property
    def heading(self) -> float:
        return self.frame.heading

    def ensure_signatures(self) -> None:
        """Compute the cheap S1 signatures if not already cached.

        Signatures are memoized per key-frame instance *and* in the
        content-addressed cache, so a frame whose pixels were already
        signed earlier in the process pays only a digest.
        """
        if self.color is None or self.shape is None or self.wavelet is None:
            pixels = self.frame.pixels
            stack = frame_stack(self.frame)
            self.color, self.shape, self.wavelet = get_cache().get_or_compute(
                "s1_signatures",
                frame_digest(self.frame),
                lambda: (
                    # Illumination-invariant variant: uploads span day and
                    # night lighting, so the S1 color rung must not key on
                    # exposure.
                    chromaticity_histogram(pixels),
                    # Shape and wavelet read the frame stack's shared
                    # grayscale plane instead of reconverting.
                    shape_signature(pixels, gray=stack.gray),
                    wavelet_signature(pixels, gray=stack.gray),
                ),
            )

    def ensure_surf(self) -> List[SurfFeature]:
        """Compute (and cache) the frame's SURF features."""
        if self.surf is None:
            key = frame_digest(self.frame) + config_fingerprint(
                self._config,
                ("surf_response_threshold", "surf_max_features"),
            )
            self.surf = get_cache().get_or_compute(
                "surf",
                key,
                lambda: detect_and_describe(
                    self.frame.pixels,
                    threshold=self._config.surf_response_threshold,
                    max_features=self._config.surf_max_features,
                    stack=frame_stack(self.frame),
                ),
            )
        return self.surf

    def surf_matching_arrays(self) -> tuple:
        """``(descriptor_matrix, squared row norms)`` of the SURF features.

        A key-frame is matched against many partners; both halves of the
        pairwise-distance expansion that depend on only one side are
        memoized here per instance (computed by the exact expressions the
        matcher would use, so reuse is bit-invisible).
        """
        if self._surf_matrix is None:
            from repro.vision.matching import descriptor_norms
            from repro.vision.surf import descriptor_matrix
            matrix = descriptor_matrix(self.ensure_surf())
            self._surf_matrix = (matrix, descriptor_norms(matrix))
        return self._surf_matrix


def _prescreen_energy(frame: Frame) -> np.ndarray:
    """4x-strided single-channel plane used by the key-frame pre-screen.

    Cheap by construction: a strided view (green channel for RGB — the
    luma-dominant one), no conversion, no copy until the subtraction.
    """
    pixels = frame.pixels
    if pixels.ndim == 3:
        return pixels[::4, ::4, 1]
    return pixels[::4, ::4]


def prescreen_survivors(
    frames: Sequence[Frame], config: CrowdMapConfig
) -> List[Frame]:
    """Thin near-duplicate frames before the HOG chain.

    Sequential scan mirroring the selection loop's shape: a frame
    survives when the mean absolute temporal gradient of its strided
    plane against the *last survivor* reaches
    ``config.keyframe_prescreen_threshold`` — i.e. the camera moved
    enough that the frame could plausibly become a key-frame — or when
    its device heading drifted ``config.keyframe_prescreen_heading``
    radians from the last survivor's (the coverage guard: spin
    sequences sweep the full circle, and panorama stitching needs the
    angular gaps between surviving frames bounded well below the FOV
    overlap requirement, whatever the pixel energy says). The first
    and last frames always survive (selection keeps its endpoints).

    This is the aggressive profile's approximation: a rejected frame
    skips the full gray→blur→HOG chain entirely, so selection sees a
    thinner sequence and its Scc decisions may differ from the default
    profile's. Accuracy is gated by the scorecard tolerance bands, not
    bit-identity. A non-positive threshold (the default profile) returns
    every frame.
    """
    threshold = config.keyframe_prescreen_threshold
    if threshold <= 0.0 or len(frames) <= 2:
        return list(frames)
    heading_cap = config.keyframe_prescreen_heading
    survivors = [frames[0]]
    last_plane = _prescreen_energy(frames[0])
    for frame in frames[1:-1]:
        plane = _prescreen_energy(frame)
        turned = heading_cap > 0.0 and abs(
            angle_difference(frame.heading, survivors[-1].heading)
        ) >= heading_cap
        if turned or plane.shape != last_plane.shape or (
            float(np.abs(plane - last_plane).mean()) >= threshold
        ):
            survivors.append(frame)
            last_plane = plane
    survivors.append(frames[-1])
    return survivors


def _frame_hog(frame: Frame, config: CrowdMapConfig) -> np.ndarray:
    """Blur + HOG for one frame, memoized by pixel content and HOG knobs.

    This runs for *every* frame of every session (it is what key-frame
    selection thins with), so on incremental re-runs the cache turns the
    dominant per-frame cost into a digest lookup.
    """
    key = frame_digest(frame) + config_fingerprint(
        config, ("hog_blur_sigma", "hog_cell_size")
    )

    def compute() -> np.ndarray:
        smoothed = frame_stack(frame).blurred(config.hog_blur_sigma)
        return hog_descriptor(smoothed, cell_size=config.hog_cell_size)

    return get_cache().get_or_compute("hog", key, compute)


def _frame_hogs(
    frames: Sequence[Frame], config: CrowdMapConfig
) -> List[np.ndarray]:
    """Blur + HOG for a whole frame sequence, cache-aware and batched.

    The config fingerprint is computed once for the sequence, every
    frame's digest is looked up individually (so cache hits, telemetry
    counts and stored values are exactly those of :func:`_frame_hog`),
    and only the *misses* are computed — in same-shape batches of
    ``config.kernel_batch_size`` frames through the stacked
    grayscale/blur/HOG kernels. The batch amortizes the blur's FFT-free
    separable convolution setup across frames while the size cap keeps
    the stacked working set cache-resident; each lane of the stacked
    chain is bit-identical to the per-frame chain, so cached values are
    indistinguishable from per-frame ones.
    """
    cache = get_cache()
    fingerprint = config_fingerprint(
        config, ("hog_blur_sigma", "hog_cell_size")
    )
    keys = [frame_digest(frame) + fingerprint for frame in frames]
    hogs: List[Optional[np.ndarray]] = [None] * len(frames)
    misses: List[int] = []
    for i in range(len(frames)):
        hit, value = cache.lookup("hog", keys[i])
        if hit:
            hogs[i] = value
        else:
            misses.append(i)
    if not misses:
        return hogs
    batches = plan_batches(
        [frames[i].pixels.shape for i in misses],
        batch_size=config.kernel_batch_size,
    )
    for batch in batches:
        frame_indices = [misses[j] for j in batch.indices]
        stack = np.stack([frames[i].pixels for i in frame_indices])
        gray_stack = to_grayscale_stack(stack)
        # Seed each frame's grayscale cache from the batched conversion
        # (per-lane bit-identical to converting alone) so later stages —
        # S1 signatures, SURF, LSD — never reconvert the same pixels.
        adopt_gray_stack([frames[i] for i in frame_indices], gray_stack)
        smoothed = gaussian_blur_stack(gray_stack, config.hog_blur_sigma)
        descriptors = hog_descriptor_stack(
            smoothed, cell_size=config.hog_cell_size
        )
        for lane, i in enumerate(frame_indices):
            hog = np.ascontiguousarray(descriptors[lane])
            hogs[i] = hog
            cache.store("hog", keys[i], hog)
    return hogs


def select_keyframes(
    frames: Sequence[Frame],
    config: Optional[CrowdMapConfig] = None,
    session_id: str = "",
) -> List[KeyFrame]:
    """Thin a frame sequence into key-frames by HOG cross-correlation.

    The first frame is always kept; each subsequent frame is kept when its
    HOG similarity ``Scc`` to the *last kept* key-frame falls below the
    ``keyframe_ncc_threshold`` (``h_g``) — i.e. the camera has moved
    noticeably since the last key-frame. The last frame is also kept so
    sequences never lose their endpoint.

    Raises :class:`KeyframeSelectionError` when a frame carries corrupt
    pixel data (empty or non-finite) — NaNs would silently zero every
    downstream similarity, so corrupt sessions must fail loudly enough
    for the pipeline to quarantine them.
    """
    config = config or CrowdMapConfig()
    if not frames:
        return []
    for frame in frames:
        pixels = frame.pixels
        if pixels is None or pixels.size == 0:
            raise KeyframeSelectionError(
                f"session {session_id or '<unknown>'}: frame "
                f"{frame.frame_index} has no pixel data",
                session_id=session_id, frame_index=frame.frame_index,
            )
        # min/max propagate NaN and +/-inf, so two scalar reductions
        # detect non-finite pixels without materializing the bool mask
        # np.isfinite(pixels) would allocate for every frame.
        if not (math.isfinite(float(pixels.min()))
                and math.isfinite(float(pixels.max()))):
            raise KeyframeSelectionError(
                f"session {session_id or '<unknown>'}: frame "
                f"{frame.frame_index} has non-finite pixels (corrupt upload)",
                session_id=session_id, frame_index=frame.frame_index,
            )
    # The aggressive profile thins near-duplicate frames before any
    # kernel runs on them. The default profile (threshold 0) processes
    # every frame.
    if config.keyframe_prescreen_threshold > 0.0:
        frames = prescreen_survivors(frames, config)
    # Every frame's HOG is needed (selection compares each against the
    # last kept key-frame), so compute the whole sequence in one batch.
    hogs = _frame_hogs(frames, config)
    keyframes: List[KeyFrame] = []
    last_hog: Optional[np.ndarray] = None
    for i, frame in enumerate(frames):
        hog = hogs[i]
        is_last = i == len(frames) - 1
        if last_hog is None:
            keep = True
        else:
            scc = hog_similarity(hog, last_hog)
            keep = scc < config.keyframe_ncc_threshold
        if keep or (is_last and len(keyframes) < 2):
            keyframes.append(
                KeyFrame(
                    frame=frame,
                    keyframe_id=f"{session_id}#{frame.frame_index}",
                    hog=hog,
                    _config=config,
                )
            )
            last_hog = hog
    return keyframes


def prefetch_surf(
    keyframes: Sequence[KeyFrame],
    config: Optional[CrowdMapConfig] = None,
) -> None:
    """Batch-compute SURF features for key-frames that lack them.

    :meth:`KeyFrame.ensure_surf` computes features one frame at a time on
    first comparison; this helper fills the same per-frame cache slots
    (identical keys, identical values — ``surf_detect_batch`` is
    bit-identical to ``detect_and_describe`` per frame) ahead of time, in
    same-shape batches that amortize detector dispatch overhead. Frames
    whose features are already memoized — on the instance or in the
    content-addressed cache — are skipped, so hit accounting matches the
    lazy path.
    """
    config = config or CrowdMapConfig()
    cache = get_cache()
    fingerprint = config_fingerprint(
        config, ("surf_response_threshold", "surf_max_features")
    )
    pending: List[KeyFrame] = []
    pending_keys: List[str] = []
    for kf in keyframes:
        if kf.surf is not None:
            continue
        key = frame_digest(kf.frame) + fingerprint
        hit, value = cache.lookup("surf", key)
        if hit:
            kf.surf = value
            continue
        pending.append(kf)
        pending_keys.append(key)
    if not pending:
        return
    batches = plan_batches(
        [kf.frame.pixels.shape for kf in pending],
        batch_size=config.kernel_batch_size,
    )
    for batch in batches:
        features = surf_detect_batch(
            [pending[j].frame.pixels for j in batch.indices],
            threshold=config.surf_response_threshold,
            max_features=config.surf_max_features,
            stacks=[frame_stack(pending[j].frame) for j in batch.indices],
        )
        for lane, j in enumerate(batch.indices):
            pending[j].surf = features[lane]
            cache.store("surf", pending_keys[j], features[lane])


def keyframe_reduction_ratio(
    n_frames: int, n_keyframes: int
) -> float:
    """Fraction of frames removed by selection (0 = kept all)."""
    if n_frames == 0:
        return 0.0
    return 1.0 - n_keyframes / n_frames
