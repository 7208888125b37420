"""Pipeline configuration: every threshold the paper names, in one place.

The paper parameterizes its stages with named thresholds (``h_g``, ``h_s``,
``h_d``, ``h_f``, ``h_l``, ``epsilon``, ``delta``, ``h_alpha``). Defaults
below are calibrated for the synthetic substrate; each field documents
which paper stage it controls so ablations can sweep them meaningfully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

#: ``keyframe_prescreen_threshold`` of the aggressive profile. Calibrated
#: on the bench substrate, where adjacent-frame energies have median
#: ~0.075: together with the heading guard, 0.11 thins ~69% of frames
#: while the full gated accuracy grid stays inside its tolerance bands
#: (0.12 drops Lab2's hallway F below its band — walk thinning starves
#: the LCSS anchor matches).
AGGRESSIVE_PRESCREEN_THRESHOLD = 0.11


@dataclass(frozen=True)
class CrowdMapConfig:
    """All tunables of the CrowdMap reconstruction pipeline."""

    # ---- key-frame selection (Section III.B.I) -----------------------
    #: ``h_g``: a frame becomes a key-frame when its HOG cross-correlation
    #: with the previous key-frame drops below this (noticeable motion).
    keyframe_ncc_threshold: float = 0.63
    #: HOG cell size used for the selection descriptor.
    hog_cell_size: int = 16
    #: Gaussian blur applied before the selection HOG, suppressing sensor
    #: noise so Scc reflects camera motion rather than shot noise.
    hog_blur_sigma: float = 2.0
    #: Key-frame pre-screen: frames whose strided temporal gradient
    #: energy against the last surviving frame stays below this are
    #: dropped *before* the gray→blur→HOG chain runs on them. 0 disables
    #: it (the bit-reproducible default profile processes every frame);
    #: the aggressive profile uses 0.11
    #: (:data:`AGGRESSIVE_PRESCREEN_THRESHOLD`), calibrated against the
    #: accuracy grid's tolerance bands.
    keyframe_prescreen_threshold: float = 0.0
    #: Pre-screen coverage guard: a frame whose device heading moved at
    #: least this far (radians) since the last surviving frame always
    #: survives, whatever its pixel energy says. Spins rotate through
    #: the full circle, so this bounds the angular gap the pre-screen
    #: can open in a panorama sequence far below the stitching overlap
    #: requirement; walks hold their heading and are thinned by pixel
    #: energy alone. Read only while the pre-screen is enabled.
    keyframe_prescreen_heading: float = 0.15

    # ---- hierarchical key-frame comparison ---------------------------
    #: Weights of the cheap S1 combination: (color, shape, wavelet).
    s1_weights: Tuple[float, float, float] = (0.4, 0.3, 0.3)
    #: ``h_s``: S1 below this rejects the pair before SURF runs.
    s1_threshold: float = 0.5
    #: ``h_d``: maximum descriptor distance for a good SURF match.
    surf_distance_threshold: float = 0.25
    #: ``h_f``: S2 (Eq. 1) above this declares the key-frames identical.
    s2_threshold: float = 0.13
    #: Maximum device-heading difference for two key-frames to be
    #: comparable at all (the inertial gate; radians).
    max_heading_difference: float = math.radians(35.0)
    #: SURF detector threshold and feature cap.
    surf_response_threshold: float = 0.0001
    surf_max_features: int = 200

    # ---- sequence-based aggregation (LCSS) ---------------------------
    #: ``epsilon``: point distance threshold inside the LCSS recursion, m.
    lcss_epsilon: float = 1.5
    #: ``delta``: maximum index offset |i - j| inside the LCSS recursion.
    lcss_delta: int = 12
    #: ``h_l``: S3 (Eq. 2) above this lets two trajectories merge.
    s3_threshold: float = 0.45
    #: Trajectories are resampled to this period before LCSS, seconds.
    resample_interval: float = 1.0
    #: Number of anchor-proposed transforms to try per trajectory pair.
    max_anchor_proposals: int = 6
    #: Minimum sequence-consistent anchor matches for a pair to be
    #: considered at all (the "multiple key-frames" requirement).
    min_anchor_matches: int = 2
    #: Anchor-based drift calibration iterations applied to the merged
    #: trajectories (0 disables; see calibrate_drift).
    drift_calibration_iterations: int = 2
    #: Geo-prior gate: a merge transform that would displace the other
    #: trajectory's geo-referenced origin by more than this many metres is
    #: implausible (Task-1 gives every session a coarse absolute anchor)
    #: and is rejected. Guards against the parallel-corridor ambiguity.
    max_geo_displacement: float = 4.0

    # ---- floor path skeleton (Section III.B.II) -----------------------
    #: Occupancy-grid cell size, metres.
    grid_cell_size: float = 0.5
    #: ``h_alpha``: alpha parameter of the boundary alpha shape (1/m).
    alpha: float = 0.8
    #: Radius (in cells) of the closing operation that repairs
    #: unconnected paths during boundary normalization.
    repair_radius: int = 1
    #: Half-width (m) of the occupancy splat around each trajectory point,
    #: approximating the walker's body/corridor occupancy.
    trajectory_splat_radius: float = 1.0
    #: Binarization guardrails: the Otsu threshold is capped at this
    #: quantile of the occupied-cell distribution (so a degenerate split
    #: cannot discard the corridor mass) and floored at ``min_visits``
    #: trajectory passes (so lone drift tails are always dropped).
    binarize_cap_quantile: float = 0.25
    min_visits: int = 2

    # ---- room layout (Section III.C) ----------------------------------
    #: Panorama canvas width in columns (maps to 360 degrees).
    panorama_width: int = 720
    #: Candidate room models sampled per panorama (paper uses 20,000).
    layout_samples: int = 2000
    #: Camera height used to convert boundary elevation to distance, m.
    camera_height: float = 1.5
    #: Minimum angular overlap between adjacent panorama key-frames,
    #: as a fraction of the FOV (paper Fig. 4's Overlap criterion).
    panorama_min_overlap: float = 0.1
    #: Maximum tolerated gap fraction of panorama columns.
    panorama_max_gap: float = 0.08

    # ---- floor plan assembly (Section III.D) ---------------------------
    #: Spring constant pulling each room toward its anchored position.
    force_attract: float = 0.35
    #: Repulsion constant pushing overlapping rooms apart.
    force_repulse: float = 2.5
    #: Iterations of the force-directed relaxation.
    force_iterations: int = 120
    #: Convergence threshold on the maximum room displacement per step, m.
    force_tolerance: float = 1e-3

    # ---- fault tolerance ----------------------------------------------
    #: What the pipeline does when one session or panorama group fails:
    #: "quarantine" records a StageFailure and keeps reconstructing from
    #: the healthy remainder (crowdsourced inputs are unreliable by
    #: nature); "raise" restores strict fail-fast behaviour for debugging.
    pipeline_on_error: str = "quarantine"

    # ---- misc ----------------------------------------------------------
    #: Workers for parallel stages (Spark stand-in).
    n_workers: int = 4
    #: Execution backend for the parallel map stages: "serial" (plain
    #: loop — fastest for the vectorized, memory-bound kernels at small
    #: fan-out), "thread" or "process" (chunked ProcessPoolExecutor; the
    #: only option that sidesteps the GIL for Python-heavy stages).
    worker_backend: str = "serial"
    #: Transport for the process backend: "shm" ships frame arrays as
    #: shared-memory handles (zero-copy), "pickle" serializes them, and
    #: "auto" (default) uses shared memory whenever the platform supports
    #: it. Ignored by the serial and thread backends.
    worker_transport: str = "auto"
    #: Frames per batch for the batched vision kernels (key-frame HOG
    #: misses, SURF prefetch). Batches amortize numpy dispatch overhead;
    #: the cap keeps a stacked batch's working set cache-resident.
    kernel_batch_size: int = 16
    #: Compute SURF features for key-frames in shape-grouped batches as
    #: soon as each session's key-frames are selected (stage-level
    #: pipelining), instead of one frame at a time on first comparison.
    surf_prefetch: bool = True
    #: RNG seed for the stochastic stages (layout sampling).
    seed: int = 0

    def with_overrides(self, **kwargs) -> "CrowdMapConfig":
        """A copy of this config with selected fields replaced."""
        return replace(self, **kwargs)
