"""Compact per-session evidence records — the unit of fleet gossip.

A fleet node cannot ship raw sensor-rich videos to its peers: the paper's
301-session campaign is ~60k frames, and a city-scale crowd is orders of
magnitude more. What a peer actually needs from a session is tiny: which
grid cells the walker's dead-reckoned trajectory touched, and (for SRS
spins) which room the user stood in. :func:`extract_evidence` distils a
:class:`~repro.world.walker.CaptureSession` into exactly that — a frozen
:class:`SessionEvidence` record of a few hundred bytes.

Two properties make these records fusable across nodes:

- **Absolute cells.** Cells are integer world coordinates
  ``(floor(x / cell_size), floor(y / cell_size))`` — no node-local grid
  bounds — so the same session produces the same record no matter which
  node (or which subset of the crowd) observed it.
- **Content determinism.** Extraction mirrors
  :meth:`repro.core.skeleton.OccupancyGrid.add_trajectory` (half-cell
  polyline sampling, disc splat) and rounds floats canonically, so the
  record is a pure function of the session.

Records are keyed by ``session_id``; the fusion layer
(:mod:`repro.fleet.beliefs`) treats them as elements of a grow-only set,
which is what buys commutative/associative/idempotent merges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: Session task kinds that produce evidence worth gossiping.
EVIDENCE_TASKS = ("SWS", "SRS")


@dataclass(frozen=True)
class EvidenceConfig:
    """Geometry knobs shared by extraction, fusion and projection.

    Every node in a fleet must run the same config — the region keys and
    cell coordinates it derives are part of the wire format.
    """

    #: Occupancy cell edge, metres (matches ``CrowdMapConfig.grid_cell_size``).
    cell_size: float = 0.5
    #: Disc radius splatted around each trajectory sample, metres (matches
    #: ``CrowdMapConfig.trajectory_splat_radius``).
    splat_radius: float = 1.0
    #: Region tile edge in *cells*: version vectors are kept per
    #: ``region = (building, floor, cx >> shift, cy >> shift)`` so
    #: anti-entropy exchanges whole neighbourhoods, not single cells.
    region_tile: int = 16
    #: Cells whose fused confidence reaches this are projected as occupied.
    occupancy_threshold: float = 0.3
    #: Margin (cells) added around a session's bbox when counting it as an
    #: *observer* of a cell — disagreement only decays confidence where a
    #: session plausibly looked.
    observer_margin: int = 2

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.region_tile < 1:
            raise ValueError("region_tile must be >= 1")
        if not 0.0 < self.occupancy_threshold < 1.0:
            raise ValueError("occupancy_threshold must be in (0, 1)")
        if self.observer_margin < 0:
            raise ValueError("observer_margin must be >= 0")


#: A region key: (building, floor, tile_x, tile_y).
RegionKey = Tuple[str, int, int, int]


@dataclass(frozen=True)
class SessionEvidence:
    """Everything the fleet keeps from one uploaded session.

    ``cells`` are absolute integer occupancy cells touched by the
    dead-reckoned trajectory; ``bbox`` is their hull
    ``(min_cx, min_cy, max_cx, max_cy)``. SRS sessions additionally carry
    the room hint (``room_name`` may be None when the device had no
    annotation) and the spin centre in world metres.
    """

    session_id: str
    user_id: str
    building: str
    floor: int
    task: str
    cells: Tuple[Tuple[int, int], ...]
    bbox: Tuple[int, int, int, int]
    room_name: Optional[str] = None
    room_center: Optional[Tuple[float, float]] = None
    #: Canonical-JSON size of ``to_payload()``, fixed at construction.
    _payload_bytes: int = field(init=False, repr=False, compare=False)

    def region(self, config: EvidenceConfig) -> RegionKey:
        """The single region this record files under (its bbox centre tile)."""
        cx = (self.bbox[0] + self.bbox[2]) // 2
        cy = (self.bbox[1] + self.bbox[3]) // 2
        return (
            self.building,
            self.floor,
            cx // config.region_tile,
            cy // config.region_tile,
        )

    def to_payload(self) -> Dict:
        """Wire form: a plain JSON-safe dict with canonical field order."""
        payload: Dict = {
            "sid": self.session_id,
            "uid": self.user_id,
            "b": self.building,
            "f": self.floor,
            "task": self.task,
            "cells": [list(c) for c in self.cells],
            "bbox": list(self.bbox),
        }
        if self.room_center is not None:
            payload["room"] = {
                "name": self.room_name,
                "x": self.room_center[0],
                "y": self.room_center[1],
            }
        return payload

    @staticmethod
    def from_payload(payload: Dict) -> "SessionEvidence":
        """Rebuild a record from its wire form (inverse of ``to_payload``)."""
        room = payload.get("room")
        return SessionEvidence(
            session_id=payload["sid"],
            user_id=payload["uid"],
            building=payload["b"],
            floor=int(payload["f"]),
            task=payload["task"],
            cells=tuple((int(c[0]), int(c[1])) for c in payload["cells"]),
            bbox=tuple(int(v) for v in payload["bbox"]),
            room_name=None if room is None else room["name"],
            room_center=(
                None if room is None else (float(room["x"]), float(room["y"]))
            ),
        )

    def __post_init__(self) -> None:
        # The record is immutable, so its wire size is fixed: encode once
        # here and let every summary carrying it add an int.
        object.__setattr__(
            self,
            "_payload_bytes",
            len(canonical_json(self.to_payload()).encode("utf-8")),
        )

    def payload_bytes(self) -> int:
        """Serialized size, the unit the gossip byte counters account in."""
        return self._payload_bytes


def canonical_json(obj) -> str:
    """The one JSON encoding fleet components agree on (sorted, compact)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _trajectory_cells(
    points: np.ndarray, config: EvidenceConfig
) -> np.ndarray:
    """Absolute cells a trajectory polyline touches, splat disc included.

    Mirrors ``OccupancyGrid.add_trajectory`` — half-cell sampling along
    each leg, disc of ``splat_radius`` around each sample — but in
    unbounded integer world cells instead of a node-local array. Returns
    an ``(n, 2)`` int64 array of ``(cx, cy)`` rows, sorted, each once.

    Each leg of ``n`` steps is sampled at the points
    ``np.linspace(0, 1, n + 1)[1:]`` gives (``i * (1 / n)``, the last
    exactly 1), all legs in one array. Working memory grows with the
    number of samples, never with the trajectory's bounding box.
    """
    if len(points) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    step = config.cell_size / 2.0
    legs = points[1:] - points[:-1]
    dist = np.hypot(legs[:, 0], legs[:, 1])
    n_steps = np.maximum(1, (dist / step).astype(np.int64))
    leg = np.repeat(np.arange(len(legs)), n_steps)
    ends = np.cumsum(n_steps)
    index = np.arange(1, len(leg) + 1, dtype=np.float64)
    index -= np.repeat(ends - n_steps, n_steps)
    t = index * (1.0 / n_steps[leg])
    t[ends - 1] = 1.0
    samples = np.concatenate(
        [points[:1], points[leg] + t[:, None] * legs[leg]]
    )

    radius = int(np.ceil(config.splat_radius / config.cell_size))
    base = np.floor(samples / config.cell_size).astype(np.int64)
    # Row-major keys over the hull of the splatted samples: a disc offset
    # is one key offset, and key order is (cx, cy) order.
    lo = base.min(axis=0) - radius
    height = int(base[:, 1].max() - lo[1]) + radius + 1
    disc = np.array([
        dc * height + dr
        for dr in range(-radius, radius + 1)
        for dc in range(-radius, radius + 1)
        if dr * dr + dc * dc <= radius * radius
    ])
    keys = (base[:, 0] - lo[0]) * height + (base[:, 1] - lo[1])
    # A Python set and sort of the few thousand keys cost about as much
    # as numpy's, whose int64 sort would map ~0.3 MB of SIMD code into
    # every process that extracts evidence.
    keys = np.array(sorted(set((keys[:, None] + disc).ravel().tolist())))
    return np.stack([keys // height + lo[0], keys % height + lo[1]], axis=1)


def extract_evidence(
    session, config: Optional[EvidenceConfig] = None
) -> Optional[SessionEvidence]:
    """Distil one capture session into its gossipable evidence record.

    Returns None for tasks the fusion layer has no use for (e.g. STAIRS)
    and for sessions with an empty trajectory. Pure: the same session and
    config always produce an identical record.
    """
    config = config or EvidenceConfig()
    if session.task not in EVIDENCE_TASKS:
        return None
    points = session.device_trajectory.as_array()
    if not np.isfinite(points).all():
        raise ValueError(
            f"session {session.session_id!r}: trajectory has a non-finite point"
        )
    cells = _trajectory_cells(points, config)
    if len(cells) == 0:
        return None
    room_name = None
    room_center = None
    if session.task == "SRS":
        room_name = session.room_name
        center = points.mean(axis=0)
        room_center = (round(float(center[0]), 4), round(float(center[1]), 4))
    return SessionEvidence(
        session_id=session.session_id,
        user_id=session.user_id,
        building=session.building,
        floor=int(session.floor),
        task=session.task,
        cells=tuple(zip(cells[:, 0].tolist(), cells[:, 1].tolist())),
        bbox=(*cells.min(axis=0).tolist(), *cells.max(axis=0).tolist()),
        room_name=room_name,
        room_center=room_center,
    )
