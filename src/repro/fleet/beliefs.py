"""Evidence fusion: grow-only stores, belief projection, divergence.

The fleet's merge semantics live here, split into two halves on purpose:

- :class:`EvidenceStore` — the *state* each node replicates: per-region
  grow-only sets of :class:`~repro.fleet.evidence.SessionEvidence`
  keyed by session id, with a per-region
  :class:`~repro.fleet.versions.VersionVector`. Merging is set union +
  pointwise-max, so it is commutative, associative and idempotent by
  construction — delivery order, duplication and re-delivery of gossip
  summaries cannot change the converged state.
- :func:`project` — a *pure function* from a store's contents to the
  fused :class:`FleetMap`. Confidence weighting happens here, once, at
  read time: agreement between overlapping sessions raises a cell's
  confidence, disagreement (sessions that plausibly observed the cell
  but never touched it) decays it. Because projection is deterministic
  and order-independent (records are iterated in sorted session order),
  two nodes whose stores converge project *bit-identical* maps — which
  is exactly the headline equivalence property: a single node holding
  the union of all sessions is just a fleet of size one.

Per cell, with ``s`` = sessions whose trajectory touched it and ``n`` =
sessions whose inflated bbox covers it (``n >= s``):

    agreement  = s / n              # disagreement decays this toward 0
    saturation = 1 - 0.5 ** s       # each agreeing witness halves doubt
    confidence = agreement * saturation

A cell is *occupied* when confidence reaches the configured threshold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.fleet.evidence import (
    EvidenceConfig,
    RegionKey,
    SessionEvidence,
    canonical_json,
)
from repro.fleet.versions import EMPTY_VERSION, VersionVector


class EvidenceStore:
    """One node's replicated fusion state: regions of evidence + vectors.

    All mutation goes through :meth:`add` (local ingest) and
    :meth:`merge_region` (gossip); both only ever grow the record sets,
    so any interleaving of the two converges to the same state.
    """

    def __init__(self, config: Optional[EvidenceConfig] = None):
        self.config = config or EvidenceConfig()
        self._regions: Dict[RegionKey, Dict[str, SessionEvidence]] = {}
        self._versions: Dict[RegionKey, VersionVector] = {}
        #: :meth:`digest` of the current state; None once a mutation
        #: changed a record set or a vector.
        self._digest: Optional[str] = None

    def add(self, evidence: SessionEvidence, origin: str) -> bool:
        """Ingest a locally observed record; True when it was new.

        ``origin`` is the ingesting node's id — its version-vector
        component is bumped only for genuinely new records, so duplicate
        uploads never manufacture causality.
        """
        region = evidence.region(self.config)
        records = self._regions.setdefault(region, {})
        if evidence.session_id in records:
            return False
        records[evidence.session_id] = evidence
        self._versions[region] = self.version(region).bump(origin)
        self._digest = None
        return True

    def merge_region(
        self,
        region: RegionKey,
        records: Iterable[SessionEvidence],
        version: VersionVector,
    ) -> int:
        """Union a full-region summary into the store; returns #new records.

        The version merge happens even when every record was already
        known — learning that another node's history is covered is what
        lets vector comparison prove staleness later.
        """
        if region not in self._regions:
            self._regions[region] = {}
            self._digest = None
        mine = self._regions[region]
        added = 0
        for record in records:
            if record.session_id not in mine:
                mine[record.session_id] = record
                added += 1
        current = self.version(region)
        merged = current.merge(version)
        if added or merged is not current:
            self._versions[region] = merged
            self._digest = None
        return added

    def version(self, region: RegionKey) -> VersionVector:
        """The region's current version vector (empty when untouched)."""
        return self._versions.get(region, EMPTY_VERSION)

    def regions(self) -> List[RegionKey]:
        """All known regions, sorted (deterministic iteration order)."""
        return sorted(self._regions)

    def records(self, region: RegionKey) -> List[SessionEvidence]:
        """The region's records in sorted session-id order."""
        return [
            self._regions[region][sid]
            for sid in sorted(self._regions.get(region, {}))
        ]

    def all_records(self) -> List[SessionEvidence]:
        """Every record in the store, sorted by session id."""
        merged: Dict[str, SessionEvidence] = {}
        for records in self._regions.values():
            merged.update(records)
        return [merged[sid] for sid in sorted(merged)]

    def n_records(self) -> int:
        """Total records held across all regions."""
        return sum(len(records) for records in self._regions.values())

    def digest(self) -> str:
        """Content hash of the full state (records + vectors), memoized."""
        if self._digest is not None:
            return self._digest
        payload = {
            "regions": {
                "/".join(map(str, region)): {
                    "sids": sorted(self._regions[region]),
                    "vv": self.version(region).to_payload(),
                }
                for region in self.regions()
            }
        }
        self._digest = hashlib.sha1(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        return self._digest


@dataclass(frozen=True)
class FloorBelief:
    """Fused occupancy belief for one (building, floor)."""

    building: str
    floor: int
    #: Absolute cell -> fused confidence, nonzero cells only.
    confidences: Dict[Tuple[int, int], float]
    #: Absolute cell -> number of sessions that touched it.
    support: Dict[Tuple[int, int], int]
    #: Cells whose confidence reached the occupancy threshold, sorted.
    occupied: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class RoomBelief:
    """Fused belief about one room, accumulated from SRS spins."""

    building: str
    floor: int
    name: Optional[str]
    center: Tuple[float, float]
    n_observations: int
    confidence: float


@dataclass(frozen=True)
class FleetMap:
    """The fused fleet floor plan: a pure projection of an evidence set."""

    floors: Dict[Tuple[str, int], FloorBelief]
    rooms: Dict[Tuple[str, int, str], RoomBelief]
    config: EvidenceConfig = field(default_factory=EvidenceConfig)

    def to_payload(self) -> Dict:
        """Canonical JSON-safe form (digest and report substrate)."""
        floors = {}
        for (building, floor), belief in sorted(self.floors.items()):
            floors[f"{building}/{floor}"] = {
                "occupied": [list(c) for c in belief.occupied],
                "confidence": [
                    [cx, cy, belief.confidences[(cx, cy)]]
                    for cx, cy in sorted(belief.confidences)
                ],
            }
        rooms = {}
        for key, room in sorted(self.rooms.items()):
            rooms["/".join(map(str, key))] = {
                "name": room.name,
                "center": list(room.center),
                "n": room.n_observations,
                "confidence": room.confidence,
            }
        return {"floors": floors, "rooms": rooms}

    def digest(self) -> str:
        """Content hash — two maps are bit-identical iff digests match."""
        return hashlib.sha1(
            canonical_json(self.to_payload()).encode("utf-8")
        ).hexdigest()


def project(store: EvidenceStore) -> FleetMap:
    """Project a store's evidence set into the fused :class:`FleetMap`.

    Pure and order-independent: records are grouped per (building,
    floor) and iterated in sorted session-id order, so any two stores
    with equal contents — however they got there — project identical
    maps.
    """
    config = store.config
    by_floor: Dict[Tuple[str, int], List[SessionEvidence]] = {}
    for record in store.all_records():
        by_floor.setdefault((record.building, record.floor), []).append(record)

    floors: Dict[Tuple[str, int], FloorBelief] = {}
    rooms: Dict[Tuple[str, int, str], RoomBelief] = {}
    margin = config.observer_margin
    for (building, floor), records in sorted(by_floor.items()):
        # Array extent: the hull of every record's inflated bbox.
        min_cx = min(r.bbox[0] for r in records) - margin
        min_cy = min(r.bbox[1] for r in records) - margin
        max_cx = max(r.bbox[2] for r in records) + margin
        max_cy = max(r.bbox[3] for r in records) + margin
        shape = (max_cy - min_cy + 1, max_cx - min_cx + 1)
        support = np.zeros(shape, dtype=np.int64)
        observers = np.zeros(shape, dtype=np.int64)
        for record in records:  # already session-sorted per floor
            for cx, cy in record.cells:
                support[cy - min_cy, cx - min_cx] += 1
            x0, y0, x1, y1 = record.bbox
            observers[
                y0 - margin - min_cy : y1 + margin - min_cy + 1,
                x0 - margin - min_cx : x1 + margin - min_cx + 1,
            ] += 1
        agreement = np.zeros(shape, dtype=np.float64)
        seen = observers > 0
        agreement[seen] = support[seen] / observers[seen]
        confidence = agreement * (1.0 - np.power(0.5, support))
        confidence = np.round(confidence, 6)

        confidences: Dict[Tuple[int, int], float] = {}
        supports: Dict[Tuple[int, int], int] = {}
        occupied: List[Tuple[int, int]] = []
        for row, col in zip(*np.nonzero(support)):
            cell = (int(col) + min_cx, int(row) + min_cy)
            confidences[cell] = float(confidence[row, col])
            supports[cell] = int(support[row, col])
            if confidence[row, col] >= config.occupancy_threshold:
                occupied.append(cell)
        floors[(building, floor)] = FloorBelief(
            building=building,
            floor=floor,
            confidences=confidences,
            support=supports,
            occupied=tuple(sorted(occupied)),
        )

        # Room beliefs from SRS spins, keyed by room name (or spin locus
        # when the device had no annotation).
        spins: Dict[str, List[SessionEvidence]] = {}
        for record in records:
            if record.task != "SRS" or record.room_center is None:
                continue
            if record.room_name is not None:
                key = record.room_name
            else:
                qx = int(np.floor(record.room_center[0] / 2.5))
                qy = int(np.floor(record.room_center[1] / 2.5))
                key = f"@{qx}:{qy}"
            spins.setdefault(key, []).append(record)
        for key, group in sorted(spins.items()):
            centers = np.array([g.room_center for g in group])
            center = centers.mean(axis=0)
            names = [g.room_name for g in group if g.room_name is not None]
            rooms[(building, floor, key)] = RoomBelief(
                building=building,
                floor=floor,
                name=names[0] if names else None,
                center=(round(float(center[0]), 4), round(float(center[1]), 4)),
                n_observations=len(group),
                confidence=round(1.0 - 0.5 ** len(group), 6),
            )
    return FleetMap(floors=floors, rooms=rooms, config=config)


def divergence(a: FleetMap, b: FleetMap) -> Dict[str, float]:
    """How far apart two fused maps are, averaged over their floors.

    - ``occupied_jaccard_distance``: 1 − |A∩B| / |A∪B| over occupied
      cells (0 = identical footprints);
    - ``confidence_mae``: mean |Δconfidence| over the union of nonzero
      cells.

    Both are 0.0 exactly when the maps agree, which makes the per-node
    divergence curve of a fleet run hit a clean floor at convergence.
    """
    keys = sorted(set(a.floors) | set(b.floors))
    if not keys:
        return {"occupied_jaccard_distance": 0.0, "confidence_mae": 0.0}
    jaccard_total = 0.0
    mae_total = 0.0
    for key in keys:
        belief_a = a.floors.get(key)
        belief_b = b.floors.get(key)
        occ_a = set(belief_a.occupied) if belief_a else set()
        occ_b = set(belief_b.occupied) if belief_b else set()
        union = occ_a | occ_b
        if union:
            jaccard_total += 1.0 - len(occ_a & occ_b) / len(union)
        conf_a = belief_a.confidences if belief_a else {}
        conf_b = belief_b.confidences if belief_b else {}
        cells = set(conf_a) | set(conf_b)
        if cells:
            mae_total += sum(
                abs(conf_a.get(c, 0.0) - conf_b.get(c, 0.0)) for c in cells
            ) / len(cells)
    return {
        "occupied_jaccard_distance": round(jaccard_total / len(keys), 6),
        "confidence_mae": round(mae_total / len(keys), 6),
    }
