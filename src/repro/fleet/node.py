"""A simulated fleet ingest node: local maps, evidence store, summaries.

Each :class:`FleetNode` stands in for one regional ingest deployment. It
sees only its slice of the crowd, and runs two parallel map products:

- the **fusion state** (:class:`~repro.fleet.beliefs.EvidenceStore`)
  that gossip replicates fleet-wide — compact per-session evidence plus
  per-region version vectors;
- optionally, the node's own **serving stack** — a private
  :class:`~repro.serving.shards.ShardManager` (hence its own shards,
  built through the batch planner, and versioned snapshot stores) fed
  the same sessions, exactly as a standalone deployment would publish
  its partial regional map.

Every node gets its *own* :class:`~repro.backend.telemetry.TelemetryRegistry`
by default, so N nodes in one process never cross-count — the property
the multi-instance regression tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.backend.telemetry import TelemetryRegistry
from repro.fleet.beliefs import EvidenceStore, FleetMap, project
from repro.fleet.evidence import (
    EvidenceConfig,
    RegionKey,
    SessionEvidence,
    canonical_json,
    extract_evidence,
)
from repro.fleet.versions import EMPTY_VERSION, VersionVector
from repro.serving.shards import ShardManager


@dataclass(frozen=True)
class FleetSummary:
    """One gossip message: full state of the sender's chosen regions.

    Anti-entropy ships *whole regions* (records + version vector) —
    never deltas — which is what keeps the version-vector dominance
    check sound (see :mod:`repro.fleet.versions`). The one exception is
    an **ack region**: an empty record tuple, meaning "my vector for
    this region, content elided because you provably have it". Receivers
    never merge ack vectors into their own store — they only update what
    they believe the sender knows, which is what quiesces traffic.

    ``kind`` is ``"push"`` for round-driven pushes and ``"response"``
    for the reconcile message a delivered push triggers; responses are
    never themselves responded to (no ack storms).
    """

    sender: str
    #: region -> (version vector, records sorted by session id).
    regions: Dict[
        RegionKey, Tuple[VersionVector, Tuple[SessionEvidence, ...]]
    ]
    kind: str = "push"

    def to_payload(self) -> Dict:
        """Wire form (canonical dict) — also the unit of byte accounting."""
        return {
            "sender": self.sender,
            "kind": self.kind,
            "regions": {
                _wire_key(region): {
                    "vv": vv.to_payload(),
                    "records": [r.to_payload() for r in records],
                }
                for region, (vv, records) in sorted(self.regions.items())
            },
        }

    def payload_bytes(self) -> int:
        """Serialized size in bytes, as counted by the gossip telemetry.

        Equals ``len(canonical_json(self.to_payload()).encode("utf-8"))``
        without encoding anything but short strings: records and vectors
        know their own sizes, and the rest is the fixed JSON framing.
        """
        total = _SUMMARY_FRAME + max(len(self.regions) - 1, 0)
        total += _json_bytes(self.sender) + _json_bytes(self.kind)
        for region, (version, records) in self.regions.items():
            total += _REGION_FRAME + _json_bytes(_wire_key(region))
            total += version.payload_bytes() + max(len(records) - 1, 0)
            total += sum(record.payload_bytes() for record in records)
        return total


def _wire_key(region: RegionKey) -> str:
    """A region's key in a summary's wire form."""
    return "/".join(map(str, region))


def _json_bytes(text: str) -> int:
    """Canonical-JSON size of one string (quotes and escapes included).

    ``canonical_json`` escapes every non-ASCII character, so the encoded
    length is the UTF-8 byte count.
    """
    return len(canonical_json(text))


def _frame_bytes(regions: Dict) -> int:
    """Canonical-JSON size of a summary with empty sender and kind."""
    return len(canonical_json(FleetSummary("", regions, "").to_payload()))


_NO_REGION: RegionKey = ("", 0, 0, 0)
#: Canonical-JSON bytes of a summary besides its two strings, its region
#: entries and the commas between them.
_SUMMARY_FRAME = _frame_bytes({}) - 2 * _json_bytes("")
#: Canonical-JSON bytes of one region entry besides its key, its vector,
#: its records and the commas between them.
_REGION_FRAME = (
    _frame_bytes({_NO_REGION: (EMPTY_VERSION, ())})
    - _frame_bytes({})
    - _json_bytes(_wire_key(_NO_REGION))
    - EMPTY_VERSION.payload_bytes()
)


class FleetNode:
    """One ingest node: slice-local ingest, summary exchange, projection."""

    def __init__(
        self,
        node_id: str,
        config: Optional[EvidenceConfig] = None,
        telemetry: Optional[TelemetryRegistry] = None,
        maintain_local_maps: bool = False,
        shard_manager: Optional[ShardManager] = None,
    ):
        self.node_id = node_id
        self.config = config or EvidenceConfig()
        #: Per-node registry by default: fleet nodes must never share the
        #: process-wide one, or N nodes' counters collapse into one.
        self.telemetry = telemetry or TelemetryRegistry()
        self.store = EvidenceStore(self.config)
        self.shards: Optional[ShardManager] = None
        if maintain_local_maps or shard_manager is not None:
            self.shards = shard_manager or ShardManager(
                telemetry=self.telemetry
            )
        #: What this node believes each peer knows, per region — learned
        #: *only* from summaries that actually arrived (a push is never
        #: assumed delivered, so lost messages are retried next round).
        self._peer_versions: Dict[str, Dict[RegionKey, VersionVector]] = {}
        self.sessions_ingested = 0

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def ingest_session(self, session) -> Optional[SessionEvidence]:
        """Feed one locally observed session into the node.

        Returns the extracted evidence record (None when the session
        carries none). Idempotent per session id — re-uploads neither
        grow the store nor bump version vectors.
        """
        evidence = extract_evidence(session, self.config)
        self.sessions_ingested += 1
        self.telemetry.counter(
            "fleet_sessions_ingested", "sessions observed by this node"
        ).inc()
        if evidence is None:
            return None
        if self.store.add(evidence, self.node_id):
            self.telemetry.counter(
                "fleet_evidence_records", "distinct evidence records stored"
            ).inc()
            if self.shards is not None:
                self.shards.ingest_session(session)
        return evidence

    # ------------------------------------------------------------------
    # gossip
    # ------------------------------------------------------------------

    def summary_for(self, peer_id: str) -> Optional[FleetSummary]:
        """The push this node owes ``peer_id``, or None when up to date.

        A region is included unless the peer's last-heard vector already
        dominates ours — so traffic decays to zero once the fleet
        converges and every node has heard every other's vectors.
        """
        known = self._peer_versions.get(peer_id, {})
        regions = {}
        for region in self.store.regions():
            mine = self.store.version(region)
            if known.get(region, EMPTY_VERSION).dominates(mine):
                continue
            regions[region] = (mine, tuple(self.store.records(region)))
        if not regions:
            return None
        return FleetSummary(sender=self.node_id, regions=regions)

    def receive_summary(self, summary: FleetSummary) -> Dict[str, int]:
        """Merge an arriving summary; safe under loss, delay, duplication.

        Stale regions (vector already dominated) are dropped without
        reading their records, and ack regions (no records) never touch
        the store at all. Either way the sender's vectors are recorded
        as peer knowledge, which is what quiesces future pushes back
        toward that sender.
        """
        merged = 0
        stale = 0
        known = self._peer_versions.setdefault(summary.sender, {})
        for region, (version, records) in sorted(summary.regions.items()):
            if not records:
                pass  # ack: vector without content must not merge
            elif self.store.version(region).dominates(version):
                stale += 1
            else:
                merged += self.store.merge_region(region, records, version)
            known[region] = known.get(region, EMPTY_VERSION).merge(version)
        self.telemetry.counter(
            "fleet_records_merged", "evidence records learned via gossip"
        ).inc(merged)
        self.telemetry.counter(
            "fleet_stale_regions", "summary regions dropped as stale"
        ).inc(stale)
        return {"merged_records": merged, "stale_regions": stale}

    def response_to(self, summary: FleetSummary) -> Optional[FleetSummary]:
        """The reconcile response a just-merged push earns its sender.

        For every region the push covered: when this node (post-merge)
        holds exactly what the sender asserted, reply with an ack region
        (vector only) so the sender stops re-pushing; when it holds
        more, reply with the full region so the sync completes in one
        exchange. Only ``"push"`` summaries get responses — never
        responses themselves — so reconciliation terminates.
        """
        if summary.kind != "push":
            return None
        regions = {}
        for region, (version, _records) in sorted(summary.regions.items()):
            mine = self.store.version(region)
            if version.dominates(mine):
                regions[region] = (mine, ())
            else:
                regions[region] = (mine, tuple(self.store.records(region)))
        if not regions:
            return None
        return FleetSummary(
            sender=self.node_id, regions=regions, kind="response"
        )

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------

    def fused_map(self) -> FleetMap:
        """This node's current fused belief (pure projection of its store)."""
        return project(self.store)

    def digest(self) -> str:
        """Content hash of the node's fusion state."""
        return self.store.digest()
