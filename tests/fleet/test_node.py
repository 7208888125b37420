"""FleetNode behaviour: ingest idempotence, summaries, acks, isolation."""

import pytest

from repro.backend.faults import LinkFaultModel, Partition
from repro.backend.telemetry import TelemetryRegistry, default_registry
from repro.fleet.evidence import SessionEvidence, canonical_json
from repro.fleet.gossip import GossipConfig, GossipMesh
from repro.fleet.node import FleetNode, FleetSummary
from repro.fleet.versions import VersionVector
from repro.world.scenarios import slice_sessions


def wire_bytes(summary):
    return len(canonical_json(summary.to_payload()).encode("utf-8"))


class RecordingMesh(GossipMesh):
    """A mesh that keeps every summary it puts on the wire."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def _send(self, sender_id, receiver_id, summary, now, stats):
        self.sent.append(summary)
        super()._send(sender_id, receiver_id, summary, now, stats)


class TestIngest:
    def test_reingesting_a_session_changes_nothing(
        self, fleet_sessions, evidence_config
    ):
        node = FleetNode("n0", config=evidence_config)
        for session in fleet_sessions:
            node.ingest_session(session)
        records = node.store.n_records()
        digest = node.digest()
        node.ingest_session(fleet_sessions[0])
        assert node.store.n_records() == records
        assert node.digest() == digest

    def test_shard_ingest_is_gated_on_new_evidence(
        self, fleet_sessions, evidence_config
    ):
        node = FleetNode("n0", config=evidence_config, maintain_local_maps=True)
        session = next(s for s in fleet_sessions if s.task == "SWS")
        node.ingest_session(session)
        node.ingest_session(session)
        shard = node.shards.shards()[0]
        assert shard.sessions_ingested == 1


class TestTelemetryIsolation:
    def test_each_node_gets_a_private_registry(self, evidence_config):
        a = FleetNode("a", config=evidence_config)
        b = FleetNode("b", config=evidence_config)
        assert a.telemetry is not b.telemetry
        assert a.telemetry is not default_registry
        assert b.telemetry is not default_registry

    def test_counters_never_cross_nodes(self, fleet_sessions, evidence_config):
        a = FleetNode("a", config=evidence_config)
        b = FleetNode("b", config=evidence_config)
        for session in fleet_sessions:
            a.ingest_session(session)
        assert a.telemetry.value("fleet_sessions_ingested") == len(
            fleet_sessions
        )
        assert b.telemetry.value("fleet_sessions_ingested") == 0.0

    def test_injected_registry_is_used(self, evidence_config):
        registry = TelemetryRegistry()
        node = FleetNode("n", config=evidence_config, telemetry=registry)
        assert node.telemetry is registry


class TestSummaryExchange:
    def build(self, records, node_id, evidence_config):
        node = FleetNode(node_id, config=evidence_config)
        store = node.store
        for record in records:
            store.add(record, node_id)
        return node

    def test_summary_for_unknown_peer_covers_all_regions(
        self, evidence_records, evidence_config
    ):
        node = self.build(evidence_records, "a", evidence_config)
        summary = node.summary_for("b")
        assert summary is not None
        assert sorted(summary.regions) == node.store.regions()
        assert summary.kind == "push"

    def test_empty_node_owes_nothing(self, evidence_config):
        assert FleetNode("a", config=evidence_config).summary_for("b") is None

    def test_push_response_ack_quiesces_the_pair(
        self, evidence_records, evidence_config
    ):
        a = self.build(evidence_records, "a", evidence_config)
        b = FleetNode("b", config=evidence_config)
        push = a.summary_for("b")
        b.receive_summary(push)
        response = b.response_to(push)
        assert response is not None
        assert response.kind == "response"
        # b now holds exactly what a pushed, so every region is an ack.
        assert all(not records for _, records in response.regions.values())
        a.receive_summary(response)
        assert a.summary_for("b") is None
        assert b.summary_for("a") is None

    def test_response_carries_records_when_receiver_knows_more(
        self, evidence_records, evidence_config
    ):
        region = evidence_records[0].region(evidence_config)
        same_region = [
            r
            for r in evidence_records
            if r.region(evidence_config) == region
        ]
        rich = self.build(evidence_records, "rich", evidence_config)
        poor = self.build(same_region[:1], "poor", evidence_config)
        push = poor.summary_for("rich")
        rich.receive_summary(push)
        response = rich.response_to(push)
        assert response is not None
        version, records = response.regions[region]
        assert records == tuple(rich.store.records(region))
        assert version.dominates(poor.store.version(region))

    def test_responses_are_never_answered(
        self, evidence_records, evidence_config
    ):
        a = self.build(evidence_records, "a", evidence_config)
        b = FleetNode("b", config=evidence_config)
        push = a.summary_for("b")
        b.receive_summary(push)
        response = b.response_to(push)
        a.receive_summary(response)
        assert a.response_to(response) is None

    def test_ack_region_never_merges_into_the_store(self, evidence_config):
        node = FleetNode("n", config=evidence_config)
        phantom_region = ("Lab1", 1, 0, 0)
        ack = FleetSummary(
            sender="peer",
            regions={phantom_region: (VersionVector({"peer": 3}), ())},
        )
        outcome = node.receive_summary(ack)
        assert outcome == {"merged_records": 0, "stale_regions": 0}
        # The vector must not enter the store: claiming peer:3 without the
        # records would break the dominance-implies-superset invariant.
        assert node.store.regions() == []
        assert not node.store.version(phantom_region)
        # But peer knowledge was updated, so we would not push to them.
        assert node.summary_for("peer") is None


class TestSummaryBytes:
    """Summed byte counts equal the size of the encoded summary."""

    def test_every_summary_of_a_lossy_mesh(
        self, fleet_sessions, evidence_config
    ):
        nodes = [
            FleetNode(f"node{i:02d}", config=evidence_config)
            for i in range(3)
        ]
        slices = slice_sessions(fleet_sessions, 3, overlap=0.25, seed=0)
        for node, part in zip(nodes, slices):
            for session in part:
                node.ingest_session(session)
        mesh = RecordingMesh(
            nodes,
            link_model=LinkFaultModel(
                seed=0,
                loss_rate=0.2,
                partitions=(Partition(2.0, 6.0, (("node00",), ("node01",))),),
            ),
            config=GossipConfig(seed=0),
        )
        for round_number in range(1, 33):
            mesh.run_round(float(round_number))
            if mesh.converged():
                break
        assert mesh.converged()
        kinds = {summary.kind for summary in mesh.sent}
        assert kinds == {"push", "response"}
        acks = [
            region
            for summary in mesh.sent
            for region, (_, records) in summary.regions.items()
            if not records
        ]
        assert acks, "the mesh never sent an ack region"
        total = 0
        for summary in mesh.sent:
            assert summary.payload_bytes() == wire_bytes(summary)
            total += summary.payload_bytes()
        assert mesh.telemetry.value("fleet_gossip_bytes_sent") == total

    @staticmethod
    def record(sid, building, cells, room=None):
        xs = [c[0] for c in cells]
        ys = [c[1] for c in cells]
        extra = {}
        if room is not None:
            extra = {"room_name": room, "room_center": (-2.5, 0.75)}
        return SessionEvidence(
            session_id=sid,
            user_id="u0",
            building=building,
            floor=0,
            task="SWS" if room is None else "SRS",
            cells=tuple(cells),
            bbox=(min(xs), min(ys), max(xs), max(ys)),
            **extra,
        )

    @pytest.mark.parametrize("kind", ["push", "response"])
    def test_hand_built_summaries(self, kind):
        lab = self.record("s1", "Lab1", [(-40, -3), (-39, -3)])
        gym = self.record("s2", "Gym", [(5, 7)], room="Salle Ω")
        annex = self.record("s3", "Annexe ü", [(1000, -2000)], room=None)
        vv = VersionVector({"node00": 3, "nöde01": 12})
        cases = [
            {},
            {("Lab1", 0, -3, -1): (VersionVector(), ())},
            {
                ("Lab1", 0, -3, -1): (vv, (lab,)),
                ("Gym", 2, 0, 0): (VersionVector({"node00": 1}), (gym,)),
                ("Annexe ü", -1, 62, -125): (vv, (annex, lab, gym)),
                ("Lab1", 0, 5, 5): (vv, ()),
            },
        ]
        for regions in cases:
            summary = FleetSummary(sender="nöde01", regions=regions, kind=kind)
            assert summary.payload_bytes() == wire_bytes(summary)

