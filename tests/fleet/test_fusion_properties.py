"""Property-style fusion tests: order, duplication and staleness immunity.

The satellite contract: late, out-of-order and duplicated gossip summary
delivery must not change the converged state — fusion is commutative,
associative and idempotent. Each property is exercised over seeded
permutations of real summaries built from the shared fleet crowd.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.fleet.beliefs import EvidenceStore, divergence, project
from repro.fleet.evidence import canonical_json
from repro.fleet.node import FleetNode, FleetSummary
from repro.fleet.versions import VersionVector


def summaries_from(records, config, origin="origin"):
    """One full-region summary per region of a store holding ``records``."""
    store = EvidenceStore(config)
    for record in records:
        store.add(record, origin)
    return [
        FleetSummary(
            sender=origin,
            regions={
                region: (
                    store.version(region),
                    tuple(store.records(region)),
                )
            },
        )
        for region in store.regions()
    ]


def fused_digest(node):
    return (node.digest(), node.fused_map().digest())


class TestIngestOrderIndependence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_shuffled_ingest_orders_project_identically(
        self, fleet_sessions, evidence_config, seed
    ):
        rng = np.random.default_rng(seed)
        shuffled = list(fleet_sessions)
        rng.shuffle(shuffled)
        reference = FleetNode("n", config=evidence_config)
        permuted = FleetNode("n", config=evidence_config)
        for session in fleet_sessions:
            reference.ingest_session(session)
        for session in shuffled:
            permuted.ingest_session(session)
        assert fused_digest(reference) == fused_digest(permuted)

    def test_duplicate_ingest_is_idempotent(
        self, fleet_sessions, evidence_config
    ):
        once = FleetNode("n", config=evidence_config)
        twice = FleetNode("n", config=evidence_config)
        for session in fleet_sessions:
            once.ingest_session(session)
        for session in fleet_sessions:
            twice.ingest_session(session)
            twice.ingest_session(session)
        assert fused_digest(once) == fused_digest(twice)


class TestDeliveryOrderIndependence:
    def test_commutative_over_all_pair_orders(
        self, evidence_records, evidence_config
    ):
        half = len(evidence_records) // 2
        a = summaries_from(
            evidence_records[:half], evidence_config, origin="nodeA"
        )
        b = summaries_from(
            evidence_records[half:], evidence_config, origin="nodeB"
        )
        forward = FleetNode("sink", config=evidence_config)
        backward = FleetNode("sink", config=evidence_config)
        for summary in a + b:
            forward.receive_summary(summary)
        for summary in b + a:
            backward.receive_summary(summary)
        assert fused_digest(forward) == fused_digest(backward)

    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14, 15])
    def test_seeded_permutations_converge_identically(
        self, evidence_records, evidence_config, seed
    ):
        summaries = summaries_from(evidence_records, evidence_config)
        reference = FleetNode("sink", config=evidence_config)
        for summary in summaries:
            reference.receive_summary(summary)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(summaries))
        permuted = FleetNode("sink", config=evidence_config)
        for index in order:
            permuted.receive_summary(summaries[index])
        assert fused_digest(reference) == fused_digest(permuted)

    def test_exhaustive_small_permutations(
        self, evidence_records, evidence_config
    ):
        """Every ordering of three summaries lands on the same state."""
        summaries = summaries_from(evidence_records, evidence_config)[:3]
        digests = set()
        for order in itertools.permutations(summaries):
            node = FleetNode("sink", config=evidence_config)
            for summary in order:
                node.receive_summary(summary)
            digests.add(fused_digest(node))
        assert len(digests) == 1

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_duplicates_and_redelivery_are_idempotent(
        self, evidence_records, evidence_config, seed
    ):
        summaries = summaries_from(evidence_records, evidence_config)
        clean = FleetNode("sink", config=evidence_config)
        for summary in summaries:
            clean.receive_summary(summary)
        rng = np.random.default_rng(seed)
        noisy = FleetNode("sink", config=evidence_config)
        replay = list(summaries) + [
            summaries[int(i)]
            for i in rng.integers(len(summaries), size=len(summaries))
        ]
        rng.shuffle(replay)
        for summary in replay:
            noisy.receive_summary(summary)
        assert fused_digest(clean) == fused_digest(noisy)

    def test_stale_summary_after_newer_state_is_a_noop(
        self, evidence_records, evidence_config
    ):
        """A late (out-of-date) summary is dropped by vector dominance."""
        store = EvidenceStore(evidence_config)
        store.add(evidence_records[0], "nodeA")
        region = evidence_records[0].region(evidence_config)
        stale = FleetSummary(
            sender="nodeA",
            regions={
                region: (store.version(region), tuple(store.records(region)))
            },
        )
        # The same origin then ingests more records into the same region.
        later = [
            r
            for r in evidence_records[1:]
            if r.region(evidence_config) == region
        ]
        for record in later:
            store.add(record, "nodeA")
        fresh = FleetSummary(
            sender="nodeA",
            regions={
                region: (store.version(region), tuple(store.records(region)))
            },
        )
        node = FleetNode("sink", config=evidence_config)
        node.receive_summary(fresh)
        before = fused_digest(node)
        outcome = node.receive_summary(stale)
        assert outcome["merged_records"] == 0
        assert outcome["stale_regions"] == 1
        assert fused_digest(node) == before


class TestAssociativity:
    def test_store_merge_is_associative(
        self, evidence_records, evidence_config
    ):
        third = max(1, len(evidence_records) // 3)
        parts = [
            evidence_records[:third],
            evidence_records[third : 2 * third],
            evidence_records[2 * third :],
        ]
        summaries = [
            summaries_from(part, evidence_config, origin=f"node{i}")
            for i, part in enumerate(parts)
        ]

        def fold(order):
            node = FleetNode("sink", config=evidence_config)
            for part_index in order:
                for summary in summaries[part_index]:
                    node.receive_summary(summary)
            return fused_digest(node)

        # ((A + B) + C) vs (A + (B + C)) vs every other grouping/order.
        digests = {fold(order) for order in itertools.permutations(range(3))}
        assert len(digests) == 1


class TestProjectionPurity:
    def test_projection_of_equal_stores_is_bit_identical(
        self, evidence_records, evidence_config
    ):
        a = EvidenceStore(evidence_config)
        b = EvidenceStore(evidence_config)
        for record in evidence_records:
            a.add(record, "x")
        for record in reversed(evidence_records):
            b.add(record, "y")
        # Vectors differ (different origins), but contents are equal — the
        # projected map must not depend on how the store got its records.
        assert project(a).digest() == project(b).digest()

    def test_divergence_is_zero_iff_maps_agree(
        self, evidence_records, evidence_config
    ):
        store = EvidenceStore(evidence_config)
        for record in evidence_records:
            store.add(record, "x")
        full = project(store)
        assert divergence(full, full) == {
            "occupied_jaccard_distance": 0.0,
            "confidence_mae": 0.0,
        }
        partial_store = EvidenceStore(evidence_config)
        partial_store.add(evidence_records[0], "x")
        partial = project(partial_store)
        apart = divergence(full, partial)
        assert apart["occupied_jaccard_distance"] > 0.0


def reference_digest(store):
    """The store digest computed afresh from its public state."""
    payload = {
        "regions": {
            "/".join(map(str, region)): {
                "sids": [r.session_id for r in store.records(region)],
                "vv": store.version(region).to_payload(),
            }
            for region in store.regions()
        }
    }
    return hashlib.sha1(canonical_json(payload).encode("utf-8")).hexdigest()


class TestDigestMemo:
    """The memoized digest tracks every change to records or vectors."""

    def test_memo_follows_adds_and_merges(
        self, evidence_records, evidence_config
    ):
        store = EvidenceStore(evidence_config)
        assert store.digest() == reference_digest(store)
        half = len(evidence_records) // 2
        for record in evidence_records[:half]:
            store.add(record, "a")
            assert store.digest() == reference_digest(store)
        for summary in summaries_from(evidence_records[half:], evidence_config):
            for region, (version, records) in summary.regions.items():
                store.merge_region(region, records, version)
                assert store.digest() == reference_digest(store)

    def test_vector_only_merge_changes_the_digest(
        self, evidence_records, evidence_config
    ):
        store = EvidenceStore(evidence_config)
        record = evidence_records[0]
        store.add(record, "a")
        region = record.region(evidence_config)
        before = store.digest()
        newer = store.version(region).merge(VersionVector({"b": 4}))
        assert store.merge_region(region, (record,), newer) == 0
        assert store.digest() != before
        assert store.digest() == reference_digest(store)

    def test_no_op_mutations_keep_the_digest(
        self, evidence_records, evidence_config
    ):
        store = EvidenceStore(evidence_config)
        record = evidence_records[0]
        store.add(record, "a")
        region = record.region(evidence_config)
        before = store.digest()
        assert not store.add(record, "b")
        assert store.merge_region(region, (record,), VersionVector()) == 0
        assert store.version(region) == VersionVector({"a": 1})
        assert store.digest() == before == reference_digest(store)

