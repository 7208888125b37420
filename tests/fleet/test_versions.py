"""Version vector algebra: bump, merge, dominance, wire roundtrip."""

import pytest

from repro.fleet.beliefs import EvidenceStore
from repro.fleet.evidence import canonical_json
from repro.fleet.versions import EMPTY_VERSION, VersionVector


class TestBasics:
    def test_empty_vector_is_falsy_and_reads_zero(self):
        vv = VersionVector()
        assert not vv
        assert vv.get("node00") == 0

    def test_bump_returns_new_vector_and_leaves_original(self):
        a = VersionVector()
        b = a.bump("n0")
        assert a.get("n0") == 0
        assert b.get("n0") == 1
        assert b.bump("n0").get("n0") == 2

    def test_zero_components_are_dropped(self):
        vv = VersionVector({"n0": 2, "n1": 0})
        assert dict(vv.items()) == {"n0": 2}


class TestMergeAndDominance:
    def test_merge_is_pointwise_max(self):
        a = VersionVector({"n0": 3, "n1": 1})
        b = VersionVector({"n0": 1, "n2": 4})
        merged = a.merge(b)
        assert dict(merged.items()) == {"n0": 3, "n1": 1, "n2": 4}

    def test_merge_is_commutative_and_idempotent(self):
        a = VersionVector({"n0": 3, "n1": 1})
        b = VersionVector({"n0": 1, "n2": 4})
        assert a.merge(b) == b.merge(a)
        assert a.merge(a) == a

    def test_dominates_is_reflexive(self):
        a = VersionVector({"n0": 3})
        assert a.dominates(a)

    def test_dominates_requires_every_component(self):
        big = VersionVector({"n0": 3, "n1": 2})
        small = VersionVector({"n0": 3})
        sideways = VersionVector({"n2": 1})
        assert big.dominates(small)
        assert not small.dominates(big)
        assert not big.dominates(sideways)
        assert not sideways.dominates(big)

    def test_merge_dominates_both_inputs(self):
        a = VersionVector({"n0": 3, "n1": 1})
        b = VersionVector({"n0": 1, "n2": 4})
        merged = a.merge(b)
        assert merged.dominates(a)
        assert merged.dominates(b)


class TestWireFormat:
    def test_payload_roundtrip(self):
        vv = VersionVector({"n0": 3, "n1": 1})
        assert VersionVector.from_payload(vv.to_payload()) == vv

    def test_equality_and_hash(self):
        a = VersionVector({"n0": 1})
        b = VersionVector().bump("n0")
        assert a == b
        assert hash(a) == hash(b)
        assert a != VersionVector({"n0": 2})

    @pytest.mark.parametrize("payload", [{}, {"n0": 5}])
    def test_payload_is_plain_dict(self, payload):
        vv = VersionVector.from_payload(payload)
        assert vv.to_payload() == payload

    @pytest.mark.parametrize(
        "payload", [{}, {"n0": 5}, {"node00": 12, 'n\u00f6de"01': 3}]
    )
    def test_payload_bytes_equal_encoded_size(self, payload):
        vv = VersionVector(payload)
        encoded = canonical_json(vv.to_payload()).encode("utf-8")
        assert vv.payload_bytes() == len(encoded)
        assert vv.payload_bytes() == len(encoded)  # memoized answer


class TestAllocationFreePaths:
    def test_merge_returns_self_when_no_component_rises(self):
        a = VersionVector({"n0": 3, "n1": 1})
        assert a.merge(VersionVector({"n0": 2})) is a
        assert a.merge(a) is a
        assert a.merge(EMPTY_VERSION) is a

    def test_merge_returns_other_when_it_dominates(self):
        a = VersionVector({"n0": 1})
        b = VersionVector({"n0": 2, "n1": 1})
        assert a.merge(b) is b
        assert EMPTY_VERSION.merge(b) is b

    def test_one_shared_empty_vector(self):
        assert EMPTY_VERSION == VersionVector()
        assert not EMPTY_VERSION
        assert EvidenceStore().version(("Lab1", 0, 0, 0)) is EMPTY_VERSION

