"""Evidence extraction: determinism, wire roundtrip, absolute coordinates."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fleet.evidence import (
    EvidenceConfig,
    SessionEvidence,
    canonical_json,
    extract_evidence,
)
from repro.fleet.node import FleetNode
from repro.fleet.sim import FleetSimConfig, build_fleet_crowd
from repro.sensors.trajectory import Trajectory, TrajectoryPoint


def loop_cells(points, config):
    """Reference: the per-sample loop that extraction was vectorized from."""
    if len(points) == 0:
        return []
    step = config.cell_size / 2.0
    samples = [points[0]]
    for k in range(len(points) - 1):
        a, b = points[k], points[k + 1]
        dist = float(np.hypot(*(b - a)))
        n_steps = max(1, int(dist / step))
        for t in np.linspace(0.0, 1.0, n_steps + 1)[1:]:
            samples.append(a + t * (b - a))
    radius_cells = int(np.ceil(config.splat_radius / config.cell_size))
    cells = set()
    for x, y in samples:
        cx = int(math.floor(float(x) / config.cell_size))
        cy = int(math.floor(float(y) / config.cell_size))
        for dr in range(-radius_cells, radius_cells + 1):
            for dc in range(-radius_cells, radius_cells + 1):
                if dr * dr + dc * dc > radius_cells * radius_cells:
                    continue
                cells.add((cx + dc, cy + dr))
    return sorted(cells)


def with_trajectory(session, xy):
    """A copy of ``session`` whose device trajectory visits ``xy``."""
    points = [TrajectoryPoint(x, y, float(i)) for i, (x, y) in enumerate(xy)]
    return dataclasses.replace(session, device_trajectory=Trajectory(points))


def wire_bytes(obj):
    return len(canonical_json(obj.to_payload()).encode("utf-8"))


CELL_CONFIGS = {
    "default": EvidenceConfig(),
    "fine": EvidenceConfig(cell_size=0.3, splat_radius=0.7),
    "no-splat": EvidenceConfig(splat_radius=0.0),
}


@pytest.fixture(scope="module")
def wide_crowd_sessions():
    """Six users in each of four buildings: 48 sessions, ~0.6 s to build."""
    config = FleetSimConfig(
        buildings=("Lab1", "Lab2", "Gym", "Office"),
        users_per_building=6,
        seed=11,
    )
    return build_fleet_crowd(config)[0]


class TestExtraction:
    def test_extraction_is_deterministic(self, fleet_sessions, evidence_config):
        for session in fleet_sessions:
            first = extract_evidence(session, evidence_config)
            second = extract_evidence(session, evidence_config)
            assert first == second

    def test_every_sws_and_srs_session_yields_evidence(
        self, fleet_sessions, evidence_records
    ):
        expected = [s for s in fleet_sessions if s.task in ("SWS", "SRS")]
        assert len(evidence_records) == len(expected)

    def test_non_evidence_task_returns_none(self, evidence_config):
        stub = SimpleNamespace(task="STAIRS")
        assert extract_evidence(stub, evidence_config) is None

    def test_cells_are_absolute_and_bbox_is_their_hull(self, evidence_records):
        for record in evidence_records:
            xs = [c[0] for c in record.cells]
            ys = [c[1] for c in record.cells]
            assert record.bbox == (min(xs), min(ys), max(xs), max(ys))
            assert record.cells == tuple(sorted(set(record.cells)))

    def test_srs_records_carry_room_center(self, evidence_records):
        for record in evidence_records:
            if record.task == "SRS":
                assert record.room_center is not None
            else:
                assert record.room_center is None
                assert record.room_name is None

    def test_region_is_stable_per_record(self, evidence_records, evidence_config):
        for record in evidence_records:
            region = record.region(evidence_config)
            assert region[0] == record.building
            assert region[1] == record.floor
            assert record.region(evidence_config) == region


class TestWireFormat:
    def test_payload_roundtrip(self, evidence_records):
        for record in evidence_records:
            assert SessionEvidence.from_payload(record.to_payload()) == record

    def test_payload_is_canonical_json_serializable(self, evidence_records):
        for record in evidence_records:
            encoded = canonical_json(record.to_payload())
            assert record.payload_bytes() == len(encoded.encode("utf-8"))

    def test_records_are_compact(self, evidence_records):
        """The point of evidence records: a session gossips in kilobytes."""
        for record in evidence_records:
            assert record.payload_bytes() < 64_000

    @pytest.mark.parametrize(
        "room",
        [
            {},
            {"room_name": None, "room_center": (-1.25, 3.0)},
            {"room_name": "office", "room_center": (12.5, 0.0)},
            {"room_name": "Café Ω — 2.01", "room_center": (1e-05, -7.125)},
        ],
        ids=["no-room", "unnamed-room", "ascii-room", "non-ascii-room"],
    )
    def test_payload_bytes_equal_encoded_size(self, room):
        record = SessionEvidence(
            session_id="s-ü/1",
            user_id="u\"7",
            building="Bâtiment",
            floor=-1,
            task="SRS" if room else "SWS",
            cells=((-120, -3), (-1, 0), (0, 4), (99, -100000)),
            bbox=(-120, -100000, 99, 4),
            **room,
        )
        assert record.payload_bytes() == wire_bytes(record)
        rebuilt = SessionEvidence.from_payload(record.to_payload())
        assert rebuilt.payload_bytes() == record.payload_bytes()

    def test_size_is_not_part_of_record_identity(self, evidence_records):
        record = evidence_records[0]
        assert dataclasses.replace(record) == record
        assert hash(dataclasses.replace(record)) == hash(record)


class TestCellsMatchLoopReference:
    """Vectorized extraction against the loop it replaced, cell for cell."""

    @staticmethod
    def assert_matches(session, config):
        record = extract_evidence(session, config)
        expected = loop_cells(session.device_trajectory.as_array(), config)
        assert record.cells == tuple(expected), session.session_id
        xs = [c[0] for c in expected]
        ys = [c[1] for c in expected]
        assert record.bbox == (min(xs), min(ys), max(xs), max(ys))
        assert all(type(v) is int for cell in record.cells for v in cell)
        assert all(type(v) is int for v in record.bbox)

    @pytest.mark.parametrize("config", CELL_CONFIGS.values(), ids=CELL_CONFIGS)
    def test_fleet_crowd(self, fleet_sessions, config):
        for session in fleet_sessions:
            if session.task in ("SWS", "SRS"):
                self.assert_matches(session, config)

    @pytest.mark.parametrize("config", CELL_CONFIGS.values(), ids=CELL_CONFIGS)
    def test_four_building_crowd(self, wide_crowd_sessions, config):
        assert len(wide_crowd_sessions) == 48
        for session in wide_crowd_sessions:
            self.assert_matches(session, config)

    @pytest.mark.parametrize(
        "xy",
        [
            [(1.3, 2.7)],
            [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0),
             (3.0, 0.5)],
            [(-3.2, -1.1), (-0.4, -5.9), (2.5, -0.25), (-0.01, -0.01)],
            [(0.0, 0.0), (0.5, 0.0), (0.5, 1.5), (-1.0, 1.5), (-1.0, -2.0),
             (2.25, -2.0)],
        ],
        ids=["one-point", "repeated-points", "negative", "cell-edges"],
    )
    @pytest.mark.parametrize("config", CELL_CONFIGS.values(), ids=CELL_CONFIGS)
    def test_edge_cases(self, fleet_sessions, xy, config):
        sws = next(s for s in fleet_sessions if s.task == "SWS")
        self.assert_matches(with_trajectory(sws, xy), config)

    def test_empty_trajectory_yields_no_record(self, fleet_sessions):
        sws = next(s for s in fleet_sessions if s.task == "SWS")
        assert extract_evidence(with_trajectory(sws, [])) is None


class TestNonFiniteTrajectory:
    """A corrupt trajectory point is named, not turned into cells."""

    @pytest.mark.parametrize(
        "bad",
        [(math.nan, 1.0), (2.0, math.inf), (-math.inf, 0.0)],
        ids=["nan-x", "inf-y", "minus-inf-x"],
    )
    def test_extraction_names_the_session(self, fleet_sessions, bad):
        sws = next(s for s in fleet_sessions if s.task == "SWS")
        session = with_trajectory(sws, [(0.0, 0.0), bad, (3.0, 3.0)])
        with pytest.raises(ValueError, match=sws.session_id):
            extract_evidence(session)

    def test_node_ingest_rejects_before_storing(
        self, fleet_sessions, evidence_config
    ):
        srs = next(s for s in fleet_sessions if s.task == "SRS")
        session = with_trajectory(srs, [(0.0, 0.0), (math.nan, 0.5)])
        node = FleetNode("n0", config=evidence_config)
        with pytest.raises(ValueError, match=srs.session_id):
            node.ingest_session(session)
        assert node.store.n_records() == 0


def test_config_validation():
    import pytest

    with pytest.raises(ValueError):
        EvidenceConfig(cell_size=0.0)
    with pytest.raises(ValueError):
        EvidenceConfig(region_tile=0)
    with pytest.raises(ValueError):
        EvidenceConfig(occupancy_threshold=1.5)
    with pytest.raises(ValueError):
        EvidenceConfig(observer_margin=-1)
