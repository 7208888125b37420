"""End-to-end fleet simulation: determinism, equivalence, report shape."""

import pytest

from repro.backend.faults import Partition
from repro.fleet.node import FleetNode
from repro.fleet.sim import (
    FleetSimConfig,
    build_fleet_crowd,
    render_fleet_report,
    report_json,
    run_fleet_simulation,
)

SMALL = FleetSimConfig(
    buildings=("Lab1",), n_nodes=3, users_per_building=2, max_rounds=32
)


@pytest.fixture(scope="module")
def small_report():
    return run_fleet_simulation(SMALL)


class TestDeterminism:
    def test_two_same_seed_runs_serialize_byte_equal(self, small_report):
        again = run_fleet_simulation(SMALL)
        assert report_json(small_report) == report_json(again)

    def test_rendered_report_is_reproducible(self, small_report):
        again = run_fleet_simulation(SMALL)
        assert render_fleet_report(small_report) == render_fleet_report(again)


class TestEquivalence:
    """The headline property: fleet fusion == single node on the union."""

    def test_partition_free_run_is_bit_identical_to_central(
        self, small_report
    ):
        assert small_report["converged"]
        for node_id, entry in small_report["equivalence"].items():
            assert entry["bit_identical_to_central"], node_id
            assert entry["problems"] == []
            assert entry["metrics"]["occupied_iou"] == 1.0
            assert entry["metrics"]["confidence_mae"] == 0.0

    def test_divergence_hits_zero_at_convergence(self, small_report):
        last = small_report["rounds"][-1]
        for node_id, metrics in last["divergence"].items():
            assert metrics["occupied_jaccard_distance"] == 0.0, node_id
            assert metrics["confidence_mae"] == 0.0, node_id

    def test_healed_partition_still_reaches_central(self):
        config = FleetSimConfig(
            buildings=("Lab1",),
            n_nodes=3,
            users_per_building=2,
            max_rounds=64,
            partitions=(
                Partition(
                    start=0.0,
                    end=6.0,
                    groups=(("node00",), ("node01", "node02")),
                ),
            ),
        )
        report = run_fleet_simulation(config)
        assert report["converged"]
        for entry in report["equivalence"].values():
            assert entry["bit_identical_to_central"]
            assert entry["problems"] == []

    def test_lossy_links_converge_within_bands(self):
        config = FleetSimConfig(
            buildings=("Lab1",),
            n_nodes=3,
            users_per_building=2,
            max_rounds=64,
            loss_rate=0.3,
        )
        report = run_fleet_simulation(config)
        assert report["converged"]
        assert report["totals"]["dropped"] > 0
        for entry in report["equivalence"].values():
            assert entry["problems"] == []


#: The CI smoke run: ``fleet-sim --building Lab1 --nodes 3 --users 2 --seed 0``.
CI_SMOKE = FleetSimConfig(buildings=("Lab1",), n_nodes=3, users_per_building=2)
#: The same run with ``--loss 0.2 --partition '2:6:0|1,2'``.
CI_SMOKE_LOSSY = FleetSimConfig(
    buildings=("Lab1",),
    n_nodes=3,
    users_per_building=2,
    loss_rate=0.2,
    partitions=(Partition(2.0, 6.0, (("node00",), ("node01", "node02"))),),
)


class TestGoldenConvergence:
    """Convergence records pinned from a known-good build.

    Two same-seed runs agreeing with each other cannot show a change that
    moves both alike (say, a byte count computed differently); these
    numbers can.
    """

    @pytest.mark.parametrize(
        "config, rounds, totals",
        [
            (
                CI_SMOKE,
                8,
                {
                    "messages_sent": 28,
                    "bytes_gossiped": 93303,
                    "dropped": 0,
                    "delivered": 28,
                },
            ),
            (
                CI_SMOKE_LOSSY,
                11,
                {
                    "messages_sent": 37,
                    "bytes_gossiped": 172870,
                    "dropped": 13,
                    "delivered": 24,
                },
            ),
        ],
        ids=["ci-smoke", "ci-smoke-lossy"],
    )
    def test_rounds_and_totals(self, config, rounds, totals):
        report = run_fleet_simulation(config)
        assert report["rounds_to_converge"] == rounds
        assert report["totals"] == totals

    def test_central_digests(self):
        sessions, _ = build_fleet_crowd(CI_SMOKE)
        central = FleetNode("central", config=CI_SMOKE.evidence)
        for session in sessions:
            central.ingest_session(session)
        fused = central.fused_map().digest()
        assert fused == "5813606441dcb9d13abd0f21a11de74870fe7acf"
        assert central.digest() == "590d88a9cf764558f140e35ae1f34618aae5dc8c"


class TestReportShape:
    def test_report_carries_the_headline_numbers(self, small_report):
        assert small_report["rounds_to_converge"] is not None
        assert small_report["totals"]["bytes_gossiped"] > 0
        assert small_report["pending_messages"] == 0
        # Overlapping slices: every session has a primary node, some also
        # land on a second one.
        assert sum(small_report["crowd"]["sessions_per_node"]) >= (
            small_report["crowd"]["n_sessions"]
        )
        rounds = small_report["rounds"]
        assert [r["round"] for r in rounds] == list(range(1, len(rounds) + 1))

    def test_central_quality_scores_every_building(self, small_report):
        assert sorted(small_report["central_quality"]) == ["Lab1"]
        scores = small_report["central_quality"]["Lab1"]
        assert 0.0 < scores["hallway_precision"] <= 1.0
        assert 0.0 < scores["hallway_recall"] <= 1.0

    def test_rendered_report_mentions_convergence(self, small_report):
        text = render_fleet_report(small_report)
        assert "converged in" in text
        assert "Fused vs central (final)" in text

    def test_local_maps_mode_publishes_per_node_shards(self):
        config = FleetSimConfig(
            buildings=("Lab1",),
            n_nodes=2,
            users_per_building=2,
            max_rounds=16,
            maintain_local_maps=True,
        )
        report = run_fleet_simulation(config)
        assert "local_maps" in report
        for node_id, entry in report["local_maps"].items():
            assert entry["shards"] >= 1, node_id

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetSimConfig(n_nodes=0)
        with pytest.raises(ValueError):
            FleetSimConfig(buildings=())
        with pytest.raises(ValueError):
            FleetSimConfig(max_rounds=0)
