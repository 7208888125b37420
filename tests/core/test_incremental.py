"""Tests for the incremental (streaming) reconstruction."""

import numpy as np
import pytest

from repro.core.config import CrowdMapConfig
from repro.core.incremental import IncrementalCrowdMap
from repro.core.pipeline import CrowdMapPipeline
from repro.dataflow.identity import diff_reconstruction
from repro.dataflow.planner import last_plan_report


@pytest.fixture(scope="module")
def incremental_config():
    return CrowdMapConfig().with_overrides(layout_samples=400)


def _streamed(sessions, config):
    """Snapshot after every upload, as a serving shard would; the last one."""
    inc = IncrementalCrowdMap(config)
    for session in sessions:
        inc.add_session(session)
        inc.snapshot()
    return inc.snapshot()


class TestIncremental:
    def test_empty_snapshot_is_none(self, incremental_config):
        assert IncrementalCrowdMap(incremental_config).snapshot() is None

    def test_sessions_accumulate(self, small_dataset, incremental_config):
        inc = IncrementalCrowdMap(incremental_config)
        for session in small_dataset.sessions:
            inc.add_session(session)
        n_sws = len(small_dataset.sws_sessions())
        assert inc.n_sws == n_sws
        snapshot = inc.snapshot()
        assert len(snapshot.anchored) == n_sws
        assert len(snapshot.layouts) >= 1

    def test_pairwise_work_is_incremental(
        self, small_dataset, incremental_config, empty_cache
    ):
        """Each upload executes only its own nodes, never the corpus's."""
        inc = IncrementalCrowdMap(incremental_config)
        assert small_dataset.sessions[0].task == "SWS"
        kinds = ("keyframes", "pair", "pathway", "room", "floorplan")
        for session in small_dataset.sessions:
            inc.add_session(session)
            inc.snapshot()
            report = last_plan_report()
            executed = tuple(report.n_executed(kind) for kind in kinds)
            if session.task == "SWS":
                assert executed == (1, inc.n_sws - 1, 1, 0, 1)
            else:
                assert executed == (0, 0, 0, 1, 1)
                assert report.n_skipped("pathway") == 1

    def test_snapshot_matches_batch_pipeline(self, small_dataset, incremental_config):
        """Streaming all sessions must reproduce the reference cascade."""
        streamed = _streamed(small_dataset.sessions, incremental_config)
        batch = CrowdMapPipeline(incremental_config).run_sessions_legacy(
            small_dataset.sessions
        )
        assert diff_reconstruction(streamed, batch) == []
        assert sorted(streamed.aggregation.merged_pairs()) == sorted(
            batch.aggregation.merged_pairs()
        )
        assert np.array_equal(batch.skeleton.skeleton, streamed.skeleton.skeleton)

    def test_snapshot_matches_batch_full_floorplan(
        self, small_dataset, incremental_config
    ):
        """Equivalence beyond the skeleton: the full served artifacts.

        The serving layer (repro.serving) publishes incremental snapshots
        as the batch result's stand-in, so the rendered floor plan, room
        placements and localization answers must all agree — not just the
        hallway cells.
        """
        from repro.core.localization import VisualLocalizer

        streamed = _streamed(small_dataset.sessions, incremental_config)
        batch = CrowdMapPipeline(incremental_config).run_sessions_legacy(
            small_dataset.sessions
        )
        assert diff_reconstruction(streamed, batch) == []

        assert streamed.floorplan.render_ascii() == batch.floorplan.render_ascii()

        streamed_rooms = {
            r.name: r.bounding_box() for r in streamed.floorplan.rooms
        }
        batch_rooms = {
            r.name: r.bounding_box() for r in batch.floorplan.rooms
        }
        assert streamed_rooms == batch_rooms

        loc_streamed = VisualLocalizer(streamed, incremental_config)
        loc_batch = VisualLocalizer(batch, incremental_config)
        assert len(loc_streamed) == len(loc_batch)
        query = small_dataset.sws_sessions()[0].frames[3]
        a = loc_streamed.localize(query)
        b = loc_batch.localize(query)
        assert a.matched and b.matched
        assert a.position.x == pytest.approx(b.position.x)
        assert a.position.y == pytest.approx(b.position.y)
        assert a.confidence == pytest.approx(b.confidence)

    def test_snapshot_improves_with_more_data(self, small_dataset, incremental_config):
        inc = IncrementalCrowdMap(incremental_config)
        sws = small_dataset.sws_sessions()
        inc.add_session(sws[0])
        early = inc.snapshot()
        for session in sws[1:]:
            inc.add_session(session)
        late = inc.snapshot()
        assert late.skeleton.skeleton.sum() >= early.skeleton.skeleton.sum()

    def test_stairs_sessions_ignored(self, lab1_plan, incremental_config):
        from repro.world.walker import Walker, WalkerProfile

        walker = Walker(lab1_plan, WalkerProfile(user_id="s"),
                        rng=np.random.default_rng(5))
        inc = IncrementalCrowdMap(incremental_config)
        inc.add_session(walker.perform_stairs(lab1_plan.waypoints["sw"], 1))
        assert inc.n_sws == 0
        assert inc.snapshot() is None

    def test_srs_best_layout_kept_per_cell(self, lab1_plan, lab1_renderer,
                                            sws_session, incremental_config):
        from repro.world.walker import Walker, WalkerProfile

        room = lab1_plan.room_by_name("s2")
        inc = IncrementalCrowdMap(incremental_config)
        inc.add_session(sws_session)
        for seed in (1, 2):
            walker = Walker(lab1_plan, WalkerProfile(user_id=f"u{seed}"),
                            rng=np.random.default_rng(seed),
                            renderer=lab1_renderer)
            inc.add_session(walker.perform_srs(room.center, room_name=room.name))
        snapshot = inc.snapshot()
        report = last_plan_report()
        # Both spins share the cell: one room node, one layout.
        assert report.n_executed("room") + report.n_skipped("room") == 1
        assert len(snapshot.layouts) == 1
        assert snapshot.panoramas[0].room_hint == "s2"
