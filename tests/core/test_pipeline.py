"""End-to-end pipeline tests (smoke-level: the benchmarks do the heavy
quantitative validation)."""

import re

import pytest

from repro.core.config import CrowdMapConfig
from repro.core.pipeline import CrowdMapPipeline, _trajectory_bounds


@pytest.fixture(scope="module")
def pipeline_result(small_dataset):
    config = CrowdMapConfig().with_overrides(layout_samples=600)
    return CrowdMapPipeline(config).run(small_dataset)


class TestPipeline:
    def test_produces_all_artifacts(self, pipeline_result):
        assert pipeline_result.skeleton.skeleton.any()
        assert pipeline_result.panoramas
        assert len(pipeline_result.layouts) == len(pipeline_result.panoramas)
        assert pipeline_result.floorplan.rooms

    def test_timings_recorded(self, pipeline_result):
        assert set(pipeline_result.timings) == {"pathway", "rooms", "floorplan"}
        assert all(v >= 0 for v in pipeline_result.timings.values())

    def test_aggregation_covers_all_sws(self, pipeline_result, small_dataset):
        n_sws = len(small_dataset.sws_sessions())
        assert len(pipeline_result.aggregation.trajectories) == n_sws

    def test_layout_for_room(self, pipeline_result):
        hint = pipeline_result.panoramas[0].room_hint
        assert pipeline_result.layout_for_room(hint) is not None
        assert pipeline_result.layout_for_room("not-a-room") is None

    def test_room_layout_plausible(self, pipeline_result, lab1_plan):
        for pano, layout in zip(pipeline_result.panoramas,
                                pipeline_result.layouts):
            if pano.room_hint is None:
                continue
            room = lab1_plan.room_by_name(pano.room_hint)
            assert 0.2 * room.area() < layout.area() < 5.0 * room.area()

    def test_anchored_sessions_returned(self, pipeline_result, small_dataset):
        assert len(pipeline_result.anchored) == len(small_dataset.sws_sessions())
        for anchored in pipeline_result.anchored:
            assert anchored.keyframes

    def test_srs_grouping(self, small_dataset):
        pipe = CrowdMapPipeline(CrowdMapConfig())
        groups = pipe.group_srs_sessions(small_dataset.srs_sessions())
        total = sum(len(g) for g in groups)
        assert total == len(small_dataset.srs_sessions())
        # Sessions in the same cell share a group.
        for group in groups:
            assert len(group) >= 1

    def test_unknown_worker_backend_rejected(self):
        with pytest.raises(ValueError, match=re.escape("('serial', 'thread')")):
            CrowdMapPipeline(CrowdMapConfig(worker_backend="process"))

    def test_empty_trajectory_bounds(self):
        from repro.core.aggregation import AggregationResult

        empty = AggregationResult(
            trajectories=[], transforms=[], candidates=[], components=[]
        )
        bounds = _trajectory_bounds(empty, margin=1.0)
        assert bounds.width > 0
