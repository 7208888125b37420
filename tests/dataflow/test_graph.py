"""Dataflow graph keying: content addresses compose and invalidate right.

Under-inclusive keys silently serve stale results, so these tests pin
the invalidation semantics: a key changes exactly when content or an
in-scope config field changes, and composes producers' *keys* (never
re-hashed values) into consumers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.config import CrowdMapConfig
from repro.core.pipeline import CrowdMapPipeline
from repro.dataflow.graph import build_plan, seal_floorplan_key, seal_pathway_key
from repro.world.buildings import build_lab1
from repro.world.crowd import CrowdConfig, generate_crowd_dataset


def _sessions(seed: int = 11):
    dataset = generate_crowd_dataset(
        build_lab1(),
        CrowdConfig(n_users=2, sws_per_user=1, srs_rooms_per_user=1, seed=seed),
    )
    return dataset.sessions


class TestPlanKeys:
    def test_plan_is_stable_across_rebuilds(self):
        sessions = _sessions()
        pipeline = CrowdMapPipeline(CrowdMapConfig())
        plan_a = build_plan(pipeline, sessions)
        plan_b = build_plan(pipeline, sessions)
        assert [n.key for n in plan_a.kf_nodes] == [n.key for n in plan_b.kf_nodes]
        assert {ij: n.key for ij, n in plan_a.pair_nodes.items()} == {
            ij: n.key for ij, n in plan_b.pair_nodes.items()
        }
        assert [n.key for n in plan_a.room_nodes] == [
            n.key for n in plan_b.room_nodes
        ]

    def test_session_content_change_invalidates_dependents_only(self):
        sessions = _sessions()
        pipeline = CrowdMapPipeline(CrowdMapConfig())
        before = build_plan(pipeline, sessions)

        changed = list(sessions)
        target = next(i for i, s in enumerate(changed) if s.task == "SWS")
        victim = changed[target]
        changed[target] = dataclasses.replace(
            victim,
            frames=[
                dataclasses.replace(f, pixels=f.pixels + 0.01)
                for f in victim.frames
            ],
        )
        after = build_plan(pipeline, changed)

        sws_pos = [
            i for i, s in enumerate(before.sws_sessions)
            if s.session_id == victim.session_id
        ][0]
        for i, (a, b) in enumerate(zip(before.kf_nodes, after.kf_nodes)):
            if i == sws_pos:
                assert a.key != b.key
            else:
                assert a.key == b.key
        for ij in before.pair_nodes:
            same = before.pair_nodes[ij].key == after.pair_nodes[ij].key
            assert same == (sws_pos not in ij)
        assert [n.key for n in before.room_nodes] == [
            n.key for n in after.room_nodes
        ]

    def test_config_scope_limits_invalidation(self):
        sessions = _sessions()
        base = build_plan(CrowdMapPipeline(CrowdMapConfig()), sessions)
        # A floor-plan-only knob must not invalidate key-frame selection
        # or pair scoring...
        forces = build_plan(
            CrowdMapPipeline(CrowdMapConfig(force_iterations=99)), sessions
        )
        assert [n.key for n in base.kf_nodes] == [n.key for n in forces.kf_nodes]
        assert {ij: n.key for ij, n in base.pair_nodes.items()} == {
            ij: n.key for ij, n in forces.pair_nodes.items()
        }
        # ...while a HOG knob invalidates every key-frame node.
        hog = build_plan(
            CrowdMapPipeline(CrowdMapConfig(hog_cell_size=12)), sessions
        )
        assert all(
            a.key != b.key for a, b in zip(base.kf_nodes, hog.kf_nodes)
        )

    def test_late_keys_cover_quarantine_outcomes(self):
        sessions = _sessions()
        pipeline = CrowdMapPipeline(CrowdMapConfig())
        plan = build_plan(pipeline, sessions)
        config = pipeline.config
        pairs = list(plan.pair_nodes)
        clean = seal_pathway_key(plan, pairs, [], config)
        degraded = seal_pathway_key(plan, pairs[:-1], ["u0-s0"], config)
        assert clean != degraded

        rooms_ok = [n.key for n in plan.room_nodes]
        fp_clean = seal_floorplan_key(plan, clean, rooms_ok, config)
        rooms_failed = list(rooms_ok)
        if rooms_failed:
            rooms_failed[0] = "failed:some-group"
        fp_degraded = seal_floorplan_key(plan, clean, rooms_failed, config)
        if rooms_ok:
            assert fp_clean != fp_degraded
        assert fp_clean != seal_floorplan_key(plan, degraded, rooms_ok, config)

    def test_node_index_covers_every_node(self):
        sessions = _sessions()
        plan = build_plan(CrowdMapPipeline(CrowdMapConfig()), sessions)
        assert "pathway" in plan.nodes
        assert "floorplan" in plan.nodes
        for node in plan.kf_nodes:
            assert plan.nodes[node.node_id] is node
        n_nodes = (
            len(plan.fs_nodes) + len(plan.kf_nodes)
            + len(plan.pair_nodes) + len(plan.room_nodes) + 2
        )
        assert len(plan.nodes) == n_nodes

    def test_framestack_nodes_cover_sessions_and_feed_consumers(self):
        sessions = _sessions()
        plan = build_plan(CrowdMapPipeline(CrowdMapConfig()), sessions)
        assert set(plan.fs_nodes) == {s.session_id for s in sessions}
        for node in plan.kf_nodes:
            session_id = node.node_id.split(":", 1)[1]
            assert f"fs:{session_id}" in node.deps
        for node in plan.room_nodes:
            for session_id in node.node_id[len("room:"):].split("+"):
                assert f"fs:{session_id}" in node.deps

    def test_framestack_scope_is_blur_sigma_only(self):
        """The stack derives pure per-pixel planes; only the blur sigma
        is a config input to them, and the pre-screen fields decide which
        frames the marker covers. A selection-threshold change must leave
        every stack node warm while a sigma or pre-screen change
        invalidates them all."""
        sessions = _sessions()
        base = build_plan(CrowdMapPipeline(CrowdMapConfig()), sessions)
        ncc = build_plan(
            CrowdMapPipeline(CrowdMapConfig(keyframe_ncc_threshold=0.5)),
            sessions,
        )
        assert {sid: n.key for sid, n in base.fs_nodes.items()} == {
            sid: n.key for sid, n in ncc.fs_nodes.items()
        }
        for changed in (
            CrowdMapConfig(hog_blur_sigma=3.0),
            CrowdMapConfig(keyframe_prescreen_threshold=0.11),
        ):
            plan = build_plan(CrowdMapPipeline(changed), sessions)
            for sid, node in base.fs_nodes.items():
                assert node.key != plan.fs_nodes[sid].key

    def test_framestack_invalidation_is_session_local(self):
        sessions = _sessions()
        pipeline = CrowdMapPipeline(CrowdMapConfig())
        before = build_plan(pipeline, sessions)
        changed = list(sessions)
        victim = changed[0]
        changed[0] = dataclasses.replace(
            victim,
            frames=[
                dataclasses.replace(f, pixels=f.pixels + 0.01)
                for f in victim.frames
            ],
        )
        after = build_plan(pipeline, changed)
        for sid, node in before.fs_nodes.items():
            same = node.key == after.fs_nodes[sid].key
            assert same == (sid != victim.session_id)

    def test_session_digest_memoized_on_object(self):
        from repro.dataflow.graph import session_digest

        sessions = _sessions()
        digest = session_digest(sessions[0])
        assert sessions[0]._crowdmap_session_digest == digest
        assert session_digest(sessions[0]) == digest
