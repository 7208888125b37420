"""Fault-injection substrate tests: session injectors and the link model."""

import numpy as np
import pytest

from tests.fault_injection import FaultInjector


class TestFaultInjector:
    def test_plan_is_deterministic(self):
        ids = [f"s{i}" for i in range(20)]
        a = FaultInjector(seed=5, fault_rate=0.25).plan(ids)
        b = FaultInjector(seed=5, fault_rate=0.25).plan(ids)
        assert a == b
        assert len(a) == 5  # round(0.25 * 20)

    def test_plan_respects_rate(self):
        ids = [f"s{i}" for i in range(10)]
        assert FaultInjector(seed=0, fault_rate=0.0).plan(ids) == []
        assert len(FaultInjector(seed=0, fault_rate=1.0).plan(ids)) == 10

    def test_different_seeds_differ(self):
        ids = [f"s{i}" for i in range(40)]
        a = FaultInjector(seed=1, fault_rate=0.5).plan(ids)
        b = FaultInjector(seed=2, fault_rate=0.5).plan(ids)
        assert a != b

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            FaultInjector(fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(kinds=("not_a_fault",))
        with pytest.raises(ValueError):
            FaultInjector(kinds=())

    def test_corrupt_session_frames(self, sws_session):
        faulted = FaultInjector(seed=0).corrupt_session_frames(
            sws_session, fraction=0.5
        )
        n_bad = sum(
            not np.all(np.isfinite(f.pixels)) for f in faulted.frames
        )
        assert n_bad == max(1, round(0.5 * len(sws_session.frames)))
        # Fixture frames stay pristine (session-scoped, shared).
        assert all(np.all(np.isfinite(f.pixels)) for f in sws_session.frames)

    def test_truncate_session_imu(self, sws_session):
        faulted = FaultInjector(seed=0).truncate_session_imu(
            sws_session, keep_fraction=0.5
        )
        assert len(faulted.imu.samples) == len(sws_session.imu.samples) // 2


class TestLinkFaultModel:
    def test_default_link_always_delivers(self):
        from repro.backend.faults import LinkFaultModel

        link = LinkFaultModel()
        assert all(
            link.delivers("a", "b", tick, now=0.0) for tick in range(50)
        )

    def test_loss_is_deterministic_and_roughly_calibrated(self):
        from repro.backend.faults import LinkFaultModel

        link = LinkFaultModel(seed=3, loss_rate=0.3)
        outcomes = [link.delivers("a", "b", tick, 0.0) for tick in range(400)]
        again = [link.delivers("a", "b", tick, 0.0) for tick in range(400)]
        assert outcomes == again
        dropped = outcomes.count(False)
        assert 60 <= dropped <= 180  # ~120 expected at p=0.3

    def test_latency_is_bounded_and_replayable(self):
        from repro.backend.faults import LinkFaultModel

        link = LinkFaultModel(base_latency=0.05, latency_jitter=0.02)
        for tick in range(20):
            delay = link.latency("a", "b", tick)
            assert delay == link.latency("a", "b", tick)
            assert 0.05 <= delay <= 0.07

    def test_partition_blocks_cross_group_both_ways(self):
        from repro.backend.faults import LinkFaultModel, Partition

        partition = Partition(
            start=1.0, end=5.0, groups=(("a",), ("b", "c"))
        )
        link = LinkFaultModel(partitions=(partition,))
        assert link.delivers("a", "b", 0, now=0.5)  # before the window
        assert not link.delivers("a", "b", 1, now=1.0)
        assert not link.delivers("b", "a", 1, now=4.9)
        assert link.delivers("b", "c", 1, now=2.0)  # same side
        assert link.delivers("a", "b", 2, now=5.0)  # healed (end exclusive)

    def test_unlisted_nodes_form_their_own_component(self):
        from repro.backend.faults import Partition

        partition = Partition(start=0.0, end=1.0, groups=(("a",), ("b",)))
        assert partition.blocks("a", "zz", now=0.0)
        assert not partition.blocks("zz", "yy", now=0.0)

    def test_link_model_validation(self):
        from repro.backend.faults import LinkFaultModel

        with pytest.raises(ValueError):
            LinkFaultModel(loss_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaultModel(base_latency=-0.1)
        with pytest.raises(ValueError):
            LinkFaultModel(latency_jitter=-0.01)
