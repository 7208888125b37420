"""Tests for the simulated scheduler and the parallel map."""

import threading

import pytest

from repro.backend.scheduler import SimulatedScheduler
from repro.backend.workers import map_parallel


class TestScheduler:
    def test_job_fires_on_interval(self):
        sched = SimulatedScheduler()
        calls = []
        sched.add_job("tick", interval=10.0, callback=lambda: calls.append(sched.now))
        executed = sched.advance(35.0)
        assert executed == 3
        assert calls == [10.0, 20.0, 30.0]

    def test_delay_controls_first_run(self):
        sched = SimulatedScheduler()
        calls = []
        sched.add_job("t", interval=10.0, callback=lambda: calls.append(1), delay=1.0)
        sched.advance(2.0)
        assert calls == [1]

    def test_failures_recorded_and_job_survives(self):
        sched = SimulatedScheduler()

        def boom():
            raise RuntimeError("crash")

        job = sched.add_job("bad", interval=1.0, callback=boom)
        sched.advance(3.0)
        assert job.failures == 3
        assert job.runs == 3
        assert "crash" in job.last_error

    def test_max_failures_pauses(self):
        sched = SimulatedScheduler()

        def boom():
            raise RuntimeError("crash")

        job = sched.add_job("bad", interval=1.0, callback=boom, max_failures=2)
        sched.advance(10.0)
        assert job.failures == 2
        assert job.paused

    def test_pause_resume(self):
        sched = SimulatedScheduler()
        calls = []
        job = sched.add_job("t", interval=1.0, callback=lambda: calls.append(1))
        sched.advance(2.0)
        sched.pause_job(job.job_id)
        sched.advance(5.0)
        assert len(calls) == 2
        sched.resume_job(job.job_id)
        sched.advance(2.0)
        assert len(calls) == 4

    def test_jobs_fire_in_time_order(self):
        sched = SimulatedScheduler()
        order = []
        sched.add_job("slow", interval=3.0, callback=lambda: order.append("slow"))
        sched.add_job("fast", interval=1.0, callback=lambda: order.append("fast"))
        sched.advance(3.0)
        assert order == ["fast", "fast", "slow", "fast"] or order == [
            "fast", "fast", "fast", "slow",
        ]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SimulatedScheduler().add_job("x", interval=0.0, callback=lambda: None)

    def test_cannot_rewind(self):
        with pytest.raises(ValueError):
            SimulatedScheduler().advance(-1.0)

    def test_remove_job(self):
        sched = SimulatedScheduler()
        calls = []
        job = sched.add_job("t", interval=1.0, callback=lambda: calls.append(1))
        sched.remove_job(job.job_id)
        sched.advance(5.0)
        assert calls == []


class TestMapParallel:
    def test_preserves_order(self):
        result = map_parallel(lambda x: x * 2, list(range(20)), max_workers=4)
        assert result == [x * 2 for x in range(20)]

    def test_empty_input(self):
        assert map_parallel(lambda x: x, []) == []

    def test_single_worker_sequential(self):
        result = map_parallel(lambda x: x + 1, [1, 2, 3], max_workers=1)
        assert result == [2, 3, 4]

    def test_exception_propagates(self):
        def bad(x):
            if x == 3:
                raise ValueError("x=3")
            return x

        with pytest.raises(ValueError):
            map_parallel(bad, [1, 2, 3, 4], max_workers=2)

    def test_actually_parallel(self):
        barrier = threading.Barrier(4, timeout=5.0)

        def wait(x):
            barrier.wait()  # deadlocks unless 4 run concurrently
            return x

        assert map_parallel(wait, [1, 2, 3, 4], max_workers=4) == [1, 2, 3, 4]
