import math

import pytest

from crowdbench.loop import Request, backlog_max, run_open_loop, tail, tail_label


class VirtualClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def work(self, seconds: float):
        def run():
            self.now += seconds
            return seconds
        return run


def test_stall_shows_up_in_the_latency_of_later_requests():
    # Time unit: 10 ms, so every instant below is exact in binary.
    clock = VirtualClock()
    requests = [
        Request(float(i), "q", clock.work(10.0 if i == 1 else 0.125))
        for i in range(20)
    ]
    outcomes = run_open_loop(requests, clock=clock, sleep=clock.sleep)

    assert outcomes[0].latency == 0.125
    assert outcomes[1].latency == 10.0
    # Request 2 was due at 2 but could only start when the stalled
    # request finished at 11: its latency counts the wait.
    assert outcomes[2].lag == 9.0
    assert outcomes[2].latency == 9.125
    assert outcomes[2].service == 0.125
    # The queue drains 0.125 of work per 1.0 of arrivals, so each later
    # request waits less, until request 13 finds the system idle.
    waits = [o.lag for o in outcomes[2:13]]
    assert waits == sorted(waits, reverse=True) and waits[-1] > 0
    assert outcomes[13].lag == 0.0
    # Requests 2..11 were all due by 11, when request 2 started.
    assert backlog_max(outcomes) == 10


def test_idle_system_has_no_lag():
    clock = VirtualClock()
    requests = [Request(i * 0.01, "q", clock.work(0.001)) for i in range(5)]
    outcomes = run_open_loop(requests, clock=clock, sleep=clock.sleep)
    assert [o.lag for o in outcomes] == pytest.approx([0.0] * 5)
    assert backlog_max(outcomes) == 1


def test_failed_request_is_recorded_and_the_schedule_goes_on():
    clock = VirtualClock()

    def boom():
        raise KeyError("room")

    requests = [Request(0.0, "q", clock.work(0.001)), Request(0.01, "q", boom),
                Request(0.02, "q", clock.work(0.001))]
    outcomes = run_open_loop(requests, clock=clock, sleep=clock.sleep)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert math.isinf(outcomes[1].latency)
    assert "KeyError" in outcomes[1].error


def test_requests_run_in_due_order():
    clock = VirtualClock()
    order = []
    requests = [Request(due, str(due), lambda due=due: order.append(due))
                for due in (0.3, 0.1, 0.2)]
    run_open_loop(requests, clock=clock, sleep=clock.sleep)
    assert order == [0.1, 0.2, 0.3]


def test_tail_keeps_ten_samples_above_it():
    values = list(range(1000))
    assert tail(values) == 989          # p99: 990..999 lie above it
    assert tail_label(1000) == "p99.00 of 1000"
    assert tail(list(range(800))) == 789
    assert tail(list(range(6))) == 4    # one sample above below 100 samples
    assert tail([7.0]) == 7.0
