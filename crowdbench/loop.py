"""Open-loop request driver and the order statistics the reports use.

The driver plays a schedule of requests against the program in real
time on one thread, the way independent users arrive: a request is
started at its due time or, when the program is still busy with earlier
work, as soon as that work finishes. Latency runs from the due time, so
a stalled request shows up in the latency of every request queued
behind it, and the lag between due time and start time is reported on
its own so waiting can be told apart from service.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass(frozen=True)
class Request:
    """One scheduled call: ``run`` is due ``due`` seconds into the loop."""

    due: float
    kind: str
    run: Callable[[], object]


@dataclass
class Outcome:
    """What happened to one request (times in seconds from loop start)."""

    kind: str
    due: float
    start: float
    end: float
    result: object = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        """Due time to completion; a failed request never completes."""
        return self.end - self.due if self.ok else math.inf

    @property
    def service(self) -> float:
        return self.end - self.start

    @property
    def lag(self) -> float:
        return self.start - self.due


def run_open_loop(
    requests: Sequence[Request],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Outcome]:
    """Play ``requests`` in due-time order; one outcome per request.

    A request that raises is recorded as failed (its error text kept)
    and the loop moves on: one bad answer must not stop the schedule.
    """
    ordered = sorted(requests, key=lambda r: r.due)
    t0 = clock()
    outcomes: List[Outcome] = []
    for request in ordered:
        wait = request.due - (clock() - t0)
        if wait > 0:
            sleep(wait)
        start = clock() - t0
        result, error = None, None
        try:
            result = request.run()
        except Exception as exc:  # a failed request is a measured outcome
            error = f"{type(exc).__name__}: {exc}"
        end = clock() - t0
        outcomes.append(
            Outcome(request.kind, request.due, start, end, result, error)
        )
    return outcomes


def backlog_max(outcomes: Sequence[Outcome]) -> int:
    """Longest queue of due, unstarted requests, counting the one starting."""
    dues = [o.due for o in outcomes]
    return max(
        (bisect.bisect_right(dues, o.start) - i for i, o in enumerate(outcomes)),
        default=0,
    )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _beyond(n: int) -> int:
    return max(1, min(10, n // 10)) if n > 1 else 0


def tail(values: Sequence[float]) -> float:
    """The highest order statistic with ten samples above it.

    That is p99 at 1,000 samples and p98.75 at 800. Below 100 samples
    it keeps one sample above it per ten (at least one), so a handful of
    builds reports their p90-ish value rather than a lone outlier.
    """
    ordered = sorted(values)
    return float(ordered[len(ordered) - 1 - _beyond(len(ordered))])


def tail_label(n: int) -> str:
    """Which statistic :func:`tail` reports for ``n`` samples."""
    return f"p{100.0 * (n - _beyond(n)) / n:.2f} of {n}"
