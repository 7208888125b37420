"""Backend telemetry: counters, gauges and latency histograms.

A cloud pipeline ingesting crowdsourced uploads needs observability —
which stage is slow, how many uploads failed CRC, how deep is the queue.
This registry provides the standard trio (counter / gauge / histogram)
with thread-safe updates and a text scrape, and a timer context manager
the pipeline stages can wrap themselves in.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

_DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)


class Counter:
    """Monotonically increasing counter."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, workers busy)."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus-style) plus sum/count.

    Besides the buckets, every observation is retained verbatim so
    :meth:`percentile` can report *exact* sample quantiles — the serving
    SLO tracker promises p99 numbers, and a bucket-boundary approximation
    would round an SLO violation away (or invent one). Observation
    volumes here are bounded by simulation length, so retention is cheap.
    """

    def __init__(self, name: str, help_text: str = "",
                 buckets: Tuple[float, ...] = _DEFAULT_BUCKETS):
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last = +inf
        self._sum = 0.0
        self._count = 0
        self._samples: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Exact ``q``-th percentile of the raw samples, ``q`` in [0, 100].

        Linear interpolation between closest ranks — the same definition
        as ``numpy.percentile``'s default method, so SLO reports agree
        with any offline analysis of the same latencies.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, float]:
        """Count, mean and the standard latency percentiles (p50/p95/p99)."""
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket boundaries."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        target = q * self._count
        running = 0
        for idx, bucket_count in enumerate(self._counts):
            running += bucket_count
            if running >= target:
                if idx < len(self.buckets):
                    return self.buckets[idx]
                return self.buckets[-1]
        return self.buckets[-1]


class TelemetryRegistry:
    """Named metric registry with a text scrape."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, help_text, Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, help_text, Gauge)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get_or_create(name, help_text, Histogram)

    def _get_or_create(self, name, help_text, kind):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = kind(name, help_text)
            self._metrics[name] = metric
            return metric

    @contextmanager
    def timer(self, name: str):
        """Time a block into the named histogram (seconds)."""
        histogram = self.histogram(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - start)

    def value(self, name: str) -> float:
        """Current value of a counter/gauge (0.0 when never registered).

        Chaos tests assert exact fault counts through this without having
        to pre-register every metric they might read.
        """
        with self._lock:
            metric = self._metrics.get(name)
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        if isinstance(metric, Histogram):
            return float(metric.count)
        return 0.0

    def reset(self) -> None:
        """Drop every metric (test isolation for the process-wide registry)."""
        with self._lock:
            self._metrics.clear()

    def scrape(self) -> str:
        """Plain-text dump of every metric, stable-ordered."""
        lines: List[str] = []
        with self._lock:
            items = sorted(self._metrics.items())
        for name, metric in items:
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name} {metric.value:g}")
            elif isinstance(metric, Histogram):
                lines.append(
                    f"{name}_count {metric.count} "
                    f"{name}_sum {metric.total:.6g} "
                    f"{name}_p50 {metric.quantile(0.5):g} "
                    f"{name}_p99 {metric.quantile(0.99):g}"
                )
        return "\n".join(lines)


#: Process-wide default registry (import and use directly).
default_registry = TelemetryRegistry()
