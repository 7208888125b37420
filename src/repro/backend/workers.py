"""Worker pool for parallel pipeline stages (Spark stand-in).

The paper "leverage[s] PySpark with MLlib ... to accelerate the process of
user trajectories aggregation". The equivalent here is a pluggable-backend
:func:`map_parallel` for embarrassingly parallel stages (trajectory pair
scoring, per-room layout generation) plus a thread pool that drains a
:class:`~repro.backend.queue.TaskQueue` through per-kind handlers.

Two map backends, both in the caller's address space, so no frame is
ever copied to another process (the paper's Spark executors likewise
keep frames local):

- ``"serial"`` — plain loop in the calling thread. With the vectorized
  kernels most stages are memory-bound numpy; on small fan-outs this
  beats the pool.
- ``"thread"`` — a thread pool. Only pays off where numpy actually
  releases the GIL for long stretches. Workers share the caller's
  objects, so worker code must not mutate shared state (crowdlint
  CM011).

Failure semantics are backend-independent: a queue handler exception
nacks the task, which the queue retries with backoff until it
dead-letters; :func:`map_parallel` defaults to fail-fast
(``on_error="raise"``) but can shed bad items (``on_error="skip"``), and
:func:`map_with_failures` reports every failure with its input index so
the pipeline can quarantine exactly the sessions that broke — under
either backend.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.backend.queue import Task, TaskQueue
from repro.backend.telemetry import TelemetryRegistry, default_registry

T = TypeVar("T")
R = TypeVar("R")

#: Valid values for the ``backend`` argument / ``worker_backend`` config.
MAP_BACKENDS = ("serial", "thread")


def _attempt(function: Callable[[T], R], item: T) -> Tuple[bool, Any]:
    """``(True, result)`` or ``(False, exception)`` for one item.

    The encoding keeps results and exceptions in input order without
    raising out of a pool worker.
    """
    try:
        return True, function(item)
    except Exception as exc:  # noqa: BLE001  # crowdlint: allow[CM003] the (ok, exc) encoding defers the raise/skip/quarantine decision to the caller, which re-raises under on_error="raise"
        return False, exc


def _execute(
    function: Callable[[T], R],
    items: Sequence[T],
    max_workers: int,
    backend: str,
) -> List[Tuple[bool, Any]]:
    """Run ``function`` over ``items`` on the chosen backend.

    Returns ``(ok, value_or_exception)`` per item, in input order — the
    shared core of :func:`map_parallel` and :func:`map_with_failures`.
    """
    if backend not in MAP_BACKENDS:
        raise ValueError(
            f"backend must be one of {MAP_BACKENDS}, got {backend!r}"
        )
    if backend == "serial" or max_workers <= 1 or len(items) == 1:
        return [_attempt(function, item) for item in items]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(lambda item: _attempt(function, item), items))


def map_parallel(
    function: Callable[[T], R],
    items: Sequence[T],
    max_workers: int = 4,
    on_error: str = "raise",
    telemetry: Optional[TelemetryRegistry] = None,
    backend: str = "thread",
) -> List[R]:
    """Apply ``function`` to every item in parallel, preserving order.

    With ``on_error="raise"`` exceptions propagate to the caller,
    matching the fail-fast behaviour of a Spark job with a failing
    partition. With ``on_error="skip"`` the failing items are dropped
    from the result (survivor order preserved) and counted in the
    ``map_parallel_items_skipped`` telemetry counter — the mode the
    pipeline's fault-tolerant stages use to shed corrupt sessions.

    ``backend`` selects serial or thread-pool execution (see module
    docstring); semantics are identical across backends.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if not items:
        return []

    registry = telemetry or default_registry
    results: List[R] = []
    for ok, value in _execute(function, items, max_workers, backend):
        if ok:
            results.append(value)
        elif on_error == "raise":
            raise value
        else:
            registry.counter(
                "map_parallel_items_skipped",
                "items dropped by map_parallel(on_error='skip')",
            ).inc()
    return results


def map_with_failures(
    function: Callable[[T], R],
    items: Sequence[T],
    max_workers: int = 4,
    backend: str = "thread",
) -> Tuple[List[Tuple[int, R]], List[Tuple[int, Exception]]]:
    """Like ``map_parallel(on_error="skip")`` but the failures come back.

    Returns ``(successes, failures)`` where each entry is paired with the
    item's original index, so callers that must *report* which items were
    quarantined (rather than silently shedding them) can reconstruct
    both streams in input order. ``backend`` behaves as in
    :func:`map_parallel`; quarantine semantics are the same under both
    backends.
    """
    if not items:
        return [], []
    successes: List[Tuple[int, R]] = []
    failures: List[Tuple[int, Exception]] = []
    for idx, (ok, value) in enumerate(
        _execute(function, items, max_workers, backend)
    ):
        if ok:
            successes.append((idx, value))
        else:
            failures.append((idx, value))
    return successes, failures


class WorkerPool:
    """Threads draining a task queue through registered handlers."""

    def __init__(
        self,
        queue: TaskQueue,
        n_workers: int = 2,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.queue = queue
        self.n_workers = n_workers
        self.telemetry = telemetry or default_registry
        self._handlers: Dict[str, Callable[[Any], Any]] = {}
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    def register(self, kind: str, handler: Callable[[Any], Any]) -> None:
        """Route tasks of ``kind`` to ``handler(payload) -> result``."""
        self._handlers[kind] = handler

    def _run_one(self, task: Task) -> None:
        handler = self._handlers.get(task.kind)
        if handler is None:
            self.queue.nack(task.task_id, error=f"no handler for kind {task.kind!r}")
            return
        try:
            with self.telemetry.timer(f"worker_{task.kind}_seconds"):
                result = handler(task.payload)
        except Exception as exc:  # noqa: BLE001 - worker must survive bad tasks
            self.telemetry.counter("worker_task_failures").inc()
            self.telemetry.counter(
                f"worker_{task.kind}_failures",
                "failed handler attempts for this task kind",
            ).inc()
            self.queue.nack(task.task_id, error=f"{type(exc).__name__}: {exc}")
        else:
            self.telemetry.counter("worker_tasks_done").inc()
            self.telemetry.histogram(
                "task_attempts_to_success",
                "attempts a task needed before acking",
            ).observe(task.attempts)
            self.queue.ack(task.task_id, result=result)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            task = self.queue.lease(timeout=0.05)
            if task is not None:
                self._run_one(task)

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("pool already started")
        self._stop.clear()
        for i in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def drain(self, poll_interval: float = 0.01, timeout: float = 30.0) -> None:
        """Block until every submitted task settles (done or dead)."""
        deadline = time.monotonic() + timeout
        while not self.queue.all_settled():
            if time.monotonic() > deadline:
                raise TimeoutError("worker pool did not drain in time")
            time.sleep(poll_interval)

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
