"""Injected backend handles for the dataflow planner (layer inversion).

``repro.dataflow`` sits between ``vision`` and ``world``/``baselines`` in
the CM010 layer DAG — *below* ``backend`` — so it must not import the
cache, telemetry or worker modules upward. The unlayered package root
(``repro/__init__``) sees both sides; it constructs a
:class:`PlannerRuntime` from the backend's public handles and installs it
here at import time. This is the same dependency inversion
``baselines.single_image`` uses for its injectable mapper: the planner
declares *what* it needs (content digests, a result cache, a worker map)
and the assembler above both layers supplies *how*.

Every handle is the exact backend function the legacy cascade uses, so
planner cache keys are interchangeable with the cascade's: a ``hog`` or
``surf`` entry written by one is a hit for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class PlannerRuntime:
    """The backend surface the planner runs against.

    ``get_cache``/``frame_digest``/``array_digest``/``config_fingerprint``
    /``value_fingerprint`` come from ``repro.backend.cache``;
    ``map_with_failures`` from ``repro.backend.workers``.
    """

    get_cache: Callable[[], Any]
    frame_digest: Callable[[Any], str]
    array_digest: Callable[[Any], str]
    config_fingerprint: Callable[..., str]
    value_fingerprint: Callable[..., str]
    map_with_failures: Callable[..., Any]


_runtime: Optional[PlannerRuntime] = None


def install_runtime(runtime: PlannerRuntime) -> None:
    """Install the backend surface (called by ``repro/__init__``)."""
    global _runtime
    _runtime = runtime


def get_runtime() -> PlannerRuntime:
    """The installed runtime; raises when the package root never wired one."""
    if _runtime is None:
        raise RuntimeError(
            "repro.dataflow runtime not installed — import the 'repro' "
            "package root (it wires the backend handles in) instead of "
            "importing repro.dataflow modules standalone"
        )
    return _runtime
