"""Dataflow planner: graph-level caching and fusion of the reconstruction.

Layered between ``vision`` and ``world``/``baselines`` in the CM010 DAG:
this package may import the vision kernels and ``core`` (both below it)
but not the backend (above it) — the backend surface arrives by
injection (:mod:`repro.dataflow.runtime`), wired by ``repro/__init__``.

Public surface:

- :class:`DataflowPlanner` / :func:`last_plan_report` — the executor and
  its node-execution telemetry.
- :func:`build_plan` and the key machinery in :mod:`repro.dataflow.graph`.
- :func:`repro.dataflow.identity.diff_reconstruction` — the artifact
  byte diff the planner-vs-cascade bit-identity tests gate on.
"""

from __future__ import annotations

from repro.dataflow.graph import ReconstructionPlan, build_plan
from repro.dataflow.planner import DataflowPlanner, PlanReport, last_plan_report
from repro.dataflow.runtime import PlannerRuntime, get_runtime, install_runtime

__all__ = [
    "DataflowPlanner",
    "PlanReport",
    "PlannerRuntime",
    "ReconstructionPlan",
    "build_plan",
    "get_runtime",
    "install_runtime",
    "last_plan_report",
]
