"""CrowdMap: indoor floor plan reconstruction from crowdsourced
sensor-rich videos.

A from-scratch reproduction of *CrowdMap: Accurate Reconstruction of
Indoor Floor Plans from Crowdsourced Sensor-Rich Videos* (Chen, Li, Ren,
Qiao - ICDCS 2015), including every substrate the system needs offline:

- :mod:`repro.core` - the CrowdMap pipeline itself (key-frame selection,
  hierarchical comparison, sequence-based trajectory aggregation, floor
  path skeleton, panoramas, room layouts, floor plan assembly);
- :mod:`repro.vision` - pure-numpy computer vision (SURF, HOG, color
  indexing, wavelet signatures, stitching, LSD, Hough, Otsu, RANSAC);
- :mod:`repro.sensors` - IMU simulation, step counting, heading fusion,
  dead reckoning;
- :mod:`repro.world` - procedural ground-truth buildings, a raycasting
  renderer, and the simulated crowd;
- :mod:`repro.backend` - the client-cloud dataflow (chunked uploads,
  document store, queue, scheduler, worker pool);
- :mod:`repro.baselines` - the comparators from the paper's evaluation;
- :mod:`repro.eval` - the paper's metrics and report rendering.

Quickstart::

    from repro import CrowdMapPipeline, CrowdMapConfig
    from repro.world import build_lab1, generate_crowd_dataset, CrowdConfig

    plan = build_lab1()
    dataset = generate_crowd_dataset(plan, CrowdConfig(n_users=6, seed=0))
    result = CrowdMapPipeline(CrowdMapConfig()).run(dataset)
    print(result.floorplan.render_ascii())
"""

from repro.core import CrowdMapConfig, CrowdMapPipeline, ReconstructionResult


def _wire_dataflow() -> None:
    """Assemble the dataflow planner above both of its layers.

    ``repro.dataflow`` sits below ``backend`` in the CM010 layer DAG, so
    it cannot import the cache/worker/telemetry modules itself; and
    ``core`` sits below ``dataflow``, so the pipeline cannot import the
    planner. This unlayered package root sees everything: it injects the
    backend surface into the planner runtime and the planner into
    ``core``'s hook. Runs at import time, before any pipeline can be
    constructed — including in worker processes, which import
    ``repro.core`` and therefore this package root first.
    """
    from repro.backend import cache, workers
    from repro.backend.telemetry import default_registry
    from repro import dataflow
    from repro.core import pipeline as _pipeline

    dataflow.install_runtime(dataflow.PlannerRuntime(
        get_cache=cache.get_cache,
        frame_digest=cache.frame_digest,
        array_digest=cache.array_digest,
        config_fingerprint=cache.config_fingerprint,
        value_fingerprint=cache.value_fingerprint,
        map_with_failures=workers.map_with_failures,
        telemetry=default_registry,
    ))
    _pipeline.set_planner_factory(dataflow.DataflowPlanner)


_wire_dataflow()

__version__ = "1.0.0"

__all__ = [
    "CrowdMapConfig",
    "CrowdMapPipeline",
    "ReconstructionResult",
    "__version__",
]
