"""Repeatable performance harness for the hot paths (``python -m repro.bench``).

Three layers of benchmark:

- **kernel** micro-benchmarks time the vectorized vision primitives (HOG,
  Gaussian blur, 2-D convolution, SURF detection, descriptor matching,
  LSD) on seeded synthetic rasters;
- **serving** benchmarks time the map-serving layer's virtual-clock
  router on stub shards (per-request orchestration overhead);
- **fleet** benchmarks time the multi-node gossip fusion tier from
  slice ingest to a fully converged mesh (nodes x rounds smoke);
- **pipeline** benchmarks time :class:`~repro.core.pipeline.CrowdMapPipeline`
  end-to-end on a generated crowd dataset, both cache-cold and — to show
  what the content-addressed cache buys incremental re-runs — cache-warm.

Every timing is also reported *normalized* by a calibration measurement
(a fixed 256x256 matmul timed on the same machine, same process), so the
committed ``BENCH_baseline.json`` remains comparable across machines of
different speeds: CI regression checks compare normalized values, not raw
seconds.

Only monotonic ``time.perf_counter`` is read (crowdlint CM002: library
code must not read the wall clock), so reports carry no timestamps —
provenance lives in git history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.baseline import (
    load_json_report,
    update_baseline_file,
    write_json_report,
)

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Cheap kernel benchmarks get several timed repeats (median selection);
#: pipeline runs get 3 repeats with min-of-N selection — the minimum is
#: the least noisy estimator for a deterministic workload on a shared
#: box, and the per-repeat spread is recorded in the report artifact.
_KERNEL_REPEATS = 5
_PIPELINE_REPEATS = 3
#: Sub-100 ms scenarios (serving, fleet) ride closest to scheduler noise:
#: a single preempted repeat can double their median, which is exactly
#: the flakiness the committed baseline's 2.2x fleet outlier recorded.
#: They get five repeats with min-of-N select — for a deterministic
#: workload every microsecond above the minimum is interference.
_FAST_SCENARIO_REPEATS = 5


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's timing, raw and calibration-normalized."""

    name: str
    seconds: float
    normalized: float  # seconds / calibration_seconds
    repeats: int
    select: str = "median"          # "median" or "min" of the repeats
    spread: Tuple[float, ...] = ()  # every repeat's raw seconds

    def to_json(self) -> dict:
        payload = {
            "seconds": round(self.seconds, 6),
            "normalized": round(self.normalized, 3),
            "repeats": self.repeats,
        }
        if self.repeats > 1:
            payload["select"] = self.select
            payload["spread_seconds"] = [round(t, 6) for t in self.spread]
        return payload


def calibrate(repeats: int = 7) -> float:
    """Median time of a fixed 256x256 float64 matmul on this machine.

    The unit every benchmark is normalized into: a machine twice as fast
    runs both the calibration and the benchmarks twice as fast, keeping
    the normalized ratio stable across hardware.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    a @ b  # warm-up (thread pools, allocator)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _measure(
    fn: Callable[[], object], repeats: int, select: str = "median"
) -> Tuple[float, List[float]]:
    """``(selected, all_times)`` over ``repeats`` timed calls.

    ``median`` resists scheduler noise for cheap kernels that repeat many
    times; ``min`` is the right estimator for the expensive deterministic
    pipeline runs, where every microsecond above the minimum is
    interference, not workload.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    if select == "min":
        return float(min(times)), times
    return float(np.median(times)), times


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Median of ``repeats`` timed calls (median resists scheduler noise)."""
    return _measure(fn, repeats, "median")[0]


# ----------------------------------------------------------------------
# Kernel workloads (seeded, self-contained)
# ----------------------------------------------------------------------


def _synthetic_image(size: int = 128, channels: int = 3) -> np.ndarray:
    """A seeded raster with edge/blob structure so detectors find work."""
    rng = np.random.default_rng(42)
    yy, xx = np.mgrid[0:size, 0:size]
    base = (
        0.5
        + 0.25 * np.sin(xx / 7.0)
        + 0.25 * np.cos(yy / 11.0)
        + 0.1 * rng.standard_normal((size, size))
    )
    base = np.clip(base, 0.0, 1.0)
    if channels == 1:
        return base
    return np.stack([base, np.roll(base, 3, axis=0), np.roll(base, 3, axis=1)], axis=-1)


def _kernel_benches() -> List[Tuple[str, Callable[[], object], int]]:
    from repro.vision.filters import convolve2d, gaussian_blur
    from repro.vision.hog import hog_descriptor
    from repro.vision.image import to_grayscale
    from repro.vision.lsd import detect_line_segments
    from repro.vision.matching import match_descriptors
    from repro.vision.surf import detect_and_describe

    image = _synthetic_image(128)
    gray = to_grayscale(image)
    rng = np.random.default_rng(7)
    kernel5 = rng.standard_normal((5, 5))
    features = detect_and_describe(image, max_features=150)

    return [
        ("hog_descriptor_128", lambda: hog_descriptor(gray), _KERNEL_REPEATS),
        ("gaussian_blur_128", lambda: gaussian_blur(gray, 2.0), _KERNEL_REPEATS),
        ("convolve2d_5x5_128", lambda: convolve2d(gray, kernel5), _KERNEL_REPEATS),
        ("surf_detect_128", lambda: detect_and_describe(image), _KERNEL_REPEATS),
        (
            "match_descriptors_150",
            lambda: match_descriptors(features, features),
            _KERNEL_REPEATS,
        ),
        ("lsd_128", lambda: detect_line_segments(image), 3),
    ]


# ----------------------------------------------------------------------
# Pipeline workloads
# ----------------------------------------------------------------------


def _bench_dataset(profile: str):
    from repro.world.buildings import build_lab1
    from repro.world.crowd import CrowdConfig, generate_crowd_dataset

    if profile == "full":
        crowd = CrowdConfig(
            n_users=3, sws_per_user=2, srs_rooms_per_user=1, seed=11
        )
    else:
        crowd = CrowdConfig(
            n_users=2, sws_per_user=1, srs_rooms_per_user=1, seed=11
        )
    return generate_crowd_dataset(build_lab1(), crowd)


def _session_id(session) -> str:
    """Top-level no-op worker task (picklable) for transport benchmarks."""
    return session.session_id


def _pipeline_benches(profile: str) -> List[Tuple[str, Callable[[], object], int, str]]:
    from repro.backend.cache import ResultCache, set_cache
    from repro.core.config import AGGRESSIVE_PRESCREEN_THRESHOLD, CrowdMapConfig
    from repro.core.pipeline import CrowdMapPipeline
    from repro.backend.workers import map_parallel

    quick_dataset = _bench_dataset("quick")

    def cold_runner(dataset, config):
        def run():
            # Fresh cache: measures the pipeline, not memoization.
            set_cache(ResultCache(mode="memory"))
            return CrowdMapPipeline(config).run(dataset)
        return run

    def warm_runner(dataset, config):
        # Deliberately *not* resetting the cache: the preceding cold
        # scenario populated it, so this measures an incremental re-run.
        return lambda: CrowdMapPipeline(config).run(dataset)

    serial = CrowdMapConfig()
    n, sel = _PIPELINE_REPEATS, "min"
    benches: List[Tuple[str, Callable[[], object], int, str]] = [
        ("pipeline_lab1_quick", cold_runner(quick_dataset, serial), n, sel),
        ("pipeline_lab1_quick_cached_rerun", warm_runner(quick_dataset, serial), n, sel),
        # Same cold run fanned out over the process backend: "parallel"
        # ships frames as shared-memory handles (zero-copy transport),
        # "parallel_pickle" forces the serialized fallback — their gap is
        # what the shm arena buys end-to-end.
        (
            "pipeline_lab1_parallel",
            cold_runner(
                quick_dataset,
                CrowdMapConfig(worker_backend="process", worker_transport="shm"),
            ),
            n, sel,
        ),
        (
            "pipeline_lab1_parallel_pickle",
            cold_runner(
                quick_dataset,
                CrowdMapConfig(worker_backend="process", worker_transport="pickle"),
            ),
            n, sel,
        ),
        # Transport in isolation: fan the quick dataset's sessions out to
        # process workers that do no work, so the timing is purely
        # executor + frame transport (the paper's Spark shuffle analog).
        (
            "frames_transport_shm",
            lambda: map_parallel(
                _session_id, quick_dataset.sessions,
                max_workers=4, backend="process", transport="shm",
            ),
            3, "median",
        ),
        (
            "frames_transport_pickle",
            lambda: map_parallel(
                _session_id, quick_dataset.sessions,
                max_workers=4, backend="process", transport="pickle",
            ),
            3, "median",
        ),
    ]
    if profile == "full":
        full_dataset = _bench_dataset("full")
        benches += [
            ("pipeline_lab1_full", cold_runner(full_dataset, serial), n, sel),
            (
                "pipeline_lab1_full_cached_rerun",
                warm_runner(full_dataset, serial),
                n, sel,
            ),
            # The aggressive profile, cache-cold: the key-frame pre-screen
            # thins frames before the HOG chain. Gated by the
            # accuracy-band grid (repro.eval --check), not bit-identity —
            # this scenario is the speed half of that contract.
            (
                "pipeline_lab1_aggressive",
                cold_runner(full_dataset, CrowdMapConfig(
                    keyframe_prescreen_threshold=AGGRESSIVE_PRESCREEN_THRESHOLD,
                )),
                n, sel,
            ),
        ]
    return benches


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


def _serving_benches() -> List[Tuple[str, Callable[[], object], int, str]]:
    """Throughput of the serving layer's virtual-clock machinery.

    Stub snapshots + modeled service times: the benchmark measures the
    router/event-loop overhead per request (admission, dispatch, hedging,
    telemetry), not reconstruction or handler cost.
    """
    from repro.serving import (
        LoadProfile,
        ServingConfig,
        ShardManager,
        run_serving_simulation,
    )

    def run_throughput():
        manager = ShardManager(n_replicas=2)
        for building in ("Lab1", "Lab2", "Gym"):
            manager.shard_for(building, 1).publish_stub(0.0)
        report = run_serving_simulation(
            manager,
            config=ServingConfig(seed=0),
            profile=LoadProfile(duration=60.0, qps=120.0, seed=0),
        )
        assert report["requests"]["offered"] > 6000
        return report

    return [
        ("serving_throughput", run_throughput, _FAST_SCENARIO_REPEATS, "min")
    ]


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------


def _fleet_benches() -> List[Tuple[str, Callable[[], object], int, str]]:
    """Gossip convergence cost of the multi-node fusion tier.

    The crowd is generated once outside the timer (sensor-only, so it is
    cheap but still not the thing under test); the timed region is the
    fleet hot path — node construction, slice ingest, and anti-entropy
    rounds until every node's fused map is bit-identical to the union.
    """
    from repro.fleet import FleetNode, GossipConfig, GossipMesh
    from repro.fleet.sim import FleetSimConfig, build_fleet_crowd
    from repro.world.scenarios import slice_sessions

    config = FleetSimConfig(
        buildings=("Lab1",), n_nodes=4, users_per_building=2, max_rounds=64
    )
    sessions, _plans = build_fleet_crowd(config)

    def run_convergence():
        nodes = [
            FleetNode(node_id, config=config.evidence)
            for node_id in config.node_ids()
        ]
        slices = slice_sessions(
            sessions, config.n_nodes, overlap=config.overlap, seed=config.seed
        )
        for node, node_sessions in zip(nodes, slices):
            for session in node_sessions:
                node.ingest_session(session)
        mesh = GossipMesh(nodes, config=GossipConfig(seed=config.seed))
        for round_number in range(1, config.max_rounds + 1):
            mesh.run_round(float(round_number))
            if mesh.converged():
                break
        assert mesh.converged()
        return mesh

    return [
        ("fleet_convergence", run_convergence, _FAST_SCENARIO_REPEATS, "min")
    ]


# ----------------------------------------------------------------------
# Suite driver + baseline comparison
# ----------------------------------------------------------------------


def run_suite(
    profile: str = "quick",
    include: Optional[List[str]] = None,
    log: Callable[[str], None] = lambda line: None,
) -> dict:
    """Run the benchmark suite and return the JSON-ready report dict."""
    if profile not in ("quick", "full"):
        raise ValueError(f"profile must be 'quick' or 'full', got {profile!r}")
    calibration = calibrate()
    log(f"calibration: {calibration * 1e3:.3f} ms (256x256 matmul)")
    benches = (
        _kernel_benches()
        + _serving_benches()
        + _fleet_benches()
        + _pipeline_benches(profile)
    )
    results: Dict[str, BenchResult] = {}
    for bench in benches:
        name, fn, repeats = bench[0], bench[1], bench[2]
        select = bench[3] if len(bench) > 3 else "median"
        if include and name not in include:
            continue
        seconds, spread = _measure(fn, repeats, select)
        result = BenchResult(
            name=name,
            seconds=seconds,
            normalized=seconds / calibration,
            repeats=repeats,
            select=select,
            spread=tuple(spread),
        )
        results[name] = result
        jitter = (max(spread) - min(spread)) * 1e3 if repeats > 1 else 0.0
        log(
            f"{name:40s} {seconds * 1e3:10.2f} ms   "
            f"(normalized {result.normalized:9.1f}, n={repeats}, "
            f"{select}, spread {jitter:.2f} ms)"
        )
    return {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "calibration_seconds": round(calibration, 8),
        "benchmarks": {name: r.to_json() for name, r in results.items()},
    }


def _short_path(path: str) -> str:
    """Trim machine-specific prefixes so profile rows diff across hosts."""
    normalized = path.replace("\\", "/")
    for marker in ("/site-packages/", "/src/", "/lib/"):
        idx = normalized.find(marker)
        if idx >= 0:
            return normalized[idx + len(marker):]
    return normalized


def profile_scenario(
    name: str,
    top_n: int = 30,
    log: Callable[[str], None] = lambda line: None,
) -> dict:
    """Per-kernel cumulative-time breakdown of one benchmark scenario.

    Runs the scenario once unprofiled (imports, thread pools, allocator
    warm-up), then once under :mod:`cProfile`, and returns the ``top_n``
    rows by cumulative time. Rows are ordered by (cumtime desc, tottime
    desc, location asc) — fully deterministic for a given timing run, so
    two reports diff cleanly. This is the "start from data" entry point
    for cold-path work: ``python -m repro.bench --profile
    pipeline_lab1_full``; the CI bench job uploads the JSON as an
    artifact so every run leaves a breakdown behind.
    """
    import cProfile
    import pstats

    benches = (
        _kernel_benches()
        + _serving_benches()
        + _fleet_benches()
        + _pipeline_benches("full")
    )
    table = {bench[0]: bench[1] for bench in benches}
    if name not in table:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    fn = table[name]
    fn()  # warm-up run: imports and pools, not the thing under test
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    for location, row in stats.stats.items():
        filename, lineno, funcname = location
        cc, nc, tt, ct, _callers = row
        rows.append({
            "function": f"{_short_path(filename)}:{lineno}({funcname})",
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_seconds": round(tt, 6),
            "cumtime_seconds": round(ct, 6),
        })
    rows.sort(
        key=lambda r: (
            -r["cumtime_seconds"], -r["tottime_seconds"], r["function"]
        )
    )
    rows = rows[:top_n]
    log(f"profile: {name} (top {len(rows)} by cumulative time)")
    log(f"{'cumtime':>10s} {'tottime':>10s} {'ncalls':>10s}  function")
    for row in rows:
        log(
            f"{row['cumtime_seconds']:10.4f} {row['tottime_seconds']:10.4f} "
            f"{row['ncalls']:10d}  {row['function']}"
        )
    return {
        "schema": SCHEMA_VERSION,
        "scenario": name,
        "top_n": top_n,
        "rows": rows,
    }


#: Absolute slack (normalized units, ~1 calibration matmul each) added to
#: every regression budget. Scenarios the graph cache collapses to
#: sub-millisecond lookups sit below timer/scheduler noise, where a
#: purely relative tolerance flags 0.1 ms of jitter as an 85% regression;
#: the floor keeps the gate meaningful for them without loosening it for
#: scenarios whose budget is already thousands of normalized units.
NOISE_FLOOR_NORMALIZED = 2.0


def compare_to_baseline(
    report: dict, baseline: dict, tolerance: float = 0.25
) -> List[str]:
    """Normalized-time regressions beyond ``tolerance``, human-readable.

    Only benchmarks present in both reports are compared; an empty list
    means the run is within budget. The budget is relative
    (``tolerance``) plus the absolute :data:`NOISE_FLOOR_NORMALIZED`, so
    near-zero baselines cannot fail on timer jitter alone.
    """
    problems: List[str] = []
    base_marks = baseline.get("benchmarks", {})
    for name, current in report.get("benchmarks", {}).items():
        base = base_marks.get(name)
        if base is None:
            continue
        allowed = (
            base["normalized"] * (1.0 + tolerance) + NOISE_FLOOR_NORMALIZED
        )
        if current["normalized"] > allowed:
            problems.append(
                f"{name}: normalized {current['normalized']:.1f} exceeds "
                f"baseline {base['normalized']:.1f} "
                f"(+{(current['normalized'] / base['normalized'] - 1) * 100:.0f}%, "
                f"tolerance {tolerance * 100:.0f}%)"
            )
    return problems


def load_report(path: str) -> dict:
    return load_json_report(path, SCHEMA_VERSION)


def write_report(report: dict, path: str) -> None:
    write_json_report(report, path)


def update_baseline(path: str, report: dict) -> dict:
    """Rewrite the bench baseline, preserving its ``pre_pr*`` records."""
    return update_baseline_file(path, report, SCHEMA_VERSION)
