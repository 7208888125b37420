"""CrowdMap benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 crowdbench/run.py --workload cold_build --seed 11 --seconds 20
    python3 crowdbench/run.py --workload all --seed 11
    python3 crowdbench/run.py --workload live --trace 1 --trace-dir traces/
    python3 crowdbench/run.py --profile serve_read
    python3 crowdbench/run.py compare base-*.json -- change-*.json

``BENCHMARK.json`` at the repository root names the workloads, why each
exists, and every metric with its unit, direction and bound. A run
builds its inputs from ``--seed`` (never timed), sets the system up,
measures for ``--seconds`` of wall-clock time, checks the outputs, and
prints one JSON object as its last line::

    {"correct": true, "attempted": 812, "failed": 0,
     "metrics": {"op_p50_ms": {"value": 1.93, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` a separate traced measurement gives the
per-layer ones (see ``crowdbench/layers.py``). The exit code is 1 when a
correctness check fails.

End-to-end metrics, for every workload's timed operation (a cold build,
a query, an upload until its map version is published, a converged
mesh):

- ``setup_s``: importing the program, the one-off set-up (the serving
  workloads build and publish their maps) and the median of three
  warm-up operations;
- ``op_p50_ms``: median latency; queries and uploads are timed from
  their due time;
- ``capacity_per_s``: operations per second of busy time, the rate one
  back-to-back client would get;
- ``peak_rss_mb``: the process's peak resident memory while measuring.

The tail latency (the highest order statistic with ten samples above
it, see ``crowdbench/loop.py``) is printed and saved in the report, and
the query tail is the per-layer ``serving.query.tail_ms``. It carries no
bound: on a shared two-core host it moves with the neighbours' load by
more than any bound the contract allows.

Every workload runs single-threaded in its own process with the
``CROWDMAP_*`` variables removed, so the shipped default profile is what
gets measured. Rendered worlds are cached under ``.crowdbench_cache``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def _isolate() -> None:
    """Measure the shipped defaults, single-threaded, on this checkout.

    Runs before numpy is imported: ``CROWDMAP_*`` switches are dropped,
    numeric libraries get one thread each, and the checkout's ``src``
    and root go first on the import path. Child processes inherit the
    environment.
    """
    for name in [n for n in os.environ if n.startswith("CROWDMAP_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _parser(spec: dict) -> argparse.ArgumentParser:
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 crowdbench/run.py",
        description=(
            "Run one CrowdMap benchmark workload and print its metrics; the "
            "last stdout line is the JSON result. 'run.py compare A.. -- B..' "
            "compares saved reports."
        ),
    )
    parser.add_argument("--workload", choices=workloads + ["all"],
                        help="workload to run ('all' runs each in turn, each "
                        "in its own process)")
    parser.add_argument("--seed", type=int, default=11,
                        help="input seed (default 11)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="wall-clock measuring budget (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--trace-dir", type=Path,
                        help="with --trace 1, write spans.jsonl and the "
                        "Chrome trace (trace.json) here")
    parser.add_argument("--output", type=Path,
                        help="write the full report (inputs digest, details) "
                        "as JSON; with --workload all, one file per workload "
                        "named <stem>.<workload>.json")
    parser.add_argument("--profile", choices=workloads, metavar="WORKLOAD",
                        help="cProfile one timed operation of WORKLOAD and "
                        "print the top functions by cumulative time "
                        "(--output writes the pstats dump)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, not the program")
    parser.add_argument("--cache-dir", type=Path,
                        default=ROOT / ".crowdbench_cache",
                        help="where rendered worlds are cached")
    return parser


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def _reset_peak_rss() -> None:
    """Restart the kernel's resident high-water mark (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def _metric_block(values: Dict[str, float], defs: List[dict]) -> Dict[str, dict]:
    names = [d["name"] for d in defs]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(names))} disagree with "
            f"{SPEC_PATH.name}"
        )
    return {
        d["name"]: {
            "value": values[d["name"]] if math.isfinite(values[d["name"]]) else None,
            "unit": d["unit"],
        }
        for d in defs
    }


def run_one(args, spec: dict) -> int:
    t0 = time.perf_counter()
    from crowdbench import loop, workloads
    import_s = time.perf_counter() - t0
    from crowdbench.worlds import WorldCache

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    cache = WorldCache(args.cache_dir, ROOT / "src")
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, cache)
    digest = wl.prepare()
    t0 = time.perf_counter()
    wl.setup()
    once_s = time.perf_counter() - t0
    warm = [wl.warmup() for _ in range(3)]
    setup = {"import_s": import_s, "once_s": once_s,
             "warmup_median_s": loop.median(warm)}
    setup_s = sum(setup.values())

    problems: List[str] = []
    if args.trace:
        from repro.backend.telemetry import default_registry

        from crowdbench.layers import CACHE_COUNTERS, TARGETS, layer_metrics
        from crowdbench.tracer import Tracer, self_times

        # Untraced and traced warm-ups back to back, so the machine's own
        # drift between them stays small next to the tracing cost, and in
        # alternating order, so neither side always runs second.
        ratios = []
        for pair in range(4):
            if pair % 2:
                with Tracer(TARGETS).installed():
                    traced = wl.warmup()
                plain = wl.warmup()
            else:
                plain = wl.warmup()
                with Tracer(TARGETS).installed():
                    traced = wl.warmup()
            ratios.append(traced / plain)
        overhead = loop.median(ratios)
        tracer = Tracer(TARGETS)
        before = {c: default_registry.value(c) for c in CACHE_COUNTERS}
        t0 = time.perf_counter()
        with tracer.installed():
            m = wl.measure(args.seconds)
        wall = time.perf_counter() - t0
        counters = {c: default_registry.value(c) - before[c] for c in CACHE_COUNTERS}
        values = layer_metrics(
            tracer.spans, len(m.latencies_ms), counters, m.details, overhead
        )
        busy = sum(self_times(tracer.spans).values())
        if busy > wall:
            problems.append(f"span self times {busy:.3f}s exceed wall {wall:.3f}s")
        if args.trace_dir:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(str(args.trace_dir / "spans.jsonl"))
            tracer.write_chrome(str(args.trace_dir / "trace.json"))
        metrics = _metric_block(values, spec["per_layer"])
    else:
        _reset_peak_rss()
        m = wl.measure(args.seconds)
        lat = m.latencies_ms
        values = {
            "setup_s": setup_s,
            "op_p50_ms": loop.median(lat),
            "capacity_per_s": (len(m.service_s) / sum(m.service_s)
                               if m.service_s else 0.0),
            "peak_rss_mb": _peak_rss_mb(),
        }
        m.details["op_tail_ms"] = loop.tail(lat)
        print(
            f"{args.workload} seed={args.seed}: n={len(lat)} "
            f"p50 {values['op_p50_ms']:.3f} ms, tail "
            f"({loop.tail_label(len(lat))}) {m.details['op_tail_ms']:.3f} ms, "
            f"capacity {values['capacity_per_s']:.3f}/s, setup "
            f"{setup_s:.3f} s, peak RSS {values['peak_rss_mb']:.0f} MB"
        )
        metrics = _metric_block(values, spec["end_to_end"])

    problems += wl.verify(m)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    if args.output:
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "inputs_digest": digest, "maps_digest": wl.maps_digest(),
            "setup": setup, "warmups_s": warm, "details": m.details,
            "latencies_ms": m.latencies_ms, "problems": problems,
            "result": result,
        }
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload in turn, each in a child process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache-dir", str(args.cache_dir)]
        if args.smoke:
            cmd.append("--smoke")
        if args.output:
            cmd += ["--output", str(args.output.with_suffix(f".{name}.json"))]
        if args.trace_dir:
            cmd += ["--trace-dir", str(args.trace_dir / name)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {child.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and child.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_profile(args) -> int:
    """cProfile around one timed operation, after set-up and a warm-up."""
    import cProfile
    import pstats

    from crowdbench import workloads
    from crowdbench.worlds import WorldCache

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.profile](
        args.seed, sizes, WorldCache(args.cache_dir, ROOT / "src")
    )
    wl.prepare()
    wl.setup()
    wl.warmup()
    op = wl.profile_op()
    profiler = cProfile.Profile()
    profiler.runcall(op)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative", "tottime").print_stats(30)
    if args.output:
        profiler.dump_stats(str(args.output))
    return 0


def main(argv=None) -> int:
    _isolate()
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv and argv[0] == "compare":
        from crowdbench.compare import main as compare_main
        return compare_main(argv[1:], spec)
    parser = _parser(spec)
    args = parser.parse_args(argv)
    if args.profile:
        return run_profile(args)
    if args.workload is None:
        parser.error("--workload or --profile is required")
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
